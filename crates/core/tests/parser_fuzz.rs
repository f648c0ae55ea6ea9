//! Deterministic parser fuzz for the durability path: mutated
//! `restore-state` dumps and journal segments of a real multi-tenant
//! session must load or fail with a typed error, never panic. Journal
//! mutations re-frame the damaged record with a valid checksum, so the
//! record-body parsers are reached too. Fixed seeds, no dependencies.

use restore_common::Error;
use restore_core::journal::SEGMENT_HEADER;
use restore_core::{FailurePolicy, JournalConfig, ReStore, ReStoreConfig};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutated inputs per parser and seed.
const CASES: usize = 1500;
const SEEDS: [u64; 2] = [0x5EED_0001, 0x5EED_0002];

fn session(dfs: &Dfs) -> ReStore {
    let engine = Engine::new(dfs.clone(), ClusterConfig::default(), EngineConfig::default());
    ReStore::new(engine, ReStoreConfig::default())
}

/// A journaled session holding every kind of durable state (tenants,
/// a policy override, dead letters, an open breaker, a `replace`
/// record), with its base dump and the segments journaled since.
fn real_session(dfs: &Dfs) -> (ReStore, String, Vec<String>) {
    dfs.write_all("/data/pv", b"alice\t4\nbob\t7\nalice\t1\ncarol\t9\n").unwrap();
    let rs = session(dfs);
    rs.enable_journal(JournalConfig { segment_bytes: 2048 });
    let base = rs.save_state();
    rs.load_state(&base).unwrap();
    let capped = FailurePolicy { dlq_max_entries: 8, ..Default::default() };
    rs.set_config_as(Some("ana"), ReStoreConfig { failure: capped, ..Default::default() });
    for (i, tenant) in [None, Some("ana"), Some("zoë"), Some("zoë")].into_iter().enumerate() {
        let q = format!(
            "A = load '/data/pv' as (user, n:int); B = filter A by n > 1;
             G = group B by user; R = foreach G generate group, SUM(B.n);
             store R into '/out/{i}';"
        );
        rs.execute_query_as(tenant, &q, &format!("/wf/{i}")).unwrap();
        let wf = restore_dataflow::compile(&q, "/wf/dlq").unwrap();
        rs.dlq_put_as(tenant, wf, &format!("boom \"{i}\""), 2);
    }
    rs.note_breaker_state(Some("zoë"), true);
    let segments = rs.save_state_delta().unwrap();
    assert!(segments.len() > 1, "the corpus should span several segments");
    (rs, base, segments)
}

/// xorshift64*: one seed, one mutation schedule.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n as u64) as usize
    }
}

/// Digits, the format's delimiters, and the two bytes of `é` (a lone
/// one becomes the 3-byte U+FFFD).
const ALPHABET: &[u8] = b"0123456789 -\n\"<,.:()xre\xc3\xa9";

/// One to three random edits: delete, insert, duplicate, or cut bytes.
fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..1 + rng.below(3) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.below(bytes.len());
        let span = 1 + rng.below(8.min(bytes.len() - at));
        let insert: Vec<u8> = match rng.below(4) {
            0 => (0..span).map(|_| ALPHABET[rng.below(ALPHABET.len())]).collect(),
            1 => bytes[at..at + span].to_vec(),
            2 => {
                bytes.drain(at..at + span);
                continue;
            }
            _ => {
                bytes.truncate(at);
                continue;
            }
        };
        let to = rng.below(bytes.len() + 1);
        bytes.splice(to..to, insert);
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Run `parse`; a panic or an untyped error fails with the input.
fn assert_typed<T>(input: &str, parse: impl FnOnce() -> restore_common::Result<T>) {
    match catch_unwind(AssertUnwindSafe(parse)) {
        Ok(Ok(_)) | Ok(Err(Error::State { .. } | Error::Journal { .. } | Error::Config(_))) => {}
        Ok(Err(other)) => panic!("untyped error {other:?} on input:\n{input}"),
        Err(_) => panic!("panicked on input:\n{input}"),
    }
}

/// The `(seq, payload)` frames of a well-formed segment.
fn frames(segment: &str) -> Vec<(u64, String)> {
    let mut rest = &segment[SEGMENT_HEADER.len() + 1..];
    let mut out = Vec::new();
    while let Some((head, tail)) = rest.split_once('\n') {
        let fields: Vec<&str> = head.split(' ').collect();
        let len: usize = fields[2].parse().unwrap();
        out.push((fields[1].parse().unwrap(), tail[..len].to_string()));
        rest = &tail[len..];
    }
    out
}

/// Frame payloads into a segment, each with its FNV-1a checksum.
fn framed(frames: &[(u64, String)]) -> String {
    let mut out = format!("{SEGMENT_HEADER}\n");
    for (seq, payload) in frames {
        let sum = payload
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x1000_0000_01b3));
        out.push_str(&format!("r {seq} {} {sum:016x}\n{payload}", payload.len()));
    }
    out
}

#[test]
fn corrupted_restore_state_never_panics() {
    let dfs = Dfs::new(DfsConfig::small_for_tests());
    let dump = real_session(&dfs).0.save_state();
    assert!(dump.contains("--dlq--") && dump.contains("--space \"zoë\"--"));
    let target = session(&dfs);
    for seed in SEEDS {
        let mut rng = Rng(seed);
        for _ in 0..CASES {
            let doc = mutate(&mut rng, &dump);
            assert_typed(&doc, || target.load_state(&doc));
        }
    }
}

#[test]
fn corrupted_journal_segments_never_panic() {
    let dfs = Dfs::new(DfsConfig::small_for_tests());
    let (rs, base, segments) = real_session(&dfs);
    let decoded: Vec<_> = segments.iter().map(|s| frames(s)).collect();
    assert_eq!(decoded.iter().map(|f| framed(f)).collect::<Vec<_>>(), segments);
    let target = session(&dfs);
    target.recover(&base, &segments).unwrap();
    assert_eq!(target.save_state(), rs.save_state(), "the untouched set recovers exactly");
    for seed in SEEDS {
        let mut rng = Rng(seed);
        for case in 0..CASES {
            let mut set = segments.clone();
            let s = rng.below(set.len());
            set[s] = if case % 2 == 0 {
                // A damaged record body behind a valid checksum.
                let mut f = decoded[s].clone();
                let r = rng.below(f.len());
                f[r].1 = mutate(&mut rng, &f[r].1);
                framed(&f)
            } else {
                // Raw damage: frame headers, lengths, checksums.
                mutate(&mut rng, &set[s])
            };
            assert_typed(&set[s], || target.recover(&base, &set));
        }
    }
}
