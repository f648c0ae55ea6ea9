//! `restore-state` (de)serialization: the durable session format.
//!
//! [`ReStore::save_state`](crate::ReStore::save_state) writes the
//! current version, **v5**: the tick/cand counters, the `seq` line (the
//! snapshot-journal sequence number the dump is anchored at, see
//! [`crate::journal`]), the global configuration, and **every**
//! namespace (default and per-tenant) with its policy override (when
//! set), provenance table, repository, and dead-letter queue (when
//! non-empty, see [`crate::dlq`]).
//!
//! One [`parse`] reads every version, 1 through 5. The header's version
//! number decides which parts are required; whatever an older version
//! lacks takes its default:
//!
//! * the `seq` line is required from v3 on; older documents anchor at
//!   sequence 0, so *any* journal segment replays on top of them;
//! * the `--config--` section and the `--space "<tenant>"--` sections
//!   are required from v2 on. A v1 document holds one bare provenance /
//!   repository pair instead and loads into the default namespace only,
//!   leaving tenants and the global configuration untouched;
//! * configuration keys missing from a section keep their defaults
//!   (pre-v4 documents get the default failure policy, pre-v5 ones the
//!   unbounded dead-letter queue and `canonicalize` on), and a missing
//!   `--dlq--` section is an empty queue.
//!
//! The format is line-oriented. Section headers are `--config--`,
//! `--provenance--`, `--repository--`, `--dlq--`, and
//! `--space "<tenant>"--` (the empty name is the default namespace);
//! body lines never begin with `--`, so sections split unambiguously.
//! Tenants are written in sorted order, config fields in a fixed
//! order, and dead-letter entries in id order, which makes
//! `save_state → load_state → save_state` byte-identical.
//!
//! Parse failures surface as [`Error::State`] carrying the 1-based line
//! number and the offending line, so a corrupt snapshot points at
//! itself instead of a generic "malformed restore-state".

use crate::driver::ReStoreConfig;
use crate::enumerator::Heuristic;
use crate::failure::FailureDisposition;
use crate::provenance::Provenance;
use crate::repository::Repository;
use restore_common::{Error, Result};

/// Every document begins with this prefix followed by its version.
pub(crate) const HEADER_PREFIX: &str = "restore-state v";
/// The version [`ReStore::save_state`](crate::ReStore::save_state)
/// writes; [`parse`] reads it and every earlier one.
pub(crate) const CURRENT_VERSION: u32 = 5;

/// One deserialized namespace (`name == ""` is the default).
pub(crate) struct LoadedSpace {
    pub name: String,
    pub config: Option<ReStoreConfig>,
    pub prov: Provenance,
    pub repo: Repository,
    /// The namespace's dead-letter queue (empty for pre-v4 documents).
    pub dlq: Vec<crate::dlq::DlqEntry>,
}

/// A fully deserialized `restore-state` document.
pub(crate) struct LoadedState {
    pub tick: u64,
    pub cand: u64,
    /// Journal sequence number the document is anchored at (0 for
    /// v1/v2 documents, which predate the journal).
    pub seq: u64,
    /// The global (default) policy; `None` for v1 documents, which
    /// predate config serialization.
    pub global_config: Option<ReStoreConfig>,
    pub spaces: Vec<LoadedSpace>,
}

/// Typed parse error pointing at a 1-based document line.
fn err_at(line_idx: usize, msg: impl Into<String>) -> Error {
    Error::State { line: line_idx + 1, msg: msg.into() }
}

// ---- config codec ----

fn heuristic_name(h: Heuristic) -> &'static str {
    match h {
        Heuristic::None => "none",
        Heuristic::Conservative => "conservative",
        Heuristic::Aggressive => "aggressive",
        Heuristic::NoHeuristic => "no-heuristic",
    }
}

fn heuristic_from(name: &str) -> Option<Heuristic> {
    match name {
        "none" => Some(Heuristic::None),
        "conservative" => Some(Heuristic::Conservative),
        "aggressive" => Some(Heuristic::Aggressive),
        "no-heuristic" => Some(Heuristic::NoHeuristic),
        _ => None,
    }
}

fn disposition_name(d: FailureDisposition) -> &'static str {
    match d {
        FailureDisposition::FailFast => "fail_fast",
        FailureDisposition::Retry => "retry",
        FailureDisposition::Dlq => "dlq",
        FailureDisposition::Drop => "drop",
    }
}

fn disposition_from(name: &str) -> Option<FailureDisposition> {
    match name {
        "fail_fast" => Some(FailureDisposition::FailFast),
        "retry" => Some(FailureDisposition::Retry),
        "dlq" => Some(FailureDisposition::Dlq),
        "drop" => Some(FailureDisposition::Drop),
        _ => None,
    }
}

/// Serialize a configuration as `key value` lines in fixed order (the
/// fixed order is what makes re-saving a loaded state byte-identical).
pub(crate) fn encode_config(c: &ReStoreConfig) -> String {
    let window = match c.selection.eviction_window {
        Some(w) => w.to_string(),
        None => "none".to_string(),
    };
    format!(
        "reuse_enabled {}\nheuristic {}\nrepo_prefix {:?}\ndelete_tmp {}\n\
         register_final_outputs {}\nwave_parallel {}\nstore_all {}\n\
         require_size_reduction {}\nrequire_time_benefit {}\nreload_read_bps {}\n\
         eviction_window {}\ncheck_input_versions {}\nrepo_shards {}\n\
         on_failure {}\nmax_retries {}\nretry_backoff_base_ms {}\n\
         retry_backoff_factor {}\nretry_backoff_cap_ms {}\nretry_backoff_jitter {}\n\
         failure_window {}\nfailure_threshold {}\nbreaker_cooldown_ms {}\n\
         breaker_half_open_probes {}\nbreaker_success_threshold {}\n\
         dlq_max_entries {}\ndlq_max_age_ticks {}\ncanonicalize {}\n",
        c.reuse_enabled,
        heuristic_name(c.heuristic),
        c.repo_prefix,
        c.delete_tmp,
        c.register_final_outputs,
        c.wave_parallel,
        c.selection.store_all,
        c.selection.require_size_reduction,
        c.selection.require_time_benefit,
        c.selection.reload_read_bps,
        window,
        c.selection.check_input_versions,
        c.repo_shards,
        disposition_name(c.failure.on_failure),
        c.failure.max_retries,
        c.failure.retry_backoff_base_ms,
        c.failure.retry_backoff_factor,
        c.failure.retry_backoff_cap_ms,
        c.failure.retry_backoff_jitter,
        c.failure.failure_window,
        c.failure.failure_threshold,
        c.failure.breaker_cooldown_ms,
        c.failure.breaker_half_open_probes,
        c.failure.breaker_success_threshold,
        c.failure.dlq_max_entries,
        c.failure.dlq_max_age_ticks,
        c.canonicalize,
    )
}

/// A numeric config value, or the caller's positioned error.
fn num<T: std::str::FromStr>(value: &str, bad: impl Fn() -> Error) -> Result<T> {
    value.parse().map_err(|_| bad())
}

/// Decode `key value` config lines. `base` is the document index of the
/// first line, used for error positions. Unknown keys and malformed
/// values are errors; missing keys keep their defaults (older snapshots
/// stay loadable if fields are added later).
pub(crate) fn decode_config(lines: &[&str], base: usize) -> Result<ReStoreConfig> {
    let mut c = ReStoreConfig::default();
    for (i, line) in lines.iter().enumerate() {
        let at = base + i;
        if line.trim().is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| err_at(at, format!("config line has no value: {line:?}")))?;
        let bad = || err_at(at, format!("bad value for config key {key}: {line:?}"));
        let parse_bool = |v: &str| match v {
            "true" => Ok(true),
            "false" => Ok(false),
            _ => Err(bad()),
        };
        let f = &mut c.failure;
        match key {
            "reuse_enabled" => c.reuse_enabled = parse_bool(value)?,
            "heuristic" => c.heuristic = heuristic_from(value).ok_or_else(bad)?,
            "repo_prefix" => c.repo_prefix = unquote(value, at)?,
            "delete_tmp" => c.delete_tmp = parse_bool(value)?,
            "register_final_outputs" => c.register_final_outputs = parse_bool(value)?,
            "wave_parallel" => c.wave_parallel = parse_bool(value)?,
            "store_all" => c.selection.store_all = parse_bool(value)?,
            "require_size_reduction" => c.selection.require_size_reduction = parse_bool(value)?,
            "require_time_benefit" => c.selection.require_time_benefit = parse_bool(value)?,
            "reload_read_bps" => c.selection.reload_read_bps = num(value, bad)?,
            "eviction_window" => {
                c.selection.eviction_window =
                    if value == "none" { None } else { Some(num(value, bad)?) }
            }
            "check_input_versions" => c.selection.check_input_versions = parse_bool(value)?,
            "repo_shards" => {
                // 0 (an "unset" default) normalizes to 1; an absurd
                // count is a typed config error, not a parse error.
                let n: usize = num(value, bad)?;
                if n > crate::repository::MAX_REPO_SHARDS {
                    return Err(Error::Config(format!(
                        "repo_shards {n} exceeds the maximum of {}",
                        crate::repository::MAX_REPO_SHARDS
                    )));
                }
                c.repo_shards = crate::repository::normalize_shards(n);
            }
            "on_failure" => f.on_failure = disposition_from(value).ok_or_else(bad)?,
            "max_retries" => f.max_retries = num(value, bad)?,
            "retry_backoff_base_ms" => f.retry_backoff_base_ms = num(value, bad)?,
            "retry_backoff_factor" => f.retry_backoff_factor = num(value, bad)?,
            "retry_backoff_cap_ms" => f.retry_backoff_cap_ms = num(value, bad)?,
            "retry_backoff_jitter" => f.retry_backoff_jitter = num(value, bad)?,
            "failure_window" => f.failure_window = num(value, bad)?,
            "failure_threshold" => f.failure_threshold = num(value, bad)?,
            "breaker_cooldown_ms" => f.breaker_cooldown_ms = num(value, bad)?,
            "breaker_half_open_probes" => f.breaker_half_open_probes = num(value, bad)?,
            "breaker_success_threshold" => f.breaker_success_threshold = num(value, bad)?,
            "dlq_max_entries" => f.dlq_max_entries = num(value, bad)?,
            "dlq_max_age_ticks" => f.dlq_max_age_ticks = num(value, bad)?,
            "canonicalize" => c.canonicalize = parse_bool(value)?,
            _ => return Err(err_at(at, format!("unknown config key {key:?}"))),
        }
    }
    Ok(c)
}

/// Invert `{:?}` string quoting with the plan-text unquoter. The input
/// must be exactly one quoted string: the plan-text unquoter also trims
/// surrounding whitespace, which would let malformed headers slip
/// through.
pub(crate) fn unquote(s: &str, at: usize) -> Result<String> {
    if !(s.len() >= 2 && s.starts_with('"') && s.ends_with('"')) {
        return Err(err_at(at, format!("expected a quoted string, got {s}")));
    }
    crate::plan_text::unquote(s).map_err(|_| err_at(at, format!("bad quoted string {s}")))
}

// ---- document structure ----

/// Skip blank lines; if the next line starts with `keyword`, consume it
/// and return the rest. Table bodies (provenance, repository, dead
/// letters, journal batches) dispatch on each record's leading keyword
/// this way.
pub(crate) fn next_keyword<'a>(
    lines: &mut std::iter::Peekable<std::str::Lines<'a>>,
    keyword: &str,
) -> Option<&'a str> {
    while lines.next_if(|l| l.trim().is_empty()).is_some() {}
    lines.next_if(|l| l.starts_with(keyword)).map(|l| &l[keyword.len()..])
}

/// Is this line a section header (`--…--`)?
fn is_header(line: &str) -> bool {
    line.len() >= 4 && line.starts_with("--") && line.ends_with("--")
}

/// Collect body lines from `idx` until the next section header (or the
/// end of the document); returns the body slice bounds.
fn body_end(lines: &[&str], mut idx: usize) -> usize {
    while idx < lines.len() && !is_header(lines[idx]) {
        idx += 1;
    }
    idx
}

fn parse_counter(lines: &[&str], idx: usize, key: &str) -> Result<u64> {
    lines
        .get(idx)
        .and_then(|l| l.strip_prefix(key))
        .and_then(|l| l.strip_prefix(' '))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| {
            err_at(
                idx,
                format!("expected \"{key} <number>\", got {:?}", lines.get(idx).unwrap_or(&"")),
            )
        })
}

/// Parse a `--provenance--` + `--repository--` pair starting at `idx`.
/// Returns the loaded tables and the index just past the repository
/// body.
fn parse_tables(lines: &[&str], idx: usize) -> Result<(Provenance, Repository, usize)> {
    if lines.get(idx).copied() != Some("--provenance--") {
        return Err(err_at(
            idx,
            format!("expected --provenance--, got {:?}", lines.get(idx).unwrap_or(&"<eof>")),
        ));
    }
    let prov_end = body_end(lines, idx + 1);
    let prov = Provenance::load(&lines[idx + 1..prov_end].join("\n"))
        .map_err(|e| err_at(idx, format!("in --provenance-- section: {e}")))?;
    if lines.get(prov_end).copied() != Some("--repository--") {
        return Err(err_at(
            prov_end,
            format!("expected --repository--, got {:?}", lines.get(prov_end).unwrap_or(&"<eof>")),
        ));
    }
    let repo_end = body_end(lines, prov_end + 1);
    let repo = Repository::load(&lines[prov_end + 1..repo_end].join("\n"))
        .map_err(|e| err_at(prov_end, format!("in --repository-- section: {e}")))?;
    Ok((prov, repo, repo_end))
}

/// The version number of the header line (`restore-state v<n>`,
/// `1 <= n <= CURRENT_VERSION`).
fn parse_version(lines: &[&str]) -> Result<u32> {
    lines
        .first()
        .and_then(|l| l.strip_prefix(HEADER_PREFIX))
        .filter(|v| v.len() == 1) // rejects spellings like `+5` or `05`
        .and_then(|v| v.parse().ok())
        .filter(|v| (1..=CURRENT_VERSION).contains(v))
        .ok_or_else(|| {
            err_at(
                0,
                format!(
                    "expected \"{HEADER_PREFIX}1\" through \"{HEADER_PREFIX}{CURRENT_VERSION}\", \
                     got {:?}",
                    lines.first().copied().unwrap_or("<empty document>")
                ),
            )
        })
}

/// Parse any wire version into a [`LoadedState`], filling in what an
/// older version lacks (see the module docs).
pub(crate) fn parse(text: &str) -> Result<LoadedState> {
    let lines: Vec<&str> = text.lines().collect();
    let version = parse_version(&lines)?;
    let tick = parse_counter(&lines, 1, "tick")?;
    let cand = parse_counter(&lines, 2, "cand")?;
    let (seq, mut idx) = if version >= 3 { (parse_counter(&lines, 3, "seq")?, 4) } else { (0, 3) };

    if version == 1 {
        // Predates config and tenant serialization: one bare table
        // pair, the default namespace.
        let (prov, repo, end) = parse_tables(&lines, idx)?;
        if end != lines.len() {
            return Err(err_at(end, format!("unexpected trailing section {:?}", lines[end])));
        }
        let space = LoadedSpace { name: String::new(), config: None, prov, repo, dlq: Vec::new() };
        return Ok(LoadedState { tick, cand, seq, global_config: None, spaces: vec![space] });
    }

    if lines.get(idx).copied() != Some("--config--") {
        return Err(err_at(
            idx,
            format!("expected --config--, got {:?}", lines.get(idx).unwrap_or(&"<eof>")),
        ));
    }
    let cfg_end = body_end(&lines, idx + 1);
    let global_config = Some(decode_config(&lines[idx + 1..cfg_end], idx + 1)?);

    let mut spaces = Vec::new();
    idx = cfg_end;
    while idx < lines.len() {
        let header = lines[idx];
        let bad_header = || err_at(idx, format!("expected --space \"<tenant>\"--, got {header:?}"));
        let name = header
            .strip_prefix("--space ")
            .and_then(|r| r.strip_suffix("--"))
            .ok_or_else(bad_header)
            .and_then(|quoted| unquote(quoted, idx).map_err(|_| bad_header()))?;
        if spaces.iter().any(|s: &LoadedSpace| s.name == name) {
            return Err(err_at(idx, format!("duplicate --space-- section for {name:?}")));
        }
        idx += 1;
        let config = if lines.get(idx).copied() == Some("--config--") {
            let end = body_end(&lines, idx + 1);
            let c = decode_config(&lines[idx + 1..end], idx + 1)?;
            idx = end;
            Some(c)
        } else {
            None
        };
        let (prov, repo, end) = parse_tables(&lines, idx)?;
        idx = end;
        // Optional dead-letter queue (omitted when empty).
        let dlq = if lines.get(idx).copied() == Some("--dlq--") {
            let dend = body_end(&lines, idx + 1);
            let q = crate::dlq::load(&lines[idx + 1..dend].join("\n"))
                .map_err(|e| err_at(idx, format!("in --dlq-- section: {e}")))?;
            idx = dend;
            q
        } else {
            Vec::new()
        };
        spaces.push(LoadedSpace { name, config, prov, repo, dlq });
    }
    Ok(LoadedState { tick, cand, seq, global_config, spaces })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::SelectionPolicy;

    #[test]
    fn config_codec_round_trips_every_field() {
        let config = ReStoreConfig {
            reuse_enabled: false,
            heuristic: Heuristic::Conservative,
            selection: SelectionPolicy {
                store_all: false,
                require_size_reduction: true,
                require_time_benefit: true,
                reload_read_bps: 12345.5,
                eviction_window: Some(42),
                check_input_versions: true,
            },
            repo_prefix: "/re store/\"x\"".to_string(),
            delete_tmp: true,
            register_final_outputs: false,
            wave_parallel: false,
            repo_shards: 8,
            failure: crate::failure::FailurePolicy {
                on_failure: FailureDisposition::Dlq,
                max_retries: 3,
                retry_backoff_base_ms: 10,
                retry_backoff_factor: 1.5,
                retry_backoff_cap_ms: 500,
                retry_backoff_jitter: 0.25,
                failure_window: 8,
                failure_threshold: 5,
                breaker_cooldown_ms: 750,
                breaker_half_open_probes: 1,
                breaker_success_threshold: 3,
                dlq_max_entries: 64,
                dlq_max_age_ticks: 1000,
            },
            canonicalize: false,
        };
        let text = encode_config(&config);
        let lines: Vec<&str> = text.lines().collect();
        let back = decode_config(&lines, 0).unwrap();
        assert_eq!(back, config);
        // And encoding is canonical: re-encoding is byte-identical.
        assert_eq!(encode_config(&back), text);
    }

    #[test]
    fn config_codec_default_round_trips() {
        let text = encode_config(&ReStoreConfig::default());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(decode_config(&lines, 0).unwrap(), ReStoreConfig::default());
    }

    #[test]
    fn pre_v5_documents_default_the_new_keys() {
        // A config body without the v5 keys (any v4-or-earlier dump)
        // loads with the analyzer on and the DLQ unbounded.
        let back = decode_config(&["reuse_enabled true"], 0).unwrap();
        assert!(back.canonicalize);
        assert_eq!(back.failure.dlq_max_entries, 0);
        assert_eq!(back.failure.dlq_max_age_ticks, 0);
    }

    #[test]
    fn repo_shards_zero_normalizes_to_one() {
        // 0 is "unset", not "no shards": it decodes as the classic
        // single-shard repository.
        let back = decode_config(&["repo_shards 0"], 0).unwrap();
        assert_eq!(back.repo_shards, 1);
    }

    #[test]
    fn absurd_repo_shards_is_a_typed_config_error() {
        let over = crate::repository::MAX_REPO_SHARDS + 1;
        let line = format!("repo_shards {over}");
        match decode_config(&[&line], 0).unwrap_err() {
            Error::Config(msg) => {
                assert!(msg.contains(&over.to_string()), "{msg}");
                assert!(msg.contains(&crate::repository::MAX_REPO_SHARDS.to_string()), "{msg}");
            }
            other => panic!("expected Error::Config, got {other:?}"),
        }
        // A merely *large* (but sane) count still decodes.
        let line = format!("repo_shards {}", crate::repository::MAX_REPO_SHARDS);
        let back = decode_config(&[&line], 0).unwrap();
        assert_eq!(back.repo_shards, crate::repository::MAX_REPO_SHARDS);
        // And an unparseable value is still a positioned parse error.
        match decode_config(&["repo_shards many"], 0).unwrap_err() {
            Error::State { line, msg } => {
                assert_eq!(line, 1);
                assert!(msg.contains("repo_shards"), "{msg}");
            }
            other => panic!("expected Error::State, got {other:?}"),
        }
    }

    #[test]
    fn unknown_config_key_names_its_line() {
        let e = decode_config(&["reuse_enabled true", "frobnicate 7"], 10).unwrap_err();
        match e {
            Error::State { line, msg } => {
                assert_eq!(line, 12, "1-based document line of the bad key");
                assert!(msg.contains("frobnicate"), "{msg}");
            }
            other => panic!("expected Error::State, got {other:?}"),
        }
    }

    #[test]
    fn bad_config_value_names_key_and_line() {
        let e = decode_config(&["wave_parallel maybe"], 0).unwrap_err();
        match e {
            Error::State { line, msg } => {
                assert_eq!(line, 1);
                assert!(msg.contains("wave_parallel"), "{msg}");
            }
            other => panic!("expected Error::State, got {other:?}"),
        }
    }
}
