//! Durable sessions: the `restore-state` format, v1 backward
//! compatibility, typed parse errors, and per-tenant policy overrides.

use restore_common::Error;
use restore_core::{Heuristic, ReStore, ReStoreConfig, SelectionPolicy};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};

fn dfs() -> Dfs {
    let dfs = Dfs::new(DfsConfig::small_for_tests());
    dfs.write_all("/data/pv", b"alice\t4\nbob\t7\nalice\t1\ncarol\t9\n").unwrap();
    dfs.write_all("/data/users", b"alice\tkitchener\nbob\ttoronto\n").unwrap();
    dfs
}

fn engine_over(dfs: Dfs) -> Engine {
    Engine::new(dfs, ClusterConfig::default(), EngineConfig::default())
}

fn sum_query(out: &str) -> String {
    format!(
        "A = load '/data/pv' as (user, n:int);
         G = group A by user;
         R = foreach G generate group, SUM(A.n);
         store R into '{out}';"
    )
}

fn join_query(out: &str) -> String {
    format!(
        "A = load '/data/pv' as (user, revenue:int);
         B = load '/data/users' as (name, city);
         C = join B by name, A by user;
         D = group C by $0;
         E = foreach D generate group, SUM(C.revenue);
         store E into '{out}';"
    )
}

// ---- v1 backward compatibility ----

/// A literal state file in the pre-v2 wire format (what `save_state`
/// produced before tenant serialization existed). It must keep loading
/// — into the default namespace — forever.
const V1_FIXTURE: &str = r#"restore-state v1
tick 7
cand 3
--provenance--
path "/repo/b"
  0 load "/data/pv"
  1 project 0,2 <- 0
  2 store "/repo/b" <- 1
end
--repository--
entry 0 "/repo/b" 100 10 5 1.5 2.5 3 6 1
input "/data/pv" 0
plan
  0 load "/data/pv"
  1 project 0,2 <- 0
  2 store "/repo/b" <- 1
end
"#;

/// Cut a v1 document by hand from the dump of a session whose only
/// namespace is the default one and holds no dead letters: the counters
/// plus its provenance and repository tables.
fn v1_cut(dump: &str) -> String {
    let counters: Vec<&str> = dump.lines().skip(1).take(2).collect();
    let tables = &dump[dump.find("--provenance--").expect("tables")..];
    format!("restore-state v1\n{}\n{tables}", counters.join("\n"))
}

#[test]
fn v1_fixture_from_before_this_pr_still_loads() {
    let d = dfs();
    d.write_all("/repo/b", b"stored bytes").unwrap();
    let rs = ReStore::new(engine_over(d), ReStoreConfig::default());
    rs.load_state(V1_FIXTURE).unwrap();

    // Counters and the default namespace are restored.
    let stats = rs.stats();
    assert_eq!(stats.queries_executed, 7);
    assert_eq!(stats.repository_entries, 1);
    assert_eq!(stats.provenance_entries, 1);
    rs.with_repository_as(None, |repo| {
        let e = &repo.entries()[0];
        assert_eq!(e.output_path, "/repo/b");
        assert_eq!(e.stats().use_count, 3);
        assert_eq!(e.stats().input_files, vec![("/data/pv".to_string(), 0)]);
    });
    rs.with_provenance_as(None, |prov| assert!(prov.contains("/repo/b")));

    // The default namespace re-saves byte-identically: cutting the
    // current dump back to v1 reproduces the fixture (the round-trip
    // property, v1 flavour).
    assert_eq!(v1_cut(&rs.save_state()), V1_FIXTURE);
}

#[test]
fn v1_state_load_preserves_warm_hits() {
    let shared = dfs();
    let rs = ReStore::new(engine_over(shared.clone()), ReStoreConfig::default());
    rs.execute_query(&sum_query("/out/cold"), "/wf/cold").unwrap();
    let v1 = v1_cut(&rs.save_state());
    drop(rs);

    // "Restart": a fresh session over the same DFS resumes from v1 and
    // answers the rerun from the repository.
    let resumed = ReStore::new(engine_over(shared), ReStoreConfig::default());
    resumed.load_state(&v1).unwrap();
    let warm = resumed.execute_query(&sum_query("/out/warm"), "/wf/warm").unwrap();
    assert_eq!(warm.jobs_skipped, 1, "v1 state must keep serving warm hits");
}

#[test]
fn v1_load_leaves_tenant_state_alone() {
    let rs = ReStore::new(engine_over(dfs()), ReStoreConfig::default());
    rs.execute_query_as(Some("ana"), &sum_query("/out/a"), "/wf/a").unwrap();
    let ana_entries = rs.stats_as(Some("ana")).repository_entries;
    assert!(ana_entries > 0);
    rs.load_state(V1_FIXTURE).unwrap();
    // The v1 document predates tenants: it replaces only the default
    // namespace.
    assert_eq!(rs.stats_as(Some("ana")).repository_entries, ana_entries);
    assert_eq!(rs.stats().repository_entries, 1);
}

// ---- v2 round trip and restart parity ----

#[test]
fn v2_save_load_save_is_byte_identical() {
    let shared = dfs();
    let rs = ReStore::new(engine_over(shared.clone()), ReStoreConfig::default());
    rs.set_config_as(
        Some("tuned"),
        ReStoreConfig { heuristic: Heuristic::Conservative, ..Default::default() },
    );
    rs.execute_query(&sum_query("/out/d"), "/wf/d").unwrap();
    rs.execute_query_as(Some("tuned"), &join_query("/out/t"), "/wf/t").unwrap();
    rs.execute_query_as(Some("plain"), &sum_query("/out/p"), "/wf/p").unwrap();

    let s1 = rs.save_state();
    let resumed = ReStore::new(engine_over(shared.clone()), ReStoreConfig::default());
    resumed.load_state(&s1).unwrap();
    let s2 = resumed.save_state();
    assert_eq!(s1, s2, "save -> load -> save must be byte-identical");

    // And a second generation, for good measure.
    let third = ReStore::new(engine_over(shared), ReStoreConfig::default());
    third.load_state(&s2).unwrap();
    assert_eq!(third.save_state(), s2);
}

#[test]
fn v2_restores_tenant_namespaces_configs_and_counters() {
    let shared = dfs();
    let rs = ReStore::new(engine_over(shared.clone()), ReStoreConfig::default());
    let tuned = ReStoreConfig {
        heuristic: Heuristic::Conservative,
        selection: SelectionPolicy { eviction_window: Some(50), ..Default::default() },
        ..Default::default()
    };
    rs.set_config_as(Some("tuned"), tuned.clone());
    rs.execute_query_as(Some("tuned"), &sum_query("/out/t"), "/wf/t").unwrap();
    rs.execute_query_as(Some("other"), &join_query("/out/o"), "/wf/o").unwrap();
    rs.execute_query(&sum_query("/out/d"), "/wf/d").unwrap();
    let state = rs.save_state();
    let want_tuned = rs.stats_as(Some("tuned"));
    let want_other = rs.stats_as(Some("other"));
    let want_default = rs.stats();
    drop(rs);

    let resumed = ReStore::new(engine_over(shared), ReStoreConfig::default());
    resumed.load_state(&state).unwrap();
    assert_eq!(resumed.stats_as(Some("tuned")), want_tuned);
    assert_eq!(resumed.stats_as(Some("other")), want_other);
    assert_eq!(resumed.stats(), want_default);
    assert_eq!(resumed.tenant_ids(), vec!["other".to_string(), "tuned".to_string()]);
    assert_eq!(resumed.config_as(Some("tuned")), tuned, "policy override survives the restart");
    assert_eq!(
        resumed.config_as(Some("other")),
        resumed.config(),
        "tenants without an override follow the global default"
    );

    // Warm-hit parity: each tenant's rerun is answered from its own
    // restored repository.
    let t = resumed.execute_query_as(Some("tuned"), &sum_query("/out/t2"), "/wf/t2").unwrap();
    assert_eq!(t.jobs_skipped, 1);
    let o = resumed.execute_query_as(Some("other"), &join_query("/out/o2"), "/wf/o2").unwrap();
    assert!(o.jobs_skipped > 0 || !o.rewrites.is_empty());
    let d = resumed.execute_query(&sum_query("/out/d2"), "/wf/d2").unwrap();
    assert_eq!(d.jobs_skipped, 1);
}

#[test]
fn v2_load_replaces_preexisting_tenants() {
    let shared = dfs();
    let rs = ReStore::new(engine_over(shared.clone()), ReStoreConfig::default());
    rs.execute_query_as(Some("keeper"), &sum_query("/out/k"), "/wf/k").unwrap();
    let state = rs.save_state();

    let other = ReStore::new(engine_over(shared), ReStoreConfig::default());
    other.execute_query_as(Some("stray"), &sum_query("/out/s"), "/wf/s").unwrap();
    other.load_state(&state).unwrap();
    // A v2 restore is a full-session replacement: tenants not in the
    // snapshot are gone.
    assert_eq!(other.tenant_ids(), vec!["keeper".to_string()]);
}

#[test]
fn v2_load_without_default_section_still_resets_default_namespace() {
    // Hand-prune the default `--space ""--` section out of a valid
    // document: a v2 restore is a *full* session replacement, so the
    // default namespace must come back empty, not keep stale state.
    let doc = valid_v2();
    let start = doc.find("--space \"\"--").unwrap();
    let end = doc.find("--space \"ana\"--").unwrap();
    let pruned = format!("{}{}", &doc[..start], &doc[end..]);

    let rs = ReStore::new(engine_over(dfs()), ReStoreConfig::default());
    rs.execute_query(&sum_query("/out/stale"), "/wf/stale").unwrap();
    assert!(rs.stats().repository_entries > 0);
    rs.load_state(&pruned).unwrap();
    assert_eq!(rs.stats().repository_entries, 0, "default namespace fully replaced");
    assert_eq!(rs.stats().provenance_entries, 0);
    assert_eq!(rs.tenant_ids(), vec!["ana".to_string()]);
}

// ---- per-tenant policy overrides govern execution ----

#[test]
fn tenant_config_override_governs_execution() {
    let rs = ReStore::new(engine_over(dfs()), ReStoreConfig::default());
    // "frugal" stores nothing: no candidate heuristic, no whole-job
    // registration.
    rs.set_config_as(
        Some("frugal"),
        ReStoreConfig {
            heuristic: Heuristic::None,
            register_final_outputs: false,
            ..Default::default()
        },
    );

    rs.execute_query_as(Some("frugal"), &sum_query("/out/f"), "/wf/f").unwrap();
    rs.execute_query_as(Some("packrat"), &sum_query("/out/p"), "/wf/p").unwrap();

    assert_eq!(rs.stats_as(Some("frugal")).repository_entries, 0, "frugal's policy stores nothing");
    assert!(
        rs.stats_as(Some("packrat")).repository_entries > 0,
        "packrat follows the global store-everything default"
    );

    // The override is visible, and clearing it falls back to the global.
    assert_eq!(rs.config_as(Some("frugal")).heuristic, Heuristic::None);
    rs.clear_config_as("frugal");
    assert_eq!(rs.config_as(Some("frugal")), rs.config());
    let f2 = rs.execute_query_as(Some("frugal"), &sum_query("/out/f2"), "/wf/f2").unwrap();
    assert!(f2.candidates_stored > 0 || rs.stats_as(Some("frugal")).repository_entries > 0);
}

#[test]
fn tenant_eviction_policy_sweeps_only_its_own_space() {
    let rs = ReStore::new(engine_over(dfs()), ReStoreConfig::default());
    // "spartan" evicts anything unused for one tick; the global default
    // (and thus "packrat") never evicts.
    rs.set_config_as(
        Some("spartan"),
        ReStoreConfig {
            selection: SelectionPolicy { eviction_window: Some(1), ..Default::default() },
            ..Default::default()
        },
    );

    // Tick 1-2: both tenants store entries.
    rs.execute_query_as(Some("spartan"), &sum_query("/out/s1"), "/wf/s1").unwrap();
    rs.execute_query_as(Some("packrat"), &sum_query("/out/p1"), "/wf/p1").unwrap();
    let packrat_before = rs.stats_as(Some("packrat")).repository_entries;

    // Ticks 3..: spartan submits a *different* query well past the
    // window; its sweep (run with spartan's policy) evicts spartan's
    // stale entries. Packrat's space is untouched.
    for i in 0..4 {
        rs.execute_query_as(Some("spartan"), &join_query(&format!("/out/s{i}j")), "/wf/sj")
            .unwrap();
    }
    rs.with_repository_as(Some("spartan"), |repo| {
        assert!(
            repo.entries().iter().all(|e| !e.output_path.contains("/out/s1")),
            "spartan's one-tick window evicted its stale entries"
        );
    });
    assert_eq!(
        rs.stats_as(Some("packrat")).repository_entries,
        packrat_before,
        "spartan's aggressive policy never touches packrat's space"
    );
}

// ---- typed parse errors ----

fn expect_state_err(doc: &str, want_line: usize, needle: &str) {
    let rs = ReStore::new(engine_over(dfs()), ReStoreConfig::default());
    match rs.load_state(doc) {
        Err(Error::State { line, msg }) => {
            assert_eq!(line, want_line, "error should point at line {want_line}: {msg}");
            assert!(
                msg.contains(needle),
                "error at line {line} should mention {needle:?}, got: {msg}"
            );
        }
        Err(other) => panic!("expected Error::State, got {other:?}"),
        Ok(()) => panic!("malformed document must not load"),
    }
}

/// A small valid v2 document to corrupt per test.
fn valid_v2() -> String {
    let rs = ReStore::new(engine_over(dfs()), ReStoreConfig::default());
    rs.execute_query_as(Some("ana"), &sum_query("/out/a"), "/wf/a").unwrap();
    rs.save_state()
}

#[test]
fn malformed_version_header() {
    expect_state_err("restore-state v9\ntick 0\ncand 0\n", 1, "restore-state");
    expect_state_err("", 1, "empty document");
}

#[test]
fn malformed_tick_line() {
    expect_state_err("restore-state v2\ntick x\ncand 0\n", 2, "tick");
    expect_state_err("restore-state v2\n", 2, "tick");
}

#[test]
fn malformed_cand_line() {
    expect_state_err("restore-state v2\ntick 3\ncand\n", 3, "cand");
}

#[test]
fn missing_config_section() {
    expect_state_err("restore-state v2\ntick 3\ncand 1\n--provenance--\n", 4, "--config--");
}

#[test]
fn unknown_config_key_is_located() {
    let doc = valid_v2().replace("reuse_enabled true", "frobnicate 9");
    let line = 1 + doc.lines().position(|l| l == "frobnicate 9").unwrap();
    expect_state_err(&doc, line, "frobnicate");
}

#[test]
fn bad_config_value_is_located() {
    let doc = valid_v2().replace("wave_parallel true", "wave_parallel maybe");
    let line = 1 + doc.lines().position(|l| l == "wave_parallel maybe").unwrap();
    expect_state_err(&doc, line, "wave_parallel");
}

#[test]
fn malformed_space_header() {
    let doc = valid_v2().replace("--space \"ana\"--", "--space ana--");
    let line = 1 + doc.lines().position(|l| l == "--space ana--").unwrap();
    expect_state_err(&doc, line, "--space");
}

#[test]
fn unknown_section_header() {
    let doc = valid_v2().replace("--space \"ana\"--", "--tenant \"ana\"--");
    let line = 1 + doc.lines().position(|l| l == "--tenant \"ana\"--").unwrap();
    expect_state_err(&doc, line, "--space");
}

#[test]
fn duplicate_space_section_is_rejected() {
    let base = valid_v2();
    let tail = base[base.find("--space \"ana\"--").unwrap()..].to_string();
    let doc = format!("{base}{tail}");
    let line = doc
        .lines()
        .enumerate()
        .filter(|(_, l)| *l == "--space \"ana\"--")
        .nth(1)
        .map(|(i, _)| i + 1)
        .unwrap();
    expect_state_err(&doc, line, "duplicate");
}

#[test]
fn missing_provenance_section() {
    let doc = valid_v2().replacen("--provenance--", "--prov--", 1);
    let line = 1 + doc.lines().position(|l| l == "--prov--").unwrap();
    expect_state_err(&doc, line, "--provenance--");
}

#[test]
fn missing_repository_section() {
    let doc = valid_v2().replacen("--repository--", "--repo--", 1);
    let line = 1 + doc.lines().position(|l| l == "--repo--").unwrap();
    expect_state_err(&doc, line, "--repository--");
}

#[test]
fn corrupt_provenance_body_names_the_section() {
    let doc = valid_v2().replacen("path \"", "wat \"", 1);
    match ReStore::new(engine_over(dfs()), ReStoreConfig::default()).load_state(&doc) {
        Err(Error::State { msg, .. }) => {
            assert!(msg.contains("--provenance--"), "{msg}");
        }
        other => panic!("expected Error::State, got {other:?}"),
    }
}

#[test]
fn corrupt_repository_body_names_the_section() {
    let doc = valid_v2().replacen("entry ", "entryx ", 1);
    match ReStore::new(engine_over(dfs()), ReStoreConfig::default()).load_state(&doc) {
        Err(Error::State { msg, .. }) => {
            assert!(msg.contains("--repository--"), "{msg}");
        }
        other => panic!("expected Error::State, got {other:?}"),
    }
}

#[test]
fn plan_input_past_its_node_is_located() {
    // A stored plan whose store reads a node that does not exist.
    let doc = "restore-state v5\ntick 0\ncand 0\nseq 0\n--config--\n--space \"\"--\n\
               --provenance--\n--repository--\nentry 0 \"/r\" 1 1 1 0 0 0 0 1\nplan\n  \
               0 load \"/a\"\n  1 store \"/r\" <- 5\nend\n";
    expect_state_err(doc, 8, "input id 5");
}

#[test]
fn v1_trailing_section_is_rejected() {
    let doc = format!("{V1_FIXTURE}--space \"x\"--\n");
    let line = doc.lines().count();
    expect_state_err(&doc, line, "trailing");
}
