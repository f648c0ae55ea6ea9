//! Crash recovery from the snapshot journal: continuous checkpointing
//! under load, a simulated process kill mid-journal, and recovery from
//! the torn checkpoint set.
//!
//! The service runs a mixed-tenant workload in **continuous-checkpoint
//! mode**: a base checkpoint is anchored once, then cheap incremental
//! deltas are captured between rounds *without ever pausing dispatch*.
//! The "crash" truncates the live (last) journal segment at a
//! pseudo-random byte offset — exactly what a process death mid-append
//! leaves on disk. Recovery loads the base, replays the journal,
//! truncates the torn tail, and the warm rerun is served from the
//! recovered repositories. The loop repeats the kill at several
//! offsets to show recovery is offset-independent; the last pass is a
//! clean shutdown, whose recovery reproduces the live session byte for
//! byte, per-tenant policy overrides included.
//!
//! ```sh
//! cargo run --example crash_recovery
//! ```

use restore_suite::core::{Heuristic, ReStore, ReStoreConfig};
use restore_suite::dfs::{Dfs, DfsConfig};
use restore_suite::mapreduce::{ClusterConfig, Engine, EngineConfig};
use restore_suite::pigmix::{datagen, queries, DataScale};
use restore_suite::service::{CheckpointConfig, RestoreService, ServiceConfig};

fn new_service(dfs: Dfs) -> RestoreService {
    let engine = Engine::new(
        dfs,
        ClusterConfig::default(),
        EngineConfig { worker_threads: 2, default_reduce_tasks: 3 },
    );
    RestoreService::new(
        ReStore::new(engine, ReStoreConfig::default()),
        ServiceConfig { workers: 4, queue_depth: 64, ..Default::default() },
    )
}

fn run_round(service: &RestoreService, tag: &str) -> usize {
    let mut handles = Vec::new();
    for t in ["ana", "bo"] {
        for (name, q, prefix) in [
            ("l3", queries::l3(&format!("/out/{tag}/{t}/l3")), format!("/wf/{tag}/{t}/l3")),
            ("l8", queries::l8(&format!("/out/{tag}/{t}/l8")), format!("/wf/{tag}/{t}/l8")),
        ] {
            handles.push((t, name, service.submit(Some(t), &q, &prefix).expect("admitted")));
        }
    }
    let mut skipped = 0;
    for (_, _, h) in handles {
        skipped += h.wait().expect("query completes").jobs_skipped;
    }
    skipped
}

fn main() {
    // 1. A simulated cluster with PigMix data; the DFS is the durable
    //    side (stored outputs survive the "crash").
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 4096, replication: 2, node_capacity: None });
    datagen::generate(&dfs, &DataScale::tiny(), 0xC0_FFEE).expect("datagen");

    // 2. Serve the workload in continuous-checkpoint mode: one base
    //    anchor, then a delta per round — no drain, no pause.
    let service = new_service(dfs.clone());
    let begin = service.checkpoint_begin(CheckpointConfig::default());
    println!("base checkpoint anchored: {} bytes", begin.base_bytes);
    service.set_tenant_config(
        Some("ana"),
        ReStoreConfig { heuristic: Heuristic::Conservative, ..Default::default() },
    );
    for round in 0..3 {
        let skipped = run_round(&service, &format!("r{round}"));
        let outcome = service.checkpoint_incremental().expect("capture");
        println!(
            "round {round}: {skipped} job(s) answered from the repository; \
             delta captured {} segment(s) ({} journal bytes on a {}-byte base{})",
            outcome.segments_added,
            outcome.journal_bytes,
            outcome.base_bytes,
            if outcome.compacted { ", compacted" } else { "" },
        );
    }
    service.drain();
    service.checkpoint_incremental().expect("final capture");
    let reference = service.driver().save_state();
    let set = service.checkpoint_set().expect("checkpointing enabled");
    drop(service); // the crash: only the DFS and the checkpoint set survive

    // 3. Kill the journal at several pseudo-random offsets: every
    //    truncation must recover to a consistent prefix.
    let last = set.segments.last().expect("journaled work").clone();
    let mut lcg: u64 = 0x9E3779B97F4A7C15;
    let mut offsets: Vec<usize> = (0..4)
        .map(|_| {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (lcg >> 33) as usize % last.len()
        })
        .collect();
    offsets.push(last.len()); // and the clean-shutdown case

    for cut in offsets {
        let mut torn_set = set.clone();
        *torn_set.segments.last_mut().unwrap() = last[..cut].to_string();

        let resumed = new_service(dfs.clone());
        let report = resumed.restore_incremental(&torn_set).expect("recovery");
        println!(
            "kill at byte {cut}/{}: {} record(s) replayed, torn tail {}",
            last.len(),
            report.records_applied,
            match report.torn_tail {
                Some(t) => format!("truncated at offset {}", t.offset),
                None => "none (clean boundary)".to_string(),
            },
        );
        // A full, untorn set must reproduce the live session exactly.
        if cut == last.len() {
            assert_eq!(
                resumed.driver().save_state(),
                reference,
                "untorn recovery must be byte-identical to the crashed session"
            );
            assert_eq!(
                resumed.tenant_config(Some("ana")).heuristic,
                Heuristic::Conservative,
                "per-tenant policy overrides are part of the durable state",
            );
        }
        // Whatever prefix we recovered is internally consistent: it
        // re-saves cleanly and serves the warm rerun.
        let warm = run_round(&resumed, &format!("warm{cut}"));
        println!("  warm rerun after recovery: {warm} job(s) skipped");
        assert!(warm > 0, "recovered repositories must serve reuse");
        resumed.shutdown();
    }
    println!("crash recovery OK: every offset recovered a consistent prefix");
}
