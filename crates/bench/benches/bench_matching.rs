//! Concurrent repository-matching throughput: the pre-refactor locked
//! design vs the published-snapshot design, across repository sizes
//! and submitting threads.
//!
//! Two ablation arms, identical match kernels:
//!
//! * `locked_scan` — the old architecture: every match takes a
//!   repository-wide `RwLock` read guard and runs the paper's §3
//!   sequential scan under it; every *hit* then takes the **write**
//!   guard to bump the reuse statistics, serializing all readers.
//! * `snapshot_indexed` — the current architecture: each match loads
//!   the published repository view (one `Arc` clone per shard under a
//!   brief read lock), runs the index-routed matcher
//!   (`RepoView::find_first_match`), and records the reuse through the
//!   entry's shared atomics. No writer section is entered; the bench
//!   asserts the publish counter stays frozen.
//!
//! Repository sizes default to 10² / 10³ / 10⁴ entries and 1/2/4/8
//! threads; `MATCHING_SIZES` (comma-separated) trims the matrix — CI
//! smoke runs `MATCHING_SIZES=100`. Results archive as
//! `BENCH_matching.json` via `CRITERION_JSON`.
//!
//! A third arm, `matching_bulk_indexed`, pushes the snapshot design to
//! 10⁵ entries (override with `MATCHING_BULK_SIZES`): ordered
//! insertion is O(n²) in pairwise subsumption checks, so the corpus is
//! built with [`Repository::bulk_load`] — O(n log n) rule-2 ordering,
//! valid because the generated plans are pairwise incomparable. Only
//! the index-routed matcher runs at this size (the locked sequential
//! scan would take minutes per round).
//!
//! A fourth arm, `matching_bulk_telemetry`, measures the cost of
//! observation itself: the driver's instrumented match path (matcher +
//! counter/histogram recording) against the bare matcher on the same
//! corpus, and asserts the instrumented path stays within 5%
//! (interleaved min-of-rounds).
//!
//! A fifth arm, `insert_sharded`, is the **write-path** ablation: 1/2/
//! 4/8 writer threads registering disjoint plan corpora into a
//! repository striped 1 vs 8 ways (`MATCHING_SHARDS` overrides the
//! shard list). Single-shard, every insert serializes on one writer
//! section and its §3 ordering scan walks the whole repository;
//! striped, writers whose tip signatures hash to different shards
//! insert fully in parallel against 8× shorter scans.
//!
//! A sixth arm, `paraphrase_reuse`, is the **analyzer** ablation:
//! each round drives the paraphrased-PigMix suite (every query plus
//! 3–5 semantically-equal rewrites) end-to-end through a fresh ReStore
//! session with `ReStoreConfig::canonicalize` on vs off, asserting the
//! warm-hit counts (on: every paraphrase served from the repository;
//! off: none). The timing delta is the work reuse saves; the hit rates
//! archive alongside in `BENCH_matching.json`.
//!
//! A seventh arm, `canon_compile`, prices the analyzer itself:
//! `compile` vs `compile_canonical` over all suite formulations — the
//! per-compile cost the canonical form adds to the submission path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use parking_lot::RwLock;
use restore_core::{MatchProbe, ReStore, ReStoreConfig, RepoStats, Repository};
use restore_dataflow::expr::Expr;
use restore_dataflow::physical::{PhysicalOp, PhysicalPlan};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};
use restore_pigmix::paraphrase::paraphrase_suite;
use restore_pigmix::{datagen, DataScale};
use restore_telemetry::Registry;
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Queries per thread per measured round.
const QUERIES_PER_THREAD: usize = 20;

/// A distinct Load→Filter→Project→Store plan per index.
fn entry_plan(i: usize) -> PhysicalPlan {
    let mut p = PhysicalPlan::new();
    let l = p.add(PhysicalOp::Load { path: format!("/data/t{}", i % 7) }, vec![]);
    let f = p.add(PhysicalOp::Filter { pred: Expr::col_eq(i % 5, i as i64) }, vec![l]);
    let pr = p.add(PhysicalOp::Project { cols: vec![0, (i % 3) + 1] }, vec![f]);
    p.add(PhysicalOp::Store { path: format!("/repo/{i}") }, vec![pr]);
    p
}

/// A query whose prefix matches exactly repository entry `i`.
fn query_plan(i: usize) -> PhysicalPlan {
    let mut p = entry_plan(i);
    let tip = p.stores()[0];
    let before = p.inputs(tip)[0];
    let g = p.add(PhysicalOp::Group { keys: vec![0] }, vec![before]);
    p.add(PhysicalOp::Store { path: "/out".into() }, vec![g]);
    p
}

/// Build an `n`-entry repository whose order equals insertion order
/// (decreasing reduction ratio and job time), so high-index queries are
/// the sequential scan's worst case.
fn repo_of(n: usize) -> Repository {
    let repo = Repository::new();
    repo.batch(|b| {
        for i in 0..n {
            b.insert(
                entry_plan(i),
                format!("/repo/{i}"),
                RepoStats {
                    input_bytes: 10 * n as u64 - i as u64,
                    output_bytes: 100,
                    job_time_s: (n - i) as f64,
                    ..Default::default()
                },
            );
        }
    });
    repo
}

/// The query mix of one thread: hits spread over the last quarter of
/// the repository (the scan's expensive region) plus one guaranteed
/// miss, cycled `QUERIES_PER_THREAD` times.
fn thread_queries(n: usize, t: usize) -> Vec<PhysicalPlan> {
    let mut qs = Vec::with_capacity(QUERIES_PER_THREAD);
    for k in 0..QUERIES_PER_THREAD {
        if k % 5 == 4 {
            // A miss: load path outside the repository's universe.
            let mut p = PhysicalPlan::new();
            let l = p.add(PhysicalOp::Load { path: "/data/miss".into() }, vec![]);
            let g = p.add(PhysicalOp::Group { keys: vec![0] }, vec![l]);
            p.add(PhysicalOp::Store { path: "/out".into() }, vec![g]);
            qs.push(p);
        } else {
            let back = (t * 13 + k * 7) % (n / 4).max(1);
            qs.push(query_plan(n - 1 - back));
        }
    }
    qs
}

fn sizes() -> Vec<usize> {
    match std::env::var("MATCHING_SIZES") {
        Ok(v) => v.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
        Err(_) => vec![100, 1_000, 10_000],
    }
}

fn bulk_sizes() -> Vec<usize> {
    match std::env::var("MATCHING_BULK_SIZES") {
        Ok(v) => v.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
        Err(_) => vec![100_000],
    }
}

fn shard_counts() -> Vec<usize> {
    match std::env::var("MATCHING_SHARDS") {
        Ok(v) => v.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
        Err(_) => vec![1, 8],
    }
}

/// Inserts per writer thread per measured round. Small enough that a
/// round stays in milliseconds, large enough that the O(len) ordering
/// scan inside each insert dominates the fixed per-insert overhead.
const INSERTS_PER_WRITER: usize = 64;

/// Write-path ablation: concurrent writers registering disjoint
/// corpora, repository striped `shards` ways. Each timed round builds
/// a fresh repository (construction is a handful of empty snapshot
/// cells — noise next to the inserts) so every round performs identical work.
fn bench_insert_sharded(c: &mut Criterion) {
    for &shards in &shard_counts() {
        let mut group = c.benchmark_group(format!("insert_sharded/shards{shards}"));
        for &threads in &[1usize, 2, 4, 8] {
            let corpus: Vec<Vec<(PhysicalPlan, String, RepoStats)>> = (0..threads)
                .map(|t| {
                    (0..INSERTS_PER_WRITER)
                        .map(|k| {
                            let i = t * INSERTS_PER_WRITER + k;
                            (
                                entry_plan(i),
                                format!("/repo/{i}"),
                                RepoStats {
                                    input_bytes: 10_000 - i as u64,
                                    output_bytes: 100,
                                    job_time_s: (1_000 - i) as f64,
                                    ..Default::default()
                                },
                            )
                        })
                        .collect()
                })
                .collect();
            group.throughput(Throughput::Elements((threads * INSERTS_PER_WRITER) as u64));
            group.bench_with_input(
                BenchmarkId::new("writers", threads),
                &threads,
                |b, &threads| {
                    b.iter(|| {
                        let repo = Repository::with_shards(shards);
                        std::thread::scope(|scope| {
                            for slice in corpus.iter().take(threads) {
                                let repo = &repo;
                                scope.spawn(move || {
                                    for (p, path, s) in slice {
                                        black_box(repo.insert(p.clone(), path.clone(), s.clone()));
                                    }
                                });
                            }
                        });
                        assert_eq!(repo.len(), threads * INSERTS_PER_WRITER);
                        black_box(repo.publish_count())
                    });
                },
            );
        }
        group.finish();
    }
}

/// 10⁵-entry arm: bulk-loaded corpus, index-routed matcher only.
fn bench_matching_bulk(c: &mut Criterion) {
    for &n in &bulk_sizes() {
        let items: Vec<_> = (0..n)
            .map(|i| {
                (
                    entry_plan(i),
                    format!("/repo/{i}"),
                    RepoStats {
                        input_bytes: 10 * n as u64 - i as u64,
                        output_bytes: 100,
                        job_time_s: (n - i) as f64,
                        ..Default::default()
                    },
                )
            })
            .collect();
        let repo = Repository::bulk_load(items);
        assert_eq!(repo.len(), n, "generated plans must be signature-distinct");
        let tick = std::sync::atomic::AtomicU64::new(1);
        let publishes_before = repo.publish_count();
        let mut group = c.benchmark_group(format!("matching_bulk_indexed/n{n}"));
        for &threads in &[1usize, 8] {
            group.throughput(Throughput::Elements((threads * QUERIES_PER_THREAD) as u64));
            let queries: Vec<Vec<PhysicalPlan>> =
                (0..threads).map(|t| thread_queries(n, t)).collect();
            group.bench_with_input(
                BenchmarkId::new("threads", threads),
                &threads,
                |b, &threads| {
                    b.iter(|| {
                        std::thread::scope(|scope| {
                            for qs in queries.iter().take(threads) {
                                let repo = &repo;
                                let tick = &tick;
                                scope.spawn(move || {
                                    let none = HashSet::new();
                                    let mut probe = MatchProbe::default();
                                    for q in qs {
                                        probe.reset();
                                        let view = repo.view();
                                        let hit = black_box(
                                            view.find_first_match(q, &none, &mut probe)
                                                .map(|(id, _)| id),
                                        );
                                        if let Some(id) = hit {
                                            let t = tick
                                                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                            repo.note_use(id, t);
                                        }
                                    }
                                });
                            }
                        });
                    });
                },
            );
        }
        group.finish();
        assert_eq!(
            repo.publish_count(),
            publishes_before,
            "the bulk-loaded match path must be write-free"
        );
    }
}

fn bench_matching(c: &mut Criterion) {
    for &n in &sizes() {
        let repo = repo_of(n);
        let tick = std::sync::atomic::AtomicU64::new(1);

        // ---- locked_scan: RwLock-serialized sequential scan ----
        {
            let lock = RwLock::new(&repo);
            let mut group = c.benchmark_group(format!("matching_locked_scan/n{n}"));
            for &threads in &[1usize, 2, 4, 8] {
                group.throughput(Throughput::Elements((threads * QUERIES_PER_THREAD) as u64));
                let queries: Vec<Vec<PhysicalPlan>> =
                    (0..threads).map(|t| thread_queries(n, t)).collect();
                group.bench_with_input(
                    BenchmarkId::new("threads", threads),
                    &threads,
                    |b, &threads| {
                        b.iter(|| {
                            std::thread::scope(|scope| {
                                for qs in queries.iter().take(threads) {
                                    let lock = &lock;
                                    let tick = &tick;
                                    scope.spawn(move || {
                                        let none = HashSet::new();
                                        for q in qs {
                                            // Old read path: scan under the
                                            // repository-wide read guard.
                                            let hit = {
                                                let guard = lock.read();
                                                let view = guard.view();
                                                black_box(
                                                    view.scan_first_match(q, &none)
                                                        .map(|(id, _)| id),
                                                )
                                            };
                                            // Old accounting: a write-guard
                                            // round-trip per hit.
                                            if let Some(id) = hit {
                                                let t = tick.fetch_add(
                                                    1,
                                                    std::sync::atomic::Ordering::Relaxed,
                                                );
                                                lock.write().note_use(id, t);
                                            }
                                        }
                                    });
                                }
                            });
                        });
                    },
                );
            }
            group.finish();
        }

        // ---- snapshot_indexed: published view + index-routed matcher ----
        {
            let publishes_before = repo.publish_count();
            let mut group = c.benchmark_group(format!("matching_snapshot_indexed/n{n}"));
            for &threads in &[1usize, 2, 4, 8] {
                group.throughput(Throughput::Elements((threads * QUERIES_PER_THREAD) as u64));
                let queries: Vec<Vec<PhysicalPlan>> =
                    (0..threads).map(|t| thread_queries(n, t)).collect();
                group.bench_with_input(
                    BenchmarkId::new("threads", threads),
                    &threads,
                    |b, &threads| {
                        b.iter(|| {
                            std::thread::scope(|scope| {
                                for qs in queries.iter().take(threads) {
                                    let repo = &repo;
                                    let tick = &tick;
                                    scope.spawn(move || {
                                        let none = HashSet::new();
                                        let mut probe = MatchProbe::default();
                                        for q in qs {
                                            probe.reset();
                                            let view = repo.view();
                                            let hit = black_box(
                                                view.find_first_match(q, &none, &mut probe)
                                                    .map(|(id, _)| id),
                                            );
                                            if let Some(id) = hit {
                                                let t = tick.fetch_add(
                                                    1,
                                                    std::sync::atomic::Ordering::Relaxed,
                                                );
                                                repo.note_use(id, t);
                                            }
                                        }
                                    });
                                }
                            });
                        });
                    },
                );
            }
            group.finish();
            // Zero write-side acquisitions on the match path: matching
            // and reuse accounting published no snapshot.
            assert_eq!(
                repo.publish_count(),
                publishes_before,
                "the snapshot match path must be write-free"
            );
        }
    }
}

/// Telemetry-overhead arm: the instrumented match path — the matcher
/// plus the counter/histogram recording the driver hot path performs —
/// against the bare matcher, on the same bulk corpus and query mix.
/// Both variants run the same matcher with a reused `MatchProbe`; the
/// delta is exactly the registry recording (a handful of relaxed
/// `fetch_add`s per query).
///
/// Beyond archiving both timings, the arm *asserts* the invariant the
/// telemetry crate promises: interleaved min-of-rounds, the
/// instrumented path stays within 5% of the bare one (plus a small
/// absolute epsilon so CI's tiny smoke corpora don't flake on timer
/// granularity).
fn bench_matching_telemetry_overhead(c: &mut Criterion) {
    let n = bulk_sizes().into_iter().min().unwrap_or(100_000);
    let items: Vec<_> = (0..n)
        .map(|i| {
            (
                entry_plan(i),
                format!("/repo/{i}"),
                RepoStats {
                    input_bytes: 10 * n as u64 - i as u64,
                    output_bytes: 100,
                    job_time_s: (n - i) as f64,
                    ..Default::default()
                },
            )
        })
        .collect();
    let repo = Repository::bulk_load(items);
    let view = repo.view();
    let queries = thread_queries(n, 0);

    let registry = Registry::new();
    let hits = registry.counter("bench_match_hits_total", "hits", &[]);
    let misses = registry.counter("bench_match_misses_total", "misses", &[]);
    let latency = registry.histogram("bench_match_seconds", "match latency", &[], 1e-9);
    let probe_h = registry.histogram("bench_probe_seconds", "index probe", &[], 1e-9);
    let winner_h = registry.histogram("bench_winner_seconds", "winner pass", &[], 1e-9);

    let none = HashSet::new();
    let round_plain = || {
        let mut probe = MatchProbe::default();
        let mut found = 0u64;
        for q in &queries {
            probe.reset();
            if black_box(view.find_first_match(q, &none, &mut probe)).is_some() {
                found += 1;
            }
        }
        found
    };
    // Exactly the driver's per-match recording: one reused probe, stage
    // histograms fed from the probe's own timings (no extra clock
    // reads), hit/miss counters per query, and the loop-level latency
    // histogram once per round (the driver records it once per job).
    let round_telemetry = || {
        let t0 = Instant::now();
        let mut probe = MatchProbe::default();
        let mut found = 0u64;
        for q in &queries {
            probe.reset();
            let hit = black_box(view.find_first_match(q, &none, &mut probe));
            probe_h.record(probe.probe_ns);
            winner_h.record(probe.winner_ns);
            if hit.is_some() {
                hits.inc();
                found += 1;
            } else {
                misses.inc();
            }
        }
        latency.record_elapsed(t0);
        found
    };

    let mut group = c.benchmark_group(format!("matching_bulk_telemetry/n{n}"));
    group.throughput(Throughput::Elements(QUERIES_PER_THREAD as u64));
    group.bench_function("off", |b| b.iter(round_plain));
    group.bench_function("on", |b| b.iter(round_telemetry));
    group.finish();

    // The <5% assertion: interleave the two variants so drift (thermal,
    // scheduler) hits both, and compare best-case rounds.
    for _ in 0..5 {
        black_box(round_plain());
        black_box(round_telemetry());
    }
    let mut plain_min = u64::MAX;
    let mut tele_min = u64::MAX;
    for _ in 0..40 {
        let t0 = Instant::now();
        black_box(round_plain());
        plain_min = plain_min.min(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        black_box(round_telemetry());
        tele_min = tele_min.min(t0.elapsed().as_nanos() as u64);
    }
    assert!(
        tele_min <= plain_min + plain_min / 20 + 5_000,
        "telemetry overhead exceeds 5%: instrumented {tele_min}ns vs bare {plain_min}ns \
         per {QUERIES_PER_THREAD}-query round (n={n})"
    );
    assert_eq!(hits.get() + misses.get(), probe_h.count(), "every query recorded exactly once");
}

/// Analyzer ablation: the paraphrased-PigMix suite end-to-end, one
/// fresh session per round, `canonicalize` on vs off. Both arms pay
/// for the cold originals; the delta is the 13 paraphrase executions
/// the canonical form turns into repository hits. The arm *asserts*
/// the hit counts it claims (on: all paraphrases; off: none), so the
/// archived timings always describe the stated hit rates.
fn bench_paraphrase_reuse(c: &mut Criterion) {
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 1024, replication: 2, node_capacity: None });
    datagen::generate(&dfs, &DataScale::tiny(), 0xF00D).expect("data generation");
    let round = AtomicUsize::new(0);
    let mut group = c.benchmark_group("paraphrase_reuse");
    for (label, canonicalize) in [("analyzer_on", true), ("analyzer_off", false)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                // Fresh session (empty repository) per round; the shared
                // DFS is read-only input data, outputs are round-unique.
                let r = round.fetch_add(1, Ordering::Relaxed);
                let engine = Engine::new(
                    dfs.clone(),
                    ClusterConfig::default(),
                    EngineConfig { worker_threads: 2, default_reduce_tasks: 2 },
                );
                let restore =
                    ReStore::new(engine, ReStoreConfig { canonicalize, ..Default::default() });
                let mut hits = 0usize;
                let mut total = 0usize;
                for (ci, case) in paraphrase_suite(&format!("/out/pp/{r}")).iter().enumerate() {
                    restore
                        .execute_query(&case.original, &format!("/wf/pp/{r}/{ci}/o"))
                        .expect("original runs");
                    for (i, p) in case.paraphrases.iter().enumerate() {
                        let e = restore
                            .execute_query(p, &format!("/wf/pp/{r}/{ci}/p{i}"))
                            .expect("paraphrase runs");
                        total += 1;
                        hits += (e.jobs_skipped > 0) as usize;
                    }
                }
                assert_eq!(
                    hits,
                    if canonicalize { total } else { 0 },
                    "paraphrase hit count must match the analyzer mode"
                );
                black_box(hits)
            });
        });
    }
    group.finish();
}

/// The analyzer's own price: `compile` vs `compile_canonical` over
/// every formulation in the paraphrase suite — the added per-compile
/// cost of buying the reuse measured by `paraphrase_reuse`.
fn bench_canon_compile(c: &mut Criterion) {
    let queries: Vec<String> = paraphrase_suite("/out/cc")
        .into_iter()
        .flat_map(|case| std::iter::once(case.original).chain(case.paraphrases))
        .collect();
    let mut group = c.benchmark_group("canon_compile");
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.bench_function("plain", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(restore_dataflow::compile(q, "/wf").expect("compiles"));
            }
        });
    });
    group.bench_function("canonical", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(restore_dataflow::compile_canonical(q, "/wf").expect("compiles"));
            }
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matching,
    bench_matching_bulk,
    bench_matching_telemetry_overhead,
    bench_insert_sharded,
    bench_paraphrase_reuse,
    bench_canon_compile
);
criterion_main!(benches);
