//! Pieces every workload shares: the PigMix environment, the output
//! oracle, the timed request path and the per-layer probes.

use crate::trace::Tracer;
use restore_common::codec;
use restore_core::{QueryExecution, ReStore, ReStoreConfig};
use restore_dataflow::{analyzer, exec, logical, lower, mr_compiler, optimizer, parser};
use restore_dfs::{Dfs, DfsConfig, MetricsSnapshot};
use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};
use restore_pigmix::datagen::{self, PigMixData, PAGE_VIEWS};
use restore_pigmix::DataScale;
use restore_service::RestoreService;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Placeholder for a submission's output prefix in a query template.
pub const OUT: &str = "@OUT@";

pub type Res<T> = Result<T, String>;

pub fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// DFS + generated PigMix data + engine, built from the workload seed
/// the way the paper-figure harness builds it: the block size gives the
/// paper's split count and the cost model is scaled to the paper's
/// data volume. The engine runs two worker threads.
pub struct Env {
    pub engine: Engine,
    pub data: PigMixData,
}

pub fn pigmix_env(scale: &DataScale, seed: u64) -> Res<Env> {
    let probe =
        Dfs::new(DfsConfig { nodes: 14, block_size: 8 << 20, replication: 1, node_capacity: None });
    let pv_bytes = datagen::generate(&probe, scale, seed).map_err(err)?.page_views_bytes;
    let dfs = Dfs::new(DfsConfig {
        nodes: 14,
        block_size: scale.block_size(pv_bytes),
        replication: 3,
        node_capacity: None,
    });
    let data = datagen::generate(&dfs, scale, seed).map_err(err)?;
    let byte_scale = scale.byte_scale(data.page_views_bytes);
    let engine = Engine::new(
        dfs,
        ClusterConfig::paper_testbed(byte_scale),
        EngineConfig { worker_threads: 2, ..EngineConfig::default() },
    );
    Ok(Env { engine, data })
}

/// A second engine over a copy of the input tables on its own DFS, so
/// the engine and DFS probes of the traced run never show up in the
/// workload's own DFS counters.
pub fn probe_engine(env: &Env) -> Res<Engine> {
    let src = env.engine.dfs();
    let dfs = Dfs::new(src.config().clone());
    for path in [datagen::PAGE_VIEWS, datagen::USERS, datagen::POWER_USERS, datagen::WIDEROW] {
        dfs.write_all(path, &src.read_all(path).map_err(err)?).map_err(err)?;
    }
    Ok(Engine::new(
        dfs,
        env.engine.cluster_config().clone(),
        EngineConfig { worker_threads: 2, ..EngineConfig::default() },
    ))
}

/// Order-insensitive digest of a result file: decoded tuples, sorted.
pub fn digest(dfs: &Dfs, path: &str) -> Res<(u64, u64)> {
    let bytes = dfs.read_all(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut rows = codec::decode_all(&bytes).map_err(err)?;
    rows.sort();
    let mut h = DefaultHasher::new();
    rows.hash(&mut h);
    Ok((h.finish(), bytes.len() as u64))
}

/// What the plain (Algorithm-1) execution of a query produced.
#[derive(Clone, Copy, Debug)]
pub struct Expect {
    pub digest: u64,
    /// Equation (1) time of the plain execution, seconds.
    pub plain_s: f64,
}

/// Run each template once in a plain `ReStoreConfig::baseline()`
/// session and record its result digest and Equation (1) time.
pub fn oracle(engine: &Engine, templates: &[String], tag: &str) -> Res<Vec<Expect>> {
    let rs = ReStore::new(engine.clone(), ReStoreConfig::baseline());
    let dfs = engine.dfs();
    let mut out = Vec::with_capacity(templates.len());
    for (i, t) in templates.iter().enumerate() {
        let prefix = format!("/perfbench/oracle/{tag}/{i}");
        let exec = rs.execute_query(&t.replace(OUT, &prefix), &prefix).map_err(err)?;
        let (digest, _) = digest(dfs, &exec.final_output)?;
        out.push(Expect { digest, plain_s: exec.total_s });
        dfs.delete_prefix(&format!("{prefix}/"));
    }
    Ok(out)
}

/// One timed submission and what the system did for it.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    /// Wall time from the call to compile until the result is back.
    pub ms: f64,
    /// The repository answered nothing: no rewrite, no skipped job.
    pub cold: bool,
    pub total_s: f64,
    pub plain_s: f64,
    pub jobs: usize,
    pub skipped: usize,
    pub subjob_rewrites: usize,
    pub candidates: usize,
    pub candidate_bytes: u64,
    pub map_input_bytes: u64,
    pub shuffle_bytes: u64,
    pub output_bytes: u64,
    pub tasks: u64,
}

impl Sample {
    pub fn new(ms: f64, exec: &QueryExecution, plain_s: f64) -> Sample {
        let mut s = Sample {
            ms,
            cold: exec.rewrites.is_empty() && exec.jobs_skipped == 0,
            total_s: exec.total_s,
            plain_s,
            jobs: exec.job_results.len() + exec.jobs_skipped,
            skipped: exec.jobs_skipped,
            subjob_rewrites: exec.rewrites.iter().filter(|r| !r.whole_job).count(),
            candidates: exec.candidates_stored,
            candidate_bytes: exec.stored_candidate_bytes,
            ..Sample::default()
        };
        for r in &exec.job_results {
            let c = &r.counters;
            s.map_input_bytes += c.map_input_bytes;
            if c.reduce_tasks > 0 {
                s.shuffle_bytes += c.map_output_bytes;
            }
            s.output_bytes += c.output_bytes;
            s.tasks += c.map_tasks + c.reduce_tasks;
        }
        s
    }
}

/// How a request reaches the driver.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `compile_as` → `submit_workflow` → `SubmitHandle::wait`.
    Service,
    /// `compile_as` → `execute_workflow_as` on the client thread (the
    /// traced run sends a sample of requests this way to time `core`
    /// without the service around it).
    Direct,
}

impl Route {
    /// The route of the `n`-th request of a client: in the traced run,
    /// every eighth goes direct.
    pub fn pick(traced: bool, n: u64) -> Route {
        if traced && n % 8 == 7 {
            Route::Direct
        } else {
            Route::Service
        }
    }
}

/// In the traced run, every this-many-th request gets the probes.
pub const PROBE_EVERY: u64 = 4;

/// Submit one query and wait for its result. Untraced, this is exactly
/// `RestoreService::submit` followed by `SubmitHandle::wait`; traced,
/// the request tree is compile + admit + wait (or compile + execute on
/// the direct route) + other.
pub fn request(
    svc: &RestoreService,
    text: &str,
    prefix: &str,
    route: Route,
    tr: Option<&mut Tracer>,
) -> Res<(QueryExecution, f64)> {
    let driver = svc.driver();
    let Some(tr) = tr else {
        let t0 = Instant::now();
        let wf = driver.compile_as(None, text, prefix).map_err(err)?;
        let exec = svc.submit_workflow(None, wf).map_err(err)?.wait().map_err(err)?;
        return Ok((exec, t0.elapsed().as_secs_f64() * 1e3));
    };
    let id = tr.new_trace();
    let (root_name, admit) = match route {
        Route::Service => ("request", true),
        Route::Direct => ("request.direct", false),
    };
    let root = tr.open(root_name, id, None);
    let result = (|| {
        let wf =
            tr.time("dataflow.compile", id, Some(root), || driver.compile_as(None, text, prefix));
        let wf = wf.map_err(err)?;
        if admit {
            let handle = tr.time("service.admit", id, Some(root), || svc.submit_workflow(None, wf));
            let handle = handle.map_err(err)?;
            tr.time("service.wait", id, Some(root), || handle.wait()).map_err(err)
        } else {
            tr.time("core.execute", id, Some(root), || driver.execute_workflow_as(None, wf))
                .map_err(err)
        }
    })();
    tr.close(root);
    let span = &tr.spans[root];
    result.map(|exec| (exec, span.dur_ns() as f64 / 1e6))
}

/// What the probes beside one request measured.
#[derive(Default, Debug, Clone)]
pub struct ProbeTotals {
    pub probes: u64,
    pub plan_nodes_lowered: u64,
    pub plan_nodes_canonical: u64,
    /// max(0, explain − compile) of each probe, nanoseconds.
    pub match_ns: Vec<u64>,
    pub engine_wall_s: f64,
    pub engine_modeled_s: f64,
    pub dfs_read_bytes: u64,
    pub dfs_read_s: f64,
    pub dfs_write_bytes: u64,
    pub dfs_write_s: f64,
}

impl ProbeTotals {
    pub fn add(&mut self, p: &ProbeTotals) {
        self.probes += p.probes;
        self.plan_nodes_lowered += p.plan_nodes_lowered;
        self.plan_nodes_canonical += p.plan_nodes_canonical;
        self.match_ns.extend(&p.match_ns);
        self.engine_wall_s += p.engine_wall_s;
        self.engine_modeled_s += p.engine_modeled_s;
        self.dfs_read_bytes += p.dfs_read_bytes;
        self.dfs_read_s += p.dfs_read_s;
        self.dfs_write_bytes += p.dfs_write_bytes;
        self.dfs_write_s += p.dfs_write_s;
    }
}

/// The per-layer probes of the traced run, each under its own tree id:
///
/// * `probe.dataflow`: the compile pipeline stage by stage (parse,
///   plan, canon, segment; self time = other);
/// * `probe.core`: `compile_as` then `explain_query_as`, the dry-run
///   of the same match loop (match = explain − compile);
/// * `probe.engine`: `Engine::run` on the query's plain job specs, then
///   `read_all` / `write_all` of the `page_views` table, on the probe
///   engine's own DFS.
pub fn probe(
    tr: &mut Tracer,
    svc: &RestoreService,
    engine: &Engine,
    template: &str,
    prefix: &str,
    totals: &mut ProbeTotals,
) -> Res<()> {
    let text = template.replace(OUT, prefix);
    totals.probes += 1;

    let id = tr.new_trace();
    let root = tr.open("probe.dataflow", id, None);
    let staged = (|| -> Res<()> {
        let program = tr.time("dataflow.parse", id, Some(root), || parser::parse(&text));
        let program = program.map_err(err)?;
        let plan = tr.time("dataflow.plan", id, Some(root), || -> Res<_> {
            let logical = logical::LogicalPlan::from_ast(&program).map_err(err)?;
            lower::lower(&optimizer::optimize(logical)).map_err(err)
        });
        let mut plan = plan?;
        totals.plan_nodes_lowered += plan.effective_len() as u64;
        tr.time("dataflow.canon", id, Some(root), || analyzer::canonicalize(&mut plan));
        totals.plan_nodes_canonical += plan.effective_len() as u64;
        let wf = tr
            .time("dataflow.segment", id, Some(root), || mr_compiler::compile_plan(&plan, prefix));
        wf.map(|_| ()).map_err(err)
    })();
    tr.close(root);
    staged?;

    let driver = svc.driver();
    let id = tr.new_trace();
    let root = tr.open("probe.core", id, None);
    let compile = tr.open("probe.compile", id, Some(root));
    let compiled = driver.compile_as(None, &text, prefix).map(|_| ());
    tr.close(compile);
    let explain = tr.open("core.explain", id, Some(root));
    let explained = driver.explain_query_as(None, &text, prefix).map(|_| ());
    tr.close(explain);
    tr.close(root);
    compiled.and(explained).map_err(err)?;
    totals.match_ns.push(tr.spans[explain].dur_ns().saturating_sub(tr.spans[compile].dur_ns()));

    let id = tr.new_trace();
    let root = tr.open("probe.engine", id, None);
    let ran = (|| -> Res<()> {
        let wf = restore_dataflow::compile(&text, prefix).map_err(err)?;
        for j in wf.topo_order().map_err(err)? {
            let spec = exec::job_spec(&wf.jobs[j], &format!("probe-{j}")).map_err(err)?;
            let t0 = Instant::now();
            let res = tr.time("mapreduce.run_job", id, Some(root), || engine.run(&spec));
            totals.engine_wall_s += t0.elapsed().as_secs_f64();
            totals.engine_modeled_s += res.map_err(err)?.times.total_s;
        }
        let dfs = engine.dfs();
        let t0 = Instant::now();
        let bytes = tr.time("dfs.read_all", id, Some(root), || dfs.read_all(PAGE_VIEWS));
        totals.dfs_read_s += t0.elapsed().as_secs_f64();
        let bytes = bytes.map_err(err)?;
        totals.dfs_read_bytes += bytes.len() as u64;
        let copy = format!("{prefix}/page_views.copy");
        let t0 = Instant::now();
        let wrote = tr.time("dfs.write_all", id, Some(root), || dfs.write_all(&copy, &bytes));
        totals.dfs_write_s += t0.elapsed().as_secs_f64();
        wrote.map_err(err)?;
        totals.dfs_write_bytes += bytes.len() as u64;
        Ok(())
    })();
    tr.close(root);
    engine.dfs().delete_prefix(&format!("{prefix}/"));
    ran
}

/// Counter readings taken before and after a measured loop.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub publishes: u64,
    pub writer_sections: u64,
    pub journal_seq: u64,
    pub compactions: u64,
    pub rejected: u64,
    pub queue_wait_count: u64,
    pub queue_wait_ns: u64,
    pub dfs: MetricsSnapshot,
}

impl Counters {
    pub fn read(svc: &RestoreService) -> Counters {
        let d = svc.driver();
        let (publishes, writer_sections) = d.write_counters_as(None);
        let (queue_wait_count, queue_wait_ns) = d
            .registry()
            .histogram_stats("service_queue_wait_seconds")
            .iter()
            .fold((0, 0), |(c, s), (_, count, sum)| (c + count, s + sum));
        Counters {
            publishes,
            writer_sections,
            journal_seq: d.journal_stats().seq,
            compactions: svc.checkpoint_compactions(),
            rejected: svc.stats().rejected,
            queue_wait_count,
            queue_wait_ns,
            dfs: d.engine().dfs().metrics(),
        }
    }

    /// `later − self`, field by field.
    pub fn delta(&self, later: &Counters) -> Counters {
        Counters {
            publishes: later.publishes - self.publishes,
            writer_sections: later.writer_sections - self.writer_sections,
            journal_seq: later.journal_seq - self.journal_seq,
            compactions: later.compactions - self.compactions,
            rejected: later.rejected - self.rejected,
            queue_wait_count: later.queue_wait_count - self.queue_wait_count,
            queue_wait_ns: later.queue_wait_ns - self.queue_wait_ns,
            dfs: later.dfs.since(&self.dfs),
        }
    }

    /// Field-by-field sum (cold_then_reuse adds up one delta per pass).
    pub fn add(&mut self, d: &Counters) {
        self.publishes += d.publishes;
        self.writer_sections += d.writer_sections;
        self.journal_seq += d.journal_seq;
        self.compactions += d.compactions;
        self.rejected += d.rejected;
        self.queue_wait_count += d.queue_wait_count;
        self.queue_wait_ns += d.queue_wait_ns;
        self.dfs.bytes_read += d.dfs.bytes_read;
        self.dfs.bytes_written += d.dfs.bytes_written;
        self.dfs.logical_bytes_written += d.dfs.logical_bytes_written;
        self.dfs.blocks_created += d.dfs.blocks_created;
        self.dfs.files_created += d.dfs.files_created;
        self.dfs.files_deleted += d.dfs.files_deleted;
    }
}
