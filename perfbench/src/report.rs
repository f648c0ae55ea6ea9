//! Turning a measured phase into the end-to-end and per-layer metrics.

use crate::common::{Counters, ProbeTotals, Sample};
use crate::trace::{self, Span};

/// One measured loop of a workload (plus the samples of its regime
/// phase, see [`Phase::regime`]).
pub struct Phase {
    pub wall_s: f64,
    /// The loop is whole passes over a few fixed queries, each run
    /// once cold and once with reuse (cold_then_reuse).
    pub mixed: bool,
    /// Every submission of the measured loop.
    pub samples: Vec<Sample>,
    /// Submissions timed outside the loop that supply a regime the loop
    /// lacks: warm_reuse's warm-ups (cold) and write_churn's
    /// resubmissions after each set-up and after the loop (reuse). Empty
    /// for cold_then_reuse.
    pub regime: Vec<Sample>,
    pub attempted: u64,
    /// Failed, rejected or wrong-output submissions.
    pub failed: u64,
    /// Counter deltas over the loop.
    pub counters: Counters,
    /// DFS bytes the output checks read inside the loop's counter window.
    pub check_read_bytes: u64,
    pub repo_entries: f64,
    pub used_bytes: f64,
    pub repo_bytes: f64,
    pub spans: Vec<Span>,
    pub probes: ProbeTotals,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit }
}

/// Nearest-rank percentile of `v` (`q` in 0..=1).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
    let rank = (q * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

fn latencies(v: &[&Sample]) -> Vec<f64> {
    v.iter().map(|s| s.ms).collect()
}

/// Submissions that satisfy `pred`: from the loop when it has any, else
/// from the regime phase.
fn regime(p: &Phase, pred: impl Fn(&Sample) -> bool) -> Vec<&Sample> {
    let from_loop: Vec<&Sample> = p.samples.iter().filter(|s| pred(s)).collect();
    if from_loop.is_empty() {
        return p.regime.iter().filter(|s| pred(s)).collect();
    }
    from_loop
}

/// Modeled speedup and overhead (Equation (1)): Σ plain / Σ ReStore
/// time over the reuse submissions that still executed a job (a
/// whole-job hit is modeled at 0 s), and Σ ReStore / Σ plain time over
/// the cold submissions.
pub fn modeled(cold: &[&Sample], reuse: &[&Sample]) -> (f64, f64) {
    let partial: Vec<&&Sample> = reuse.iter().filter(|s| s.skipped < s.jobs).collect();
    let speedup = partial.iter().map(|s| s.plain_s).sum::<f64>()
        / partial.iter().map(|s| s.total_s).sum::<f64>();
    let overhead =
        cold.iter().map(|s| s.total_s).sum::<f64>() / cold.iter().map(|s| s.plain_s).sum::<f64>();
    (speedup, overhead)
}

/// The end-to-end metrics, in `BENCHMARK.json` order. Throughput and
/// latency percentiles are taken over every submission of the loop.
pub fn end_to_end(p: &Phase, setup_s: f64, input_bytes: u64, peak_rss_mb: f64) -> Vec<Metric> {
    // A cold_then_reuse pass is an even mix of 8 fixed queries whose
    // latencies lie far apart; a nearest-rank median over it is the
    // slowest sample of one query (and over both halves of a pass it sits
    // on the gap between the regimes). There the typical latency is the
    // mean over whole passes.
    let typical = |v: &[&Sample]| {
        let v = latencies(v);
        if p.mixed {
            v.iter().sum::<f64>() / v.len() as f64
        } else {
            median(&v)
        }
    };
    let all: Vec<&Sample> = p.samples.iter().collect();
    let cold = regime(p, |s| s.cold);
    let reuse = regime(p, |s| !s.cold);
    // warm_reuse's loop holds whole-job hits only; its speedup comes
    // from the warm-up's partial reuse.
    let (speedup, overhead) = modeled(&cold, &regime(p, |s| !s.cold && s.skipped < s.jobs));
    vec![
        m("throughput_qps", p.samples.len() as f64 / p.wall_s, "1/s"),
        m("latency_p50_ms", typical(&all), "ms"),
        m("latency_p95_ms", percentile(&latencies(&all), 0.95), "ms"),
        m("cold_latency_p50_ms", typical(&cold), "ms"),
        m("reuse_latency_p50_ms", typical(&reuse), "ms"),
        m("success_ratio", 1.0 - p.failed as f64 / p.attempted.max(1) as f64, "ratio"),
        m("setup_s", setup_s, "s"),
        m("peak_rss_mb", peak_rss_mb, "MB"),
        m("modeled_speedup", speedup, "x"),
        m("modeled_overhead", overhead, "x"),
        m("repo_bytes_per_input_byte", p.repo_bytes / input_bytes as f64, "ratio"),
    ]
}

/// The per-layer metrics of a traced phase, plus the tracing overhead:
/// the relative gap between each end-to-end metric of the traced phase
/// and of the untraced phase of the same run.
pub fn per_layer(
    p: &Phase,
    traced_e2e: &[Metric],
    plain_e2e: &[Metric],
) -> Result<Vec<Metric>, String> {
    let names = trace::analyze(&p.spans)?;
    let span = |n: &str| names.get(n).cloned().unwrap_or_default();
    let n = p.samples.len().max(1) as f64;
    let sum = |f: fn(&Sample) -> f64| p.samples.iter().map(f).sum::<f64>();
    let c = &p.counters;
    let pr = &p.probes;
    let per_probe = |v: f64| if pr.probes == 0 { 0.0 } else { v / pr.probes as f64 };
    let jobs = sum(|s| s.jobs as f64);
    let dfs_read = c.dfs.bytes_read.saturating_sub(p.check_read_bytes) as f64;
    let mut out = vec![
        m("service.admit_us", span("service.admit").median_us(), "us"),
        m("service.wait_us", span("service.wait").median_us(), "us"),
        m(
            "service.queue_wait_us",
            if c.queue_wait_count == 0 {
                0.0
            } else {
                c.queue_wait_ns as f64 / c.queue_wait_count as f64 / 1e3
            },
            "us",
        ),
        m("service.rejected", c.rejected as f64, "count"),
        m("service.other_us", span("request").median_self_us(), "us"),
        m("dataflow.compile_us", span("dataflow.compile").median_us(), "us"),
        m("dataflow.parse_us", span("dataflow.parse").median_us(), "us"),
        m("dataflow.plan_us", span("dataflow.plan").median_us(), "us"),
        m("dataflow.canon_us", span("dataflow.canon").median_us(), "us"),
        m("dataflow.segment_us", span("dataflow.segment").median_us(), "us"),
        m("dataflow.other_us", span("probe.dataflow").median_self_us(), "us"),
        m("dataflow.plan_nodes_lowered", per_probe(pr.plan_nodes_lowered as f64), "count"),
        m("dataflow.plan_nodes_canonical", per_probe(pr.plan_nodes_canonical as f64), "count"),
        m(
            "core.match_us",
            median(&pr.match_ns.iter().map(|&v| v as f64 / 1e3).collect::<Vec<_>>()),
            "us",
        ),
        m("core.execute_us", span("core.execute").median_us(), "us"),
        m(
            "core.hit_ratio",
            if jobs == 0.0 { 0.0 } else { sum(|s| s.skipped as f64) / jobs },
            "ratio",
        ),
        m("core.subjob_rewrites_per_query", sum(|s| s.subjob_rewrites as f64) / n, "count"),
        m("core.publishes_per_query", c.publishes as f64 / n, "count"),
        m("core.writer_sections_per_query", c.writer_sections as f64 / n, "count"),
        m("core.candidates_stored_per_query", sum(|s| s.candidates as f64) / n, "count"),
        m("core.candidate_bytes_per_query", sum(|s| s.candidate_bytes as f64) / n, "B"),
        m("core.repo_entries", p.repo_entries, "count"),
        m("core.journal_records_per_query", c.journal_seq as f64 / n, "count"),
        m("core.checkpoint_us", span("core.checkpoint").median_us(), "us"),
        m("core.compactions", c.compactions as f64, "count"),
        m("mapreduce.run_job_us", span("mapreduce.run_job").median_us(), "us"),
        m("mapreduce.map_input_bytes_per_query", sum(|s| s.map_input_bytes as f64) / n, "B"),
        m("mapreduce.shuffle_bytes_per_query", sum(|s| s.shuffle_bytes as f64) / n, "B"),
        m("mapreduce.output_bytes_per_query", sum(|s| s.output_bytes as f64) / n, "B"),
        m("mapreduce.tasks_per_query", sum(|s| s.tasks as f64) / n, "count"),
        m(
            "mapreduce.wall_per_modeled_s",
            if pr.engine_modeled_s > 0.0 { pr.engine_wall_s / pr.engine_modeled_s } else { 0.0 },
            "ratio",
        ),
        m("dfs.bytes_read_per_query", dfs_read / n, "B"),
        m("dfs.bytes_written_per_query", c.dfs.logical_bytes_written as f64 / n, "B"),
        m("dfs.files_created_per_query", c.dfs.files_created as f64 / n, "count"),
        m("dfs.files_deleted_per_query", c.dfs.files_deleted as f64 / n, "count"),
        m(
            "dfs.read_mb_s",
            if pr.dfs_read_s > 0.0 { pr.dfs_read_bytes as f64 / pr.dfs_read_s / 1e6 } else { 0.0 },
            "MB/s",
        ),
        m(
            "dfs.write_mb_s",
            if pr.dfs_write_s > 0.0 {
                pr.dfs_write_bytes as f64 / pr.dfs_write_s / 1e6
            } else {
                0.0
            },
            "MB/s",
        ),
        m("dfs.used_bytes", p.used_bytes, "B"),
    ];
    for (t, u) in traced_e2e.iter().zip(plain_e2e) {
        let gap = if u.value == 0.0 { 0.0 } else { (t.value - u.value) / u.value * 100.0 };
        out.push(m(&format!("trace_overhead.{}", t.name), gap, "%"));
    }
    Ok(out)
}
