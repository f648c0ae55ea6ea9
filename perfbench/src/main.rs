//! The repository benchmark: `warm_reuse`, `write_churn` and
//! `cold_then_reuse` through `RestoreService`, with a traced per-layer run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm_reuse --seed 7 --seconds 12 --trace 0
//! ```
//!
//! Every metric is printed by name and unit, then the last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics and the tracing overhead with `--trace 1`). A wrong output or
//! a failed self-check exits with code 1. See `perfbench/README.md`.

mod churn;
mod cold;
mod common;
mod report;
mod trace;
mod variants;
mod warm;

use common::Res;
use report::{Metric, Phase};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["warm_reuse", "write_churn", "cold_then_reuse"];
/// Set-up runs this many times per invocation and `setup_s` reports the
/// median, which keeps the set-up time steady across runs.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Res<Args> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(common::err)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(common::err)?),
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args { workload, seed: seed.ok_or("--seed is required")?, seconds, trace })
}

/// A set-up workload: what `run` needs of each of them.
pub trait Workload {
    /// One line on what the set-up built.
    fn describe(&self) -> String;
    /// Bytes of the four input tables.
    fn input_bytes(&self) -> u64;
    /// One measured loop of `seconds`, traced or not.
    fn run(&mut self, seconds: f64, traced: bool) -> Res<Phase>;
    /// The workload's self-checks on a measured loop: what passed, or
    /// what failed.
    fn self_check(&self, p: &Phase) -> Res<Vec<String>>;
    /// Submissions the set-up itself timed: warm_reuse's warm-up and
    /// write_churn's resubmissions.
    fn setup_samples(&self) -> Vec<common::Sample> {
        Vec::new()
    }
    /// What must come out the same from every set-up with the same seed
    /// (cold_then_reuse: the modeled ratios and per-query byte counts of
    /// a pass), if the workload has such a thing.
    fn fingerprint(&mut self) -> Res<Option<String>> {
        Ok(None)
    }
    fn shutdown(self: Box<Self>);
}

fn setup(name: &str, seed: u64, traced: bool) -> Res<Box<dyn Workload>> {
    Ok(match name {
        "warm_reuse" => Box::new(warm::setup(seed, traced)?),
        "write_churn" => Box::new(churn::setup(seed, traced)?),
        _ => Box::new(cold::setup(seed, traced)?),
    })
}

/// Where runs leave their results and span files.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// The commit of the checkout when it is a git work tree, else "none".
fn commit() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "none".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|id| id.trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}

/// UTC date and time, ISO 8601.
fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0);
    let (days, rem) = (secs.div_euclid(86_400), secs.rem_euclid(86_400));
    // Civil-from-days (proleptic Gregorian).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Set up, measure and check one workload; returns whether every output
/// was correct and the result line.
fn run(args: &Args) -> Res<(bool, String)> {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let meta = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"commit\": \"{}\", \"date\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        commit(),
        utc_now()
    );
    println!("run {meta}");

    // The workload is set up once and measured; the set-up is then
    // repeated (timing only) and `setup_s` is the median. Repeating after
    // the measurement keeps the peak RSS reading free of earlier set-ups.
    let t0 = Instant::now();
    let mut workload = setup(&args.workload, args.seed, args.trace)?;
    let mut setups = vec![t0.elapsed().as_secs_f64()];
    println!("setup {} ({})", args.workload, workload.describe());

    let mut phase = workload.run(args.seconds, false)?;
    let peak = peak_rss_mb();
    let mut checks = workload.self_check(&phase)?;
    let (mut attempted, mut failed) = (phase.attempted, phase.failed);
    let mut traced = if args.trace {
        let traced = workload.run(args.seconds, true)?;
        checks.extend(workload.self_check(&traced)?);
        attempted += traced.attempted;
        failed += traced.failed;
        Some((traced, peak_rss_mb()))
    } else {
        None
    };
    let input_bytes = workload.input_bytes();
    let fingerprint = workload.fingerprint()?;
    workload.shutdown();
    for _ in 1..SETUP_REPEATS {
        let t0 = Instant::now();
        let mut again = setup(&args.workload, args.seed, args.trace)?;
        setups.push(t0.elapsed().as_secs_f64());
        // Timed set-up submissions of every set-up feed the regime
        // metrics, so one slow moment of the host does not decide them.
        let extra = again.setup_samples();
        phase.regime.extend(extra.iter().cloned());
        if let Some((t, _)) = traced.as_mut() {
            t.regime.extend(extra);
        }
        // A fresh set-up from the same seed must reproduce the measured
        // one's fingerprint.
        let again_fingerprint = again.fingerprint()?;
        if again_fingerprint != fingerprint {
            return Err(format!(
                "a second set-up with seed {} differs from the first:\n  {}\n  {}",
                args.seed,
                fingerprint.unwrap_or_default(),
                again_fingerprint.unwrap_or_default()
            ));
        }
        again.shutdown();
    }
    // A digest of the fingerprint goes with the result, so that runs of
    // the same code can be compared from `results.jsonl`.
    let digest = fingerprint.map(|f| {
        let mut h = DefaultHasher::new();
        f.hash(&mut h);
        checks.push(format!("{SETUP_REPEATS} set-ups with this seed give the same fingerprint"));
        format!("{:016x}", h.finish())
    });
    let setup_s = report::median(&setups);
    println!("setup_s of {} set-ups: {:?}", setups.len(), setups);

    let plain = report::end_to_end(&phase, setup_s, input_bytes, peak);
    println!(
        "measured {} submissions in {:.3} s ({} timed outside the loop for the regime metrics)",
        phase.samples.len(),
        phase.wall_s,
        phase.regime.len()
    );
    for m in &plain {
        // The paper's 15 GB references, information and not a gate.
        let paper = match (args.workload.as_str(), m.name.as_str()) {
            ("cold_then_reuse", "modeled_speedup") => Some(cold::PAPER_SPEEDUP),
            ("cold_then_reuse", "modeled_overhead") => Some(cold::PAPER_OVERHEAD),
            _ => None,
        };
        let paper = paper.map_or(String::new(), |v| format!(" (paper at 15 GB: {v:.1})"));
        println!("  {:<28} {:>16.6} {}{paper}", m.name, m.value, m.unit);
    }

    let metrics = if let Some((traced, traced_peak)) = traced {
        let traced_e2e = report::end_to_end(&traced, setup_s, input_bytes, traced_peak);
        let layers = report::per_layer(&traced, &traced_e2e, &plain)?;
        let roots = traced.spans.iter().filter(|s| s.parent.is_none()).count();
        let file = out_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        trace::write_jsonl(&file, &traced.spans).map_err(common::err)?;
        println!(
            "traced {} submissions; {} spans in {} trees, every tree closes; spans in {}",
            traced.samples.len(),
            traced.spans.len(),
            roots,
            file.display()
        );
        for m in &layers {
            println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
        }
        layers
    } else {
        plain
    };
    for c in &checks {
        println!("self-check ok: {c}");
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a finite number", m.name));
    }
    let correct = failed == 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    // The same object, with the run's metadata and fingerprint digest,
    // appended to the log.
    if let Some(d) = &digest {
        println!("fingerprint digest {d}");
    }
    let digest = digest.map_or("null".to_string(), |d| format!("\"{d}\""));
    let record = format!("{{\"run\": {meta}, \"fingerprint\": {digest}, {}\n", &result[1..]);
    std::fs::create_dir_all(out_dir()).map_err(common::err)?;
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_dir().join("results.jsonl"))
        .map_err(common::err)?;
    std::io::Write::write_all(&mut log, record.as_bytes()).map_err(common::err)?;
    Ok((correct, result))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((correct, result)) => {
            println!("{result}");
            if !correct {
                eprintln!("perfbench: a submission failed or returned a wrong output");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
