//! `write_churn`: ad-hoc queries that never repeat.
//!
//! Two closed-loop clients share the default namespace. Every query is a
//! never-seen parametric variant (see [`crate::variants`]), so nothing
//! matches and the Aggressive heuristic registers new candidates on every
//! query. A §5 eviction window bounds the repository, the journal is on
//! and checkpointed every [`CHECKPOINT_EVERY`] queries, and each query's
//! outputs are deleted once checked, which keeps repository size and DFS
//! bytes level.

use crate::common::{
    self, request, Counters, Env, Expect, ProbeTotals, Res, Route, Sample, PROBE_EVERY,
};
use crate::report::Phase;
use crate::trace::{self, Tracer};
use crate::variants::{self, AGGS};
use crate::Workload;
use restore_common::rng::SplitMix64;
use restore_core::{ReStore, ReStoreConfig, SelectionPolicy};
use restore_mapreduce::Engine;
use restore_pigmix::DataScale;
use restore_service::{CheckpointConfig, RestoreService, ServiceConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// §5 rule 3: entries unused for this many queries are evicted.
const EVICTION_WINDOW: u64 = 64;
const CHECKPOINT_EVERY: u64 = 32;
const CLIENTS: u64 = 2;
/// Queries run in setup so the loop starts at the steady level.
const WARMUP_QUERIES: u64 = 3 * EVICTION_WINDOW;
const REPO_PREFIX: &str = "/restore/churn";
/// Repository size and DFS bytes in the last quarter must stay within
/// this share of their second-quarter level.
const LEVEL_BOUND: f64 = 0.25;

pub struct Churn {
    env: Env,
    svc: RestoreService,
    /// Oracle per result class, in [`variants::classes`] order.
    expects: Vec<Expect>,
    probe: Option<Engine>,
    seed: u64,
    next_id: AtomicU64,
    round: u64,
    /// (repository entries, DFS used bytes, DFS bytes under the
    /// repository prefix) means of the last run's second and fourth
    /// quarters.
    quarters: [(f64, f64, f64); 2],
    /// The set-up's timed resubmissions (reuse regime).
    resubmits: Vec<Sample>,
}

/// One checked and cleaned-up churn query.
struct Done {
    sample: Sample,
    read_bytes: u64,
}

impl Churn {
    /// Run variant `uniq` of class (`level`, `agg`) with outputs under a
    /// fresh prefix numbered `id`, check it, and delete its outputs.
    fn query(
        &self,
        (level, agg, uniq): (usize, usize, u64),
        id: u64,
        tr: Option<&mut Tracer>,
    ) -> Res<Done> {
        let prefix = format!("/perfbench/churn/{id}");
        let text = variants::variant(level, agg, uniq).replace(common::OUT, &prefix);
        let route = Route::pick(tr.is_some(), id);
        let (exec, ms) = request(&self.svc, &text, &prefix, route, tr)?;
        let expect = self.expects[variants::class_index(level, agg)];
        let dfs = self.env.engine.dfs();
        let checked = common::digest(dfs, &exec.final_output);
        dfs.delete_prefix(&format!("{prefix}/"));
        let (got, read_bytes) = checked?;
        if got != expect.digest {
            return Err(format!("churn query {id} returned a wrong result"));
        }
        Ok(Done { sample: Sample::new(ms, &exec, expect.plain_s), read_bytes })
    }

    fn checkpoint(&self, id: u64, tr: Option<&mut Tracer>) -> Res<()> {
        if id % CHECKPOINT_EVERY != CHECKPOINT_EVERY - 1 {
            return Ok(());
        }
        let done = match tr {
            Some(t) => {
                let trace = t.new_trace();
                t.time("core.checkpoint", trace, None, || self.svc.checkpoint_incremental())
            }
            None => self.svc.checkpoint_incremental(),
        };
        done.map(|_| ()).map_err(common::err)
    }

    /// The reuse regime: an analyst re-asks the newest query of each
    /// threshold level in `issued` (id, level, aggregate) with each other
    /// aggregate; the filtered projection the churn stored for it is
    /// still inside the eviction window. One query per level keeps the
    /// work mix the same for every seed. Returns the samples and the
    /// number of failed resubmissions.
    fn resubmit(&self, issued: &mut [(u64, usize, usize)]) -> (Vec<Sample>, u64) {
        issued.sort_unstable();
        let mut samples = Vec::new();
        let mut failed = 0;
        let mut seen = [false; variants::LEVELS];
        let newest = issued.iter().rev().filter(|q| !std::mem::replace(&mut seen[q.1], true));
        for &(uniq, level, agg) in newest {
            for other in (1..AGGS.len()).map(|k| (agg + k) % AGGS.len()) {
                let id = self.next_id.fetch_add(1, Ordering::SeqCst);
                match self.query((level, other, uniq), id, None) {
                    Ok(done) => samples.push(done.sample),
                    Err(_) => failed += 1,
                }
            }
        }
        (samples, failed)
    }

    fn client(
        &self,
        c: u64,
        round: u64,
        deadline: Instant,
        mut tr: Option<&mut Tracer>,
    ) -> ClientOut {
        let mut rng = SplitMix64::new(self.seed).derive(round << 8 | c);
        let mut out = ClientOut::default();
        while Instant::now() < deadline {
            let id = self.next_id.fetch_add(1, Ordering::SeqCst);
            let (level, agg) = variants::draw(&mut rng);
            match self.query((level, agg, id), id, tr.as_deref_mut()) {
                Ok(done) => {
                    out.samples.push(done.sample);
                    out.read_bytes += done.read_bytes;
                    out.issued.push((id, level, agg));
                }
                Err(_) => out.failed += 1,
            }
            if let Err(e) = self.checkpoint(id, tr.as_deref_mut()) {
                out.error = Some(format!("checkpoint failed: {e}"));
                break;
            }
            if let (Some(t), Some(engine)) = (tr.as_deref_mut(), &self.probe) {
                if id.is_multiple_of(PROBE_EVERY) {
                    let template = variants::variant(level, agg, id);
                    let prefix = format!("/perfbench/probe/{id}");
                    if let Err(e) =
                        common::probe(t, &self.svc, engine, &template, &prefix, &mut out.probes)
                    {
                        out.error = Some(format!("probe failed: {e}"));
                        break;
                    }
                }
            }
        }
        out
    }
}

pub fn setup(seed: u64, traced: bool) -> Res<Churn> {
    let env = common::pigmix_env(&DataScale::tiny(), seed)?;
    let expects = common::oracle(&env.engine, &variants::classes(), "churn")?;
    let config = ReStoreConfig {
        selection: SelectionPolicy { eviction_window: Some(EVICTION_WINDOW), ..Default::default() },
        repo_prefix: REPO_PREFIX.to_string(),
        ..ReStoreConfig::default()
    };
    let svc = RestoreService::new(
        ReStore::new(env.engine.clone(), config),
        ServiceConfig { workers: 2, ..ServiceConfig::default() },
    );
    svc.checkpoint_begin(CheckpointConfig::default());
    let probe = if traced { Some(common::probe_engine(&env)?) } else { None };
    let mut churn = Churn {
        env,
        svc,
        expects,
        probe,
        seed,
        next_id: AtomicU64::new(0),
        round: 0,
        quarters: [(0.0, 0.0, 0.0); 2],
        resubmits: Vec::new(),
    };
    let mut rng = SplitMix64::new(seed).derive(0xC4);
    let mut issued = Vec::new();
    for _ in 0..WARMUP_QUERIES {
        let id = churn.next_id.fetch_add(1, Ordering::SeqCst);
        let (level, agg) = variants::draw(&mut rng);
        churn.query((level, agg, id), id, None)?;
        churn.checkpoint(id, None)?;
        issued.push((id, level, agg));
    }
    // Set-up ends with one timed resubmission burst too, so the reuse
    // regime is sampled at several moments of a run (see `main`).
    let (resubmits, failed) = churn.resubmit(&mut issued);
    if failed > 0 {
        return Err(format!("{failed} set-up resubmissions failed"));
    }
    churn.resubmits = resubmits;
    Ok(churn)
}

#[derive(Default)]
struct ClientOut {
    samples: Vec<Sample>,
    /// (id, level, agg) of every query, for the resubmissions.
    issued: Vec<(u64, usize, usize)>,
    failed: u64,
    read_bytes: u64,
    probes: ProbeTotals,
    error: Option<String>,
}

impl Workload for Churn {
    fn describe(&self) -> String {
        format!("eviction window {EVICTION_WINDOW}, checkpoint every {CHECKPOINT_EVERY} queries")
    }

    fn input_bytes(&self) -> u64 {
        self.env.data.total_bytes()
    }

    fn setup_samples(&self) -> Vec<Sample> {
        self.resubmits.clone()
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Res<Phase> {
        self.round += 1;
        let round = self.round;
        let before = Counters::read(&self.svc);
        let epoch = Instant::now();
        let deadline = epoch + Duration::from_secs_f64(seconds);
        let levels: Mutex<Vec<(f64, f64, f64, f64)>> = Mutex::new(Vec::new());
        let stop = AtomicBool::new(false);
        let this = &*self;
        let outs: Vec<(ClientOut, Option<Tracer>)> = std::thread::scope(|s| {
            // Level sampler (not a client): repository entries, DFS bytes
            // and repository bytes, tagged with the elapsed share of the run.
            let sampler = s.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    let frac = epoch.elapsed().as_secs_f64() / seconds;
                    let entries = this.svc.driver().stats().repository_entries as f64;
                    let dfs = this.env.engine.dfs();
                    let used = dfs.used_bytes() as f64;
                    let repo = dfs.bytes_under(&format!("{REPO_PREFIX}/")) as f64;
                    levels.lock().expect("sampler lock").push((frac, entries, used, repo));
                    std::thread::sleep(Duration::from_millis(20));
                }
            });
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    s.spawn(move || {
                        let mut tr = traced.then(|| Tracer::new(epoch, c));
                        let out = this.client(c, round, deadline, tr.as_mut());
                        (out, tr)
                    })
                })
                .collect();
            let outs =
                handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
            stop.store(true, Ordering::SeqCst);
            sampler.join().expect("sampler thread panicked");
            outs
        });
        let wall_s = epoch.elapsed().as_secs_f64();
        let counters = before.delta(&Counters::read(&self.svc));

        let levels = levels.into_inner().expect("sampler lock");
        let quarter = |lo: f64, hi: f64| {
            let v: Vec<_> = levels.iter().filter(|l| l.0 >= lo && l.0 < hi).collect();
            let mean = |f: fn(&(f64, f64, f64, f64)) -> f64| {
                v.iter().map(|l| f(l)).sum::<f64>() / v.len().max(1) as f64
            };
            (mean(|l| l.1), mean(|l| l.2), mean(|l| l.3))
        };
        self.quarters = [quarter(0.25, 0.5), quarter(0.75, f64::INFINITY)];

        let mut phase = Phase {
            wall_s,
            mixed: false,
            samples: Vec::new(),
            regime: Vec::new(),
            attempted: 0,
            failed: 0,
            counters,
            check_read_bytes: 0,
            repo_entries: self.quarters[1].0,
            used_bytes: self.quarters[1].1,
            repo_bytes: self.quarters[1].2,
            spans: Vec::new(),
            probes: ProbeTotals::default(),
        };
        let mut tracers = Vec::new();
        let mut issued = Vec::new();
        for (out, tr) in outs {
            if let Some(e) = out.error {
                return Err(e);
            }
            phase.samples.extend(out.samples);
            issued.extend(out.issued);
            phase.failed += out.failed;
            phase.check_read_bytes += out.read_bytes;
            phase.probes.add(&out.probes);
            tracers.extend(tr);
        }
        phase.spans = trace::merge(tracers);

        let (resubmitted, failed) = self.resubmit(&mut issued);
        phase.attempted = (phase.samples.len() + resubmitted.len()) as u64 + phase.failed + failed;
        phase.failed += failed;
        phase.regime = self.resubmits.iter().cloned().chain(resubmitted).collect();
        Ok(phase)
    }

    /// write_churn's self-checks: every query publishes, and repository
    /// size and DFS bytes stay level.
    fn self_check(&self, p: &Phase) -> Res<Vec<String>> {
        let n = p.samples.len().max(1) as f64;
        let publishes = p.counters.publishes as f64 / n;
        if publishes <= 0.0 {
            return Err("write_churn published nothing".to_string());
        }
        let [(e2, u2, _), (e4, u4, _)] = self.quarters;
        let drift = |a: f64, b: f64| (b - a).abs() / a.max(1.0);
        if drift(e2, e4) > LEVEL_BOUND || drift(u2, u4) > LEVEL_BOUND {
            return Err(format!(
                "write_churn levels drifted: entries {e2:.0} -> {e4:.0}, DFS bytes {u2:.0} -> {u4:.0}"
            ));
        }
        Ok(vec![
            format!("publishes per query = {publishes:.3} > 0"),
            format!(
                "repository entries {e2:.1} -> {e4:.1}, DFS used bytes {u2:.0} -> {u4:.0} \
                 (2nd -> 4th quarter, bound {LEVEL_BOUND})"
            ),
        ])
    }

    fn shutdown(self: Box<Self>) {
        self.svc.shutdown();
    }
}
