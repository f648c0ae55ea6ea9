//! `cold_then_reuse`: paper §7.2–§7.3 on the 15 GB instance.
//!
//! Each pass opens a fresh session (empty repository, final outputs not
//! registered, Aggressive heuristic, its own repository prefix), runs the
//! 8 standard queries with reuse off (the first run: Stores injected,
//! nothing reused), reruns them with reuse on and fresh output paths
//! (sub-job reuse), checks every output, and deletes the pass's DFS state.
//! One sequential client, so the modeled numbers are deterministic.

use crate::common::{
    self, request, Counters, Env, Expect, ProbeTotals, Res, Route, Sample, OUT, PROBE_EVERY,
};
use crate::report::{self, Phase};
use crate::trace::{self, Tracer};
use crate::Workload;
use restore_core::{Heuristic, ReStore, ReStoreConfig};
use restore_mapreduce::Engine;
use restore_pigmix::{queries, DataScale};
use restore_service::{RestoreService, ServiceConfig};
use std::time::Instant;

/// The paper's 15 GB references (information, not a gate).
pub const PAPER_SPEEDUP: f64 = 3.0;
pub const PAPER_OVERHEAD: f64 = 2.4;
/// The loop runs whole passes until `--seconds` have passed and at least
/// this many submissions were timed, so p95 has 10 samples beyond it.
const MIN_SAMPLES: usize = 200;

pub struct Cold {
    env: Env,
    queries: Vec<(String, String, Expect)>,
    probe: Option<Engine>,
    pass: u64,
    /// Modeled ratios and per-query byte counts of every pass so far.
    fingerprints: Vec<String>,
}

pub fn setup(seed: u64, traced: bool) -> Res<Cold> {
    let env = common::pigmix_env(&DataScale::gb15(), seed)?;
    let (labels, templates): (Vec<String>, Vec<String>) =
        queries::standard_workload(OUT).into_iter().unzip();
    let expects = common::oracle(&env.engine, &templates, "cold")?;
    let queries =
        labels.into_iter().zip(templates).zip(expects).map(|((l, t), e)| (l, t, e)).collect();
    let probe = if traced { Some(common::probe_engine(&env)?) } else { None };
    Ok(Cold { env, queries, probe, pass: 0, fingerprints: Vec::new() })
}

/// An empty phase of passes.
fn phase() -> Phase {
    Phase {
        wall_s: 0.0,
        mixed: true,
        samples: Vec::new(),
        regime: Vec::new(),
        attempted: 0,
        failed: 0,
        counters: Counters::default(),
        check_read_bytes: 0,
        repo_entries: 0.0,
        used_bytes: 0.0,
        repo_bytes: 0.0,
        spans: Vec::new(),
        probes: ProbeTotals::default(),
    }
}

impl Workload for Cold {
    fn describe(&self) -> String {
        "DataScale::gb15, ClusterConfig::paper_testbed".to_string()
    }

    fn input_bytes(&self) -> u64 {
        self.env.data.total_bytes()
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Res<Phase> {
        let epoch = Instant::now();
        let mut tr = traced.then(|| Tracer::new(epoch, 0));
        let mut phase = phase();
        while epoch.elapsed().as_secs_f64() < seconds || phase.samples.len() < MIN_SAMPLES {
            self.pass(&mut phase, tr.as_mut())?;
        }
        phase.wall_s = epoch.elapsed().as_secs_f64();
        phase.spans = trace::merge(tr.into_iter().collect());
        Ok(phase)
    }

    /// cold_then_reuse's self-check: every pass so far gave the same
    /// modeled ratios and per-query byte counts.
    fn self_check(&self, _: &Phase) -> Res<Vec<String>> {
        let first = self.fingerprints.first().ok_or("no pass completed")?;
        if let Some(i) = self.fingerprints.iter().position(|f| f != first) {
            return Err(format!(
                "pass {} differs from pass 1:\n  {}\n  {}",
                i + 1,
                first,
                self.fingerprints[i]
            ));
        }
        Ok(vec![format!(
            "{} passes identical (modeled ratios, per-query DFS and engine bytes)",
            self.fingerprints.len()
        )])
    }

    /// The first pass's fingerprint; a fresh set-up runs one pass for it.
    fn fingerprint(&mut self) -> Res<Option<String>> {
        if self.fingerprints.is_empty() {
            let mut check = phase();
            self.pass(&mut check, None)?;
            if check.failed > 0 {
                return Err(format!("{} submissions of the check pass failed", check.failed));
            }
        }
        Ok(self.fingerprints.first().cloned())
    }

    fn shutdown(self: Box<Self>) {}
}

impl Cold {
    fn pass(&mut self, phase: &mut Phase, mut tr: Option<&mut Tracer>) -> Res<()> {
        self.pass += 1;
        let tag = format!("p{}", self.pass);
        let repo_prefix = format!("/restore/cold/{tag}");
        let mut config = ReStoreConfig {
            reuse_enabled: false,
            heuristic: Heuristic::Aggressive,
            repo_prefix: repo_prefix.clone(),
            register_final_outputs: false,
            delete_tmp: false,
            ..ReStoreConfig::default()
        };
        let svc = RestoreService::new(
            ReStore::new(self.env.engine.clone(), config.clone()),
            ServiceConfig { workers: 2, ..ServiceConfig::default() },
        );
        let dfs = self.env.engine.dfs().clone();
        let before = Counters::read(&svc);
        let mut done: Vec<(usize, String, Sample)> = Vec::new();
        let mut fingerprint = String::new();
        for run in ["first", "rerun"] {
            if run == "rerun" {
                config.reuse_enabled = true;
                svc.set_tenant_config(None, config.clone());
            }
            for (i, (label, template, expect)) in self.queries.iter().enumerate() {
                let prefix = format!("/perfbench/cold/{tag}/{run}/{label}");
                let text = template.replace(OUT, &prefix);
                let n = (phase.samples.len() + done.len()) as u64;
                let route = Route::pick(tr.is_some(), n);
                let io0 = dfs.metrics();
                phase.attempted += 1;
                match request(&svc, &text, &prefix, route, tr.as_deref_mut()) {
                    Ok((exec, ms)) => {
                        let io = dfs.metrics().since(&io0);
                        let s = Sample::new(ms, &exec, expect.plain_s);
                        fingerprint.push_str(&format!(
                            " {run}/{label}:{}/{}/{}/{}/{}",
                            io.bytes_read,
                            io.logical_bytes_written,
                            s.map_input_bytes,
                            s.shuffle_bytes,
                            s.output_bytes
                        ));
                        done.push((i, exec.final_output, s));
                    }
                    Err(_) => phase.failed += 1,
                }
                if let (Some(t), Some(engine)) = (tr.as_deref_mut(), &self.probe) {
                    if n.is_multiple_of(PROBE_EVERY) {
                        let probe_prefix = format!("/perfbench/probe/{tag}/{run}/{label}");
                        common::probe(t, &svc, engine, template, &probe_prefix, &mut phase.probes)?;
                    }
                }
            }
        }
        phase.counters.add(&before.delta(&Counters::read(&svc)));
        phase.repo_entries = svc.driver().stats().repository_entries as f64;
        phase.used_bytes = dfs.used_bytes() as f64;
        phase.repo_bytes = dfs.bytes_under(&format!("{repo_prefix}/")) as f64;

        // Checks, outside every timed interval and before the pass's
        // state is deleted.
        for (i, path, _) in &done {
            let ok = common::digest(&dfs, path).map(|(d, _)| d == self.queries[*i].2.digest);
            if ok != Ok(true) {
                phase.failed += 1;
            }
        }
        let (cold, reuse): (Vec<&Sample>, Vec<&Sample>) =
            done.iter().map(|d| &d.2).partition(|s| s.cold);
        let (speedup, overhead) = report::modeled(&cold, &reuse);
        self.fingerprints
            .push(format!("speedup={speedup:.12e} overhead={overhead:.12e}{fingerprint}"));
        phase.samples.extend(done.into_iter().map(|d| d.2));

        svc.shutdown();
        dfs.delete_prefix(&format!("/perfbench/cold/{tag}/"));
        dfs.delete_prefix(&format!("{repo_prefix}/"));
        Ok(())
    }
}
