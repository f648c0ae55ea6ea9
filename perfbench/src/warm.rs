//! `warm_reuse`: whole-job reuse serving.
//!
//! Setup warms one session with the 8 standard queries, the whole-job
//! workload, the paraphrase suite and seeded parametric variants until
//! the repository holds at least [`MIN_ENTRIES`] entries. The measured
//! loop has 2 closed-loop clients drawing Zipf-skewed queries from that
//! warmed set, each draw with fresh output paths, so every submission is
//! answered entirely from the repository.

use crate::common::{
    self, request, Counters, Env, Expect, ProbeTotals, Res, Route, Sample, OUT, PROBE_EVERY,
};
use crate::report::Phase;
use crate::trace::{self, Tracer};
use crate::variants;
use crate::Workload;
use restore_common::rng::{SplitMix64, Zipf};
use restore_core::{ReStore, ReStoreConfig};
use restore_mapreduce::Engine;
use restore_pigmix::{paraphrase, queries, DataScale};
use restore_service::{RestoreService, ServiceConfig};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const MIN_ENTRIES: usize = 1000;
const CLIENTS: u64 = 2;
/// Zipf exponent of the draws over the warmed set: the request
/// distribution constant of YCSB (Cooper et al., "Benchmarking Cloud
/// Serving Systems with YCSB", SoCC 2010), the common default for
/// skewed re-access. Popularity follows the warm-up order: the PigMix
/// queries first, then the whole-job workload and the paraphrases, the
/// parametric variants last. A fixed order keeps the work mix, and so
/// the latency tail, the same for every seed; `describe` prints each
/// family's share of the draws.
const ZIPF_S: f64 = 0.99;

pub struct Warm {
    env: Env,
    svc: RestoreService,
    /// The warmed set: templates and their oracle results.
    queries: Vec<(String, Expect)>,
    /// Query families of the warmed set in warm-up order, with their
    /// sizes.
    families: Vec<(&'static str, usize)>,
    /// Timed warm-up submissions (the workload's cold regime).
    warmup: Vec<Sample>,
    probe: Option<Engine>,
    seed: u64,
    round: u64,
}

/// Submit `template` once through the service, check it against the
/// oracle, and return its sample.
fn submit_checked(svc: &RestoreService, template: &str, prefix: &str, e: &Expect) -> Res<Sample> {
    let (exec, ms) = request(svc, &template.replace(OUT, prefix), prefix, Route::Service, None)?;
    let (got, _) = common::digest(svc.driver().engine().dfs(), &exec.final_output)?;
    if got != e.digest {
        return Err(format!("warm-up result mismatch for {prefix}"));
    }
    Ok(Sample::new(ms, &exec, e.plain_s))
}

pub fn setup(seed: u64, traced: bool) -> Res<Warm> {
    let env = common::pigmix_env(&DataScale::tiny(), seed)?;
    let svc = RestoreService::new(
        ReStore::new(env.engine.clone(), ReStoreConfig::default()),
        ServiceConfig { workers: 2, ..ServiceConfig::default() },
    );
    let mut templates: Vec<String> = Vec::new();
    templates.extend(queries::standard_workload(OUT).into_iter().map(|(_, q)| q));
    let mut families = vec![("standard", templates.len())];
    templates.extend(queries::whole_job_workload(OUT).into_iter().map(|(_, q)| q));
    families.push(("whole-job", templates.len() - families[0].1));
    let fixed = templates.len();
    for case in paraphrase::paraphrase_suite(OUT) {
        templates.push(case.original);
        templates.extend(case.paraphrases);
    }
    families.push(("paraphrase", templates.len() - fixed));
    let mut rng = SplitMix64::new(seed).derive(0x3A7);
    let mut queries: Vec<(String, Expect)> = Vec::new();
    let mut warmup = Vec::new();
    let mut uniq = 0u64;
    while svc.driver().stats().repository_entries < MIN_ENTRIES {
        if templates.is_empty() {
            for _ in 0..8 {
                uniq += 1;
                templates.push(variants::parametric(&mut rng, uniq));
            }
        }
        let batch = std::mem::take(&mut templates);
        let expects = common::oracle(&env.engine, &batch, "warm")?;
        for (t, e) in batch.into_iter().zip(expects) {
            let prefix = format!("/perfbench/warm/setup/{}", queries.len());
            warmup.push(submit_checked(&svc, &t, &prefix, &e)?);
            queries.push((t, e));
        }
    }
    let named: usize = families.iter().map(|f| f.1).sum();
    families.push(("parametric", queries.len() - named));
    let probe = if traced { Some(common::probe_engine(&env)?) } else { None };
    Ok(Warm { env, svc, queries, families, warmup, probe, seed, round: 0 })
}

/// What one client of the loop brings back.
#[derive(Default)]
struct ClientOut {
    samples: Vec<Sample>,
    /// (query index, final output) per sample, checked after the loop.
    results: Vec<(usize, String)>,
    failed: u64,
    probes: ProbeTotals,
    error: Option<String>,
}

impl Workload for Warm {
    fn describe(&self) -> String {
        let weight = |k: usize| 1.0 / ((k + 1) as f64).powf(ZIPF_S);
        let total: f64 = (0..self.queries.len()).map(weight).sum();
        let mut start = 0;
        let shares: Vec<String> = self
            .families
            .iter()
            .map(|&(name, n)| {
                let share = (start..start + n).map(weight).sum::<f64>() / total;
                start += n;
                format!("{name} {n} queries, {:.1}%", share * 100.0)
            })
            .collect();
        format!(
            "warmed set of {} queries; Zipf s = {ZIPF_S} shares of draws: {}",
            self.queries.len(),
            shares.join("; ")
        )
    }

    fn input_bytes(&self) -> u64 {
        self.env.data.total_bytes()
    }

    fn setup_samples(&self) -> Vec<Sample> {
        self.warmup.clone()
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Res<Phase> {
        self.round += 1;
        let round = self.round;
        let zipf = Zipf::new(self.queries.len(), ZIPF_S);
        let before = Counters::read(&self.svc);
        let epoch = Instant::now();
        let deadline = epoch + Duration::from_secs_f64(seconds);
        let this = &*self;
        let zipf = &zipf;
        let outs: Vec<(ClientOut, Option<Tracer>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    s.spawn(move || {
                        let mut tr = traced.then(|| Tracer::new(epoch, c));
                        let out = this.client(c, round, zipf, deadline, tr.as_mut());
                        (out, tr)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let wall_s = epoch.elapsed().as_secs_f64();
        let counters = before.delta(&Counters::read(&self.svc));

        let mut phase = Phase {
            wall_s,
            mixed: false,
            samples: Vec::new(),
            regime: self.warmup.clone(),
            attempted: 0,
            failed: 0,
            counters,
            check_read_bytes: 0,
            repo_entries: self.svc.driver().stats().repository_entries as f64,
            used_bytes: self.env.engine.dfs().used_bytes() as f64,
            repo_bytes: self.env.engine.dfs().bytes_under("/restore/") as f64,
            spans: Vec::new(),
            probes: ProbeTotals::default(),
        };
        let mut tracers = Vec::new();
        let mut results = Vec::new();
        for (out, tr) in outs {
            if let Some(e) = out.error {
                return Err(e);
            }
            phase.samples.extend(out.samples);
            results.extend(out.results);
            phase.failed += out.failed;
            phase.probes.add(&out.probes);
            tracers.extend(tr);
        }
        phase.attempted = (phase.samples.len() as u64) + phase.failed;
        phase.spans = trace::merge(tracers);

        // Output oracle, outside every timed interval: whole-job answers
        // alias stored files, so each distinct (query, file) pair is
        // read once and its verdict applies to every draw that got it.
        let dfs = self.env.engine.dfs();
        let mut verdict: HashMap<(usize, String), bool> = HashMap::new();
        for key in &results {
            if !verdict.contains_key(key) {
                let ok = common::digest(dfs, &key.1)
                    .map(|(d, _)| d == self.queries[key.0].1.digest)
                    .unwrap_or(false);
                verdict.insert(key.clone(), ok);
            }
            if !verdict[key] {
                phase.failed += 1;
            }
        }
        Ok(phase)
    }

    /// warm_reuse's self-checks: the loop wrote nothing to the
    /// repository and every job of every submission was answered from it.
    fn self_check(&self, p: &Phase) -> Res<Vec<String>> {
        let jobs: usize = p.samples.iter().map(|s| s.jobs).sum();
        let skipped: usize = p.samples.iter().map(|s| s.skipped).sum();
        if p.counters.publishes != 0 {
            return Err(format!("warm_reuse published {} snapshots", p.counters.publishes));
        }
        if jobs == 0 || skipped != jobs {
            return Err(format!("warm_reuse hit ratio {skipped}/{jobs} is not 1"));
        }
        Ok(vec![
            format!("publishes = 0 over {} submissions", p.samples.len()),
            format!("core.hit_ratio = {skipped}/{jobs} = 1"),
        ])
    }

    fn shutdown(self: Box<Self>) {
        self.svc.shutdown();
    }
}

impl Warm {
    fn client(
        &self,
        c: u64,
        round: u64,
        zipf: &Zipf,
        deadline: Instant,
        mut tr: Option<&mut Tracer>,
    ) -> ClientOut {
        let mut rng = SplitMix64::new(self.seed).derive(round << 8 | c);
        let mut out = ClientOut::default();
        let mut n = 0u64;
        while Instant::now() < deadline {
            n += 1;
            let q = zipf.sample(&mut rng);
            let (template, expect) = &self.queries[q];
            let prefix = format!("/perfbench/warm/{round}/{c}/{n}");
            let route = Route::pick(tr.is_some(), n);
            let text = template.replace(OUT, &prefix);
            match request(&self.svc, &text, &prefix, route, tr.as_deref_mut()) {
                Ok((exec, ms)) => {
                    out.samples.push(Sample::new(ms, &exec, expect.plain_s));
                    out.results.push((q, exec.final_output));
                }
                Err(_) => out.failed += 1,
            }
            if let (Some(t), Some(engine)) = (tr.as_deref_mut(), &self.probe) {
                if n.is_multiple_of(PROBE_EVERY) {
                    let probe_prefix = format!("/perfbench/probe/{round}/{c}/{n}");
                    if let Err(e) = common::probe(
                        t,
                        &self.svc,
                        engine,
                        template,
                        &probe_prefix,
                        &mut out.probes,
                    ) {
                        out.error = Some(format!("probe failed: {e}"));
                        break;
                    }
                }
            }
        }
        out
    }
}
