//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Every client thread owns a [`Tracer`] (no locking on the hot path);
//! the per-client span lists are merged at the end of the run, written
//! out as JSON lines, and reduced to per-name durations and self times.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Request (or probe) id shared by every span of one tree.
    pub trace: u64,
    /// Index of the parent span in the same list.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder of one client thread.
pub struct Tracer {
    epoch: Instant,
    client: u64,
    next_trace: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, client: u64) -> Self {
        Tracer { epoch, client, next_trace: 0, spans: Vec::new() }
    }

    /// A fresh tree id, unique across clients.
    pub fn new_trace(&mut self) -> u64 {
        self.next_trace += 1;
        (self.client << 40) | self.next_trace
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, trace: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, trace, parent, start_ns, end_ns: 0 });
        self.spans.len() - 1
    }

    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let idx = self.open(name, trace, parent);
        let out = f();
        self.close(idx);
        out
    }
}

/// Merge per-client span lists into one, re-basing parent indices.
pub fn merge(tracers: Vec<Tracer>) -> Vec<Span> {
    let mut all = Vec::new();
    for t in tracers {
        let base = all.len();
        all.extend(t.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Per-name reduction of a span list: every duration and self time
/// (duration minus the part covered by child spans), nanoseconds.
#[derive(Default, Debug, Clone)]
pub struct NameStats {
    pub durations: Vec<u64>,
    pub self_times: Vec<u64>,
}

fn median_us(v: &[u64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    s[(s.len() - 1) / 2] as f64 / 1e3
}

impl NameStats {
    pub fn median_us(&self) -> f64 {
        median_us(&self.durations)
    }

    pub fn median_self_us(&self) -> f64 {
        median_us(&self.self_times)
    }
}

/// Reduce spans per name and check that every tree closes: each span is
/// closed, children lie inside their parent, do not overlap one another,
/// and so parent = Σ children + a non-negative self time ("other").
pub fn analyze(spans: &[Span]) -> Result<BTreeMap<&'static str, NameStats>, String> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns || s.end_ns == 0 {
            return Err(format!("span {} ({}) never closed", i, s.name));
        }
        if let Some(p) = s.parent {
            if spans[p].trace != s.trace {
                return Err(format!("span {} ({}) crosses trees", i, s.name));
            }
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut kids: Vec<&Span> = children[i].iter().map(|&c| &spans[c]).collect();
        kids.sort_by_key(|k| k.start_ns);
        let mut covered = 0u64;
        let mut cursor = s.start_ns;
        for k in &kids {
            if k.start_ns < cursor || k.end_ns > s.end_ns {
                return Err(format!(
                    "tree {:#x}: child {} does not nest inside {} without overlap",
                    s.trace, k.name, s.name
                ));
            }
            cursor = k.end_ns;
            covered += k.dur_ns();
        }
        let e = out.entry(s.name).or_default();
        e.durations.push(s.dur_ns());
        e.self_times.push(s.dur_ns() - covered);
    }
    Ok(out)
}

/// Write spans as JSON lines: name, tree id, span id, parent, start, end.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map(|p| p.to_string()).unwrap_or_else(|| "null".to_string());
        writeln!(
            w,
            "{{\"name\":\"{}\",\"trace\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.trace, i, parent, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}
