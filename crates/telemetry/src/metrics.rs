//! The metric primitives: striped counters, float gauges, and
//! log-bucketed histograms. All handles are cheap `Arc` clones of a
//! shared core, so a handle resolved from the registry at setup time
//! records with no further lookups.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Stripes per counter/histogram-sum. Enough that 8–16 recording
/// threads rarely share a stripe, small enough that a counter is one
/// kilobyte.
const STRIPES: usize = 16;

/// One cache line per stripe: two threads on different stripes never
/// bounce a line between cores.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Round-robin stripe assignment: each recording thread gets a stable
/// stripe index the first time it records anything.
fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

#[derive(Default)]
struct Stripes([PaddedU64; STRIPES]);

impl Stripes {
    #[inline]
    fn add(&self, n: u64) {
        self.0[stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    fn total(&self) -> u64 {
        self.0.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// A monotone counter. `add` is a single relaxed `fetch_add` on the
/// calling thread's stripe; `get` sums the stripes.
#[derive(Clone, Default)]
pub struct Counter {
    core: Arc<Stripes>,
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.core.add(n);
    }

    pub fn get(&self) -> u64 {
        self.core.total()
    }
}

/// A last-value gauge holding an `f64` (stored as bits in one atomic).
/// Gauges are set at collection time, not on hot paths, so a plain
/// `store` is all they need.
#[derive(Clone)]
pub struct Gauge {
    core: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge { core: Arc::new(AtomicU64::new(0f64.to_bits())) }
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

impl Gauge {
    pub fn set(&self, v: f64) {
        self.core.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.core.load(Ordering::Relaxed))
    }
}

/// Log-bucketed histogram buckets: bucket `i` counts recorded values
/// `v` with `floor(log2(max(v, 1))) == i`, i.e. `v ≤ 2^(i+1) - 1`.
/// 44 buckets cover 1ns .. ~17.6s of nanosecond timings; larger values
/// clamp into the last bucket (rendered as `+Inf` cumulative anyway).
pub const HISTOGRAM_BUCKETS: usize = 44;

struct HistogramCore {
    /// Per-bucket counts. Not striped: distinct values land on distinct
    /// buckets, and a histogram records orders of magnitude less often
    /// than a hit counter increments.
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    /// Striped running sum of raw recorded values.
    sum: Stripes,
    /// Multiplier applied to bucket bounds and the sum at render time
    /// (1e-9 turns recorded nanoseconds into exposition seconds).
    scale: f64,
}

/// A log-bucketed histogram. `record` is two relaxed `fetch_add`s (the
/// bucket count and the striped sum) — constant-time, lock-free, and
/// publication-free, which is what lets the §3 match path carry one.
/// The observation count is derived from the buckets at read time, so
/// `count == Σ bucket` holds by construction.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::with_scale(1e-9)
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram(count={}, sum_raw={})", self.count(), self.sum_raw())
    }
}

impl Histogram {
    /// A histogram whose rendered bounds/sum are `raw × scale`.
    pub fn with_scale(scale: f64) -> Self {
        Histogram {
            core: Arc::new(HistogramCore {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: Stripes::default(),
                scale,
            }),
        }
    }

    #[inline]
    fn bucket_index(v: u64) -> usize {
        (63 - v.max(1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Record one raw value (nanoseconds, by convention, for timings).
    #[inline]
    pub fn record(&self, v: u64) {
        self.core.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.core.sum.add(v);
    }

    /// Record the elapsed time of a span started at `t0`.
    #[inline]
    pub fn record_elapsed(&self, t0: Instant) {
        self.record(t0.elapsed().as_nanos() as u64);
    }

    /// Time `f` and record its duration.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.record_elapsed(t0);
        out
    }

    /// Observation count (sum of the buckets).
    pub fn count(&self) -> u64 {
        self.core.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of raw recorded values (unscaled).
    pub fn sum_raw(&self) -> u64 {
        self.core.sum.total()
    }

    /// The render-time scale factor.
    pub fn scale(&self) -> f64 {
        self.core.scale
    }

    /// Per-bucket counts (non-cumulative), for rendering and tests.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.core.buckets[i].load(Ordering::Relaxed))
    }

    /// Scaled upper bound of bucket `i` (inclusive, `2^(i+1) - 1` raw).
    pub fn bucket_bound(&self, i: usize) -> f64 {
        ((1u64 << (i + 1)) - 1) as f64 * self.core.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_stripes_and_threads() {
        let c = Counter::default();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        let b = h.bucket_counts();
        assert_eq!(b[0], 2, "0 and 1 share the first bucket");
        assert_eq!(b[1], 2, "2 and 3");
        assert_eq!(b[2], 1, "4");
        assert_eq!(b[9], 1, "1023");
        assert_eq!(b[10], 1, "1024");
        assert_eq!(b[HISTOGRAM_BUCKETS - 1], 1, "huge values clamp to the last bucket");
        assert_eq!(h.count(), 8);
    }

    #[test]
    fn gauge_round_trips_floats() {
        let g = Gauge::default();
        assert_eq!(g.get(), 0.0);
        g.set(0.625);
        assert_eq!(g.get(), 0.625);
        g.set(-3.0);
        assert_eq!(g.get(), -3.0);
    }
}
