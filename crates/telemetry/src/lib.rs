//! # restore-telemetry
//!
//! A dependency-free observability core, hand-rolled because the build
//! environment is fully offline: no `prometheus`, no `metrics`, no
//! `tracing`.
//!
//! Three pieces:
//!
//! * **Metric primitives** ([`Counter`], [`Gauge`], [`Histogram`]) whose
//!   hot-path record is a relaxed `fetch_add` on a cache-line-padded
//!   stripe — no lock, no CAS loop, no snapshot publication — so
//!   instrumenting a write-free path (e.g. the §3 match loop) keeps it
//!   write-free: the snapshot publish counter never moves.
//! * **A registry** ([`Registry`]) of named, labeled metric families
//!   that renders the whole set in Prometheus text exposition format
//!   ([`Registry::render`]). Handles are resolved once (a short mutex
//!   section) and recorded through forever after; the registry lock is
//!   never on a per-record path.
//! * **A trace ring** ([`TraceRing`]) — a bounded FIFO of structured
//!   events for "why did this decision happen" introspection, pushed
//!   in per-job batches so the hot loop takes its mutex once per job,
//!   not once per event.
//!
//! ## Why relaxed ordering is sound
//!
//! Every metric is an independent monotone accumulator: no reader
//! derives a happens-before edge from a metric value, and no metric
//! guards any other data. Atomic RMW (`fetch_add`) never loses an
//! update regardless of ordering, so totals are exact once the writing
//! threads are quiescent (joined threads synchronize with the reader
//! through the join itself). Mid-flight readers may observe metrics
//! slightly out of sync with one another — acceptable for monitoring,
//! and exactly the trade that keeps recording off the coherence
//! critical path.

mod metrics;
mod registry;
mod ring;

pub use metrics::{Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};
pub use registry::Registry;
pub use ring::TraceRing;
