//! Seeded parametric query variants over `page_views`.
//!
//! A variant filters on a `timestamp` threshold, groups by user and
//! aggregates revenue. A second filter leg, `action < 10 + uniq`, is true
//! of every row (actions are 0..9) but makes each variant's text and plan
//! signature unique, so the repository has never seen it. The result
//! depends only on (level, aggregate), which lets the output oracle be
//! computed once per class.

use crate::common::OUT;
use restore_common::rng::SplitMix64;
use restore_pigmix::datagen::PAGE_VIEWS;

/// Threshold levels: `timestamp > BASE + level × STEP` keeps a
/// different share of the `tiny` instance's rows at each level.
pub const LEVELS: usize = 12;
const STEP: i64 = 20;
const BASE: i64 = 1_300_000_000;
pub const AGGS: [&str; 5] = ["SUM", "MAX", "MIN", "COUNT", "AVG"];

/// The variant `uniq` of result class (`level`, `agg`).
pub fn variant(level: usize, agg: usize, uniq: u64) -> String {
    format!(
        "A = load '{PAGE_VIEWS}' as (user, action:int, timestamp:int, est_revenue:double, page_info, page_links);
         B = filter A by timestamp > {t} and action < {bound};
         C = foreach B generate user, est_revenue;
         D = group C by user;
         E = foreach D generate group, {f}(C.est_revenue);
         store E into '{OUT}/out';",
        t = BASE + level as i64 * STEP,
        bound = 10 + uniq,
        f = AGGS[agg],
    )
}

/// A random class for variant `uniq`.
pub fn draw(rng: &mut SplitMix64) -> (usize, usize) {
    (rng.next_below(LEVELS as u64) as usize, rng.next_below(AGGS.len() as u64) as usize)
}

/// A random variant, for warming a repository.
pub fn parametric(rng: &mut SplitMix64, uniq: u64) -> String {
    let (level, agg) = draw(rng);
    variant(level, agg, uniq)
}

/// Index of class (`level`, `agg`) in [`classes`] order.
pub fn class_index(level: usize, agg: usize) -> usize {
    level * AGGS.len() + agg
}

/// One template per result class, for the oracle.
pub fn classes() -> Vec<String> {
    (0..LEVELS).flat_map(|l| (0..AGGS.len()).map(move |a| variant(l, a, 0))).collect()
}
