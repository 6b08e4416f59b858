//! Scheduler decision caching.
//!
//! The §3.3 searches (SLO-demand inversion, batch re-adjustment and the
//! §3.3.2 time split) are pure functions of the session inputs and the
//! period's drift state, and the simulator's session states recur: the
//! request predictor is integer-quantised, space division rounds the
//! concurrent-session count `s` up to an integer and every allocation is
//! snapped onto the centi-GPU grid ([`crate::space`]), so gpu fractions
//! are drawn from a small recurrent set and after a short transient the
//! same `(gpu fraction, predicted requests)` pairs are presented over
//! and over. The cache memoises the search results keyed
//! on the **exact bit pattern** of the inputs — a hit replays the
//! identical decision. Under the `strict-invariants` feature every hit
//! also reruns its search and asserts the fresh value is bit-equal to
//! the stored one, so any run built with that feature (the golden,
//! chaos and properties suites, the core unit tests) checks
//! cached ≡ recomputed on every lookup.
//!
//! Invalidation: per-app demand curves and joint batch/space choices
//! depend only on the immutable [`AppSpec`](adainf_apps::AppSpec)s, so
//! they live for the scheduler's lifetime. Time plans depend on the
//! period's RI-DAG and refreshed accuracy tables, so
//! [`DecisionCache::start_period`] drops them at every period boundary
//! (and thus on every drift-impact change). The scheduler calls it at
//! the top of its period hook, where no plan is looked up, so the
//! finished period's plans (a few thousand) are freed before the
//! boundary's drift build allocates.

use crate::timealloc::TimePlan;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::Debug;

/// Key for the gpu-fraction-dependent caches: `(app, requests,
/// gpu.to_bits())`. Keying on the exact bits (not a quantisation) is what
/// keeps cache hits decision-identical.
type FracKey = (usize, u32, u64);

/// Per-table entry bound. The tables memoise pure functions, so evicting
/// never changes a decision — only costs a recompute — and the bound
/// keeps a pathological key stream (e.g. non-recurrent float fractions)
/// from growing memory without limit. Eviction pops the smallest key,
/// which is deterministic for a deterministic key stream. The cap sits
/// well above the working set a quantised key stream produces (a few
/// thousand `(app, requests, fraction)` combinations): a cap *below* the
/// working set does not merely degrade — `pop_first` keeps deleting the
/// lowest-sorted live keys, so those keys miss on every lookup forever.
const TABLE_CAP: usize = 65_536;

/// Memoisation tables for the per-session scheduling searches.
#[derive(Clone, Debug, Default)]
pub struct DecisionCache {
    /// `(app, requests)` → SLO-demand fraction (§3.3.1 inversion).
    /// Valid for the scheduler's lifetime.
    demand: BTreeMap<(usize, u32), f64>,
    /// `(app, requests)` → joint `(fraction, batch)` choice (§6).
    /// Valid for the scheduler's lifetime.
    joint: BTreeMap<(usize, u32), (f64, u32)>,
    /// `(app, requests, gpu)` → re-adjusted request batch (§3.3.1 step 2).
    /// Valid for the scheduler's lifetime (costs are spec-fixed).
    batch_at: BTreeMap<FracKey, u32>,
    /// `(app, requests, gpu)` → pool-independent §3.3.2 time plan.
    /// Cleared every period.
    plan: BTreeMap<FracKey, TimePlan>,
    counts: Counts,
}

/// Lookup counters, shared by every table.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    /// Lookups answered from a table.
    hits: u64,
    /// Lookups that ran the underlying search.
    misses: u64,
    /// Entries dropped to keep a table within `TABLE_CAP`.
    evictions: u64,
}

/// Bit-level equality of a memoised value, for the `strict-invariants`
/// recompute-on-hit check: floats compare by `to_bits`, so a divergence
/// cannot hide behind `-0.0 == 0.0`.
trait BitEq {
    fn bit_eq(&self, other: &Self) -> bool;
}

impl BitEq for f64 {
    fn bit_eq(&self, other: &Self) -> bool {
        self.to_bits() == other.to_bits()
    }
}

impl BitEq for u32 {
    fn bit_eq(&self, other: &Self) -> bool {
        self == other
    }
}

impl BitEq for (f64, u32) {
    fn bit_eq(&self, other: &Self) -> bool {
        self.0.bit_eq(&other.0) && self.1 == other.1
    }
}

/// Every field of a [`TimePlan`] is an integer or a `SimDuration`
/// (integer microseconds), so its derived `PartialEq` is bit equality.
impl BitEq for TimePlan {
    fn bit_eq(&self, other: &Self) -> bool {
        self == other
    }
}

/// The one lookup behind every table: evict at the cap, then answer
/// from the table or run `compute` and store its value. Under
/// `strict-invariants` a hit runs `compute` as well and asserts the
/// fresh value is bit-equal to the stored one.
fn lookup<'t, K: Ord + Copy + Debug, V: BitEq + Debug>(
    table: &'t mut BTreeMap<K, V>,
    counts: &mut Counts,
    key: K,
    compute: impl FnOnce() -> V,
) -> &'t V {
    // Evict *before* taking the entry: the returned reference must
    // point at the entry just looked up, never at one being dropped.
    if table.len() >= TABLE_CAP && !table.contains_key(&key) && table.pop_first().is_some() {
        counts.evictions += 1;
    }
    match table.entry(key) {
        Entry::Occupied(e) => {
            counts.hits += 1;
            let stored = e.into_mut();
            if cfg!(feature = "strict-invariants") {
                let fresh = compute();
                assert!(
                    fresh.bit_eq(stored),
                    "strict-invariants: cache hit for {key:?} replayed {stored:?}, \
                     but the search now gives {fresh:?}"
                );
            }
            stored
        }
        Entry::Vacant(e) => {
            counts.misses += 1;
            e.insert(compute())
        }
    }
}

impl DecisionCache {
    /// Drops every table whose inputs change at a period boundary.
    pub fn start_period(&mut self) {
        self.plan.clear();
    }

    /// `(hits, misses, evictions)` over every table so far.
    pub(crate) fn stats(&self) -> (u64, u64, u64) {
        (self.counts.hits, self.counts.misses, self.counts.evictions)
    }

    /// Memoised SLO-demand fraction for `(app, requests)`.
    pub fn demand(&mut self, app: usize, requests: u32, compute: impl FnOnce() -> f64) -> f64 {
        *lookup(&mut self.demand, &mut self.counts, (app, requests), compute)
    }

    /// Memoised joint `(fraction, batch)` choice for `(app, requests)`.
    pub fn joint(
        &mut self,
        app: usize,
        requests: u32,
        compute: impl FnOnce() -> (f64, u32),
    ) -> (f64, u32) {
        *lookup(&mut self.joint, &mut self.counts, (app, requests), compute)
    }

    /// `strict-invariants` check on a float cache key: the key must be a
    /// finite fraction whose bit pattern round-trips, or "same key" and
    /// "same decision inputs" stop being the same thing.
    fn check_key(gpu: f64) {
        if cfg!(feature = "strict-invariants") {
            assert!(
                gpu.is_finite(),
                "strict-invariants: non-finite gpu fraction {gpu} used as a cache key"
            );
            assert_eq!(
                f64::from_bits(gpu.to_bits()).to_bits(),
                gpu.to_bits(),
                "strict-invariants: cache key does not round-trip through to_bits"
            );
        }
    }

    /// Memoised batch re-adjustment for `(app, requests, gpu)`.
    pub fn batch_at(
        &mut self,
        app: usize,
        requests: u32,
        gpu: f64,
        compute: impl FnOnce() -> u32,
    ) -> u32 {
        Self::check_key(gpu);
        let key = (app, requests, gpu.to_bits());
        *lookup(&mut self.batch_at, &mut self.counts, key, compute)
    }

    /// Memoised §3.3.2 time plan for `(app, requests, gpu)`. Returns a
    /// shared reference into the table; the caller clamps the proto
    /// slices against the live pool state.
    pub fn plan(
        &mut self,
        app: usize,
        requests: u32,
        gpu: f64,
        compute: impl FnOnce() -> TimePlan,
    ) -> &TimePlan {
        Self::check_key(gpu);
        let key = (app, requests, gpu.to_bits());
        lookup(&mut self.plan, &mut self.counts, key, compute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adainf_simcore::SimDuration;

    #[test]
    fn demand_computes_once_per_key() {
        let mut cache = DecisionCache::default();
        let mut calls = 0;
        for _ in 0..3 {
            let d = cache.demand(0, 16, || {
                calls += 1;
                0.25
            });
            assert_eq!(d, 0.25);
        }
        // The armed check reruns the search on every hit.
        let strict = cfg!(feature = "strict-invariants");
        assert_eq!(calls, if strict { 3 } else { 1 });
        assert_eq!(cache.stats(), (2, 1, 0));
        // A different key computes again.
        cache.demand(0, 17, || 0.5);
        assert_eq!(cache.stats(), (2, 2, 0));
    }

    #[test]
    fn plan_cleared_at_period_boundary_others_survive() {
        let mut cache = DecisionCache::default();
        let mk = || TimePlan {
            cuts: vec![2],
            batch: 8,
            inference_time: SimDuration::from_millis(10),
            proto: Vec::new(),
        };
        cache.plan(0, 16, 0.25, mk);
        cache.demand(0, 16, || 0.3);
        cache.start_period();
        let (_, misses, _) = cache.stats();
        cache.plan(0, 16, 0.25, mk);
        assert_eq!(
            cache.stats().1,
            misses + 1,
            "plans must not survive the period boundary"
        );
        cache.demand(0, 16, || 0.3);
        assert_eq!(
            cache.stats().1,
            misses + 1,
            "demand tables are spec-lifetime"
        );
    }

    #[cfg(feature = "strict-invariants")]
    #[test]
    #[should_panic(expected = "non-finite gpu fraction")]
    fn strict_rejects_nan_keys() {
        let mut cache = DecisionCache::default();
        cache.batch_at(0, 16, f64::NAN, || 8);
    }

    #[cfg(feature = "strict-invariants")]
    #[test]
    #[should_panic(expected = "but the search now gives")]
    fn strict_recomputes_every_hit() {
        // -0.0 == 0.0 as floats; the check compares bits, so a search
        // whose answer moved by sign alone still fails the hit.
        let mut cache = DecisionCache::default();
        cache.demand(0, 16, || 0.0);
        cache.demand(0, 16, || -0.0);
    }

    #[test]
    fn tables_bounded_by_cap() {
        let mut cache = DecisionCache::default();
        let n = TABLE_CAP as u32 + 10;
        for r in 0..n {
            cache.demand(0, r, || f64::from(r));
        }
        assert_eq!(cache.stats(), (0, u64::from(n), 10));
        // The latest entry survives and replays its cached value.
        assert_eq!(
            cache.demand(0, n - 1, || f64::from(n - 1)),
            f64::from(n - 1)
        );
        assert_eq!(cache.stats(), (1, u64::from(n), 10));
        // Re-presenting an existing key at cap must not evict anything.
        cache.demand(0, n - 1, || f64::from(n - 1));
        assert_eq!(cache.stats(), (2, u64::from(n), 10));
    }

    #[test]
    fn distinct_gpu_bits_are_distinct_keys() {
        let mut cache = DecisionCache::default();
        cache.batch_at(0, 16, 0.25, || 8);
        let b = cache.batch_at(0, 16, 0.250000001, || 4);
        assert_eq!(b, 4, "nearby fractions must not alias");
        assert_eq!(cache.stats(), (0, 2, 0));
        assert_eq!(cache.batch_at(0, 16, 0.25, || 8), 8);
        assert_eq!(cache.stats(), (1, 2, 0));
    }
}
