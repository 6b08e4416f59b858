//! Scheduler decision caching.
//!
//! The §3.3 searches (the SLO-demand inversion and the §3.3.2 time
//! split) are pure functions of the session inputs and the period's
//! drift state, and the simulator's session states recur: the
//! request predictor is integer-quantised, space division rounds the
//! concurrent-session count `s` up to an integer and every allocation is
//! snapped onto the centi-GPU grid ([`crate::space`]), so gpu fractions
//! are drawn from a small recurrent set and after a short transient the
//! same `(gpu fraction, predicted requests)` pairs are presented over
//! and over. The cache memoises the search results keyed on the inputs
//! themselves — the request count as an index, the gpu fraction by its
//! **exact bit pattern** — so a hit replays the identical decision.
//! Under the `strict-invariants` feature every hit also reruns its
//! search and asserts the fresh value is bit-equal to the stored one, so
//! any run built with that feature (the golden, chaos and properties
//! suites, the core unit tests) checks cached ≡ recomputed on every
//! lookup.
//!
//! Layout: one slot per `(app, predicted requests)`, held in a
//! per-app vector indexed by the request count and grown to the largest
//! count seen, so finding a slot is two index operations. A slot holds
//! the lifetime demand value and the period's time plans, in a short
//! list keyed by exact gpu-fraction bits. Request counts at or past
//! `DENSE_REQUESTS` are computed uncached (the slot vector would
//! otherwise grow with any outlier), and a slot holding `SLOT_PLANS`
//! plans is cleared before the next one is stored. Neither bound is
//! reached by the benchmark workloads: at seed 42 the busiest slot holds
//! 53 plans in one period on the paper's deployment and 57 under chaos
//! faults, whose rate bursts push the largest predicted count to 686.
//!
//! Invalidation: per-app demand curves depend only on the immutable
//! [`AppSpec`](adainf_apps::AppSpec)s, so they live for the
//! scheduler's lifetime. Time plans depend on the period's RI-DAG
//! and refreshed accuracy tables, so [`DecisionCache::start_period`]
//! drops them at every period boundary (and thus on every drift-impact
//! change). The scheduler calls it at the top of its period hook, where
//! no plan is looked up, so the finished period's plans (a few
//! thousand) are freed before the boundary's drift build allocates.

use crate::timealloc::TimePlan;
use std::borrow::Cow;
use std::fmt::Debug;

/// Request counts at or past this bound are computed on every lookup
/// rather than given a slot: the slot vectors grow to the largest count
/// seen, and the bound keeps one outlier count from growing them
/// without limit.
pub(crate) const DENSE_REQUESTS: u32 = 4096;

/// Time plans one slot holds before it is cleared. Clearing never
/// changes a decision — only costs recomputes — and is deterministic
/// for a deterministic key stream. Allocations on the centi-GPU grid
/// take about a hundred distinct fractions, so the list stays short
/// enough to scan.
pub(crate) const SLOT_PLANS: usize = 128;

/// Memoisation tables for the per-session scheduling searches.
#[derive(Clone, Debug, Default)]
pub struct DecisionCache {
    /// `slots[app][requests]`: every decision memoised for that pair.
    slots: Vec<Vec<Slot>>,
    counts: Counts,
}

/// The memoised decisions of one `(app, requests)` pair.
#[derive(Clone, Debug, Default)]
struct Slot {
    /// SLO-demand fraction (§3.3.1 inversion). Valid for the
    /// scheduler's lifetime.
    demand: Option<f64>,
    /// Pool-independent §3.3.2 time plans by gpu-fraction bits, in the
    /// order they were first asked for. Cleared every period.
    plans: Vec<(u64, TimePlan)>,
}

/// Lookup counters, shared by every table.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    /// Lookups answered from a slot.
    hits: u64,
    /// Lookups that ran the underlying search.
    misses: u64,
    /// Plans dropped by clearing a full slot.
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

/// Every field of a [`TimePlan`] is an integer or a `SimDuration`
/// (integer microseconds), so its derived `PartialEq` is bit equality.
impl BitEq for TimePlan {
    fn bit_eq(&self, other: &Self) -> bool {
        self == other
    }
}

/// Under `strict-invariants`, reruns the search behind a hit and
/// asserts the fresh value is bit-equal to the stored one.
fn check_hit<V: BitEq + Debug>(key: impl Debug, stored: &V, compute: impl FnOnce() -> V) {
    if cfg!(feature = "strict-invariants") {
        let fresh = compute();
        assert!(
            fresh.bit_eq(stored),
            "strict-invariants: cache hit for {key:?} replayed {stored:?}, \
             but the search now gives {fresh:?}"
        );
    }
}

/// The slot of `(app, requests)`, growing the app's vector to reach
/// it; `None` for a count at or past [`DENSE_REQUESTS`].
fn find_slot(slots: &mut Vec<Vec<Slot>>, app: usize, requests: u32) -> Option<&mut Slot> {
    if requests >= DENSE_REQUESTS {
        return None;
    }
    if slots.len() <= app {
        slots.resize_with(app + 1, Vec::new);
    }
    let row = &mut slots[app];
    let r = requests as usize;
    if row.len() <= r {
        // Exactly to the new largest count: request counts are sparse
        // past the typical range, and doubling would reserve slots no
        // count reaches.
        row.reserve_exact(r + 1 - row.len());
        row.resize_with(r + 1, Slot::default);
    }
    Some(&mut row[r])
}

impl DecisionCache {
    /// Drops every table whose inputs change at a period boundary,
    /// freeing the plans' storage.
    pub fn start_period(&mut self) {
        for slot in self.slots.iter_mut().flatten() {
            slot.plans = Vec::new();
        }
    }

    /// `(hits, misses, evictions)` over every table so far.
    pub(crate) fn stats(&self) -> (u64, u64, u64) {
        (self.counts.hits, self.counts.misses, self.counts.evictions)
    }

    /// Memoised SLO-demand fraction for `(app, requests)`: answered from
    /// its slot, or computed and stored.
    pub fn demand(&mut self, app: usize, requests: u32, compute: impl FnOnce() -> f64) -> f64 {
        let DecisionCache { slots, counts } = self;
        let Some(slot) = find_slot(slots, app, requests) else {
            counts.misses += 1;
            return compute();
        };
        match slot.demand {
            Some(stored) => {
                counts.hits += 1;
                check_hit((app, requests), &stored, compute);
                stored
            }
            None => {
                counts.misses += 1;
                *slot.demand.insert(compute())
            }
        }
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

    /// Memoised §3.3.2 time plan for `(app, requests, gpu)`. Borrows the
    /// stored plan (owns it only past `DENSE_REQUESTS`); the caller
    /// clamps the proto slices against the live pool state.
    pub fn plan(
        &mut self,
        app: usize,
        requests: u32,
        gpu: f64,
        compute: impl FnOnce() -> TimePlan,
    ) -> Cow<'_, TimePlan> {
        Self::check_key(gpu);
        let bits = gpu.to_bits();
        let DecisionCache { slots, counts } = self;
        let Some(slot) = find_slot(slots, app, requests) else {
            counts.misses += 1;
            return Cow::Owned(compute());
        };
        let plans = &mut slot.plans;
        if let Some(i) = plans.iter().position(|(k, _)| *k == bits) {
            counts.hits += 1;
            let stored = &plans[i].1;
            check_hit((app, requests, gpu), stored, compute);
            return Cow::Borrowed(stored);
        }
        counts.misses += 1;
        if plans.len() >= SLOT_PLANS {
            counts.evictions += plans.len() as u64;
            plans.clear();
        }
        plans.push((bits, compute()));
        Cow::Borrowed(&plans[plans.len() - 1].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plan told apart by its batch.
    fn plan_with(batch: u32) -> TimePlan {
        TimePlan {
            cuts: vec![2],
            batch,
            proto: Vec::new(),
        }
    }

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
    fn start_period_drops_plans_keeps_demand() {
        let mut cache = DecisionCache::default();
        cache.plan(0, 16, 0.25, || plan_with(8));
        cache.demand(0, 16, || 0.3);
        assert_eq!(cache.stats(), (0, 2, 0));
        cache.start_period();
        assert_eq!(
            cache.plan(0, 16, 0.25, || plan_with(4)).batch,
            4,
            "plans must not survive the period boundary"
        );
        assert_eq!(cache.stats(), (0, 3, 0));
        assert_eq!(cache.demand(0, 16, || 0.3), 0.3);
        assert_eq!(cache.stats(), (1, 3, 0), "demand values are spec-lifetime");
    }

    #[cfg(feature = "strict-invariants")]
    #[test]
    #[should_panic(expected = "non-finite gpu fraction")]
    fn strict_rejects_nan_keys() {
        let mut cache = DecisionCache::default();
        cache.plan(0, 16, f64::NAN, || plan_with(8));
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

    #[cfg(feature = "strict-invariants")]
    #[test]
    #[should_panic(expected = "but the search now gives")]
    fn strict_recomputes_every_plan_hit() {
        let mut cache = DecisionCache::default();
        cache.plan(0, 16, 0.25, || plan_with(8));
        cache.plan(0, 16, 0.25, || plan_with(4));
    }

    #[test]
    fn requests_past_the_dense_bound_compute_uncached() {
        let mut cache = DecisionCache::default();
        let far = DENSE_REQUESTS + 7;
        for round in 1..=2u64 {
            assert_eq!(cache.plan(1, far, 0.25, || plan_with(8)).batch, 8);
            assert_eq!(cache.demand(1, far, || 0.5), 0.5);
            assert_eq!(cache.stats(), (0, 2 * round, 0), "every lookup computes");
        }
        assert!(cache.slots.iter().all(Vec::is_empty), "no slot was grown");
        // The last count below the bound still gets a slot.
        let edge = DENSE_REQUESTS - 1;
        cache.plan(1, edge, 0.25, || plan_with(8));
        assert_eq!(cache.plan(1, edge, 0.25, || plan_with(8)).batch, 8);
        assert_eq!(cache.stats(), (1, 5, 0));
        assert_eq!(cache.slots[1].len(), DENSE_REQUESTS as usize);
    }

    #[test]
    fn full_slot_is_cleared_deterministically() {
        let mut cache = DecisionCache::default();
        let gpu = |i: usize| (i + 1) as f64 / 1000.0;
        let fill = |cache: &mut DecisionCache| {
            for i in 0..SLOT_PLANS {
                cache.plan(0, 16, gpu(i), || plan_with(i as u32));
            }
        };
        fill(&mut cache);
        let n = SLOT_PLANS as u64;
        assert_eq!(cache.stats(), (0, n, 0));
        // A full slot still answers every stored key.
        assert_eq!(cache.plan(0, 16, gpu(5), || plan_with(5)).batch, 5);
        assert_eq!(cache.stats(), (1, n, 0));
        // One more key clears the slot, then is stored alone.
        let next = cache.plan(0, 16, 0.5, || plan_with(999)).batch;
        assert_eq!(next, 999);
        assert_eq!(cache.stats(), (1, n + 1, n));
        assert_eq!(cache.slots[0][16].plans.len(), 1);
        assert_eq!(cache.plan(0, 16, 0.5, || plan_with(999)).batch, 999);
        assert_eq!(cache.plan(0, 16, gpu(5), || plan_with(5)).batch, 5);
        assert_eq!(cache.stats(), (2, n + 2, n), "the cleared key recomputes");
        // Other slots are untouched, and the same stream clears the same way.
        let mut again = DecisionCache::default();
        fill(&mut again);
        again.plan(0, 16, gpu(5), || plan_with(5));
        again.plan(0, 16, 0.5, || plan_with(999));
        again.plan(0, 16, 0.5, || plan_with(999));
        again.plan(0, 16, gpu(5), || plan_with(5));
        assert_eq!(again.stats(), cache.stats());
        let keys = |c: &DecisionCache| -> Vec<u64> {
            c.slots[0][16].plans.iter().map(|(k, _)| *k).collect()
        };
        assert_eq!(keys(&again), keys(&cache));
    }

    #[test]
    fn distinct_gpu_bits_are_distinct_keys() {
        let mut cache = DecisionCache::default();
        cache.plan(0, 16, 0.25, || plan_with(8));
        let b = cache.plan(0, 16, 0.250000001, || plan_with(4)).batch;
        assert_eq!(b, 4, "nearby fractions must not alias");
        assert_eq!(cache.stats(), (0, 2, 0));
        assert_eq!(cache.plan(0, 16, 0.25, || plan_with(8)).batch, 8);
        assert_eq!(cache.stats(), (1, 2, 0));
        // Slots are per (app, requests): the same fraction elsewhere
        // is its own key.
        assert_eq!(cache.plan(0, 17, 0.25, || plan_with(2)).batch, 2);
        assert_eq!(cache.plan(1, 16, 0.25, || plan_with(1)).batch, 1);
        assert_eq!(cache.stats(), (1, 4, 0));
    }
}
