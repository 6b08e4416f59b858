//! Graceful-degradation decisions for overloaded sessions.
//!
//! AdaInf's time allocation (§3.3.2) assumes the planned work fits the
//! SLO; under injected faults (request bursts, device stalls, memory
//! pressure — see `adainf-driftgen`'s `faultgen`) it does not, and a
//! scheduler that keeps executing doomed plans wastes GPU time making
//! every job late. This module holds the pure decision functions the
//! harness applies on impaired sessions:
//!
//! * **SLO-aware admission control** ([`admit_within_slo`]) — extend the
//!   serial-queue frame-shedding logic to overload: admit the request
//!   prefix whose batches — including a final *partial* batch, whose
//!   service time is proportionally shorter — still finish inside the
//!   SLO, and shed the rest up front, freeing their service time. The
//!   `fixed`/`per_batch` inputs are analytic by default; with
//!   [`AdaInfConfig::predicted_latency`](crate::AdaInfConfig) on, the
//!   harness feeds learned forecasts from [`crate::predict`] instead.
//! * **Inference-only fallback** ([`should_shed_retraining`]) — when the
//!   spare time a plan reserved for retraining has collapsed, drop the
//!   retraining slices (their samples stay in the pool for calmer
//!   sessions) rather than blow the inference SLO.
//! * **Bounded reload retry** ([`ReloadState`]) — under memory pressure,
//!   evicted parameters are re-fetched at most
//!   [`DegradePolicy::max_reload_retries`] consecutive times; after
//!   that the app serves in a degraded steady state instead of
//!   thrashing the PCIe bus every session.
//!
//! All functions are deterministic and allocation-free; the harness
//! calls them only on sessions with an active fault window, so runs
//! without faults are bit-identical to runs without the machinery.

use adainf_simcore::SimDuration;

/// Knobs of the degradation behaviour. `Copy` so it can ride inside the
/// harness run configuration's functional updates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Shed requests that cannot finish within the SLO instead of
    /// running batches that are doomed to miss.
    pub admission_control: bool,
    /// Drop planned retraining slices when spare time collapses.
    pub inference_only_under_pressure: bool,
    /// Consecutive failed parameter reloads tolerated under memory
    /// pressure before the app gives up and serves degraded.
    pub max_reload_retries: u32,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy {
            admission_control: true,
            inference_only_under_pressure: true,
            max_reload_retries: 3,
        }
    }
}

/// Outcome of admission control for one job: `admitted + shed`
/// reconstructs the arrivals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Admission {
    /// Requests admitted for service.
    pub admitted: u32,
    /// Requests shed up front (counted as SLO misses, but consuming no
    /// service time).
    pub shed: u32,
}

/// Admits the largest request prefix whose sequential batches all
/// finish within the SLO.
///
/// `fixed` is the latency already committed before the first batch
/// completes (queueing wait + retraining time + reload communication);
/// `per_batch` the service time of one *full* batch of `batch`
/// requests. Since batches complete sequentially, full batch `i`
/// finishes at `fixed + per_batch·(i+1)`: `⌊(slo − fixed) / per_batch⌋`
/// whole batches fit. A final partial batch of `k < batch` requests
/// takes only `per_batch·k/batch`, so after the whole batches the
/// remaining budget admits up to `⌊rem·batch/per_batch⌋` tail requests
/// — admission is *not* rounded down to whole batches.
///
/// Degenerate profiles: when `fixed` alone exceeds the SLO everything
/// is shed, and a zero `per_batch` (a profile whose service time
/// rounds to nothing) admits everything that survives the `fixed`
/// check instead of being silently clamped to 1 µs.
pub fn admit_within_slo(
    n: u32,
    batch: u32,
    per_batch: SimDuration,
    fixed: SimDuration,
    slo: SimDuration,
) -> Admission {
    if n == 0 {
        return Admission {
            admitted: 0,
            shed: 0,
        };
    }
    if fixed > slo {
        // Even a zero-service job finishes late: shed everything.
        return Admission {
            admitted: 0,
            shed: n,
        };
    }
    let budget_us = slo.saturating_sub(fixed).as_micros();
    let per_batch_us = per_batch.as_micros();
    if per_batch_us == 0 {
        // Zero service time per batch: every request fits.
        return Admission {
            admitted: n,
            shed: 0,
        };
    }
    let batch = batch.max(1) as u64;
    let whole_batches = budget_us / per_batch_us;
    let rem_us = budget_us - whole_batches * per_batch_us;
    // Partial tail: k requests of a final short batch fit when
    // per_batch·k/batch ≤ rem, i.e. k ≤ rem·batch/per_batch (and
    // k < batch by construction, since rem < per_batch).
    let tail = rem_us.saturating_mul(batch) / per_batch_us;
    let cap = whole_batches.saturating_mul(batch).saturating_add(tail);
    let admitted = (n as u64).min(cap) as u32;
    Admission {
        admitted,
        shed: n - admitted,
    }
}

/// True when running the planned retraining ahead of inference would
/// push the job past its SLO — the spare time the plan assumed has
/// collapsed, so the session falls back to inference-only serving.
pub fn should_shed_retraining(
    fixed: SimDuration,
    retrain: SimDuration,
    inference: SimDuration,
    slo: SimDuration,
) -> bool {
    retrain > SimDuration::ZERO && fixed + retrain + inference > slo
}

/// Per-application bounded-retry bookkeeping for reloading evicted
/// content under memory pressure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReloadState {
    attempts: u32,
    gave_up: bool,
}

impl ReloadState {
    /// True once the retry budget is exhausted: the app serves degraded
    /// until the pressure window ends.
    pub fn gave_up(&self) -> bool {
        self.gave_up
    }

    /// Consecutive failures so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Records one failed reload (the parameters were evicted again
    /// before the next session). Returns `false` exactly when *this*
    /// failure exhausts the budget of `max_retries` — the give-up
    /// transition edge, so callers counting give-ups count each one
    /// once. Failures recorded after the budget is already exhausted
    /// (callers normally gate on [`Self::gave_up`] and never do this)
    /// are not a new transition and return `true`; the degraded state
    /// itself is queried through [`Self::gave_up`], not the return
    /// value.
    pub fn record_failure(&mut self, max_retries: u32) -> bool {
        let already_gave_up = self.gave_up;
        self.attempts = self.attempts.saturating_add(1);
        if self.attempts > max_retries {
            self.gave_up = true;
        }
        !self.gave_up || already_gave_up
    }

    /// Records a reload that stuck (parameters still resident): the
    /// consecutive-failure count resets.
    pub fn record_success(&mut self) {
        *self = ReloadState::default();
    }

    /// Clears all state (pressure window closed).
    pub fn reset(&mut self) {
        *self = ReloadState::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    #[test]
    fn admission_is_exact_at_batch_edges() {
        // 10 ms per batch of 16, 100 ms budget after 20 ms fixed →
        // 10 whole batches fit exactly → 160 requests, no tail room.
        let adm = admit_within_slo(200, 16, ms(10), ms(20), ms(120));
        assert_eq!(adm.admitted, 160);
        assert_eq!(adm.shed, 40);
        // One microsecond short: 9 whole batches (144) plus the partial
        // tail that fits the 9999 µs remainder — ⌊9999·16/10000⌋ = 15
        // requests at 625 µs each.
        let adm2 = admit_within_slo(
            200,
            16,
            ms(10),
            ms(20),
            ms(120) - SimDuration::from_micros(1),
        );
        assert_eq!(adm2.admitted, 159);
        assert_eq!(adm2.shed, 41);
    }

    #[test]
    fn admission_admits_the_partial_tail_that_fits() {
        // 10 ms per batch of 16, 95 ms budget → 9 whole batches (144)
        // plus ⌊5000·16/10000⌋ = 8 tail requests.
        let adm = admit_within_slo(200, 16, ms(10), ms(0), ms(95));
        assert_eq!(adm.admitted, 152);
        assert_eq!(adm.shed, 48);
        // The arrivals may end inside the tail: 150 arrivals all fit.
        let adm2 = admit_within_slo(150, 16, ms(10), ms(0), ms(95));
        assert_eq!(adm2.admitted, 150);
        assert_eq!(adm2.shed, 0);
        // A budget below one full batch still admits the prefix that
        // fits: ⌊2500·16/10000⌋ = 4 requests.
        let adm3 = admit_within_slo(200, 16, ms(10), ms(0), SimDuration::from_micros(2500));
        assert_eq!(adm3.admitted, 4);
    }

    #[test]
    fn admission_boundary_budgets_are_exact() {
        // Tail request boundary: k requests fit iff per_batch·k/batch ≤
        // rem. With per_batch 16 ms, batch 16 → 1 ms per request.
        let adm = admit_within_slo(40, 16, ms(16), ms(0), ms(19));
        assert_eq!(adm.admitted, 19, "exactly 1 whole batch + 3 tail");
        let adm2 = admit_within_slo(40, 16, ms(16), ms(0), ms(19) - SimDuration::from_micros(1));
        assert_eq!(adm2.admitted, 18, "1 µs short drops one tail request");
        // Fixed exactly at the SLO: zero budget, everything sheds.
        let adm3 = admit_within_slo(40, 16, ms(10), ms(400), ms(400));
        assert_eq!((adm3.admitted, adm3.shed), (0, 40));
    }

    #[test]
    fn zero_per_batch_profiles_admit_within_fixed() {
        // A degenerate profile whose batch service time rounds to zero:
        // everything the fixed check admits fits (no silent 1 µs clamp).
        let adm = admit_within_slo(200, 16, SimDuration::ZERO, ms(10), ms(400));
        assert_eq!((adm.admitted, adm.shed), (200, 0));
        // Zero budget left but also zero service time: still all admitted.
        let adm2 = admit_within_slo(200, 16, SimDuration::ZERO, ms(400), ms(400));
        assert_eq!((adm2.admitted, adm2.shed), (200, 0));
        // Fixed alone late: all shed, even with zero service time.
        let adm3 = admit_within_slo(
            200,
            16,
            SimDuration::ZERO,
            ms(400) + SimDuration::from_micros(1),
            ms(400),
        );
        assert_eq!((adm3.admitted, adm3.shed), (0, 200));
    }

    #[test]
    fn admission_passes_through_when_everything_fits() {
        let adm = admit_within_slo(40, 16, ms(10), ms(0), ms(400));
        assert_eq!(adm.admitted, 40);
        assert_eq!(adm.shed, 0);
    }

    #[test]
    fn admission_sheds_everything_when_fixed_exceeds_slo() {
        let adm = admit_within_slo(40, 16, ms(10), ms(500), ms(400));
        assert_eq!(adm.admitted, 0);
        assert_eq!(adm.shed, 40);
    }

    #[test]
    fn zero_arrivals_admit_nothing() {
        let adm = admit_within_slo(0, 16, ms(10), ms(0), ms(400));
        assert_eq!((adm.admitted, adm.shed), (0, 0));
    }

    #[test]
    fn retraining_sheds_only_when_it_breaks_the_slo() {
        assert!(!should_shed_retraining(ms(0), ms(100), ms(200), ms(400)));
        assert!(should_shed_retraining(ms(0), ms(300), ms(200), ms(400)));
        // No retraining planned → nothing to shed even when late.
        assert!(!should_shed_retraining(ms(300), ms(0), ms(200), ms(400)));
    }

    #[test]
    fn reload_retry_is_bounded_and_resets_on_success() {
        let mut s = ReloadState::default();
        assert!(s.record_failure(3));
        assert!(s.record_failure(3));
        s.record_success();
        assert_eq!(s.attempts(), 0);
        // Three tolerated failures, the fourth gives up.
        assert!(s.record_failure(3));
        assert!(s.record_failure(3));
        assert!(s.record_failure(3));
        assert!(!s.record_failure(3));
        assert!(s.gave_up());
        s.reset();
        assert!(!s.gave_up());
    }

    #[test]
    fn post_give_up_failures_are_not_new_transitions() {
        let mut s = ReloadState::default();
        // One tolerated failure within the budget of one retry...
        assert!(s.record_failure(1));
        // ...then the second failure exhausts it: the one `false`.
        assert!(!s.record_failure(1));
        assert!(s.gave_up());
        // Failures recorded after give-up stay given-up but are not the
        // exhausting transition — a caller counting give-ups by the
        // `false` return counts exactly one.
        for _ in 0..3 {
            assert!(s.record_failure(1));
            assert!(s.gave_up());
        }
        assert_eq!(s.attempts(), 5);
    }
}
