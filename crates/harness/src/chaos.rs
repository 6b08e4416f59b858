//! The chaos experiment suite: named fault scenarios run against a
//! scheduler, each with a documented SLO-violation bound.
//!
//! Every scenario injects one seeded fault family (see
//! `adainf-driftgen`'s `faultgen`) into an otherwise standard run and
//! checks that graceful degradation holds the mean finish rate above
//! the scenario's floor. The floors are deliberately loose bounds on
//! *collapse*, not regression fences: they state that under each fault
//! the serving loop sheds/degrades instead of falling over, while the
//! pristine-run goldens (tests/golden.rs) pin exact behaviour. The
//! suite runs in CI under `strict-invariants`, so every injection point
//! also exercises the simulator's runtime asserts.

use crate::metrics::RunMetrics;
use crate::sim::{ChaosConfig, Method, RunConfig};
use adainf_core::AdaInfConfig;
use adainf_driftgen::FaultSpec;
use adainf_simcore::SimDuration;

/// One named scenario: a fault spec plus its finish-rate floor.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Scenario name (matches the fault family it injects).
    pub name: &'static str,
    /// Fault spec, parameterised by the suite seed.
    pub spec: fn(u64) -> FaultSpec,
    /// Documented lower bound on the mean finish rate: the scenario
    /// *violates its bound* — and the suite fails — below this.
    pub finish_floor: f64,
    /// Run with `AdaInfConfig::predicted_latency` on: admission decides
    /// from the online latency predictor's forecasts once warm, and the
    /// outcome carries the calibration columns.
    pub predicted: bool,
}

/// The scenario catalogue, with the floors documented in
/// EXPERIMENTS.md. A pristine control run (no faults) rides along at
/// the front so collapse is measured against the same configuration.
pub const SCENARIOS: [Scenario; 6] = [
    Scenario {
        name: "control",
        spec: FaultSpec::none,
        finish_floor: 0.60,
        predicted: false,
    },
    Scenario {
        name: "rate-burst",
        spec: FaultSpec::rate_burst,
        finish_floor: 0.35,
        predicted: false,
    },
    Scenario {
        name: "memory-pressure",
        spec: FaultSpec::memory_pressure,
        finish_floor: 0.35,
        predicted: false,
    },
    Scenario {
        name: "pool-starvation",
        spec: FaultSpec::pool_starvation,
        finish_floor: 0.50,
        predicted: false,
    },
    Scenario {
        name: "device-stall",
        spec: FaultSpec::device_stall,
        finish_floor: 0.30,
        predicted: false,
    },
    // The same stall windows with predicted-latency admission: the
    // stall is a regime change the online model must track — service
    // times inflate, forecasts lag, then the forgetting factor pulls
    // them back. The floor documents that admission on a temporarily
    // mis-calibrated model still degrades instead of collapsing, and
    // the outcome's calibration columns show the re-convergence.
    Scenario {
        name: "device-stall-predicted",
        spec: FaultSpec::device_stall,
        finish_floor: 0.30,
        predicted: true,
    },
];

/// Outcome of one scenario run.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// Scenario name.
    pub name: String,
    /// Mean finish rate over the run.
    pub finish_rate: f64,
    /// The scenario's documented floor.
    pub finish_floor: f64,
    /// Whether the finish rate held its floor.
    pub passed: bool,
    /// Requests shed by admission control.
    pub shed_requests: u64,
    /// Jobs served degraded after reload give-up.
    pub degraded_jobs: u64,
    /// Sessions inside an active fault window.
    pub fault_sessions: u64,
    /// Pressure windows opened.
    pub eviction_storms: u64,
    /// Evictions + drops those storms forced.
    pub storm_evictions: u64,
    /// Pool samples destroyed by starvation.
    pub starved_samples: u64,
    /// Mean |forecast − outcome| of the latency predictor, µs (0 when
    /// the scenario ran without one).
    pub predicted_latency_mae_us: f64,
    /// Fraction of predicted-to-fit jobs that blew their SLO anyway.
    pub headroom_violation_rate: f64,
    /// Mean *relative* forecast error over the run's first and last
    /// session quartiles — re-convergence evidence: the stall inflates
    /// early error, the forgetting factor pulls the tail back down.
    pub predicted_rel_err_first_q: f64,
    /// See [`Self::predicted_rel_err_first_q`].
    pub predicted_rel_err_last_q: f64,
}

/// The one seed the suite runs at (CI's bound gate, tests, EXPERIMENTS.md).
pub const SEED: u64 = 11;

impl Scenario {
    /// The scenario's run at `seed`: a short horizon (chaos laws guarantee
    /// ≥ 2 windows per family in 60 s), a small app set, the AdaInf
    /// scheduler and the scenario's faults (none for the control).
    pub fn config(&self, seed: u64) -> RunConfig {
        let spec = (self.spec)(seed);
        RunConfig {
            seed,
            duration: SimDuration::from_secs(60),
            num_gpus: 4,
            num_apps: 3,
            base_rate: 4000.0,
            pool_size: 1000,
            method: Method::AdaInf(AdaInfConfig {
                predicted_latency: self.predicted,
                ..AdaInfConfig::default()
            }),
            chaos: (!spec.is_empty()).then(|| ChaosConfig::scenario(spec)),
            ..RunConfig::default()
        }
    }
}

/// Evaluates `scenario`'s bound on the metrics of its run.
pub fn outcome(scenario: &Scenario, m: &RunMetrics) -> ChaosOutcome {
    let finish_rate = m.mean_finish_rate();
    ChaosOutcome {
        name: scenario.name.to_string(),
        finish_rate,
        finish_floor: scenario.finish_floor,
        passed: finish_rate >= scenario.finish_floor,
        shed_requests: m.shed_requests,
        degraded_jobs: m.degraded_jobs,
        fault_sessions: m.fault_sessions,
        eviction_storms: m.eviction_storms,
        storm_evictions: m.storm_evictions,
        starved_samples: m.starved_samples,
        predicted_latency_mae_us: m.predicted_latency_mae_us(),
        headroom_violation_rate: m.headroom_violation_rate(),
        predicted_rel_err_first_q: m.predicted_rel_err_quartile(0),
        predicted_rel_err_last_q: m.predicted_rel_err_quartile(3),
    }
}

/// Renders suite outcomes as a markdown table.
pub fn report(outcomes: &[ChaosOutcome]) -> String {
    let mut out = String::new();
    out.push_str(
        "| scenario | finish | floor | ok | shed | degraded | fault sessions | storms | storm evictions | starved | pred MAE µs | headroom viol |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|---|---|\n");
    for o in outcomes {
        out.push_str(&format!(
            "| {} | {:.4} | {:.4} | {} | {} | {} | {} | {} | {} | {} | {:.1} | {:.4} |\n",
            o.name,
            o.finish_rate,
            o.finish_floor,
            if o.passed { "yes" } else { "NO" },
            o.shed_requests,
            o.degraded_jobs,
            o.fault_sessions,
            o.eviction_storms,
            o.storm_evictions,
            o.starved_samples,
            o.predicted_latency_mae_us,
            o.headroom_violation_rate,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_floors_sane() {
        for (i, a) in SCENARIOS.iter().enumerate() {
            assert!(a.finish_floor > 0.0 && a.finish_floor < 1.0);
            for b in &SCENARIOS[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn report_renders_one_row_per_outcome() {
        let scenario = &SCENARIOS[0];
        let m = RunMetrics::new("AdaInf".into(), &[2]);
        let o = outcome(scenario, &m);
        let md = report(&[o]);
        assert_eq!(md.lines().count(), 3);
        assert!(md.contains("| control |"));
        // A floor prints at the finish rate's precision: a 0.999 floor
        // does not round up to 1 next to a failing 0.9985.
        let tight = ChaosOutcome {
            finish_rate: 0.9985,
            finish_floor: 0.999,
            passed: false,
            ..outcome(scenario, &m)
        };
        assert!(report(&[tight]).contains("| control | 0.9985 | 0.9990 | NO |"));
    }
}
