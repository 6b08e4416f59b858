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
    /// report's calibration columns read its forecasts.
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
    // the run's forecast error by session quartile
    // (`RunMetrics::predicted_rel_err_quartile`) shows the
    // re-convergence.
    Scenario {
        name: "device-stall-predicted",
        spec: FaultSpec::device_stall,
        finish_floor: 0.30,
        predicted: true,
    },
];

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

    /// Whether the mean finish rate of `m`, this scenario's run, holds
    /// the documented floor.
    pub fn holds(&self, m: &RunMetrics) -> bool {
        m.mean_finish_rate() >= self.finish_floor
    }
}

/// Renders each scenario's run as a row of a markdown table.
pub fn report(runs: &[(&Scenario, &RunMetrics)]) -> String {
    let mut out = String::new();
    out.push_str(
        "| scenario | finish | floor | ok | shed | degraded | fault sessions | storms | storm evictions | starved | pred MAE µs | headroom viol |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|---|---|\n");
    for (s, m) in runs {
        out.push_str(&format!(
            "| {} | {:.4} | {:.4} | {} | {} | {} | {} | {} | {} | {} | {:.1} | {:.4} |\n",
            s.name,
            m.mean_finish_rate(),
            s.finish_floor,
            if s.holds(m) { "yes" } else { "NO" },
            m.shed_requests,
            m.degraded_jobs,
            m.fault_sessions,
            m.eviction_storms,
            m.storm_evictions,
            m.starved_samples,
            m.predicted_latency_mae_us(),
            m.headroom_violation_rate(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adainf_simcore::SimTime;

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
    fn report_renders_one_row_per_scenario() {
        let scenario = &SCENARIOS[0];
        let mut m = RunMetrics::new("AdaInf".into(), &[2]);
        let md = report(&[(scenario, &m)]);
        assert_eq!(md.lines().count(), 3);
        assert!(md.contains("| control |"));
        // A floor prints at the finish rate's precision: a 0.999 floor
        // does not round up to 1 next to a failing 0.9985.
        let tight = Scenario {
            finish_floor: 0.999,
            ..*scenario
        };
        m.finish.record(SimTime::from_secs(1), 1997.0, 2000.0);
        assert!(!tight.holds(&m));
        assert!(report(&[(&tight, &m)]).contains("| control | 0.9985 | 0.9990 | NO |"));
    }
}
