//! AdaInf tunables and ablation switches.

/// Configuration of the AdaInf scheduler. Defaults are the paper's (§4):
/// `α = 0.4`, `A_m` within `[80 %, 95 %]`, `S` starting at 3 %. The
/// detector's fixed parameters — 3 % increments of `S`, stability after
/// 4 unchanged rounds, a 0.05 detection margin — are constants of
/// [`crate::drift_detect`], and its 8 PCA components
/// [`crate::drift_artifacts::PCA_COMPONENTS`]. A retraining slice runs
/// [`crate::timealloc::RETRAIN_EPOCHS`] epochs.
#[derive(Clone, Debug)]
pub struct AdaInfConfig {
    /// Weight of the SLO term in the eviction score `S_c` (§3.4.2).
    pub alpha: f64,
    /// Accuracy threshold `A_m` for early-exit structure selection
    /// (§3.3.2), as a fraction of the model's *initial* accuracy rather
    /// than an absolute value, so it adapts across tasks of different
    /// difficulty. 0.9 ⇒ an exit must retain ≥ 90 % of `I_m`.
    pub a_m: f64,
    /// Initial fraction `S` of new samples inspected by the drift
    /// detector (§3.2).
    pub s_init: f64,
    /// §6 extension: sessions predicting at most this many requests are
    /// served on the host CPU, freeing GPU space (0 disables).
    pub cpu_offload_threshold: u32,
    /// Admit against *learned* latency forecasts instead of the analytic
    /// inputs: an online per-app ridge regressor (see [`crate::predict`])
    /// streams an observation from every completed job, and once warm its
    /// predicted `fixed`/`per_batch` replace the analytic values inside
    /// the SLO-aware admission decision. Default **off**: the pristine
    /// goldens pin the analytic path, and calibration metrics
    /// (`predicted_latency_mae_us`, `headroom_violation_rate`) are only
    /// collected when this is on. Turning it on does not perturb
    /// fault-free behaviour — admission still only runs inside fault
    /// windows — so pristine runs stay bit-identical either way.
    pub predicted_latency: bool,
    /// Observations each app's latency model needs before its forecasts
    /// are used; below this the admission path falls back to the
    /// analytic inputs bit-exactly.
    pub predictor_warmup: u32,
    /// Width of the period-boundary drift artifact build fan-out
    /// (0 = the host's available parallelism). Exposed so the
    /// determinism tests can pin exact worker counts — one worker is
    /// their sequential reference; results never depend on it.
    pub drift_workers: usize,

    // ---- Ablation switches (§5.2) ----
    /// `false` = AdaInf/I: spare time divided evenly instead of by impact.
    pub use_impact_degrees: bool,
    /// `false` = AdaInf/U: the RI-DAG is built once and never updated.
    pub update_dag_each_period: bool,
    /// `false` = AdaInf/S: GPU space divided evenly among the session's
    /// jobs instead of by SLO-derived demand.
    pub slo_aware_space: bool,
    /// `false` = AdaInf/E: always use the full structure.
    pub use_early_exit: bool,
    /// `false` = AdaInf/M1: per-request execution, no eager intermediate
    /// eviction.
    pub maximize_memory_usage: bool,
    /// `false` = AdaInf/M2: LRU eviction instead of priority + PIN.
    pub priority_eviction: bool,
    /// `false` disables retraining entirely (the "Early-w/o" reference
    /// of Fig 7).
    pub retraining_enabled: bool,
}

impl Default for AdaInfConfig {
    fn default() -> Self {
        AdaInfConfig {
            alpha: 0.4,
            a_m: 0.9,
            s_init: 0.03,
            cpu_offload_threshold: 0,
            predicted_latency: false,
            predictor_warmup: 64,
            drift_workers: 0,
            use_impact_degrees: true,
            update_dag_each_period: true,
            slo_aware_space: true,
            use_early_exit: true,
            maximize_memory_usage: true,
            priority_eviction: true,
            retraining_enabled: true,
        }
    }
}

impl AdaInfConfig {
    /// AdaInf/I — even spare-time division.
    pub fn variant_i() -> Self {
        AdaInfConfig {
            use_impact_degrees: false,
            ..AdaInfConfig::default()
        }
    }

    /// AdaInf/U — RI-DAG built once, impact degrees never updated.
    pub fn variant_u() -> Self {
        AdaInfConfig {
            update_dag_each_period: false,
            ..AdaInfConfig::default()
        }
    }

    /// AdaInf/S — even GPU space division.
    pub fn variant_s() -> Self {
        AdaInfConfig {
            slo_aware_space: false,
            ..AdaInfConfig::default()
        }
    }

    /// AdaInf/E — full structures only.
    pub fn variant_e() -> Self {
        AdaInfConfig {
            use_early_exit: false,
            ..AdaInfConfig::default()
        }
    }

    /// AdaInf/M1 — no layer-grouped execution / eager eviction.
    pub fn variant_m1() -> Self {
        AdaInfConfig {
            maximize_memory_usage: false,
            ..AdaInfConfig::default()
        }
    }

    /// AdaInf/M2 — LRU eviction.
    pub fn variant_m2() -> Self {
        AdaInfConfig {
            priority_eviction: false,
            ..AdaInfConfig::default()
        }
    }

    /// Early-exit structure without any retraining ("Early-w/o", Fig 7).
    pub fn early_without_retraining() -> Self {
        AdaInfConfig {
            retraining_enabled: false,
            ..AdaInfConfig::default()
        }
    }

    /// Full structure, no retraining — the "without retraining"
    /// reference of Fig 4a.
    pub fn no_retraining() -> Self {
        AdaInfConfig {
            retraining_enabled: false,
            use_early_exit: false,
            ..AdaInfConfig::default()
        }
    }

    /// The variant's display name.
    pub fn variant_name(&self) -> &'static str {
        if !self.retraining_enabled {
            if self.use_early_exit {
                "Early-w/o"
            } else {
                "No-retrain"
            }
        } else if !self.use_impact_degrees {
            "AdaInf/I"
        } else if !self.update_dag_each_period {
            "AdaInf/U"
        } else if !self.slo_aware_space {
            "AdaInf/S"
        } else if !self.use_early_exit {
            "AdaInf/E"
        } else if !self.maximize_memory_usage {
            "AdaInf/M1"
        } else if !self.priority_eviction {
            "AdaInf/M2"
        } else {
            "AdaInf"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AdaInfConfig::default();
        assert_eq!(c.alpha, 0.4);
        assert_eq!(c.s_init, 0.03);
        assert_eq!(crate::drift_detect::S_STEP, 0.03);
        assert_eq!(crate::drift_detect::STABLE_ROUNDS, 4);
        assert_eq!(c.variant_name(), "AdaInf");
    }

    #[test]
    fn variant_names() {
        assert_eq!(AdaInfConfig::variant_i().variant_name(), "AdaInf/I");
        assert_eq!(AdaInfConfig::variant_u().variant_name(), "AdaInf/U");
        assert_eq!(AdaInfConfig::variant_s().variant_name(), "AdaInf/S");
        assert_eq!(AdaInfConfig::variant_e().variant_name(), "AdaInf/E");
        assert_eq!(AdaInfConfig::variant_m1().variant_name(), "AdaInf/M1");
        assert_eq!(AdaInfConfig::variant_m2().variant_name(), "AdaInf/M2");
        assert_eq!(
            AdaInfConfig::early_without_retraining().variant_name(),
            "Early-w/o"
        );
    }
}
