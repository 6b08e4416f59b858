//! AdaInf's tunables and the variant a run is (§5.2).

/// Which configuration of AdaInf a run is: the full system, one of the
/// six ablations of §5.2 (each removes one mechanism), or one of the
/// two no-retraining references of Figs 4a and 7.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Every mechanism on.
    AdaInf,
    /// AdaInf/I: spare time divided evenly instead of by impact.
    I,
    /// AdaInf/U: the RI-DAG is built once and never updated.
    U,
    /// AdaInf/S: GPU space divided evenly among the session's jobs
    /// instead of by SLO-derived demand.
    S,
    /// AdaInf/E: always the full structure.
    E,
    /// AdaInf/M1: per-request execution, no eager intermediate eviction.
    M1,
    /// AdaInf/M2: LRU eviction instead of priority + PIN.
    M2,
    /// Early-exit structures without any retraining ("Early-w/o", Fig 7).
    EarlyWithoutRetraining,
    /// Full structures without any retraining, the "without retraining"
    /// reference of Fig 4a.
    NoRetraining,
}

impl Variant {
    /// The variant's display name.
    pub fn name(self) -> &'static str {
        match self {
            Variant::AdaInf => "AdaInf",
            Variant::I => "AdaInf/I",
            Variant::U => "AdaInf/U",
            Variant::S => "AdaInf/S",
            Variant::E => "AdaInf/E",
            Variant::M1 => "AdaInf/M1",
            Variant::M2 => "AdaInf/M2",
            Variant::EarlyWithoutRetraining => "Early-w/o",
            Variant::NoRetraining => "No-retrain",
        }
    }
}

/// Configuration of the AdaInf scheduler. Defaults are the paper's (§4):
/// `A_m` within `[80 %, 95 %]`, `S` starting at 3 %. The detector's
/// fixed parameters — 3 % increments of `S`, stability after 4
/// unchanged rounds, a 0.05 detection margin — are constants of
/// [`crate::drift_detect`], and its 8 PCA components
/// [`crate::drift_artifacts::PCA_COMPONENTS`]. A retraining slice runs
/// [`crate::timealloc::RETRAIN_EPOCHS`] epochs. The eviction score's
/// weight `α` (§3.4.2) belongs to the GPU memory,
/// [`adainf_gpusim::MemoryConfig::alpha`].
#[derive(Clone, Debug)]
pub struct AdaInfConfig {
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
    /// The variant run: AdaInf itself, a §5.2 ablation or a
    /// no-retraining reference.
    pub variant: Variant,
}

impl Default for AdaInfConfig {
    fn default() -> Self {
        AdaInfConfig {
            a_m: 0.9,
            s_init: 0.03,
            cpu_offload_threshold: 0,
            predicted_latency: false,
            predictor_warmup: 64,
            drift_workers: 0,
            variant: Variant::AdaInf,
        }
    }
}

impl From<Variant> for AdaInfConfig {
    /// The default tunables, run as `variant`.
    fn from(variant: Variant) -> Self {
        AdaInfConfig {
            variant,
            ..AdaInfConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AdaInfConfig::default();
        assert_eq!(adainf_gpusim::MemoryConfig::default().alpha, 0.4);
        assert_eq!(c.s_init, 0.03);
        assert_eq!(crate::drift_detect::S_STEP, 0.03);
        assert_eq!(crate::drift_detect::STABLE_ROUNDS, 4);
        assert_eq!(c.variant, Variant::AdaInf);
    }

    #[test]
    fn variant_names() {
        let names = [
            (Variant::AdaInf, "AdaInf"),
            (Variant::I, "AdaInf/I"),
            (Variant::U, "AdaInf/U"),
            (Variant::S, "AdaInf/S"),
            (Variant::E, "AdaInf/E"),
            (Variant::M1, "AdaInf/M1"),
            (Variant::M2, "AdaInf/M2"),
            (Variant::EarlyWithoutRetraining, "Early-w/o"),
            (Variant::NoRetraining, "No-retrain"),
        ];
        for (variant, name) in names {
            assert_eq!(AdaInfConfig::from(variant).variant.name(), name);
        }
    }
}
