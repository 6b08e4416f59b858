//! Offline profiling tables.
//!
//! AdaInf "performs offline profiling to find an application's per-batch
//! inference latency … for a set of request batch sizes when it is
//! allocated with an entire GPU" (§3.3.1), the same for every early-exit
//! structure and for retraining settings (§3.3.2), and profiles the
//! communication behaviour of its memory strategies so scheduling can
//! account for them (§3.4). The [`Profiler`] is the in-simulator stand-in:
//! it queries the GPU latency model for compute time (what `nvprof` on an
//! idle V100 would measure) and carries **communication inflation
//! factors** per memory strategy ([`CommProfile`]). The factors are typed
//! calibrations, not measurements: no figure regenerates them.
//! [`measure_inflation`] measures a factor with the detailed
//! layer-granularity execution engine, but only tests call it, and its
//! values do not reproduce the typed ones.

use crate::regression::PowerLawScaler;
use adainf_gpusim::exec::{run_concurrent, total_ms, TaskExec, TaskKind};
use adainf_gpusim::{
    EvictionPolicyKind, ExecMode, GpuMemory, LatencyModel, MemoryConfig, StructureCost,
};
use adainf_simcore::{SimDuration, SimTime};

/// Multiplicative latency inflation by CPU–GPU communication for each
/// (execution mode, eviction policy) pair, under the default multi-model
/// memory pressure.
///
/// The defaults are typed calibrations of the paper's observations: the
/// baseline combination (per-request execution + LRU) spends ~24 % of
/// inference latency on communication (Obs. 7 ⇒ inflation ≈
/// 1/(1−0.24) ≈ 1.32); each AdaInf strategy claws part of that back, in
/// Fig 22's order (M1 is worth slightly more than M2). Nothing derives
/// them from the detailed engine; [`measure_inflation`] is called only
/// by tests.
#[derive(Clone, Copy, Debug)]
pub struct CommProfile {
    /// LayerGrouped + Priority (full AdaInf).
    pub grouped_priority: f64,
    /// LayerGrouped + LRU (AdaInf/M2).
    pub grouped_lru: f64,
    /// PerRequest + Priority (AdaInf/M1).
    pub per_request_priority: f64,
    /// PerRequest + LRU (baselines).
    pub per_request_lru: f64,
}

impl Default for CommProfile {
    fn default() -> Self {
        CommProfile {
            grouped_priority: 1.12,
            grouped_lru: 1.20,
            per_request_priority: 1.24,
            per_request_lru: 1.32,
        }
    }
}

impl CommProfile {
    /// The inflation factor for a strategy combination.
    pub fn inflation(&self, mode: ExecMode, policy: EvictionPolicyKind) -> f64 {
        match (mode, policy) {
            (ExecMode::LayerGrouped, EvictionPolicyKind::Priority) => self.grouped_priority,
            (ExecMode::LayerGrouped, EvictionPolicyKind::Lru) => self.grouped_lru,
            (ExecMode::PerRequest, EvictionPolicyKind::Priority) => self.per_request_priority,
            (ExecMode::PerRequest, EvictionPolicyKind::Lru) => self.per_request_lru,
        }
    }
}

/// The profiling-table facade used by all schedulers.
#[derive(Clone, Debug)]
pub struct Profiler {
    /// The GPU latency law (compute component), queried directly:
    /// `worst_case` and `optimal_batch` at `g = 1.0` are the full-GPU
    /// profile of §3.3.1 step 1 (profiling runs alone on an idle GPU),
    /// at a fraction `g` the re-adjusted batch of §3.3.1 step 2 and
    /// §3.3.2; `samples_within` and `training_latency` price the
    /// retraining settings of §3.3.2.
    pub latency: LatencyModel,
    /// Communication inflation per memory strategy.
    pub comm: CommProfile,
    /// Power-law scaler fitted to the reference structure's profile,
    /// used for fraction scaling/inversion (§3.3.1).
    pub scaler: PowerLawScaler,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new(LatencyModel::default(), CommProfile::default())
    }
}

impl Profiler {
    /// Builds the profiler, fitting the regression scaler from profiled
    /// points of the reference structure (as AdaInf fits its non-linear
    /// model from offline profiles).
    pub fn new(latency: LatencyModel, comm: CommProfile) -> Self {
        let (flops_per_sample, activation_bytes) = latency.reference();
        let reference = StructureCost {
            flops_per_sample,
            activation_bytes,
            param_bytes: 3.0e7,
        };
        let points: Vec<(f64, f64)> = [1.0, 0.75, 0.5, 0.25, 0.125]
            .iter()
            .map(|&g| {
                (
                    g,
                    latency
                        .per_batch_inference(&reference, 16, g)
                        .as_millis_f64(),
                )
            })
            .collect();
        let scaler = PowerLawScaler::fit(&points);
        Profiler {
            latency,
            comm,
            scaler,
        }
    }

    /// End-to-end inference latency estimate for a job: compute at the
    /// fraction times the communication inflation of the strategy pair.
    pub fn inference_latency(
        &self,
        cost: &StructureCost,
        n: u32,
        batch: u32,
        g: f64,
        mode: ExecMode,
        policy: EvictionPolicyKind,
    ) -> SimDuration {
        self.latency
            .worst_case(cost, n, batch, g)
            .mul_f64(self.comm.inflation(mode, policy))
    }

    /// The retraining batch size that maximises samples trained per unit
    /// time at fraction `g` (part of the §3.3.2 retraining-setting
    /// selection: batch size is one of the profiled setting dimensions).
    pub fn best_train_batch(&self, cost: &StructureCost, g: f64) -> u32 {
        use adainf_gpusim::latency::BATCH_CANDIDATES;
        // Evaluate each candidate's rate exactly once (a comparator
        // passed to `max_by` re-derives both sides at every comparison).
        // `>=` keeps the last of equal maxima, matching `max_by`.
        let mut best = 32u32;
        let mut best_rate = f64::NEG_INFINITY;
        for &b in BATCH_CANDIDATES.iter() {
            let rate = b as f64
                / self
                    .latency
                    .per_batch_training(cost, b, g)
                    .as_millis_f64()
                    .max(1e-9);
            if rate >= best_rate {
                best = b;
                best_rate = rate;
            }
        }
        best
    }
}

/// Measures the communication inflation factor of a strategy pair with
/// the detailed engine: `apps` concurrent parameter-plus-activation-heavy
/// inference tasks contend for `capacity` bytes of GPU memory. Returns
/// `(compute + comm) / compute`.
pub fn measure_inflation(
    mode: ExecMode,
    policy: EvictionPolicyKind,
    apps: u32,
    capacity: u64,
) -> f64 {
    let latency = LatencyModel::default();
    let mut tasks = Vec::new();
    for a in 0..apps {
        // A 12-layer, parameter-heavy structure per app, matching the
        // compressed backbones of the zoo.
        let layers: Vec<adainf_gpusim::exec::LayerSpec> = (0..12)
            .map(|_| adainf_gpusim::exec::LayerSpec {
                flops: 1.0e7,
                param_bytes: 900_000,
                activation_bytes: 120_000,
            })
            .collect();
        tasks.push(TaskExec {
            app: a,
            model: 0,
            job: a as u64 + 1,
            kind: TaskKind::Inference { requests: 32 },
            layers,
            batch: 16,
            frac: 1.0 / apps as f64,
            slo_ms: 400.0 + 25.0 * a as f64,
            input_from: None,
            start: SimTime::ZERO,
        });
    }
    let mut mem = GpuMemory::new(MemoryConfig {
        gpu_capacity: capacity,
        pin_capacity: capacity / 4,
        policy,
        ..MemoryConfig::default()
    });
    let (compute, comm) = total_ms(&run_concurrent(&tasks, &latency, &mut mem, mode));
    if compute <= 0.0 {
        1.0
    } else {
        (compute + comm) / compute
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> StructureCost {
        StructureCost {
            flops_per_sample: 1.5e8,
            activation_bytes: 2.0e6,
            param_bytes: 3.0e7,
        }
    }

    #[test]
    fn comm_profile_ordering_matches_fig22() {
        let c = CommProfile::default();
        assert!(c.grouped_priority < c.grouped_lru);
        assert!(c.grouped_lru < c.per_request_priority);
        assert!(c.per_request_priority < c.per_request_lru);
        // Baseline comm share ≈ 24 %.
        let share = 1.0 - 1.0 / c.per_request_lru;
        assert!((share - 0.24).abs() < 0.02, "share {share}");
    }

    #[test]
    fn profiler_scaler_tracks_latency_model() {
        let p = Profiler::default();
        let full = p
            .latency
            .worst_case(&reference(), 64, 16, 1.0)
            .as_millis_f64();
        let predicted = p.scaler.scale(full, 0.5);
        let actual = p
            .latency
            .worst_case(&reference(), 64, 16, 0.5)
            .as_millis_f64();
        // Regression error exists (the knee shifts) but stays bounded.
        assert!(
            (predicted - actual).abs() / actual < 0.8,
            "predicted {predicted} actual {actual}"
        );
    }

    #[test]
    fn inference_latency_includes_inflation() {
        let p = Profiler::default();
        let bare = p.latency.worst_case(&reference(), 32, 16, 0.5);
        let adainf = p.inference_latency(
            &reference(),
            32,
            16,
            0.5,
            ExecMode::LayerGrouped,
            EvictionPolicyKind::Priority,
        );
        let baseline = p.inference_latency(
            &reference(),
            32,
            16,
            0.5,
            ExecMode::PerRequest,
            EvictionPolicyKind::Lru,
        );
        assert!(adainf > bare);
        assert!(baseline > adainf);
    }

    #[test]
    fn measured_inflation_reproduces_observation7() {
        // Under contention, the baseline pair must lose noticeably more
        // to communication than the AdaInf pair.
        let capacity = 9_000_000;
        let baseline =
            measure_inflation(ExecMode::PerRequest, EvictionPolicyKind::Lru, 3, capacity);
        let adainf = measure_inflation(
            ExecMode::LayerGrouped,
            EvictionPolicyKind::Priority,
            3,
            capacity,
        );
        assert!(
            baseline > adainf + 0.05,
            "baseline {baseline} vs adainf {adainf}"
        );
        assert!(baseline > 1.1, "baseline inflation {baseline}");
    }
}
