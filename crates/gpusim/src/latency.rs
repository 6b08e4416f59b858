//! GPU compute-latency model.
//!
//! The model reproduces the qualitative laws of §2.3 (Obs. 5–6):
//!
//! * Per-batch latency grows **sublinearly** in batch size while the batch
//!   fits the allocated compute space (parallelism amortises work), then
//!   **superlinearly** past a saturation knee (spill/serialisation).
//!   Worst-case latency `ceil(N/b) · per_batch(b)` therefore has an
//!   interior minimum — the optimal request batch size (Fig 8).
//! * The knee scales with the allocated GPU fraction (optimal batch
//!   4/8/16/16 at 25/50/75/100 % space — Fig 9) and with the structure's
//!   compute density (lighter early-exit structures saturate later —
//!   Fig 10).
//! * Effective throughput scales as `fraction^δ` with `δ < 1`: small MPS
//!   partitions lose some efficiency, as observed for real MPS.
//!
//! Retraining cost per sample is a constant expansion of inference cost
//! (forward + backward + update).
//!
//! The absolute constants are *calibrations*, not measurements — see
//! DESIGN.md. The shape constants were chosen so the knee sits at batch 16
//! for the surveillance application's full structure on a whole V100-class
//! GPU, matching Fig 8.

use adainf_simcore::SimDuration;

/// The compute/memory footprint of one model structure (full or
/// early-exit), as used by the latency model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StructureCost {
    /// Forward-pass FLOPs per sample.
    pub flops_per_sample: f64,
    /// Peak per-sample activation footprint in bytes (drives the memory
    /// pressure a batch creates).
    pub activation_bytes: f64,
    /// Total parameter bytes of the structure.
    pub param_bytes: f64,
}

impl StructureCost {
    /// Adds two costs (used to aggregate a DAG's structures).
    pub fn plus(self, other: StructureCost) -> StructureCost {
        StructureCost {
            flops_per_sample: self.flops_per_sample + other.flops_per_sample,
            activation_bytes: self.activation_bytes + other.activation_bytes,
            param_bytes: self.param_bytes + other.param_bytes,
        }
    }

    /// The all-zero cost.
    pub fn zero() -> StructureCost {
        StructureCost {
            flops_per_sample: 0.0,
            activation_bytes: 0.0,
            param_bytes: 0.0,
        }
    }
}

/// Candidate request batch sizes considered by every scheduler.
pub const BATCH_CANDIDATES: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The compute-latency law of one GPU class. Its calibration constants
/// are fixed: `Default` sets them, and [`Self::with_stall`] derives a
/// stalled device's law from them.
///
/// ```
/// use adainf_gpusim::{LatencyModel, StructureCost};
/// let model = LatencyModel::default();
/// let surveillance = StructureCost {
///     flops_per_sample: 1.5e8,
///     activation_bytes: 2.0e6,
///     param_bytes: 3.0e7,
/// };
/// // Fig 8: the optimal request batch size at a full GPU is 16.
/// let (batch, _) = model.optimal_batch(&surveillance, 64, 1.0);
/// assert_eq!(batch, 16);
/// // Fig 9: at 25 % of a GPU the optimum shrinks to 4.
/// assert_eq!(model.optimal_batch(&surveillance, 64, 0.25).0, 4);
/// ```
#[derive(Clone, Debug)]
pub struct LatencyModel {
    /// Effective serving throughput of a whole GPU, FLOPs/s.
    throughput: f64,
    /// Exponent δ of `fraction^δ` throughput scaling (MPS inefficiency).
    space_exponent: f64,
    /// Sublinear batch-cost exponent below the knee.
    batch_alpha: f64,
    /// Superlinear spill exponent above the knee.
    spill_beta: f64,
    /// Fixed per-batch overhead, µs (kernel launches etc.). Launch
    /// latency does not scale with the MPS partition size, so this is
    /// flat in the fraction.
    overhead_us: f64,
    /// Knee batch size for the reference structure on a whole GPU; the
    /// knee scales linearly with the GPU fraction (Fig 9).
    knee_ref: f64,
    /// FLOPs/sample of the reference structure (surveillance full DAG).
    flops_ref: f64,
    /// Activation bytes/sample of the reference structure.
    act_ref: f64,
    /// Retraining cost per sample relative to inference. Training runs
    /// forward + backward + optimiser at full input resolution (inference
    /// serves the compressed/downsampled path), so the per-sample ratio
    /// is far above the textbook 3×; calibrated so bulk-retraining a
    /// period's pool takes the ~20 s the paper reports (Fig 7b).
    pub(crate) train_expansion: f64,
    /// Effective CPU inference throughput, FLOPs/s (§6 "DNN Execution in
    /// CPUs": low-rate jobs can be served on the host CPU, freeing GPU).
    cpu_throughput: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            throughput: 4.0e12,
            space_exponent: 0.85,
            batch_alpha: 0.75,
            spill_beta: 1.5,
            overhead_us: 350.0,
            knee_ref: 16.0,
            flops_ref: 1.5e8,
            act_ref: 2.0e6,
            train_expansion: 9.0,
            cpu_throughput: 1.2e11,
        }
    }
}

impl LatencyModel {
    /// The reference structure's forward FLOPs and peak activation
    /// bytes per sample (the surveillance app's full DAG): the structure
    /// whose saturation knee sits at batch 16 on a whole GPU.
    pub fn reference(&self) -> (f64, f64) {
        (self.flops_ref, self.act_ref)
    }

    /// Saturation knee (in samples) for `structure` at GPU fraction
    /// `frac ∈ (0, 1]`. Heavier structures (more FLOPs, bigger
    /// activations) saturate earlier; more space pushes the knee out.
    pub fn knee(&self, structure: &StructureCost, frac: f64) -> f64 {
        let frac = frac.clamp(1e-4, 1.0);
        let flop_scale = (self.flops_ref / structure.flops_per_sample.max(1.0)).sqrt();
        let act_scale = (self.act_ref / structure.activation_bytes.max(1.0)).sqrt();
        (self.knee_ref * frac * flop_scale * act_scale).max(1.0)
    }

    /// Batch cost in "sample units": sublinear below the knee, superlinear
    /// above it. `cost(b)/b` is the per-request efficiency.
    fn batch_cost_units(&self, batch: u32, knee: f64) -> f64 {
        let b = batch.max(1) as f64;
        if b <= knee {
            b.powf(self.batch_alpha)
        } else {
            knee.powf(self.batch_alpha) + (b - knee).powf(self.spill_beta)
        }
    }

    /// Per-batch **compute** latency (no CPU–GPU communication) of an
    /// inference batch of `batch` requests through `structure` at GPU
    /// fraction `frac`.
    pub fn per_batch_inference(
        &self,
        structure: &StructureCost,
        batch: u32,
        frac: f64,
    ) -> SimDuration {
        let frac = frac.clamp(1e-4, 1.0);
        let knee = self.knee(structure, frac);
        let units = self.batch_cost_units(batch, knee);
        let compute_s =
            structure.flops_per_sample * units / (self.throughput * frac.powf(self.space_exponent));
        SimDuration::from_millis_f64(compute_s * 1e3 + self.overhead_us / 1e3)
    }

    /// Worst-case latency (§2.3): time to run all `ceil(n/batch)` batches
    /// of a job sequentially.
    pub fn worst_case(
        &self,
        structure: &StructureCost,
        n_requests: u32,
        batch: u32,
        frac: f64,
    ) -> SimDuration {
        if n_requests == 0 {
            return SimDuration::ZERO;
        }
        let batches = n_requests.div_ceil(batch.max(1)) as u64;
        self.per_batch_inference(structure, batch, frac) * batches
    }

    /// Per-batch retraining latency for a batch of `batch` samples.
    pub fn per_batch_training(
        &self,
        structure: &StructureCost,
        batch: u32,
        frac: f64,
    ) -> SimDuration {
        self.per_batch_inference(structure, batch, frac)
            .mul_f64(self.train_expansion)
    }

    /// Retraining latency for a whole setting: `samples` samples in
    /// batches of `batch`, for `epochs` passes.
    pub fn training_latency(
        &self,
        structure: &StructureCost,
        samples: u32,
        batch: u32,
        epochs: u32,
        frac: f64,
    ) -> SimDuration {
        if samples == 0 || epochs == 0 {
            return SimDuration::ZERO;
        }
        let batches = samples.div_ceil(batch.max(1)) as u64;
        self.per_batch_training(structure, batch, frac) * batches * epochs as u64
    }

    /// Number of retraining samples that fit in `budget` at the given
    /// setting — the **exact** inverse of [`Self::training_latency`] for
    /// one epoch at batch granularity. One-epoch latency depends on the
    /// sample count only through `ceil(n/batch)`, so the maximal count
    /// that fits is a whole number of batches:
    /// `⌊budget/per_batch⌋ · batch` fits, and any count one batch larger
    /// does not (see `samples_within_is_exact_inverse_at_batch_edges`).
    pub fn samples_within(
        &self,
        structure: &StructureCost,
        batch: u32,
        frac: f64,
        budget: SimDuration,
    ) -> u32 {
        let per_batch = self.per_batch_training(structure, batch, frac);
        if per_batch == SimDuration::ZERO {
            return 0;
        }
        let batches = budget.as_micros() / per_batch.as_micros();
        // A huge budget over a featherweight setting can exceed u32
        // batches; saturate instead of silently truncating (the old
        // `as u32` cast wrapped, returning a tiny sample budget).
        u32::try_from(batches)
            .unwrap_or(u32::MAX)
            .saturating_mul(batch.max(1))
    }

    /// A copy of this law for a transiently stalled device — the chaos
    /// suite's injection point for device-stall faults. A stall slows
    /// compute and kernel launches alike, so every GPU latency this
    /// model produces scales by `factor` (clamped to ≥ 1).
    pub fn with_stall(&self, factor: f64) -> LatencyModel {
        let f = factor.max(1.0);
        LatencyModel {
            throughput: self.throughput / f,
            overhead_us: self.overhead_us * f,
            ..self.clone()
        }
    }

    /// CPU inference latency for a job of `n` requests (§6): CPUs gain
    /// nothing from batching, so the job runs request by request at the
    /// CPU's effective throughput.
    pub fn cpu_inference(&self, structure: &StructureCost, n: u32) -> SimDuration {
        if n == 0 {
            return SimDuration::ZERO;
        }
        let per_request_ms = structure.flops_per_sample / self.cpu_throughput * 1e3 + 0.05;
        SimDuration::from_millis_f64(per_request_ms * n as f64)
    }

    /// The batch size among [`BATCH_CANDIDATES`] minimising worst-case
    /// latency for a job of `n_requests`, together with that latency.
    pub fn optimal_batch(
        &self,
        structure: &StructureCost,
        n_requests: u32,
        frac: f64,
    ) -> (u32, SimDuration) {
        let n = n_requests.max(1);
        BATCH_CANDIDATES
            .iter()
            .map(|&b| (b, self.worst_case(structure, n, b, frac)))
            .min_by_key(|(_, wc)| wc.as_micros())
            // simlint: allow(no-unwrap-in-lib) — BATCH_CANDIDATES is a non-empty const
            .expect("candidates are non-empty")
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
    fn per_batch_latency_increases_with_batch() {
        let m = LatencyModel::default();
        let s = reference();
        let mut prev = SimDuration::ZERO;
        for &b in &BATCH_CANDIDATES {
            let l = m.per_batch_inference(&s, b, 1.0);
            assert!(l > prev, "batch {b}: {l:?} <= {prev:?}");
            prev = l;
        }
    }

    #[test]
    fn optimal_batch_is_16_at_full_gpu_for_reference() {
        // Fig 8: the reference structure has optimal batch 16 on a whole
        // GPU with a job of several batches.
        let m = LatencyModel::default();
        let (b, _) = m.optimal_batch(&reference(), 64, 1.0);
        assert_eq!(b, 16);
    }

    #[test]
    fn optimal_batch_shrinks_with_space() {
        // Fig 9: optimal batch 4/8/16/16 at 25/50/75/100 % GPU space.
        let m = LatencyModel::default();
        let s = reference();
        let opt = |frac: f64| m.optimal_batch(&s, 64, frac).0;
        assert_eq!(opt(0.25), 4);
        assert_eq!(opt(0.5), 8);
        assert_eq!(opt(0.75), 16);
        assert_eq!(opt(1.0), 16);
    }

    #[test]
    fn lighter_structures_have_larger_optimal_batch() {
        // Fig 10: early-exit (lighter) structures saturate later.
        let m = LatencyModel::default();
        let light = StructureCost {
            flops_per_sample: 4.0e7,
            activation_bytes: 6.0e5,
            param_bytes: 1.0e7,
        };
        let (b_full, _) = m.optimal_batch(&reference(), 128, 1.0);
        let (b_light, _) = m.optimal_batch(&light, 128, 1.0);
        assert!(b_light > b_full, "light {b_light} vs full {b_full}");
    }

    #[test]
    fn activation_heavy_structure_has_smaller_optimal_batch() {
        // The "optimal batch 4" structure of Fig 10: moderate FLOPs but a
        // large per-sample activation footprint.
        let m = LatencyModel::default();
        let act_heavy = StructureCost {
            flops_per_sample: 6.0e8,
            activation_bytes: 4.0e7,
            param_bytes: 2.0e7,
        };
        let (b, _) = m.optimal_batch(&act_heavy, 64, 1.0);
        assert!(b <= 4, "activation-heavy opt batch {b}");
    }

    #[test]
    fn less_space_means_more_latency() {
        let m = LatencyModel::default();
        let s = reference();
        let full = m.per_batch_inference(&s, 4, 1.0);
        let half = m.per_batch_inference(&s, 4, 0.5);
        let tiny = m.per_batch_inference(&s, 4, 0.05);
        assert!(half > full);
        assert!(tiny > half);
        // δ < 1: at a batch below both knees, halving space less than
        // doubles latency.
        assert!(
            half.as_micros() < full.as_micros() * 2,
            "half {half:?} vs full {full:?}"
        );
    }

    #[test]
    fn training_is_more_expensive_and_invertible() {
        let m = LatencyModel::default();
        let s = reference();
        let inf = m.per_batch_inference(&s, 16, 0.5);
        let tr = m.per_batch_training(&s, 16, 0.5);
        assert!(tr > inf * 5);
        let lat = m.training_latency(&s, 160, 16, 1, 0.5);
        assert_eq!(lat, tr * 10);
        // samples_within inverts exactly at batch granularity.
        let n = m.samples_within(&s, 16, 0.5, lat);
        assert_eq!(n, 160);
    }

    #[test]
    fn samples_within_is_exact_inverse_at_batch_edges() {
        // Property: for any setting, the returned count fits the budget
        // and one more batch does not — `samples_within` is the exact
        // inverse of one-epoch `training_latency` at batch granularity.
        let m = LatencyModel::default();
        let structures = [
            reference(),
            StructureCost {
                flops_per_sample: 4.0e7,
                activation_bytes: 6.0e5,
                param_bytes: 1.0e7,
            },
        ];
        for s in &structures {
            for &batch in &BATCH_CANDIDATES {
                for frac in [0.25, 0.5, 1.0] {
                    let per = m.per_batch_training(s, batch, frac);
                    for budget in [
                        per.mul_f64(0.4),
                        per,
                        per * 3 + SimDuration::from_micros(per.as_micros() / 2),
                        per * 57,
                        SimDuration::from_secs(2),
                    ] {
                        let n = m.samples_within(s, batch, frac, budget);
                        assert!(
                            m.training_latency(s, n, batch, 1, frac) <= budget,
                            "batch {batch} frac {frac}: n={n} overruns {budget:?}"
                        );
                        assert!(
                            m.training_latency(s, n + batch, batch, 1, frac) > budget,
                            "batch {batch} frac {frac}: n={n} not maximal for {budget:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn samples_within_saturates_instead_of_wrapping() {
        // A near-infinite budget must saturate, not wrap the u32 batch
        // count into a tiny sample allowance.
        let m = LatencyModel::default();
        let n = m.samples_within(
            &reference(),
            64,
            1.0,
            SimDuration::from_secs(u64::MAX / 2_000_000),
        );
        assert_eq!(n, u32::MAX);
    }

    #[test]
    fn stalled_device_scales_every_latency() {
        let m = LatencyModel::default();
        let stalled = m.with_stall(4.0);
        let s = reference();
        for &batch in &BATCH_CANDIDATES {
            let base = m.per_batch_inference(&s, batch, 0.5).as_millis_f64();
            let slow = stalled.per_batch_inference(&s, batch, 0.5).as_millis_f64();
            let ratio = slow / base;
            // Durations quantise to whole microseconds, so small batches
            // carry a little rounding noise in the ratio.
            assert!(
                (ratio - 4.0).abs() < 2e-2,
                "batch {batch}: stall ratio {ratio}"
            );
        }
        // Factors below 1 are clamped: a "stall" cannot speed things up.
        let clamped = m.with_stall(0.25);
        assert_eq!(
            clamped.per_batch_inference(&s, 16, 1.0),
            m.per_batch_inference(&s, 16, 1.0)
        );
    }

    #[test]
    fn worst_case_zero_requests_is_zero() {
        let m = LatencyModel::default();
        assert_eq!(m.worst_case(&reference(), 0, 16, 1.0), SimDuration::ZERO);
    }

    #[test]
    fn knee_monotone_in_fraction() {
        let m = LatencyModel::default();
        let s = reference();
        assert!(m.knee(&s, 1.0) > m.knee(&s, 0.5));
        assert!(m.knee(&s, 0.5) > m.knee(&s, 0.1));
        assert!(m.knee(&s, 0.001) >= 1.0);
    }
}
