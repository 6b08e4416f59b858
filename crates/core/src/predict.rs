//! Online per-application latency prediction for SLO-headroom admission.
//!
//! AdaInf's admission control (see [`crate::degrade`]) decides from the
//! analytic [`LatencyModel`]-derived batch times the harness hands it.
//! Production routers admit on *learned* latency forecasts instead — the
//! llm-d "predicted-latency based load balancing" design: per-target
//! latency predictors trained online from streaming observations, plus a
//! positive-headroom scorer that routes only where the forecast fits the
//! request's SLO. This module is that design recast as pure
//! deterministic Rust:
//!
//! * [`RlsModel`] — an incremental ridge regressor (recursive least
//!   squares with a forgetting factor, Sherman–Morrison form) over a
//!   fixed feature vector: request count, batch size, GPU space
//!   fraction (plus its power-law inverse, the same non-linear scaling
//!   shape [`crate::regression`] fits), the cut structure's compute
//!   cost, retraining load and queueing wait, with
//!   `batch · flops / gpu`-style interaction terms and the *profiled*
//!   per-batch estimate as a calibration-regression baseline (see
//!   [`LatencyFeatures::new`]). Two targets share one gain computation:
//!   the per-batch service time and the fixed pre-batch overhead.
//! * [`LatencyPredictor`] — one [`RlsModel`] per application plus a
//!   warm-up gate: before `warmup` observations have streamed in, it
//!   predicts nothing and callers fall back to the analytic inputs
//!   bit-exactly (enforced by the golden suite).
//! * [`PredictedLatency::headroom_us`] — the SLO-headroom score
//!   `slo − predicted_latency`: positive headroom admits, and the
//!   harness compares forecast against outcome per job
//!   (`predicted_latency_mae_us`, `headroom_violation_rate`).
//!
//! # Determinism
//!
//! The predictor is a pure fold over the observation stream: weights
//! and covariance are `f64` state updated in arrival order with a fixed
//! operation order, no ambient randomness, no wall clock, no
//! collections with nondeterministic iteration. Two runs that feed the
//! same observations in the same order hold bit-identical state — so a
//! fixed-seed simulation stays bit-deterministic with the predictor on.
//! (Unlike the PCA path there is no randomized initialisation to key
//! off `Prng::split` child streams; determinism here needs no RNG at
//! all.)
//!
//! `rls_predict` and `rls_update` are on the per-session hot path and
//! registered in simlint's `[hot]` zero-alloc registry: they operate on
//! fixed-size arrays only.
//!
//! [`LatencyModel`]: ../../adainf_gpusim/struct.LatencyModel.html

/// Dimension of the feature vector (bias included).
pub const FEATURES: usize = 9;

/// Features of one job, identical at predict and observe time.
///
/// All components are scaled to O(1) magnitudes so the regularised
/// covariance stays well-conditioned; the scaling constants are fixed,
/// documented parts of the model (changing them is a re-baseline).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyFeatures {
    /// The scaled feature vector, bias first.
    pub x: [f64; FEATURES],
}

impl LatencyFeatures {
    /// Builds the feature vector of one job.
    ///
    /// * `requests` — request count of the job (queue depth of the
    ///   session's arrivals).
    /// * `batch` — request batch size the plan chose.
    /// * `gpu` — allocated GPU space fraction (in GPU units).
    /// * `structure_flops` — per-sample FLOPs of the job's cut
    ///   structure (the structure-cut signal, in compute terms).
    /// * `retrain_samples` — retraining samples the job carries.
    /// * `wait_us` — serial queueing wait already accrued, µs.
    /// * `analytic_per_batch_us` — the *profiled* per-batch estimate
    ///   for this shape (the offline latency law × the plan's
    ///   communication inflation), µs. This is the calibration-
    ///   regression baseline: the profile already carries the batching
    ///   knee and spill non-linearities a linear model can't learn, so
    ///   RLS only has to fit the online correction on top of it. The
    ///   estimate must be the *fault-free* law — transient device
    ///   stalls are exactly the unobservable regime change the
    ///   forgetting factor exists to track.
    ///
    /// Besides the raw terms, two physically-motivated interactions
    /// carry most of the signal: batch service time scales as
    /// `batch · flops / gpu` and retraining time as
    /// `samples · flops / gpu` — a linear model over the raw terms
    /// alone cannot separate jobs that differ in several of them at
    /// once, which is exactly what drift-diversified workloads do.
    pub fn new(
        requests: u32,
        batch: u32,
        gpu: f64,
        structure_flops: f64,
        retrain_samples: f64,
        wait_us: f64,
        analytic_per_batch_us: f64,
    ) -> Self {
        let g = gpu.max(1.0 / 64.0);
        LatencyFeatures {
            x: [
                1.0,
                requests as f64 / 64.0,
                batch as f64 / 64.0,
                g,
                // Power-law inverse-space term: the same non-linear
                // latency-vs-fraction shape `regression::PowerLawScaler`
                // fits offline, at a fixed reference exponent.
                1.0 / g,
                // Per-batch compute: batch · flops / gpu.
                batch as f64 * structure_flops / (g * 1e9),
                // Retraining compute: samples · flops / gpu.
                retrain_samples * structure_flops / (g * 1e12),
                wait_us / 1e5,
                // Profiled per-batch baseline (calibration regression).
                analytic_per_batch_us / 1e3,
            ],
        }
    }
}

/// A latency forecast for one job shape.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PredictedLatency {
    /// Predicted service time of one request batch, µs.
    pub per_batch_us: f64,
    /// Predicted fixed pre-batch overhead (queueing wait + retraining
    /// + reload communication), µs.
    pub fixed_us: f64,
}

impl PredictedLatency {
    /// Predicted completion time of the job's last batch, µs.
    pub fn total_us(&self, n_batches: u32) -> f64 {
        self.fixed_us + self.per_batch_us * n_batches as f64
    }

    /// SLO-headroom score `slo − predicted_latency`, µs. Positive
    /// headroom means the forecast says every batch finishes inside the
    /// SLO; the admission path treats non-negative headroom as "admit".
    pub fn headroom_us(&self, slo_us: f64, n_batches: u32) -> f64 {
        slo_us - self.total_us(n_batches)
    }
}

/// Initial covariance scale: `P₀ = (1/λ)·I` with ridge weight
/// `λ = 1e-2`, i.e. a weakly-informative prior centred on zero weights.
const P0: f64 = 100.0;

/// RLS forgetting factor: past observations decay with this rate, so
/// the model tracks regime changes (a device-stall window inflating
/// service times) instead of freezing on the long-run average.
const FORGET: f64 = 0.995;

/// Covariance leak toward the prior `P₀·I` per update. Plain RLS with
/// forgetting inflates `P` by `1/λf` every step along feature
/// directions the data never excites (a constant cut, the wait term of
/// never-serial jobs) — exponential blow-up that eventually turns a
/// tiny feature wiggle into an unbounded weight swing. Bleeding every
/// entry toward the prior bounds the unexcited eigenvalues at
/// `≈ ε·P₀ / (ε − (1/λf − 1))` (≈ 2·P₀ at these constants) while the
/// filter stays permanently adaptive.
const LEAK: f64 = 0.01;

/// Incremental two-target ridge regressor (RLS, Sherman–Morrison).
#[derive(Clone, Debug)]
pub struct RlsModel {
    /// Inverse regularised covariance `P = (Xᵀ·Λ·X + λI)⁻¹`.
    p: [[f64; FEATURES]; FEATURES],
    /// Weights of the per-batch-latency target.
    w_per_batch: [f64; FEATURES],
    /// Weights of the fixed-overhead target.
    w_fixed: [f64; FEATURES],
    /// Observations folded in so far.
    samples: u64,
}

impl Default for RlsModel {
    fn default() -> Self {
        let mut p = [[0.0; FEATURES]; FEATURES];
        for (i, row) in p.iter_mut().enumerate() {
            row[i] = P0;
        }
        RlsModel {
            p,
            w_per_batch: [0.0; FEATURES],
            w_fixed: [0.0; FEATURES],
            samples: 0,
        }
    }
}

/// Forecasts both targets for `feats` from the current weights.
/// Predictions are clamped to be non-negative (a latency forecast below
/// zero is always model error). Allocation-free (simlint `[hot]`).
pub fn rls_predict(model: &RlsModel, feats: &LatencyFeatures) -> PredictedLatency {
    let mut per_batch = 0.0;
    let mut fixed = 0.0;
    for i in 0..FEATURES {
        per_batch += model.w_per_batch[i] * feats.x[i];
        fixed += model.w_fixed[i] * feats.x[i];
    }
    PredictedLatency {
        per_batch_us: per_batch.max(0.0),
        fixed_us: fixed.max(0.0),
    }
}

/// Folds one observation into the model: the standard RLS update with
/// forgetting,
/// `k = P·x / (λf + xᵀ·P·x)`, `w += k·(y − wᵀ·x)`,
/// `P = (P − k·(xᵀ·P)) / λf`,
/// with both targets sharing the gain `k`. Fixed operation order over
/// fixed-size arrays: deterministic and allocation-free (simlint
/// `[hot]`).
pub fn rls_update(model: &mut RlsModel, feats: &LatencyFeatures, per_batch_us: f64, fixed_us: f64) {
    let x = &feats.x;
    // px = P·x (P is symmetric, so this is also xᵀ·P).
    let mut px = [0.0; FEATURES];
    for (pxi, row) in px.iter_mut().zip(model.p.iter()) {
        let mut acc = 0.0;
        for (pij, xj) in row.iter().zip(x.iter()) {
            acc += pij * xj;
        }
        *pxi = acc;
    }
    let mut xpx = 0.0;
    for (xi, pxi) in x.iter().zip(px.iter()) {
        xpx += xi * pxi;
    }
    let denom = FORGET + xpx;
    // Gain k = px / denom.
    let mut err_pb = per_batch_us;
    let mut err_fx = fixed_us;
    for ((wpb, wfx), xi) in model
        .w_per_batch
        .iter()
        .zip(model.w_fixed.iter())
        .zip(x.iter())
    {
        err_pb -= wpb * xi;
        err_fx -= wfx * xi;
    }
    for ((wpb, wfx), pxi) in model
        .w_per_batch
        .iter_mut()
        .zip(model.w_fixed.iter_mut())
        .zip(px.iter())
    {
        let k = pxi / denom;
        *wpb += k * err_pb;
        *wfx += k * err_fx;
    }
    // P = (P − k·pxᵀ) / λf, preserving symmetry by construction, then
    // the stabilising leak toward P₀·I (see [`LEAK`]).
    for (i, (row, pxi)) in model.p.iter_mut().zip(px.iter()).enumerate() {
        let k = pxi / denom;
        for (j, (pij, pxj)) in row.iter_mut().zip(px.iter()).enumerate() {
            let updated = (*pij - k * pxj) / FORGET;
            let prior = if i == j { P0 } else { 0.0 };
            *pij = updated + LEAK * (prior - updated);
        }
    }
    model.samples += 1;
}

/// One online latency predictor per application, with a warm-up gate.
#[derive(Clone, Debug)]
pub struct LatencyPredictor {
    apps: Vec<RlsModel>,
    /// Observations an app's model needs before it predicts anything.
    warmup: u64,
}

impl LatencyPredictor {
    /// Creates predictors for `num_apps` applications. Until `warmup`
    /// observations have streamed in for an app, [`Self::predict`]
    /// returns `None` and callers fall back to their analytic inputs.
    pub fn new(num_apps: usize, warmup: u64) -> Self {
        LatencyPredictor {
            apps: vec![RlsModel::default(); num_apps],
            warmup,
        }
    }

    /// Observations folded in so far for `app` (0 for unknown apps).
    pub fn samples(&self, app: usize) -> u64 {
        self.apps.get(app).map_or(0, |m| m.samples)
    }

    /// Streams one completed job's observation into `app`'s model.
    pub fn observe(
        &mut self,
        app: usize,
        feats: &LatencyFeatures,
        per_batch_us: f64,
        fixed_us: f64,
    ) {
        if let Some(model) = self.apps.get_mut(app) {
            rls_update(model, feats, per_batch_us, fixed_us);
        }
    }

    /// Forecasts the latency of a job shape, or `None` while `app`'s
    /// model is still warming up (or `app` is unknown).
    pub fn predict(&self, app: usize, feats: &LatencyFeatures) -> Option<PredictedLatency> {
        let model = self.apps.get(app)?;
        if model.samples < self.warmup {
            return None;
        }
        Some(rls_predict(model, feats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feats(n: u32, batch: u32, gpu: f64) -> LatencyFeatures {
        LatencyFeatures::new(n, batch, gpu, 5e7, 64.0, 0.0, 0.0)
    }

    /// With the profiled estimate as a feature, learning a constant
    /// multiplicative miscalibration takes only a handful of samples,
    /// and the fit generalises across shapes the raw terms alone can't
    /// separate.
    #[test]
    fn analytic_baseline_feature_calibrates_fast() {
        let mut p = LatencyPredictor::new(1, 8);
        let shapes: Vec<f64> = (1..=24).map(|i| 150.0 * i as f64).collect();
        for (i, &a) in shapes.iter().enumerate().cycle().take(96) {
            let f = LatencyFeatures::new(16, 8, 0.5, 5e7 * (1 + i % 4) as f64, 0.0, 0.0, a);
            p.observe(0, &f, 1.07 * a, 25.0);
        }
        for &a in &shapes {
            let f = LatencyFeatures::new(16, 8, 0.5, 5e7, 0.0, 0.0, a);
            let pred = p.predict(0, &f).expect("warm");
            let truth = 1.07 * a;
            assert!(
                (pred.per_batch_us - truth).abs() < 0.03 * truth,
                "analytic {a}: {} vs {truth}",
                pred.per_batch_us
            );
        }
    }

    #[test]
    fn zero_observations_predict_nothing() {
        let p = LatencyPredictor::new(2, 1);
        assert_eq!(p.predict(0, &feats(8, 4, 0.5)), None);
        assert_eq!(p.samples(0), 0);
        // Unknown app: no prediction, no panic.
        assert_eq!(p.predict(9, &feats(8, 4, 0.5)), None);
    }

    #[test]
    fn warmup_gates_predictions() {
        let mut p = LatencyPredictor::new(1, 3);
        let f = feats(8, 4, 0.5);
        p.observe(0, &f, 100.0, 10.0);
        p.observe(0, &f, 100.0, 10.0);
        assert_eq!(p.predict(0, &f), None, "below warmup");
        p.observe(0, &f, 100.0, 10.0);
        assert!(p.predict(0, &f).is_some(), "warmup reached");
    }

    #[test]
    fn converges_on_a_linear_target() {
        // Ground truth: per_batch = 40·(n/64) + 120·(1/g), fixed = 500.
        let mut p = LatencyPredictor::new(1, 8);
        let mut shapes = Vec::new();
        for n in [2u32, 8, 16, 32, 64, 128] {
            for g in [0.125, 0.25, 0.5, 1.0] {
                shapes.push((n, g));
            }
        }
        for pass in 0..40 {
            let (n, g) = shapes[pass % shapes.len()];
            let f = feats(n, 8, g);
            let y = 40.0 * (n as f64 / 64.0) + 120.0 / g.max(1.0 / 64.0);
            p.observe(0, &f, y, 500.0);
        }
        for &(n, g) in &shapes {
            let f = feats(n, 8, g);
            let pred = p.predict(0, &f).expect("warm");
            let truth = 40.0 * (n as f64 / 64.0) + 120.0 / g.max(1.0 / 64.0);
            assert!(
                (pred.per_batch_us - truth).abs() < 0.05 * truth.max(50.0),
                "n={n} g={g}: {} vs {truth}",
                pred.per_batch_us
            );
            assert!((pred.fixed_us - 500.0).abs() < 25.0, "{}", pred.fixed_us);
        }
    }

    #[test]
    fn identical_streams_hold_bit_identical_state() {
        let mut a = LatencyPredictor::new(1, 1);
        let mut b = LatencyPredictor::new(1, 1);
        for i in 0..200u32 {
            let f = feats(1 + i % 50, 4 + i % 8, 0.1 + 0.01 * (i % 9) as f64);
            let y = 31.0 + (i % 13) as f64 * 7.5;
            a.observe(0, &f, y, y * 0.25);
            b.observe(0, &f, y, y * 0.25);
        }
        let f = feats(20, 6, 0.3);
        let (pa, pb) = (a.predict(0, &f).unwrap(), b.predict(0, &f).unwrap());
        assert_eq!(pa.per_batch_us.to_bits(), pb.per_batch_us.to_bits());
        assert_eq!(pa.fixed_us.to_bits(), pb.fixed_us.to_bits());
    }

    #[test]
    fn reconverges_after_a_regime_change() {
        // A device-stall-like shift: the same shapes, service time
        // suddenly 3×. With forgetting, the model tracks the new regime.
        let mut p = LatencyPredictor::new(1, 8);
        let f = feats(16, 8, 0.5);
        for _ in 0..300 {
            p.observe(0, &f, 200.0, 50.0);
        }
        let before = p.predict(0, &f).unwrap();
        assert!((before.per_batch_us - 200.0).abs() < 5.0);
        // Error against a constant shape decays by ≈ the forgetting
        // factor per observation: 600 steps shrink the 400 µs jump to
        // ~20 µs (0.995⁶⁰⁰ ≈ 0.05).
        for _ in 0..600 {
            p.observe(0, &f, 600.0, 50.0);
        }
        let after = p.predict(0, &f).unwrap();
        assert!(
            (after.per_batch_us - 600.0).abs() < 30.0,
            "did not re-converge: {}",
            after.per_batch_us
        );
    }

    #[test]
    fn headroom_scores_the_slo_gap() {
        let pred = PredictedLatency {
            per_batch_us: 1000.0,
            fixed_us: 2000.0,
        };
        assert_eq!(pred.total_us(3), 5000.0);
        assert_eq!(pred.headroom_us(8000.0, 3), 3000.0);
        assert!(pred.headroom_us(4000.0, 3) < 0.0);
    }

    #[test]
    fn predictions_clamp_to_non_negative() {
        let mut m = RlsModel::default();
        // Train on a negative target: raw forecasts would go negative.
        let f = feats(8, 4, 0.5);
        for _ in 0..50 {
            rls_update(&mut m, &f, -100.0, -10.0);
        }
        let pred = rls_predict(&m, &f);
        assert_eq!(pred.per_batch_us, 0.0);
        assert_eq!(pred.fixed_us, 0.0);
    }
}
