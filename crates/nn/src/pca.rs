//! Principal component analysis by power iteration with deflation.
//!
//! The AdaInf drift detector (§3.2) reduces high-dimensional feature
//! vectors with PCA before computing cosine distances "to get more
//! accurate distance results". Power iteration on the covariance matrix is
//! ample at the dimensionalities involved (≤ 64).

use crate::matrix::Matrix;
use adainf_simcore::Prng;

/// Iteration ceiling per component — the schedule cold starts always run
/// in full (bit-compatible with the historical fixed-iteration fit) and
/// the backstop when a warm start's convergence early-exit never fires
/// (e.g. near-degenerate eigenvalue pairs).
pub const MAX_POWER_ITERS: usize = 60;

/// Relative eigenvalue-estimate tolerance of the convergence early-exit
/// for warm-started components: iteration stops once
/// `|λ_t − λ_{t−1}| ≤ tol·|λ_t|`. Below f32 machine epsilon, so the exit
/// fires only when the Rayleigh estimate has stabilised to the last bit —
/// a warm vector that is already the fixed point leaves immediately,
/// while anything still moving keeps iterating. Cold (random-start)
/// components never exit early: they run the full [`MAX_POWER_ITERS`]
/// schedule, keeping cold fits bit-identical to the pre-warm-start
/// kernel.
pub const CONVERGENCE_TOL: f32 = 1e-8;

/// A fitted PCA projection.
#[derive(Clone, Debug)]
pub struct Pca {
    /// Per-feature mean of the fitting data.
    mean: Vec<f32>,
    /// Principal components, one row per component.
    components: Matrix,
}

/// Reusable buffers for [`Pca::fit_with_scratch`] and
/// [`Pca::transform_into`]: the centred data copy, the covariance /
/// deflation matrix and the power-iteration vectors. Reusing one scratch
/// across fits and projections makes the drift-detection data path
/// allocation-free once warm.
#[derive(Clone, Debug, Default)]
pub struct PcaScratch {
    /// Centred copy of the input data (`x − mean` per column).
    centered: Matrix,
    /// Covariance matrix, deflated in place per extracted component.
    cov: Matrix,
    /// Power-iteration vector.
    v: Vec<f32>,
    /// Power-iteration / Rayleigh product buffer.
    w: Vec<f32>,
}

impl Pca {
    /// Fits `k` principal components to the rows of `data`.
    ///
    /// `k` is clamped to the feature dimensionality. Components are
    /// extracted by power iteration with Hotelling deflation; each
    /// component iterates until its Rayleigh-quotient estimate converges
    /// (`|λ_t − λ_{t−1}| ≤ tol·|λ_t|`) with [`MAX_POWER_ITERS`] as the
    /// backstop.
    ///
    /// # Panics
    /// Panics when `data` has no rows.
    pub fn fit(data: &Matrix, k: usize, rng: &mut Prng) -> Self {
        Self::fit_with_scratch(data, k, rng, &mut PcaScratch::default())
    }

    /// [`Self::fit`] with caller-provided buffers: the centred copy,
    /// covariance and iteration vectors live in `scratch` and are reused
    /// across calls. The covariance is built as `Xcᵀ·Xc / n` via the
    /// blocked [`Matrix::t_matmul_into`] GEMM kernel rather than a triple
    /// scalar loop.
    ///
    /// # Panics
    /// Panics when `data` has no rows.
    pub fn fit_with_scratch(
        data: &Matrix,
        k: usize,
        rng: &mut Prng,
        scratch: &mut PcaScratch,
    ) -> Self {
        Self::fit_warm_with_scratch(data, k, rng, scratch, None)
    }

    /// [`Self::fit_with_scratch`] with an optional warm-start basis: when
    /// `warm` supplies a row for a component (matching the feature
    /// dimensionality, with non-negligible norm), power iteration starts
    /// from that row instead of a fresh Gaussian draw; components without
    /// a usable warm row fall back to the keyed random start, consuming
    /// the rng only for those draws. A basis from a fit of closely
    /// related data (e.g. the previous drift period's old-sample
    /// features) is already near the dominant subspace, so the
    /// convergence early-exit fires within a few iterations instead of
    /// tens. The early-exit is armed only for warm-started components —
    /// cold components run the full fixed schedule, so a fit without a
    /// usable warm basis is bit-identical to [`Self::fit_with_scratch`]
    /// before warm starts existed.
    ///
    /// Determinism: the fit is a pure function of `(data, k, the rng
    /// state, warm)` — callers replaying a build with the same warm basis
    /// get bit-identical components.
    ///
    /// # Panics
    /// Panics when `data` has no rows.
    pub fn fit_warm_with_scratch(
        data: &Matrix,
        k: usize,
        rng: &mut Prng,
        scratch: &mut PcaScratch,
        warm: Option<&Matrix>,
    ) -> Self {
        assert!(data.rows() > 0, "cannot fit PCA to an empty matrix");
        let d = data.cols();
        let k = k.min(d).max(1);
        let mean = data.col_means();

        // Covariance matrix (d × d), centred: cov = Xcᵀ·Xc / n.
        center_into(data, &mean, &mut scratch.centered);
        let PcaScratch {
            centered,
            cov,
            v,
            w,
        } = scratch;
        centered.t_matmul_into(centered, cov);
        cov.scale(1.0 / data.rows() as f32);

        let mut components = Matrix::zeros(k, d);
        let deflated = cov;
        for comp in 0..k {
            // Warm start from the caller's basis row when usable,
            // otherwise a fresh random direction.
            v.clear();
            let warm_row = warm
                .filter(|b| b.cols() == d && comp < b.rows())
                .map(|b| b.row(comp))
                .filter(|row| row.iter().map(|x| x * x).sum::<f32>().sqrt() > 1e-6);
            let warmed = warm_row.is_some();
            match warm_row {
                Some(row) => v.extend_from_slice(row),
                None => v.extend((0..d).map(|_| rng.gauss() as f32)),
            }
            normalize(v);

            // Power iteration with a Rayleigh-quotient convergence
            // early-exit. Each pass computes w = C·v through the blocked
            // 8-wide matvec kernel and reads the eigenvalue estimate
            // λ = vᵀ·C·v off the same product (v is unit), so the λ used
            // for deflation costs no extra matvec. When the estimate
            // never converges, the loop runs exactly [`MAX_POWER_ITERS`]
            // normalize steps and measures λ on the final vector — bit
            // for bit the fixed-iteration schedule of the pre-convergence
            // fit (the per-pass estimates are pure reads).
            let lambda: f32;
            let mut prev = f32::NAN;
            let mut steps = 0;
            loop {
                deflated.matvec_into(v, w);
                let est: f32 = v.iter().zip(&*w).map(|(x, y)| x * y).sum();
                let converged = warmed
                    && prev.is_finite()
                    && (est - prev).abs() <= CONVERGENCE_TOL * est.abs();
                if converged || steps >= MAX_POWER_ITERS {
                    lambda = est;
                    break;
                }
                prev = est;
                steps += 1;
                normalize(w);
                std::mem::swap(v, w);
            }
            // Deflate in one fused pass: C ← C − λ v vᵀ, with the λv
            // factor hoisted per row. `v` is the unit vector λ was
            // measured on, so the deflated residual is exact.
            for i in 0..d {
                let lvi = lambda * v[i];
                let row = deflated.row_mut(i);
                for (c, &vj) in row.iter_mut().zip(&*v) {
                    *c -= lvi * vj;
                }
            }
            components.row_mut(comp).copy_from_slice(v);
        }
        Pca { mean, components }
    }

    /// Number of components.
    pub fn k(&self) -> usize {
        self.components.rows()
    }

    /// The fitted principal components, one unit row per component —
    /// the warm-start basis for a subsequent fit of closely related
    /// data.
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// Consumes the fit, returning the component matrix without a copy.
    pub fn into_components(self) -> Matrix {
        self.components
    }

    /// Projects each row of `data` onto the principal components,
    /// returning an `n × k` matrix.
    pub fn transform(&self, data: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.transform_into(data, &mut PcaScratch::default(), &mut out);
        out
    }

    /// [`Self::transform`] into a caller-provided output buffer. The
    /// projection `(X − μ) · Cᵀ` runs on the fused
    /// [`Matrix::centered_matmul_t_into`] kernel — each element is
    /// centred as it enters the dot products instead of materialising a
    /// centred copy first. Per-element operation order matches the
    /// two-pass pipeline exactly, so results are bit-identical to
    /// [`Self::transform`]. (`scratch` is kept in the signature for the
    /// established call sites; the fused kernel no longer touches it.)
    ///
    /// # Panics
    /// Panics on feature-dimensionality mismatch.
    pub fn transform_into(&self, data: &Matrix, scratch: &mut PcaScratch, out: &mut Matrix) {
        assert_eq!(data.cols(), self.mean.len(), "dimensionality mismatch");
        let _ = scratch;
        data.centered_matmul_t_into(&self.mean, &self.components, out);
    }
}

/// Writes `data − mean` (per column) into `out`, reusing its allocation.
fn center_into(data: &Matrix, mean: &[f32], out: &mut Matrix) {
    out.reset_zeroed(data.rows(), data.cols());
    for r in 0..data.rows() {
        for ((o, &x), &m) in out.row_mut(r).iter_mut().zip(data.row(r)).zip(mean) {
            *o = x - m;
        }
    }
}

fn normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1e-12 {
        for x in v {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_component_finds_dominant_direction() {
        // Data stretched along (1, 1)/√2 with tiny orthogonal noise.
        let mut rng = Prng::new(5);
        let n = 400;
        let mut data = Vec::with_capacity(n * 2);
        for _ in 0..n {
            let t = rng.gauss() * 5.0;
            let noise = rng.gauss() * 0.1;
            data.push((t + noise) as f32);
            data.push((t - noise) as f32);
        }
        let m = Matrix::from_slice(n, 2, &data);
        let pca = Pca::fit(&m, 1, &mut rng);
        let projected = pca.transform(&m);
        // Projection must capture nearly all the variance.
        let total_var: f32 = {
            let means = m.col_means();
            let mut acc = 0.0;
            for r in 0..n {
                for (c, &mean) in means.iter().enumerate().take(2) {
                    let d = m.get(r, c) - mean;
                    acc += d * d;
                }
            }
            acc / n as f32
        };
        let proj_var: f32 = {
            let mean: f32 = projected.data().iter().sum::<f32>() / n as f32;
            projected
                .data()
                .iter()
                .map(|x| (x - mean) * (x - mean))
                .sum::<f32>()
                / n as f32
        };
        assert!(
            proj_var / total_var > 0.99,
            "captured {} of {}",
            proj_var,
            total_var
        );
    }

    #[test]
    fn components_are_orthonormal() {
        let mut rng = Prng::new(6);
        let n = 200;
        let d = 8;
        let mut data = Vec::with_capacity(n * d);
        for _ in 0..n * d {
            data.push(rng.gauss() as f32);
        }
        let m = Matrix::from_slice(n, d, &data);
        let pca = Pca::fit(&m, 3, &mut rng);
        for i in 0..3 {
            for j in 0..3 {
                let dot: f32 = pca
                    .components
                    .row(i)
                    .iter()
                    .zip(pca.components.row(j))
                    .map(|(a, b)| a * b)
                    .sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 0.05, "({i},{j}) dot {dot}");
            }
        }
    }

    #[test]
    fn scratch_variants_match_allocating_ones() {
        let mut rng = Prng::new(9);
        let n = 64;
        let d = 8;
        let data: Vec<f32> = (0..n * d).map(|_| rng.gauss() as f32).collect();
        let m = Matrix::from_slice(n, d, &data);
        // Identical rng streams must give identical fits whichever entry
        // point is used — fit delegates to fit_with_scratch.
        let mut r1 = Prng::new(42);
        let mut r2 = Prng::new(42);
        let mut scratch = PcaScratch::default();
        let a = Pca::fit(&m, 3, &mut r1);
        let b = Pca::fit_with_scratch(&m, 3, &mut r2, &mut scratch);
        assert_eq!(a.components.data(), b.components.data());
        assert_eq!(a.mean, b.mean);
        // transform_into with a dirty, reused scratch bit-matches
        // transform.
        let expect = a.transform(&m);
        let mut out = Matrix::from_slice(1, 1, &[7.0]);
        b.transform_into(&m, &mut scratch, &mut out);
        assert_eq!(out, expect);
    }

    /// Random data at several seeds: warm-started fits must keep the two
    /// structural properties the drift ranking relies on — components
    /// orthonormal, and captured variance no worse than the cold fit's.
    #[test]
    fn warm_started_fits_stay_orthonormal_and_capture_variance() {
        for seed in [3u64, 17, 91] {
            let mut rng = Prng::new(seed);
            let n = 200;
            let d = 12;
            let k = 4;
            let data: Vec<f32> = (0..n * d).map(|_| rng.gauss() as f32).collect();
            let m = Matrix::from_slice(n, d, &data);
            // Perturbed copy standing in for "next period's" data.
            let drifted: Vec<f32> = data
                .iter()
                .enumerate()
                .map(|(i, &x)| x + 0.05 * ((i % 7) as f32 - 3.0))
                .collect();
            let m2 = Matrix::from_slice(n, d, &drifted);

            let mut scratch = PcaScratch::default();
            let mut r1 = Prng::new(seed ^ 0xABCD);
            let cold = Pca::fit_with_scratch(&m2, k, &mut r1, &mut scratch);
            let prev = Pca::fit(&m, k, &mut Prng::new(seed ^ 0xABCD));
            let mut r2 = Prng::new(seed ^ 0xABCD);
            let warm = Pca::fit_warm_with_scratch(
                &m2,
                k,
                &mut r2,
                &mut scratch,
                Some(prev.components()),
            );

            // Orthonormality.
            for i in 0..k {
                for j in 0..k {
                    let dot: f32 = warm
                        .components
                        .row(i)
                        .iter()
                        .zip(warm.components.row(j))
                        .map(|(a, b)| a * b)
                        .sum();
                    let expect = if i == j { 1.0 } else { 0.0 };
                    assert!((dot - expect).abs() < 0.05, "seed {seed} ({i},{j}) {dot}");
                }
            }
            // Variance capture: projected variance of the warm fit within
            // 1 % of the cold fit's.
            let var_of = |p: &Pca| -> f32 {
                let proj = p.transform(&m2);
                let mut acc = 0.0;
                for c in 0..proj.cols() {
                    let mean: f32 =
                        (0..n).map(|r| proj.get(r, c)).sum::<f32>() / n as f32;
                    acc += (0..n)
                        .map(|r| {
                            let v = proj.get(r, c) - mean;
                            v * v
                        })
                        .sum::<f32>()
                        / n as f32;
                }
                acc
            };
            let (cv, wv) = (var_of(&cold), var_of(&warm));
            assert!(wv >= cv * 0.99, "seed {seed}: warm {wv} vs cold {cv}");
        }
    }

    /// A warm basis of the wrong dimensionality (or with too few rows)
    /// must fall back to the keyed random start — bit-identical to the
    /// cold fit from the same rng state.
    #[test]
    fn unusable_warm_basis_falls_back_to_cold_fit() {
        let mut rng = Prng::new(12);
        let n = 80;
        let d = 6;
        let data: Vec<f32> = (0..n * d).map(|_| rng.gauss() as f32).collect();
        let m = Matrix::from_slice(n, d, &data);
        let mut scratch = PcaScratch::default();
        let cold = Pca::fit_with_scratch(&m, 3, &mut Prng::new(5), &mut scratch);
        // Wrong width: unusable for every component.
        let bad = Matrix::zeros(3, d + 1);
        let warm =
            Pca::fit_warm_with_scratch(&m, 3, &mut Prng::new(5), &mut scratch, Some(&bad));
        assert_eq!(cold.components.data(), warm.components.data());
        // All-zero rows: norm filter rejects them, same fallback.
        let zeros = Matrix::zeros(3, d);
        let warm2 =
            Pca::fit_warm_with_scratch(&m, 3, &mut Prng::new(5), &mut scratch, Some(&zeros));
        assert_eq!(cold.components.data(), warm2.components.data());
    }

    /// Warm-starting from the *same* data's converged basis must exit in
    /// a couple of iterations and reproduce essentially the same
    /// components (the self-consistency of the early-exit criterion).
    #[test]
    fn warm_start_from_own_basis_is_a_fixed_point() {
        let mut rng = Prng::new(44);
        let n = 150;
        let d = 10;
        let data: Vec<f32> = (0..n * d).map(|_| rng.gauss() as f32).collect();
        let m = Matrix::from_slice(n, d, &data);
        let first = Pca::fit(&m, 3, &mut Prng::new(9));
        let again = Pca::fit_warm_with_scratch(
            &m,
            3,
            &mut Prng::new(9),
            &mut PcaScratch::default(),
            Some(first.components()),
        );
        for i in 0..3 {
            let dot: f32 = first
                .components
                .row(i)
                .iter()
                .zip(again.components.row(i))
                .map(|(a, b)| a * b)
                .sum();
            assert!(dot.abs() > 0.999, "component {i} drifted: |dot| {dot}");
        }
    }

    #[test]
    fn k_clamps_to_dimensionality() {
        let mut rng = Prng::new(7);
        let m = Matrix::from_slice(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let pca = Pca::fit(&m, 10, &mut rng);
        assert_eq!(pca.k(), 2);
        let one = Matrix::from_slice(1, 2, &[1.0, 2.0]);
        assert_eq!(pca.transform(&one).cols(), 2);
    }
}
