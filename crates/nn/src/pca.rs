//! Principal component analysis by power iteration with deflation.
//!
//! The AdaInf drift detector (§3.2) reduces high-dimensional feature
//! vectors with PCA before computing cosine distances "to get more
//! accurate distance results". Power iteration on the covariance matrix is
//! ample at the dimensionalities involved (≤ 64).
//!
//! Every product runs on the crate's one GEMM family
//! ([`Matrix::matmul_into`], [`Matrix::t_matmul_into`]): the covariance
//! `Xcᵀ·Xc`, each power-iteration step as the one-row product `vᵀ·D`
//! with `D` the transposed covariance, and the projection `(X − μ)·B`
//! with `B` the `d × k` transposed basis the fit stores.

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
    /// `components` transposed (`d × k`), the right operand of the
    /// projection GEMM.
    basis_t: Matrix,
}

/// Reusable buffers for [`Pca::fit`]: the centred data
/// copy, the transposed covariance / deflation matrix and the
/// power-iteration rows. Reusing one scratch across fits keeps them
/// from allocating once warm.
#[derive(Clone, Debug, Default)]
pub struct PcaScratch {
    /// Centred copy of the input data (`x − mean` per column).
    centered: Matrix,
    /// The transposed covariance `D = Cᵀ`, deflated in place per
    /// extracted component.
    cov: Matrix,
    /// Power-iteration vector, one row.
    v: Matrix,
    /// Power-iteration / Rayleigh product `vᵀ·D`, one row.
    w: Matrix,
}

impl Pca {
    /// Fits `k` principal components to the rows of `data`.
    ///
    /// `k` is clamped to the feature dimensionality. Components are
    /// extracted by power iteration with Hotelling deflation, on a
    /// covariance built as `Xcᵀ·Xc / n` by the blocked
    /// [`Matrix::t_matmul_into`] GEMM kernel. The centred copy,
    /// covariance and iteration vectors live in `scratch` and are reused
    /// across calls.
    ///
    /// When `warm` supplies a row for a component (matching the feature
    /// dimensionality, with non-negligible norm), power iteration starts
    /// from that row instead of a fresh Gaussian draw; components without
    /// a usable warm row fall back to the keyed random start, consuming
    /// the rng only for those draws. A basis from a fit of closely
    /// related data (e.g. the previous drift period's old-sample
    /// features) is already near the dominant subspace, so a warm
    /// component iterates until its Rayleigh-quotient estimate converges
    /// (`|λ_t − λ_{t−1}| ≤ tol·|λ_t|`), within a few iterations instead
    /// of tens, with [`MAX_POWER_ITERS`] as the backstop. The early exit
    /// is armed only for warm-started components: a cold component
    /// always runs the full fixed schedule of [`MAX_POWER_ITERS`] steps.
    ///
    /// Determinism: the fit is a pure function of `(data, k, the rng
    /// state, warm)` — callers replaying a build with the same warm basis
    /// get bit-identical components.
    ///
    /// # Panics
    /// Panics when `data` has no rows.
    pub fn fit(
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
        scratch.centered.copy_from(data);
        center(&mut scratch.centered, &mean);
        let PcaScratch {
            centered,
            cov,
            v,
            w,
        } = scratch;
        centered.t_matmul_into(centered, cov);
        cov.scale(1.0 / data.rows() as f32);

        // The iteration multiplies by `D = Cᵀ` from the left, `w = vᵀ·D`,
        // so each step is a one-row GEMM whose element `j` is
        // `Σ_i v_i·C[j][i]` in ascending `i`: the row-dot product `C·v`.
        // `t_matmul_into` returns an exactly symmetric covariance (its
        // `(i, j)` and `(j, i)` sums add the same products in the same
        // order), so the covariance already is `D`; each deflation below
        // keeps it the exact transpose of the deflated `C`.
        let mut components = Matrix::zeros(k, d);
        let deflated = cov;
        for comp in 0..k {
            // Warm start from the caller's basis row when usable,
            // otherwise a fresh random direction.
            let warm_row = warm
                .filter(|b| b.cols() == d && comp < b.rows())
                .map(|b| b.row(comp))
                .filter(|row| row.iter().map(|x| x * x).sum::<f32>().sqrt() > 1e-6);
            let warmed = warm_row.is_some();
            v.reset_zeroed(1, d);
            match warm_row {
                Some(row) => v.data_mut().copy_from_slice(row),
                None => v.data_mut().fill_with(|| rng.gauss() as f32),
            }
            normalize(v.data_mut());

            // Power iteration with a Rayleigh-quotient convergence
            // early-exit. Each pass computes w = vᵀ·D and reads the
            // eigenvalue estimate λ = vᵀ·C·v off the same product (v is
            // unit), so the λ used for deflation costs no extra product.
            // When the estimate never converges, the loop runs exactly
            // [`MAX_POWER_ITERS`] normalize steps and measures λ on the
            // final vector — bit for bit the fixed-iteration schedule of
            // the pre-convergence fit (the per-pass estimates are pure
            // reads).
            let lambda: f32;
            let mut prev = f32::NAN;
            let mut steps = 0;
            loop {
                v.matmul_into(deflated, w);
                let est: f32 = v.data().iter().zip(w.data()).map(|(x, y)| x * y).sum();
                let converged =
                    warmed && prev.is_finite() && (est - prev).abs() <= CONVERGENCE_TOL * est.abs();
                if converged || steps >= MAX_POWER_ITERS {
                    lambda = est;
                    break;
                }
                prev = est;
                steps += 1;
                normalize(w.data_mut());
                std::mem::swap(v, w);
            }
            // Deflate C ← C − λ v vᵀ through its transpose: `D[j][i]`
            // takes the `(λ·v_i)·v_j` that `C[i][j]` takes, so `D` stays
            // exactly `Cᵀ`. `v` is the unit vector λ was measured on, so
            // the deflated residual is exact.
            let v = v.data();
            for (j, &vj) in v.iter().enumerate() {
                for (c, &vi) in deflated.row_mut(j).iter_mut().zip(v) {
                    *c -= lambda * vi * vj;
                }
            }
            components.row_mut(comp).copy_from_slice(v);
        }
        let mut basis_t = Matrix::default();
        components.transpose_into(&mut basis_t);
        Pca {
            mean,
            components,
            basis_t,
        }
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

    /// Projects each row of `data` onto the principal components, into
    /// a caller-provided `n × k` output buffer, consuming the caller's
    /// copy of the data: `data` is centred in place (it holds `X − μ` on
    /// return), then `(X − μ)·B`, with `B` the `d × k` transposed basis,
    /// runs through [`Matrix::matmul_into`]. Each element is the centred
    /// row's dot product with one component in ascending feature order.
    ///
    /// # Panics
    /// Panics on feature-dimensionality mismatch.
    pub fn transform_into(&self, data: &mut Matrix, out: &mut Matrix) {
        assert_eq!(data.cols(), self.mean.len(), "dimensionality mismatch");
        center(data, &self.mean);
        data.matmul_into(&self.basis_t, out);
    }
}

/// Subtracts `mean` from every row of `data`, in place.
fn center(data: &mut Matrix, mean: &[f32]) {
    for r in 0..data.rows() {
        for (x, &m) in data.row_mut(r).iter_mut().zip(mean) {
            *x -= m;
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

    /// A cold fit through a fresh scratch.
    fn cold_fit(data: &Matrix, k: usize, rng: &mut Prng) -> Pca {
        Pca::fit(data, k, rng, &mut PcaScratch::default(), None)
    }

    /// `data` projected onto `pca`'s components, through
    /// [`Pca::transform_into`] on a copy.
    fn project(pca: &Pca, data: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        pca.transform_into(&mut data.clone(), &mut out);
        out
    }

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
        let pca = cold_fit(&m, 1, &mut rng);
        let projected = project(&pca, &m);
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
        let pca = cold_fit(&m, 3, &mut rng);
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

    /// `n × d` Gaussian rows with a decaying spread per feature, so the
    /// leading eigenvalues are distinct.
    fn anisotropic(rng: &mut Prng, n: usize, d: usize) -> Matrix {
        let data: Vec<f32> = (0..n * d)
            .map(|i| rng.gauss() as f32 * (1.0 + (d - i % d) as f32 / 4.0))
            .collect();
        Matrix::from_slice(n, d, &data)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|x| x.to_bits()).collect()
    }

    /// The projection must bit-equal the naive centred dot products
    /// `Σ_k (x_ik − μ_k)·c_jk`, each summed from `+0.0` in ascending `k`,
    /// at one-panel and ragged component counts, through one dirty
    /// output buffer reused across shapes, and leave the caller's copy
    /// centred.
    #[test]
    fn transform_bit_matches_naive_centred_dot_products() {
        let mut rng = Prng::new(29);
        let mut out = Matrix::from_slice(1, 1, &[7.0]);
        for d in [16, 32, 48] {
            for k in [1, 3, 8, 9] {
                let data = anisotropic(&mut rng, 37, d);
                let pca = cold_fit(&data, k, &mut rng);
                let mut want = Matrix::zeros(data.rows(), k);
                for i in 0..data.rows() {
                    for j in 0..k {
                        let mut acc = 0.0f32;
                        for (f, (&x, &m)) in data.row(i).iter().zip(&pca.mean).enumerate() {
                            acc += (x - m) * pca.components.get(j, f);
                        }
                        want.set(i, j, acc);
                    }
                }
                let mut x = data.clone();
                pca.transform_into(&mut x, &mut out);
                assert_eq!(bits(&out), bits(&want), "d {d}, k {k}");
                let centred = (0..data.rows() * d).map(|i| data.data()[i] - pca.mean[i % d]);
                assert!(x.data().iter().copied().eq(centred), "d {d}, k {k}");
            }
        }
    }

    /// The fit as a row-dot power iteration: `w = C·v` one row dot
    /// product at a time, and `C ← C − λ v vᵀ` deflated row by row, on a
    /// triple-loop covariance. The GEMM fit iterates on `Cᵀ` instead and
    /// must land on the same bits.
    fn row_dot_fit(data: &Matrix, k: usize, rng: &mut Prng, warm: Option<&Matrix>) -> Matrix {
        let (n, d) = (data.rows(), data.cols());
        let mean = data.col_means();
        let xc: Vec<f32> = (0..n * d).map(|i| data.data()[i] - mean[i % d]).collect();
        let mut cov = vec![0.0f32; d * d];
        for i in 0..d {
            for j in 0..d {
                let mut acc = 0.0f32;
                for r in 0..n {
                    acc += xc[r * d + i] * xc[r * d + j];
                }
                cov[i * d + j] = acc * (1.0 / n as f32);
            }
        }
        let mut components = Vec::new();
        for comp in 0..k {
            let warm_row = warm
                .filter(|b| b.cols() == d && comp < b.rows())
                .map(|b| b.row(comp))
                .filter(|row| row.iter().map(|x| x * x).sum::<f32>().sqrt() > 1e-6);
            let warmed = warm_row.is_some();
            let mut v: Vec<f32> = match warm_row {
                Some(row) => row.to_vec(),
                None => (0..d).map(|_| rng.gauss() as f32).collect(),
            };
            normalize(&mut v);
            let mut w = vec![0.0f32; d];
            let (mut prev, mut steps) = (f32::NAN, 0);
            let lambda = loop {
                for (o, row) in w.iter_mut().zip(cov.chunks_exact(d)) {
                    let mut acc = 0.0f32;
                    for (a, b) in v.iter().zip(row) {
                        acc += a * b;
                    }
                    *o = acc;
                }
                let est: f32 = v.iter().zip(&w).map(|(x, y)| x * y).sum();
                let converged =
                    warmed && prev.is_finite() && (est - prev).abs() <= CONVERGENCE_TOL * est.abs();
                if converged || steps >= MAX_POWER_ITERS {
                    break est;
                }
                prev = est;
                steps += 1;
                normalize(&mut w);
                std::mem::swap(&mut v, &mut w);
            };
            for (i, row) in cov.chunks_exact_mut(d).enumerate() {
                let lvi = lambda * v[i];
                for (c, &vj) in row.iter_mut().zip(&v) {
                    *c -= lvi * vj;
                }
            }
            components.extend_from_slice(&v);
        }
        Matrix::from_slice(k, d, &components)
    }

    /// Cold and warm fits bit-equal the row-dot reference, through one
    /// scratch reused across shapes.
    #[test]
    fn fits_bit_match_the_row_dot_power_iteration() {
        let mut scratch = PcaScratch::default();
        for (seed, d) in [(3u64, 32), (4, 48)] {
            let mut rng = Prng::new(seed);
            let data = anisotropic(&mut rng, 120, d);
            let cold = Pca::fit(&data, 8, &mut Prng::new(seed), &mut scratch, None);
            let want = row_dot_fit(&data, 8, &mut Prng::new(seed), None);
            assert_eq!(bits(&cold.components), bits(&want), "cold, d {d}");

            let drifted = anisotropic(&mut rng, 120, d);
            let basis = cold_fit(&drifted, 8, &mut Prng::new(seed ^ 1)).into_components();
            let warm = Pca::fit(&data, 8, &mut Prng::new(5), &mut scratch, Some(&basis));
            let want = row_dot_fit(&data, 8, &mut Prng::new(5), Some(&basis));
            assert_eq!(bits(&warm.components), bits(&want), "warm, d {d}");
        }
    }

    /// The fit iterates on the covariance as its own transpose, which
    /// holds only while `t_matmul_into` returns it bit-symmetric.
    #[test]
    fn covariance_is_bit_symmetric() {
        let mut rng = Prng::new(31);
        for d in [16, 32, 33, 48] {
            for n in [1, 63, 64, 65, 200] {
                let x = anisotropic(&mut rng, n, d);
                let mut cov = Matrix::default();
                x.t_matmul_into(&x, &mut cov);
                for i in 0..d {
                    for j in 0..i {
                        let (a, b) = (cov.get(i, j), cov.get(j, i));
                        assert_eq!(a.to_bits(), b.to_bits(), "{n}x{d} ({i}, {j})");
                    }
                }
            }
        }
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
            let cold = Pca::fit(&m2, k, &mut r1, &mut scratch, None);
            let prev = cold_fit(&m, k, &mut Prng::new(seed ^ 0xABCD));
            let mut r2 = Prng::new(seed ^ 0xABCD);
            let warm = Pca::fit(&m2, k, &mut r2, &mut scratch, Some(prev.components()));

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
                let proj = project(p, &m2);
                let mut acc = 0.0;
                for c in 0..proj.cols() {
                    let mean: f32 = (0..n).map(|r| proj.get(r, c)).sum::<f32>() / n as f32;
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
        let cold = Pca::fit(&m, 3, &mut Prng::new(5), &mut scratch, None);
        // Wrong width: unusable for every component.
        let bad = Matrix::zeros(3, d + 1);
        let warm = Pca::fit(&m, 3, &mut Prng::new(5), &mut scratch, Some(&bad));
        assert_eq!(cold.components.data(), warm.components.data());
        // All-zero rows: norm filter rejects them, same fallback.
        let zeros = Matrix::zeros(3, d);
        let warm2 = Pca::fit(&m, 3, &mut Prng::new(5), &mut scratch, Some(&zeros));
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
        let first = cold_fit(&m, 3, &mut Prng::new(9));
        let again = Pca::fit(
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
        let pca = cold_fit(&m, 10, &mut rng);
        assert_eq!(pca.k(), 2);
        let one = Matrix::from_slice(1, 2, &[1.0, 2.0]);
        assert_eq!(project(&pca, &one).cols(), 2);
    }
}
