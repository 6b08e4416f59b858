//! Criterion micro-benchmarks for the power-iteration PCA kernel.
//!
//! * `pca/fit_cold` — a full fit from keyed random starts, the cost of
//!   the first period (or any model-version bump) per `(app, node)`.
//! * `pca/fit_warm` — the same fit warm-started from the basis of a fit
//!   over slightly perturbed data, the steady-state per-period cost once
//!   the drift cache carries the previous basis forward. The convergence
//!   early-exit should make this several times cheaper than cold.
//! * `pca/transform` — projecting 6000 first-layer feature rows (width
//!   32) onto 8 components, the drift ranking's shape. Each pass first
//!   copies the features into the buffer the projection centres in
//!   place, as the drift path writes fresh features before each one.
//!
//! The fit data mirrors the drift path: a few hundred feature rows at
//! the head-layer width, reduced to `pca_components = 8` directions.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use adainf_nn::pca::{Pca, PcaScratch};
use adainf_nn::Matrix;
use adainf_simcore::Prng;

const ROWS: usize = 400;
const COLS: usize = 48;
const K: usize = 8;

/// Anisotropic data with a clear dominant subspace, like head-layer
/// features: a few strong directions plus isotropic noise.
fn feature_matrix(rng: &mut Prng, jitter: f32) -> Matrix {
    let dirs: Vec<Vec<f32>> = (0..K)
        .map(|_| (0..COLS).map(|_| rng.gauss() as f32).collect())
        .collect();
    let mut data = Vec::with_capacity(ROWS * COLS);
    for _ in 0..ROWS {
        let mut row = vec![0.0f32; COLS];
        for (j, dir) in dirs.iter().enumerate() {
            let scale = (K - j) as f32 * rng.gauss() as f32;
            for (r, d) in row.iter_mut().zip(dir) {
                *r += scale * d;
            }
        }
        for r in &mut row {
            *r += jitter * rng.gauss() as f32;
        }
        data.extend_from_slice(&row);
    }
    Matrix::from_slice(ROWS, COLS, &data)
}

fn bench_pca(c: &mut Criterion) {
    let mut group = c.benchmark_group("pca");
    group.sample_size(20);

    let mut rng = Prng::new(99);
    let data = feature_matrix(&mut rng, 0.5);
    // The warm basis comes from a fit over perturbed data — the drift
    // cache's situation at a period boundary (pools shifted slightly,
    // model unchanged).
    let prev = feature_matrix(&mut rng, 0.6);
    let mut fit_rng = Prng::new(7);
    let warm_basis = Pca::fit(&prev, K, &mut fit_rng).into_components();

    group.bench_function("fit_cold", |b| {
        let mut scratch = PcaScratch::default();
        b.iter(|| {
            let mut r = Prng::new(7);
            black_box(Pca::fit_with_scratch(
                black_box(&data),
                K,
                &mut r,
                &mut scratch,
            ))
        })
    });

    group.bench_function("fit_warm", |b| {
        let mut scratch = PcaScratch::default();
        b.iter(|| {
            let mut r = Prng::new(7);
            black_box(Pca::fit_warm_with_scratch(
                black_box(&data),
                K,
                &mut r,
                &mut scratch,
                Some(&warm_basis),
            ))
        })
    });

    let mut rng = Prng::new(13);
    let raw: Vec<f32> = (0..6000 * 32).map(|_| rng.gauss() as f32).collect();
    let feats = Matrix::from_slice(6000, 32, &raw);
    let pca = Pca::fit(&feats, K, &mut rng);
    group.bench_function("transform", |b| {
        let (mut x, mut out) = (Matrix::default(), Matrix::default());
        b.iter(|| {
            x.copy_from(black_box(&feats));
            pca.transform_into(&mut x, &mut out);
            black_box(out.data()[0])
        })
    });

    group.finish();
}

criterion_group!(benches, bench_pca);
criterion_main!(benches);
