//! Criterion micro-benchmarks for the power-iteration PCA kernel.
//!
//! * `pca/fit_cold` — the drift build's fit from keyed random starts,
//!   the cost of the first period (or any model-version bump) per
//!   `(app, node)`.
//! * `pca/fit_warm` — the same fit warm-started from the basis the
//!   previous boundary fitted on the same node, the steady-state
//!   per-period cost of a node whose model did not retrain. The
//!   convergence early-exit shortens only the power iterations; the
//!   6000-row covariance product, the same in both, is most of either
//!   fit at this shape.
//! * `pca/transform` — projecting 6000 first-layer feature rows (width
//!   32) onto 8 components, the drift ranking's shape. Each pass first
//!   copies the features into the buffer the projection centres in
//!   place, as the drift path writes fresh features before each one.
//!
//! The fits run on what the drift build fits: the 32-wide first trunk
//! layer features of a retiring 6000-sample pool (the surveillance
//! app's vehicle node, two boundaries in; the warm basis is the fit of
//! the pool retired one boundary before), reduced to
//! `PCA_COMPONENTS = 8` directions.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use adainf_apps::{catalog, AppRuntime};
use adainf_core::drift_artifacts::PCA_COMPONENTS as K;
use adainf_driftgen::workload::ArrivalConfig;
use adainf_nn::pca::{Pca, PcaScratch};
use adainf_nn::Matrix;
use adainf_simcore::Prng;

/// The paper workload's retraining-pool size per node.
const PAPER_POOL: usize = 6000;

/// The fitted node: the surveillance app's vehicle model (severe drift).
const NODE: usize = 1;

/// The first trunk layer's features of the fitted node's old training
/// set (the pool that retired at the last boundary), as the drift build
/// computes them before its fit.
fn old_features(rt: &mut AppRuntime) -> Matrix {
    let mut feats = Matrix::default();
    let old = rt.retired[NODE].train.draw();
    rt.models[NODE].features_into(old, &mut feats);
    feats
}

fn bench_pca(c: &mut Criterion) {
    let mut group = c.benchmark_group("pca");
    group.sample_size(20);

    let mut rt = AppRuntime::new(
        catalog::video_surveillance(0),
        ArrivalConfig::default(),
        PAPER_POOL,
        &Prng::new(42),
    );
    rt.advance_period();
    // The warm basis is the previous boundary's fit of the same node,
    // at the same model version: a drift build's situation when the
    // model did not retrain in between.
    let mut scratch = PcaScratch::default();
    let old = old_features(&mut rt);
    let warm_basis = Pca::fit(&old, K, &mut Prng::new(7), &mut scratch, None).into_components();
    rt.advance_period();
    let data = old_features(&mut rt);

    for (id, warm) in [("fit_cold", None), ("fit_warm", Some(&warm_basis))] {
        group.bench_function(id, |b| {
            b.iter(|| {
                let mut r = Prng::new(7);
                black_box(Pca::fit(black_box(&data), K, &mut r, &mut scratch, warm))
            })
        });
    }

    let mut rng = Prng::new(13);
    let raw: Vec<f32> = (0..6000 * 32).map(|_| rng.gauss() as f32).collect();
    let feats = Matrix::from_slice(6000, 32, &raw);
    let pca = Pca::fit(&feats, K, &mut rng, &mut scratch, None);
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
