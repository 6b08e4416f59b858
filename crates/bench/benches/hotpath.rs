//! Criterion benches guarding the engine's hot paths.
//!
//! * `gemm/*` — the `Matrix` multiply kernels driving every SGD
//!   retraining step, in both the allocating and the `_into`
//!   (caller-owned output) forms, at the MLP's steady-state shapes.
//! * `gemm/head_*`, `gemm/trunk_forward_*`,
//!   `gemm/backward_input_grad_*` — the same kernels at the shapes the
//!   deployed early-exit heads actually run: a 6-class head's forward
//!   and weight gradient (8 lanes), the 32- and 24-wide trunk layers'
//!   forward passes, and a trunk layer's transposed input gradient.
//! * `end_to_end/tiny_run` — one complete 20 s, 2-application
//!   simulation through the public `run` entry point, so a regression
//!   anywhere in the stack shows up even if every micro-bench holds.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use adainf_harness::sim::{run, RunConfig};
use adainf_nn::Matrix;
use adainf_simcore::{Prng, SimDuration};

fn random_matrix(rows: usize, cols: usize, rng: &mut Prng) -> Matrix {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.gauss() as f32).collect();
    Matrix::from_slice(rows, cols, &data)
}

/// Batch 32 through a 256→64 layer: the steady-state SGD shapes.
fn bench_gemm(c: &mut Criterion) {
    let mut rng = Prng::new(11);
    let a = random_matrix(32, 256, &mut rng);
    let b = random_matrix(256, 64, &mut rng);
    let at = random_matrix(32, 256, &mut rng); // for selfᵀ × other
    let bt = random_matrix(32, 64, &mut rng);
    let wt = random_matrix(64, 256, &mut rng); // for self × otherᵀ
    let mut out = Matrix::zeros(0, 0);

    let mut group = c.benchmark_group("gemm");
    group.bench_function("matmul_32x256x64_alloc", |bch| {
        bch.iter(|| black_box(black_box(&a).matmul(black_box(&b))))
    });
    group.bench_function("matmul_into_32x256x64", |bch| {
        bch.iter(|| black_box(&a).matmul_into(black_box(&b), &mut out))
    });
    group.bench_function("t_matmul_into_256x32x64", |bch| {
        bch.iter(|| black_box(&at).t_matmul_into(black_box(&bt), &mut out))
    });
    let mut wt_scratch = Matrix::zeros(0, 0);
    group.bench_function("matmul_t_into_32x256x64", |bch| {
        bch.iter(|| black_box(&a).matmul_t_into(black_box(&wt), &mut wt_scratch, &mut out))
    });

    // Head forward: a 32-row batch through the last 32-wide trunk
    // activation into a 6-class head (bias, no ReLU).
    let acts = random_matrix(32, 32, &mut rng);
    let head_w = random_matrix(32, 6, &mut rng);
    let head_b: Vec<f32> = (0..6).map(|_| rng.gauss() as f32).collect();
    group.bench_function("head_forward_32x32x6", |bch| {
        bch.iter(|| black_box(&acts).affine_into(black_box(&head_w), &head_b, false, &mut out))
    });
    // Head weight gradient aᵀ·g: 24-wide activations, 6-class gradient.
    let head_in = random_matrix(32, 24, &mut rng);
    let head_g = random_matrix(32, 6, &mut rng);
    group.bench_function("head_weight_grad_32x24x6", |bch| {
        bch.iter(|| black_box(&head_in).t_matmul_into(black_box(&head_g), &mut out))
    });
    // Backward input gradient g·Wᵀ of the 32→24 trunk layer.
    let trunk_g = random_matrix(32, 24, &mut rng);
    let trunk_w = random_matrix(32, 24, &mut rng);
    group.bench_function("backward_input_grad_32x24x32", |bch| {
        bch.iter(|| {
            black_box(&trunk_g).matmul_t_into(black_box(&trunk_w), &mut wt_scratch, &mut out)
        })
    });
    // Trunk forward of a 32-row batch: the 16→32 first layer and the
    // 32→24 second layer (bias and ReLU).
    for (id, k, w) in [
        ("trunk_forward_32x16x32", 16, 32),
        ("trunk_forward_32x32x24", 32, 24),
    ] {
        let x = random_matrix(32, k, &mut rng);
        let weights = random_matrix(k, w, &mut rng);
        let bias: Vec<f32> = (0..w).map(|_| rng.gauss() as f32).collect();
        group.bench_function(id, |bch| {
            bch.iter(|| black_box(&x).affine_into(black_box(&weights), &bias, true, &mut out))
        });
    }
    group.finish();
}

fn bench_tiny_run(c: &mut Criterion) {
    let config = RunConfig {
        duration: SimDuration::from_secs(20),
        num_apps: 2,
        seed: 1,
        ..RunConfig::default()
    };
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function("tiny_run_2apps_20s", |b| {
        b.iter(|| black_box(run(config.clone())))
    });
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_tiny_run);
criterion_main!(benches);
