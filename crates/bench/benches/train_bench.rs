//! Criterion micro-benchmarks for the retraining backward pass.
//!
//! * `train/train_slice`, `train/train_slice_12_classes` — one staged
//!   per-(app, node) retraining slice through an external
//!   [`TrainSliceScratch`], the exact unit of work the period-boundary
//!   fan-out deals to its pool workers, for a 6-class model (heads
//!   padded to 8 lanes) and a 12-class one (16 lanes).
//! * `train/score_exits_400` — scoring every head exit of a deployed
//!   model on a 400-row evaluation set in one trunk pass, the work a
//!   node's first accuracy read in a period does.
//! * `train/score_one_exit_400` — scoring the full-structure exit alone
//!   on the same set, the work a later accuracy-cache miss does.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use adainf_driftgen::{TaskStream, TaskStreamConfig};
use adainf_modelzoo::head::HEAD_EXITS;
use adainf_modelzoo::{zoo, TrainSliceScratch, TrainableModel};
use adainf_nn::InferScratch;
use adainf_simcore::Prng;

fn training_batch(n: usize) -> adainf_driftgen::LabeledSamples {
    class_batch(n, 6)
}

fn class_batch(n: usize, classes: usize) -> adainf_driftgen::LabeledSamples {
    let root = Prng::new(77);
    let mut stream = TaskStream::new(
        TaskStreamConfig::new("vehicle", classes, 9).with_drift(0.4, 0.2),
        &root,
    );
    stream.sample(n)
}

fn bench_train(c: &mut Criterion) {
    let mut group = c.benchmark_group("train");
    group.sample_size(10);

    let root = Prng::new(77);
    let batch = training_batch(400);

    let batch_12 = class_batch(400, 12);
    for (id, classes, batch) in [
        ("train_slice", 6, &batch),
        ("train_slice_12_classes", 12, &batch_12),
    ] {
        group.bench_function(id, |b| {
            let mut rng = root.split(1);
            let mut model = TrainableModel::new(zoo::mobilenet_v2(), classes, &mut rng);
            let mut scratch = TrainSliceScratch::default();
            b.iter(|| {
                model.train_slice_with(black_box(batch), 1, &mut scratch);
                black_box(model.version())
            })
        });
    }

    let mut rng = root.split(4);
    let mut model = TrainableModel::new(zoo::mobilenet_v2(), 6, &mut rng);
    model.train_slice(&batch, 2);
    let eval = training_batch(400);
    let mut scratch = InferScratch::default();
    let mut accs = [0.0; HEAD_EXITS];
    for (id, exits) in [("score_exits_400", 0b111), ("score_one_exit_400", 0b100)] {
        group.bench_function(id, |b| {
            b.iter(|| {
                model.score_exits(black_box(&eval), exits, &mut scratch, &mut accs);
                black_box(accs)
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_train);
criterion_main!(benches);
