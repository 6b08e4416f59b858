//! Criterion micro-benchmarks for the §3.2 drift pipeline.
//!
//! * `drift/detect_uncached` — one full `detect_drift` over a drifted
//!   multi-model application (fresh artifacts every call, the cost a
//!   scheduler without the artifact cache pays per period and app).
//! * `drift/detect_plus_retrain_cached` — a period's worth of scheduler
//!   work through a shared [`DriftCache`]: detection plus one
//!   retraining-order lookup per node, paying for each node's
//!   feature/PCA/ranking artifacts once.
//! * `drift/retrain_order_single_node` — the standalone §3.3.2
//!   deviation-ordered retraining selection for one node.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use adainf_apps::{catalog, AppRuntime};
use adainf_core::drift_cache::{build_retrain_order, DetectScratch, DriftCache};
use adainf_core::drift_detect::{detect_drift, detect_drift_cached};
use adainf_core::AdaInfConfig;
use adainf_driftgen::workload::ArrivalConfig;
use adainf_simcore::Prng;

fn drifted_runtime(periods: usize) -> AppRuntime {
    let root = Prng::new(314);
    let mut rt = AppRuntime::new(
        catalog::video_surveillance(0),
        ArrivalConfig::default(),
        800,
        &root,
    );
    for _ in 0..periods {
        rt.advance_period();
    }
    rt
}

fn bench_drift(c: &mut Criterion) {
    let mut group = c.benchmark_group("drift");
    group.sample_size(10);

    let rt = drifted_runtime(3);
    let config = AdaInfConfig::default();
    let root = Prng::new(7);

    group.bench_function("detect_uncached", |b| {
        b.iter(|| black_box(detect_drift(black_box(&rt), &config, &root)))
    });

    group.bench_function("detect_plus_retrain_cached", |b| {
        b.iter(|| {
            let mut cache = DriftCache::default();
            let report = detect_drift_cached(&rt, 0, &config, &mut cache, &root);
            for node in 0..rt.spec.nodes.len() {
                black_box(
                    cache
                        .artifacts(0, &rt, node, config.pca_components, &root)
                        .retrain
                        .len(),
                );
            }
            black_box(report)
        })
    });

    group.bench_function("retrain_order_single_node", |b| {
        let mut scratch = DetectScratch::default();
        b.iter(|| {
            black_box(build_retrain_order(
                &rt,
                1,
                config.pca_components,
                &root,
                &mut scratch,
            ))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_drift);
criterion_main!(benches);
