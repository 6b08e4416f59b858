//! Criterion micro-benchmarks for the §3.2 drift pipeline.
//!
//! * `drift/detect_uncached` — one full `detect_drift` over a drifted
//!   multi-model application (fresh artifacts every call, the cost a
//!   scheduler without the artifact cache pays per period and app).
//! * `drift/detect_plus_retrain_cached` — a period's worth of scheduler
//!   work through a shared [`DriftCache`]: detection plus one
//!   retraining-order lookup per node, paying for each node's
//!   feature/PCA/ranking artifacts once.
//! * `drift/period_boundary_3apps` — one whole period boundary of a
//!   three-app set at the paper's 6000-sample pools: every runtime
//!   advances (held-out and evaluation sets drawn, pools deferred), and
//!   every node's artifacts are rebuilt at width 1 as the scheduler
//!   rebuilds them — fitted on the old sets, which are then freed, and
//!   ranked on the pools drawn after them — and then retired with the
//!   old held-out sets freed, as the scheduler retires them once read:
//!   the steady state, with each build warm-started from the previous
//!   period's retired basis.
//! * `driftgen/sample_6000` — one 6000-sample retraining-pool draw.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use adainf_apps::{catalog, AppRuntime};
use adainf_core::drift_cache::DriftCache;
use adainf_core::drift_detect::{detect_drift, detect_drift_cached};
use adainf_core::AdaInfConfig;
use adainf_driftgen::workload::ArrivalConfig;
use adainf_driftgen::{TaskStream, TaskStreamConfig};
use adainf_simcore::Prng;

/// The paper workload's retraining-pool size per node.
const PAPER_POOL: usize = 6000;

/// Advances every runtime one period, then rebuilds every node's drift
/// artifacts the way the scheduler's boundary does (here on one
/// worker): fit on the old sets, free them, draw the pools, rank; and
/// retires them to their warm-start bases, freeing the held-out sets.
fn period_boundary(apps: &mut [AppRuntime], cache: &mut DriftCache, pca: usize, root: &Prng) {
    for rt in apps.iter_mut() {
        rt.advance_period();
    }
    let jobs: Vec<(usize, usize)> = apps
        .iter()
        .enumerate()
        .flat_map(|(a, rt)| (0..rt.spec.nodes.len()).map(move |n| (a, n)))
        .collect();
    let fits = cache.fit_stale(&jobs, apps, pca, root, 1);
    for rt in apps.iter_mut() {
        rt.free_old_samples();
        rt.draw_pools();
    }
    cache.rank_stale(fits, apps, 1);
    cache.retire();
    for rt in apps.iter_mut() {
        rt.free_ref_samples();
    }
}

/// A runtime `periods` boundaries in, its pools drawn.
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
    rt.draw_pools();
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

    group.bench_function("period_boundary_3apps", |b| {
        let root = Prng::new(42);
        let mut apps: Vec<AppRuntime> = catalog::apps_for_count(3)
            .into_iter()
            .map(|spec| AppRuntime::new(spec, ArrivalConfig::default(), PAPER_POOL, &root))
            .collect();
        let mut cache = DriftCache::default();
        // One boundary first, so every measured build has a warm basis.
        period_boundary(&mut apps, &mut cache, config.pca_components, &root);
        b.iter(|| period_boundary(&mut apps, &mut cache, config.pca_components, &root));
        black_box(cache.warm_starts);
    });

    group.finish();

    let mut group = c.benchmark_group("driftgen");
    group.bench_function("sample_6000", |b| {
        let root = Prng::new(42);
        let config = TaskStreamConfig::new("bench", 6, 1).with_drift(0.3, 0.2);
        let mut stream = TaskStream::new(config, &root);
        b.iter(|| black_box(stream.sample(PAPER_POOL)))
    });
    group.finish();
}

criterion_group!(benches, bench_drift);
criterion_main!(benches);
