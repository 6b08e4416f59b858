//! Criterion micro-benchmarks for the §3.2 drift pipeline.
//!
//! * `drift/detect_uncached` — one full `detect_drift` over a drifted
//!   multi-model application: every node's artifacts built cold, then
//!   the `S`-growth loop — the drift work a boundary does for one
//!   detecting app, with cold fits.
//! * `drift/period_boundary_3apps` — one whole period boundary of a
//!   three-app set at the paper's 6000-sample pools: every runtime
//!   advances (held-out and evaluation sets drawn, pools deferred), and
//!   every node's artifacts are built at width 1 by the scheduler's
//!   two-phase build — fitted on the retired sets it takes, whose
//!   training sets drop with the fits, and ranked on the pools drawn
//!   after them — and the table, with the old held-out sets, is dropped
//!   to its warm-start bases, as the scheduler drops it once read: the
//!   steady state, with each build warm-started from the previous
//!   boundary's basis.
//! * `driftgen/sample_6000` — one 6000-sample retraining-pool draw.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use adainf_apps::{catalog, AppRuntime};
use adainf_core::drift_artifacts::WarmBases;
use adainf_core::drift_detect::detect_drift;
use adainf_core::AdaInfConfig;
use adainf_driftgen::workload::ArrivalConfig;
use adainf_driftgen::{TaskStream, TaskStreamConfig};
use adainf_simcore::Prng;

/// The paper workload's retraining-pool size per node.
const PAPER_POOL: usize = 6000;

/// Advances every runtime one period, then builds every node's drift
/// artifacts the way the scheduler's boundary does (here on one
/// worker): fit on the retired sets, draw the pools, rank; and drops
/// the table to its warm-start bases.
fn period_boundary(apps: &mut [AppRuntime], warm: &mut WarmBases, root: &Prng) {
    for rt in apps.iter_mut() {
        rt.advance_period();
    }
    let jobs: Vec<(usize, usize)> = apps
        .iter()
        .enumerate()
        .flat_map(|(a, rt)| (0..rt.spec.nodes.len()).map(move |n| (a, n)))
        .collect();
    let retired = apps
        .iter_mut()
        .flat_map(|rt| std::mem::take(&mut rt.retired))
        .collect();
    let fits = warm.fit(&jobs, retired, apps, root, 1);
    for pool in apps.iter_mut().flat_map(|rt| &mut rt.pools) {
        pool.draw();
    }
    let table = fits.rank(apps, 1);
    warm.keep(&jobs, apps, table);
}

/// A runtime `periods` boundaries in, its retired training sets drawn,
/// as a run's drift build finds them.
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
    for set in &mut rt.retired {
        set.train.draw();
    }
    rt
}

fn bench_drift(c: &mut Criterion) {
    let mut group = c.benchmark_group("drift");
    group.sample_size(10);

    let mut rt = drifted_runtime(3);
    let config = AdaInfConfig::default();
    let root = Prng::new(7);

    group.bench_function("detect_uncached", |b| {
        b.iter(|| black_box(detect_drift(black_box(&mut rt), &config, &root)))
    });

    group.bench_function("period_boundary_3apps", |b| {
        let root = Prng::new(42);
        let mut apps: Vec<AppRuntime> = catalog::apps_for_count(3)
            .into_iter()
            .map(|spec| AppRuntime::new(spec, ArrivalConfig::default(), PAPER_POOL, &root))
            .collect();
        let mut warm = WarmBases::default();
        // One boundary first, so every measured build has a warm basis.
        period_boundary(&mut apps, &mut warm, &root);
        b.iter(|| period_boundary(&mut apps, &mut warm, &root));
        black_box(warm);
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
