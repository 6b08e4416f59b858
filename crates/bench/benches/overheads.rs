//! Criterion micro-benchmarks for the Table 1 CPU-side overheads.
//!
//! * `session_scheduling/*` — one AdaInf/Ekya/Scrooge `on_session` call
//!   for an 8-application session (the paper's AdaInf takes ~2 ms, Ekya's
//!   period heuristic 8.4 s, Scrooge's optimiser 100 ms; our in-simulator
//!   decision paths are far cheaper, but their *relative* cost ordering
//!   is preserved). The scenario lives in `adainf_bench::decision_bench`.
//! * `period_planning/*` — drift detection + RI-DAG generation for the
//!   8-app deployment (the "periodical DAG update").
//! * `memory/eviction` — priority-eviction throughput of the GPU memory
//!   manager under thrash.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use adainf_bench::decision_bench;
use adainf_core::drift_detect::detect_drift;
use adainf_core::AdaInfConfig;
use adainf_gpusim::content::{ContentKey, TaskContext};
use adainf_gpusim::memory::AccessIntent;
use adainf_gpusim::{EvictionPolicyKind, GpuMemory, MemoryConfig};
use adainf_simcore::{Prng, SimTime};

fn bench_session_scheduling(c: &mut Criterion) {
    decision_bench::bench_session_scheduling(c);
}

fn bench_period_planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("period_planning");
    group.sample_size(10);
    group.bench_function("drift_detection_8_apps", |b| {
        let mut apps = decision_bench::Scenario::standard().apps;
        // In a run each retiring pool was read in its period, so the
        // drift build finds its old training sets drawn.
        for set in apps.iter_mut().flat_map(|rt| &mut rt.retired) {
            set.train.draw();
        }
        let config = AdaInfConfig::default();
        let rng = Prng::new(1);
        b.iter(|| {
            for rt in &mut apps {
                black_box(detect_drift(rt, &config, &rng));
            }
        })
    });
    group.finish();
}

fn bench_memory_eviction(c: &mut Criterion) {
    c.bench_function("memory/eviction_thrash", |b| {
        let mut mem = GpuMemory::new(MemoryConfig {
            gpu_capacity: 10_000_000,
            pin_capacity: 2_000_000,
            policy: EvictionPolicyKind::Priority,
            ..MemoryConfig::default()
        });
        let mut clock = 0u64;
        b.iter(|| {
            clock += 1;
            // Rotating working set twice the capacity → every access
            // evicts.
            let key = ContentKey::param(1, (clock % 40) as u32, 0);
            black_box(mem.access(
                key,
                500_000,
                TaskContext::Inference,
                clock,
                0,
                400.0,
                AccessIntent::Fetch,
                SimTime::from_micros(clock),
            ))
        })
    });
}

criterion_group!(
    benches,
    bench_session_scheduling,
    bench_period_planning,
    bench_memory_eviction
);
criterion_main!(benches);
