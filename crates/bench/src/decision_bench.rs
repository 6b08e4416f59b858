//! Shared decision-latency measurement for Table 1 and the criterion
//! benches.
//!
//! Table 1's "session scheduling" column is a *measured* number: one
//! `on_session` call on the standard 8-application deployment, timed by
//! the criterion harness. The `benches/overheads.rs` benchmark target
//! and the `table1` binary both call into this module so the reported
//! latency and the standalone bench are literally the same code path.

use criterion::Criterion;
use std::hint::black_box;
use std::time::Duration;

use adainf_apps::{apps_for_count, AppRuntime, AppSpec};
use adainf_baselines::{EkyaScheduler, ScroogeScheduler};
use adainf_core::plan::{Scheduler, SessionCtx};
use adainf_core::profiler::Profiler;
use adainf_core::{AdaInfConfig, AdaInfScheduler};
use adainf_driftgen::workload::ArrivalConfig;
use adainf_gpusim::GpuSpec;
use adainf_simcore::{Prng, SimDuration, SimTime};

/// The fixed 8-application scenario every decision bench runs against.
pub struct Scenario {
    /// Application runtimes, advanced two periods so drift is present.
    pub apps: Vec<AppRuntime>,
    /// The per-app specs (what schedulers are constructed from).
    pub specs: Vec<AppSpec>,
    /// A 4-GPU edge server.
    pub server: GpuSpec,
    /// Predicted per-app arrivals for the next session.
    pub predicted: Vec<u32>,
    /// Remaining retraining-pool samples per (app, node).
    pub pools: Vec<Vec<usize>>,
}

impl Scenario {
    /// Builds the standard deployment: 8 apps, two periods in, 4 GPUs.
    pub fn standard() -> Self {
        let root = Prng::new(42);
        let mut apps: Vec<AppRuntime> = apps_for_count(8)
            .into_iter()
            .map(|s| AppRuntime::new(s, ArrivalConfig::default(), 1000, &root))
            .collect();
        for rt in &mut apps {
            rt.advance_period();
            rt.advance_period();
        }
        let specs = apps.iter().map(|a| a.spec.clone()).collect();
        let pools = apps
            .iter()
            .map(|rt| rt.pools.iter().map(|p| p.remaining()).collect())
            .collect();
        Scenario {
            apps,
            specs,
            server: GpuSpec::with_gpus(4),
            predicted: vec![32u32; 8],
            pools,
        }
    }

    /// The session context handed to every scheduler under test.
    pub fn ctx(&self, now: SimTime) -> SessionCtx<'_> {
        SessionCtx {
            now,
            predicted: &self.predicted,
            server: &self.server,
            free_gpus: 4.0,
            avg_job_time: SimDuration::from_millis(60),
            pool_remaining: &self.pools,
        }
    }
}

/// Benches one `on_session` call per method (`session_scheduling/*`).
pub fn bench_session_scheduling(c: &mut Criterion) {
    let mut s = Scenario::standard();
    let mut group = c.benchmark_group("session_scheduling");
    {
        let mut sched = AdaInfScheduler::new(
            AdaInfConfig::default(),
            Profiler::default(),
            s.specs.clone(),
            7,
        );
        sched.on_period_start(&mut s.apps, &s.server, SimTime::ZERO);
        let ctx = s.ctx(SimTime::ZERO);
        group.bench_function("adainf", |b| {
            b.iter(|| black_box(sched.on_session(black_box(&ctx))))
        });
    }
    {
        let mut sched = EkyaScheduler::new(Profiler::default(), s.specs.clone());
        sched.on_period_start(&mut s.apps, &s.server, SimTime::ZERO);
        let ctx = s.ctx(SimTime::from_secs(1));
        group.bench_function("ekya", |b| {
            b.iter(|| black_box(sched.on_session(black_box(&ctx))))
        });
    }
    {
        let mut sched = ScroogeScheduler::new(Profiler::default(), s.specs.clone());
        sched.on_period_start(&mut s.apps, &s.server, SimTime::ZERO);
        let ctx = s.ctx(SimTime::from_secs(1));
        group.bench_function("scrooge", |b| {
            b.iter(|| black_box(sched.on_session(black_box(&ctx))))
        });
    }
    group.finish();
}

/// Runs the `session_scheduling/*` bench with a short embedded window
/// and returns `(method name, mean µs per decision)` rows, method names
/// matching `RunMetrics::name` ("AdaInf", "Ekya", "Scrooge").
pub fn measured_decision_latency_us() -> Vec<(String, f64)> {
    let mut c = Criterion::embedded(Duration::from_millis(120));
    bench_session_scheduling(&mut c);
    c.results()
        .iter()
        .map(|(id, ns)| {
            let name = match id.rsplit('/').next().unwrap_or(id) {
                "adainf" => "AdaInf",
                "ekya" => "Ekya",
                "scrooge" => "Scrooge",
                other => other,
            };
            (name.to_string(), ns / 1e3)
        })
        .collect()
}
