//! Cross-crate integration tests: the full pipeline from drift generation
//! through scheduling to metric collection, plus the paper's headline
//! orderings at reduced scale.
//!
//! The tests only read results, so every run they read is declared once
//! in [`runs`] and run once for the whole file.

use adainf::core::plan::Scheduler;
use adainf::core::profiler::Profiler;
use adainf::core::{AdaInfConfig, AdaInfScheduler, Variant};
use adainf::driftgen::workload::ArrivalConfig;
use adainf::gpusim::{EvictionPolicyKind, ExecMode, GpuSpec};
use adainf::harness::sim::{Method, RunConfig};
use adainf::harness::{RunMetrics, RunSet};
use adainf::simcore::{Prng, SimDuration, SimTime};
use std::sync::OnceLock;

/// The calibrated contention regime at a reduced horizon: the paper's
/// orderings need the default 8-application load (with fewer apps each
/// application has GPU to spare and the methods converge).
fn small(method: Method) -> RunConfig {
    RunConfig {
        seed: 4242,
        duration: SimDuration::from_secs(300),
        method,
        ..RunConfig::default()
    }
}

/// [`small`] under AdaInf configured as `config`.
fn small_adainf(config: AdaInfConfig) -> RunConfig {
    small(Method::AdaInf(config))
}

/// [`small`] AdaInf at 150 s.
fn short() -> RunConfig {
    RunConfig {
        duration: SimDuration::from_secs(150),
        ..small_adainf(AdaInfConfig::default())
    }
}

/// [`short`] with CPU offload of sessions predicting ≤ 4 requests.
fn cpu_offload() -> RunConfig {
    short().with_method(Method::AdaInf(AdaInfConfig {
        cpu_offload_threshold: 4,
        ..AdaInfConfig::default()
    }))
}

/// [`short`] on a 2×1.0 + 4×0.5 fleet.
fn hetero_fleet() -> RunConfig {
    RunConfig {
        device_factors: vec![1.0, 1.0, 0.5, 0.5, 0.5, 0.5].into(),
        ..short()
    }
}

/// An ablation variant on two apps for 100 s.
fn variant(v: Variant) -> RunConfig {
    RunConfig {
        duration: SimDuration::from_secs(100),
        num_apps: 2,
        pool_size: 400,
        ..small_adainf(v.into())
    }
}

const VARIANTS: [Variant; 6] = [
    Variant::I,
    Variant::U,
    Variant::S,
    Variant::E,
    Variant::M1,
    Variant::M2,
];

/// Every run the tests read, each distinct one run once, largest first.
fn runs() -> &'static RunSet {
    static RUNS: OnceLock<RunSet> = OnceLock::new();
    RUNS.get_or_init(|| {
        let mut configs = vec![
            RunConfig {
                num_apps: 14,
                ..small_adainf(AdaInfConfig::default())
            },
            small_adainf(AdaInfConfig::default()),
            small(Method::Ekya),
            small(Method::Scrooge),
            small(Method::ScroogeStar),
            small_adainf(Variant::NoRetraining.into()),
            RunConfig {
                seed: 1,
                ..small_adainf(AdaInfConfig::default())
            },
            RunConfig {
                seed: 2,
                ..small_adainf(AdaInfConfig::default())
            },
            short(),
            cpu_offload(),
            hetero_fleet(),
            RunConfig {
                num_apps: 2,
                ..small_adainf(AdaInfConfig::default())
            },
        ];
        configs.extend(VARIANTS.map(variant));
        RunSet::new(configs).run()
    })
}

/// The result of a run [`runs`] declares.
fn run(config: RunConfig) -> &'static RunMetrics {
    runs().get(&config)
}

#[test]
fn adainf_beats_ekya_on_both_axes() {
    let adainf = run(small_adainf(AdaInfConfig::default()));
    let ekya = run(small(Method::Ekya));
    assert!(
        adainf.mean_accuracy() > ekya.mean_accuracy(),
        "accuracy: AdaInf {} vs Ekya {}",
        adainf.mean_accuracy(),
        ekya.mean_accuracy()
    );
    assert!(
        adainf.mean_finish_rate() > ekya.mean_finish_rate() + 0.2,
        "finish: AdaInf {} vs Ekya {}",
        adainf.mean_finish_rate(),
        ekya.mean_finish_rate()
    );
}

#[test]
fn adainf_beats_scrooge_on_accuracy() {
    let adainf = run(small_adainf(AdaInfConfig::default()));
    let scrooge = run(small(Method::Scrooge));
    assert!(
        adainf.mean_accuracy() > scrooge.mean_accuracy() + 0.02,
        "accuracy: AdaInf {} vs Scrooge {}",
        adainf.mean_accuracy(),
        scrooge.mean_accuracy()
    );
    // Scrooge is SLO-aware: its finish rate stays high.
    assert!(scrooge.mean_finish_rate() > 0.9);
    // And it ships data to the cloud, AdaInf does not.
    assert!(scrooge.edge_cloud_bytes > 0);
    assert_eq!(adainf.edge_cloud_bytes, 0);
}

#[test]
fn retraining_beats_no_retraining() {
    let with = run(small_adainf(AdaInfConfig::default()));
    let without = run(small_adainf(Variant::NoRetraining.into()));
    assert!(
        with.mean_accuracy() > without.mean_accuracy() + 0.03,
        "with {} vs without {}",
        with.mean_accuracy(),
        without.mean_accuracy()
    );
}

#[test]
fn scrooge_star_close_to_scrooge() {
    // §5.1: "Scrooge* performs similarly to Scrooge".
    let scrooge = run(small(Method::Scrooge));
    let star = run(small(Method::ScroogeStar));
    assert!((scrooge.mean_accuracy() - star.mean_accuracy()).abs() < 0.05);
    assert!((scrooge.mean_finish_rate() - star.mean_finish_rate()).abs() < 0.15);
}

#[test]
fn all_methods_fully_utilize_the_gpus() {
    // Fig 21: every method shows ~100 % smi-style utilization.
    for method in [
        Method::AdaInf(AdaInfConfig::default()),
        Method::Ekya,
        Method::Scrooge,
    ] {
        let m = run(small(method));
        let mean: f64 = m.utilization.iter().sum::<f64>() / m.utilization.len() as f64;
        assert!(mean > 0.95, "{}: utilization {mean}", m.name);
    }
}

#[test]
fn memory_strategy_ablations_order_comm_inflation() {
    // The measured communication inflation must order the strategy pairs
    // as Fig 22 orders the ablations: AdaInf < M2-off < M1-off < both-off.
    use adainf::core::profiler::measure_inflation;
    let cap = 9_000_000;
    let full = measure_inflation(ExecMode::LayerGrouped, EvictionPolicyKind::Priority, 3, cap);
    let no_m2 = measure_inflation(ExecMode::LayerGrouped, EvictionPolicyKind::Lru, 3, cap);
    let no_m1 = measure_inflation(ExecMode::PerRequest, EvictionPolicyKind::Priority, 3, cap);
    let none = measure_inflation(ExecMode::PerRequest, EvictionPolicyKind::Lru, 3, cap);
    assert!(full <= no_m2 + 0.02, "full {full} vs no_m2 {no_m2}");
    assert!(no_m2 < no_m1 + 0.1, "no_m2 {no_m2} vs no_m1 {no_m1}");
    assert!(full < none, "full {full} vs none {none}");
}

#[test]
fn scheduler_state_survives_many_periods() {
    // Drive the scheduler hooks directly across ten periods; plans must
    // stay well-formed throughout.
    let root = Prng::new(5);
    let specs = adainf::apps::apps_for_count(3);
    let mut apps: Vec<_> = specs
        .iter()
        .cloned()
        .map(|s| adainf::apps::AppRuntime::new(s, ArrivalConfig::default(), 500, &root))
        .collect();
    let server = GpuSpec::with_gpus(4);
    let mut sched = AdaInfScheduler::new(
        AdaInfConfig::default(),
        Profiler::default(),
        specs.clone(),
        1,
    );
    for period in 0..10u64 {
        let now = SimTime::from_secs(period * 50);
        let plan = sched.on_period_start(&mut apps, &server, now);
        assert_eq!(plan.apps.len(), 3);
        let predicted = vec![24u32; 3];
        let pools: Vec<Vec<usize>> = apps
            .iter()
            .map(|rt| rt.pools.iter().map(|p| p.remaining()).collect())
            .collect();
        let ctx = adainf::core::plan::SessionCtx {
            now,
            predicted: &predicted,
            server: &server,
            free_gpus: 4.0,
            avg_job_time: SimDuration::from_millis(80),
            pool_remaining: &pools,
        };
        for job in sched.on_session(&ctx) {
            assert!(job.gpu > 0.0 && job.gpu <= 1.0);
            assert!(job.batch >= 1);
            assert_eq!(job.cuts.len(), specs[job.app].nodes.len());
            for (node, &cut) in job.cuts.iter().enumerate() {
                assert!(cut < specs[job.app].nodes[node].profile.num_layers());
            }
        }
        for rt in &mut apps {
            rt.advance_period();
        }
    }
}

#[test]
fn app_count_scaling_degrades_gracefully() {
    // Figs 18b/19b: more applications → accuracy and finish do not
    // improve; nothing panics up to the full 14-app catalogue.
    let few = run(RunConfig {
        num_apps: 2,
        ..small_adainf(AdaInfConfig::default())
    });
    let many = run(RunConfig {
        num_apps: 14,
        ..small_adainf(AdaInfConfig::default())
    });
    assert!(many.total_requests > few.total_requests);
    assert!(few.mean_finish_rate() >= many.mean_finish_rate() - 0.05);
}

#[test]
fn seeds_change_realisations_but_not_shape() {
    let a = run(RunConfig {
        seed: 1,
        ..small_adainf(AdaInfConfig::default())
    });
    let b = run(RunConfig {
        seed: 2,
        ..small_adainf(AdaInfConfig::default())
    });
    assert_ne!(a.total_requests, b.total_requests);
    for m in [a, b] {
        assert!(
            m.mean_accuracy() > 0.6,
            "accuracy collapsed: {}",
            m.mean_accuracy()
        );
        assert!(m.mean_finish_rate() > 0.8);
    }
}

#[test]
fn extension_features_run_end_to_end() {
    // §6 extensions: CPU offload and a heterogeneous fleet both run and
    // stay within a sane band of the baseline.
    let baseline = run(short());
    for m in [run(cpu_offload()), run(hetero_fleet())] {
        assert!(
            (m.mean_accuracy() - baseline.mean_accuracy()).abs() < 0.08,
            "{}: {} vs baseline {}",
            m.name,
            m.mean_accuracy(),
            baseline.mean_accuracy()
        );
        assert!(m.mean_finish_rate() > 0.9);
    }
}

#[test]
fn per_app_latency_percentiles_are_ordered() {
    let m = run(short());
    for app in 0..m.per_app_latency.len() {
        let (p50, p95, p99) = m.latency_percentiles(app);
        assert!(p50 <= p95 && p95 <= p99, "app {app}: {p50} {p95} {p99}");
        assert!(p99 < 2000.0);
    }
}

#[test]
fn variant_configs_run_end_to_end() {
    for v in VARIANTS {
        let name = v.name();
        let m = run(variant(v));
        assert_eq!(m.name, name);
        assert!(m.mean_accuracy() > 0.4, "{name}: {}", m.mean_accuracy());
    }
}
