//! The chaos suite: fault injection and graceful degradation.
//!
//! Three families of guarantees:
//!
//! 1. **Golden neutrality** — arming the chaos machinery with an empty
//!    fault spec reproduces the pristine goldens of `tests/golden.rs`
//!    bit for bit: the injection points are strictly gated and add
//!    exact-zero durations on the untaken branches.
//! 2. **Per-scenario bounds** — each fault family's scenario holds its
//!    documented finish-rate floor (see EXPERIMENTS.md) and actually
//!    exercises its degradation path (sheds, storms, retries,
//!    starvation), with no panic or invariant trip; CI runs this file
//!    under `strict-invariants`.
//! 3. **Chaos determinism** — a faulted run is still a deterministic
//!    function of the seed.

use adainf::core::AdaInfConfig;
use adainf::driftgen::FaultSpec;
use adainf::harness::chaos::{report, run_scenario, run_suite, SCENARIOS};
use adainf::harness::sim::{run, ChaosConfig, Method, RunConfig};
use adainf::simcore::SimDuration;

fn config(method: Method, seed: u64) -> RunConfig {
    RunConfig {
        method,
        seed,
        num_apps: 3,
        duration: SimDuration::from_secs(60),
        ..RunConfig::default()
    }
}

/// Armed-but-empty chaos must reproduce the pristine goldens of
/// `tests/golden.rs` bit for bit (`chaos: Some` with an empty spec
/// builds no runtime; the injection points never fire).
#[test]
fn empty_fault_spec_reproduces_pristine_goldens() {
    let goldens = [
        (
            11u64,
            1725130u64,
            0.9031915247768613f64,
            0.9992656108706952f64,
        ),
        (23, 1518908, 0.9093875812740043, 0.9998909458453026),
        (47, 1392262, 0.9090062030500701, 0.9991235715669184),
    ];
    for &(seed, requests, accuracy, finish) in &goldens {
        let mut cfg = config(Method::AdaInf(AdaInfConfig::default()), seed);
        cfg.chaos = Some(ChaosConfig::scenario(FaultSpec::none(seed)));
        let m = run(cfg);
        let s = m.summary();
        assert_eq!(m.total_requests, requests, "seed {seed}: total_requests");
        assert_eq!(
            s.mean_accuracy.to_bits(),
            accuracy.to_bits(),
            "seed {seed}: mean_accuracy {} != golden {accuracy}",
            s.mean_accuracy
        );
        assert_eq!(
            s.mean_finish_rate.to_bits(),
            finish.to_bits(),
            "seed {seed}: mean_finish_rate {} != golden {finish}",
            s.mean_finish_rate
        );
        assert_eq!(m.fault_sessions, 0);
        assert_eq!(m.shed_requests, 0);
    }
}

/// Every scenario holds its documented finish floor, and no injection
/// point panics or trips a `strict-invariants` assert.
#[test]
fn scenarios_hold_their_documented_floors() {
    let outcomes = run_suite(11);
    let table = report(&outcomes);
    for o in &outcomes {
        assert!(
            o.passed,
            "{} violated its bound: finish {} < floor {}\n{table}",
            o.name, o.finish_rate, o.finish_floor
        );
    }
}

/// Request bursts beyond profiled capacity engage admission control:
/// requests are shed up front instead of collapsing the finish rate.
#[test]
fn rate_burst_sheds_instead_of_collapsing() {
    let o = run_scenario(&SCENARIOS[1], 11);
    assert_eq!(o.name, "rate-burst");
    assert!(o.fault_sessions > 0, "no burst window fired");
    assert!(o.shed_requests > 0, "admission control never shed");
    assert!(o.passed, "finish {} < {}", o.finish_rate, o.finish_floor);
}

/// Memory-pressure spikes force eviction storms; parameter reloads are
/// retried a bounded number of times and give up into degraded serving.
#[test]
fn memory_pressure_storms_and_bounded_reloads() {
    let o = run_scenario(&SCENARIOS[2], 11);
    assert_eq!(o.name, "memory-pressure");
    assert!(o.eviction_storms >= 1, "no pressure window opened");
    assert!(o.storm_evictions > 0, "storm evicted nothing");
    assert!(o.passed, "finish {} < {}", o.finish_rate, o.finish_floor);
}

/// Pool starvation destroys retraining samples mid-period; serving
/// continues and the finish rate barely moves (retraining is the only
/// casualty).
#[test]
fn pool_starvation_destroys_samples_not_serving() {
    let o = run_scenario(&SCENARIOS[3], 11);
    assert_eq!(o.name, "pool-starvation");
    assert!(o.starved_samples > 0, "no samples starved");
    assert!(o.passed, "finish {} < {}", o.finish_rate, o.finish_floor);
}

/// Transient device stalls inflate kernel latency; degradation (shed +
/// inference-only fallback) keeps the run above its floor.
#[test]
fn device_stall_degrades_gracefully() {
    let o = run_scenario(&SCENARIOS[4], 11);
    assert_eq!(o.name, "device-stall");
    assert!(o.fault_sessions > 0, "no stall window fired");
    assert!(o.passed, "finish {} < {}", o.finish_rate, o.finish_floor);
}

/// Predicted-latency admission through device-stall windows: the stall
/// is a regime change the online model must track. The scenario holds
/// its documented floor (admission on a temporarily mis-calibrated
/// model degrades instead of collapsing), calibration actually ran, and
/// the forgetting factor pulls the error back down — last-quartile
/// relative error beats the first quartile's warm-up-and-stall error.
#[test]
fn device_stall_predicted_reconverges() {
    let o = run_scenario(&SCENARIOS[5], 11);
    assert_eq!(o.name, "device-stall-predicted");
    assert!(o.fault_sessions > 0, "no stall window fired");
    assert!(o.passed, "finish {} < {}", o.finish_rate, o.finish_floor);
    assert!(
        o.predicted_latency_mae_us > 0.0 && o.predicted_latency_mae_us.is_finite(),
        "calibration never ran: MAE {}",
        o.predicted_latency_mae_us
    );
    assert!(
        (0.0..=1.0).contains(&o.headroom_violation_rate),
        "violation rate {}",
        o.headroom_violation_rate
    );
    assert!(
        o.predicted_rel_err_last_q < o.predicted_rel_err_first_q,
        "no re-convergence: first-quartile rel err {} ≤ last-quartile {}",
        o.predicted_rel_err_first_q,
        o.predicted_rel_err_last_q
    );
}

/// The pool width stays invisible with chaos armed: fault injection
/// perturbs pools, model versions and period timing, and four drift and
/// training workers must still reproduce the one-worker run bit for bit.
#[test]
fn parallel_drift_build_matches_sequential_under_chaos() {
    let make = |workers: usize| {
        let mut cfg = config(
            Method::AdaInf(AdaInfConfig {
                drift_workers: workers,
                ..AdaInfConfig::default()
            }),
            11,
        );
        cfg.train_workers = workers;
        cfg.chaos = Some(ChaosConfig::scenario(FaultSpec::chaos(11)));
        run(cfg)
    };
    let (p, s) = (make(4), make(1));
    assert_eq!(p.total_requests, s.total_requests);
    assert_eq!(p.shed_requests, s.shed_requests);
    assert_eq!(p.fault_sessions, s.fault_sessions);
    assert_eq!(p.storm_evictions, s.storm_evictions);
    assert_eq!(
        p.summary().mean_accuracy.to_bits(),
        s.summary().mean_accuracy.to_bits()
    );
    assert_eq!(
        p.summary().mean_finish_rate.to_bits(),
        s.summary().mean_finish_rate.to_bits()
    );
}

/// A faulted run is bit-for-bit deterministic in its seed.
#[test]
fn chaos_runs_are_deterministic() {
    let make = || {
        let mut cfg = config(Method::AdaInf(AdaInfConfig::default()), 11);
        cfg.chaos = Some(ChaosConfig::scenario(FaultSpec::chaos(11)));
        run(cfg)
    };
    let (a, b) = (make(), make());
    assert_eq!(a.total_requests, b.total_requests);
    assert_eq!(a.shed_requests, b.shed_requests);
    assert_eq!(a.fault_sessions, b.fault_sessions);
    assert_eq!(a.storm_evictions, b.storm_evictions);
    assert_eq!(
        a.summary().mean_accuracy.to_bits(),
        b.summary().mean_accuracy.to_bits()
    );
    assert_eq!(
        a.summary().mean_finish_rate.to_bits(),
        b.summary().mean_finish_rate.to_bits()
    );
}
