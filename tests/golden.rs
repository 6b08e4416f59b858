//! Golden determinism tests for the hot-path optimization work.
//!
//! The optimized engine (blocked GEMM kernels, scheduler decision
//! cache, zero-alloc session loop) must be *behavior-preserving*: for a
//! fixed seed it has to reproduce the seed engine's `RunMetrics` bit
//! for bit. The constants below were captured from the pre-optimization
//! engine (`adainf-sim --apps 3 --duration 60 --json`) at three seeds
//! per method; floats are the shortest round-trip renderings, so the
//! literals parse back to the exact bits the seed engine produced.
//!
//! The simlint determinism pass (HashMap→BTreeMap conversions, the
//! walltime boundary, unwrap annotations — see DESIGN.md § Determinism
//! invariants) left every literal below untouched: those changes are
//! behavior-preserving, and these tests also pass with the
//! `strict-invariants` runtime checks armed
//! (`cargo test --features strict-invariants --test golden`).
//!
//! The AdaInf rows were re-baselined **once** for the drift-pipeline
//! overhaul (DESIGN.md § Drift artifacts per boundary & determinism).
//! Two kinds of change fold into the new values: (a) routing PCA randomness
//! through keyed child streams plus the GEMM covariance changed the
//! draw schedule — measured alone, mean accuracy shifted by < 1e-3 on
//! every seed (−0.00061 / +0.00099 / +0.00032); (b) the space-division
//! decision fixes (whole concurrent sessions, centi-GPU allocation
//! grid) perturb each allocation by at most half a grid step. The net
//! mean-accuracy deltas against the seed baselines are
//! −0.00062 / −0.00029 / −0.00052 — still within 1e-3 per seed — with
//! finish rates unchanged to the third decimal. Ekya and Scrooge rows
//! are untouched: neither draws from the rerouted streams nor divides
//! space through [`adainf::core::space`].
//!
//! A second one-time AdaInf re-baseline came with the warm-started PCA
//! fits (DESIGN.md § Drift data path). Cold fits are bit-compatible with
//! the old kernel (the convergence early-exit is armed only for
//! warm-started components), so the only behavioural change is the
//! warm-start chain at period boundaries with stable model versions.
//! Mean-accuracy deltas per seed: +0.000266 / exactly 0 / −0.000463 —
//! within the established 1e-3 parity bound — with total_requests and
//! finish rates bit-unchanged on every seed. Ekya and Scrooge never fit
//! PCA, so their rows are again untouched.
//!
//! A third AdaInf re-baseline, of one literal, came with the fix to
//! `AppRuntime::accuracy`'s exit mapping. Its cache stored, in slot `e`,
//! the accuracy of whichever exit the cut `⌈(e+1)·l/3⌉ − 1` maps to; on
//! backbones of 8, 13, 14, 16 or 20 layers that is a deeper exit, so a
//! shallow structure was scored with a deeper exit's accuracy. The
//! cache is now indexed by exit, so `accuracy(node, cut)` equals
//! `accuracy_on(eval_set, cut)` at every cut. Only seed 11's mean
//! accuracy moved (0.9030360621563216 → 0.9031915247768613, +1.7e-4);
//! its requests and finish rate, seeds 23 and 47, and the Ekya and
//! Scrooge rows (which score only full structures, whose mapping was
//! already right) are unchanged. The kernel and one-pass scoring work
//! that preceded the fix left every literal here bit-identical.

use adainf::core::AdaInfConfig;
use adainf::harness::sim::{run, Method, RunConfig};
use adainf::harness::RunMetrics;
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

/// `(seed, total_requests, mean_accuracy, mean_finish_rate)`.
type Golden = (u64, u64, f64, f64);

/// Asserts every golden row and returns each run's `(seed, metrics)`.
fn assert_golden(method: impl Fn() -> Method, golden: &[Golden]) -> Vec<(u64, RunMetrics)> {
    let mut runs = Vec::with_capacity(golden.len());
    for &(seed, requests, accuracy, finish) in golden {
        let metrics = run(config(method(), seed));
        let summary = metrics.summary();
        assert_eq!(
            metrics.total_requests, requests,
            "{} seed {seed}: total_requests",
            summary.name
        );
        assert_eq!(
            summary.mean_accuracy.to_bits(),
            accuracy.to_bits(),
            "{} seed {seed}: mean_accuracy {} != golden {accuracy}",
            summary.name,
            summary.mean_accuracy
        );
        assert_eq!(
            summary.mean_finish_rate.to_bits(),
            finish.to_bits(),
            "{} seed {seed}: mean_finish_rate {} != golden {finish}",
            summary.name,
            summary.mean_finish_rate
        );
        runs.push((seed, metrics));
    }
    runs
}

/// Also asserts the decision cache served every seed: built with
/// `strict-invariants`, each of those hits was recomputed and compared
/// bit for bit, so the rows below pin cached ≡ recomputed decisions.
#[test]
fn adainf_reproduces_seed_engine() {
    let runs = assert_golden(
        || Method::AdaInf(AdaInfConfig::default()),
        &[
            (11, 1725130, 0.9031915247768613, 0.9992656108706952),
            (23, 1518908, 0.9093875812740043, 0.9998909458453026),
            (47, 1392262, 0.9090062030500701, 0.9991235715669184),
        ],
    );
    for (seed, m) in runs {
        assert!(
            m.cache_hits > 0,
            "seed {seed}: the decision cache never hit"
        );
    }
}

#[test]
fn ekya_reproduces_seed_engine() {
    assert_golden(
        || Method::Ekya,
        &[
            (11, 1725130, 0.9137245757227437, 0.8141827074093204),
            (23, 1518908, 0.9202528808347674, 0.9525421569285103),
            (47, 1392262, 0.9285268695040899, 0.9311903241349095),
        ],
    );
}

#[test]
fn scrooge_reproduces_seed_engine() {
    assert_golden(
        || Method::Scrooge,
        &[
            (11, 1725130, 0.9114882759566701, 1.0),
            (23, 1518908, 0.9197024878322877, 1.0),
            (47, 1392262, 0.9278595052706929, 1.0),
        ],
    );
}

/// Predicted-latency admission must be invisible on pristine runs:
/// admission only fires inside fault windows, so turning the predictor
/// on cannot perturb a fault-free run — every AdaInf golden row
/// reproduces bit for bit — while the calibration stream demonstrably
/// ran (each completed job fed the model an observation, and post-warmup
/// forecasts were scored against outcomes).
#[test]
fn predictor_on_reproduces_pristine_goldens() {
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
        let m = run(config(
            Method::AdaInf(AdaInfConfig {
                predicted_latency: true,
                ..AdaInfConfig::default()
            }),
            seed,
        ));
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
        assert!(
            m.pred_abs_err_us.count() > 0,
            "seed {seed}: predictor never scored a forecast"
        );
        assert!(
            s.predicted_latency_mae_us > 0.0,
            "seed {seed}: zero MAE is implausible for a learned model"
        );
    }
}
