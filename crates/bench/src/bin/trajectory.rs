//! Intra-period accuracy trajectories (beyond the paper's figures): the
//! 5-second-window accuracy of AdaInf vs Ekya vs Scrooge across two
//! retraining periods, making the incremental-retraining mechanism of
//! Fig 3 directly visible — AdaInf recovers smoothly from the start of
//! each period, Ekya steps up at its ~22 s retraining completion,
//! Scrooge only near the period end.
//!
//! Doubles as the repo's perf-trajectory harness: each method's run is
//! wall-clock timed and the totals are written to `BENCH_sim.json`
//! (per-suite wall seconds, sessions/sec, mean scheduler-decision µs,
//! decision-cache hit rate) so every PR's perf delta is visible. The
//! simulated results are unaffected by the timing — runs are
//! deterministic functions of their configs.

#![forbid(unsafe_code)]

use adainf_core::AdaInfConfig;
use adainf_harness::experiments::Scale;
use adainf_harness::json;
use adainf_harness::metrics::RunMetrics;
use adainf_harness::parallel::run_many;
use adainf_harness::report::table;
use adainf_harness::sim::{Method, RunConfig};
use std::time::Instant;

/// One timed suite: the run's metrics plus its wall-clock seconds.
struct TimedRun {
    metrics: RunMetrics,
    wall_s: f64,
}

/// Bench-smoke ceiling on AdaInf's mean per-period drift wall time (µs),
/// as budgeted for the reference hardware class: ≥ 8 cores feeding the
/// parallel per-(app, node) artifact fan-out. The default run carries 21
/// build jobs per period at ~2.2 ms each after the kernel and warm-start
/// work (~47 ms serialized, ~6 ms across 8 cores) plus
/// ~7 ms of sequential S-loop detection — comfortably under 18 ms when
/// the fan-out actually fans out. See EXPERIMENTS.md "drift wall" for
/// the measured breakdown.
const DRIFT_DETECT_CEILING_US: f64 = 18_000.0;

/// The ceiling, adjusted for the host actually running the smoke. The
/// fan-out serializes on hosts with fewer cores than the reference
/// budget assumes, so the artifact-build portion of the budget stretches by
/// the missing parallelism (8 / cores); the guard still fails on any
/// host if the *serialized* data path regresses. On ≥ 8 cores this is
/// exactly [`DRIFT_DETECT_CEILING_US`].
fn drift_ceiling_us() -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    DRIFT_DETECT_CEILING_US * (8.0 / cores as f64).max(1.0)
}

/// Bench-smoke ceiling on AdaInf's mean per-period drift *critical
/// path* (µs) on the reference ≥ 8-core class: with the overlapped
/// period pipeline the serving loop pays only snapshot + spawn, the
/// sequential S-loop sweep (~7 ms) and whatever join waits remain
/// after the accuracy-value refresh filled the overlap window — the
/// ~40 ms of artifact builds run behind serving. Budgeted at 10 ms,
/// ≥ 5× under the pre-overlap inline wall (~97 ms serialized).
const DRIFT_CRITICAL_CEILING_US: f64 = 10_000.0;

/// The critical-path ceiling for the host running the smoke. Below the
/// 8-core reference class the background stage timeshares with the
/// serving loop, so "blocked" time converges on total drift work and
/// the overlap win is unmeasurable — the guard then falls back to the
/// (stretched) total-work ceiling, which still catches data-path
/// regressions.
fn drift_critical_ceiling_us() -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 8 {
        DRIFT_CRITICAL_CEILING_US
    } else {
        drift_ceiling_us()
    }
}

fn bench_json(scale: Scale, runs: &[TimedRun], total_wall_s: f64) -> String {
    let suites = runs.iter().map(|r| {
        let m = &r.metrics;
        let s = m.summary();
        let sessions = m.sched_overhead.count();
        let mut fields = vec![
            ("name", json::string(&m.name)),
            ("wall_s", json::num(r.wall_s)),
            ("sessions", json::int(sessions)),
            (
                "sessions_per_sec",
                json::num(sessions as f64 / r.wall_s.max(1e-9)),
            ),
            (
                "sched_decision_us",
                json::num(m.sched_overhead.mean() * 1e3),
            ),
            ("cache_hit_rate", json::num(s.cache_hit_rate)),
            // Per-phase wall breakdown: total drift work per period,
            // the slice of it that actually blocked the serving loop
            // (the overlap's critical path), and the serve/train walls.
            ("drift_detect_us", json::num(s.drift_detect_us)),
            ("drift_detect_p99_us", json::num(s.drift_detect_p99_us)),
            (
                "drift_critical_path_us",
                json::num(s.drift_critical_path_us),
            ),
            ("serve_us", json::num(s.serve_us)),
            ("train_us", json::num(s.train_us)),
        ];
        // The resolved pool width, only for suites that ran one: a
        // pool-less scheduler omits the column rather than reporting a
        // misleading 0.
        if let Some(w) = s.worker_threads {
            fields.push(("worker_threads", json::int(w as u64)));
        }
        // Predictor calibration trajectory columns: mean forecast
        // error, its first/last run-quartile split (convergence),
        // and the fraction of predicted-to-fit jobs that violated.
        fields.extend([
            (
                "predicted_latency_mae_us",
                json::num(s.predicted_latency_mae_us),
            ),
            (
                "predicted_rel_err_first_q",
                json::num(m.predicted_rel_err_quartile(0)),
            ),
            (
                "predicted_rel_err_last_q",
                json::num(m.predicted_rel_err_quartile(3)),
            ),
            (
                "headroom_violation_rate",
                json::num(s.headroom_violation_rate),
            ),
        ]);
        json::object(fields)
    });
    let total_sessions: u64 =
        runs.iter().map(|r| r.metrics.sched_overhead.count()).sum();
    json::object([
        ("generator", json::string("trajectory")),
        ("scale", json::string(&format!("{scale:?}"))),
        ("suites", json::array(suites)),
        ("total_wall_s", json::num(total_wall_s)),
        (
            "total_sessions_per_sec",
            json::num(total_sessions as f64 / total_wall_s.max(1e-9)),
        ),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args(&args);
    eprintln!("[trajectory] running at {scale:?} scale ...");
    let base = RunConfig {
        duration: adainf_simcore::SimDuration::from_secs(200),
        ..scale.base()
    };
    // Time each method's run separately (runs are independent, so the
    // simulated output is identical to one batched run_many call).
    let t0 = Instant::now();
    let mut runs = Vec::new();
    for config in [
        // The predictor rides along on the AdaInf run: pristine runs
        // are bit-identical with it on (admission only fires in fault
        // windows — pinned by tests/golden.rs), and the calibration
        // columns below need its observation stream.
        base.with_method(Method::AdaInf(AdaInfConfig {
            predicted_latency: true,
            ..AdaInfConfig::default()
        })),
        base.with_method(Method::Ekya),
        base.with_method(Method::Scrooge),
    ] {
        let start = Instant::now();
        let metrics = run_many(vec![config], 0).pop().expect("one run");
        runs.push(TimedRun {
            metrics,
            wall_s: start.elapsed().as_secs_f64(),
        });
    }
    let total_wall_s = t0.elapsed().as_secs_f64();

    let series: Vec<Vec<Option<f64>>> = runs
        .iter()
        .map(|r| r.metrics.accuracy_fine.ratios())
        .collect();
    let windows = series.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut rows = Vec::new();
    for w in (0..windows).step_by(2) {
        let mut row = vec![format!("{}s", w * 5)];
        for s in &series {
            row.push(
                s.get(w)
                    .copied()
                    .flatten()
                    .map(|v| format!("{:.1}%", v * 100.0))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        rows.push(row);
    }
    println!(
        "Intra-period accuracy trajectory (5 s windows, 100-200 s shown over two periods)\n{}",
        table(&["t", "AdaInf", "Ekya", "Scrooge"], &rows)
    );

    let bench = bench_json(scale, &runs, total_wall_s);
    match std::fs::write("BENCH_sim.json", format!("{bench}\n")) {
        Ok(()) => eprintln!(
            "[trajectory] wrote BENCH_sim.json ({total_wall_s:.2}s total wall)"
        ),
        Err(e) => eprintln!("[trajectory] could not write BENCH_sim.json: {e}"),
    }

    // Bench-smoke guard: the drift data path must stay fast. Mean µs per
    // period over the whole AdaInf run, compared against the documented
    // ceiling above (stretched for hosts that serialize the fan-out).
    let ceiling = drift_ceiling_us();
    let critical_ceiling = drift_critical_ceiling_us();
    for r in &runs {
        let s = r.metrics.summary();
        if s.name == "AdaInf" && s.drift_detect_us > ceiling {
            eprintln!(
                "[trajectory] FAIL: AdaInf drift_detect_us {:.0} exceeds the \
                 {ceiling:.0} µs ceiling",
                s.drift_detect_us
            );
            std::process::exit(1);
        }
        // The overlapped pipeline's promise: drift work mostly runs
        // behind serving, so the serving loop's blocked time stays far
        // under the total drift wall on hosts with cores to spare.
        if s.name == "AdaInf" && s.drift_critical_path_us > critical_ceiling {
            eprintln!(
                "[trajectory] FAIL: AdaInf drift_critical_path_us {:.0} \
                 exceeds the {critical_ceiling:.0} µs ceiling",
                s.drift_critical_path_us
            );
            std::process::exit(1);
        }
    }

    // Bench-smoke guard: the calibration columns must be present and
    // finite for every suite (schedulers without a predictor report an
    // exact 0.0), and the AdaInf predictor must actually converge over
    // the run — last-quartile relative error strictly below the first
    // quartile's warm-up error.
    for r in &runs {
        let s = r.metrics.summary();
        if !s.predicted_latency_mae_us.is_finite()
            || !s.headroom_violation_rate.is_finite()
        {
            eprintln!(
                "[trajectory] FAIL: {} calibration columns not finite \
                 (mae {}, violation rate {})",
                s.name, s.predicted_latency_mae_us, s.headroom_violation_rate
            );
            std::process::exit(1);
        }
        if s.name == "AdaInf" {
            let first = r.metrics.predicted_rel_err_quartile(0);
            let last = r.metrics.predicted_rel_err_quartile(3);
            if s.predicted_latency_mae_us <= 0.0 {
                eprintln!(
                    "[trajectory] FAIL: AdaInf predictor never scored a \
                     forecast (mae {})",
                    s.predicted_latency_mae_us
                );
                std::process::exit(1);
            }
            if last >= first {
                eprintln!(
                    "[trajectory] FAIL: AdaInf predictor did not converge: \
                     first-quartile relative error {first:.4} ≤ \
                     last-quartile {last:.4}"
                );
                std::process::exit(1);
            }
        }
    }
}
