//! Intra-period accuracy trajectories (beyond the paper's figures): the
//! 5-second-window accuracy of AdaInf vs Ekya vs Scrooge across two
//! retraining periods, making the incremental-retraining mechanism of
//! Fig 3 directly visible — AdaInf recovers smoothly from the start of
//! each period, Ekya steps up at its ~22 s retraining completion,
//! Scrooge only near the period end.
//!
//! Also a smoke check of the latency predictor riding on the AdaInf
//! run: its calibration columns must be finite and its error must fall
//! over the run. Exits non-zero otherwise.

#![forbid(unsafe_code)]

use adainf_core::AdaInfConfig;
use adainf_harness::experiments::Scale;
use adainf_harness::parallel::run_many;
use adainf_harness::report::table;
use adainf_harness::sim::{Method, RunConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args(&args);
    eprintln!("[trajectory] running at {scale:?} scale ...");
    let base = RunConfig {
        duration: adainf_simcore::SimDuration::from_secs(200),
        ..scale.base()
    };
    let runs = run_many(
        vec![
            // The predictor rides along on the AdaInf run: pristine runs
            // are bit-identical with it on (admission only fires in fault
            // windows — pinned by tests/golden.rs), and the calibration
            // guards below need its observation stream.
            base.with_method(Method::AdaInf(AdaInfConfig {
                predicted_latency: true,
                ..AdaInfConfig::default()
            })),
            base.with_method(Method::Ekya),
            base.with_method(Method::Scrooge),
        ],
        0,
    );

    let series: Vec<Vec<Option<f64>>> = runs.iter().map(|m| m.accuracy_fine.ratios()).collect();
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

    // Bench-smoke guard: the calibration columns must be present and
    // finite for every suite (schedulers without a predictor report an
    // exact 0.0), and the AdaInf predictor must actually converge over
    // the run — last-quartile relative error strictly below the first
    // quartile's warm-up error.
    for m in &runs {
        let s = m.summary();
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
            let first = m.predicted_rel_err_quartile(0);
            let last = m.predicted_rel_err_quartile(3);
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
