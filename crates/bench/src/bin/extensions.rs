//! Ablation bench for the §6 extension features (not in the paper's
//! evaluation — these regenerate the "Limitations and Discussion"
//! directions as measurable experiments):
//!
//! * CPU offload of low-rate sessions (`cpu_offload_threshold`).
//! * One-shot joint batch/space decision (`joint_batch_space`).
//! * A heterogeneous GPU fleet (4 reference GPUs vs 2 fast + 4 half-speed
//!   at the same total capacity).

#![forbid(unsafe_code)]

use adainf_core::AdaInfConfig;
use adainf_harness::experiments::Scale;
use adainf_harness::report::{pct, table};
use adainf_harness::sim::{run, Method, RunConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args(&args);
    eprintln!("[extensions] running at {scale:?} scale …");
    let base = scale.base();

    let rows: Vec<Vec<String>> = [
        ("AdaInf (baseline)", base.clone()),
        (
            "+ CPU offload (<=4 req)",
            RunConfig {
                method: Method::AdaInf(AdaInfConfig {
                    cpu_offload_threshold: 4,
                    ..AdaInfConfig::default()
                }),
                ..base.clone()
            },
        ),
        (
            "+ joint batch/space",
            RunConfig {
                method: Method::AdaInf(AdaInfConfig {
                    joint_batch_space: true,
                    ..AdaInfConfig::default()
                }),
                ..base.clone()
            },
        ),
        (
            "heterogeneous fleet 2x1.0+4x0.5",
            RunConfig {
                device_factors: vec![1.0, 1.0, 0.5, 0.5, 0.5, 0.5].into(),
                ..base.clone()
            },
        ),
        (
            "+ PCIe bus contention (profiled)",
            RunConfig {
                comm: Some(adainf_core::profiler::CommProfile {
                    // Contended links raise every strategy's inflation.
                    // These factors are typed in, not measured.
                    grouped_priority: 1.18,
                    grouped_lru: 1.28,
                    per_request_priority: 1.34,
                    per_request_lru: 1.45,
                }),
                ..base.clone()
            },
        ),
    ]
    .into_iter()
    .map(|(name, cfg)| {
        let m = run(cfg);
        vec![
            name.to_string(),
            pct(m.mean_accuracy()),
            pct(m.mean_finish_rate()),
            format!("{:.1}ms", m.inference_latency.mean()),
        ]
    })
    .collect();

    println!(
        "§6 extension ablations\n{}",
        table(
            &["configuration", "accuracy", "finish rate", "inference latency"],
            &rows
        )
    );
}
