//! Capacity planning: how many edge GPUs does a deployment need?
//!
//! Sweeps the GPU count for the default eight-application deployment
//! under AdaInf and under Ekya, reproducing the paper's headline
//! efficiency claim: Ekya needs ~4× the GPUs to match AdaInf's accuracy
//! (Fig 18c).
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

#![forbid(unsafe_code)]

use adainf::core::AdaInfConfig;
use adainf::harness::sim::{run, Method, RunConfig};
use adainf::simcore::SimDuration;

fn main() {
    let base = RunConfig {
        seed: 21,
        duration: SimDuration::from_secs(250),
        ..RunConfig::default()
    };

    println!("GPU sweep for the 8-application deployment (250 s horizon):\n");
    println!(
        "{:>5} | {:>18} | {:>18}",
        "GPUs", "AdaInf acc/finish", "Ekya acc/finish"
    );
    println!("{}", "-".repeat(50));

    let mut adainf_at_4 = None;
    let mut ekya_match = None;
    for gpus in [1u32, 2, 4, 8, 16] {
        let cfg = RunConfig {
            num_gpus: gpus,
            ..base.clone()
        };
        let a = run(cfg.with_method(Method::AdaInf(AdaInfConfig::default())));
        let e = run(cfg.with_method(Method::Ekya));
        println!(
            "{gpus:>5} | {:>7.1}% / {:>6.1}% | {:>7.1}% / {:>6.1}%",
            a.mean_accuracy() * 100.0,
            a.mean_finish_rate() * 100.0,
            e.mean_accuracy() * 100.0,
            e.mean_finish_rate() * 100.0,
        );
        if gpus == 4 {
            adainf_at_4 = Some(a.mean_accuracy());
        }
        if let Some(target) = adainf_at_4 {
            if ekya_match.is_none() && e.mean_accuracy() >= target - 0.01 {
                ekya_match = Some(gpus);
            }
        }
    }

    match (adainf_at_4, ekya_match) {
        (Some(target), Some(g)) => println!(
            "\nAdaInf reaches {:.1}% accuracy with 4 GPUs; Ekya needs {g} GPUs to match\n(the paper reports a 4x gap: 16 GPUs).",
            target * 100.0
        ),
        (Some(target), None) => println!(
            "\nAdaInf reaches {:.1}% accuracy with 4 GPUs; Ekya does not match it even at 16 GPUs.",
            target * 100.0
        ),
        _ => {}
    }
}
