//! Quickstart: deploy the default eight-application edge server, run
//! AdaInf for a few retraining periods, and print the headline metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![forbid(unsafe_code)]

use adainf::core::AdaInfConfig;
use adainf::harness::sim::{run, Method, RunConfig};
use adainf::simcore::SimDuration;

fn main() {
    // 150 simulated seconds = 3 retraining periods; everything is
    // deterministic given the seed.
    let config = RunConfig {
        seed: 7,
        duration: SimDuration::from_secs(150),
        ..RunConfig::default()
    };

    println!("deploying 8 applications on a 4-GPU edge server …");
    let metrics = run(config.with_method(Method::AdaInf(AdaInfConfig::default())));

    println!("\nmethod               : {}", metrics.name);
    println!("requests served      : {}", metrics.total_requests);
    println!(
        "mean accuracy        : {:.1}%",
        metrics.mean_accuracy() * 100.0
    );
    println!(
        "mean SLO finish rate : {:.1}%",
        metrics.mean_finish_rate() * 100.0
    );
    println!(
        "mean inference lat.  : {:.1} ms",
        metrics.inference_latency.mean()
    );
    println!(
        "GPU utilization      : {:.0}%",
        metrics.mean_utilization() * 100.0
    );

    println!("\naccuracy per 50 s period:");
    for (i, acc) in metrics.accuracy.ratios().iter().enumerate() {
        if let Some(a) = acc {
            println!("  period {i}: {:.1}%", a * 100.0);
        }
    }

    println!("\nretraining-pool consumption per period:");
    for (i, f) in metrics.samples_used.iter().enumerate() {
        println!("  period {i}: {:.0}% of samples", f * 100.0);
    }
}
