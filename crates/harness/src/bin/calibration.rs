//! Calibration diagnostics: prints the simulator's load-bearing curves so
//! a change to any constant can be judged at a glance.
//!
//! 1. Frozen-model decay per drift profile (the staleness-damage curve
//!    that separates incremental from period-level retraining).
//! 2. Recovery vs. retrained-sample count (SGD sample efficiency).
//! 3. Drift-detection reliability per node class.
//! 4. The three-method headline at a reduced horizon.
//!
//! ```sh
//! cargo run --release -p adainf-harness --bin calibration
//! ```

#![forbid(unsafe_code)]

use adainf_apps::{catalog, AppRuntime};
use adainf_core::drift_detect::detect_drift;
use adainf_core::AdaInfConfig;
use adainf_driftgen::workload::ArrivalConfig;
use adainf_harness::parallel::run_many;
use adainf_harness::report::table;
use adainf_harness::sim::{Method, RunConfig};
use adainf_simcore::{Prng, SimDuration};

const SEEDS: [u64; 6] = [314, 99, 7, 1234, 42, 777];

fn surveillance(seed: u64) -> AppRuntime {
    let root = Prng::new(seed);
    AppRuntime::new(
        catalog::video_surveillance(0),
        ArrivalConfig::default(),
        3000,
        &root,
    )
}

fn main() {
    // 1. Frozen-model decay.
    println!(
        "1) frozen-model accuracy vs. staleness (mean over {} seeds)",
        SEEDS.len()
    );
    let mut rows = Vec::new();
    let mut acc = [[0.0f64; 3]; 6];
    for &seed in &SEEDS {
        let mut rt = surveillance(seed);
        for row in acc.iter_mut() {
            rt.advance_period();
            for (node, cell) in row.iter_mut().enumerate() {
                let cut = rt.spec.nodes[node].profile.full_cut();
                *cell += rt.accuracy(node, cut) / SEEDS.len() as f64;
            }
        }
    }
    for (p, row) in acc.iter().enumerate() {
        rows.push(vec![
            format!("{}", p + 1),
            format!("{:.1}%", row[0] * 100.0),
            format!("{:.1}%", row[1] * 100.0),
            format!("{:.1}%", row[2] * 100.0),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "periods stale",
                "stable (detect)",
                "severe (vehicle)",
                "moderate (person)"
            ],
            &rows
        )
    );

    // 2. Recovery vs. retrained samples, from a 2-period-stale start.
    println!("2) accuracy after retraining k samples (2-period-stale severe node)");
    let mut rows = Vec::new();
    for take in [0usize, 300, 800, 1500, 3000] {
        let mut mean = 0.0;
        for &seed in &SEEDS[..4] {
            let mut rt = surveillance(seed);
            rt.advance_period();
            rt.advance_period();
            let batch = rt.pools[1].take(take);
            if !batch.is_empty() {
                rt.models[1].train_slice(&batch, 1);
            }
            let cut = rt.spec.nodes[1].profile.full_cut();
            mean += rt.accuracy(1, cut) / 4.0;
        }
        rows.push(vec![take.to_string(), format!("{:.1}%", mean * 100.0)]);
    }
    println!("{}", table(&["samples", "accuracy"], &rows));

    // 3. Detection reliability at the third period.
    println!(
        "3) drift-detection hits at period 3, out of {} seeds",
        SEEDS.len()
    );
    let mut hits = [0u32; 3];
    for &seed in &SEEDS {
        let mut rt = surveillance(seed);
        for _ in 0..3 {
            rt.advance_period();
        }
        let rng = Prng::new(seed ^ 0xD);
        let report = detect_drift(&mut rt, &AdaInfConfig::default(), &rng);
        for (node, _) in report.impacted {
            hits[node] += 1;
        }
    }
    println!(
        "{}",
        table(
            &["stable", "severe", "moderate"],
            &[vec![
                hits[0].to_string(),
                hits[1].to_string(),
                hits[2].to_string()
            ]]
        )
    );

    // 4. Headline at reduced horizon.
    println!("4) three-method headline (250 s, 8 apps, 4 GPUs)");
    let base = RunConfig {
        duration: SimDuration::from_secs(250),
        ..RunConfig::default()
    };
    let runs = run_many(
        vec![
            base.with_method(Method::AdaInf(AdaInfConfig::default())),
            base.with_method(Method::Ekya),
            base.with_method(Method::Scrooge),
        ],
        0,
    );
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|m| {
            vec![
                m.name.clone(),
                format!("{:.1}%", m.mean_accuracy() * 100.0),
                format!("{:.1}%", m.mean_finish_rate() * 100.0),
            ]
        })
        .collect();
    println!("{}", table(&["method", "accuracy", "finish"], &rows));
}
