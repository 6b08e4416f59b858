//! The paper's headline workload in detail: the video-surveillance
//! application (TinyYOLOv3 → MobileNetV2 + ShuffleNet) under data drift.
//!
//! This example drives the AdaInf scheduler *manually* through its two
//! hooks to expose what it decides: the drift report and
//! retraining-inference DAG at each period boundary, and a session plan
//! (GPU fraction, batch, early-exit cuts, retraining slices).
//!
//! ```sh
//! cargo run --release --example video_surveillance
//! ```

#![forbid(unsafe_code)]

use adainf::apps::{catalog, AppRuntime};
use adainf::core::plan::{Scheduler, SessionCtx};
use adainf::core::profiler::Profiler;
use adainf::core::{AdaInfConfig, AdaInfScheduler};
use adainf::driftgen::workload::ArrivalConfig;
use adainf::gpusim::GpuSpec;
use adainf::simcore::{Prng, SimDuration, SimTime};

fn main() {
    let root = Prng::new(2024);
    let spec = catalog::video_surveillance(0);
    println!("application: {} (SLO {})", spec.name, spec.slo);
    for (i, node) in spec.nodes.iter().enumerate() {
        println!(
            "  node {i}: {:28} backbone {:12} drift {:8} {}",
            node.name,
            node.profile.name,
            node.drift.name(),
            node.upstream
                .map(|u| format!("<- node {u}"))
                .unwrap_or_else(|| "(root)".into()),
        );
    }

    let mut apps = vec![AppRuntime::new(
        spec.clone(),
        ArrivalConfig::default(),
        3000,
        &root,
    )];
    let server = GpuSpec::with_gpus(4);
    let mut sched = AdaInfScheduler::new(
        AdaInfConfig::default(),
        Profiler::default(),
        vec![spec.clone()],
        9,
    );

    for period in 0..4u64 {
        let now = SimTime::from_secs(period * 50);
        let plan = sched.on_period_start(&mut apps, &server, now);
        println!("\n=== period {period} ===");
        if let Some(report) = sched.last_reports.first() {
            if report.impacted.is_empty() {
                println!(
                    "drift detection: no model impacted (S stopped at {:.0}%)",
                    report.final_s * 100.0
                );
            } else {
                for (node, impact) in &report.impacted {
                    println!(
                        "drift detection: {} impacted, degree {:.2} (S stopped at {:.0}%)",
                        spec.nodes[*node].name,
                        impact,
                        report.final_s * 100.0
                    );
                }
            }
        }
        println!(
            "retraining-inference DAG: {} retraining vertex(es)",
            plan.apps[0].ri_entries.len()
        );

        // One session plan, as the harness would request it.
        let predicted = vec![32u32];
        let pools: Vec<Vec<usize>> = apps
            .iter()
            .map(|rt| rt.pools.iter().map(|p| p.remaining()).collect())
            .collect();
        let ctx = SessionCtx {
            now,
            predicted: &predicted,
            server: &server,
            free_gpus: 4.0,
            avg_job_time: SimDuration::from_millis(60),
            pool_remaining: &pools,
        };
        for job in sched.on_session(&ctx) {
            println!(
                "session plan: gpu {:.3}, request batch {}, cuts {:?}",
                job.gpu, job.batch, job.cuts
            );
            for s in &job.retrain {
                println!(
                    "  retrain slice: {:28} {:4} samples, batch {}, budget {}",
                    spec.nodes[s.node].name, s.samples, s.batch, s.time
                );
            }
            if job.retrain.is_empty() {
                println!("  (no retraining this period)");
            }
        }

        // Consume the period: retrain on the scheduler's ordering, then
        // drift to the next period.
        for node in 0..apps[0].spec.nodes.len() {
            if plan.apps[0].ri_entries.iter().any(|e| e.node == node) {
                let batch = apps[0].pools[node].take(usize::MAX);
                apps[0].models[node].train_slice(&batch, 1);
            }
            let full = apps[0].spec.nodes[node].profile.full_cut();
            let acc = apps[0].accuracy(node, full);
            println!(
                "  accuracy after retraining  {:28}: {:.1}%",
                spec.nodes[node].name,
                acc * 100.0
            );
        }
        apps[0].advance_period();
    }
}
