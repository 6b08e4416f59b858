//! The CPU–GPU memory strategies (§3.4), observed directly.
//!
//! Runs the layer-granularity execution engine on the surveillance
//! application's retraining + inference tasks under memory pressure, for
//! all four combinations of AdaInf's two strategies, and prints the
//! communication cost of each — plus the content reuse-time profile that
//! drives the priority-eviction scoring.
//!
//! ```sh
//! cargo run --release --example memory_strategies
//! ```

#![forbid(unsafe_code)]

use adainf::apps::catalog;
use adainf::gpusim::content::ReuseCategory;
use adainf::gpusim::exec::{run_concurrent, total_ms, TaskExec, TaskKind};
use adainf::gpusim::{EvictionPolicyKind, ExecMode, GpuMemory, LatencyModel, MemoryConfig};
use adainf::simcore::{Cdf, SimTime};

fn build_tasks(jobs: u64) -> Vec<TaskExec> {
    let app = catalog::video_surveillance(0);
    let mut tasks = Vec::new();
    for job in 0..jobs {
        let start = SimTime::from_micros(job * 60_000);
        for (node, nspec) in app.nodes.iter().enumerate() {
            let layers = nspec.profile.structure_layers(nspec.profile.full_cut());
            if node != 0 {
                tasks.push(TaskExec {
                    app: 0,
                    model: node as u32,
                    job,
                    kind: TaskKind::Retraining {
                        samples: 16,
                        epochs: 1,
                    },
                    layers: layers.clone(),
                    batch: 16,
                    frac: 0.25,
                    slo_ms: 400.0,
                    input_from: None,
                    start,
                });
            }
            tasks.push(TaskExec {
                app: 0,
                model: node as u32,
                job,
                kind: TaskKind::Inference { requests: 32 },
                layers,
                batch: 16,
                frac: 0.25,
                slo_ms: 400.0,
                input_from: app.nodes[node]
                    .upstream
                    .map(|u| (u as u32, app.nodes[u].profile.full_cut() as u16)),
                start,
            });
        }
    }
    tasks
}

fn main() {
    let latency = LatencyModel::default();

    // Offline profiling pass: record reuse events once and build the
    // R_c table the priority policy scores with (§3.4.2).
    let mut profiling = GpuMemory::new(MemoryConfig {
        gpu_capacity: 40_000_000,
        pin_capacity: 10_000_000,
        policy: EvictionPolicyKind::Lru,
        record_reuse: true,
        ..MemoryConfig::default()
    });
    run_concurrent(
        &build_tasks(6),
        &latency,
        &mut profiling,
        ExecMode::LayerGrouped,
    );
    let reuse_table = GpuMemory::profile_reuse_table(
        profiling.reuse_events(),
        MemoryConfig::default().reuse_table_ms,
    );
    println!("profiled R_c table (ms): {reuse_table:.3?}\n");

    println!("strategy comparison (6 jobs of the surveillance app, 40 MB GPU memory):\n");
    println!(
        "{:<38} {:>12} {:>12} {:>10}",
        "strategies", "compute", "comm", "comm share"
    );
    for (name, mode, policy) in [
        (
            "layer-grouped + priority (AdaInf)",
            ExecMode::LayerGrouped,
            EvictionPolicyKind::Priority,
        ),
        (
            "layer-grouped + LRU      (/M2)",
            ExecMode::LayerGrouped,
            EvictionPolicyKind::Lru,
        ),
        (
            "per-request  + priority  (/M1)",
            ExecMode::PerRequest,
            EvictionPolicyKind::Priority,
        ),
        (
            "per-request  + LRU  (baselines)",
            ExecMode::PerRequest,
            EvictionPolicyKind::Lru,
        ),
    ] {
        let mut mem = GpuMemory::new(MemoryConfig {
            gpu_capacity: 40_000_000,
            pin_capacity: 10_000_000,
            policy,
            record_reuse: false,
            reuse_table_ms: reuse_table,
            ..MemoryConfig::default()
        });
        let (compute, comm) = total_ms(&run_concurrent(&build_tasks(6), &latency, &mut mem, mode));
        println!(
            "{name:<38} {compute:>10.1}ms {comm:>10.1}ms {:>9.1}%",
            comm / (compute + comm) * 100.0
        );
    }

    // Reuse-time profile (what the S_c score's R_c table is built from).
    let mut mem = GpuMemory::new(MemoryConfig {
        gpu_capacity: 40_000_000,
        pin_capacity: 10_000_000,
        policy: EvictionPolicyKind::Priority,
        record_reuse: true,
        ..MemoryConfig::default()
    });
    run_concurrent(&build_tasks(6), &latency, &mut mem, ExecMode::LayerGrouped);
    println!("\ncontent reuse-time profile (drives priority eviction):");
    for cat in ReuseCategory::all() {
        let mut cdf = Cdf::new();
        for ev in mem.reuse_events() {
            if ev.category == cat {
                cdf.add(ev.elapsed.as_millis_f64());
            }
        }
        if cdf.is_empty() {
            continue;
        }
        println!(
            "  {:<26} median {:>8.3} ms  (n={})",
            cat.label(),
            cdf.quantile(0.5),
            cdf.len()
        );
    }
}
