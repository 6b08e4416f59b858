//! The user-facing simulator CLI.
//!
//! ```sh
//! adainf-sim [--method adainf|ekya|scrooge|scrooge-star|no-retrain]
//!            [--apps N] [--gpus N] [--duration SECS] [--seed S]
//!            [--rate REQ_PER_SEC] [--pool SAMPLES] [--json]
//! ```
//!
//! Prints the run summary (or, with `--json`, the full metric export).

#![forbid(unsafe_code)]

use adainf_core::{AdaInfConfig, Variant};
use adainf_harness::sim::{run, Method, RunConfig};
use adainf_simcore::SimDuration;

fn usage() -> ! {
    eprintln!(
        "usage: adainf-sim [--method adainf|ekya|scrooge|scrooge-star|no-retrain]\n\
         \u{20}                 [--apps N] [--gpus N] [--duration SECS] [--seed S]\n\
         \u{20}                 [--rate REQ_PER_SEC] [--pool SAMPLES] [--json]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(value: Option<String>, flag: &str) -> T {
    value.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("invalid or missing value for {flag}");
        usage()
    })
}

fn main() {
    let mut config = RunConfig::default();
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--method" => {
                let v: String = parse(args.next(), "--method");
                config.method = match v.as_str() {
                    "adainf" => Method::AdaInf(AdaInfConfig::default()),
                    "ekya" => Method::Ekya,
                    "scrooge" => Method::Scrooge,
                    "scrooge-star" => Method::ScroogeStar,
                    "no-retrain" => Method::AdaInf(Variant::NoRetraining.into()),
                    _ => usage(),
                };
            }
            "--apps" => config.num_apps = parse(args.next(), "--apps"),
            "--gpus" => config.num_gpus = parse(args.next(), "--gpus"),
            "--duration" => {
                config.duration = SimDuration::from_secs(parse(args.next(), "--duration"))
            }
            "--seed" => config.seed = parse(args.next(), "--seed"),
            "--rate" => config.base_rate = parse(args.next(), "--rate"),
            "--pool" => config.pool_size = parse(args.next(), "--pool"),
            "--json" => json = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }

    if let Err(e) = config.validate() {
        eprintln!("adainf-sim: {e}");
        std::process::exit(2);
    }

    eprintln!(
        "running {} | {} apps, {} GPUs, {:.0} s | seed {}",
        config.method.name(),
        config.num_apps,
        config.num_gpus,
        config.duration.as_secs_f64(),
        config.seed
    );
    let metrics = run(config);

    if json {
        println!("{}", metrics.export_json());
    } else {
        let s = metrics.summary();
        println!("method               : {}", s.name);
        println!("requests served      : {}", s.total_requests);
        println!("mean accuracy        : {:.2}%", s.mean_accuracy * 100.0);
        println!("mean finish rate     : {:.2}%", s.mean_finish_rate * 100.0);
        println!(
            "mean inference lat.  : {:.2} ms",
            s.mean_inference_latency_ms
        );
        println!("mean retrain lat.    : {:.1} ms", s.mean_retrain_latency_ms);
        println!("edge-cloud traffic   : {:.1} GB", s.edge_cloud_gb);
        println!(
            "scheduling wall time : {:.3} ms/session",
            s.sched_overhead_ms
        );
        println!(
            "decision-cache hits  : {:.1}% ({} hits / {} misses)",
            s.cache_hit_rate * 100.0,
            metrics.cache_hits,
            metrics.cache_misses
        );
        println!("\nper-application job latency (ms):");
        println!("  {:<4} {:>8} {:>8} {:>8}", "app", "p50", "p95", "p99");
        for app in 0..metrics.per_app_latency.len() {
            let (p50, p95, p99) = metrics.latency_percentiles(app);
            println!("  {app:<4} {p50:>8.1} {p95:>8.1} {p99:>8.1}");
        }
    }
}
