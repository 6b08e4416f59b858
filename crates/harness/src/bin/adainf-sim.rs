//! The user-facing simulator CLI.
//!
//! ```sh
//! adainf-sim [--method adainf|ekya|scrooge|scrooge-star|no-retrain]
//!            [--apps N] [--gpus N] [--duration SECS] [--seed S]
//!            [--rate REQ_PER_SEC] [--pool SAMPLES] [--json]
//! ```
//!
//! Prints a summary read from the run's `RunMetrics` (or, with `--json`,
//! `RunMetrics::export_json`: the summary values and every series).

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
    let m = run(config);

    if json {
        println!("{}", m.export_json());
    } else {
        println!("method               : {}", m.name);
        println!("requests served      : {}", m.total_requests);
        println!("mean accuracy        : {:.2}%", m.mean_accuracy() * 100.0);
        println!(
            "mean finish rate     : {:.2}%",
            m.mean_finish_rate() * 100.0
        );
        println!(
            "mean inference lat.  : {:.2} ms",
            m.inference_latency.mean()
        );
        println!("mean retrain lat.    : {:.1} ms", m.retrain_latency.mean());
        println!(
            "edge-cloud traffic   : {:.1} GB",
            m.edge_cloud_bytes as f64 / 1e9
        );
        println!(
            "scheduling wall time : {:.3} ms/session",
            m.sched_overhead.mean()
        );
        println!(
            "decision-cache hits  : {:.1}% ({} hits / {} misses)",
            m.cache_hit_rate() * 100.0,
            m.cache_hits,
            m.cache_misses
        );
        println!("\nper-application job latency (ms):");
        println!("  {:<4} {:>8} {:>8} {:>8}", "app", "p50", "p95", "p99");
        for app in 0..m.per_app_latency.len() {
            let (p50, p95, p99) = m.latency_percentiles(app);
            println!("  {app:<4} {p50:>8.1} {p95:>8.1} {p99:>8.1}");
        }
    }
}
