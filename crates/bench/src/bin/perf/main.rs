//! `perf` — the repository benchmark.
//!
//! ```text
//! perf run [--workload W | --all] [--seed N] [--repeats 3] [--out F]
//! perf trace --workload W [--seed N] [--spans F]
//! perf compare [--bounds BENCHMARK.json] BASE.json... -- NEW.json...
//! perf bench --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! `run` measures end-to-end metrics with tracing off, each workload in
//! its own child process; `trace` reports per-layer metrics from the
//! traced driver; `compare` judges two sets of `run` files against the
//! bounds in `BENCHMARK.json`; `bench` is the single-run form
//! `BENCHMARK.json` names, which prints one JSON result as its last
//! line. See README.md in this directory.

#![forbid(unsafe_code)]

mod compare;
mod json;
mod measure;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use adainf_harness::{RunConfig, Simulation};
use adainf_simcore::walltime::WallTimer;
use json::Json;
use measure::{Summary, END_TO_END, REPORTED};
use std::collections::BTreeMap;
use std::process::ExitCode;
use workloads::{Workload, WORKLOADS};

/// Where `perf bench`, run from the repository root, finds the metrics
/// it prints and `perf compare` finds its bounds by default.
const BENCHMARK_JSON: &str = "BENCHMARK.json";

/// Parsed command line: `--flag value` pairs, `--all`, and positional
/// arguments split at a bare `--`.
struct Args {
    flags: BTreeMap<String, String>,
    all: bool,
    before: Vec<String>,
    after: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        flags: BTreeMap::new(),
        all: false,
        before: Vec::new(),
        after: Vec::new(),
    };
    let mut split = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--" {
            split = true;
        } else if arg == "--all" {
            a.all = true;
        } else if let Some(name) = arg.strip_prefix("--") {
            let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            a.flags.insert(name.to_string(), v.clone());
        } else if split {
            a.after.push(arg.clone());
        } else {
            a.before.push(arg.clone());
        }
    }
    Ok(a)
}

impl Args {
    fn num<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.flags.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value `{v}`")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.flags.get("workload").ok_or("--workload is required")?;
        Workload::by_name(name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}` (one of {})", names.join(", "))
        })
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: perf run|trace|compare|bench ... (see README.md)");
        return ExitCode::from(2);
    };
    let result = parse_args(rest).and_then(|args| match cmd.as_str() {
        "run" => cmd_run(&args),
        "trace" => cmd_trace(&args),
        "compare" => cmd_compare(&args),
        "bench" => cmd_bench(&args),
        "child" => cmd_child(&args),
        other => Err(format!("unknown command `{other}`")),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_child(a: &Args) -> Result<bool, String> {
    let w = a.workload()?;
    let out = measure::child(
        &w,
        a.num("seed", Some(42))?,
        a.num("repeats", Some(3))?,
        a.num::<u8>("vary-seeds", Some(0))? == 1,
    );
    println!("{}", out.render());
    Ok(true)
}

fn print_section(title: &str, rows: &[(String, f64, String)]) {
    println!("  {title}");
    for (k, v, unit) in rows {
        println!("    {k:<34} {v:>16.6} {unit}");
    }
}

fn print_summary(w: &Workload, seed: u64, s: &Summary) {
    let row = |k: &str| -> (String, f64, String) {
        let (v, u) = s
            .metrics
            .get(k)
            .cloned()
            .unwrap_or((f64::NAN, String::new()));
        (k.to_string(), v, u)
    };
    println!("{} (seed {seed}, {} repeats): {}", w.name, s.repeats, w.why);
    let e2e: Vec<_> = END_TO_END.iter().map(|(k, ..)| row(k)).collect();
    print_section(
        "end to end (timings scaled to the nominal host: setup_s the median over every build, \
         sessions_per_s and cpu_s from the mean over repeats)",
        &e2e,
    );
    let rep: Vec<_> = REPORTED.iter().map(|(k, _)| row(k)).collect();
    print_section("reported, not compared", &rep);
    let skip: Vec<&str> = END_TO_END
        .iter()
        .map(|(k, ..)| *k)
        .chain(REPORTED.iter().map(|(k, _)| *k))
        .chain(["run_s"])
        .collect();
    let layers: Vec<_> = s
        .metrics
        .keys()
        .filter(|k| !skip.contains(&k.as_str()))
        .map(|k| row(k))
        .collect();
    print_section("per layer, untraced", &layers);
    for p in &s.problems {
        println!("  CHECK FAILED: {p}");
    }
}

fn metrics_json(s: &Summary) -> Json {
    Json::obj(
        s.metrics
            .iter()
            .map(|(k, (v, u))| (k.clone(), Json::metric(*v, u))),
    )
}

fn cmd_run(a: &Args) -> Result<bool, String> {
    let seed: u64 = a.num("seed", Some(42))?;
    let repeats: usize = a.num("repeats", Some(3))?;
    if repeats == 0 {
        return Err("--repeats must be at least 1".into());
    }
    let selected: Vec<Workload> = if a.all {
        WORKLOADS.to_vec()
    } else {
        vec![a.workload()?]
    };
    let out_path = a
        .flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| format!("perf-out/run-s{seed}.json"));
    let clock = WallTimer::start();
    let mut all_ok = true;
    let mut results = Vec::new();
    for w in &selected {
        let child = measure::spawn_child(w, seed, repeats, false)?;
        let s = measure::summarize(&child)?;
        print_summary(w, seed, &s);
        all_ok &= s.correct;
        results.push((
            w.name.to_string(),
            Json::obj([
                ("correct", s.correct.into()),
                ("repeats", (s.repeats as u64).into()),
                (
                    "problems",
                    Json::Arr(s.problems.iter().map(|p| Json::str(p.clone())).collect()),
                ),
                ("metrics", metrics_json(&s)),
            ]),
        ));
    }
    let doc = Json::obj([
        ("tool", Json::str("perf run")),
        ("commit", Json::str(measure::git_commit())),
        ("host_cores", (measure::host_cores() as u64).into()),
        ("seed", seed.into()),
        ("repeats", (repeats as u64).into()),
        ("correct", all_ok.into()),
        ("wall_s", clock.elapsed_secs().into()),
        ("workloads", Json::obj(results)),
    ]);
    write_file(&out_path, &doc.render())?;
    println!("wrote {out_path} ({:.1} s)", clock.elapsed_secs());
    Ok(all_ok)
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    let p = std::path::Path::new(path);
    if let Some(dir) = p.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(p, format!("{text}\n")).map_err(|e| format!("{path}: {e}"))
}

/// A traced run next to an untraced one of the same workload and seed.
struct TraceOutcome {
    traced: trace::Traced,
    /// Every per-layer metric, traced and untraced.
    metrics: Vec<(String, f64, &'static str)>,
    /// Output series on which the driver and `Simulation::run` differ.
    diff: Vec<&'static str>,
    faithful: bool,
    sessions: u64,
}

fn traced(cfg: RunConfig) -> TraceOutcome {
    let requests = workloads::arrived_requests(&cfg);
    let t = WallTimer::start();
    let sim = Simulation::new(cfg.clone());
    let setup_s = t.elapsed_secs();
    let t = WallTimer::start();
    let m = sim.run();
    let run_s = t.elapsed_secs();
    let traced = trace::run(cfg.clone());
    let diff = measure::diff(&measure::outputs(&m), &measure::outputs(&traced.metrics));
    let faithful = diff.is_empty() && traced.counters.arrivals == requests;
    let mut metrics = trace::report(&traced, setup_s + run_s, faithful);
    metrics.extend(measure::untraced_layers(&m, &cfg.method, run_s));
    TraceOutcome {
        traced,
        metrics,
        diff,
        faithful,
        sessions: workloads::sessions(&cfg),
    }
}

fn cmd_trace(a: &Args) -> Result<bool, String> {
    let w = a.workload()?;
    let seed: u64 = a.num("seed", Some(42))?;
    let spans = a
        .flags
        .get("spans")
        .cloned()
        .unwrap_or_else(|| format!("perf-out/trace-{}-s{seed}.jsonl", w.name));
    let o = traced(w.config(seed));
    println!("{} (seed {seed}), traced driver vs Simulation::run", w.name);
    let rows: Vec<(String, f64, String)> = o
        .metrics
        .iter()
        .map(|(k, v, u)| (k.clone(), *v, u.to_string()))
        .collect();
    print_section("per layer", &rows);
    if !o.faithful {
        println!(
            "  CHECK FAILED: driver differs from Simulation::run on {:?}",
            o.diff
        );
    }
    o.traced
        .tracer
        .write_jsonl(std::path::Path::new(&spans), o.traced.sched_crate)
        .map_err(|e| format!("{spans}: {e}"))?;
    println!("wrote {spans}");
    Ok(o.faithful)
}

fn cmd_compare(a: &Args) -> Result<bool, String> {
    let bounds_path = a.flags.get("bounds").map_or(BENCHMARK_JSON, String::as_str);
    if a.before.is_empty() || a.after.is_empty() {
        return Err("usage: perf compare [--bounds F] BASE.json... -- NEW.json...".into());
    }
    let load = |paths: &[String]| -> Result<Vec<Json>, String> {
        paths
            .iter()
            .map(|p| {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                Json::parse(&text).map_err(|e| format!("{p}: {e}"))
            })
            .collect()
    };
    let bounds = compare::load_bounds(bounds_path)?;
    Ok(compare::run(&bounds, &load(&a.before)?, &load(&a.after)?))
}

/// The result line of `perf bench`.
fn bench_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    Json::obj([
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        (
            "metrics",
            Json::obj(
                metrics
                    .iter()
                    .map(|(k, v, u)| (k.to_string(), Json::metric(*v, u))),
            ),
        ),
    ])
    .render()
}

fn cmd_bench(a: &Args) -> Result<bool, String> {
    let w = a.workload()?;
    let seed: u64 = a.num("seed", None)?;
    let seconds: f64 = a.num("seconds", None)?;
    let traced_run = match a.flags.get("trace").map(String::as_str) {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    if traced_run {
        let listed = compare::listed_metrics(BENCHMARK_JSON, "per_layer")?;
        let o = traced(w.config(seed));
        let have: BTreeMap<&str, f64> =
            o.metrics.iter().map(|(k, v, _)| (k.as_str(), *v)).collect();
        for (k, v, u) in &o.metrics {
            println!("{k:<36} {v:>16.6} {u}");
        }
        if !o.faithful {
            println!("driver differs from Simulation::run on {:?}", o.diff);
        }
        // A listed metric the workload does not produce reads 0: the
        // hooks of the scheduler crate it does not run, and AdaInf's own
        // counters on Ekya.
        let metrics: Vec<(&str, f64, &str)> = listed
            .iter()
            .map(|(k, u)| {
                (
                    k.as_str(),
                    have.get(k.as_str()).copied().unwrap_or(0.0),
                    u.as_str(),
                )
            })
            .collect();
        let failed = if o.faithful { 0 } else { o.sessions };
        println!(
            "{}",
            bench_line(o.faithful, 2 * o.sessions, failed, &metrics)
        );
        return Ok(o.faithful);
    }
    let listed = compare::listed_metrics(BENCHMARK_JSON, "end_to_end")?;
    let child = measure::spawn_child(&w, seed, w.bench_repeats(seconds), true)?;
    let s = measure::summarize(&child)?;
    print_summary(&w, seed, &s);
    let metrics = listed
        .iter()
        .map(|(k, u)| match s.metrics.get(k) {
            Some(m) => Ok((k.as_str(), m.0, u.as_str())),
            None => Err(format!(
                "{BENCHMARK_JSON} lists `{k}`, which perf does not measure"
            )),
        })
        .collect::<Result<Vec<_>, String>>()?;
    let failed = if s.correct { 0 } else { s.sessions };
    println!("{}", bench_line(s.correct, s.sessions, failed, &metrics));
    Ok(s.correct)
}
