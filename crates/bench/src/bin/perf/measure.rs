//! Untraced measurement: one workload, timed from outside the simulator.
//!
//! A measuring process (`perf child`) runs a workload's repeats and
//! prints one JSON line; the parent (`perf run` / `perf bench`) starts
//! it with `current_exe()`, so the peak RSS it reports belongs to that
//! workload alone. Each repeat times a fixed host reference, builds the
//! simulation three times (the first two builds are dropped: they only
//! time `Simulation::new`), runs the third to the horizon, and times the
//! reference again; the end-to-end timings are scaled by the two
//! reference readings (see [`summarize`]).

use crate::json::Json;
use crate::trace;
use crate::workloads::{self, Workload};
use adainf_harness::{Method, RunConfig, RunMetrics, Simulation};
use adainf_simcore::walltime::WallTimer;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;

/// Builds of the simulation per repeat; only the last one runs.
pub const BUILDS_PER_REPEAT: usize = 3;

/// Every end-to-end metric: `(name, unit, higher is better)`.
pub const END_TO_END: [(&str, &str, bool); 6] = [
    ("setup_s", "s", false),
    ("sessions_per_s", "1/s", true),
    ("cpu_s", "s", false),
    ("peak_rss_mb", "MB", false),
    ("mean_accuracy", "ratio", true),
    ("slo_finish_rate", "ratio", true),
];

/// Reported next to the end-to-end metrics but never compared: counts;
/// the missed-request share, whose seed-to-seed spread on the default
/// deployment (0.1 % to 0.5 % of requests) is wider than any regression
/// bound the benchmark can carry; and the host reference time.
pub const REPORTED: [(&str, &str); 6] = [
    ("sessions", "count"),
    ("requests", "count"),
    ("requests_missed", "count"),
    ("requests_unplanned", "count"),
    ("requests_missed_share", "ratio"),
    ("host.ref_ms", "ms"),
];

/// The simulated outputs of a run, as exact bit patterns keyed by
/// series name. Two runs of one configuration must agree on every
/// entry; the traced driver must agree with `Simulation::run`.
pub type Outputs = BTreeMap<&'static str, Vec<u64>>;

/// Extracts the simulated (wall-clock-free) outputs of a run.
pub fn outputs(m: &RunMetrics) -> Outputs {
    let bits = |v: Vec<Option<f64>>| -> Vec<u64> {
        v.into_iter()
            .map(|x| x.map_or(u64::MAX, f64::to_bits))
            .collect()
    };
    let floats = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
    let mut out = Outputs::new();
    out.insert("accuracy_per_period", bits(m.accuracy.ratios()));
    out.insert("accuracy_per_5s", bits(m.accuracy_fine.ratios()));
    out.insert("finish_per_1s", bits(m.finish.ratios()));
    out.insert("updated_model_per_period", bits(m.updated_model.ratios()));
    out.insert(
        "per_app_accuracy",
        m.per_app_accuracy
            .iter()
            .flat_map(|s| bits(s.ratios()))
            .collect(),
    );
    out.insert(
        "per_node_accuracy",
        m.per_node_accuracy
            .iter()
            .flatten()
            .flat_map(|s| bits(s.ratios()))
            .collect(),
    );
    out.insert("retrain_gpu_seconds", floats(&m.retrain_gpu_seconds));
    out.insert("samples_used", floats(&m.samples_used));
    out.insert("allocation_per_1s", floats(&m.allocation));
    out.insert(
        "retrain_samples",
        m.retrain_samples.iter().flatten().copied().collect(),
    );
    out.insert(
        "latency_stats",
        vec![
            m.inference_latency.count(),
            m.inference_latency.mean().to_bits(),
            m.retrain_latency.count(),
            m.retrain_latency.mean().to_bits(),
        ],
    );
    out.insert(
        "counters",
        vec![
            m.total_requests,
            m.shed_requests,
            m.edge_cloud_bytes,
            m.cache_hits,
            m.cache_misses,
            m.degraded_jobs,
            m.dropped_retrain_slices,
            m.fault_sessions,
            m.eviction_storms,
            m.storm_evictions,
            m.reload_retries,
            m.reload_gave_up,
            m.starved_samples,
        ],
    );
    out
}

/// FNV-1a over every output entry, for one-line comparisons.
pub fn fingerprint(o: &Outputs) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (k, v) in o {
        for b in k.bytes() {
            eat(b as u64);
        }
        eat(v.len() as u64);
        v.iter().for_each(|&x| eat(x));
    }
    h
}

/// Names of the entries on which two output sets differ.
pub fn diff(a: &Outputs, b: &Outputs) -> Vec<&'static str> {
    a.keys()
        .chain(b.keys())
        .filter(|k| a.get(*k) != b.get(*k))
        .copied()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect()
}

/// Entries of the table the host reference chases: 16 MiB of `u32`,
/// past the per-core L2 and into the L3 that other tenants share.
const REF_ENTRIES: u64 = 1 << 22;

/// Dependent loads the host reference makes.
const REF_STEPS: usize = 1 << 20;

/// What [`reference_ms`] reads on the host the end-to-end timings are
/// scaled to (a 2-core x86-64 VM in an ordinary phase).
pub const HOST_REF_NOMINAL_MS: f64 = 150.0;

/// Wall milliseconds of a fixed host reference: a chain of dependent
/// loads through a 16 MiB table. It calls no program crate, so no
/// change to the simulator moves it; it moves with how contended the
/// host's shared caches and memory are, which is what slows the
/// simulator on a shared VM (see README.md, Calibration).
pub fn reference_ms() -> f64 {
    // Reserved past glibc's largest dynamic mmap threshold (32 MiB), so
    // the table is always mapped and unmapped on its own and does not
    // raise the thresholds the simulation's allocations then meet. Only
    // the 16 MiB written become resident.
    let mut next: Vec<u32> = Vec::with_capacity(2 * REF_ENTRIES as usize + 1024);
    // x -> a·x + c mod 2^22 with c odd and a ≡ 1 (mod 4) has full period
    // (Hull–Dobell): one cycle through every entry, in an order no
    // hardware prefetcher follows.
    next.extend((0..REF_ENTRIES).map(|i| {
        (i.wrapping_mul(0x5851_F42D).wrapping_add(0x1405_7B7F) & (REF_ENTRIES - 1)) as u32
    }));
    let w = WallTimer::start();
    let mut p = 0usize;
    for _ in 0..REF_STEPS {
        p = next[p] as usize;
    }
    black_box(p);
    w.elapsed_ms()
}

/// User + system CPU seconds of this process so far, every thread
/// included (exited ones too), from `/proc/self/stat`. Linux reports
/// them in clock ticks of 1/100 s.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current RSS (Linux 4.0 and
/// later); false if the kernel refused.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// One timed repeat.
struct Repeat {
    /// Geometric mean of the host reference read just before the builds
    /// and just after the run.
    ref_ms: f64,
    setup_s: Vec<f64>,
    run_s: f64,
    cpu_s: f64,
    /// Peak RSS from the first build to the end of the run, so the
    /// reference's table is not in it; NaN if it could not be isolated.
    peak_rss_mb: f64,
    metrics: RunMetrics,
}

fn repeat_once(cfg: &RunConfig) -> Repeat {
    let ref_before = reference_ms();
    let isolated = reset_peak_rss();
    let mut setup_s = Vec::with_capacity(BUILDS_PER_REPEAT);
    let mut sim = None;
    for _ in 0..BUILDS_PER_REPEAT {
        // Free the previous build first: the peak RSS is that of one
        // simulation.
        drop(sim.take());
        let t = WallTimer::start();
        let s = Simulation::new(cfg.clone());
        setup_s.push(t.elapsed_secs());
        sim = Some(s);
    }
    let sim = sim.expect("at least one build per repeat");
    let cpu0 = process_cpu_s();
    let t = WallTimer::start();
    let metrics = sim.run();
    let run_s = t.elapsed_secs();
    let cpu_s = process_cpu_s() - cpu0;
    let peak_rss_mb = if isolated { peak_rss_mb() } else { f64::NAN };
    let ref_ms = (ref_before * reference_ms()).sqrt();
    Repeat {
        ref_ms,
        setup_s,
        run_s,
        cpu_s,
        peak_rss_mb,
        metrics,
    }
}

/// The per-layer counters `RunMetrics` exports, for a run of `method`
/// whose `Simulation::run` took `run_s`: `(name, value, unit)`. They
/// cost no tracing. The scheduler's counters are named after its crate;
/// drift and decision-cache counters exist only for AdaInf.
pub fn untraced_layers(
    m: &RunMetrics,
    method: &Method,
    run_s: f64,
) -> Vec<(String, f64, &'static str)> {
    let serve = m.serve_ns as f64 / 1e9;
    let train = m.train_ns as f64 / 1e9;
    let critical = m.drift_blocked_ns as f64 / 1e9;
    let sched = trace::sched_crate(method);
    let mut out = vec![
        ("harness.serve_s".to_string(), serve, "s"),
        ("harness.train_s".to_string(), train, "s"),
        (
            "harness.unattributed_s".to_string(),
            run_s - serve - train - critical,
            "s",
        ),
        (
            format!("{sched}.decide_s"),
            m.sched_overhead.mean() * m.sched_overhead.count() as f64 / 1e3,
            "s",
        ),
        (
            "simcore.parallel.workers".to_string(),
            m.worker_threads.unwrap_or(0) as f64,
            "count",
        ),
    ];
    if let Method::AdaInf(_) = method {
        let periods_ms: Vec<f64> = m.drift_detect_period_us.iter().map(|us| us / 1e3).collect();
        out.extend([
            (
                "core.drift_work_s".to_string(),
                m.drift_detect_ns as f64 / 1e9,
                "s",
            ),
            ("core.drift_critical_s".to_string(), critical, "s"),
            (
                "core.decision_cache.hit_rate".to_string(),
                m.cache_hit_rate(),
                "ratio",
            ),
            (
                "core.drift_period_ms.p50".to_string(),
                median(&periods_ms),
                "ms",
            ),
            (
                "core.drift_period_ms.max".to_string(),
                periods_ms.iter().copied().fold(0.0, f64::max),
                "ms",
            ),
            (
                "core.drift_period_ms.n".to_string(),
                periods_ms.len() as f64,
                "count",
            ),
        ]);
    }
    out
}

/// The seed of repeat `i` when each repeat runs other inputs: `seed`
/// itself first, then seeds derived from it.
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs `repeats` repeats of `w` in this process and returns the
/// measurement as JSON.
///
/// * With `vary_seeds` off, every repeat runs at `seed`, and their
///   simulated outputs must be bit-identical.
/// * With `vary_seeds` on, repeat `i` runs at [`sub_seed`]`(seed, i)`.
///   The workloads' run time depends on their inputs by up to 15 % from
///   seed to seed, so spreading one invocation over several input sets
///   keeps its result steadier across the seeds it is given.
///
/// Either way the inputs are a function of `seed` and `repeats` alone.
pub fn child(w: &Workload, seed: u64, repeats: usize, vary_seeds: bool) -> Json {
    let mut reps: Vec<Json> = Vec::with_capacity(repeats);
    let mut fingerprints: BTreeMap<u64, u64> = BTreeMap::new();
    let mut identical = true;
    let mut valid = true;
    let mut peak_rss_mb = 0.0f64;
    for i in 0..repeats {
        let seed_i = if vary_seeds { sub_seed(seed, i) } else { seed };
        let cfg = w.config(seed_i);
        let requests = workloads::arrived_requests(&cfg);
        let r = repeat_once(&cfg);
        // `f64::max` would drop a NaN; keep it, so the summary flags it.
        peak_rss_mb = if r.peak_rss_mb.is_nan() {
            f64::NAN
        } else {
            peak_rss_mb.max(r.peak_rss_mb)
        };
        let m = &r.metrics;
        let fp = fingerprint(&outputs(m));
        identical &= *fingerprints.entry(seed_i).or_insert(fp) == fp;
        let served = m.finish.pooled_ratio();
        let quality = [m.mean_accuracy(), m.mean_finish_rate(), 1.0 - served];
        valid &= quality
            .iter()
            .all(|v| v.is_finite() && (0.0..=1.0).contains(v));
        // Every arrival the serving loop counted must be one the replay
        // counted; the difference is the arrivals nobody planned.
        valid &= requests >= m.total_requests;
        let layers = untraced_layers(m, &cfg.method, r.run_s)
            .into_iter()
            .map(|(k, v, unit)| (k, Json::metric(v, unit)));
        reps.push(Json::obj([
            ("seed", seed_i.into()),
            ("host.ref_ms", r.ref_ms.into()),
            (
                "setup_s",
                Json::Arr(r.setup_s.iter().map(|&s| s.into()).collect()),
            ),
            ("run_s", r.run_s.into()),
            ("cpu_s", r.cpu_s.into()),
            ("fingerprint", Json::str(format!("{fp:016x}"))),
            ("sessions", workloads::sessions(&cfg).into()),
            ("requests", requests.into()),
            (
                "requests_missed",
                ((1.0 - served) * requests as f64).round().into(),
            ),
            (
                "requests_unplanned",
                requests.saturating_sub(m.total_requests).into(),
            ),
            ("requests_missed_share", quality[2].into()),
            ("mean_accuracy", quality[0].into()),
            ("slo_finish_rate", quality[1].into()),
            ("layers", Json::obj(layers)),
        ]));
    }
    Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", seed.into()),
        ("identical", identical.into()),
        ("valid", valid.into()),
        ("peak_rss_mb", peak_rss_mb.into()),
        ("repeats", Json::Arr(reps)),
    ])
}

/// Starts `perf child` for one workload and returns its parsed result.
pub fn spawn_child(
    w: &Workload,
    seed: u64,
    repeats: usize,
    vary_seeds: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["child", "--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--repeats", &repeats.to_string()])
        .args(["--vary-seeds", if vary_seeds { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("starting the {} child: {e}", w.name))?;
    if !out.status.success() {
        return Err(format!(
            "{} child failed ({}): {}",
            w.name,
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    Json::parse(last).map_err(|e| format!("{} child printed bad JSON: {e}", w.name))
}

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// A child's result reduced to one value per metric. The end-to-end
/// timings are scaled to the nominal host: each repeat's times are
/// multiplied by [`HOST_REF_NOMINAL_MS`] over the reference read around
/// that repeat. `setup_s` is then the median over every build, and
/// `sessions_per_s` and `cpu_s` come from the mean over repeats, which
/// after scaling varies less between invocations than the median. The
/// simulated quality metrics are means over repeats (they differ only
/// between seeds), and counts and per-layer times are medians, unscaled.
pub struct Summary {
    /// `name -> (value, unit)`, every metric of the invocation.
    pub metrics: BTreeMap<String, (f64, String)>,
    /// Repeats run.
    pub repeats: usize,
    /// Sessions simulated across every repeat.
    pub sessions: u64,
    /// Everything the child checked held.
    pub correct: bool,
    /// Why `correct` is false, if it is.
    pub problems: Vec<String>,
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Reduces a child's JSON to one value per metric and checks it.
pub fn summarize(child: &Json) -> Result<Summary, String> {
    let reps = child
        .get("repeats")
        .and_then(Json::as_arr)
        .filter(|r| !r.is_empty())
        .ok_or("child result has no repeats")?;
    let per_rep = |k: &str| -> Vec<f64> {
        reps.iter()
            .filter_map(|r| r.get(k).and_then(Json::as_f64))
            .collect()
    };
    let need = |r: &Json, k: &str| -> Result<f64, String> {
        r.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("a repeat has no {k}"))
    };
    let mut setups = Vec::new();
    let (mut run_s, mut cpu_s) = (Vec::new(), Vec::new());
    for r in reps {
        let scale = HOST_REF_NOMINAL_MS / need(r, "host.ref_ms")?;
        let builds = r
            .get("setup_s")
            .and_then(Json::as_arr)
            .ok_or("a repeat has no setup_s")?;
        setups.extend(builds.iter().filter_map(Json::as_f64).map(|s| s * scale));
        run_s.push(need(r, "run_s")? * scale);
        cpu_s.push(need(r, "cpu_s")? * scale);
    }
    let sessions = per_rep("sessions");
    let mut metrics: BTreeMap<String, (f64, String)> = BTreeMap::new();
    let mut put = |k: &str, v: f64, unit: &str| {
        metrics.insert(k.to_string(), (v, unit.to_string()));
    };
    put("setup_s", median(&setups), "s");
    put("sessions_per_s", mean(&sessions) / mean(&run_s), "1/s");
    put("cpu_s", mean(&cpu_s), "s");
    put("host.ref_ms", median(&per_rep("host.ref_ms")), "ms");
    put(
        "peak_rss_mb",
        child
            .get("peak_rss_mb")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN),
        "MB",
    );
    for k in ["mean_accuracy", "slo_finish_rate", "requests_missed_share"] {
        put(k, mean(&per_rep(k)), "ratio");
    }
    for k in [
        "sessions",
        "requests",
        "requests_missed",
        "requests_unplanned",
    ] {
        put(k, median(&per_rep(k)), "count");
    }
    put("run_s", median(&per_rep("run_s")), "s");
    let first_layers = reps[0].get("layers").and_then(Json::as_obj);
    for (k, v) in first_layers.into_iter().flatten() {
        let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
        let vals: Vec<f64> = reps
            .iter()
            .filter_map(|r| r.get("layers")?.get(k)?.get("value")?.as_f64())
            .collect();
        put(k, median(&vals), unit);
    }

    let mut problems = Vec::new();
    if child.get("identical") != Some(&Json::Bool(true)) {
        problems.push("repeats of one seed differ in their simulated outputs".to_string());
    }
    if child.get("valid") != Some(&Json::Bool(true)) {
        problems.push(
            "an output is non-finite or outside [0, 1], or the loop counted more \
             requests than arrived"
                .to_string(),
        );
    }
    for (k, (v, _)) in &metrics {
        if !v.is_finite() {
            problems.push(format!("{k} is not finite"));
        }
    }
    Ok(Summary {
        metrics,
        repeats: reps.len(),
        sessions: sessions.iter().sum::<f64>() as u64,
        correct: problems.is_empty(),
        problems,
    })
}

/// The commit of the checkout in the working directory, read from
/// `.git` without running git; `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(h) = std::fs::read_to_string(git.join(r)) {
        return h.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// Cores this process may use.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
