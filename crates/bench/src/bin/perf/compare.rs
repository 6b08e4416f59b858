//! `perf compare`: two sets of `perf run` result files, compared metric
//! by metric against the bounds in `BENCHMARK.json`.
//!
//! Each file contributes one value per (workload, metric): its
//! invocation's summary of its repeats. For every end-to-end metric the
//! command prints each side's median and quartiles and a verdict:
//!
//! * **unresolved** — either side's spread (IQR over median) exceeds the
//!   bound, unless every run of one side beats every run of the other;
//! * **worse** — the new median is worse than the base median by more
//!   than the bound;
//! * **better** — at least [`MIN_PAIRS`] pairs ran, the new side wins
//!   at least 9 in 10 of them (base run i against new run i, ties
//!   counting for neither) and its median beats the base median by more
//!   than the base's own IQR;
//! * **unchanged** — anything else.

use crate::json::Json;
use crate::measure::{median, quantile};

/// Pairs of runs a gain needs: with fewer, one side can win every pair
/// by chance (five pairs of the same code do so one time in 32).
pub const MIN_PAIRS: usize = 10;

/// The verdict for one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Interquartile range over the median's magnitude (0 when every value
/// is equal, infinite when the median is 0 but the values are not).
pub fn spread(v: &[f64]) -> f64 {
    let iqr = quantile(v, 0.75) - quantile(v, 0.25);
    let m = median(v).abs();
    if iqr == 0.0 {
        0.0
    } else if m == 0.0 {
        f64::INFINITY
    } else {
        iqr / m
    }
}

/// Judges `new` against `base` for a metric with regression `bound`
/// (a share of the base median).
pub fn verdict(base: &[f64], new: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    // Orient every value so that larger is better.
    let g = |x: f64| if higher_is_better { x } else { -x };
    let b: Vec<f64> = base.iter().map(|&x| g(x)).collect();
    let n: Vec<f64> = new.iter().map(|&x| g(x)).collect();
    let (mb, mn) = (median(&b), median(&n));
    let scale = mb.abs().max(f64::MIN_POSITIVE);
    let gain = (mn - mb) / scale;
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let new_beats_all = min(&n) > max(&b);
    let base_beats_all = min(&b) > max(&n);
    let pairs = b.len().min(n.len());

    if spread(base) > bound || spread(new) > bound {
        return if new_beats_all {
            if pairs >= MIN_PAIRS {
                Verdict::Better
            } else {
                Verdict::Unchanged
            }
        } else if base_beats_all {
            if -gain > bound {
                Verdict::Worse
            } else {
                Verdict::Unchanged
            }
        } else {
            Verdict::Unresolved
        };
    }
    if -gain > bound {
        return Verdict::Worse;
    }
    let wins = b.iter().zip(&n).filter(|(x, y)| y > x).count();
    let base_iqr = quantile(&b, 0.75) - quantile(&b, 0.25);
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && mn - mb > base_iqr {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// One end-to-end metric's definition from `BENCHMARK.json`.
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The metric list `key` (`end_to_end` or `per_layer`) of the
/// `BENCHMARK.json` at `path`.
pub fn metric_list(path: &str, key: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get(key)
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .ok_or_else(|| format!("{path}: no {key} list"))
}

/// `(name, unit)` of every metric in the list `key` of a
/// `BENCHMARK.json`, in its order.
pub fn listed_metrics(path: &str, key: &str) -> Result<Vec<(String, String)>, String> {
    metric_list(path, key)?
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            Ok((
                s("name").ok_or_else(|| format!("{key} entry without a name"))?,
                s("unit").unwrap_or_default(),
            ))
        })
        .collect()
}

/// Reads the end-to-end metric bounds from a `BENCHMARK.json`.
pub fn load_bounds(path: &str) -> Result<Vec<Bound>, String> {
    metric_list(path, "end_to_end")?
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            Ok(Bound {
                name: s("name").ok_or("end_to_end entry without a name")?,
                unit: s("unit").unwrap_or_default(),
                higher_is_better: s("better").as_deref() == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without a bound")?,
            })
        })
        .collect()
}

/// Per-file values of `metric` on `workload`, for files that have it.
fn values(files: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    files
        .iter()
        .filter_map(|f| {
            f.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn fmt(x: f64) -> String {
    if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

fn quartiles(v: &[f64]) -> String {
    format!(
        "{} [{} .. {}]",
        fmt(median(v)),
        fmt(quantile(v, 0.25)),
        fmt(quantile(v, 0.75))
    )
}

/// Runs `perf compare`; returns whether no pair was worse.
pub fn run(bounds: &[Bound], base: &[Json], new: &[Json]) -> bool {
    let mut workloads: Vec<String> = Vec::new();
    for f in base.iter().chain(new) {
        if f.get("correct") == Some(&Json::Bool(false)) {
            println!(
                "warning: {} was recorded with failed output checks",
                f.get("commit").and_then(Json::as_str).unwrap_or("a run")
            );
        }
        if let Some(ws) = f.get("workloads").and_then(Json::as_obj) {
            for w in ws.keys() {
                if !workloads.contains(w) {
                    workloads.push(w.clone());
                }
            }
        }
    }
    for (label, side) in [("base", base), ("new", new)] {
        let refs: Vec<f64> = workloads
            .iter()
            .flat_map(|w| values(side, w, "host.ref_ms"))
            .collect();
        let s = spread(&refs);
        println!(
            "{label}: {} file(s), host.ref_ms {}{}",
            side.len(),
            quartiles(&refs),
            if s > 0.10 {
                format!("  NOISY (spread {:.1} % > 10 %)", s * 100.0)
            } else {
                String::new()
            }
        );
    }
    let mut ok = true;
    let mut counts = [0usize; 4];
    for w in &workloads {
        println!("\n{w}");
        println!(
            "  {:<18} {:>28} {:>28} {:>8}  verdict",
            "metric", "base median [q1 .. q3]", "new median [q1 .. q3]", "change"
        );
        for b in bounds {
            let (bv, nv) = (values(base, w, &b.name), values(new, w, &b.name));
            if bv.is_empty() || nv.is_empty() {
                println!("  {:<18} missing on one side", b.name);
                continue;
            }
            let v = verdict(&bv, &nv, b.bound, b.higher_is_better);
            counts[v as usize] += 1;
            ok &= v != Verdict::Worse;
            let change = (median(&nv) - median(&bv)) / median(&bv).abs().max(f64::MIN_POSITIVE);
            println!(
                "  {:<18} {:>28} {:>28} {:>+7.2}%  {} (bound {} %, {})",
                format!("{} ({})", b.name, b.unit),
                quartiles(&bv),
                quartiles(&nv),
                change * 100.0,
                v.label(),
                b.bound * 100.0,
                if b.higher_is_better {
                    "higher is better"
                } else {
                    "lower is better"
                },
            );
        }
    }
    println!(
        "\nbetter {}, worse {}, unchanged {}, unresolved {}",
        counts[Verdict::Better as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unchanged as usize],
        counts[Verdict::Unresolved as usize]
    );
    ok
}
