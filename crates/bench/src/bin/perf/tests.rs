//! Tests of the benchmark itself: the traced driver against the
//! simulator, span accounting, `compare`'s verdicts, and agreement
//! between this program and `BENCHMARK.json`.

use crate::compare::{listed_metrics, verdict, Verdict};
use crate::json::Json;
use crate::measure::{diff, outputs, END_TO_END};
use crate::trace::{self, LogHist};
use crate::workloads::{arrived_requests, Workload, WORKLOADS};
use adainf_harness::Simulation;
use adainf_simcore::SimDuration;

/// Short horizon for the driver tests: two period boundaries, so drift
/// detection, boundary training and the period roll-over all run.
fn short() -> SimDuration {
    SimDuration::from_secs(60)
}

#[test]
fn driver_is_bit_identical_to_simulation_run() {
    for w in WORKLOADS {
        for seed in [42, 7] {
            let cfg = w.config_for(seed, short());
            let expected = outputs(&Simulation::new(cfg.clone()).run());
            let traced = trace::run(cfg.clone());
            let got = outputs(&traced.metrics);
            assert!(
                got == expected,
                "{} seed {seed}: driver differs on {:?}",
                w.name,
                diff(&got, &expected)
            );
            assert_eq!(
                traced.counters.arrivals,
                arrived_requests(&cfg),
                "{} seed {seed}: arrivals",
                w.name
            );
        }
    }
}

#[test]
fn span_self_times_sum_to_traced_wall() {
    // The chaos workload exercises every layer, nested spans included.
    let w = WORKLOADS[3];
    let t = trace::run(w.config_for(11, short()));
    let self_s: f64 = trace::LAYERS
        .iter()
        .map(|&l| t.tracer.stats(l).self_ns as f64 / 1e9)
        .sum();
    let gap = (t.wall_s - self_s).abs() / t.wall_s;
    assert!(gap < 0.01, "self times {self_s} s vs wall {} s", t.wall_s);
    for l in trace::LAYERS {
        assert!(t.tracer.stats(l).calls > 0, "{:?} never called", l);
    }
}

#[test]
fn every_listed_per_layer_metric_is_produced() {
    // Every per-layer metric BENCHMARK.json lists must come out of a
    // traced run, with the listed unit. Times must be measured on every
    // workload it lists; counts, ratios and flags on at least one of
    // them (`perf bench` reads an absent one as 0).
    let listed = listed_metrics(&benchmark_json_path(), "per_layer").expect("per_layer list");
    let runs: Vec<_> = benchmark_workloads()
        .iter()
        .map(|name| {
            let w = Workload::by_name(name).expect("listed workload exists");
            let o = crate::traced(w.config_for(5, short()));
            assert!(o.faithful, "{}: driver differs on {:?}", w.name, o.diff);
            o.metrics
        })
        .collect();
    for (name, unit) in &listed {
        let found: Vec<f64> = runs
            .iter()
            .filter_map(|m| m.iter().find(|(k, ..)| k == name))
            .map(|(_, v, u)| {
                assert_eq!(u, unit, "{name}");
                *v
            })
            .collect();
        if matches!(unit.as_str(), "s" | "us") {
            assert!(
                found.len() == runs.len() && found.iter().all(|&v| v > 0.0),
                "{name} = {found:?}"
            );
        } else {
            assert!(!found.is_empty(), "{name} is never produced");
        }
    }
}

#[test]
fn compare_tie_is_unchanged() {
    let v = [5.0, 5.0, 5.0];
    assert_eq!(verdict(&v, &v, 0.05, true), Verdict::Unchanged);
    assert_eq!(verdict(&v, &v, 0.05, false), Verdict::Unchanged);
}

#[test]
fn compare_spread_wider_than_bound_is_unresolved() {
    let base = [1.0, 2.0, 3.0];
    let new = [1.5, 2.5, 2.0];
    assert_eq!(verdict(&base, &new, 0.05, true), Verdict::Unresolved);
    assert_eq!(verdict(&base, &new, 0.05, false), Verdict::Unresolved);
}

#[test]
fn compare_one_side_beating_every_run_resolves_a_wide_spread() {
    let base: Vec<f64> = (0..10).map(|i| 100.0 + 6.0 * i as f64).collect();
    let new: Vec<f64> = base.iter().map(|x| x + 100.0).collect();
    assert_eq!(verdict(&base, &new, 0.05, true), Verdict::Better);
    assert_eq!(verdict(&base, &new, 0.05, false), Verdict::Worse);
    // Separated from a wide base, but within the bound: not a regression.
    let wide = [
        50.0, 60.0, 70.0, 98.0, 99.0, 100.0, 100.0, 100.0, 101.0, 101.0,
    ];
    let near: Vec<f64> = (0..10).map(|i| 102.0 + i as f64).collect();
    assert_eq!(verdict(&wide, &near, 0.1, false), Verdict::Unchanged);
    // Too few pairs to claim the gain.
    assert_eq!(
        verdict(&base[..5], &new[..5], 0.05, true),
        Verdict::Unchanged
    );
}

#[test]
fn compare_gain_needs_nine_in_ten_pairs() {
    let base = [
        100.0, 101.0, 100.5, 100.2, 99.8, 100.1, 100.3, 99.9, 100.4, 100.0,
    ];
    let better: Vec<f64> = base.iter().map(|x| x + 5.0).collect();
    assert_eq!(verdict(&base, &better, 0.05, true), Verdict::Better);
    // Two lost pairs out of ten: not a gain.
    let mut mixed = better.clone();
    mixed[0] = 90.0;
    mixed[1] = 90.0;
    assert_eq!(verdict(&base, &mixed, 0.2, true), Verdict::Unchanged);
    let worse: Vec<f64> = base.iter().map(|x| x - 10.0).collect();
    assert_eq!(verdict(&base, &worse, 0.05, true), Verdict::Worse);
}

#[test]
fn log_histogram_quantiles_are_within_a_sixteenth() {
    let mut h = LogHist::default();
    for ns in 1..=10_000u64 {
        h.add(ns * 100);
    }
    for q in [0.5, 0.9, 0.99] {
        let exact = (q * 10_000.0) * 100.0;
        let got = h.quantile(q);
        assert!(
            (got - exact).abs() / exact < 1.0 / 16.0,
            "q{q}: {got} vs {exact}"
        );
    }
    assert_eq!(h.quantile(1.0), 1_000_000.0);
    assert_eq!(LogHist::default().quantile(0.5), 0.0);
}

#[test]
fn json_round_trips() {
    let doc = Json::obj([
        ("a", Json::Num(0.1 + 0.2)),
        (
            "b",
            Json::Arr(vec![Json::Bool(true), Json::Null, Json::str("x\"y\n")]),
        ),
        ("c", Json::obj([("d", Json::Num(-1.5e-7))])),
    ]);
    assert_eq!(Json::parse(&doc.render()), Ok(doc));
    assert!(Json::parse("{\"a\": 1,}").is_err());
}

/// Path of the `BENCHMARK.json` of the repository this directory
/// belongs to.
fn benchmark_json_path() -> String {
    let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    loop {
        let p = dir.join("BENCHMARK.json");
        if p.is_file() {
            return p.display().to_string();
        }
        assert!(
            dir.pop(),
            "no BENCHMARK.json above {}",
            env!("CARGO_MANIFEST_DIR")
        );
    }
}

#[test]
fn benchmark_json_lists_what_perf_bench_prints() {
    let path = benchmark_json_path();
    let doc = Json::parse(&std::fs::read_to_string(&path).expect("readable BENCHMARK.json"))
        .expect("valid BENCHMARK.json");
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u, _)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed_metrics(&path, "end_to_end"), Ok(e2e));
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
    {
        let name = m.get("name").and_then(Json::as_str).unwrap_or("");
        let higher = END_TO_END.iter().find(|e| e.0 == name).map(|e| e.2);
        let better = m.get("better").and_then(Json::as_str);
        assert_eq!(
            better,
            higher.map(|h| if h { "higher" } else { "lower" }),
            "{name}"
        );
    }
    let listed = benchmark_workloads();
    assert!(!listed.is_empty());
    for name in &listed {
        assert!(Workload::by_name(name).is_some(), "unknown workload {name}");
    }
}

/// Names of the workloads `BENCHMARK.json` runs, in its order.
fn benchmark_workloads() -> Vec<String> {
    let path = benchmark_json_path();
    let doc = Json::parse(&std::fs::read_to_string(&path).expect("readable BENCHMARK.json"))
        .expect("valid BENCHMARK.json");
    doc.get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .map(str::to_string)
        .collect()
}
