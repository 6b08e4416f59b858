//! Metric collection for one simulation run.
//!
//! [`RunMetrics`] is the one home of a run's results: every figure,
//! table, chaos row and summary reads its fields or its accessors, and
//! [`RunMetrics::export_json`] renders them for post-processing.

use crate::json;
use adainf_simcore::time::PERIOD;
use adainf_simcore::{Histogram, OnlineStats, SimDuration, SimTime, WindowSeries};

/// Everything measured during one run. All series are indexed by
/// simulated time; the paper's figures are projections of these streams.
pub struct RunMetrics {
    /// Method name.
    pub name: String,
    /// Request-weighted accuracy per period, pooled over applications —
    /// Figs 4a, 7a, 18, 22a.
    pub accuracy: WindowSeries,
    /// Request-weighted accuracy per 5 s window — the intra-period
    /// recovery trajectory behind Fig 3's incremental-retraining story.
    pub accuracy_fine: WindowSeries,
    /// Per-application accuracy per period.
    pub per_app_accuracy: Vec<WindowSeries>,
    /// Per-(application, node) accuracy per period — Fig 5.
    pub per_node_accuracy: Vec<Vec<WindowSeries>>,
    /// SLO finish rate per 1 s window — Figs 19, 22b.
    pub finish: WindowSeries,
    /// Share of requests served by a model already retrained in the
    /// current period — Fig 4b.
    pub updated_model: WindowSeries,
    /// GPU time spent retraining per period (seconds·GPU) — Fig 7b.
    pub retrain_gpu_seconds: Vec<f64>,
    /// Fraction of each period's retraining pools consumed — Fig 7b.
    pub samples_used: Vec<f64>,
    /// Per-job end-to-end inference latency (ms) — Fig 20.
    pub inference_latency: OnlineStats,
    /// Per-job retraining-slice time (ms; bulk retraining recorded as its
    /// full duration) — Fig 20.
    pub retrain_latency: OnlineStats,
    /// nvidia-smi-style utilization per second (fraction of seconds with
    /// kernels resident) — Fig 21.
    pub utilization: Vec<f64>,
    /// True mean GPU allocation per second (load), for EXPERIMENTS.md.
    pub allocation: Vec<f64>,
    /// Label distribution per (app, node, period) — Fig 6 JS divergence.
    pub label_distributions: Vec<Vec<Vec<Vec<f64>>>>,
    /// Measured wall-clock of period planning (Table 1, "DAG update").
    pub period_overhead: OnlineStats,
    /// Measured wall-clock per session scheduling call (Table 1).
    pub sched_overhead: OnlineStats,
    /// Total bytes shipped between edge and cloud (Table 1).
    pub edge_cloud_bytes: u64,
    /// Scheduler decision-cache hits over the run (0 for schedulers
    /// without a cache).
    pub cache_hits: u64,
    /// Scheduler decision-cache misses over the run.
    pub cache_misses: u64,
    /// Scheduler decision-cache evictions (capacity bound) over the run.
    pub cache_evictions: u64,
    /// Wall-clock nanoseconds the scheduler spent on drift detection and
    /// retraining-order selection across the run (Table 1, "drift").
    pub drift_detect_ns: u64,
    /// Drift wall time per period boundary (µs, period order) for
    /// schedulers that track it — the distribution behind
    /// [`Self::drift_detect_p99_us`]. Empty otherwise.
    pub drift_detect_period_us: Vec<f64>,
    /// Wall-clock nanoseconds the serving loop stalled on drift work.
    /// Drift work runs on the serving loop's own boundary, so this equals
    /// [`Self::drift_detect_ns`].
    pub drift_blocked_ns: u64,
    /// Wall-clock nanoseconds of session serving across the run — every
    /// `step_session` call minus the retraining time accrued inside it.
    pub serve_ns: u64,
    /// Wall-clock nanoseconds of model training across the run: staged
    /// SGD flushes (inline and boundary fan-outs) and bulk retraining.
    pub train_ns: u64,
    /// Largest resolved worker-thread count of any parallel fan-out this
    /// run actually performed (after the ambient `available_parallelism`
    /// fallback), across the scheduler's pools and the harness's
    /// boundary training stage; `None` when the run has no pool at all,
    /// so reports can omit the column instead of printing a bogus 0.
    pub worker_threads: Option<usize>,
    /// Total requests served.
    pub total_requests: u64,
    /// Retraining samples consumed per (app, node), cumulative.
    pub retrain_samples: Vec<Vec<u64>>,
    /// Per-application end-to-end job latency histogram (0–2000 ms).
    pub per_app_latency: Vec<Histogram>,
    /// Diagnostics: per-job allocated GPU fraction.
    pub diag_gpu: OnlineStats,
    /// Diagnostics: free GPUs seen at plan time.
    pub diag_free: OnlineStats,
    /// Diagnostics: retraining samples planned per job.
    pub diag_planned: OnlineStats,
    /// Diagnostics: retraining samples actually taken per job.
    pub diag_taken: OnlineStats,
    /// Requests shed by SLO-aware admission control (counted as missed
    /// in `finish` but consuming no service time). Zero without faults.
    pub shed_requests: u64,
    /// Jobs served with stale (given-up) parameters under memory
    /// pressure — the degraded steady state of bounded reload retry.
    pub degraded_jobs: u64,
    /// Retraining slices dropped by the inference-only fallback.
    pub dropped_retrain_slices: u64,
    /// Sessions that ran inside at least one active fault window.
    pub fault_sessions: u64,
    /// Memory-pressure windows that opened (each triggers one storm).
    pub eviction_storms: u64,
    /// Evictions + drops forced by pressure storms (from the fault
    /// memory model's accounting).
    pub storm_evictions: u64,
    /// Parameter-reload attempts made after pressure evicted content.
    pub reload_retries: u64,
    /// Reload give-ups: apps that exhausted the retry budget.
    pub reload_gave_up: u64,
    /// Retraining-pool samples destroyed by starvation windows.
    pub starved_samples: u64,
    /// Communication time injected by fault handling (storm writebacks
    /// and parameter reloads), ms per affected session.
    pub fault_comm: OnlineStats,
    /// Absolute error of the online latency forecast per predicted job
    /// (|predicted − actual| last-batch completion, µs). Empty unless
    /// the scheduler runs a predictor (`predicted_latency` on).
    pub pred_abs_err_us: OnlineStats,
    /// *Relative* forecast error (|predicted − actual| / actual),
    /// bucketed by session-index quartile of the run — the predictor's
    /// convergence trajectory (the trajectory bench asserts the last
    /// quartile beats the first). Relative, not µs: job latencies grow
    /// over a run as drift brings retraining load, so absolute error
    /// scales with the workload while relative error isolates model
    /// quality.
    pub pred_rel_err_quartiles: [OnlineStats; 4],
    /// Jobs whose forecast had non-negative SLO headroom (predicted to
    /// fit).
    pub headroom_predicted_fit: u64,
    /// Predicted-fit jobs whose *actual* last batch finished past the
    /// SLO — forecast optimism the headroom policy acted on.
    pub headroom_violations: u64,
}

impl RunMetrics {
    /// Creates empty metrics for `apps` applications with the given
    /// per-app node counts.
    pub fn new(name: String, node_counts: &[usize]) -> Self {
        RunMetrics {
            name,
            accuracy: WindowSeries::new(PERIOD),
            accuracy_fine: WindowSeries::new(SimDuration::from_secs(5)),
            per_app_accuracy: node_counts
                .iter()
                .map(|_| WindowSeries::new(PERIOD))
                .collect(),
            per_node_accuracy: node_counts
                .iter()
                .map(|&n| (0..n).map(|_| WindowSeries::new(PERIOD)).collect())
                .collect(),
            finish: WindowSeries::new(SimDuration::from_secs(1)),
            updated_model: WindowSeries::new(PERIOD),
            retrain_gpu_seconds: Vec::new(),
            samples_used: Vec::new(),
            inference_latency: OnlineStats::new(),
            retrain_latency: OnlineStats::new(),
            utilization: Vec::new(),
            allocation: Vec::new(),
            label_distributions: node_counts
                .iter()
                .map(|&n| (0..n).map(|_| Vec::new()).collect())
                .collect(),
            period_overhead: OnlineStats::new(),
            sched_overhead: OnlineStats::new(),
            edge_cloud_bytes: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            drift_detect_ns: 0,
            drift_detect_period_us: Vec::new(),
            drift_blocked_ns: 0,
            serve_ns: 0,
            train_ns: 0,
            worker_threads: None,
            total_requests: 0,
            retrain_samples: node_counts.iter().map(|&n| vec![0; n]).collect(),
            per_app_latency: node_counts
                .iter()
                .map(|_| Histogram::new(0.0, 2000.0, 400))
                .collect(),
            diag_gpu: OnlineStats::new(),
            diag_free: OnlineStats::new(),
            diag_planned: OnlineStats::new(),
            diag_taken: OnlineStats::new(),
            shed_requests: 0,
            degraded_jobs: 0,
            dropped_retrain_slices: 0,
            fault_sessions: 0,
            eviction_storms: 0,
            storm_evictions: 0,
            reload_retries: 0,
            reload_gave_up: 0,
            starved_samples: 0,
            fault_comm: OnlineStats::new(),
            pred_abs_err_us: OnlineStats::new(),
            pred_rel_err_quartiles: std::array::from_fn(|_| OnlineStats::new()),
            headroom_predicted_fit: 0,
            headroom_violations: 0,
        }
    }

    /// Accumulates retraining GPU time at `at`.
    pub fn add_retrain_gpu_time(&mut self, at: SimTime, gpu_seconds: f64) {
        let idx = at.period_index() as usize;
        if idx >= self.retrain_gpu_seconds.len() {
            self.retrain_gpu_seconds.resize(idx + 1, 0.0);
        }
        self.retrain_gpu_seconds[idx] += gpu_seconds;
    }

    /// Mean accuracy across periods (the headline number of Fig 18).
    pub fn mean_accuracy(&self) -> f64 {
        self.accuracy.mean_ratio()
    }

    /// Mean finish rate across 1 s windows (the headline of Fig 19).
    pub fn mean_finish_rate(&self) -> f64 {
        self.finish.mean_ratio()
    }

    /// Mean nvidia-smi-style utilization across the run's seconds (0 for
    /// a run without any).
    pub fn mean_utilization(&self) -> f64 {
        if self.utilization.is_empty() {
            0.0
        } else {
            self.utilization.iter().sum::<f64>() / self.utilization.len() as f64
        }
    }

    /// `(p50, p95, p99)` end-to-end job latency of one application, ms.
    ///
    /// # Panics
    /// Panics, in every build, on an app the run does not have.
    pub fn latency_percentiles(&self, app: usize) -> (f64, f64, f64) {
        let h = &self.per_app_latency[app];
        (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99))
    }

    /// p99 per-period drift wall time (µs), nearest-rank over the
    /// per-period samples; 0 when the scheduler tracks no per-period
    /// drift times. The tail matters more than the mean here: one slow
    /// period boundary stalls every session of that period. Selection
    /// (O(n)) instead of a full sort: the one ranked element is all the
    /// nearest-rank definition needs.
    pub fn drift_detect_p99_us(&self) -> f64 {
        if self.drift_detect_period_us.is_empty() {
            return 0.0;
        }
        let mut samples = self.drift_detect_period_us.clone();
        let rank = ((0.99 * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let (_, nth, _) = samples.select_nth_unstable_by(rank - 1, |a, b| a.total_cmp(b));
        *nth
    }

    /// Mean absolute error of the latency forecast over the run, µs
    /// (0 when no predictor ran).
    pub fn predicted_latency_mae_us(&self) -> f64 {
        self.pred_abs_err_us.mean()
    }

    /// Mean relative forecast error within one session-index quartile
    /// of the run (0 when the quartile saw no predictions or does not
    /// exist).
    pub fn predicted_rel_err_quartile(&self, quartile: usize) -> f64 {
        self.pred_rel_err_quartiles
            .get(quartile)
            .map_or(0.0, OnlineStats::mean)
    }

    /// Share of predicted-fit jobs whose actual completion violated the
    /// SLO anyway (0 when no job was predicted to fit).
    pub fn headroom_violation_rate(&self) -> f64 {
        if self.headroom_predicted_fit == 0 {
            0.0
        } else {
            self.headroom_violations as f64 / self.headroom_predicted_fit as f64
        }
    }

    /// Decision-cache hit rate over the run (0 when no cache ran).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// The run as pretty JSON: a `summary` object of headline values,
    /// then every series a figure is built from, so results can be
    /// post-processed (plotted, diffed across builds) without re-running
    /// the simulation. The wall-clock values are per period boundary
    /// (µs) or per call (ms). `worker_threads` is written only for runs
    /// that used a pool, rather than as a 0 that reads like a
    /// measurement.
    pub fn export_json(&self) -> String {
        let periods = self.period_overhead.count().max(1) as f64;
        let mut summary = vec![
            ("name", json::string(&self.name)),
            ("mean_accuracy", json::num(self.mean_accuracy())),
            ("mean_finish_rate", json::num(self.mean_finish_rate())),
            (
                "mean_inference_latency_ms",
                json::num(self.inference_latency.mean()),
            ),
            (
                "mean_retrain_latency_ms",
                json::num(self.retrain_latency.mean()),
            ),
            ("mean_utilization", json::num(self.mean_utilization())),
            ("total_requests", json::int(self.total_requests)),
            (
                "edge_cloud_gb",
                json::num(self.edge_cloud_bytes as f64 / 1e9),
            ),
            ("period_overhead_ms", json::num(self.period_overhead.mean())),
            ("sched_overhead_ms", json::num(self.sched_overhead.mean())),
            ("cache_hit_rate", json::num(self.cache_hit_rate())),
            ("cache_evictions", json::int(self.cache_evictions)),
            (
                "drift_detect_us",
                json::num(self.drift_detect_ns as f64 / 1e3 / periods),
            ),
            ("drift_detect_p99_us", json::num(self.drift_detect_p99_us())),
            ("serve_us", json::num(self.serve_ns as f64 / 1e3 / periods)),
            ("train_us", json::num(self.train_ns as f64 / 1e3 / periods)),
        ];
        if let Some(w) = self.worker_threads {
            summary.push(("worker_threads", json::int(w)));
        }
        summary.extend([
            ("shed_requests", json::int(self.shed_requests)),
            ("degraded_jobs", json::int(self.degraded_jobs)),
            ("fault_sessions", json::int(self.fault_sessions)),
            (
                "predicted_latency_mae_us",
                json::num(self.predicted_latency_mae_us()),
            ),
            (
                "headroom_violation_rate",
                json::num(self.headroom_violation_rate()),
            ),
        ]);
        let ratios = |s: &WindowSeries| json::array(s.ratios().into_iter().map(json::opt_num));
        let floats = |v: &[f64]| json::array(v.iter().map(|&x| json::num(x)));
        json::object([
            ("summary", json::object(summary)),
            ("accuracy_per_period", ratios(&self.accuracy)),
            ("finish_per_second", ratios(&self.finish)),
            ("updated_model_per_period", ratios(&self.updated_model)),
            ("retrain_gpu_seconds", floats(&self.retrain_gpu_seconds)),
            ("samples_used", floats(&self.samples_used)),
            ("utilization", floats(&self.utilization)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retrain_time_buckets_by_period() {
        let mut m = RunMetrics::new("x".into(), &[2]);
        m.add_retrain_gpu_time(SimTime::from_secs(10), 1.5);
        m.add_retrain_gpu_time(SimTime::from_secs(40), 0.5);
        m.add_retrain_gpu_time(SimTime::from_secs(60), 3.0);
        assert_eq!(m.retrain_gpu_seconds, vec![2.0, 3.0]);
    }

    #[test]
    fn summary_serialises() {
        let m = RunMetrics::new("AdaInf".into(), &[3, 2]);
        let json = m.export_json();
        assert!(json.contains("\"name\": \"AdaInf\""));
        assert!(json.contains("\"total_requests\": 0"));
    }

    #[test]
    fn drift_p99_is_nearest_rank() {
        let mut m = RunMetrics::new("x".into(), &[1]);
        // n = 0: no samples, 0 by definition.
        assert_eq!(m.drift_detect_p99_us(), 0.0);
        // n = 1: ceil(0.99·1) = 1 → the sole sample.
        m.drift_detect_period_us = vec![42.0];
        assert_eq!(m.drift_detect_p99_us(), 42.0);
        // n = 2: ceil(1.98) = 2 → the larger sample, whatever the order.
        m.drift_detect_period_us = vec![90.0, 10.0];
        assert_eq!(m.drift_detect_p99_us(), 90.0);
        // n = 100: ceil(99) = 99 → the 99th smallest of 1..=100.
        let mut v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        // Shuffle deterministically (reverse + interleave) so selection
        // does not get pre-sorted input.
        v.reverse();
        v.swap(0, 57);
        v.swap(3, 91);
        m.drift_detect_period_us = v;
        assert_eq!(m.drift_detect_p99_us(), 99.0);
    }

    #[test]
    fn latency_percentiles_of_an_empty_histogram_are_zero() {
        let m = RunMetrics::new("x".into(), &[2]);
        assert_eq!(m.latency_percentiles(0), (0.0, 0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn latency_percentiles_panic_on_an_app_the_run_lacks() {
        RunMetrics::new("x".into(), &[2]).latency_percentiles(7);
    }

    #[test]
    fn calibration_accessors_handle_empty_and_filled_state() {
        let mut m = RunMetrics::new("x".into(), &[1]);
        assert_eq!(m.predicted_latency_mae_us(), 0.0);
        assert_eq!(m.headroom_violation_rate(), 0.0);
        assert_eq!(m.predicted_rel_err_quartile(0), 0.0);
        assert_eq!(m.predicted_rel_err_quartile(9), 0.0, "oob quartile");
        m.pred_abs_err_us.add(100.0);
        m.pred_abs_err_us.add(300.0);
        m.pred_rel_err_quartiles[0].add(0.4);
        m.pred_rel_err_quartiles[3].add(0.1);
        m.headroom_predicted_fit = 4;
        m.headroom_violations = 1;
        assert_eq!(m.predicted_latency_mae_us(), 200.0);
        assert_eq!(m.predicted_rel_err_quartile(0), 0.4);
        assert_eq!(m.predicted_rel_err_quartile(3), 0.1);
        assert_eq!(m.headroom_violation_rate(), 0.25);
        let json = m.export_json();
        assert!(json.contains("\"predicted_latency_mae_us\": 200"));
        assert!(json.contains("\"headroom_violation_rate\": 0.25"));
    }

    /// A run with a value in every field `export_json` renders, an
    /// empty period and an empty second among them.
    fn exported() -> RunMetrics {
        let mut m = RunMetrics::new("AdaInf".into(), &[2]);
        m.accuracy.record(SimTime::from_secs(10), 2.0, 3.0);
        m.accuracy.record(SimTime::from_secs(110), 9.0, 10.0);
        m.finish.record(SimTime::from_millis(500), 99.0, 100.0);
        m.finish.record(SimTime::from_millis(2500), 1.0, 1.0);
        m.updated_model.record(SimTime::from_secs(10), 1.0, 4.0);
        m.add_retrain_gpu_time(SimTime::from_secs(10), 2.5);
        m.add_retrain_gpu_time(SimTime::from_secs(60), 0.1);
        m.samples_used = vec![0.3, 1.0];
        m.utilization = vec![0.75, 0.5, 1.0];
        m.inference_latency.add(12.5);
        m.inference_latency.add(20.0);
        m.retrain_latency.add(300.0);
        m.total_requests = 1234;
        m.edge_cloud_bytes = 1_500_000_000;
        m.period_overhead.add(1.25);
        m.period_overhead.add(0.75);
        m.sched_overhead.add(0.004);
        m.cache_hits = 3;
        m.cache_misses = 1;
        m.cache_evictions = 2;
        m.drift_detect_ns = 5_000_000;
        m.drift_detect_period_us = vec![2000.0, 3000.0];
        m.serve_ns = 7_000_000;
        m.train_ns = 9_000_000;
        m.shed_requests = 5;
        m.degraded_jobs = 6;
        m.fault_sessions = 7;
        m.pred_abs_err_us.add(150.0);
        m.headroom_predicted_fit = 8;
        m.headroom_violations = 1;
        m
    }

    /// `export_json` of [`exported`], key for key and digit for digit:
    /// `worker_threads` appears only when it is `Some`, and every float
    /// renders in shortest round-trip form.
    #[test]
    fn export_json_is_pinned() {
        let mut m = exported();
        assert_eq!(m.export_json(), EXPORT_WITHOUT_WORKERS);
        m.worker_threads = Some(4);
        assert_eq!(m.export_json(), EXPORT_WITH_WORKERS);
    }

    const EXPORT_WITHOUT_WORKERS: &str = r#"{
  "summary": {
    "name": "AdaInf",
    "mean_accuracy": 0.7833333333333333,
    "mean_finish_rate": 0.995,
    "mean_inference_latency_ms": 16.25,
    "mean_retrain_latency_ms": 300,
    "mean_utilization": 0.75,
    "total_requests": 1234,
    "edge_cloud_gb": 1.5,
    "period_overhead_ms": 1,
    "sched_overhead_ms": 0.004,
    "cache_hit_rate": 0.75,
    "cache_evictions": 2,
    "drift_detect_us": 2500,
    "drift_detect_p99_us": 3000,
    "serve_us": 3500,
    "train_us": 4500,
    "shed_requests": 5,
    "degraded_jobs": 6,
    "fault_sessions": 7,
    "predicted_latency_mae_us": 150,
    "headroom_violation_rate": 0.125
  },
  "accuracy_per_period": [0.6666666666666666, null, 0.9],
  "finish_per_second": [0.99, null, 1],
  "updated_model_per_period": [0.25],
  "retrain_gpu_seconds": [2.5, 0.1],
  "samples_used": [0.3, 1],
  "utilization": [0.75, 0.5, 1]
}"#;

    const EXPORT_WITH_WORKERS: &str = r#"{
  "summary": {
    "name": "AdaInf",
    "mean_accuracy": 0.7833333333333333,
    "mean_finish_rate": 0.995,
    "mean_inference_latency_ms": 16.25,
    "mean_retrain_latency_ms": 300,
    "mean_utilization": 0.75,
    "total_requests": 1234,
    "edge_cloud_gb": 1.5,
    "period_overhead_ms": 1,
    "sched_overhead_ms": 0.004,
    "cache_hit_rate": 0.75,
    "cache_evictions": 2,
    "drift_detect_us": 2500,
    "drift_detect_p99_us": 3000,
    "serve_us": 3500,
    "train_us": 4500,
    "worker_threads": 4,
    "shed_requests": 5,
    "degraded_jobs": 6,
    "fault_sessions": 7,
    "predicted_latency_mae_us": 150,
    "headroom_violation_rate": 0.125
  },
  "accuracy_per_period": [0.6666666666666666, null, 0.9],
  "finish_per_second": [0.99, null, 1],
  "updated_model_per_period": [0.25],
  "retrain_gpu_seconds": [2.5, 0.1],
  "samples_used": [0.3, 1],
  "utilization": [0.75, 0.5, 1]
}"#;

    #[test]
    fn full_export_round_trips_as_json() {
        let mut m = RunMetrics::new("AdaInf".into(), &[2]);
        m.accuracy.record(SimTime::from_secs(10), 90.0, 100.0);
        m.finish.record(SimTime::from_secs(10), 95.0, 100.0);
        m.add_retrain_gpu_time(SimTime::from_secs(10), 2.5);
        let json = m.export_json();
        assert!(json.contains("\"name\": \"AdaInf\""));
        assert!(json.contains("\"accuracy_per_period\": [0.9]"));
        assert!(json.contains("\"retrain_gpu_seconds\": [2.5]"));
        // Balanced braces/brackets — a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count(),);
        assert_eq!(json.matches('[').count(), json.matches(']').count(),);
    }
}
