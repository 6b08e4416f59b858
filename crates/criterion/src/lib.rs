//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no crates.io access, so this workspace
//! vendors the small slice of the criterion API its benches use:
//! [`Criterion`], benchmark groups, `Bencher::iter`, and the
//! [`criterion_group!`] / [`criterion_main!`] macros. Each benchmark is
//! timed with `std::time::Instant` over an adaptively chosen iteration
//! count and reported as one `bench: <name> ... <time>/iter` line on
//! stdout (plus a machine-readable `BENCH_RESULT <name> <ns>` line).
//! Statistical analysis, plots and HTML reports are intentionally absent.
//!
//! Recognised CLI flags: `--quick` (shorter measurement window) and an
//! optional positional substring filter. Everything else cargo passes
//! (`--bench`, etc.) is ignored.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Measurement entry point handed to every benchmark function.
pub struct Criterion {
    /// Target wall-clock budget per benchmark measurement.
    measure_for: Duration,
    /// Substring filter from the CLI; `None` runs everything.
    filter: Option<String>,
    /// All `(name, ns_per_iter)` results, for the final summary.
    results: Vec<(String, f64)>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            measure_for: Duration::from_millis(300),
            filter: None,
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Builds a `Criterion` from the process CLI arguments.
    pub fn from_args() -> Self {
        let mut c = Criterion::default();
        let mut skip_value = false;
        for arg in std::env::args().skip(1) {
            if skip_value {
                skip_value = false;
                continue;
            }
            match arg.as_str() {
                "--quick" => c.measure_for = Duration::from_millis(60),
                "--bench" | "--test" | "--nocapture" => {}
                // Flags with a value we don't interpret.
                "--save-baseline" | "--baseline" | "--measurement-time" | "--warm-up-time"
                | "--sample-size" => skip_value = true,
                s if s.starts_with("--") => {}
                s => c.filter = Some(s.to_string()),
            }
        }
        c
    }

    /// Starts a named group; benchmark ids become `group/name`.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
        }
    }

    /// Times `f`'s `Bencher::iter` body and reports it under `id`.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return self;
            }
        }
        let mut bencher = Bencher {
            measure_for: self.measure_for,
            ns_per_iter: 0.0,
        };
        f(&mut bencher);
        println!("bench: {id:<42} {:>12}/iter", fmt_ns(bencher.ns_per_iter));
        println!("BENCH_RESULT {id} {:.1}", bencher.ns_per_iter);
        self.results.push((id.to_string(), bencher.ns_per_iter));
        self
    }

    /// Prints the end-of-run summary.
    pub fn final_summary(&self) {
        println!("\n{} benchmarks run", self.results.len());
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the stub sizes samples by time.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Benchmarks `f` under `group/id`.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{id}", self.name);
        self.criterion.bench_function(&full, f);
        self
    }

    /// Ends the group (no-op in the stub).
    pub fn finish(self) {}
}

/// Runs and times one benchmark body.
pub struct Bencher {
    measure_for: Duration,
    ns_per_iter: f64,
}

impl Bencher {
    /// Calls `f` repeatedly: a short warm-up, then enough iterations to
    /// fill the measurement window, and records mean ns/iteration.
    pub fn iter<O, F>(&mut self, mut f: F)
    where
        F: FnMut() -> O,
    {
        // Warm-up and calibration: find an iteration count that takes
        // roughly 1/10 of the measurement window.
        let warmup_budget = self.measure_for / 10;
        let mut batch: u64 = 1;
        let per_iter_estimate = loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= warmup_budget || batch >= 1 << 30 {
                break elapsed.as_nanos() as f64 / batch as f64;
            }
            batch *= 2;
        };

        // Measurement: run the calibrated batch size until the window
        // is spent, accumulating exact counts.
        let iters_for_window =
            (self.measure_for.as_nanos() as f64 / per_iter_estimate.max(0.1)).max(1.0);
        let batch = (iters_for_window / 8.0).ceil().min(1e9) as u64;
        let mut total_iters: u64 = 0;
        let mut total_ns: f64 = 0.0;
        let deadline = Instant::now() + self.measure_for;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            total_ns += start.elapsed().as_nanos() as f64;
            total_iters += batch;
            if Instant::now() >= deadline {
                break;
            }
        }
        self.ns_per_iter = total_ns / total_iters.max(1) as f64;
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Bundles benchmark functions into one group runner, mirroring
/// criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Generates `main` running every group, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::from_args();
            $( $group(&mut c); )+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion {
            measure_for: Duration::from_millis(5),
            filter: None,
            results: Vec::new(),
        };
        c.bench_function("smoke/add", |b| {
            b.iter(|| black_box(2u64).wrapping_add(black_box(3)))
        });
        assert_eq!(c.results.len(), 1);
        assert!(c.results[0].1 > 0.0);
    }

    #[test]
    fn groups_prefix_names() {
        let mut c = Criterion {
            measure_for: Duration::from_millis(2),
            filter: None,
            results: Vec::new(),
        };
        let mut g = c.benchmark_group("g");
        g.sample_size(10);
        g.bench_function("x", |b| b.iter(|| black_box(1)));
        g.finish();
        assert_eq!(c.results[0].0, "g/x");
    }

    #[test]
    fn filter_skips_mismatches() {
        let mut c = Criterion {
            measure_for: Duration::from_millis(2),
            filter: Some("match".into()),
            results: Vec::new(),
        };
        c.bench_function("other", |b| b.iter(|| black_box(1)));
        assert!(c.results.is_empty());
        c.bench_function("does_match", |b| b.iter(|| black_box(1)));
        assert_eq!(c.results.len(), 1);
    }
}
