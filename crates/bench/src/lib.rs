//! # adainf-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation:
//!
//! * `run_all [NAME…]` prints the same rows/series the paper reports, for
//!   every figure, table and experiment beyond them, or for the ones
//!   whose label starts with a given name (`run_all fig18 chaos`). It
//!   accepts `--fast` (150 s horizon) and `--full` (the paper's 1000 s);
//!   the default is 500 s.
//! * Criterion micro-benchmarks (`benches/`) for the Table 1 CPU-side
//!   overheads: session scheduling latency (the paper's 2 ms), drift
//!   detection / DAG update (the paper's 4.2 s), memory-manager eviction
//!   throughput, and the mini-NN substrate.

#![forbid(unsafe_code)]

pub mod decision_bench;

pub use adainf_harness::experiments;
