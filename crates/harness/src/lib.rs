//! # adainf-harness
//!
//! The end-to-end experiment driver: it deploys an application set on a
//! simulated edge server, runs a scheduler (AdaInf, one of its ablation
//! variants, Ekya, or Scrooge) session by session for a configurable
//! horizon, executes every job against the GPU latency/memory model,
//! applies retraining slices and bulk retraining to the real model heads,
//! and collects the metric streams every figure and table of the paper is
//! built from.
//!
//! * [`sim`] — the simulation loop ([`sim::Simulation`], [`sim::RunConfig`]).
//! * [`metrics`] — [`metrics::RunMetrics`], the one type that holds a
//!   run's results: per-period accuracy (overall, per app, per node), 1 s
//!   finish-rate windows, updated-model shares, retraining-time/sample
//!   bookkeeping, latency stats, utilization, overheads, and their JSON
//!   export.
//! * [`experiments`] — one item per figure/table of the paper and per
//!   experiment beyond it, each declaring the runs it reads; run by name
//!   through `adainf-bench`'s `run_all`.
//! * [`parallel`] — [`run_many`], and [`RunSet`]: each distinct run once.
//! * [`report`] — the plain-text table emitter of the regenerated
//!   tables.
//! * [`chaos`] — the chaos experiment suite: named fault scenarios
//!   (request bursts, eviction storms, pool starvation, device stalls),
//!   each a run configuration with a finish-rate floor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod experiments;
pub mod json;
pub mod metrics;
pub mod parallel;
pub mod report;
pub mod sim;

pub use metrics::RunMetrics;
pub use parallel::{run_many, RunSet};
pub use sim::{ChaosConfig, ConfigError, Method, RunConfig, Simulation};
