//! # AdaInf — data-drift adaptive scheduling for multi-model inference
//! serving at edge servers
//!
//! A from-scratch Rust reproduction of *AdaInf: Data Drift Adaptive
//! Scheduling for Accurate and SLO-guaranteed Multiple-Model Inference
//! Serving at Edge Servers* (Shubha & Shen, ACM SIGCOMM 2023).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`simcore`] — deterministic simulation kernel (time, RNG,
//!   statistics, fan-out).
//! * [`nn`] — the mini neural-network library behind every model's
//!   accuracy dynamics (dense layers, SGD, early-exit MLPs, PCA).
//! * [`driftgen`] — drifting data streams, retraining pools and the
//!   request-arrival workload.
//! * [`modelzoo`] — backbone cost profiles (TinyYOLOv3, MobileNetV2, …)
//!   with their early-exit cut points, and trainable model instances.
//! * [`gpusim`] — the edge-server GPU simulator: latency laws, memory
//!   manager with priority eviction, layer-level execution.
//! * [`apps`] — the paper's application catalogue and runtime state.
//! * [`core`] — the AdaInf scheduler itself (drift detection, RI-DAGs,
//!   GPU space/time division, memory strategies).
//! * [`baselines`] — Ekya and Scrooge, reimplemented on the same
//!   interface.
//! * [`harness`] — the end-to-end simulation driver, metrics and the
//!   per-figure experiment registry.
//!
//! ## Quick start
//!
//! ```
//! use adainf::harness::sim::{run, Method, RunConfig};
//! use adainf::core::AdaInfConfig;
//! use adainf::simcore::SimDuration;
//!
//! let config = RunConfig {
//!     duration: SimDuration::from_secs(60),
//!     num_apps: 2,
//!     pool_size: 300,
//!     ..RunConfig::default()
//! };
//! let metrics = run(config.with_method(Method::AdaInf(AdaInfConfig::default())));
//! assert!(metrics.mean_accuracy() > 0.5);
//! ```

#![forbid(unsafe_code)]

pub use adainf_apps as apps;
pub use adainf_baselines as baselines;
pub use adainf_core as core;
pub use adainf_driftgen as driftgen;
pub use adainf_gpusim as gpusim;
pub use adainf_harness as harness;
pub use adainf_modelzoo as modelzoo;
pub use adainf_nn as nn;
pub use adainf_simcore as simcore;
