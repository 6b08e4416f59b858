//! # adainf-core
//!
//! The AdaInf scheduler (§3): data-drift-aware joint scheduling of
//! retraining and inference for multi-model applications on an edge
//! server's GPUs.
//!
//! Components, one module per mechanism in the paper:
//!
//! * [`plan`] — the scheduler interface shared with the baselines: a
//!   period-level hook (drift detection, retraining-inference DAG
//!   generation, bulk/cloud retraining plans) and a session-level hook
//!   (per-job GPU fraction, batch size, structure choice, retraining
//!   slices).
//! * [`drift_detect`] — §3.2: PCA + cosine-distance selection of the most
//!   deviating `S` samples, iterative growth of `S` until the detected
//!   set stabilises, and per-model impact degrees.
//! * [`drift_artifacts`] — the per-boundary drift artifacts: PCA fits,
//!   deviation rankings and correctness prefix-sums built once per
//!   boundary for every node it reads, in two phases, and shared between
//!   detection and retraining-order selection; between boundaries only
//!   each node's warm-start PCA basis stays. PCA randomness runs on
//!   keyed child streams, so a build is the same at every worker count.
//! * [`ridag`] — §3.2: the retraining-inference DAG of one application.
//! * [`profiler`] — the stand-in for AdaInf's offline profiling: batch ×
//!   structure latency tables at full GPU and communication-inflation
//!   factors per memory strategy.
//! * [`regression`] — the non-linear (power-law) regression of \[3\] used
//!   to scale latencies between GPU fractions and to invert for the
//!   required fraction.
//! * [`space`] — §3.3.1: GPU space division among the jobs of a session,
//!   proportional to their SLO-derived demand.
//! * [`timealloc`] — §3.3.2: splitting a job's SLO time between inference
//!   and retraining, early-exit structure selection under the accuracy
//!   threshold `A_m`, impact-proportional retraining-time division and
//!   retraining-setting selection.
//! * [`degrade`] — graceful-degradation decisions for overloaded
//!   sessions: SLO-aware admission control, inference-only fallback and
//!   bounded reload retry, driven by the harness's fault injection.
//! * [`predict`] — online per-application latency prediction (streaming
//!   ridge regression) and the SLO-headroom scorer that feeds learned
//!   `fixed`/`per_batch` forecasts into [`degrade`]'s admission when
//!   [`AdaInfConfig::predicted_latency`] is on.
//! * [`config`] — the tunables (`A_m`, `S`…) and the [`Variant`] a run
//!   is: AdaInf, one of the ablations /I, /U, /S, /E, /M1 and /M2 of
//!   §5.2, or a no-retraining reference.
//! * [`cache`] — exact memoisation of the per-session scheduling
//!   searches, invalidated at period boundaries.
//! * [`scheduler`] — [`scheduler::AdaInfScheduler`], tying it together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod degrade;
pub mod drift_artifacts;
pub mod drift_detect;
pub mod plan;
pub mod predict;
pub mod profiler;
pub mod regression;
pub mod ridag;
pub mod scheduler;
pub mod space;
pub mod timealloc;

pub use config::{AdaInfConfig, Variant};
pub use degrade::DegradePolicy;
pub use plan::{JobPlan, PeriodPlan, RetrainSlice, Scheduler, SessionCtx};
pub use predict::{LatencyFeatures, LatencyPredictor, PredictedLatency};
pub use scheduler::AdaInfScheduler;
