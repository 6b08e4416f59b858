//! # adainf-driftgen
//!
//! Synthetic data-drift and request-workload generation.
//!
//! The paper drives its evaluation with (a) the Jackson Hole surveillance
//! video stream, which exhibits *data drift* — the class-label distribution
//! and the appearance of classes change across 50 s periods — and (b) the
//! Twitter streaming trace, used as a non-stationary inference request
//! rate. Neither dataset is available here, so this crate generates
//! faithful synthetic equivalents:
//!
//! * [`stream::TaskStream`] — a class-conditional Gaussian feature stream
//!   whose class priors random-walk on the probability simplex and whose
//!   class means random-walk in feature space, once per period. The
//!   generator's ground-truth label plays the role of the paper's cloud
//!   "golden model". Per-task drift intensities reproduce Observations
//!   2–3 (object detection stable; vehicle-type recognition drifts most).
//! * [`pool::RetrainPool`] — the per-period collection of new training
//!   samples (previous period's requests plus golden labels) that
//!   retraining draws from, with used-sample bookkeeping so concurrent
//!   jobs never retrain on the same sample twice (§3.3.2). A pool's
//!   samples are drawn when first read.
//! * [`workload::ArrivalTrace`] — a diurnal-plus-bursts request-rate curve
//!   with Poisson arrivals per 5 ms session, standing in for the Twitter
//!   trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faultgen;
pub mod pool;
pub mod scenario;
pub mod stream;
pub mod workload;

pub use faultgen::{FaultKind, FaultSpec, FaultTimeline, Impairments};
pub use pool::RetrainPool;
pub use scenario::DriftProfile;
pub use stream::{DeferredSample, LabeledSamples, TaskStream, TaskStreamConfig};
pub use workload::ArrivalTrace;
