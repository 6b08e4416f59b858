//! # adainf-simcore
//!
//! Deterministic simulation kernel used by every other crate in the
//! AdaInf workspace.
//!
//! The crate provides these building blocks:
//!
//! * [`time`] — a microsecond-resolution simulated clock ([`SimTime`],
//!   [`SimDuration`]) plus the scheduling constants of the paper (50 s
//!   retraining periods, 5 ms sessions, 2 ms scheduling lead).
//! * [`rng`] — a small, seedable, splittable PRNG ([`rng::Prng`]) with the
//!   distributions the workloads need (uniform, normal, Poisson, simplex
//!   perturbation). Determinism matters: every experiment in the paper
//!   reproduction is replayable from a seed.
//! * [`stats`] / [`series`] — online means, histograms, empirical CDFs
//!   and the windowed ratio series of the metric pipeline (finish rate
//!   per 1 s window, accuracy per 5 s window and per 50 s period).
//! * [`walltime`] — the single sanctioned host-clock boundary, used only
//!   for reporting scheduler overhead metrics (never simulated time).
//! * [`parallel`] — a deterministic scoped-thread fan-out (atomic
//!   work-index pool + per-slot `OnceLock` writes) for batches of
//!   independent jobs; results are bit-identical to a sequential loop.
//!
//! Nothing in this crate knows about GPUs, DNNs or schedulers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod parallel;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;
pub mod walltime;

pub use rng::Prng;
pub use series::WindowSeries;
pub use stats::{Cdf, Histogram, OnlineStats};
pub use time::{SimDuration, SimTime};
