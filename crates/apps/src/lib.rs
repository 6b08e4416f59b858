//! # adainf-apps
//!
//! The multi-model applications of the paper: DAG specifications
//! ([`dag::AppSpec`]), the application catalogue of §4/Fig 17
//! ([`catalog`]) — eight default applications plus the six extension
//! applications used by the varying-#apps experiments — and the runtime
//! state of a deployed application ([`runtime::AppRuntime`]: one drifting
//! task stream and one trainable model per DAG node, plus the
//! application's arrival trace).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod dag;
pub mod runtime;

pub use catalog::{apps_for_count, default_apps, extension_apps};
pub use dag::{AppSpec, NodeSpec};
pub use runtime::{AppRuntime, Retired};
