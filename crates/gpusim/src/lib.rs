//! # adainf-gpusim
//!
//! A discrete-event simulator of the paper's edge-server GPU substrate:
//! NVIDIA V100s shared between applications through MPS-style fractional
//! compute allocation, with a limited GPU memory that forces CPU–GPU
//! content movement — the environment AdaInf schedules against.
//!
//! The simulator reproduces the *laws* the paper measures rather than
//! cycle-accurate hardware behaviour:
//!
//! * [`latency`] — per-batch compute latency as a function of request
//!   batch size, allocated GPU fraction and model structure, with a
//!   saturation knee that yields an optimal batch size (Obs. 5) that
//!   shifts with allocated space and structure (Obs. 6, Figs 8–10).
//! * [`memory`] — a GPU memory manager tracking parameter blocks and
//!   intermediate outputs per layer, with pluggable eviction
//!   ([`memory::EvictionPolicyKind::Lru`] for the baselines,
//!   [`memory::EvictionPolicyKind::Priority`] implementing AdaInf's
//!   `S_c = (1−α)·R_c + α·L_s` scoring with PIN staging, §3.4.2) and
//!   reuse-time instrumentation (Figs 12–13).
//! * [`exec`] — a layer-granularity execution engine that interleaves
//!   concurrent tasks; per-request execution refetches shared parameters
//!   under memory pressure while AdaInf's layer-grouped execution (§3.4.1)
//!   fetches each layer's parameters once per batch (Obs. 7, Fig 11).
//! * [`device`] — the edge server: GPU count, aggregate throughput and
//!   memory, busy-time accounting for the utilization plot (Fig 21).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod content;
pub mod device;
pub mod exec;
pub mod latency;
pub mod memory;

pub use content::{ContentKey, ContentType, TaskContext};
pub use device::{EdgeServer, GpuSpec};
pub use exec::{ExecMode, TaskExec, TaskResult};
pub use latency::{LatencyModel, StructureCost};
pub use memory::{EvictionPolicyKind, GpuMemory, MemoryConfig, ReuseEvent};
