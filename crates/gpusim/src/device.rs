//! The edge server: GPU inventory and utilization accounting.
//!
//! The paper's default testbed is an AWS p3.8xlarge with 4 NVLinked V100
//! GPUs (64 GB pooled GPU memory); 1-, 8- and 16-GPU variants are used in
//! the scaling experiments (Figs 18c/19c). MPS-style space multiplexing
//! lets multiple applications share a GPU, which is how all methods reach
//! ~100 % utilization (Fig 21).

use crate::memory::MemoryConfig;
use adainf_simcore::{SimDuration, SimTime};

/// Hardware description of the edge server: its V100-class devices,
/// each with [`GpuSpec::MEMORY_PER_GPU`] of memory.
#[derive(Clone, Debug)]
pub struct GpuSpec {
    /// Number of GPUs.
    pub num_gpus: u32,
    /// §6 extension — heterogeneous fleets: per-device speed factors
    /// relative to the reference class (`1.0` = a V100-equivalent).
    /// Empty means a homogeneous fleet of `num_gpus` reference devices.
    /// Allocations throughout the system are expressed in
    /// reference-GPU-equivalents, so a fleet `[1.0, 0.5, 0.5]` offers a
    /// total space of 2.0 equivalents.
    pub device_factors: Vec<f64>,
}

impl Default for GpuSpec {
    fn default() -> Self {
        GpuSpec {
            num_gpus: 4,
            device_factors: Vec::new(),
        }
    }
}

impl GpuSpec {
    /// GPU memory per device, bytes (V100: 16 GiB).
    pub const MEMORY_PER_GPU: u64 = 16 * (1 << 30);

    /// A spec with `n` GPUs and defaults otherwise.
    pub fn with_gpus(n: u32) -> Self {
        GpuSpec {
            num_gpus: n,
            ..GpuSpec::default()
        }
    }

    /// A heterogeneous fleet described by per-device speed factors
    /// (§6 "GPU Type Heterogeneity").
    ///
    /// # Panics
    /// Panics on an empty fleet or non-positive factors.
    pub fn heterogeneous(factors: Vec<f64>) -> Self {
        assert!(
            !factors.is_empty() && factors.iter().all(|f| *f > 0.0),
            "fleet factors must be positive"
        );
        GpuSpec {
            num_gpus: factors.len() as u32,
            device_factors: factors,
        }
    }

    /// Total GPU compute space available, in reference-GPU equivalents.
    pub fn total_space(&self) -> f64 {
        if self.device_factors.is_empty() {
            self.num_gpus as f64
        } else {
            self.device_factors.iter().sum()
        }
    }

    /// A memory configuration matching this server's pooled capacity.
    pub fn memory_config(&self) -> MemoryConfig {
        MemoryConfig {
            gpu_capacity: Self::MEMORY_PER_GPU * self.num_gpus as u64,
            ..MemoryConfig::default()
        }
    }
}

/// Busy-time accounting for Fig 21 (per-second GPU utilization).
#[derive(Clone, Debug)]
pub struct EdgeServer {
    spec: GpuSpec,
    /// Busy GPU-microseconds per 1 s window.
    busy_us: Vec<f64>,
}

impl EdgeServer {
    /// Creates a server with no usage recorded.
    pub fn new(spec: GpuSpec) -> Self {
        EdgeServer {
            spec,
            busy_us: Vec::new(),
        }
    }

    /// Hardware description.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Records that `gpu_amount` GPUs were busy for `duration` starting at
    /// `start`, spreading the usage over the 1 s windows it spans.
    pub fn record_busy(&mut self, start: SimTime, duration: SimDuration, gpu_amount: f64) {
        if duration == SimDuration::ZERO || gpu_amount <= 0.0 {
            return;
        }
        let mut t = start.as_micros();
        let end = t + duration.as_micros();
        while t < end {
            let window = (t / 1_000_000) as usize;
            let window_end = (window as u64 + 1) * 1_000_000;
            let span = window_end.min(end) - t;
            if window >= self.busy_us.len() {
                self.busy_us.resize(window + 1, 0.0);
            }
            self.busy_us[window] += span as f64 * gpu_amount;
            t = window_end.min(end);
        }
    }

    /// Utilization per 1 s window in `\[0, 1\]`, clamped (over-subscription
    /// through MPS shows as 1.0, matching what `nvidia-smi` reports).
    pub fn utilization_per_second(&self) -> Vec<f64> {
        let capacity = self.spec.total_space() * 1_000_000.0;
        self.busy_us
            .iter()
            .map(|b| (b / capacity).min(1.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_time_splits_across_windows() {
        let mut s = EdgeServer::new(GpuSpec::with_gpus(2));
        // 1.5 s of 1 GPU starting at 0.75 s.
        s.record_busy(
            SimTime::from_millis(750),
            SimDuration::from_millis(1500),
            1.0,
        );
        let u = s.utilization_per_second();
        assert_eq!(u.len(), 3);
        assert!((u[0] - 0.125).abs() < 1e-9); // 250 ms of 1 GPU / 2 GPUs
        assert!((u[1] - 0.5).abs() < 1e-9);
        assert!((u[2] - 0.125).abs() < 1e-9);
    }

    #[test]
    fn utilization_clamps_at_one() {
        let mut s = EdgeServer::new(GpuSpec::with_gpus(1));
        s.record_busy(SimTime::ZERO, SimDuration::from_secs(1), 3.0);
        assert_eq!(s.utilization_per_second(), vec![1.0]);
    }

    #[test]
    fn zero_records_are_ignored() {
        let mut s = EdgeServer::new(GpuSpec::default());
        s.record_busy(SimTime::ZERO, SimDuration::ZERO, 1.0);
        s.record_busy(SimTime::ZERO, SimDuration::from_secs(1), 0.0);
        assert!(s.utilization_per_second().is_empty());
    }

    #[test]
    fn spec_memory_pools_across_gpus() {
        let spec = GpuSpec::with_gpus(4);
        assert_eq!(spec.memory_config().gpu_capacity, 64 * (1 << 30));
        assert_eq!(spec.total_space(), 4.0);
    }

    #[test]
    fn heterogeneous_fleet_space_in_equivalents() {
        let spec = GpuSpec::heterogeneous(vec![1.0, 1.0, 0.5, 0.5]);
        assert_eq!(spec.num_gpus, 4);
        assert_eq!(spec.total_space(), 3.0);
        assert_eq!(spec.memory_config().gpu_capacity, 64 * (1 << 30));
    }

    #[test]
    #[should_panic(expected = "fleet factors must be positive")]
    fn bad_fleet_rejected() {
        GpuSpec::heterogeneous(vec![1.0, 0.0]);
    }
}
