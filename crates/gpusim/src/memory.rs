//! GPU memory management with CPU–GPU communication accounting.
//!
//! All tasks running on the edge server share GPU memory. When it fills,
//! contents are evicted to CPU memory and must be fetched back on reuse —
//! the communication the paper finds responsible for ~24 % of inference
//! latency in the multi-model scenario (Obs. 7, Fig 11).
//!
//! Two eviction policies are provided:
//!
//! * [`EvictionPolicyKind::Lru`] — the baseline used by the comparison
//!   methods and the AdaInf/M2 ablation.
//! * [`EvictionPolicyKind::Priority`] — AdaInf's §3.4.2 policy: each
//!   content type is scored `S_c = (1−α)·R_c + α·L_s`, where `R_c` is the
//!   mean reuse latency of the content's data type and `L_s` the owning
//!   application's SLO; the *highest*-scoring (reused latest / loosest
//!   SLO) contents are evicted first, and among evicted contents the
//!   lower-scoring ones are staged in PIN memory, which transfers back
//!   faster than pageable CPU memory \[13\].
//!
//! The manager also instruments every resident-content reuse with the
//! elapsed time since the previous access, categorised as in Fig 12, and
//! tags cross-task reuses (retraining→inference parameters, inter-model
//! intermediates — Fig 12b) and cross-job parameter reuse (Fig 13).

use crate::content::{ContentKey, ContentType, ReuseCategory, TaskContext};
use adainf_simcore::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Where a non-resident content currently lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CpuLocation {
    /// Pageable CPU memory (slow path).
    Pageable,
    /// PIN memory (fast path).
    Pinned,
}

/// Eviction policy selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictionPolicyKind {
    /// Least-recently-used, everything staged pageable.
    Lru,
    /// AdaInf's priority scoring with PIN staging (§3.4.2).
    Priority,
}

/// Configuration of the memory subsystem.
#[derive(Clone, Debug)]
pub struct MemoryConfig {
    /// GPU memory capacity in bytes (pooled across the server's GPUs).
    pub gpu_capacity: u64,
    /// PIN memory capacity in bytes ("a small portion of CPU memory").
    pub pin_capacity: u64,
    /// Pageable CPU↔GPU bandwidth, bytes/s.
    pub pageable_bandwidth: f64,
    /// PIN CPU↔GPU bandwidth, bytes/s (faster than pageable).
    pub pin_bandwidth: f64,
    /// Weight α of the SLO term in `S_c` (§3.4.2; 0.4 in the paper).
    pub alpha: f64,
    /// Which eviction policy to run.
    pub policy: EvictionPolicyKind,
    /// Record per-reuse events (Figs 12–13). Off for long runs.
    pub record_reuse: bool,
    /// Mean reuse latency per category in ms, the `R_c` table obtained
    /// by offline profiling (§3.4.2 "AdaInf takes the mean value of the
    /// range as the value of R_c of the data type"), in
    /// [`ReuseCategory::all`] order.
    pub reuse_table_ms: [f64; 4],
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            gpu_capacity: 16 * (1 << 30),
            pin_capacity: 2 * (1 << 30),
            pageable_bandwidth: 6.0e9,
            pin_bandwidth: 12.0e9,
            alpha: 0.4,
            policy: EvictionPolicyKind::Priority,
            record_reuse: false,
            // Means of the ranges in Fig 12a: intermediate/inference
            // 0.01–1.6 ms, param/retraining 0.02–6 ms,
            // intermediate/retraining 0.02–7.5 ms, param/inference
            // 67–68.6 ms.
            reuse_table_ms: [0.8, 3.0, 3.8, 67.8],
        }
    }
}

/// Why a reuse was notable across tasks (Fig 12b) or jobs (Fig 13).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrossReuse {
    /// Parameters updated by retraining, reused by the same model's
    /// inference task.
    ParamRetrainToInference,
    /// A model's last-layer intermediate output consumed by a downstream
    /// model's inference in the DAG.
    IntermediateAcrossModels,
    /// Parameters last touched by one job, reused by the next job of the
    /// same application.
    ParamAcrossJobs,
}

/// One recorded content reuse.
#[derive(Clone, Copy, Debug)]
pub struct ReuseEvent {
    /// Reuse category (content type × task context of the reuse).
    pub category: ReuseCategory,
    /// Time since the previous access of this content.
    pub elapsed: SimDuration,
    /// Cross-task/cross-job tag, if applicable.
    pub cross: Option<CrossReuse>,
}

/// A resident block. Its last touch lives in `GpuMemory::last_touch`.
#[derive(Clone, Debug)]
struct Resident {
    bytes: u64,
    /// SLO of the owning application in ms (for the `S_c` score).
    slo_ms: f64,
}

/// Statistics the memory manager accumulates.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoryStats {
    /// Resident-hit accesses.
    pub hits: u64,
    /// Misses that required a CPU→GPU fetch.
    pub fetches: u64,
    /// First-touch allocations (produced on GPU, no fetch).
    pub produces: u64,
    /// Contents evicted GPU→CPU.
    pub evictions: u64,
    /// Intermediates of retired jobs dropped without writeback.
    pub drops: u64,
    /// Total CPU→GPU + GPU→CPU transfer time.
    pub comm_time: SimDuration,
    /// Evictions forced by [`GpuMemory::apply_pressure`] capacity
    /// collapses (eviction storms), a subset of `evictions`.
    pub pressure_evictions: u64,
}

/// The shared GPU memory manager.
#[derive(Clone, Debug)]
pub struct GpuMemory {
    config: MemoryConfig,
    /// Capacity currently enforced: the configured bytes, except while
    /// an injected memory-pressure fault holds it lower.
    effective_capacity: u64,
    resident: BTreeMap<ContentKey, Resident>,
    used: u64,
    /// Non-resident contents we know about: where each lives and the
    /// bytes it was spilled with (what a pinned spill reserved in PIN).
    spilled: BTreeMap<ContentKey, (CpuLocation, u64)>,
    pin_used: u64,
    stats: MemoryStats,
    reuse_events: Vec<ReuseEvent>,
    /// Last access (time, task context, job) of every known content
    /// regardless of residency. Eviction ranks resident blocks by it,
    /// and reuse intervals (Figs 12–13) span evictions: a parameter
    /// evicted between jobs is still *reused* by the next job.
    last_touch: BTreeMap<ContentKey, (SimTime, TaskContext, u64)>,
}

/// How an access obtains the content if it is not resident.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessIntent {
    /// Content must be loaded from CPU memory if absent (parameters,
    /// previously produced activations).
    Fetch,
    /// Content is produced on the GPU (a layer writing its output);
    /// absence costs only allocation/eviction, not a fetch.
    Produce,
}

impl GpuMemory {
    /// Creates an empty memory with the given configuration.
    pub fn new(config: MemoryConfig) -> Self {
        GpuMemory {
            effective_capacity: config.gpu_capacity,
            config,
            resident: BTreeMap::new(),
            used: 0,
            spilled: BTreeMap::new(),
            pin_used: 0,
            stats: MemoryStats::default(),
            reuse_events: Vec::new(),
            last_touch: BTreeMap::new(),
        }
    }

    /// Transfer cost of `bytes` over the given link bandwidth.
    fn transfer_cost(bytes: u64, bandwidth: f64) -> SimDuration {
        SimDuration::from_millis_f64(bytes as f64 / bandwidth * 1e3)
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MemoryStats {
        self.stats
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Recorded reuse events (empty unless `record_reuse`).
    pub fn reuse_events(&self) -> &[ReuseEvent] {
        &self.reuse_events
    }

    /// `S_c = (1−α)·R_c + α·L_s` (§3.4.2) of a content last touched in
    /// `ctx` whose owner's SLO is `slo_ms`.
    fn score(&self, key: &ContentKey, ctx: TaskContext, slo_ms: f64) -> f64 {
        let r_c = self.config.reuse_table_ms[table_index(ReuseCategory::of(key.ctype, ctx))];
        (1.0 - self.config.alpha) * r_c + self.config.alpha * slo_ms
    }

    /// Frees space for `needed` bytes by evicting victims according to the
    /// configured policy. Returns the GPU→CPU transfer time incurred.
    fn make_room(&mut self, needed: u64) -> SimDuration {
        if self.used + needed <= self.effective_capacity {
            return SimDuration::ZERO;
        }
        let mut to_free = (self.used + needed).saturating_sub(self.effective_capacity);
        // Rank victims: LRU by last access, Priority by descending S_c
        // (ties broken by older access for determinism).
        struct Victim {
            key: ContentKey,
            bytes: u64,
            score: f64,
            last_access: SimTime,
            slo_ms: f64,
        }
        let mut victims: Vec<Victim> = self
            .resident
            .iter()
            .map(|(k, e)| {
                let (last_access, ctx, _) = self.last_touch[k];
                Victim {
                    key: *k,
                    bytes: e.bytes,
                    score: self.score(k, ctx, e.slo_ms),
                    last_access,
                    slo_ms: e.slo_ms,
                }
            })
            .collect();
        match self.config.policy {
            EvictionPolicyKind::Lru => {
                victims.sort_by_key(|v| (v.last_access, v.key));
            }
            EvictionPolicyKind::Priority => {
                victims.sort_by(|a, b| {
                    b.score
                        .partial_cmp(&a.score)
                        // simlint: allow(no-unwrap-in-lib) — victim scores are reuse distances and SLOs: finite, never NaN
                        .expect("scores are finite")
                        .then(a.last_access.cmp(&b.last_access))
                        .then(a.key.cmp(&b.key))
                });
            }
        }
        let mut comm = SimDuration::ZERO;
        for v in victims {
            if to_free == 0 {
                break;
            }
            self.resident.remove(&v.key);
            if cfg!(feature = "strict-invariants") {
                assert!(
                    self.used >= v.bytes,
                    "strict-invariants: evicting {} B with only {} B accounted resident",
                    v.bytes,
                    self.used
                );
            }
            self.used -= v.bytes;
            to_free = to_free.saturating_sub(v.bytes);
            self.stats.evictions += 1;
            // Stage in PIN when the policy supports it and the content is
            // expected back soon (low score) and PIN has room.
            let location = if self.config.policy == EvictionPolicyKind::Priority
                && v.score < self.pin_score_threshold(v.slo_ms)
                && self.pin_used + v.bytes <= self.config.pin_capacity
            {
                self.pin_used += v.bytes;
                CpuLocation::Pinned
            } else {
                CpuLocation::Pageable
            };
            let bandwidth = match location {
                CpuLocation::Pinned => self.config.pin_bandwidth,
                CpuLocation::Pageable => self.config.pageable_bandwidth,
            };
            comm += Self::transfer_cost(v.bytes, bandwidth);
            self.spilled.insert(v.key, (location, v.bytes));
        }
        self.stats.comm_time += comm;
        comm
    }

    /// PIN-staging threshold for a victim whose owning application has
    /// SLO `slo_ms`: contents scoring below it go to PIN. The threshold
    /// separates the "reused soon" categories (intermediates, retraining
    /// params) from the "reused next job" category, using the midpoint
    /// between the retraining-intermediate and inference-param `R_c`
    /// values — with the victim's own SLO as the `L_s` term, so the
    /// comparison `S_c < threshold` reduces to `R_c < mid` for every
    /// application regardless of how tight its SLO is. (An earlier
    /// version hardcoded a 500 ms SLO term, which mis-staged PIN for any
    /// application whose SLO was far from that: tight-SLO apps pinned
    /// their never-coming-back inference params, loose-SLO apps never
    /// pinned their about-to-be-reused retraining intermediates.)
    fn pin_score_threshold(&self, slo_ms: f64) -> f64 {
        let t = &self.config.reuse_table_ms;
        let mid = (t[2] + t[3]) / 2.0;
        (1.0 - self.config.alpha) * mid + self.config.alpha * slo_ms
    }

    /// Chaos injection point: collapses the enforced capacity to `frac`
    /// of the configured bytes and immediately evicts down to it — an
    /// eviction storm. The storm's evictions are accounted in
    /// [`MemoryStats::pressure_evictions`] as well as the regular
    /// counter. Returns the writeback time incurred, at the link's
    /// nominal bandwidth whatever the time `_now` of the storm.
    pub fn apply_pressure(&mut self, frac: f64, _now: SimTime) -> SimDuration {
        let frac = frac.clamp(0.0, 1.0);
        self.effective_capacity = ((self.config.gpu_capacity as f64 * frac).max(1.0)) as u64;
        let before = self.stats.evictions;
        let comm = self.make_room(0);
        self.stats.pressure_evictions += self.stats.evictions - before;
        comm
    }

    /// Lifts [`Self::apply_pressure`]: the configured capacity is
    /// enforced again from the next access on.
    pub fn release_pressure(&mut self) {
        self.effective_capacity = self.config.gpu_capacity;
    }

    /// Touches a content block: the central entry point of the simulator.
    ///
    /// Returns the CPU–GPU communication time this access incurred
    /// (zero on a resident hit). `now` is the accessing task's local
    /// clock; `ctx` is whether a retraining or inference task is touching
    /// the block; `slo_ms` the owning application's SLO.
    #[allow(clippy::too_many_arguments)]
    pub fn access(
        &mut self,
        key: ContentKey,
        bytes: u64,
        ctx: TaskContext,
        job: u64,
        accessor_model: u32,
        slo_ms: f64,
        intent: AccessIntent,
        now: SimTime,
    ) -> SimDuration {
        if cfg!(feature = "strict-invariants") {
            if let Some(&(at, ..)) = self.last_touch.get(&key) {
                assert!(
                    now >= at,
                    "strict-invariants: content {key:?} accessed at {now:?}, \
                     before its last touch at {at:?} — simulated time went backwards"
                );
            }
        }
        // Reuse instrumentation spans evictions: any re-access of a
        // previously touched content is a reuse, resident or not.
        if self.config.record_reuse {
            if let Some(&(at, prev_ctx, prev_job)) = self.last_touch.get(&key) {
                self.reuse_events.push(ReuseEvent {
                    category: ReuseCategory::of(key.ctype, ctx),
                    elapsed: now.since(at),
                    cross: cross_touch(&key, prev_ctx, prev_job, ctx, job, accessor_model),
                });
            }
        }
        self.last_touch.insert(key, (now, ctx, job));

        if self.resident.contains_key(&key) {
            self.stats.hits += 1;
            return SimDuration::ZERO;
        }

        // Miss: free room, then fetch or produce.
        let mut comm = self.make_room(bytes);
        let fetch_location = self.spilled.remove(&key);
        if let Some((loc, spilled_bytes)) = fetch_location {
            // Release what the spill reserved, which need not be this
            // access's byte count.
            if loc == CpuLocation::Pinned {
                if cfg!(feature = "strict-invariants") {
                    assert!(
                        self.pin_used >= spilled_bytes,
                        "strict-invariants: releasing {spilled_bytes} B of PIN with only {} B reserved",
                        self.pin_used
                    );
                }
                self.pin_used = self.pin_used.saturating_sub(spilled_bytes);
            }
            if intent == AccessIntent::Fetch {
                let bandwidth = match loc {
                    CpuLocation::Pinned => self.config.pin_bandwidth,
                    CpuLocation::Pageable => self.config.pageable_bandwidth,
                };
                let t = Self::transfer_cost(bytes, bandwidth);
                comm += t;
                self.stats.comm_time += t;
                self.stats.fetches += 1;
            } else {
                self.stats.produces += 1;
            }
        } else if intent == AccessIntent::Fetch && key.ctype == ContentType::Param {
            // First-ever touch of parameters: they start in CPU memory
            // (models are loaded from host), so the initial fetch pays
            // pageable cost.
            let t = Self::transfer_cost(bytes, self.config.pageable_bandwidth);
            comm += t;
            self.stats.comm_time += t;
            self.stats.fetches += 1;
        } else {
            self.stats.produces += 1;
        }
        self.resident.insert(key, Resident { bytes, slo_ms });
        self.used += bytes;
        comm
    }

    /// Drops all resident intermediates of `(app, job_hi)`, whatever
    /// their slot, without writeback: the execution engine encodes
    /// intermediate keys as `key.job = (job << 8) | slot`. With AdaInf's
    /// maximise-usage strategy (§3.4.1) this is called on job
    /// completion: "evict all intermediate outputs of the job but retain
    /// the updated parameters".
    pub fn retire_job_group(&mut self, app: u32, job_hi: u64) {
        let retired = |k: &ContentKey| {
            k.app == app && k.job >> 8 == job_hi && k.ctype == ContentType::Intermediate
        };
        let (used, drops) = (&mut self.used, &mut self.stats.drops);
        self.resident.retain(|k, e| {
            if !retired(k) {
                return true;
            }
            if cfg!(feature = "strict-invariants") {
                assert!(
                    *used >= e.bytes,
                    "strict-invariants: resident accounting underflow"
                );
            }
            *used -= e.bytes;
            *drops += 1;
            false
        });
        // Also forget spilled intermediates of the job. A pinned one's
        // PIN reservation is not released and stays counted in
        // `pin_used`; releasing it would change the comm inflation the
        // detailed engine (`exec::run_concurrent`) measures.
        self.spilled.retain(|k, _| !retired(k));
    }

    /// Mean reuse latency per category (ms) from recorded events — the
    /// offline profiling that builds the priority policy's `R_c` table
    /// (§3.4.2). Categories without events keep the given defaults.
    pub fn profile_reuse_table(events: &[ReuseEvent], defaults: [f64; 4]) -> [f64; 4] {
        let mut sums = [0.0f64; 4];
        let mut counts = [0u64; 4];
        for ev in events {
            let idx = table_index(ev.category);
            sums[idx] += ev.elapsed.as_millis_f64();
            counts[idx] += 1;
        }
        let mut out = defaults;
        for i in 0..4 {
            if counts[i] > 0 {
                out[i] = sums[i] / counts[i] as f64;
            }
        }
        out
    }
}

/// The index of `category`'s `R_c` in [`MemoryConfig::reuse_table_ms`].
fn table_index(category: ReuseCategory) -> usize {
    match category {
        ReuseCategory::IntermediateInference => 0,
        ReuseCategory::ParamRetraining => 1,
        ReuseCategory::IntermediateRetraining => 2,
        ReuseCategory::ParamInference => 3,
    }
}

/// Detects the cross-task / cross-job reuse patterns of Figs 12b and 13.
/// Cross-job reuse takes precedence: the retraining→inference hand-off of
/// Fig 12b is the *within-job* RI-DAG edge.
fn cross_touch(
    key: &ContentKey,
    prev_ctx: TaskContext,
    prev_job: u64,
    ctx: TaskContext,
    job: u64,
    accessor_model: u32,
) -> Option<CrossReuse> {
    match key.ctype {
        ContentType::Param => {
            if prev_job != job {
                Some(CrossReuse::ParamAcrossJobs)
            } else if prev_ctx == TaskContext::Retraining && ctx == TaskContext::Inference {
                Some(CrossReuse::ParamRetrainToInference)
            } else {
                None
            }
        }
        ContentType::Intermediate => {
            // An intermediate produced by one model being *read* by a
            // different model of the DAG = task hand-off (Fig 12b).
            if accessor_model != key.model {
                Some(CrossReuse::IntermediateAcrossModels)
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(policy: EvictionPolicyKind) -> MemoryConfig {
        MemoryConfig {
            gpu_capacity: 1000,
            pin_capacity: 500,
            pageable_bandwidth: 1.0e6, // 1 byte/µs
            pin_bandwidth: 2.0e6,
            policy,
            record_reuse: true,
            ..MemoryConfig::default()
        }
    }

    #[cfg(feature = "strict-invariants")]
    #[test]
    #[should_panic(expected = "simulated time went backwards")]
    fn strict_catches_backwards_access() {
        let mut mem = GpuMemory::new(small_config(EvictionPolicyKind::Lru));
        let key = ContentKey::param(0, 0, 0);
        mem.access(
            key,
            100,
            TaskContext::Inference,
            1,
            0,
            400.0,
            AccessIntent::Fetch,
            t(10),
        );
        mem.access(
            key,
            100,
            TaskContext::Inference,
            1,
            0,
            400.0,
            AccessIntent::Fetch,
            t(5),
        );
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn hit_costs_nothing_and_records_reuse() {
        let mut mem = GpuMemory::new(small_config(EvictionPolicyKind::Lru));
        let key = ContentKey::param(1, 1, 0);
        let c1 = mem.access(
            key,
            100,
            TaskContext::Inference,
            1,
            0,
            400.0,
            AccessIntent::Fetch,
            t(0),
        );
        assert!(c1 > SimDuration::ZERO, "first param touch fetches");
        let c2 = mem.access(
            key,
            100,
            TaskContext::Inference,
            1,
            0,
            400.0,
            AccessIntent::Fetch,
            t(500),
        );
        assert_eq!(c2, SimDuration::ZERO);
        assert_eq!(mem.stats().hits, 1);
        let ev = mem.reuse_events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].elapsed, SimDuration::from_micros(500));
        assert_eq!(ev[0].category, ReuseCategory::ParamInference);
    }

    #[test]
    fn produce_is_free_fetch_after_eviction_is_not() {
        let mut mem = GpuMemory::new(small_config(EvictionPolicyKind::Lru));
        let a = ContentKey::intermediate(1, 1, 0, 1);
        let c = mem.access(
            a,
            600,
            TaskContext::Inference,
            1,
            0,
            400.0,
            AccessIntent::Produce,
            t(0),
        );
        assert_eq!(c, SimDuration::ZERO, "producing an activation is free");
        // Fill memory so `a` gets evicted.
        let b = ContentKey::intermediate(1, 1, 1, 1);
        let evict_cost = mem.access(
            b,
            600,
            TaskContext::Inference,
            1,
            0,
            400.0,
            AccessIntent::Produce,
            t(10),
        );
        assert!(evict_cost > SimDuration::ZERO, "eviction writes back");
        assert_eq!(mem.stats().evictions, 1);
        // Re-reading `a` now fetches it from CPU.
        let refetch = mem.access(
            a,
            600,
            TaskContext::Inference,
            1,
            0,
            400.0,
            AccessIntent::Fetch,
            t(20),
        );
        assert!(refetch > SimDuration::ZERO, "refetch pays transfer");
        assert_eq!(mem.stats().fetches, 1);
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let mut mem = GpuMemory::new(small_config(EvictionPolicyKind::Lru));
        let old = ContentKey::intermediate(1, 1, 0, 1);
        let newer = ContentKey::intermediate(1, 1, 1, 1);
        mem.access(
            old,
            400,
            TaskContext::Inference,
            1,
            0,
            400.0,
            AccessIntent::Produce,
            t(0),
        );
        mem.access(
            newer,
            400,
            TaskContext::Inference,
            1,
            0,
            400.0,
            AccessIntent::Produce,
            t(10),
        );
        // Needs 400 → evicts `old` only.
        let third = ContentKey::intermediate(1, 1, 2, 1);
        mem.access(
            third,
            400,
            TaskContext::Inference,
            1,
            0,
            400.0,
            AccessIntent::Produce,
            t(20),
        );
        // `newer` still resident → hit; `old` gone → fetch.
        assert_eq!(
            mem.access(
                newer,
                400,
                TaskContext::Inference,
                1,
                0,
                400.0,
                AccessIntent::Fetch,
                t(30)
            ),
            SimDuration::ZERO
        );
        assert!(
            mem.access(
                old,
                400,
                TaskContext::Inference,
                1,
                0,
                400.0,
                AccessIntent::Fetch,
                t(40)
            ) > SimDuration::ZERO
        );
    }

    #[test]
    fn priority_policy_evicts_inference_params_before_intermediates() {
        // Inference params are reused ~67 ms later (next job) → highest
        // S_c → evicted first, even if most recently used.
        let mut mem = GpuMemory::new(small_config(EvictionPolicyKind::Priority));
        let inter = ContentKey::intermediate(1, 1, 0, 1);
        let param = ContentKey::param(1, 1, 0);
        mem.access(
            inter,
            400,
            TaskContext::Inference,
            1,
            0,
            400.0,
            AccessIntent::Produce,
            t(0),
        );
        mem.access(
            param,
            400,
            TaskContext::Inference,
            1,
            0,
            400.0,
            AccessIntent::Fetch,
            t(10),
        );
        let third = ContentKey::intermediate(1, 2, 0, 1);
        mem.access(
            third,
            400,
            TaskContext::Inference,
            1,
            0,
            400.0,
            AccessIntent::Produce,
            t(20),
        );
        // Param (S_c high) should be the victim; intermediate stays.
        assert_eq!(
            mem.access(
                inter,
                400,
                TaskContext::Inference,
                1,
                0,
                400.0,
                AccessIntent::Fetch,
                t(30)
            ),
            SimDuration::ZERO,
            "intermediate should have been kept"
        );
        assert!(
            mem.access(
                param,
                400,
                TaskContext::Inference,
                1,
                0,
                400.0,
                AccessIntent::Fetch,
                t(40)
            ) > SimDuration::ZERO,
            "param should have been evicted"
        );
    }

    #[test]
    fn retire_drops_intermediates_without_writeback_and_keeps_params() {
        let mut mem = GpuMemory::new(small_config(EvictionPolicyKind::Priority));
        let inter = ContentKey::intermediate(1, 1, 0, (7 << 8) | 3);
        let param = ContentKey::param(1, 1, 0);
        let ctx = TaskContext::Inference;
        mem.access(inter, 300, ctx, 7, 0, 400.0, AccessIntent::Produce, t(0));
        mem.access(param, 300, ctx, 7, 0, 400.0, AccessIntent::Fetch, t(1));
        let (used, comm) = (mem.used(), mem.stats().comm_time);
        mem.retire_job_group(1, 7);
        assert_eq!(mem.used(), used - 300, "intermediate freed, param kept");
        assert_eq!(mem.stats().comm_time, comm, "dropping is free");
        assert_eq!(mem.stats().drops, 1);
        assert_eq!(mem.stats().evictions, 0);
    }

    #[test]
    fn cross_task_reuse_tags() {
        let mut mem = GpuMemory::new(small_config(EvictionPolicyKind::Priority));
        let param = ContentKey::param(1, 1, 0);
        // Retraining touches, then inference reuses → ParamRetrainToInference.
        mem.access(
            param,
            100,
            TaskContext::Retraining,
            1,
            0,
            400.0,
            AccessIntent::Fetch,
            t(0),
        );
        mem.access(
            param,
            100,
            TaskContext::Inference,
            1,
            0,
            400.0,
            AccessIntent::Fetch,
            t(50),
        );
        // Next job reuses → ParamAcrossJobs.
        mem.access(
            param,
            100,
            TaskContext::Inference,
            2,
            0,
            400.0,
            AccessIntent::Fetch,
            t(60_000),
        );
        let tags: Vec<_> = mem.reuse_events().iter().map(|e| e.cross).collect();
        assert_eq!(
            tags,
            vec![
                Some(CrossReuse::ParamRetrainToInference),
                Some(CrossReuse::ParamAcrossJobs)
            ]
        );
    }

    #[test]
    fn pressure_forces_eviction_storm_and_release_restores() {
        let mut mem = GpuMemory::new(small_config(EvictionPolicyKind::Lru));
        let a = ContentKey::intermediate(1, 1, 0, 1);
        let b = ContentKey::intermediate(1, 2, 0, 1);
        mem.access(
            a,
            400,
            TaskContext::Inference,
            1,
            0,
            400.0,
            AccessIntent::Produce,
            t(0),
        );
        mem.access(
            b,
            400,
            TaskContext::Inference,
            1,
            0,
            400.0,
            AccessIntent::Produce,
            t(10),
        );
        assert_eq!(mem.used(), 800);
        // Collapse to 30 % of 1000 B → both contents must go.
        let comm = mem.apply_pressure(0.3, t(20));
        assert!(comm > SimDuration::ZERO, "storm writes back");
        assert!(mem.used() <= 300, "used {} over pressure cap", mem.used());
        assert_eq!(mem.stats().pressure_evictions, 2);
        assert_eq!(mem.stats().evictions, 2);
        // Refetch under pressure thrashes; release restores capacity and
        // both fit again with no further evictions.
        mem.release_pressure();
        let evictions_before = mem.stats().evictions;
        mem.access(
            a,
            400,
            TaskContext::Inference,
            1,
            0,
            400.0,
            AccessIntent::Fetch,
            t(30),
        );
        mem.access(
            b,
            400,
            TaskContext::Inference,
            1,
            0,
            400.0,
            AccessIntent::Fetch,
            t(40),
        );
        assert_eq!(mem.stats().evictions, evictions_before);
        assert_eq!(mem.used(), 800);
    }

    #[test]
    fn pressure_storm_counts_only_its_own_evictions() {
        let mut mem = GpuMemory::new(small_config(EvictionPolicyKind::Priority));
        let ctx = TaskContext::Inference;
        let retired = ContentKey::intermediate(1, 1, 0, 7 << 8);
        let live = ContentKey::intermediate(1, 2, 0, 8 << 8);
        mem.access(retired, 300, ctx, 7, 0, 400.0, AccessIntent::Produce, t(0));
        mem.access(live, 300, ctx, 8, 0, 400.0, AccessIntent::Produce, t(1));
        mem.retire_job_group(1, 7);
        let comm = mem.apply_pressure(0.1, t(10));
        assert!(comm > SimDuration::ZERO, "the live block is written back");
        assert_eq!(mem.stats().pressure_evictions, 1);
        assert_eq!(mem.stats().evictions, 1);
        assert_eq!(mem.stats().drops, 1, "the retire's drop, not the storm's");
    }

    #[test]
    fn pin_threshold_derives_from_the_victims_own_slo() {
        // Retraining intermediates (R_c below the category midpoint) pin
        // regardless of the owning app's SLO; inference params (R_c
        // above it) never do. The hardcoded-500 ms version got both
        // wrong away from 500 ms: a 50 ms-SLO app's params scored below
        // the fixed threshold (wrongly pinned), a 1200 ms-SLO app's
        // intermediates scored above it (wrongly pageable).
        for slo_ms in [50.0, 400.0, 1200.0] {
            let mut cfg = small_config(EvictionPolicyKind::Priority);
            cfg.gpu_capacity = 500;
            cfg.pin_capacity = 2000; // PIN space never binds in this test
            let pinned = SimDuration::from_millis_f64(400.0 / cfg.pin_bandwidth * 1e3);
            let pageable = SimDuration::from_millis_f64(400.0 / cfg.pageable_bandwidth * 1e3);
            // Park a retraining intermediate, force it out with a second
            // intermediate, refetch. The measured refetch = evicting the
            // spoiler (also a retraining intermediate → PIN) + fetching
            // the victim back from wherever it was staged.
            let mut mem = GpuMemory::new(cfg.clone());
            let inter = ContentKey::intermediate(1, 1, 0, 1);
            let spoiler = ContentKey::intermediate(1, 2, 0, 1);
            mem.access(
                inter,
                400,
                TaskContext::Retraining,
                1,
                0,
                slo_ms,
                AccessIntent::Produce,
                t(0),
            );
            mem.access(
                spoiler,
                400,
                TaskContext::Retraining,
                1,
                0,
                slo_ms,
                AccessIntent::Produce,
                t(10),
            );
            let refetch = mem.access(
                inter,
                400,
                TaskContext::Retraining,
                1,
                0,
                slo_ms,
                AccessIntent::Fetch,
                t(20),
            );
            assert_eq!(
                refetch,
                pinned + pinned,
                "slo {slo_ms}: intermediate refetch should ride PIN"
            );
            // Same shape with inference params: the spoiler (inference
            // intermediate) still pins, but the params must come back at
            // the pageable rate.
            let mut mem = GpuMemory::new(cfg.clone());
            let param = ContentKey::param(1, 1, 0);
            mem.access(
                param,
                400,
                TaskContext::Inference,
                1,
                0,
                slo_ms,
                AccessIntent::Fetch,
                t(0),
            );
            mem.access(
                spoiler,
                400,
                TaskContext::Inference,
                1,
                0,
                slo_ms,
                AccessIntent::Produce,
                t(10),
            );
            let refetch = mem.access(
                param,
                400,
                TaskContext::Inference,
                1,
                0,
                slo_ms,
                AccessIntent::Fetch,
                t(20),
            );
            assert_eq!(
                refetch,
                pinned + pageable,
                "slo {slo_ms}: param refetch should stay pageable"
            );
        }
    }

    #[test]
    fn pinned_refetch_releases_the_spilled_size() {
        // A pinned content fetched back at another size (smaller, then
        // larger) must release the bytes its spill reserved, not the
        // new access's byte count.
        for resize in [300, 450] {
            let mut cfg = small_config(EvictionPolicyKind::Priority);
            cfg.gpu_capacity = 500;
            cfg.pin_capacity = 2000;
            let mut mem = GpuMemory::new(cfg);
            let inter = ContentKey::intermediate(1, 1, 0, 1);
            let spoiler = ContentKey::intermediate(1, 2, 0, 2 << 8);
            let ctx = TaskContext::Retraining;
            mem.access(inter, 400, ctx, 1, 0, 400.0, AccessIntent::Produce, t(0));
            mem.access(spoiler, 400, ctx, 2, 0, 400.0, AccessIntent::Produce, t(10));
            assert_eq!(
                mem.pin_used, 400,
                "the retraining intermediate spills to PIN"
            );
            // The spoiler's job retires, so the refetch needs no spill.
            mem.retire_job_group(1, 2);
            mem.access(inter, resize, ctx, 1, 0, 400.0, AccessIntent::Fetch, t(20));
            assert_eq!(mem.pin_used, 0, "refetch at {resize} B");
        }
    }

    #[test]
    fn pin_staging_speeds_up_refetch() {
        // The same thrash pattern run under both policies: the priority
        // policy stages soon-reused contents in PIN, so its total
        // communication time is strictly lower than LRU's all-pageable
        // staging.
        let run = |policy: EvictionPolicyKind| -> SimDuration {
            let mut cfg = small_config(policy);
            cfg.gpu_capacity = 500;
            let mut mem = GpuMemory::new(cfg);
            let a = ContentKey::intermediate(1, 1, 0, 1);
            let b = ContentKey::intermediate(1, 2, 0, 1);
            let mut clock = 0u64;
            // Alternate touching a and b so each access evicts the other.
            for i in 0..10 {
                let key = if i % 2 == 0 { a } else { b };
                let intent = if i < 2 {
                    AccessIntent::Produce
                } else {
                    AccessIntent::Fetch
                };
                clock += 100;
                mem.access(
                    key,
                    400,
                    TaskContext::Retraining,
                    1,
                    0,
                    400.0,
                    intent,
                    t(clock),
                );
            }
            mem.stats().comm_time
        };
        let lru = run(EvictionPolicyKind::Lru);
        let pin = run(EvictionPolicyKind::Priority);
        assert!(
            pin < lru,
            "PIN staging {pin:?} should beat pageable-only {lru:?}"
        );
    }
}
