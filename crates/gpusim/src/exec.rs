//! Layer-granularity execution of concurrent retraining/inference tasks.
//!
//! This is the *detailed* mode of the simulator, used by the offline
//! profiler and the memory-behaviour experiments (Figs 11–13). It executes
//! every layer touch of every concurrent task against the shared
//! [`GpuMemory`], in a deterministic earliest-local-clock interleaving that
//! stands in for MPS time-slicing of co-located kernels \[25\].
//!
//! The execution mode realises §3.4.1:
//!
//! * [`ExecMode::PerRequest`] — the baseline: each request in a batch runs
//!   the model's layers independently, so a layer's parameters are touched
//!   `batch` times with other tasks' (and requests') steps interleaved in
//!   between; under memory pressure the parameters bounce between CPU and
//!   GPU memory.
//! * [`ExecMode::LayerGrouped`] — AdaInf: "runs the execution of a single
//!   model layer for all the requests in a batch at the same time", so
//!   each layer's parameters are fetched at most once per batch.
//!
//! Compute time is identical in both modes (the strategy saves
//! communication, not arithmetic); it is taken from the
//! [`crate::latency::LatencyModel`] and spread over the
//! steps in proportion to their FLOPs.

use crate::content::{ContentKey, TaskContext};
use crate::latency::{LatencyModel, StructureCost};
use crate::memory::{AccessIntent, GpuMemory};
use adainf_simcore::{SimDuration, SimTime};

/// Cost description of one layer.
#[derive(Clone, Copy, Debug)]
pub struct LayerSpec {
    /// Forward FLOPs per sample.
    pub flops: f64,
    /// Parameter bytes of the layer.
    pub param_bytes: u64,
    /// Activation (output) bytes per sample.
    pub activation_bytes: u64,
}

/// What a task does.
#[derive(Clone, Copy, Debug)]
pub enum TaskKind {
    /// Serve `requests` inference requests (in batches of `TaskExec::batch`).
    Inference {
        /// Number of requests in the job for this model.
        requests: u32,
    },
    /// Retrain on `samples` samples for `epochs` epochs.
    Retraining {
        /// Number of retraining samples.
        samples: u32,
        /// Number of passes over the samples.
        epochs: u32,
    },
}

/// Execution strategy (§3.4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Requests run layers independently (baseline; AdaInf/M1 ablation).
    PerRequest,
    /// One pass per layer covering the whole batch (AdaInf).
    LayerGrouped,
}

/// One schedulable task (a vertex of a job's retraining-inference DAG).
#[derive(Clone, Debug)]
pub struct TaskExec {
    /// Owning application.
    pub app: u32,
    /// Model within the application.
    pub model: u32,
    /// Job identifier (session-unique).
    pub job: u64,
    /// Inference or retraining, with its size.
    pub kind: TaskKind,
    /// The structure to execute (full or early-exit prefix).
    pub layers: Vec<LayerSpec>,
    /// Request/sample batch size.
    pub batch: u32,
    /// Allocated GPU fraction (of one GPU).
    pub frac: f64,
    /// Owning application's latency SLO in ms (for eviction scoring).
    pub slo_ms: f64,
    /// Upstream DAG dependency: this task's layer-0 input is the
    /// `(model, layer)` intermediate output of another task of the job.
    pub input_from: Option<(u32, u16)>,
    /// Local start time of the task.
    pub start: SimTime,
}

impl TaskExec {
    /// Aggregate structure cost of this task's layer stack.
    pub fn structure_cost(&self) -> StructureCost {
        StructureCost {
            flops_per_sample: self.layers.iter().map(|l| l.flops).sum(),
            activation_bytes: self.layers.iter().map(|l| l.activation_bytes as f64).sum(),
            param_bytes: self.layers.iter().map(|l| l.param_bytes as f64).sum(),
        }
    }

    fn context(&self) -> TaskContext {
        match self.kind {
            TaskKind::Inference { .. } => TaskContext::Inference,
            TaskKind::Retraining { .. } => TaskContext::Retraining,
        }
    }
}

/// Outcome of one task's execution.
#[derive(Clone, Copy, Debug)]
pub struct TaskResult {
    /// Pure compute time.
    pub compute: SimDuration,
    /// CPU–GPU communication time incurred by this task's accesses.
    pub comm: SimDuration,
}

/// The total compute and communication time of a run's tasks, in ms:
/// the two sums every report of the detailed engine reads.
pub fn total_ms(results: &[TaskResult]) -> (f64, f64) {
    let compute = results.iter().map(|r| r.compute.as_millis_f64()).sum();
    let comm = results.iter().map(|r| r.comm.as_millis_f64()).sum();
    (compute, comm)
}

/// A single layer touch of some portion of a batch.
#[derive(Clone, Copy, Debug)]
struct Step {
    layer: u16,
    /// Samples covered by the step (whole batch or 1).
    span: u32,
    /// Encoded intermediate slot (distinguishes per-request activations).
    slot: u64,
    /// Backward-pass step (retraining only): reads instead of produces.
    backward: bool,
    /// Compute duration of the step.
    compute: SimDuration,
}

/// Builds the step list of a task under the given mode and latency model.
fn build_steps(task: &TaskExec, model: &LatencyModel, mode: ExecMode) -> Vec<Step> {
    let cost = task.structure_cost();
    let total_flops: f64 = cost.flops_per_sample.max(1.0);
    let mut steps = Vec::new();
    let (units, epochs, train) = match task.kind {
        TaskKind::Inference { requests } => (requests, 1u32, false),
        TaskKind::Retraining { samples, epochs } => (samples, epochs.max(1), true),
    };
    if units == 0 || task.layers.is_empty() {
        return steps;
    }
    let batch = task.batch.max(1);
    let batches = units.div_ceil(batch);
    let per_batch = if train {
        model.per_batch_training(&cost, batch, task.frac)
    } else {
        model.per_batch_inference(&cost, batch, task.frac)
    };
    // Forward gets the inference share; backward (retraining only) the rest.
    let fwd_total = if train {
        per_batch.mul_f64(1.0 / model.train_expansion)
    } else {
        per_batch
    };
    let bwd_total = per_batch.saturating_sub(fwd_total);

    for _epoch in 0..epochs {
        for bi in 0..batches {
            let this_batch = if bi + 1 == batches && units % batch != 0 {
                units % batch
            } else {
                batch
            };
            let groups: Vec<(u32, u64)> = match mode {
                ExecMode::LayerGrouped => vec![(this_batch, (task.job << 8) | 0xFF)],
                ExecMode::PerRequest => (0..this_batch)
                    .map(|r| (1u32, (task.job << 8) | r as u64))
                    .collect(),
            };
            // Forward sweep.
            for (li, layer) in task.layers.iter().enumerate() {
                let share = layer.flops / total_flops;
                for &(span, slot) in &groups {
                    let frac_of_batch = span as f64 / this_batch as f64;
                    steps.push(Step {
                        layer: li as u16,
                        span,
                        slot,
                        backward: false,
                        compute: fwd_total.mul_f64(share * frac_of_batch),
                    });
                }
            }
            // Backward sweep (retraining).
            if train {
                for (li, layer) in task.layers.iter().enumerate().rev() {
                    let share = layer.flops / total_flops;
                    for &(span, slot) in &groups {
                        let frac_of_batch = span as f64 / this_batch as f64;
                        steps.push(Step {
                            layer: li as u16,
                            span,
                            slot,
                            backward: true,
                            compute: bwd_total.mul_f64(share * frac_of_batch),
                        });
                    }
                }
            }
        }
    }
    steps
}

/// Executes a set of concurrent tasks against the shared memory, in
/// earliest-local-clock order, and returns one [`TaskResult`] per task
/// (same order as the input).
pub fn run_concurrent(
    tasks: &[TaskExec],
    model: &LatencyModel,
    mem: &mut GpuMemory,
    mode: ExecMode,
) -> Vec<TaskResult> {
    struct Live {
        steps: Vec<Step>,
        cursor: usize,
        clock: SimTime,
        compute: SimDuration,
        comm: SimDuration,
    }
    let mut live: Vec<Live> = tasks
        .iter()
        .map(|t| Live {
            steps: build_steps(t, model, mode),
            cursor: 0,
            clock: t.start,
            compute: SimDuration::ZERO,
            comm: SimDuration::ZERO,
        })
        .collect();
    // Outstanding tasks per (app, job), to retire a job's intermediates
    // when its last task completes ("evict all intermediate outputs of
    // the job but retain the updated parameters", §3.4.1 — part of the
    // layer-grouped/maximise-usage strategy).
    let mut outstanding: std::collections::BTreeMap<(u32, u64), usize> =
        std::collections::BTreeMap::new();
    for t in tasks {
        *outstanding.entry((t.app, t.job)).or_insert(0) += 1;
    }

    // Earliest-local-clock dispatch emits steps in nondecreasing time
    // order; `strict-invariants` checks that as it goes.
    let mut last_dispatch = SimTime::ZERO;
    loop {
        // Pick the unfinished task with the earliest local clock.
        let next = live
            .iter()
            .enumerate()
            .filter(|(_, l)| l.cursor < l.steps.len())
            .min_by_key(|(i, l)| (l.clock, *i))
            .map(|(i, _)| i);
        let Some(idx) = next else { break };
        let task = &tasks[idx];
        let ctx = task.context();
        let step = live[idx].steps[live[idx].cursor];
        let now = live[idx].clock;
        if cfg!(feature = "strict-invariants") {
            assert!(
                now >= last_dispatch,
                "strict-invariants: dispatch clock went backwards ({now:?} < {last_dispatch:?})"
            );
        }
        last_dispatch = now;
        let mut comm = SimDuration::ZERO;

        let layer = &task.layers[step.layer as usize];
        // Touch the layer's parameters.
        comm += mem.access(
            ContentKey::param(task.app, task.model, step.layer),
            layer.param_bytes,
            ctx,
            task.job,
            task.model,
            task.slo_ms,
            AccessIntent::Fetch,
            now,
        );
        // Layer 0 forward reads the upstream model's output (DAG edge).
        if step.layer == 0 && !step.backward {
            if let Some((up_model, up_layer)) = task.input_from {
                comm += mem.access(
                    ContentKey::intermediate(task.app, up_model, up_layer, step.slot),
                    layer.activation_bytes * step.span as u64,
                    ctx,
                    task.job,
                    task.model,
                    task.slo_ms,
                    AccessIntent::Fetch,
                    now,
                );
            }
        } else if step.layer > 0 && !step.backward {
            // Read the previous layer's activation.
            let prev = &task.layers[step.layer as usize - 1];
            comm += mem.access(
                ContentKey::intermediate(task.app, task.model, step.layer - 1, step.slot),
                prev.activation_bytes * step.span as u64,
                ctx,
                task.job,
                task.model,
                task.slo_ms,
                AccessIntent::Fetch,
                now,
            );
        }
        // The step's own activation: produced forward, re-read backward.
        let intent = if step.backward {
            AccessIntent::Fetch
        } else {
            AccessIntent::Produce
        };
        comm += mem.access(
            ContentKey::intermediate(task.app, task.model, step.layer, step.slot),
            layer.activation_bytes * step.span as u64,
            ctx,
            task.job,
            task.model,
            task.slo_ms,
            intent,
            now,
        );

        let l = &mut live[idx];
        l.comm += comm;
        l.compute += step.compute;
        l.clock = l.clock + step.compute + comm;
        l.cursor += 1;
        if l.cursor == l.steps.len() {
            let slot = outstanding
                .get_mut(&(task.app, task.job))
                // simlint: allow(no-unwrap-in-lib) — every task was counted into `outstanding` above
                .expect("task was registered");
            *slot -= 1;
            if *slot == 0 && mode == ExecMode::LayerGrouped {
                mem.retire_job_group(task.app, task.job);
            }
        }
    }

    live.into_iter()
        .map(|l| TaskResult {
            compute: l.compute,
            comm: l.comm,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{EvictionPolicyKind, MemoryConfig};

    fn layers(n: usize, flops: f64, param: u64, act: u64) -> Vec<LayerSpec> {
        (0..n)
            .map(|_| LayerSpec {
                flops,
                param_bytes: param,
                activation_bytes: act,
            })
            .collect()
    }

    fn inference_task(app: u32, model: u32, job: u64, requests: u32, batch: u32) -> TaskExec {
        TaskExec {
            app,
            model,
            job,
            kind: TaskKind::Inference { requests },
            layers: layers(6, 1.0e7, 500_000, 200_000),
            batch,
            frac: 0.5,
            slo_ms: 400.0,
            input_from: None,
            start: SimTime::ZERO,
        }
    }

    /// Parameter-dominated task: big per-layer weights, tiny activations —
    /// the regime where per-request execution refetches weights.
    fn param_heavy_task(app: u32, job: u64) -> TaskExec {
        TaskExec {
            app,
            model: 1,
            job,
            kind: TaskKind::Inference { requests: 32 },
            layers: layers(6, 1.0e7, 2_000_000, 10_000),
            batch: 16,
            frac: 0.5,
            slo_ms: 400.0,
            input_from: None,
            start: SimTime::ZERO,
        }
    }

    fn tight_memory(capacity: u64, policy: EvictionPolicyKind) -> GpuMemory {
        GpuMemory::new(MemoryConfig {
            gpu_capacity: capacity,
            pin_capacity: capacity / 2,
            record_reuse: true,
            policy,
            ..MemoryConfig::default()
        })
    }

    #[test]
    fn compute_matches_latency_model() {
        let model = LatencyModel::default();
        let task = inference_task(1, 1, 1, 16, 16);
        let mut mem = GpuMemory::new(MemoryConfig::default()); // ample memory
        let res = run_concurrent(
            std::slice::from_ref(&task),
            &model,
            &mut mem,
            ExecMode::LayerGrouped,
        );
        let expect = model.worst_case(&task.structure_cost(), 16, 16, 0.5);
        let got = res[0].compute;
        let diff = got.as_micros().abs_diff(expect.as_micros());
        assert!(
            diff <= expect.as_micros() / 50 + 12,
            "compute {got:?} vs {expect:?}"
        );
    }

    #[test]
    fn layer_grouped_has_less_comm_under_pressure() {
        let model = LatencyModel::default();
        // Two concurrent apps contending for memory that cannot hold both
        // working sets: per-request execution refetches each layer's
        // weights once per request, layer-grouped once per batch.
        let tasks = vec![param_heavy_task(1, 1), param_heavy_task(2, 2)];
        let mut mem_pr = tight_memory(3_000_000, EvictionPolicyKind::Lru);
        let pr = run_concurrent(&tasks, &model, &mut mem_pr, ExecMode::PerRequest);
        let mut mem_lg = tight_memory(3_000_000, EvictionPolicyKind::Lru);
        let lg = run_concurrent(&tasks, &model, &mut mem_lg, ExecMode::LayerGrouped);
        let comm_pr: u64 = pr.iter().map(|r| r.comm.as_micros()).sum();
        let comm_lg: u64 = lg.iter().map(|r| r.comm.as_micros()).sum();
        assert!(
            comm_lg * 2 < comm_pr,
            "layer-grouped {comm_lg}us vs per-request {comm_pr}us"
        );
    }

    #[test]
    fn no_pressure_means_little_comm() {
        let model = LatencyModel::default();
        let task = inference_task(1, 1, 1, 16, 16);
        let mut mem = GpuMemory::new(MemoryConfig::default());
        let res = run_concurrent(&[task], &model, &mut mem, ExecMode::PerRequest);
        // Only the initial parameter load should cost anything.
        let param_bytes = 6 * 500_000;
        let expected = SimDuration::from_millis_f64(param_bytes as f64 / 6.0e9 * 1e3);
        assert!(
            res[0].comm <= expected + SimDuration::from_micros(50),
            "comm {:?} expected ≈{expected:?}",
            res[0].comm
        );
    }

    #[test]
    fn retraining_produces_backward_reuse() {
        let model = LatencyModel::default();
        let task = TaskExec {
            kind: TaskKind::Retraining {
                samples: 16,
                epochs: 1,
            },
            ..inference_task(1, 1, 1, 0, 16)
        };
        let mut mem = GpuMemory::new(MemoryConfig {
            record_reuse: true,
            ..MemoryConfig::default()
        });
        run_concurrent(&[task], &model, &mut mem, ExecMode::LayerGrouped);
        use crate::content::ReuseCategory;
        let events = mem.reuse_events();
        assert!(
            events
                .iter()
                .any(|e| e.category == ReuseCategory::ParamRetraining),
            "backward pass must reuse params"
        );
        assert!(
            events
                .iter()
                .any(|e| e.category == ReuseCategory::IntermediateRetraining),
            "backward pass must reuse activations"
        );
    }

    #[test]
    fn dag_dependency_reads_upstream_output() {
        let model = LatencyModel::default();
        let up = inference_task(1, 0, 1, 16, 16);
        let mut down = inference_task(1, 1, 1, 16, 16);
        down.input_from = Some((0, 5)); // model 0's last layer output
                                        // Downstream starts after upstream so its layer-0 read hits the
                                        // produced content.
        down.start = SimTime::from_millis(50);
        let mut mem = GpuMemory::new(MemoryConfig {
            record_reuse: true,
            ..MemoryConfig::default()
        });
        run_concurrent(&[up, down], &model, &mut mem, ExecMode::LayerGrouped);
        use crate::memory::CrossReuse;
        assert!(
            mem.reuse_events()
                .iter()
                .any(|e| e.cross == Some(CrossReuse::IntermediateAcrossModels)),
            "DAG hand-off must be recorded as cross-model reuse"
        );
    }

    #[test]
    fn multi_epoch_retraining_multiplies_compute() {
        let model = LatencyModel::default();
        let one = TaskExec {
            kind: TaskKind::Retraining {
                samples: 32,
                epochs: 1,
            },
            ..inference_task(1, 1, 1, 0, 16)
        };
        let three = TaskExec {
            kind: TaskKind::Retraining {
                samples: 32,
                epochs: 3,
            },
            ..inference_task(1, 1, 1, 0, 16)
        };
        let mut mem = GpuMemory::new(MemoryConfig::default());
        let r1 = run_concurrent(&[one], &model, &mut mem, ExecMode::LayerGrouped);
        let mut mem2 = GpuMemory::new(MemoryConfig::default());
        let r3 = run_concurrent(&[three], &model, &mut mem2, ExecMode::LayerGrouped);
        let ratio = r3[0].compute.as_micros() as f64 / r1[0].compute.as_micros().max(1) as f64;
        assert!((ratio - 3.0).abs() < 0.1, "epoch scaling {ratio}");
    }

    #[test]
    fn partial_final_batch_accounted() {
        // 20 requests at batch 16 → one full batch + one of 4.
        let model = LatencyModel::default();
        let task = inference_task(1, 1, 1, 20, 16);
        let mut mem = GpuMemory::new(MemoryConfig::default());
        let res = run_concurrent(
            std::slice::from_ref(&task),
            &model,
            &mut mem,
            ExecMode::LayerGrouped,
        );
        let expect = model.worst_case(&task.structure_cost(), 20, 16, 0.5);
        let diff = res[0].compute.as_micros().abs_diff(expect.as_micros());
        assert!(
            diff <= expect.as_micros() / 20 + 20,
            "{:?} vs {expect:?}",
            res[0].compute
        );
    }

    #[test]
    fn consecutive_jobs_reuse_parameters() {
        // Obs. 9 / Fig 13: the second job of the same app hits the
        // parameters the first job left resident.
        let model = LatencyModel::default();
        let job1 = inference_task(1, 1, 1, 16, 16);
        let mut job2 = inference_task(1, 1, 2, 16, 16);
        job2.start = SimTime::from_millis(70);
        let mut mem = GpuMemory::new(MemoryConfig {
            record_reuse: true,
            ..MemoryConfig::default()
        });
        run_concurrent(&[job1, job2], &model, &mut mem, ExecMode::LayerGrouped);
        use crate::memory::CrossReuse;
        let cross_jobs = mem
            .reuse_events()
            .iter()
            .filter(|e| e.cross == Some(CrossReuse::ParamAcrossJobs))
            .count();
        assert!(
            cross_jobs >= 6,
            "expected per-layer cross-job reuse, got {cross_jobs}"
        );
        // And the reuse gap reflects the inter-job interval (~70 ms).
        let gap = mem
            .reuse_events()
            .iter()
            .filter(|e| e.cross == Some(CrossReuse::ParamAcrossJobs))
            .map(|e| e.elapsed.as_millis_f64())
            .fold(0.0f64, f64::max);
        assert!(gap > 40.0 && gap < 120.0, "gap {gap}ms");
    }

    #[test]
    fn empty_task_finishes_instantly() {
        let model = LatencyModel::default();
        let task = inference_task(1, 1, 1, 0, 16);
        let mut mem = GpuMemory::new(MemoryConfig::default());
        let res = run_concurrent(&[task], &model, &mut mem, ExecMode::LayerGrouped);
        assert_eq!(res[0].compute, SimDuration::ZERO);
        assert_eq!(res[0].comm, SimDuration::ZERO);
    }
}
