//! Identification of GPU-memory contents.
//!
//! Following \[17\] (and §2.4), the contents competing for GPU memory are
//! *parameter values* and *intermediate outputs* of model layers. Both are
//! tracked per layer. Parameters are shared across the jobs of an
//! application (Obs. 9: "the parameters from a job will be reused by the
//! next job"); intermediate outputs belong to a single job and are never
//! reused after it completes.

/// Whether a block holds layer parameters or an intermediate output.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ContentType {
    /// Layer weights/biases. Shared by retraining and inference, and
    /// across consecutive jobs of the same application.
    Param,
    /// A layer's output activation for one job's batch.
    Intermediate,
}

/// The task context in which a content block is touched. Fig 12
/// distinguishes reuse latencies by (content type × task context), giving
/// the four categories of Obs. 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskContext {
    /// Touched by a retraining task.
    Retraining,
    /// Touched by an inference task.
    Inference,
}

/// Unique identity of a content block in GPU/CPU memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentKey {
    /// Owning application.
    pub app: u32,
    /// Owning model within the application's DAG.
    pub model: u32,
    /// Content type.
    pub ctype: ContentType,
    /// Layer index within the model structure.
    pub layer: u16,
    /// Owning job for intermediates; `0` for parameters, which are shared
    /// across jobs.
    pub job: u64,
}

impl ContentKey {
    /// Key of a parameter block (job-independent).
    pub fn param(app: u32, model: u32, layer: u16) -> Self {
        ContentKey {
            app,
            model,
            ctype: ContentType::Param,
            layer,
            job: 0,
        }
    }

    /// Key of an intermediate output of a specific job.
    pub fn intermediate(app: u32, model: u32, layer: u16, job: u64) -> Self {
        ContentKey {
            app,
            model,
            ctype: ContentType::Intermediate,
            layer,
            job,
        }
    }
}

/// The four reuse categories of Fig 12a.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReuseCategory {
    /// Intermediate output touched during inference (fastest reuse,
    /// 0.01–1.6 ms in the paper).
    IntermediateInference,
    /// Parameters touched during retraining (0.02–6 ms).
    ParamRetraining,
    /// Intermediate output touched during retraining (0.02–7.5 ms).
    IntermediateRetraining,
    /// Parameters touched during inference — only reused by the *next job*
    /// of the application (67–68.6 ms).
    ParamInference,
}

impl ReuseCategory {
    /// Builds the category from a content type and task context.
    pub fn of(ctype: ContentType, ctx: TaskContext) -> Self {
        match (ctype, ctx) {
            (ContentType::Intermediate, TaskContext::Inference) => {
                ReuseCategory::IntermediateInference
            }
            (ContentType::Param, TaskContext::Retraining) => ReuseCategory::ParamRetraining,
            (ContentType::Intermediate, TaskContext::Retraining) => {
                ReuseCategory::IntermediateRetraining
            }
            (ContentType::Param, TaskContext::Inference) => ReuseCategory::ParamInference,
        }
    }

    /// All categories, in the paper's fast-to-slow reuse order.
    pub fn all() -> [ReuseCategory; 4] {
        [
            ReuseCategory::IntermediateInference,
            ReuseCategory::ParamRetraining,
            ReuseCategory::IntermediateRetraining,
            ReuseCategory::ParamInference,
        ]
    }

    /// Display label used by the figure regenerators.
    pub fn label(self) -> &'static str {
        match self {
            ReuseCategory::IntermediateInference => "intermediate/inference",
            ReuseCategory::ParamRetraining => "param/retraining",
            ReuseCategory::IntermediateRetraining => "intermediate/retraining",
            ReuseCategory::ParamInference => "param/inference",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_keys_are_job_independent() {
        let a = ContentKey::param(1, 2, 3);
        let b = ContentKey::param(1, 2, 3);
        assert_eq!(a, b);
        assert_eq!(a.job, 0);
    }

    #[test]
    fn intermediate_keys_differ_across_jobs() {
        let a = ContentKey::intermediate(1, 2, 3, 10);
        let b = ContentKey::intermediate(1, 2, 3, 11);
        assert_ne!(a, b);
    }

    #[test]
    fn category_mapping_matches_fig12() {
        assert_eq!(
            ReuseCategory::of(ContentType::Intermediate, TaskContext::Inference),
            ReuseCategory::IntermediateInference
        );
        assert_eq!(
            ReuseCategory::of(ContentType::Param, TaskContext::Inference),
            ReuseCategory::ParamInference
        );
        assert_eq!(ReuseCategory::all().len(), 4);
    }
}
