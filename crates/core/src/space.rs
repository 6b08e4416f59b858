//! GPU space division among applications (§3.3.1).
//!
//! With `T_a` the average time to complete a job, `s = ⌈T_a / 5 ms⌉`
//! sessions run concurrently (partial sessions cannot overlap), so each
//! session receives `G / s` of the edge server's `G` GPUs. Within a
//! session, each job gets space
//! proportional to its demand: the fraction `G^i` that the fitted
//! regression says is needed to pull the job's best full-GPU worst-case
//! latency `L^i_w` down to its SLO `L^i_s`. The batch size is then
//! re-adjusted for the actually allocated space (Obs. 6) — for the
//! structure the job will run, so that step belongs to the time plan
//! ([`crate::timealloc::plan_time`]).

use crate::cache::DecisionCache;
use crate::profiler::Profiler;
use adainf_gpusim::StructureCost;
use adainf_simcore::time::SESSION;
use adainf_simcore::SimDuration;

/// One job's demand description for space division.
#[derive(Clone, Copy, Debug)]
pub struct JobDemand {
    /// Application index.
    pub app: usize,
    /// Predicted requests this session.
    pub requests: u32,
    /// Full-structure cost of the application's initial DAG (profiling
    /// uses the DAG without retraining tasks, §3.3.1).
    pub cost: StructureCost,
    /// The application's latency SLO.
    pub slo: SimDuration,
}

/// The space division outcome for one job.
#[derive(Clone, Copy, Debug)]
pub struct JobSpace {
    /// Application index.
    pub app: usize,
    /// Allocated GPU amount (GPU units, ≤ 1 per job).
    pub gpu: f64,
}

/// Snaps a GPU fraction onto the scheduler's allocation grid: whole
/// centi-GPUs (integer percent, the granularity real MPS-style sharing
/// exposes via active-thread percentages), with a one-milli-GPU floor so
/// a starved job keeps the minimal allocation the server ledger can
/// represent. Finer precision in the scheduler's promise is unobservable
/// downstream — the edge server accounts in-flight space in integer
/// milli-GPUs — and snapping keeps the derived fractions on a small
/// recurrent set of bit patterns, which the decision cache's exact-key
/// tables rely on to ever see a repeat.
pub fn quantize_space(gpu: f64) -> f64 {
    ((gpu * 100.0).round() / 100.0).max(1e-3)
}

/// The SLO-derived demand fraction of one job (§3.3.1): the fraction the
/// fitted regression says pulls the job's best full-GPU worst case down
/// to its SLO. Depends only on the job's (spec-fixed) cost, SLO and
/// request count — the memoisation axis of the decision cache.
pub fn slo_demand(job: &JobDemand, profiler: &Profiler) -> f64 {
    let (_b, l_w) = profiler.optimal_batch_full(&job.cost, job.requests);
    profiler
        .scaler
        .required_fraction(l_w.as_millis_f64(), job.slo.as_millis_f64())
        .max(1e-3)
}

/// The §6 joint `(fraction, batch)` choice of one job: for every batch
/// candidate, invert the regression from that batch's own full-GPU worst
/// case; keep the pair with the smallest fraction that meets the SLO.
pub fn joint_choice(job: &JobDemand, profiler: &Profiler) -> (f64, u32) {
    use adainf_gpusim::latency::BATCH_CANDIDATES;
    BATCH_CANDIDATES
        .iter()
        .map(|&b| {
            let full = profiler.worst_case_full(&job.cost, job.requests, b);
            let g = profiler
                .scaler
                .required_fraction(full.as_millis_f64(), job.slo.as_millis_f64())
                .max(1e-3);
            (g, b)
        })
        .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite fractions")) // simlint: allow(no-unwrap-in-lib) — fractions are clamped to [1e-3, ..], never NaN
        .expect("candidates non-empty") // simlint: allow(no-unwrap-in-lib) — BATCH_CANDIDATES is a non-empty const
}

/// Divides `total_gpus` among the session's jobs, with the demand
/// inversion memoised in `cache`.
///
/// `avg_job_time` is the EWMA of recent job completion times (`T_a`);
/// `slo_aware = false` is the AdaInf/S ablation (even split).
pub fn divide_space(
    jobs: &[JobDemand],
    total_gpus: f64,
    avg_job_time: SimDuration,
    slo_aware: bool,
    profiler: &Profiler,
    cache: &mut DecisionCache,
) -> Vec<JobSpace> {
    if jobs.is_empty() {
        return Vec::new();
    }
    let session_pool = session_pool(total_gpus, avg_job_time);

    // Demand per job: fraction needed to meet the SLO from the best
    // full-GPU batch configuration.
    let demands: Vec<f64> = jobs
        .iter()
        .map(|j| {
            if !slo_aware {
                return 1.0;
            }
            cache.demand(j.app, j.requests, || slo_demand(j, profiler))
        })
        .collect();
    let total_demand: f64 = demands.iter().sum();

    jobs.iter()
        .zip(&demands)
        .map(|(j, d)| JobSpace {
            app: j.app,
            gpu: quantize_space((session_pool * d / total_demand).clamp(1e-3, 1.0)),
        })
        .collect()
}

/// §6 "Design Challenge" extension: decide the batch size and required
/// fraction **jointly** — for every batch candidate, invert the
/// regression from that batch's own full-GPU worst case, and keep the
/// `(batch, fraction)` pair with the smallest fraction that meets the
/// SLO. The space divides by the chosen fractions, memoised per job in
/// `cache`; the batch the job runs is the time plan's, re-adjusted for
/// its structure like every other job's.
pub fn divide_space_joint(
    jobs: &[JobDemand],
    total_gpus: f64,
    avg_job_time: SimDuration,
    profiler: &Profiler,
    cache: &mut DecisionCache,
) -> Vec<JobSpace> {
    if jobs.is_empty() {
        return Vec::new();
    }
    let session_pool = session_pool(total_gpus, avg_job_time);

    let choices: Vec<f64> = jobs
        .iter()
        .map(|j| cache.joint(j.app, j.requests, || joint_choice(j, profiler).0))
        .collect();
    let total_demand: f64 = choices.iter().sum();

    jobs.iter()
        .zip(&choices)
        .map(|(j, g)| JobSpace {
            app: j.app,
            gpu: quantize_space((session_pool * g / total_demand).clamp(1e-3, 1.0)),
        })
        .collect()
}

/// One session's share of the server: `total_gpus / s` with
/// `s = T_a / 5 ms` concurrent sessions, rounded up to a whole session,
/// at least 1. Partial sessions cannot overlap, and the integer count
/// keeps the derived gpu fractions on a small recurrent set — the EWMA
/// `T_a` varies continuously, and feeding it through unrounded would
/// make every period's fractions novel bit patterns, defeating the
/// decision cache's exact-key tables.
fn session_pool(total_gpus: f64, avg_job_time: SimDuration) -> f64 {
    let s = (avg_job_time.as_millis_f64() / SESSION.as_millis_f64())
        .ceil()
        .max(1.0);
    total_gpus / s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdaInfConfig;
    use crate::ridag::RiDag;
    use crate::timealloc::plan_time;

    fn demand(app: usize, requests: u32, flops: f64, slo_ms: u64) -> JobDemand {
        JobDemand {
            app,
            requests,
            cost: StructureCost {
                flops_per_sample: flops,
                activation_bytes: 2.0e6 * flops / 1.5e8,
                param_bytes: 3.0e7,
            },
            slo: SimDuration::from_millis(slo_ms),
        }
    }

    /// [`divide_space`] through a fresh cache, `T_a` in milliseconds.
    fn split(jobs: &[JobDemand], gpus: f64, t_a_ms: u64, slo_aware: bool) -> Vec<JobSpace> {
        let (p, mut cache) = (Profiler::default(), DecisionCache::default());
        divide_space(
            jobs,
            gpus,
            SimDuration::from_millis(t_a_ms),
            slo_aware,
            &p,
            &mut cache,
        )
    }

    /// [`divide_space_joint`] through a fresh cache.
    fn split_joint(jobs: &[JobDemand], gpus: f64, t_a_ms: u64) -> Vec<JobSpace> {
        let (p, mut cache) = (Profiler::default(), DecisionCache::default());
        divide_space_joint(jobs, gpus, SimDuration::from_millis(t_a_ms), &p, &mut cache)
    }

    #[test]
    fn heavier_jobs_get_more_space() {
        let jobs = vec![
            demand(0, 32, 1.5e8, 400),
            demand(1, 32, 3.0e7, 400), // 5× lighter
        ];
        let div = split(&jobs, 4.0, 100, true);
        assert_eq!(div.len(), 2);
        assert!(
            div[0].gpu > div[1].gpu * 1.5,
            "heavy {} vs light {}",
            div[0].gpu,
            div[1].gpu
        );
    }

    #[test]
    fn tighter_slo_gets_more_space() {
        let jobs = vec![demand(0, 32, 1.5e8, 400), demand(1, 32, 1.5e8, 600)];
        let div = split(&jobs, 4.0, 100, true);
        assert!(div[0].gpu > div[1].gpu);
    }

    #[test]
    fn even_split_when_not_slo_aware() {
        let jobs = vec![demand(0, 32, 1.5e8, 400), demand(1, 32, 1.0e7, 600)];
        let div = split(&jobs, 4.0, 100, false);
        assert!((div[0].gpu - div[1].gpu).abs() < 1e-9);
    }

    #[test]
    fn more_concurrency_means_smaller_pool() {
        let jobs = vec![demand(0, 32, 1.5e8, 400)];
        let short = split(&jobs, 4.0, 20, true);
        let long = split(&jobs, 4.0, 400, true);
        assert!(short[0].gpu > long[0].gpu);
    }

    #[test]
    fn batch_adapts_to_allocation() {
        // Obs. 6: a job alone on a big server gets a large fraction →
        // batch 16; squeezed among many concurrent sessions → smaller
        // batch. The re-adjusted batch is the time plan's, the one every
        // job plan carries.
        let app = adainf_apps::catalog::video_surveillance(0);
        let job = JobDemand {
            app: 0,
            requests: 64,
            cost: app.full_structure_cost(),
            slo: app.slo,
        };
        let batch = |gpus: f64, t_a_ms: u64| {
            let gpu = split(&[job], gpus, t_a_ms, true)[0].gpu;
            let (config, profiler) = (AdaInfConfig::default(), Profiler::default());
            let cuts = app.full_cuts();
            plan_time(&app, &RiDag::default(), cuts, gpu, 64, &config, &profiler).batch
        };
        let (roomy, tight) = (batch(8.0, 10), batch(1.0, 500));
        assert!(roomy >= tight, "roomy batch {roomy} < tight batch {tight}");
        assert!(tight >= 1);
    }

    #[test]
    fn allocations_sit_on_the_centi_gpu_grid() {
        let jobs = vec![
            demand(0, 37, 1.5e8, 400),
            demand(1, 53, 3.0e7, 450),
            demand(2, 11, 6.0e7, 500),
        ];
        let div = split(&jobs, 4.0, 137, true);
        let joint = split_joint(&jobs, 4.0, 137);
        for d in div.iter().chain(&joint) {
            let centi = d.gpu * 100.0;
            assert!(
                (centi - centi.round()).abs() < 1e-9 || d.gpu == 1e-3,
                "app {} gpu {} is off-grid",
                d.app,
                d.gpu
            );
            assert!(d.gpu >= 1e-3 && d.gpu <= 1.0);
        }
        // The starvation floor itself is representable.
        assert_eq!(quantize_space(0.0001), 1e-3);
        assert_eq!(quantize_space(0.234567), 0.23);
    }

    #[test]
    fn empty_jobs_yield_empty_division() {
        assert!(split(&[], 4.0, 100, true).is_empty());
        assert!(split_joint(&[], 4.0, 100).is_empty());
    }

    #[test]
    fn joint_division_allocates_comparable_space() {
        // The one-shot decision should land near the two-step result for
        // typical jobs (the two approaches only diverge when the batch
        // re-adjustment would change the choice a lot).
        let jobs = vec![demand(0, 32, 1.5e8, 400), demand(1, 32, 6.0e7, 500)];
        let two_step = split(&jobs, 4.0, 100, true);
        let joint = split_joint(&jobs, 4.0, 100);
        for (a, b) in two_step.iter().zip(&joint) {
            assert_eq!(a.app, b.app);
            assert!(b.gpu > 0.0 && b.gpu <= 1.0);
            assert!(
                (a.gpu - b.gpu).abs() < a.gpu.max(b.gpu),
                "two-step {} vs joint {}",
                a.gpu,
                b.gpu
            );
        }
    }
}
