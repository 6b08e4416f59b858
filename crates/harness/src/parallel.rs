//! Parallel experiment execution.
//!
//! Simulation runs are completely independent (each owns its RNG streams,
//! applications and scheduler), so comparison suites and parameter sweeps
//! fan out across OS threads. Results return in input order.

use crate::metrics::RunMetrics;
use crate::sim::{run, RunConfig};
use adainf_simcore::parallel::fan_out_indexed;
use std::collections::btree_map::{BTreeMap, Entry};

/// Runs every configuration, using up to `threads` worker threads
/// (0 = one per configuration, capped at the available parallelism).
///
/// Work distribution is the lock-free atomic work-index pool of
/// [`adainf_simcore::parallel`]: workers claim job indices from one
/// shared atomic counter and each writes its result into a dedicated
/// slot, so many-core sweeps never contend on a queue or results lock.
pub fn run_many(configs: Vec<RunConfig>, threads: usize) -> Vec<RunMetrics> {
    fan_out_indexed(
        configs.len(),
        threads,
        || (),
        |idx, ()| run(configs[idx].clone()),
    )
}

/// A set of declared runs, each distinct configuration run once.
///
/// Callers declare every configuration they will read, repeats
/// included, run the set in one [`run_many`] pool and look results up by
/// configuration. A configuration's key is its `Debug` rendering: every
/// `f64` in a [`RunConfig`] renders in shortest round-trip form and
/// every `SimDuration` in whole microseconds, so equal keys are
/// bit-equal configurations and every run is a function of its key.
#[derive(Default)]
pub struct RunSet {
    /// Key → index into `configs` (and `metrics` once run).
    index: BTreeMap<String, usize>,
    /// The distinct configurations, in first-declared order.
    configs: Vec<RunConfig>,
    /// One result per configuration, filled by [`RunSet::run`].
    metrics: Vec<RunMetrics>,
}

impl RunSet {
    /// Declares `configs`, keeping the first of each distinct one.
    pub fn new(configs: impl IntoIterator<Item = RunConfig>) -> RunSet {
        let mut set = RunSet::default();
        for config in configs {
            let next = set.configs.len();
            if let Entry::Vacant(e) = set.index.entry(format!("{config:?}")) {
                e.insert(next);
                set.configs.push(config);
            }
        }
        set
    }

    /// The distinct configurations declared, in first-declared order:
    /// the runs [`RunSet::run`] makes.
    pub fn configs(&self) -> &[RunConfig] {
        &self.configs
    }

    /// Runs every distinct configuration once, in first-declared order,
    /// one worker per run up to the available parallelism ([`run_many`]).
    pub fn run(mut self) -> RunSet {
        self.metrics = run_many(self.configs.clone(), 0);
        self
    }

    /// The result of `config`.
    ///
    /// # Panics
    ///
    /// If `config` was not declared, or the set has not been run; the
    /// message names the key.
    pub fn get(&self, config: &RunConfig) -> &RunMetrics {
        let key = format!("{config:?}");
        self.index
            .get(&key)
            .and_then(|&i| self.metrics.get(i))
            .unwrap_or_else(|| panic!("RunSet: no result for undeclared or unrun {key}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Method;
    use adainf_core::AdaInfConfig;
    use adainf_simcore::SimDuration;

    fn tiny(seed: u64) -> RunConfig {
        RunConfig {
            seed,
            duration: SimDuration::from_secs(60),
            num_apps: 2,
            pool_size: 300,
            method: Method::AdaInf(AdaInfConfig::default()),
            ..RunConfig::default()
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let configs = vec![tiny(1), tiny(2), tiny(3)];
        let seq: Vec<_> = configs.clone().into_iter().map(crate::sim::run).collect();
        let par = run_many(configs, 3);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.total_requests, b.total_requests);
            assert!((a.mean_accuracy() - b.mean_accuracy()).abs() < 1e-12);
        }
    }

    #[test]
    fn preserves_input_order() {
        let par = run_many(vec![tiny(10), tiny(20)], 2);
        let a = crate::sim::run(tiny(10));
        assert_eq!(par[0].total_requests, a.total_requests);
    }

    #[test]
    fn empty_and_single_are_fine() {
        assert!(run_many(vec![], 4).is_empty());
        assert_eq!(run_many(vec![tiny(5)], 4).len(), 1);
    }

    #[test]
    fn run_set_runs_each_distinct_config_once() {
        let set = RunSet::new([tiny(1), tiny(2), tiny(1), tiny(1)]);
        assert_eq!(set.configs().len(), 2);
        let set = set.run();
        assert_eq!(set.metrics.len(), 2);
        let again = crate::sim::run(tiny(2));
        assert_eq!(set.get(&tiny(2)).total_requests, again.total_requests);
    }

    #[test]
    fn run_set_keeps_configs_one_ulp_apart() {
        let a = tiny(1);
        let b = RunConfig {
            base_rate: f64::from_bits(a.base_rate.to_bits() + 1),
            ..a.clone()
        };
        assert_eq!(RunSet::new([a.clone(), b, a]).configs().len(), 2);
    }

    #[test]
    #[should_panic(expected = "no result for undeclared or unrun RunConfig { seed: 7,")]
    fn run_set_get_of_an_undeclared_config_panics_naming_it() {
        RunSet::new([tiny(1)]).get(&tiny(7));
    }
}
