//! Property-based tests (proptest) on the core data structures and
//! invariants across crates.

use adainf::apps::{catalog, AppRuntime};
use adainf::core::drift_artifacts::{build_artifacts, DetectScratch, WarmBases};
use adainf::core::regression::PowerLawScaler;
use adainf::driftgen::workload::ArrivalConfig;
use adainf::driftgen::{RetrainPool, TaskStream, TaskStreamConfig};
use adainf::gpusim::content::{ContentKey, TaskContext};
use adainf::gpusim::memory::AccessIntent;
use adainf::gpusim::{EvictionPolicyKind, GpuMemory, MemoryConfig};
use adainf::gpusim::{LatencyModel, StructureCost};
use adainf::nn::metrics::{js_divergence, normalize_hist};
use adainf::nn::Matrix;
use adainf::simcore::{Cdf, Prng};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Worst-case latency is monotone in the request count for any
    /// structure, batch and fraction.
    #[test]
    fn worst_case_monotone_in_requests(
        flops in 1.0e6f64..1.0e9,
        act in 1.0e4f64..1.0e7,
        batch_idx in 0usize..7,
        frac in 0.01f64..1.0,
        n in 1u32..200,
    ) {
        let model = LatencyModel::default();
        let cost = StructureCost { flops_per_sample: flops, activation_bytes: act, param_bytes: 1e7 };
        let batch = adainf::gpusim::latency::BATCH_CANDIDATES[batch_idx];
        let a = model.worst_case(&cost, n, batch, frac);
        let b = model.worst_case(&cost, n + 1, batch, frac);
        prop_assert!(b >= a, "n {n}: {a:?} > {b:?}");
    }

    /// More GPU space never hurts at a fixed configuration.
    #[test]
    fn latency_monotone_in_fraction(
        flops in 1.0e6f64..1.0e9,
        batch_idx in 0usize..7,
        lo in 0.01f64..0.5,
        delta in 0.01f64..0.5,
    ) {
        let model = LatencyModel::default();
        let cost = StructureCost { flops_per_sample: flops, activation_bytes: 1e6, param_bytes: 1e7 };
        let batch = adainf::gpusim::latency::BATCH_CANDIDATES[batch_idx];
        let slow = model.per_batch_inference(&cost, batch, lo);
        let fast = model.per_batch_inference(&cost, batch, lo + delta);
        prop_assert!(fast <= slow);
    }

    /// The optimal batch's worst case is no worse than any candidate's.
    #[test]
    fn optimal_batch_is_optimal(
        flops in 1.0e6f64..1.0e9,
        n in 1u32..256,
        frac in 0.02f64..1.0,
    ) {
        let model = LatencyModel::default();
        let cost = StructureCost { flops_per_sample: flops, activation_bytes: 1e6, param_bytes: 1e7 };
        let (_, best) = model.optimal_batch(&cost, n, frac);
        for &b in &adainf::gpusim::latency::BATCH_CANDIDATES {
            prop_assert!(best <= model.worst_case(&cost, n, b, frac));
        }
    }

    /// `samples_within` never overshoots its budget (by more than one
    /// batch's rounding).
    #[test]
    fn samples_within_respects_budget(
        flops in 1.0e6f64..5.0e8,
        batch_idx in 0usize..7,
        frac in 0.02f64..1.0,
        budget_ms in 1.0f64..2000.0,
    ) {
        let model = LatencyModel::default();
        let cost = StructureCost { flops_per_sample: flops, activation_bytes: 1e6, param_bytes: 1e7 };
        let batch = adainf::gpusim::latency::BATCH_CANDIDATES[batch_idx];
        let budget = adainf::simcore::SimDuration::from_millis_f64(budget_ms);
        let n = model.samples_within(&cost, batch, frac, budget);
        if n > 0 {
            let used = model.training_latency(&cost, n, batch, 1, frac);
            prop_assert!(used <= budget + model.per_batch_training(&cost, batch, frac));
        }
    }

    /// Retraining pools hand out each sample exactly once, whatever the
    /// priority permutation and take pattern.
    #[test]
    fn pool_consumption_is_a_partition(
        n in 1usize..120,
        takes in proptest::collection::vec(1usize..40, 1..12),
        seed in 0u64..1000,
    ) {
        let root = Prng::new(seed);
        let mut stream = TaskStream::new(TaskStreamConfig::new("t", 4, seed), &root);
        let mut pool = RetrainPool::new(stream.sample(n));
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut rng = Prng::new(seed ^ 0xF00D);
        rng.shuffle(&mut order);
        pool.set_order(&order);
        let mut seen = 0usize;
        for t in takes {
            let batch = pool.take(t);
            seen += batch.len();
        }
        prop_assert!(seen <= n);
        prop_assert_eq!(pool.used(), seen);
        prop_assert_eq!(pool.remaining(), n - seen);
        // Draining the rest never yields more than the pool held.
        let rest = pool.take(usize::MAX);
        prop_assert_eq!(seen + rest.len(), n);
    }

    /// The power-law scaler's inverse is consistent with its forward map.
    #[test]
    fn scaler_inverse_round_trips(
        theta in 0.1f64..2.0,
        latency in 1.0f64..10_000.0,
        target_ratio in 1.0f64..50.0,
    ) {
        let s = PowerLawScaler { theta };
        let target = latency * target_ratio; // reachable with g <= 1
        let g = s.required_fraction(latency, target);
        // The inverse clamps at g = 1e-4; the round trip only holds on
        // the unclamped interior.
        prop_assume!(g > 1.01e-4 && g < 0.999);
        let achieved = s.scale(latency, g);
        prop_assert!((achieved - target).abs() / target < 1e-6);
    }

    /// CDF quantiles are monotone and bounded by the sample range.
    #[test]
    fn cdf_quantiles_monotone(
        samples in proptest::collection::vec(0.0f64..1e6, 1..200),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let mut cdf = Cdf::new();
        for s in &samples {
            cdf.add(*s);
        }
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        prop_assert!(cdf.quantile(lo) <= cdf.quantile(hi));
        prop_assert!(cdf.quantile(0.0) <= cdf.quantile(1.0));
        prop_assert!(cdf.quantile(1.0) <= 1e6);
    }

    /// JS divergence is symmetric, non-negative and bounded by ln 2 for
    /// arbitrary histograms.
    #[test]
    fn js_divergence_bounds(
        p_raw in proptest::collection::vec(0.0f64..10.0, 2..12),
    ) {
        let q_raw: Vec<f64> = p_raw.iter().rev().cloned().collect();
        let p = normalize_hist(&p_raw);
        let q = normalize_hist(&q_raw);
        let d1 = js_divergence(&p, &q);
        let d2 = js_divergence(&q, &p);
        prop_assert!((d1 - d2).abs() < 1e-9);
        prop_assert!(d1 >= -1e-12);
        prop_assert!(d1 <= 2.0f64.ln() + 1e-9);
    }

    /// Matrix transpose-multiply identity: `aᵀb` equals the explicit
    /// transpose product.
    #[test]
    fn matrix_transpose_identities(
        rows in 1usize..6,
        cols in 1usize..6,
        seed in 0u64..500,
    ) {
        let mut rng = Prng::new(seed);
        let data_a: Vec<f32> = (0..rows * cols).map(|_| rng.gauss() as f32).collect();
        let data_b: Vec<f32> = (0..rows * cols).map(|_| rng.gauss() as f32).collect();
        let a = Matrix::from_slice(rows, cols, &data_a);
        let b = Matrix::from_slice(rows, cols, &data_b);
        // aᵀ·b via t_matmul_into (cols × cols)
        let mut tm = Matrix::default();
        a.t_matmul_into(&b, &mut tm);
        for i in 0..cols {
            for j in 0..cols {
                let mut dot = 0.0f32;
                for r in 0..rows {
                    dot += a.get(r, i) * b.get(r, j);
                }
                prop_assert!((tm.get(i, j) - dot).abs() < 1e-3);
            }
        }
    }

    /// GPU memory accounting is consistent under arbitrary access
    /// sequences: `used()` never exceeds capacity (when every block
    /// fits), every access returns a finite non-negative cost, and hits
    /// are free.
    #[test]
    fn memory_accounting_invariants(
        accesses in proptest::collection::vec(
            (0u32..4, 0u32..3, 0u16..6, 1u64..400_000, proptest::bool::ANY),
            1..120,
        ),
        policy_priority in proptest::bool::ANY,
        capacity in 500_000u64..4_000_000,
    ) {
        let policy = if policy_priority {
            EvictionPolicyKind::Priority
        } else {
            EvictionPolicyKind::Lru
        };
        let mut mem = GpuMemory::new(MemoryConfig {
            gpu_capacity: capacity,
            pin_capacity: capacity / 4,
            policy,
            record_reuse: true,
            ..MemoryConfig::default()
        });
        let mut clock = 0u64;
        for (app, model, layer, bytes, is_param) in accesses {
            clock += 37;
            let key = if is_param {
                ContentKey::param(app, model, layer)
            } else {
                ContentKey::intermediate(app, model, layer, 1)
            };
            let intent = if is_param {
                AccessIntent::Fetch
            } else {
                AccessIntent::Produce
            };
            let cost = mem.access(
                key,
                bytes,
                TaskContext::Inference,
                1,
                model,
                400.0,
                intent,
                adainf::simcore::SimTime::from_micros(clock),
            );
            prop_assert!(cost.as_micros() < 10_000_000, "absurd cost {cost:?}");
            prop_assert!(
                mem.used() <= capacity,
                "used {} over capacity {capacity}",
                mem.used()
            );
        }
        let stats = mem.stats();
        prop_assert!(stats.hits + stats.fetches + stats.produces > 0);
        // Reuse intervals are non-decreasing in the recording clock.
        for ev in mem.reuse_events() {
            prop_assert!(ev.elapsed.as_micros() < clock + 1);
        }
    }

    /// Streams stay normalised and bounded under arbitrary drift steps.
    #[test]
    fn stream_priors_stay_normalised(
        prior_drift in 0.0f64..1.0,
        mean_drift in 0.0f64..1.0,
        periods in 1u32..30,
        seed in 0u64..200,
    ) {
        let root = Prng::new(seed);
        let mut s = TaskStream::new(
            TaskStreamConfig::new("p", 5, seed).with_drift(prior_drift, mean_drift),
            &root,
        );
        for _ in 0..periods {
            s.advance_period();
        }
        let total: f64 = s.priors().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
        prop_assert!(s.priors().iter().all(|p| *p > 0.0));
        // Rotation drift preserves norms: samples stay bounded.
        let batch = s.sample(50);
        for v in batch.inputs.data() {
            prop_assert!(v.abs() < 30.0, "unbounded feature {v}");
        }
    }
}

/// Builds a small drifted runtime for the drift-artifact properties,
/// `periods` boundaries in, its pools drawn.
fn small_drifted_runtime(seed: u64, periods: usize) -> AppRuntime {
    let root = Prng::new(seed);
    let mut rt = AppRuntime::new(
        catalog::video_surveillance(0),
        ArrivalConfig::default(),
        200,
        &root,
    );
    for _ in 0..periods {
        rt.advance_period();
    }
    for pool in &mut rt.pools {
        pool.draw();
    }
    rt
}

/// The real drift-artifact build is schedule-invariant: for three seeds,
/// [`fan_out_check`] replays the per-(app, node) build under forced
/// claim-order permutations at 1/2/4/8 workers and asserts bit-equality
/// with the sequential loop, and the scheduler's two-phase boundary
/// build ([`WarmBases::fit`] on the jobs' retired sets, the pools drawn,
/// `BoundaryFits::rank`) at every one of those widths must land on the
/// same artifact bits.
#[test]
fn drift_refresh_survives_adversarial_schedules() {
    use adainf::simcore::parallel::fan_out_check;

    for seed in [11u64, 97, 2024] {
        let apps = [
            small_drifted_runtime(seed, 1),
            small_drifted_runtime(seed ^ 0x5EED, 2),
        ];
        let jobs: Vec<(usize, usize)> = apps
            .iter()
            .enumerate()
            .flat_map(|(a, rt)| (0..rt.spec.nodes.len()).map(move |n| (a, n)))
            .collect();
        let root = Prng::new(seed ^ 0xFA2_0A7);
        let bits = |m: &Matrix| -> Vec<u32> { m.data().iter().map(|v| v.to_bits()).collect() };

        // Layer 1+2: production pool and forced schedule replays over
        // the real per-node artifact build, all bit-equal to sequential
        // in every field it computes.
        let reference = fan_out_check(
            seed,
            3,
            &[1, 2, 4, 8],
            jobs.len(),
            DetectScratch::default,
            |i, scratch| {
                let (app, node) = jobs[i];
                let art = build_artifacts(&apps[app], node, &root, scratch);
                let basis = bits(&art.basis);
                let prefixes = (art.pool_prefix, art.ref_prefix);
                (art.deviation, art.retrain, art.ref_order, prefixes, basis)
            },
        );

        // Layer 3: the production boundary build at each width, on
        // clones of the retired sets, reproduces the same rankings and
        // basis bit-for-bit (prefix-sums are lazily extended, so only
        // the eagerly-built fields are compared).
        for threads in [1usize, 2, 4, 8] {
            let retired = jobs
                .iter()
                .map(|&(app, node)| apps[app].retired[node].clone())
                .collect();
            let fits = WarmBases::default().fit(&jobs, retired, &apps, &root, threads);
            let table = fits.rank(&apps, threads);
            assert_eq!(table.len(), jobs.len(), "one artifact set per job");
            for (art, want) in table.iter().zip(&reference) {
                let (deviation, retrain, ref_order, _, basis) = want;
                assert_eq!(&art.deviation, deviation, "deviation @{threads}t");
                assert_eq!(&art.retrain, retrain, "retrain @{threads}t");
                assert_eq!(&art.ref_order, ref_order, "ref_order @{threads}t");
                assert_eq!(&bits(&art.basis), basis, "basis bits @{threads}t");
            }
        }
    }
}

// Drift-artifact properties run far fewer cases: each case builds and
// trains a full multi-model runtime.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The correctness prefix-sums reproduce `accuracy_on` over any
    /// deviation-ranked prefix bit-for-bit.
    #[test]
    fn prefix_sum_accuracy_is_exact(
        seed in 0u64..500,
        periods in 1usize..3,
        take_frac in 0.01f64..1.0,
    ) {
        let rt = small_drifted_runtime(seed, periods);
        let root = Prng::new(seed ^ 0xACC);
        let mut scratch = DetectScratch::default();
        for node in 0..rt.spec.nodes.len() {
            let art = build_artifacts(&rt, node, &root, &mut scratch);
            let pool = rt.pools[node].samples();
            prop_assume!(!pool.is_empty());
            let take = ((take_frac * pool.len() as f64).ceil() as usize)
                .clamp(1, pool.len());
            let subset = pool.gather(&art.deviation[..take]);
            let model = &rt.models[node];
            let direct = model.accuracy_on(&subset, model.profile().full_cut());
            let via_prefix = art.pool_prefix[take] as f64 / take as f64;
            prop_assert_eq!(direct.to_bits(), via_prefix.to_bits());
        }
    }

    /// A boundary-built artifact set replays the standalone keyed-stream
    /// build bit-for-bit, because the PCA stream is keyed by
    /// `(period, node)` off an unadvanced root: the rankings and basis
    /// agree, and its prefix-sums, extended lazily in chunks, land on the
    /// eager build's values.
    #[test]
    fn boundary_artifacts_bit_equal_fresh(
        seed in 0u64..500,
        periods in 1usize..3,
    ) {
        let rt = small_drifted_runtime(seed, periods);
        let root = Prng::new(seed ^ 0xCAC4E);
        let node = 1;
        let apps = std::slice::from_ref(&rt);
        let retired = vec![rt.retired[node].clone()];
        let fits = WarmBases::default().fit(&[(0, node)], retired, apps, &root, 1);
        let mut table = fits.rank(apps, 1);
        let fresh = build_artifacts(&rt, node, &root, &mut DetectScratch::default());
        let art = &mut table[0];
        prop_assert_eq!(&art.deviation, &fresh.deviation);
        prop_assert_eq!(&art.retrain, &fresh.retrain);
        prop_assert_eq!(&art.ref_order, &fresh.ref_order);
        let bits = |m: &Matrix| -> Vec<u32> { m.data().iter().map(|v| v.to_bits()).collect() };
        prop_assert_eq!(bits(&art.basis), bits(&fresh.basis));
        let mut scratch = DetectScratch::default();
        let pool_len = fresh.deviation.len();
        if pool_len > 0 {
            art.pool_prefix_at(&rt, node, pool_len / 2 + 1, &mut scratch);
            art.pool_prefix_at(&rt, node, pool_len, &mut scratch);
        }
        let ref_len = fresh.ref_order.len();
        if ref_len > 0 {
            art.ref_prefix_at(&rt, node, ref_len, &mut scratch);
        }
        prop_assert_eq!(&art.pool_prefix, &fresh.pool_prefix);
        prop_assert_eq!(&art.ref_prefix, &fresh.ref_prefix);
    }

    /// The warm rule tracks both staleness sources: a build warm-starts
    /// from a node's kept basis only one pool generation (period) on at
    /// the same model version; a rebuild at the same generation, a
    /// generation jump and a model-version bump (retraining) are cold.
    #[test]
    fn warm_start_needs_next_generation_and_same_version(
        seed in 0u64..500,
    ) {
        let root = Prng::new(seed ^ 0x17A1E);
        let node = 1;
        let built = |rt: &AppRuntime| {
            let apps = std::slice::from_ref(rt);
            let mut warm = WarmBases::default();
            let retired = vec![rt.retired[node].clone()];
            let table = warm.fit(&[(0, node)], retired, apps, &root, 1).rank(apps, 1);
            warm.keep(&[(0, node)], apps, table);
            warm
        };
        let mut rt = small_drifted_runtime(seed, 1);
        let warm = built(&rt);
        prop_assert!(warm.warm_for(0, &rt, node).is_none());
        rt.advance_period();
        rt.pools[node].draw();
        prop_assert!(warm.warm_for(0, &rt, node).is_some());
        let slice = rt.pools[node].samples().clone();
        prop_assume!(!slice.is_empty());
        rt.models[node].train_slice(&slice, 1);
        prop_assert!(warm.warm_for(0, &rt, node).is_none());

        let mut rt = small_drifted_runtime(seed, 1);
        let warm = built(&rt);
        rt.advance_period();
        rt.advance_period();
        prop_assert!(warm.warm_for(0, &rt, node).is_none());
    }
}

/// An enabled predictor that never reaches warm-up must fall back to
/// the analytic admission inputs bit-exactly — checked under chaos,
/// where admission actually runs on every impaired session, at three
/// seeds.
#[test]
fn unwarmed_predictor_falls_back_to_analytic_bit_exactly() {
    use adainf::core::AdaInfConfig;
    use adainf::driftgen::FaultSpec;
    use adainf::harness::sim::{run, ChaosConfig, Method, RunConfig};
    use adainf::simcore::SimDuration;
    let make = |predicted: bool, seed: u64| {
        let mut cfg = RunConfig {
            method: Method::AdaInf(AdaInfConfig {
                predicted_latency: predicted,
                // Unreachable warm-up: predictions never fire, only the
                // observation stream runs.
                predictor_warmup: u32::MAX,
                ..AdaInfConfig::default()
            }),
            seed,
            num_apps: 3,
            duration: SimDuration::from_secs(60),
            ..RunConfig::default()
        };
        cfg.chaos = Some(ChaosConfig::scenario(FaultSpec::device_stall(seed)));
        run(cfg)
    };
    for seed in [11u64, 23, 47] {
        let (on, off) = (make(true, seed), make(false, seed));
        assert!(on.fault_sessions > 0, "seed {seed}: no stall window fired");
        assert_eq!(on.total_requests, off.total_requests, "seed {seed}");
        assert_eq!(on.shed_requests, off.shed_requests, "seed {seed}");
        assert_eq!(
            on.mean_accuracy().to_bits(),
            off.mean_accuracy().to_bits(),
            "seed {seed}: mean_accuracy"
        );
        assert_eq!(
            on.mean_finish_rate().to_bits(),
            off.mean_finish_rate().to_bits(),
            "seed {seed}: mean_finish_rate"
        );
        // Below warm-up the model forecasts nothing, so no calibration
        // row was ever scored.
        assert_eq!(on.predicted_latency_mae_us(), 0.0, "seed {seed}");
        assert_eq!(on.headroom_violation_rate(), 0.0, "seed {seed}");
    }
}

/// With the predictor off — the default — the calibration plumbing is
/// completely inert for every method: no feature vector is built, no
/// observation streamed, and the new summary columns are exactly zero,
/// at three seeds × three methods (arrival totals pin the runs to the
/// golden seed-engine traces).
#[test]
fn predictor_off_is_inert_across_methods_and_seeds() {
    use adainf::core::AdaInfConfig;
    use adainf::harness::sim::{run, Method, RunConfig};
    use adainf::simcore::SimDuration;
    let methods: [fn() -> Method; 3] = [
        || Method::AdaInf(AdaInfConfig::default()),
        || Method::Ekya,
        || Method::Scrooge,
    ];
    let golden_requests = [(11u64, 1725130u64), (23, 1518908), (47, 1392262)];
    for mk in methods {
        for (seed, requests) in golden_requests {
            let m = run(RunConfig {
                method: mk(),
                seed,
                num_apps: 3,
                duration: SimDuration::from_secs(60),
                ..RunConfig::default()
            });
            assert_eq!(
                m.total_requests, requests,
                "{} seed {seed}: total_requests",
                m.name
            );
            assert_eq!(
                m.pred_abs_err_us.count(),
                0,
                "{} seed {seed}: calibration ran with the predictor off",
                m.name
            );
            assert_eq!(m.predicted_latency_mae_us(), 0.0, "{} seed {seed}", m.name);
            assert_eq!(m.headroom_violation_rate(), 0.0, "{} seed {seed}", m.name);
        }
    }
}

/// The pool width is invisible in the results: with the same seed, a
/// run whose boundary drift build and training fan-out use
/// several workers is bit-identical to the one-worker run. Verified at
/// three seeds × pool widths {2, 4, 8} (driving both the drift build and
/// the training fan-out) against the width-1 baseline: request totals,
/// shed counts, the full fine-grained accuracy series, and the summary
/// aggregates all match to the bit. (The golden literals pin the width-1
/// run itself.)
#[test]
fn pipeline_bit_identical_across_pool_widths() {
    use adainf::core::AdaInfConfig;
    use adainf::harness::sim::{run, Method, RunConfig};
    use adainf::simcore::SimDuration;
    let make = |seed: u64, workers: usize| {
        run(RunConfig {
            method: Method::AdaInf(AdaInfConfig {
                drift_workers: workers,
                ..AdaInfConfig::default()
            }),
            seed,
            num_apps: 3,
            duration: SimDuration::from_secs(60),
            train_workers: workers,
            ..RunConfig::default()
        })
    };
    for seed in [11u64, 23, 47] {
        let sequential = make(seed, 1);
        assert!(
            sequential.period_overhead.count() >= 2,
            "seed {seed}: no period boundaries crossed — the pipeline never ran"
        );
        let base_fine = sequential.accuracy_fine.ratios();
        for workers in [2usize, 4, 8] {
            let m = make(seed, workers);
            assert_eq!(
                m.total_requests, sequential.total_requests,
                "seed {seed} workers {workers}: total_requests"
            );
            assert_eq!(
                m.shed_requests, sequential.shed_requests,
                "seed {seed} workers {workers}: shed_requests"
            );
            assert_eq!(
                m.mean_accuracy().to_bits(),
                sequential.mean_accuracy().to_bits(),
                "seed {seed} workers {workers}: mean_accuracy"
            );
            assert_eq!(
                m.mean_finish_rate().to_bits(),
                sequential.mean_finish_rate().to_bits(),
                "seed {seed} workers {workers}: mean_finish_rate"
            );
            assert_eq!(
                m.inference_latency.mean().to_bits(),
                sequential.inference_latency.mean().to_bits(),
                "seed {seed} workers {workers}: mean_inference_latency_ms"
            );
            let fine = m.accuracy_fine.ratios();
            assert_eq!(
                fine.len(),
                base_fine.len(),
                "seed {seed} workers {workers}: accuracy window count"
            );
            for (w, (a, b)) in fine.iter().zip(&base_fine).enumerate() {
                assert_eq!(
                    a.map(f64::to_bits),
                    b.map(f64::to_bits),
                    "seed {seed} workers {workers}: accuracy window {w}"
                );
            }
        }
    }
}
