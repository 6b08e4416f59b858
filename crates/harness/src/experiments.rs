//! One entry point per figure and table of the paper's evaluation.
//!
//! Every function returns the regenerated series/rows and a rendered
//! plain-text report; `adainf-bench`'s `run_all` runs them by name. The
//! paper's 1000 s horizon is [`Scale::Full`]; [`Scale::Default`] (500 s)
//! preserves every qualitative shape at less cost, and [`Scale::Fast`]
//! (150 s) is for smoke runs.

use crate::metrics::RunMetrics;
use crate::report::{pct, table};
use crate::sim::{run, Method, RunConfig};
use adainf_core::drift_detect::detect_drift;
use adainf_core::profiler::CommProfile;
use adainf_core::AdaInfConfig;
use adainf_gpusim::exec::{run_concurrent, LayerSpec, TaskExec, TaskKind};
use adainf_gpusim::latency::BATCH_CANDIDATES;
use adainf_gpusim::memory::CrossReuse;
use adainf_gpusim::{
    EvictionPolicyKind, ExecMode, GpuMemory, LatencyModel, MemoryConfig, StructureCost,
};
use adainf_nn::metrics::js_divergence;
use adainf_simcore::{Cdf, Prng, SimDuration, SimTime};
use std::fmt::Write as _;

/// How long the simulated runs last.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// 150 s — smoke runs.
    Fast,
    /// 500 s — the default; all shapes hold.
    Default,
    /// 1000 s — the paper's horizon.
    Full,
}

impl Scale {
    /// Parses `--fast` / `--full` from CLI args.
    pub fn from_args(args: &[String]) -> Scale {
        if args.iter().any(|a| a == "--fast") {
            Scale::Fast
        } else if args.iter().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Default
        }
    }

    /// The run horizon.
    pub fn duration(self) -> SimDuration {
        match self {
            Scale::Fast => SimDuration::from_secs(150),
            Scale::Default => SimDuration::from_secs(500),
            Scale::Full => SimDuration::from_secs(1000),
        }
    }

    /// Base run configuration at this scale.
    pub fn base(self) -> RunConfig {
        RunConfig {
            duration: self.duration(),
            ..RunConfig::default()
        }
    }
}

fn period_row(m: &RunMetrics) -> Vec<String> {
    m.accuracy
        .ratios()
        .iter()
        .map(|a| a.map(pct).unwrap_or_else(|| "-".into()))
        .collect()
}

fn series_table(title: &str, names: &[&str], rows: &[Vec<String>]) -> String {
    let mut headers = vec!["period"];
    headers.extend_from_slice(names);
    let periods = rows.first().map(|r| r.len()).unwrap_or(0);
    let body: Vec<Vec<String>> = (0..periods)
        .map(|p| {
            let mut row = vec![p.to_string()];
            for r in rows {
                row.push(r[p].clone());
            }
            row
        })
        .collect();
    format!("{title}\n{}", table(&headers, &body))
}

// ---------------------------------------------------------------- Fig 4

/// Fig 4: impact of data drift — accuracy per period with and without
/// retraining (4a), and the share of requests served by an updated model
/// under Ekya (4b).
pub fn fig04(scale: Scale) -> String {
    let base = scale.base();
    let with = run(base.with_method(Method::AdaInf(AdaInfConfig::default())));
    let without = run(base.with_method(Method::AdaInf(AdaInfConfig::no_retraining())));
    let ekya = run(base.with_method(Method::Ekya));

    let mut out = series_table(
        "Fig 4a — accuracy per 50 s period (video-surveillance deployment)",
        &["with retraining", "without retraining"],
        &[period_row(&with), period_row(&without)],
    );
    let ekya_updated: Vec<String> = ekya
        .updated_model
        .ratios()
        .iter()
        .map(|a| a.map(pct).unwrap_or_else(|| "-".into()))
        .collect();
    out.push('\n');
    out.push_str(&series_table(
        "Fig 4b — % inference requests using the updated model (Ekya)",
        &["updated-model share"],
        &[ekya_updated],
    ));
    let _ = writeln!(
        out,
        "\nmean accuracy: with retraining {} vs without {} (paper: 0-27% gap per period)",
        pct(with.mean_accuracy()),
        pct(without.mean_accuracy()),
    );
    out
}

// ---------------------------------------------------------------- Fig 5

/// Fig 5: per-model accuracy of the surveillance application with and
/// without retraining. Object detection is drift-immune; vehicle-type
/// recognition suffers most.
pub fn fig05(scale: Scale) -> String {
    let base = RunConfig {
        num_apps: 1,
        ..scale.base()
    };
    let with = run(base.with_method(Method::AdaInf(AdaInfConfig::default())));
    let without = run(base.with_method(Method::AdaInf(AdaInfConfig::no_retraining())));
    let node_names = ["object detection", "vehicle type", "person activity"];
    let mut out = String::new();
    for (node, name) in node_names.iter().enumerate() {
        let w: Vec<String> = with.per_node_accuracy[0][node]
            .ratios()
            .iter()
            .map(|a| a.map(pct).unwrap_or_else(|| "-".into()))
            .collect();
        let wo: Vec<String> = without.per_node_accuracy[0][node]
            .ratios()
            .iter()
            .map(|a| a.map(pct).unwrap_or_else(|| "-".into()))
            .collect();
        out.push_str(&series_table(
            &format!("Fig 5 — {name}"),
            &["with retraining", "without retraining"],
            &[w, wo],
        ));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------- Fig 6

/// Fig 6: Jensen–Shannon divergence of class-label distributions in
/// consecutive periods per surveillance task.
pub fn fig06(scale: Scale) -> String {
    let base = RunConfig {
        num_apps: 1,
        ..scale.base()
    };
    let m = run(base);
    let node_names = ["object detection", "vehicle type", "person activity"];
    let mut rows = Vec::new();
    let periods = m.label_distributions[0][0].len();
    for p in 1..periods {
        let mut row = vec![format!("{}->{}", p - 1, p)];
        for node in 0..3 {
            let a = &m.label_distributions[0][node][p - 1];
            let b = &m.label_distributions[0][node][p];
            row.push(format!("{:.4}", js_divergence(a, b)));
        }
        rows.push(row);
    }
    format!(
        "Fig 6 — JS divergence of label distributions across consecutive periods\n{}",
        table(
            &["periods", node_names[0], node_names[1], node_names[2]],
            &rows
        )
    )
}

// ---------------------------------------------------------------- Fig 7

/// Fig 7: early-exit structures with incremental retraining, on the
/// surveillance application alone. 7a: accuracy of Early-inc (AdaInf),
/// Full-inc (AdaInf/E), Ekya and Early-w/o. 7b: retraining GPU time and
/// pool consumption per period, Early-inc vs Ekya.
pub fn fig07(scale: Scale) -> String {
    let base = RunConfig {
        num_apps: 1,
        ..scale.base()
    };
    let early_inc = run(base.with_method(Method::AdaInf(AdaInfConfig::default())));
    let full_inc = run(base.with_method(Method::AdaInf(AdaInfConfig::variant_e())));
    let ekya = run(base.with_method(Method::Ekya));
    let early_wo = run(base.with_method(Method::AdaInf(
        AdaInfConfig::early_without_retraining(),
    )));

    let mut out = series_table(
        "Fig 7a — accuracy per period (surveillance app only)",
        &["Early-inc", "Full-inc", "Ekya", "Early-w/o"],
        &[
            period_row(&early_inc),
            period_row(&full_inc),
            period_row(&ekya),
            period_row(&early_wo),
        ],
    );
    out.push('\n');
    let periods = early_inc
        .retrain_gpu_seconds
        .len()
        .max(ekya.retrain_gpu_seconds.len());
    let mut rows = Vec::new();
    for p in 0..periods {
        rows.push(vec![
            p.to_string(),
            format!("{:.1}s", early_inc.retrain_gpu_seconds.get(p).unwrap_or(&0.0)),
            early_inc
                .samples_used
                .get(p)
                .map(|f| pct(*f))
                .unwrap_or_else(|| "-".into()),
            format!("{:.1}s", ekya.retrain_gpu_seconds.get(p).unwrap_or(&0.0)),
            ekya.samples_used
                .get(p)
                .map(|f| pct(*f))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    out.push_str(&format!(
        "Fig 7b — retraining GPU time and pool consumption per period\n{}",
        table(
            &[
                "period",
                "Early-inc gpu-s",
                "Early-inc samples",
                "Ekya gpu-s",
                "Ekya samples"
            ],
            &rows
        )
    ));
    out
}

// ------------------------------------------------------------ Figs 8-10

fn surveillance_full_cost() -> StructureCost {
    adainf_apps::catalog::video_surveillance(0).full_structure_cost()
}

/// Fig 8: average per-batch latency and worst-case latency vs request
/// batch size at full GPU (optimal batch 16).
pub fn fig08(_scale: Scale) -> String {
    let model = LatencyModel::default();
    let cost = surveillance_full_cost();
    let n = 64;
    let mut rows = Vec::new();
    for &b in &BATCH_CANDIDATES {
        let per = model.per_batch_inference(&cost, b, 1.0);
        let wc = model.worst_case(&cost, n, b, 1.0);
        rows.push(vec![
            b.to_string(),
            format!("{:.2}ms", per.as_millis_f64()),
            format!("{:.2}ms", wc.as_millis_f64()),
        ]);
    }
    let (opt, _) = model.optimal_batch(&cost, n, 1.0);
    format!(
        "Fig 8 — latency vs request batch size (full GPU, {n}-request job)\n{}\noptimal batch size: {opt} (paper: 16)\n",
        table(&["batch", "per-batch latency", "worst-case latency"], &rows)
    )
}

/// Fig 9: worst-case latency vs batch size for 25/50/75/100 % GPU space
/// (optimal batch 4/8/16/16).
pub fn fig09(_scale: Scale) -> String {
    let model = LatencyModel::default();
    let cost = surveillance_full_cost();
    let n = 64;
    let fracs = [0.25, 0.5, 0.75, 1.0];
    let mut rows = Vec::new();
    for &b in &BATCH_CANDIDATES {
        let mut row = vec![b.to_string()];
        for &f in &fracs {
            row.push(format!(
                "{:.2}ms",
                model.worst_case(&cost, n, b, f).as_millis_f64()
            ));
        }
        rows.push(row);
    }
    let optima: Vec<String> = fracs
        .iter()
        .map(|&f| model.optimal_batch(&cost, n, f).0.to_string())
        .collect();
    format!(
        "Fig 9 — worst-case latency vs batch size under varying GPU space\n{}\noptimal batches at 25/50/75/100%: {} (paper: 4/8/16/16)\n",
        table(&["batch", "25%", "50%", "75%", "100%"], &rows),
        optima.join("/")
    )
}

/// Fig 10: worst-case latency vs batch size for the full structure and
/// three early-exit structures of the surveillance application.
pub fn fig10(_scale: Scale) -> String {
    let model = LatencyModel::default();
    let app = adainf_apps::catalog::video_surveillance(0);
    let full = app.full_cuts();
    // Three early-exit structures: shallow, medium, and detector-heavy.
    let shallow: Vec<usize> = app.nodes.iter().map(|n| n.profile.exit_points()[0]).collect();
    let medium: Vec<usize> = app
        .nodes
        .iter()
        .map(|n| {
            let e = n.profile.exit_points();
            e[e.len() / 2]
        })
        .collect();
    let mut heavy = app.full_cuts();
    heavy[1] = app.nodes[1].profile.exit_points()[0];
    let structures = [
        ("full", full),
        ("early-A (shallow)", shallow),
        ("early-B (medium)", medium),
        ("early-C (mixed)", heavy),
    ];
    let n = 64;
    let mut rows = Vec::new();
    for &b in &BATCH_CANDIDATES {
        let mut row = vec![b.to_string()];
        for (_, cuts) in &structures {
            let cost = app.structure_cost(cuts);
            row.push(format!(
                "{:.2}ms",
                model.worst_case(&cost, n, b, 1.0).as_millis_f64()
            ));
        }
        rows.push(row);
    }
    let optima: Vec<String> = structures
        .iter()
        .map(|(name, cuts)| {
            let cost = app.structure_cost(cuts);
            format!("{name}: {}", model.optimal_batch(&cost, n, 1.0).0)
        })
        .collect();
    format!(
        "Fig 10 — worst-case latency vs batch size for different structures\n{}\noptimal batches -> {} (paper: structure-dependent, 16/32/32/4)\n",
        table(
            &["batch", "full", "early-A", "early-B", "early-C"],
            &rows
        ),
        optima.join(", ")
    )
}

// ------------------------------------------------------------ Figs 11-13

/// The detailed-engine workload behind Figs 11–13: the surveillance
/// application's retraining + inference tasks across several jobs,
/// concurrent with a second application, under memory pressure.
fn detailed_workload(
    mode: ExecMode,
    policy: EvictionPolicyKind,
    batch: u32,
    jobs: u64,
) -> (GpuMemory, Vec<adainf_gpusim::TaskResult>) {
    detailed_workload_at(mode, policy, batch, jobs, true, 60_000_000)
}

/// The Fig 11–13 workload, parameterised: `multi = false` runs only the
/// single-model competitor application (the single-model comparison point
/// of Obs. 7, at proportionally scaled memory pressure).
fn detailed_workload_at(
    mode: ExecMode,
    policy: EvictionPolicyKind,
    batch: u32,
    jobs: u64,
    multi: bool,
    capacity: u64,
) -> (GpuMemory, Vec<adainf_gpusim::TaskResult>) {
    let app = adainf_apps::catalog::video_surveillance(0);
    let latency = LatencyModel::default();
    let mut tasks = Vec::new();
    for job in 0..jobs {
        // Jobs of the same app arrive one session (5 ms) apart... scaled
        // to the job service time so consecutive jobs overlap slightly.
        let start = SimTime::from_micros(job * 66_000);
        for (node, nspec) in app.nodes.iter().enumerate() {
            if !multi {
                break;
            }
            let layers: Vec<LayerSpec> = nspec.profile.structure_layers(nspec.profile.full_cut());
            // Retraining slice before the model's inference (RI-DAG).
            if node != 0 {
                tasks.push(TaskExec {
                    app: 0,
                    model: node as u32,
                    job,
                    kind: TaskKind::Retraining {
                        samples: batch,
                        epochs: 1,
                    },
                    layers: layers.clone(),
                    batch,
                    frac: 0.2,
                    slo_ms: 400.0,
                    input_from: None,
                    start,
                });
            }
            tasks.push(TaskExec {
                app: 0,
                model: node as u32,
                job,
                kind: TaskKind::Inference { requests: batch * 2 },
                layers,
                batch,
                frac: 0.2,
                slo_ms: 400.0,
                input_from: app.nodes[node]
                    .upstream
                    .map(|up| (up as u32, app.nodes[up].profile.full_cut() as u16)),
                start: start + SimDuration::from_millis(8),
            });
        }
        // A competing application keeps the memory under pressure.
        tasks.push(TaskExec {
            app: 1,
            model: 0,
            job,
            kind: TaskKind::Inference { requests: batch * 2 },
            layers: adainf_modelzoo::zoo::resnet18()
                .structure_layers(adainf_modelzoo::zoo::resnet18().full_cut()),
            batch,
            frac: 0.2,
            slo_ms: 500.0,
            input_from: None,
            start,
        });
    }
    let mut mem = GpuMemory::new(MemoryConfig {
        gpu_capacity: capacity,
        pin_capacity: capacity / 4,
        policy,
        record_reuse: true,
        ..MemoryConfig::default()
    });
    let results = run_concurrent(&tasks, &latency, &mut mem, mode);
    (mem, results)
}

/// Fig 11: per-batch inference latency decomposed into CPU–GPU
/// communication and computation, per batch size (baseline strategies —
/// communication ≈ 24 % of latency; ~17 % in a single-model run).
pub fn fig11(_scale: Scale) -> String {
    let mut rows = Vec::new();
    for &b in &[4u32, 8, 16, 32] {
        let (_, results) =
            detailed_workload(ExecMode::PerRequest, EvictionPolicyKind::Lru, b, 6);
        let compute: f64 = results.iter().map(|r| r.compute.as_millis_f64()).sum();
        let comm: f64 = results.iter().map(|r| r.comm.as_millis_f64()).sum();
        rows.push(vec![
            b.to_string(),
            format!("{:.1}ms", compute),
            format!("{:.1}ms", comm),
            pct(comm / (compute + comm)),
        ]);
    }
    // Single-model comparison (the ~17 % of [17]): the same engine with a
    // single-model application at proportionally scaled memory pressure.
    let share = |multi: bool, cap: u64| -> f64 {
        let (_, results) = detailed_workload_at(
            ExecMode::PerRequest,
            EvictionPolicyKind::Lru,
            16,
            6,
            multi,
            cap,
        );
        let compute: f64 = results.iter().map(|r| r.compute.as_millis_f64()).sum();
        let comm: f64 = results.iter().map(|r| r.comm.as_millis_f64()).sum();
        comm / (compute + comm)
    };
    format!(
        "Fig 11 — latency decomposition (multi-model, baseline memory strategies)\n{}\ncommunication share at batch 16: multi-model {} vs single-model {} (paper: ~24% vs ~17%)\n",
        table(&["batch", "computation", "communication", "comm share"], &rows),
        pct(share(true, 60_000_000)),
        pct(share(false, 30_000_000)),
    )
}

fn cdf_summary(label: &str, cdf: &mut Cdf) -> Vec<String> {
    if cdf.is_empty() {
        return vec![label.into(), "0".into(), "-".into(), "-".into(), "-".into()];
    }
    vec![
        label.into(),
        cdf.len().to_string(),
        format!("{:.3}ms", cdf.quantile(0.05)),
        format!("{:.3}ms", cdf.quantile(0.5)),
        format!("{:.3}ms", cdf.quantile(0.95)),
    ]
}

/// Figs 12–13: CDFs of content reuse-time latencies by category, across
/// DAG tasks, and across consecutive jobs.
pub fn fig12_13(_scale: Scale) -> String {
    let (mem, _) = detailed_workload(ExecMode::LayerGrouped, EvictionPolicyKind::Priority, 16, 8);
    use adainf_gpusim::content::ReuseCategory;
    let mut by_cat: Vec<(ReuseCategory, Cdf)> = ReuseCategory::all()
        .into_iter()
        .map(|c| (c, Cdf::new()))
        .collect();
    let mut cross_param = Cdf::new();
    let mut cross_inter = Cdf::new();
    let mut cross_jobs = Cdf::new();
    for ev in mem.reuse_events() {
        let ms = ev.elapsed.as_millis_f64();
        for (c, cdf) in &mut by_cat {
            if *c == ev.category {
                cdf.add(ms);
            }
        }
        match ev.cross {
            Some(CrossReuse::ParamRetrainToInference) => cross_param.add(ms),
            Some(CrossReuse::IntermediateAcrossModels) => cross_inter.add(ms),
            Some(CrossReuse::ParamAcrossJobs) => cross_jobs.add(ms),
            None => {}
        }
    }
    let mut rows = Vec::new();
    for (c, cdf) in &mut by_cat {
        rows.push(cdf_summary(c.label(), cdf));
    }
    let mut out = format!(
        "Fig 12a — reuse-time latency by content category\n{}",
        table(&["category", "events", "p5", "median", "p95"], &rows)
    );
    let rows2 = vec![
        cdf_summary("param: retrain->inference", &mut cross_param),
        cdf_summary("intermediate: across DAG models", &mut cross_inter),
    ];
    let _ = write!(
        out,
        "\nFig 12b — reuse between dependent DAG tasks\n{}",
        table(&["hand-off", "events", "p5", "median", "p95"], &rows2)
    );
    let rows3 = vec![cdf_summary("param: across consecutive jobs", &mut cross_jobs)];
    let _ = write!(
        out,
        "\nFig 13 — parameter reuse across jobs\n{}\n(paper orderings: intermediates/inference fastest, params/inference slowest ~67ms)\n",
        table(&["reuse", "events", "p5", "median", "p95"], &rows3)
    );
    out
}

// ------------------------------------------------------------ Figs 18-21

/// The four-method comparison at one configuration, fanned out across
/// threads (runs are independent and deterministic per seed).
fn compare_at(base: &RunConfig) -> Vec<RunMetrics> {
    crate::parallel::run_many(
        vec![
            base.with_method(Method::AdaInf(AdaInfConfig::default())),
            base.with_method(Method::Ekya),
            base.with_method(Method::Scrooge),
            base.with_method(Method::ScroogeStar),
        ],
        0,
    )
}

/// Figs 18 & 19 (a): accuracy and finish rate of AdaInf / Ekya / Scrooge
/// / Scrooge* under the default deployment.
pub fn fig18_19a(scale: Scale) -> String {
    let runs = compare_at(&scale.base());
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|m| {
            vec![
                m.name.clone(),
                pct(m.mean_accuracy()),
                pct(m.mean_finish_rate()),
            ]
        })
        .collect();
    format!(
        "Figs 18a/19a — default deployment (8 apps, 4 GPUs)\n{}\n(paper: AdaInf ~96% acc, +11-14% over Ekya, +19-21% over Scrooge;\n finish: AdaInf +50-54% over Ekya, +2-4% over Scrooge)\n",
        table(&["method", "accuracy", "finish rate"], &rows)
    )
}

/// Figs 18b/19b: sweep over the number of applications.
pub fn fig18_19b(scale: Scale) -> String {
    let counts = [2usize, 5, 8, 11, 14];
    let mut rows = Vec::new();
    for &n in &counts {
        let base = RunConfig {
            num_apps: n,
            ..scale.base()
        };
        let runs = compare_at(&base);
        let mut row = vec![n.to_string()];
        for m in &runs {
            row.push(format!(
                "{}/{}",
                pct(m.mean_accuracy()),
                pct(m.mean_finish_rate())
            ));
        }
        rows.push(row);
    }
    format!(
        "Figs 18b/19b — accuracy/finish vs number of applications\n{}\n(paper: both decrease with more applications)\n",
        table(
            &["apps", "AdaInf", "Ekya", "Scrooge", "Scrooge*"],
            &rows
        )
    )
}

/// Figs 18c/19c: sweep over the number of edge GPUs.
pub fn fig18_19c(scale: Scale) -> String {
    let gpus = [1u32, 4, 8, 16];
    let mut rows = Vec::new();
    let mut adainf_at_4 = 0.0;
    let mut ekya_acc: Vec<(u32, f64)> = Vec::new();
    for &g in &gpus {
        let base = RunConfig {
            num_gpus: g,
            ..scale.base()
        };
        let runs = compare_at(&base);
        if g == 4 {
            adainf_at_4 = runs[0].mean_accuracy();
        }
        ekya_acc.push((g, runs[1].mean_accuracy()));
        let mut row = vec![g.to_string()];
        for m in &runs {
            row.push(format!(
                "{}/{}",
                pct(m.mean_accuracy()),
                pct(m.mean_finish_rate())
            ));
        }
        rows.push(row);
    }
    let mut out = format!(
        "Figs 18c/19c — accuracy/finish vs number of GPUs\n{}",
        table(
            &["GPUs", "AdaInf", "Ekya", "Scrooge", "Scrooge*"],
            &rows
        )
    );
    // The 4× resource-efficiency claim: find the GPU count at which Ekya
    // matches AdaInf@4.
    let matching = ekya_acc
        .iter()
        .find(|(_, acc)| *acc >= adainf_at_4 - 0.01)
        .map(|(g, _)| *g);
    let _ = writeln!(
        out,
        "\nAdaInf@4GPUs accuracy {} ; Ekya matches at {} GPUs (paper: 16 GPUs, a 4x efficiency gap)",
        pct(adainf_at_4),
        matching.map(|g| g.to_string()).unwrap_or_else(|| ">16".into())
    );
    out
}

/// Fig 20: average retraining and inference latency per method.
pub fn fig20(scale: Scale) -> String {
    let runs = compare_at(&scale.base());
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|m| {
            vec![
                m.name.clone(),
                format!("{:.1}ms", m.retrain_latency.mean()),
                format!("{:.1}ms", m.inference_latency.mean()),
            ]
        })
        .collect();
    format!(
        "Fig 20 — average retraining / inference latency per method\n{}\n(AdaInf's incremental slices are ms-scale; Ekya/Scrooge retrain in bulk,\n tens of seconds per period)\n",
        table(&["method", "retraining latency", "inference latency"], &rows)
    )
}

/// Fig 21: GPU utilization per second per method (~100 % for all, as
/// MPS multiplexing keeps kernels resident whenever there is load).
pub fn fig21(scale: Scale) -> String {
    let runs = compare_at(&scale.base());
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|m| {
            let u = &m.utilization;
            let mean = if u.is_empty() {
                0.0
            } else {
                u.iter().sum::<f64>() / u.len() as f64
            };
            let alloc_mean = if m.allocation.is_empty() {
                0.0
            } else {
                m.allocation.iter().sum::<f64>() / m.allocation.len() as f64
            };
            vec![m.name.clone(), pct(mean), pct(alloc_mean)]
        })
        .collect();
    format!(
        "Fig 21 — GPU utilization (nvidia-smi-style) and true mean allocation\n{}\n(paper: all methods ~100% smi utilization)\n",
        table(&["method", "smi utilization", "mean allocation"], &rows)
    )
}

// ------------------------------------------------------------- Fig 22

/// Fig 22: ablation variants of AdaInf — accuracy and finish rate.
pub fn fig22(scale: Scale) -> String {
    let base = scale.base();
    let configs = [
        AdaInfConfig::default(),
        AdaInfConfig::variant_m1(),
        AdaInfConfig::variant_m2(),
        AdaInfConfig::variant_s(),
        AdaInfConfig::variant_e(),
        AdaInfConfig::variant_u(),
        AdaInfConfig::variant_i(),
    ];
    let runs = crate::parallel::run_many(
        configs
            .into_iter()
            .map(|c| base.with_method(Method::AdaInf(c)))
            .collect(),
        0,
    );
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|m| {
            vec![
                m.name.clone(),
                pct(m.mean_accuracy()),
                pct(m.mean_finish_rate()),
            ]
        })
        .collect();
    format!(
        "Fig 22 — AdaInf ablation variants\n{}\n(paper accuracy order: AdaInf>M1>M2>S>E>U>I;\n finish order: AdaInf=I=U>E>M1>M2>S)\n",
        table(&["variant", "accuracy", "finish rate"], &rows)
    )
}

// ------------------------------------------------------------- Fig 23

/// Fig 23: sweep of the eviction-score weight α. For each α the offline
/// memory profiling is re-run with the detailed engine (heterogeneous
/// SLOs) and the measured communication inflation drives a full run.
pub fn fig23(scale: Scale) -> String {
    let mut rows = Vec::new();
    // Normalise the re-profiled inflation to the default calibration:
    // what matters is how α *changes* the communication cost relative to
    // the α = 0.4 default.
    let reference = measure_inflation_alpha(0.4);
    for &alpha in &[0.1, 0.2, 0.4, 0.6, 0.8] {
        let inflation = CommProfile::default().grouped_priority
            * measure_inflation_alpha(alpha)
            / reference;
        let comm = CommProfile {
            grouped_priority: inflation,
            ..CommProfile::default()
        };
        let config = AdaInfConfig {
            alpha,
            ..AdaInfConfig::default()
        };
        let base = RunConfig {
            comm: Some(comm),
            ..scale.base()
        };
        let m = run(base.with_method(Method::AdaInf(config)));
        rows.push(vec![
            format!("{alpha:.1}"),
            format!("{inflation:.3}"),
            pct(m.mean_accuracy()),
            pct(m.mean_finish_rate()),
        ]);
    }
    format!(
        "Fig 23 — effect of the eviction-score weight α\n{}\n(paper: accuracy flat; finish rate peaks at α = 0.4)\n",
        table(&["alpha", "comm inflation", "accuracy", "finish rate"], &rows)
    )
}

/// Measures the priority-policy communication inflation at a given α with
/// mixed-SLO applications (the profiling step behind Fig 23).
pub fn measure_inflation_alpha(alpha: f64) -> f64 {
    let latency = LatencyModel::default();
    let mut tasks = Vec::new();
    for a in 0..3u32 {
        let layers: Vec<LayerSpec> = (0..12)
            .map(|_| LayerSpec {
                flops: 1.0e7,
                param_bytes: 900_000,
                activation_bytes: 120_000,
            })
            .collect();
        for job in 0..2u64 {
            tasks.push(TaskExec {
                app: a,
                model: 0,
                job: job + 1,
                kind: TaskKind::Inference { requests: 32 },
                layers: layers.clone(),
                batch: 16,
                frac: 0.33,
                slo_ms: 400.0 + 100.0 * a as f64,
                input_from: None,
                start: SimTime::from_micros(job * 40_000),
            });
            tasks.push(TaskExec {
                app: a,
                model: 0,
                job: job + 1,
                kind: TaskKind::Retraining { samples: 16, epochs: 1 },
                layers: layers.clone(),
                batch: 16,
                frac: 0.33,
                slo_ms: 400.0 + 100.0 * a as f64,
                input_from: None,
                start: SimTime::from_micros(job * 40_000 + 5_000),
            });
        }
    }
    let mut mem = GpuMemory::new(MemoryConfig {
        gpu_capacity: 9_000_000,
        pin_capacity: 2_500_000,
        policy: EvictionPolicyKind::Priority,
        alpha,
        ..MemoryConfig::default()
    });
    let results = run_concurrent(&tasks, &latency, &mut mem, ExecMode::LayerGrouped);
    let compute: f64 = results.iter().map(|r| r.compute.as_millis_f64()).sum();
    let comm: f64 = results.iter().map(|r| r.comm.as_millis_f64()).sum();
    if compute <= 0.0 {
        1.0
    } else {
        (compute + comm) / compute
    }
}

// ------------------------------------------------------------- Fig 24

/// Fig 24: sweep of the accuracy threshold `A_m` for early-exit
/// selection: higher thresholds pick deeper (slower, more accurate)
/// structures.
pub fn fig24(scale: Scale) -> String {
    let mut rows = Vec::new();
    for &a_m in &[0.80, 0.85, 0.90, 0.95, 0.99] {
        let config = AdaInfConfig {
            a_m,
            ..AdaInfConfig::default()
        };
        // A tight deployment (2 GPUs): structure choices actually move
        // the latency/accuracy needle here.
        let base = RunConfig {
            num_gpus: 2,
            ..scale.base()
        };
        let m = run(base.with_method(Method::AdaInf(config)));
        rows.push(vec![
            pct(a_m),
            pct(m.mean_accuracy()),
            pct(m.mean_finish_rate()),
            format!("{:.1}ms", m.inference_latency.mean()),
        ]);
    }
    format!(
        "Fig 24 — effect of the early-exit accuracy threshold A_m\n{}\n(paper: accuracy rises with A_m, finish rate falls — deeper exits\n serve slower, leaving less slack)\n",
        table(
            &["A_m", "accuracy", "finish rate", "inference latency"],
            &rows
        )
    )
}

// -------------------------------------------------------------- Tables

/// Table 1: time overheads of the methods (measured wall-clock for the
/// CPU-side planning, modelled values for the edge–cloud path).
///
/// The "session scheduling" column is the in-run mean over every session
/// of the comparison runs.
pub fn table1(scale: Scale) -> String {
    let base = RunConfig {
        duration: SimDuration::from_secs(match scale {
            Scale::Fast => 100,
            _ => 250,
        }),
        ..scale.base()
    };
    let runs = compare_at(&base);
    let periods = (base.duration.as_secs_f64() / 50.0).max(1.0);
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|m| {
            vec![
                m.name.clone(),
                format!("{:.1}ms", m.period_overhead.mean()),
                format!("{:.3}ms", m.sched_overhead.mean()),
                format!(
                    "{:.1}s",
                    if m.edge_cloud_bytes > 0 {
                        m.edge_cloud_bytes as f64
                            / periods
                            / adainf_baselines::scrooge::EDGE_CLOUD_BANDWIDTH
                    } else {
                        0.0
                    }
                ),
                format!("{:.1}GB", m.edge_cloud_bytes as f64 / periods / 1e9),
            ]
        })
        .collect();
    format!(
        "Table 1 — time overheads (measured wall-clock; edge-cloud modelled;\n scheduling column: in-run mean)\n{}\n(paper: AdaInf 4.2s DAG update / 2ms scheduling; Ekya 8.4s; Scrooge\n 100ms scheduling + 34.1s / 85.7GB edge-cloud per period)\n",
        table(
            &[
                "method",
                "period planning",
                "session scheduling",
                "edge-cloud time/period",
                "edge-cloud data/period"
            ],
            &rows
        )
    )
}

/// Table 2: determination of the drift-detector sample fraction `S` for
/// the surveillance application at the second period, including the
/// S = 100 % ground-truth check.
// simlint: allow(prng-stream-discipline) — experiment entry point: the paper's pinned seeds (42, 7, 7) are the run configuration, constructed here once
pub fn table2(_scale: Scale) -> String {
    use adainf_apps::AppRuntime;
    use adainf_driftgen::workload::ArrivalConfig;
    let root = Prng::new(42);
    let mut rt = AppRuntime::new(
        adainf_apps::catalog::video_surveillance(0),
        ArrivalConfig::default(),
        6000,
        &root,
    );
    // Advance to the second drifted period, as in the paper's table.
    rt.advance_period();
    rt.advance_period();
    rt.draw_pools();
    let rng = Prng::new(7);
    let report = detect_drift(&rt, &AdaInfConfig::default(), &rng);
    let names = ["Object", "Person", "Vehicle"];
    let mut rows: Vec<Vec<String>> = report
        .trace
        .iter()
        .map(|(s, set)| {
            let detected: Vec<&str> = set
                .iter()
                .map(|&n| match n {
                    0 => names[0],
                    1 => names[2],
                    _ => names[1],
                })
                .collect();
            vec![
                pct(*s),
                if detected.is_empty() {
                    "×".into()
                } else {
                    detected.join(", ")
                },
            ]
        })
        .collect();
    // Ground truth at S = 100 %.
    let full_cfg = AdaInfConfig {
        s_init: 1.0,
        ..AdaInfConfig::default()
    };
    let rng2 = Prng::new(7);
    let full = detect_drift(&rt, &full_cfg, &rng2);
    let full_set: Vec<&str> = full
        .impacted
        .iter()
        .map(|&(n, _)| match n {
            0 => names[0],
            1 => names[2],
            _ => names[1],
        })
        .collect();
    rows.push(vec![
        "100.0%".into(),
        if full_set.is_empty() {
            "×".into()
        } else {
            full_set.join(", ")
        },
    ]);
    format!(
        "Table 2 — determination of the sample fraction S (period 2)\n{}\n(the iterative process stops once the detected set is stable and must\n agree with the S = 100% ground truth)\n",
        table(&["S", "models impacted by drift"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_flags() {
        let f = |args: &[&str]| {
            Scale::from_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        assert_eq!(f(&["bin", "--fast"]), Scale::Fast);
        assert_eq!(f(&["bin", "--full"]), Scale::Full);
        assert_eq!(f(&["bin"]), Scale::Default);
        assert_eq!(Scale::Fast.duration().as_secs_f64(), 150.0);
        assert_eq!(Scale::Full.duration().as_secs_f64(), 1000.0);
    }

    #[test]
    fn latency_figures_render_with_paper_optima() {
        let f8 = fig08(Scale::Fast);
        assert!(f8.contains("optimal batch size: 16"));
        let f9 = fig09(Scale::Fast);
        assert!(f9.contains("4/8/16/16"));
        let f10 = fig10(Scale::Fast);
        assert!(f10.contains("full: 16"));
    }

    #[test]
    fn fig11_shows_meaningful_comm_share() {
        let out = fig11(Scale::Fast);
        assert!(out.contains("comm share"));
        assert!(out.contains("multi-model"));
    }

    #[test]
    fn fig12_13_collects_all_categories() {
        let out = fig12_13(Scale::Fast);
        for label in [
            "intermediate/inference",
            "param/retraining",
            "intermediate/retraining",
            "param/inference",
            "across consecutive jobs",
        ] {
            assert!(out.contains(label), "missing {label} in:\n{out}");
        }
    }

    #[test]
    fn table2_stops_and_matches_ground_truth() {
        let out = table2(Scale::Fast);
        assert!(out.contains("100.0%"));
        // The last trace row and the ground-truth row carry the same set.
        let lines: Vec<&str> = out
            .lines()
            .filter(|l| l.starts_with('|') && !l.contains("models impacted") )
            .collect();
        let last_trace = lines[lines.len() - 2];
        let truth = lines[lines.len() - 1];
        let set = |row: &str| row.splitn(3, '|').nth(2).unwrap().trim().to_string();
        assert_eq!(set(last_trace), set(truth), "{out}");
    }

    #[test]
    fn alpha_profiling_returns_inflation() {
        let x = measure_inflation_alpha(0.4);
        assert!((1.0..3.0).contains(&x), "inflation {x}");
    }
}
