//! The items `adainf-bench`'s `run_all` regenerates: one per figure and
//! table of the paper's evaluation, then four beyond it (the intra-period
//! accuracy trajectory, the per-application breakdown, the chaos suite
//! and the §6 extensions).
//!
//! Each [`Item`] declares the simulation runs it reads and renders its
//! plain-text report from their results, so a runner can run every
//! distinct configuration once ([`crate::parallel::RunSet`]) however
//! many items read it. The paper's 1000 s horizon is [`Scale::Full`];
//! [`Scale::Default`] (500 s) preserves every qualitative shape at less
//! cost, and [`Scale::Fast`] (150 s) is for smoke runs.

use crate::chaos::{self, Scenario, SCENARIOS};
use crate::metrics::RunMetrics;
use crate::report::{pct, table};
use crate::sim::{Method, RunConfig};
use adainf_core::drift_detect::detect_drift;
use adainf_core::profiler::CommProfile;
use adainf_core::{AdaInfConfig, Variant};
use adainf_gpusim::exec::{run_concurrent, total_ms, LayerSpec, TaskExec, TaskKind};
use adainf_gpusim::latency::BATCH_CANDIDATES;
use adainf_gpusim::memory::CrossReuse;
use adainf_gpusim::{
    EvictionPolicyKind, ExecMode, GpuMemory, LatencyModel, MemoryConfig, StructureCost,
};
use adainf_nn::metrics::js_divergence;
use adainf_simcore::{Cdf, Prng, SimDuration, SimTime, WindowSeries};
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
    /// The flags [`Self::from_args`] accepts.
    pub const FLAGS: [&'static str; 2] = ["--fast", "--full"];

    /// Parses `--fast` / `--full` from CLI args, ignoring arguments
    /// that do not start with `--`. Any other flag, or `--fast` with
    /// `--full`, is an error naming it.
    pub fn from_args(args: &[String]) -> Result<Scale, String> {
        let mut scale = Scale::Default;
        for flag in args.iter().filter(|a| a.starts_with("--")) {
            let named = match flag.as_str() {
                "--fast" => Scale::Fast,
                "--full" => Scale::Full,
                _ => return Err(format!("unknown flag `{flag}`")),
            };
            if scale != Scale::Default && scale != named {
                return Err("`--fast` and `--full` exclude each other".to_string());
            }
            scale = named;
        }
        Ok(scale)
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

/// One declared run and its result.
pub type Run<'a> = (&'a RunConfig, &'a RunMetrics);

/// One `run_all` item: its label; every run it reads at a scale, in the
/// order the next two receive them; its report from those runs; and the
/// checks they fail, one message each (empty when every check holds).
pub type Item = (
    &'static str,
    fn(Scale) -> Vec<RunConfig>,
    fn(&[Run]) -> String,
    fn(&[Run]) -> Vec<String>,
);

/// Every item, in run order.
pub const ITEMS: [Item; 23] = [
    ("fig04", fig04_runs, fig04, no_checks),
    ("fig05", fig05_runs, fig05, no_checks),
    ("fig06", fig06_runs, fig06, no_checks),
    ("fig07", fig07_runs, fig07, no_checks),
    ("fig08", no_runs, fig08, no_checks),
    ("fig09", no_runs, fig09, no_checks),
    ("fig10", no_runs, fig10, no_checks),
    ("fig11", no_runs, fig11, no_checks),
    ("fig12+13", no_runs, fig12_13, no_checks),
    ("fig18/19a", compare_base, fig18_19a, no_checks),
    ("fig18/19b", fig18_19b_runs, fig18_19b, no_checks),
    ("fig18/19c", fig18_19c_runs, fig18_19c, no_checks),
    ("fig20", compare_base, fig20, no_checks),
    ("fig21", compare_base, fig21, no_checks),
    ("fig22", fig22_runs, fig22, no_checks),
    ("fig23", fig23_runs, fig23, no_checks),
    ("fig24", fig24_runs, fig24, no_checks),
    ("table1", compare_base, table1, no_checks),
    ("table2", no_runs, table2, no_checks),
    ("trajectory", trajectory_runs, trajectory, trajectory_guards),
    ("per-app", per_app_runs, per_app, no_checks),
    ("chaos", chaos_runs, chaos_suite, chaos_bounds),
    ("extensions", extensions_runs, extensions, no_checks),
];

fn no_runs(_: Scale) -> Vec<RunConfig> {
    Vec::new()
}

fn no_checks(_: &[Run]) -> Vec<String> {
    Vec::new()
}

/// The metrics of an item's `N` runs, in declaration order.
fn metrics<'a, const N: usize>(runs: &[Run<'a>]) -> [&'a RunMetrics; N] {
    assert_eq!(runs.len(), N, "an item renders the runs it declares");
    std::array::from_fn(|i| runs[i].1)
}

fn adainf_with(base: &RunConfig, edit: impl FnOnce(&mut AdaInfConfig)) -> RunConfig {
    let mut config = AdaInfConfig::default();
    edit(&mut config);
    base.with_method(Method::AdaInf(config))
}

/// A per-period series as percentages, `-` for a period without data.
fn pct_row(series: &WindowSeries) -> Vec<String> {
    series
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

fn fig04_runs(scale: Scale) -> Vec<RunConfig> {
    let base = scale.base();
    vec![
        base.with_method(Method::AdaInf(AdaInfConfig::default())),
        base.with_method(Method::AdaInf(Variant::NoRetraining.into())),
        base.with_method(Method::Ekya),
    ]
}

/// Fig 4: impact of data drift — accuracy per period with and without
/// retraining (4a), and the share of requests served by an updated model
/// under Ekya (4b).
fn fig04(runs: &[Run]) -> String {
    let [with, without, ekya] = metrics(runs);

    let mut out = series_table(
        "Fig 4a — accuracy per 50 s period (video-surveillance deployment)",
        &["with retraining", "without retraining"],
        &[pct_row(&with.accuracy), pct_row(&without.accuracy)],
    );
    out.push('\n');
    out.push_str(&series_table(
        "Fig 4b — % inference requests using the updated model (Ekya)",
        &["updated-model share"],
        &[pct_row(&ekya.updated_model)],
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

/// The surveillance application alone, the deployment of Figs 5–7.
fn surveillance_only(scale: Scale) -> RunConfig {
    RunConfig {
        num_apps: 1,
        ..scale.base()
    }
}

fn fig05_runs(scale: Scale) -> Vec<RunConfig> {
    let base = surveillance_only(scale);
    vec![
        base.with_method(Method::AdaInf(AdaInfConfig::default())),
        base.with_method(Method::AdaInf(Variant::NoRetraining.into())),
    ]
}

/// Fig 5: per-model accuracy of the surveillance application with and
/// without retraining. Object detection is drift-immune; vehicle-type
/// recognition suffers most.
fn fig05(runs: &[Run]) -> String {
    let [with, without] = metrics(runs);
    let node_names = ["object detection", "vehicle type", "person activity"];
    let mut out = String::new();
    for (node, name) in node_names.iter().enumerate() {
        out.push_str(&series_table(
            &format!("Fig 5 — {name}"),
            &["with retraining", "without retraining"],
            &[
                pct_row(&with.per_node_accuracy[0][node]),
                pct_row(&without.per_node_accuracy[0][node]),
            ],
        ));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------- Fig 6

fn fig06_runs(scale: Scale) -> Vec<RunConfig> {
    vec![surveillance_only(scale)]
}

/// Fig 6: Jensen–Shannon divergence of class-label distributions in
/// consecutive periods per surveillance task.
fn fig06(runs: &[Run]) -> String {
    let [m] = metrics(runs);
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

fn fig07_runs(scale: Scale) -> Vec<RunConfig> {
    let base = surveillance_only(scale);
    vec![
        base.with_method(Method::AdaInf(AdaInfConfig::default())),
        base.with_method(Method::AdaInf(Variant::E.into())),
        base.with_method(Method::Ekya),
        base.with_method(Method::AdaInf(Variant::EarlyWithoutRetraining.into())),
    ]
}

/// Fig 7: early-exit structures with incremental retraining, on the
/// surveillance application alone. 7a: accuracy of Early-inc (AdaInf),
/// Full-inc (AdaInf/E), Ekya and Early-w/o. 7b: retraining GPU time and
/// pool consumption per period, Early-inc vs Ekya.
fn fig07(runs: &[Run]) -> String {
    let [early_inc, full_inc, ekya, early_wo] = metrics(runs);
    let mut out = series_table(
        "Fig 7a — accuracy per period (surveillance app only)",
        &["Early-inc", "Full-inc", "Ekya", "Early-w/o"],
        &[
            pct_row(&early_inc.accuracy),
            pct_row(&full_inc.accuracy),
            pct_row(&ekya.accuracy),
            pct_row(&early_wo.accuracy),
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
            format!(
                "{:.1}s",
                early_inc.retrain_gpu_seconds.get(p).unwrap_or(&0.0)
            ),
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
fn fig08(_: &[Run]) -> String {
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
fn fig09(_: &[Run]) -> String {
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
fn fig10(_: &[Run]) -> String {
    let model = LatencyModel::default();
    let app = adainf_apps::catalog::video_surveillance(0);
    let full = app.full_cuts();
    // Three early-exit structures: shallow, medium, and detector-heavy.
    let shallow: Vec<usize> = app
        .nodes
        .iter()
        .map(|n| n.profile.exit_points()[0])
        .collect();
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
/// concurrent with a second application, under memory pressure (60 MB
/// in the figures). `multi = false` runs only the single-model
/// competitor application (the single-model comparison point of
/// Obs. 7, at proportionally scaled memory pressure). Returns the
/// memory and the run's total compute and comm, in ms.
fn detailed_workload(
    mode: ExecMode,
    policy: EvictionPolicyKind,
    batch: u32,
    jobs: u64,
    multi: bool,
    capacity: u64,
) -> (GpuMemory, (f64, f64)) {
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
                kind: TaskKind::Inference {
                    requests: batch * 2,
                },
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
            kind: TaskKind::Inference {
                requests: batch * 2,
            },
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
    let totals = total_ms(&run_concurrent(&tasks, &latency, &mut mem, mode));
    (mem, totals)
}

/// Fig 11: per-batch inference latency decomposed into CPU–GPU
/// communication and computation, per batch size (baseline strategies —
/// communication ≈ 24 % of latency; ~17 % in a single-model run).
fn fig11(_: &[Run]) -> String {
    let mut rows = Vec::new();
    for &b in &[4u32, 8, 16, 32] {
        let (_, (compute, comm)) = detailed_workload(
            ExecMode::PerRequest,
            EvictionPolicyKind::Lru,
            b,
            6,
            true,
            60_000_000,
        );
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
        let (_, (compute, comm)) = detailed_workload(
            ExecMode::PerRequest,
            EvictionPolicyKind::Lru,
            16,
            6,
            multi,
            cap,
        );
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
fn fig12_13(_: &[Run]) -> String {
    let (mem, _) = detailed_workload(
        ExecMode::LayerGrouped,
        EvictionPolicyKind::Priority,
        16,
        8,
        true,
        60_000_000,
    );
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
    let rows3 = vec![cdf_summary(
        "param: across consecutive jobs",
        &mut cross_jobs,
    )];
    let _ = write!(
        out,
        "\nFig 13 — parameter reuse across jobs\n{}\n(paper orderings: intermediates/inference fastest, params/inference slowest ~67ms)\n",
        table(&["reuse", "events", "p5", "median", "p95"], &rows3)
    );
    out
}

// ------------------------------------------------------------ Figs 18-21

fn compare_at(base: &RunConfig) -> Vec<RunConfig> {
    vec![
        base.with_method(Method::AdaInf(AdaInfConfig::default())),
        base.with_method(Method::Ekya),
        base.with_method(Method::Scrooge),
        base.with_method(Method::ScroogeStar),
    ]
}

/// The four-method comparison at the default deployment: the runs of
/// Figs 18a/19a, 20 and 21 and Table 1.
fn compare_base(scale: Scale) -> Vec<RunConfig> {
    compare_at(&scale.base())
}

fn accuracy_finish_rows(runs: &[Run]) -> Vec<Vec<String>> {
    runs.iter()
        .map(|(_, m)| {
            vec![
                m.name.clone(),
                pct(m.mean_accuracy()),
                pct(m.mean_finish_rate()),
            ]
        })
        .collect()
}

/// Figs 18 & 19 (a): accuracy and finish rate of AdaInf / Ekya / Scrooge
/// / Scrooge* under the default deployment.
fn fig18_19a(runs: &[Run]) -> String {
    format!(
        "Figs 18a/19a — default deployment (8 apps, 4 GPUs)\n{}\n(paper: AdaInf ~96% acc, +11-14% over Ekya, +19-21% over Scrooge;\n finish: AdaInf +50-54% over Ekya, +2-4% over Scrooge)\n",
        table(&["method", "accuracy", "finish rate"], &accuracy_finish_rows(runs))
    )
}

/// The rows of a comparison sweep: the swept value (`label` reads it
/// off the deployment), then each method's accuracy/finish rate.
fn sweep_rows(runs: &[Run], label: fn(&RunConfig) -> String) -> Vec<Vec<String>> {
    runs.chunks(4)
        .map(|runs| {
            let mut row = vec![label(runs[0].0)];
            row.extend(
                runs.iter().map(|(_, m)| {
                    format!("{}/{}", pct(m.mean_accuracy()), pct(m.mean_finish_rate()))
                }),
            );
            row
        })
        .collect()
}

fn fig18_19b_runs(scale: Scale) -> Vec<RunConfig> {
    [2, 5, 8, 11, 14]
        .map(|num_apps| RunConfig {
            num_apps,
            ..scale.base()
        })
        .iter()
        .flat_map(compare_at)
        .collect()
}

/// Figs 18b/19b: sweep over the number of applications.
fn fig18_19b(runs: &[Run]) -> String {
    format!(
        "Figs 18b/19b — accuracy/finish vs number of applications\n{}\n(paper: both decrease with more applications)\n",
        table(
            &["apps", "AdaInf", "Ekya", "Scrooge", "Scrooge*"],
            &sweep_rows(runs, |c| c.num_apps.to_string())
        )
    )
}

fn fig18_19c_runs(scale: Scale) -> Vec<RunConfig> {
    [1, 4, 8, 16]
        .map(|num_gpus| RunConfig {
            num_gpus,
            ..scale.base()
        })
        .iter()
        .flat_map(compare_at)
        .collect()
}

/// Figs 18c/19c: sweep over the number of edge GPUs.
fn fig18_19c(runs: &[Run]) -> String {
    let mut out = format!(
        "Figs 18c/19c — accuracy/finish vs number of GPUs\n{}",
        table(
            &["GPUs", "AdaInf", "Ekya", "Scrooge", "Scrooge*"],
            &sweep_rows(runs, |c| c.num_gpus.to_string())
        )
    );
    // The 4× resource-efficiency claim: find the GPU count at which Ekya
    // (each comparison's second run) matches AdaInf@4.
    let adainf_at_4 = runs
        .chunks(4)
        .find(|runs| runs[0].0.num_gpus == 4)
        .map_or(0.0, |runs| runs[0].1.mean_accuracy());
    let matching = runs
        .chunks(4)
        .find(|runs| runs[1].1.mean_accuracy() >= adainf_at_4 - 0.01)
        .map(|runs| runs[0].0.num_gpus);
    let _ = writeln!(
        out,
        "\nAdaInf@4GPUs accuracy {} ; Ekya matches at {} GPUs (paper: 16 GPUs, a 4x efficiency gap)",
        pct(adainf_at_4),
        matching.map(|g| g.to_string()).unwrap_or_else(|| ">16".into())
    );
    out
}

/// Fig 20: average retraining and inference latency per method.
fn fig20(runs: &[Run]) -> String {
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(_, m)| {
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
fn fig21(runs: &[Run]) -> String {
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(_, m)| {
            let alloc_mean = if m.allocation.is_empty() {
                0.0
            } else {
                m.allocation.iter().sum::<f64>() / m.allocation.len() as f64
            };
            vec![m.name.clone(), pct(m.mean_utilization()), pct(alloc_mean)]
        })
        .collect();
    format!(
        "Fig 21 — GPU utilization (nvidia-smi-style) and true mean allocation\n{}\n(paper: all methods ~100% smi utilization)\n",
        table(&["method", "smi utilization", "mean allocation"], &rows)
    )
}

// ------------------------------------------------------------- Fig 22

fn fig22_runs(scale: Scale) -> Vec<RunConfig> {
    let base = scale.base();
    [
        Variant::AdaInf,
        Variant::M1,
        Variant::M2,
        Variant::S,
        Variant::E,
        Variant::U,
        Variant::I,
    ]
    .into_iter()
    .map(|v| base.with_method(Method::AdaInf(v.into())))
    .collect()
}

/// Fig 22: ablation variants of AdaInf — accuracy and finish rate.
fn fig22(runs: &[Run]) -> String {
    format!(
        "Fig 22 — AdaInf ablation variants\n{}\n(paper accuracy order: AdaInf>M1>M2>S>E>U>I;\n finish order: AdaInf=I=U>E>M1>M2>S)\n",
        table(&["variant", "accuracy", "finish rate"], &accuracy_finish_rows(runs))
    )
}

// ------------------------------------------------------------- Fig 23

/// The eviction-score weights α Fig 23 sweeps.
const FIG23_ALPHAS: [f64; 5] = [0.1, 0.2, 0.4, 0.6, 0.8];

/// For each α the offline memory profiling is re-run with the detailed
/// engine (heterogeneous SLOs), and the measured communication inflation
/// drives a full run. α reaches the run only through that inflation, so
/// α values of equal inflation declare the same run.
fn fig23_runs(scale: Scale) -> Vec<RunConfig> {
    // Normalise the re-profiled inflation to the default calibration:
    // what matters is how α *changes* the communication cost relative to
    // the α = 0.4 default.
    let reference = measure_inflation_alpha(0.4);
    FIG23_ALPHAS
        .into_iter()
        .map(|alpha| {
            let comm = CommProfile {
                grouped_priority: CommProfile::default().grouped_priority
                    * measure_inflation_alpha(alpha)
                    / reference,
                ..CommProfile::default()
            };
            RunConfig {
                comm: Some(comm),
                ..scale.base()
            }
        })
        .collect()
}

/// Fig 23: sweep of the eviction-score weight α.
fn fig23(runs: &[Run]) -> String {
    let rows: Vec<Vec<String>> = FIG23_ALPHAS
        .iter()
        .zip(runs)
        .map(|(alpha, (config, m))| {
            let inflation = config.comm.unwrap_or_default().grouped_priority;
            vec![
                format!("{alpha:.1}"),
                format!("{inflation:.3}"),
                pct(m.mean_accuracy()),
                pct(m.mean_finish_rate()),
            ]
        })
        .collect();
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
                kind: TaskKind::Retraining {
                    samples: 16,
                    epochs: 1,
                },
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
    let (compute, comm) = total_ms(&run_concurrent(
        &tasks,
        &latency,
        &mut mem,
        ExecMode::LayerGrouped,
    ));
    if compute <= 0.0 {
        1.0
    } else {
        (compute + comm) / compute
    }
}

// ------------------------------------------------------------- Fig 24

/// A row of `label`, then the run's mean accuracy, finish rate and
/// inference latency.
fn quality_row(label: String, m: &RunMetrics) -> Vec<String> {
    vec![
        label,
        pct(m.mean_accuracy()),
        pct(m.mean_finish_rate()),
        format!("{:.1}ms", m.inference_latency.mean()),
    ]
}

/// The early-exit accuracy thresholds `A_m` Fig 24 sweeps.
const FIG24_A_M: [f64; 5] = [0.80, 0.85, 0.90, 0.95, 0.99];

fn fig24_runs(scale: Scale) -> Vec<RunConfig> {
    // A tight deployment (2 GPUs): structure choices actually move the
    // latency/accuracy needle here.
    let base = RunConfig {
        num_gpus: 2,
        ..scale.base()
    };
    FIG24_A_M
        .into_iter()
        .map(|a_m| adainf_with(&base, |c| c.a_m = a_m))
        .collect()
}

/// Fig 24: sweep of the accuracy threshold `A_m` for early-exit
/// selection: higher thresholds pick deeper (slower, more accurate)
/// structures.
fn fig24(runs: &[Run]) -> String {
    let rows: Vec<Vec<String>> = FIG24_A_M
        .iter()
        .zip(runs)
        .map(|(&a_m, (_, m))| quality_row(pct(a_m), m))
        .collect();
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
/// The columns read the default deployment's four comparison runs: the
/// "session scheduling" column is the in-run mean over every session, and
/// the edge–cloud columns are per period of the run.
fn table1(runs: &[Run]) -> String {
    let periods = runs.first().map_or(1.0, |(config, _)| {
        (config.duration.as_secs_f64() / 50.0).max(1.0)
    });
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(_, m)| {
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
fn table2(_: &[Run]) -> String {
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
    let rng = Prng::new(7);
    let report = detect_drift(&mut rt, &AdaInfConfig::default(), &rng);
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
    let full = detect_drift(&mut rt, &full_cfg, &rng2);
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

// ------------------------------------------------- Beyond the paper

fn trajectory_runs(scale: Scale) -> Vec<RunConfig> {
    let base = RunConfig {
        duration: SimDuration::from_secs(200),
        ..scale.base()
    };
    vec![
        // The predictor rides along on the AdaInf run: pristine runs are
        // bit-identical with it on (admission only fires in fault
        // windows — pinned by tests/golden.rs), and the calibration
        // guards need its observation stream.
        adainf_with(&base, |c| c.predicted_latency = true),
        base.with_method(Method::Ekya),
        base.with_method(Method::Scrooge),
    ]
}

/// Intra-period accuracy trajectories: the 5-second-window accuracy of
/// AdaInf vs Ekya vs Scrooge across two retraining periods, making the
/// incremental-retraining mechanism of Fig 3 directly visible — AdaInf
/// recovers smoothly from the start of each period, Ekya steps up at its
/// ~22 s retraining completion, Scrooge only near the period end.
fn trajectory(runs: &[Run]) -> String {
    let series: Vec<Vec<Option<f64>>> =
        runs.iter().map(|(_, m)| m.accuracy_fine.ratios()).collect();
    let windows = series.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut rows = Vec::new();
    for w in (0..windows).step_by(2) {
        let mut row = vec![format!("{}s", w * 5)];
        for s in &series {
            row.push(
                s.get(w)
                    .copied()
                    .flatten()
                    .map(|v| format!("{:.1}%", v * 100.0))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        rows.push(row);
    }
    format!(
        "Intra-period accuracy trajectory (5 s windows, 100-200 s shown over two periods)\n{}",
        table(&["t", "AdaInf", "Ekya", "Scrooge"], &rows)
    )
}

/// The latency predictor's guards on the trajectory runs: every run's
/// calibration columns are finite (schedulers without a predictor
/// report an exact 0.0), and the AdaInf predictor scores forecasts and
/// converges — its last-quartile relative error strictly below the first
/// quartile's warm-up error.
fn trajectory_guards(runs: &[Run]) -> Vec<String> {
    let mut failures = Vec::new();
    for (_, m) in runs {
        let (mae, violations) = (m.predicted_latency_mae_us(), m.headroom_violation_rate());
        if !mae.is_finite() || !violations.is_finite() {
            failures.push(format!(
                "{} calibration columns not finite (mae {mae}, violation rate {violations})",
                m.name
            ));
        }
        if m.name == "AdaInf" {
            let first = m.predicted_rel_err_quartile(0);
            let last = m.predicted_rel_err_quartile(3);
            if mae <= 0.0 {
                failures.push(format!(
                    "AdaInf predictor never scored a forecast (mae {mae})"
                ));
            }
            if last >= first {
                failures.push(format!(
                    "AdaInf predictor did not converge: first-quartile relative \
                     error {first:.4} ≤ last-quartile {last:.4}"
                ));
            }
        }
    }
    failures
}

/// AdaInf, Ekya and Scrooge at the default deployment: the first three
/// runs of the four-method comparison.
fn per_app_runs(scale: Scale) -> Vec<RunConfig> {
    compare_base(scale).into_iter().take(3).collect()
}

/// Per-application breakdown: accuracy, latency percentiles and
/// retraining volume of every application under each method. Shows
/// *which* applications each scheduler sacrifices — e.g. Ekya's even
/// shares starving the heavy social-media DAG while light apps cruise.
fn per_app(runs: &[Run]) -> String {
    let blocks: Vec<String> = runs
        .iter()
        .map(|(config, m)| {
            let rows: Vec<Vec<String>> = adainf_apps::apps_for_count(config.num_apps)
                .into_iter()
                .enumerate()
                .map(|(app, spec)| {
                    let (p50, p95, p99) = m.latency_percentiles(app);
                    let samples: u64 = m.retrain_samples[app].iter().sum();
                    vec![
                        spec.name,
                        m.per_app_accuracy[app]
                            .ratios()
                            .iter()
                            .filter_map(|a| *a)
                            .map(pct)
                            .next_back()
                            .unwrap_or_else(|| "-".into()),
                        pct(m.per_app_accuracy[app].mean_ratio()),
                        format!("{p50:.0}/{p95:.0}/{p99:.0}ms"),
                        samples.to_string(),
                    ]
                })
                .collect();
            format!(
                "{} — per-application breakdown\n{}",
                m.name,
                table(
                    &[
                        "application",
                        "final-period acc",
                        "mean acc",
                        "latency p50/p95/p99",
                        "retrain samples"
                    ],
                    &rows
                )
            )
        })
        .collect();
    blocks.join("\n")
}

fn chaos_runs(_: Scale) -> Vec<RunConfig> {
    SCENARIOS.iter().map(|s| s.config(chaos::SEED)).collect()
}

/// Each scenario with the metrics of its run.
fn chaos_pairs<'a>(runs: &[Run<'a>]) -> Vec<(&'static Scenario, &'a RunMetrics)> {
    SCENARIOS
        .iter()
        .zip(runs)
        .map(|(s, &(_, m))| (s, m))
        .collect()
}

/// The chaos suite: every named fault scenario against AdaInf.
fn chaos_suite(runs: &[Run]) -> String {
    format!(
        "## Chaos suite (seed {})\n\n{}",
        chaos::SEED,
        chaos::report(&chaos_pairs(runs))
    )
}

/// The scenarios whose finish rate fell below their documented floor.
fn chaos_bounds(runs: &[Run]) -> Vec<String> {
    chaos_pairs(runs)
        .into_iter()
        .filter(|(s, m)| !s.holds(m))
        .map(|(s, m)| {
            format!(
                "{} finished {:.4}, below its floor {:.2}",
                s.name,
                m.mean_finish_rate(),
                s.finish_floor
            )
        })
        .collect()
}

/// The rows of the §6 extension ablations, in declaration order.
const EXTENSION_ROWS: [&str; 3] = [
    "AdaInf (baseline)",
    "+ CPU offload (<=4 req)",
    "heterogeneous fleet 2x1.0+4x0.5",
];

fn extensions_runs(scale: Scale) -> Vec<RunConfig> {
    let base = scale.base();
    vec![
        base.clone(),
        adainf_with(&base, |c| c.cpu_offload_threshold = 4),
        RunConfig {
            device_factors: vec![1.0, 1.0, 0.5, 0.5, 0.5, 0.5].into(),
            ..base
        },
    ]
}

/// The §6 extension ablations (not in the paper's evaluation; they
/// regenerate the "Limitations and Discussion" directions as
/// measurable experiments): CPU offload of low-rate sessions and a
/// heterogeneous GPU fleet (4 reference GPUs vs 2 fast + 4 half-speed at
/// the same total capacity).
fn extensions(runs: &[Run]) -> String {
    let rows: Vec<Vec<String>> = EXTENSION_ROWS
        .iter()
        .zip(runs)
        .map(|(name, (_, m))| quality_row(name.to_string(), m))
        .collect();
    format!(
        "§6 extension ablations\n{}",
        table(
            &[
                "configuration",
                "accuracy",
                "finish rate",
                "inference latency"
            ],
            &rows
        )
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
        assert_eq!(f(&["bin", "--fast"]), Ok(Scale::Fast));
        assert_eq!(f(&["bin", "--full"]), Ok(Scale::Full));
        assert_eq!(f(&["bin"]), Ok(Scale::Default));
        assert_eq!(f(&["--fast", "fig", "--fast"]), Ok(Scale::Fast));
        for (bad, flag) in [
            (["--fats", "table2"], "`--fats`"),
            (["table2", "--seed"], "`--seed`"),
            (["--fast", "--quick"], "`--quick`"),
        ] {
            assert!(f(&bad).unwrap_err().contains(flag), "{bad:?}");
        }
        assert!(f(&["--fast", "--full"])
            .unwrap_err()
            .contains("exclude each other"));
        assert!(f(&["--full", "fig", "--fast"]).is_err());
        assert_eq!(Scale::Fast.duration().as_secs_f64(), 150.0);
        assert_eq!(Scale::Full.duration().as_secs_f64(), 1000.0);
    }

    #[test]
    fn latency_figures_render_with_paper_optima() {
        let f8 = fig08(&[]);
        assert!(f8.contains("optimal batch size: 16"));
        let f9 = fig09(&[]);
        assert!(f9.contains("4/8/16/16"));
        let f10 = fig10(&[]);
        assert!(f10.contains("full: 16"));
    }

    #[test]
    fn fig11_shows_meaningful_comm_share() {
        let out = fig11(&[]);
        assert!(out.contains("comm share"));
        assert!(out.contains("multi-model"));
    }

    #[test]
    fn fig12_13_collects_all_categories() {
        let out = fig12_13(&[]);
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
        let out = table2(&[]);
        assert!(out.contains("100.0%"));
        // The last trace row and the ground-truth row carry the same set.
        let lines: Vec<&str> = out
            .lines()
            .filter(|l| l.starts_with('|') && !l.contains("models impacted"))
            .collect();
        let last_trace = lines[lines.len() - 2];
        let truth = lines[lines.len() - 1];
        let set = |row: &str| row.splitn(3, '|').nth(2).unwrap().trim().to_string();
        assert_eq!(set(last_trace), set(truth), "{out}");
    }

    #[test]
    fn every_declared_fast_run_is_valid() {
        for (label, runs, ..) in ITEMS {
            for config in runs(Scale::Fast) {
                if let Err(e) = config.validate() {
                    panic!("{label}: {e} in {config:?}");
                }
            }
        }
    }

    /// Over metrics of runs that never served (finish rate 0, no
    /// forecast scored), the chaos floors and the predictor guards fail.
    #[test]
    fn chaos_and_trajectory_checks_fail_on_empty_runs() {
        for label in ["chaos", "trajectory"] {
            let (_, runs_of, render, check) = *ITEMS.iter().find(|i| i.0 == label).unwrap();
            let configs = runs_of(Scale::Fast);
            let metrics: Vec<RunMetrics> = configs
                .iter()
                .map(|c| RunMetrics::new(c.method.name(), &[3; 3]))
                .collect();
            let runs: Vec<Run> = configs.iter().zip(&metrics).collect();
            assert!(!check(&runs).is_empty(), "{label} reported no failure");
            assert!(render(&runs).lines().count() > 2, "{label} renders");
        }
    }

    #[test]
    fn alpha_profiling_returns_inflation() {
        let x = measure_inflation_alpha(0.4);
        assert!((1.0..3.0).contains(&x), "inflation {x}");
    }
}
