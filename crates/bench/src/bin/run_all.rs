//! Regenerates the paper's tables and figures and the experiments beyond
//! them: `run_all [NAME…] [--fast|--full]`.
//!
//! With no name it runs every item in order; otherwise it runs each item
//! whose label starts with one of the names, so `fig18` runs the three
//! Fig 18/19 parts. A name that selects nothing exits 2 and lists the
//! labels. `--fast` is the 150 s horizon, `--full` the paper's 1000 s;
//! the default is 500 s. Any other flag, or both together, exits 2
//! naming it and the accepted flags.
//!
//! The selected items' declared runs go into one pool, each distinct
//! configuration once, before any item prints. The process exits 1 if
//! any item reports a failed check (the chaos floors, the latency
//! predictor's guards).

#![forbid(unsafe_code)]

use adainf_bench::experiments::{self as ex, Item, Run, ITEMS};
use adainf_harness::parallel::RunSet;
use adainf_harness::sim::RunConfig;

/// The items `names` select, in run order: every item whose label starts
/// with one of the names, or all of them when `names` is empty. A name
/// that selects nothing is an error.
fn select<'a>(items: &'a [Item], names: &[&str]) -> Result<Vec<&'a Item>, String> {
    let selects = |name: &str, (label, ..): &Item| label.starts_with(name);
    if let Some(name) = names.iter().find(|n| !items.iter().any(|i| selects(n, i))) {
        return Err(format!("no item label starts with `{name}`"));
    }
    Ok(items
        .iter()
        .filter(|i| names.is_empty() || names.iter().any(|n| selects(n, i)))
        .collect())
}

/// The scale and the item names `args` ask for: every argument that
/// does not start with `--` is a name. An unknown flag, or `--fast`
/// with `--full`, is an error naming it and the accepted flags.
fn parse(args: &[String]) -> Result<(ex::Scale, Vec<&str>), String> {
    let scale = ex::Scale::from_args(args)
        .map_err(|e| format!("{e}; flags: {}", ex::Scale::FLAGS.join(" ")))?;
    let names = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .collect();
    Ok((scale, names))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, names) = parse(&args).unwrap_or_else(|e| {
        eprintln!("run_all: {e}");
        std::process::exit(2);
    });
    let selected = select(&ITEMS, &names).unwrap_or_else(|e| {
        let labels: Vec<&str> = ITEMS.iter().map(|(label, ..)| *label).collect();
        eprintln!("run_all: {e}; labels: {}", labels.join(" "));
        std::process::exit(2);
    });
    let t0 = std::time::Instant::now();
    let declared: Vec<Vec<RunConfig>> = selected.iter().map(|(_, runs, ..)| runs(scale)).collect();
    let runs = RunSet::new(declared.iter().flatten().cloned()).run();
    let mut failed = false;
    for (&&(label, _, render, check), configs) in selected.iter().zip(&declared) {
        let results: Vec<Run> = configs.iter().map(|c| (c, runs.get(c))).collect();
        eprintln!("=== {label} ===");
        println!("{}", render(&results));
        for failure in check(&results) {
            eprintln!("[{label}] FAIL: {failure}");
            failed = true;
        }
    }
    eprintln!(
        "[run_all] {} runs for {} declared, {:.1}s",
        runs.configs().len(),
        declared.iter().map(Vec::len).sum::<usize>(),
        t0.elapsed().as_secs_f64()
    );
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(names: &[&str]) -> Result<Vec<&'static str>, String> {
        Ok(select(&ITEMS, names)?
            .iter()
            .map(|(label, ..)| *label)
            .collect())
    }

    #[test]
    fn names_select_items_by_label_prefix() {
        let all = labels(&[]).unwrap();
        assert_eq!(all.len(), ITEMS.len());
        let unique: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "labels are unique");
        for label in &all {
            assert_eq!(labels(&[label]).unwrap(), [*label]);
        }
        assert_eq!(
            labels(&["fig18"]).unwrap(),
            ["fig18/19a", "fig18/19b", "fig18/19c"]
        );
        assert_eq!(
            labels(&["extensions", "trajectory", "per", "chaos"]).unwrap(),
            ["trajectory", "per-app", "chaos", "extensions"]
        );
        let papers = labels(&["fig", "table"]).unwrap();
        assert_eq!(papers.len(), 19);
        assert!(papers
            .iter()
            .all(|l| l.starts_with("fig") || l.starts_with("table")));
        assert!(labels(&["fig99"]).is_err());
        assert!(labels(&["fig04", "fig99"]).is_err());
    }

    /// Flags other than `--fast` / `--full`, and the two together, are
    /// rejected with a message naming the flag and the accepted ones;
    /// names pass through in order.
    #[test]
    fn unknown_or_conflicting_flags_are_rejected() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let given = args(&["--fast", "fig", "table2"]);
        assert_eq!(parse(&given), Ok((ex::Scale::Fast, vec!["fig", "table2"])));
        let given = args(&["chaos"]);
        assert_eq!(parse(&given), Ok((ex::Scale::Default, vec!["chaos"])));
        for (bad, named) in [
            (&["--fats", "table2"][..], "`--fats`"),
            (&["--seed", "11", "chaos"], "`--seed`"),
            (&["--fast", "--full"], "exclude each other"),
        ] {
            let err = parse(&args(bad)).unwrap_err();
            assert!(err.contains(named), "{err}");
            assert!(err.ends_with("flags: --fast --full"), "{err}");
        }
    }

    /// The paper's §5 varies one axis at a time around one default
    /// deployment, so the figures' declarations repeat runs. Fig 23's α
    /// reaches a run only through its re-profiled inflation, and α = 0.1
    /// and 0.2 re-profile alike, as do α = 0.6 and 0.8.
    #[test]
    fn figure_declarations_collapse_to_distinct_runs() {
        let configs: Vec<RunConfig> = select(&ITEMS, &["fig", "table2"])
            .unwrap()
            .iter()
            .flat_map(|(_, runs, ..)| runs(ex::Scale::Fast))
            .collect();
        assert_eq!(configs.len(), 75);
        assert_eq!(RunSet::new(configs).configs().len(), 52);
    }
}
