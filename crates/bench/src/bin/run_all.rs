//! Regenerates the paper's tables and figures:
//! `run_all [NAME…] [--fast|--full]`.
//!
//! With no name it runs every item in order; otherwise it runs each item
//! whose label starts with one of the names, so `fig18` runs the three
//! Fig 18/19 parts. A name that selects nothing exits non-zero and lists
//! the labels. `--fast` is the 150 s horizon, `--full` the paper's
//! 1000 s; the default is 500 s.

#![forbid(unsafe_code)]

use adainf_bench::experiments as ex;

/// A labelled figure regenerator.
type Item = (&'static str, fn(ex::Scale) -> String);

/// Every item, in run order. `trajectory` and `extensions` cover material
/// beyond the paper's figures; they have their own binaries.
const ITEMS: [Item; 19] = [
    ("fig04", ex::fig04),
    ("fig05", ex::fig05),
    ("fig06", ex::fig06),
    ("fig07", ex::fig07),
    ("fig08", ex::fig08),
    ("fig09", ex::fig09),
    ("fig10", ex::fig10),
    ("fig11", ex::fig11),
    ("fig12+13", ex::fig12_13),
    ("fig18/19a", ex::fig18_19a),
    ("fig18/19b", ex::fig18_19b),
    ("fig18/19c", ex::fig18_19c),
    ("fig20", ex::fig20),
    ("fig21", ex::fig21),
    ("fig22", ex::fig22),
    ("fig23", ex::fig23),
    ("fig24", ex::fig24),
    ("table1", ex::table1),
    ("table2", ex::table2),
];

/// The items `names` select, in run order: every item whose label starts
/// with one of the names, or all of them when `names` is empty. A name
/// that selects nothing is an error.
fn select<'a>(items: &'a [Item], names: &[&str]) -> Result<Vec<&'a Item>, String> {
    let selects = |name: &str, (label, _): &Item| label.starts_with(name);
    if let Some(name) = names.iter().find(|n| !items.iter().any(|i| selects(n, i))) {
        return Err(format!("no item label starts with `{name}`"));
    }
    Ok(items
        .iter()
        .filter(|i| names.is_empty() || names.iter().any(|n| selects(n, i)))
        .collect())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = ex::Scale::from_args(&args);
    let names: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .collect();
    let selected = select(&ITEMS, &names).unwrap_or_else(|e| {
        let labels: Vec<&str> = ITEMS.iter().map(|(label, _)| *label).collect();
        eprintln!("run_all: {e}; labels: {}", labels.join(" "));
        std::process::exit(2);
    });
    for (name, f) in selected {
        eprintln!("=== {name} ===");
        let t0 = std::time::Instant::now();
        println!("{}", f(scale));
        eprintln!("[{name}] {:.1}s", t0.elapsed().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(names: &[&str]) -> Result<Vec<&'static str>, String> {
        Ok(select(&ITEMS, names)?
            .iter()
            .map(|(label, _)| *label)
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
        assert!(labels(&["fig99"]).is_err());
        assert!(labels(&["fig04", "fig99"]).is_err());
    }
}
