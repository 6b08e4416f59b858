//! Plain-text table emitters for the figure regenerators.

use std::fmt::Write as _;

/// Renders a markdown-style table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (c, w) in cells.iter().zip(widths) {
            let _ = write!(line, " {c:<w$} |");
        }
        line
    };
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push('|');
    for w in &widths {
        let _ = write!(out, "{:-<1$}|", "", w + 2);
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = table(
            &["method", "accuracy"],
            &[
                vec!["AdaInf".into(), "96.4%".into()],
                vec!["Ekya".into(), "85.0%".into()],
            ],
        );
        assert!(t.contains("| AdaInf"));
        assert!(t.contains("| method"));
        assert_eq!(t.lines().count(), 4);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.964), "96.4%");
    }
}
