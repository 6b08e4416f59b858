//! simlint CLI: lint the workspace (default) or explicit files.
//!
//! Exit status: 0 when clean, 1 on violations, 2 on usage/IO errors.
//!
//! Output formats (`--format=…`):
//!
//! * `text` (default) — `file:line: rule-id: message`, one per line;
//! * `json` — a single object `{"violations": N, "files_scanned": N,
//!   "diagnostics": [{"path", "line", "rule", "message"}, …]}`, for the
//!   CI artifact;
//! * `github` — GitHub Actions workflow commands
//!   (`::error file=…,line=…,title=…::…`) so violations surface as PR
//!   annotations.

#![forbid(unsafe_code)]

use simlint::rules::{lint_source, rule_info, Diagnostic, RULES};
use simlint::{lint_workspace, load_config, workspace_root};
use std::path::Path;
use std::process::ExitCode;

/// How diagnostics are rendered.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Github,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!(
            "simlint — workspace determinism & invariant lints\n\n\
             usage: simlint [--list-rules] [--explain RULE] [--format=text|json|github] [FILE.rs ...]\n\n\
             With no files, lints every .rs file in the workspace using the\n\
             path-scoped rules and the simlint.toml allowlist. With explicit\n\
             files, every rule applies regardless of path (fixture mode);\n\
             inline `// simlint: allow(rule)` annotations are still honoured,\n\
             both per-line and on the first line of an item (whole-body).\n"
        );
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--list-rules") {
        for rule in RULES {
            println!("{:<30} {}", rule.id, compact(rule.description));
        }
        return ExitCode::SUCCESS;
    }
    if let Some(pos) = args.iter().position(|a| a == "--explain") {
        let Some(id) = args.get(pos + 1) else {
            eprintln!("simlint: --explain needs a rule id (see --list-rules)");
            return ExitCode::from(2);
        };
        let Some(rule) = rule_info(id) else {
            eprintln!("simlint: unknown rule `{id}` (see --list-rules)");
            return ExitCode::from(2);
        };
        println!("{}\n  {}\n", rule.id, compact(rule.description));
        println!("{}", wrap(rule.explanation, 78));
        return ExitCode::SUCCESS;
    }

    let mut format = Format::Text;
    let mut files = Vec::new();
    for arg in &args {
        if let Some(f) = arg.strip_prefix("--format=") {
            format = match f {
                "text" => Format::Text,
                "json" => Format::Json,
                "github" => Format::Github,
                other => {
                    eprintln!("simlint: unknown format `{other}` (text|json|github)");
                    return ExitCode::from(2);
                }
            };
        } else if arg.starts_with("--") {
            eprintln!("simlint: unknown flag {arg} (see --help)");
            return ExitCode::from(2);
        } else {
            files.push(arg.clone());
        }
    }

    let root = workspace_root();
    let (diagnostics, scanned) = if files.is_empty() {
        match lint_workspace(&root) {
            Ok(report) => (report.diagnostics, report.files_scanned),
            Err(e) => {
                eprintln!("simlint: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        let config = match load_config(&root) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("simlint: {e}");
                return ExitCode::from(2);
            }
        };
        let mut all = Vec::new();
        for file in &files {
            let source = match std::fs::read_to_string(file) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("simlint: {file}: {e}");
                    return ExitCode::from(2);
                }
            };
            // Explicit files are linted under every rule; only the file
            // name matters (for the crate-root/pool checks).
            let name = Path::new(file)
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| file.clone());
            all.extend(lint_source(&name, &source, &config, false));
        }
        (all, files.len())
    };

    match format {
        Format::Text => {
            for d in &diagnostics {
                println!("{d}");
            }
        }
        Format::Json => println!("{}", render_json(&diagnostics, scanned)),
        Format::Github => {
            for d in &diagnostics {
                // GitHub workflow commands strip at newlines; messages are
                // single-line already, but escape the command syntax.
                println!(
                    "::error file={},line={},title=simlint {}::{}",
                    d.path,
                    d.line,
                    d.rule,
                    gh_escape(&d.message)
                );
            }
        }
    }
    if diagnostics.is_empty() {
        eprintln!("simlint: {scanned} file(s) clean");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "simlint: {} violation(s) in {scanned} file(s); see DESIGN.md \
             § Determinism invariants for rules and allowlisting",
            diagnostics.len()
        );
        ExitCode::FAILURE
    }
}

/// Collapses the multi-line string literals in rule tables to one line.
fn compact(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Greedy word wrap for `--explain` output.
fn wrap(s: &str, width: usize) -> String {
    let mut out = String::new();
    let mut col = 0;
    for word in s.split_whitespace() {
        if col > 0 && col + 1 + word.len() > width {
            out.push('\n');
            col = 0;
        } else if col > 0 {
            out.push(' ');
            col += 1;
        }
        out.push_str(word);
        col += word.len();
    }
    out
}

/// Renders the diagnostics report as a JSON object (std-only, so the
/// escaping is hand-rolled; diagnostic text is ASCII by construction).
fn render_json(diagnostics: &[Diagnostic], scanned: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"violations\": {}, \"files_scanned\": {}, \"diagnostics\": [",
        diagnostics.len(),
        scanned
    ));
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"path\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
            json_string(&d.path),
            d.line,
            json_string(d.rule),
            json_string(&d.message)
        ));
    }
    out.push_str("]}");
    out
}

/// JSON string literal with the mandatory escapes.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Escapes GitHub workflow-command message data (`%`, CR, LF).
fn gh_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}
