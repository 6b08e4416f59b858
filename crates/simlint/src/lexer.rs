//! A minimal Rust lexer: just enough structure for lexical lint rules.
//!
//! The lexer strips comments, string/char literals and numbers, and
//! yields identifier and punctuation tokens tagged with their 1-based
//! source line. It also collects `// simlint: allow(rule, ...)`
//! annotations from line comments, which the rule engine honours for
//! the annotated line and the line that follows it (so an annotation
//! can sit on its own line above the construct it excuses).
//!
//! It is *not* a full lexer — float exponents, nested generics and the
//! like are irrelevant here — but it must never mis-track string or
//! comment boundaries, or every downstream rule would misfire. The
//! tricky cases (raw strings with `#` fences, lifetimes vs. char
//! literals, nested block comments) are handled explicitly and pinned
//! by unit tests.

/// One lexical token relevant to the lint rules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword.
    Ident(String),
    /// A single punctuation character (operators are not glued).
    Punct(char),
}

/// A token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Token {
    /// 1-based line the token starts on.
    pub line: u32,
    /// What the token is.
    pub kind: TokenKind,
}

/// Lexed view of one source file.
#[derive(Debug, Default)]
pub struct LexedFile {
    /// Token stream in source order.
    pub tokens: Vec<Token>,
    /// `(line, rule-id)` pairs from `// simlint: allow(...)` comments.
    pub allows: Vec<(u32, String)>,
}

impl LexedFile {
    /// Whether `rule` is allowed on `line` by an inline annotation
    /// (same line, or the immediately preceding line).
    pub fn allowed(&self, line: u32, rule: &str) -> bool {
        self.allows
            .iter()
            .any(|(l, r)| r == rule && (*l == line || *l + 1 == line))
    }
}

/// Lexes `source` into tokens + allow annotations.
pub fn lex(source: &str) -> LexedFile {
    let mut out = LexedFile::default();
    let bytes = source.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = bytes.len();

    while i < n {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'/' if i + 1 < n && bytes[i + 1] == b'/' => {
                let start = i;
                while i < n && bytes[i] != b'\n' {
                    i += 1;
                }
                record_allow(&source[start..i], line, &mut out.allows);
            }
            b'/' if i + 1 < n && bytes[i + 1] == b'*' => {
                // Block comment, nested per Rust rules.
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && i + 1 < n && bytes[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < n && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                i = skip_string(bytes, i, &mut line);
            }
            b'\'' => {
                i = skip_char_or_lifetime(bytes, i, &mut line);
            }
            _ if c == b'_' || c.is_ascii_alphabetic() => {
                let start = i;
                while i < n && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                let ident = &source[start..i];
                // Raw / byte string prefixes: `r"…"`, `r#"…"#`, `b"…"`,
                // `br#"…"#` — the quote belongs to the literal, not to
                // the identifier we just read.
                let next = bytes.get(i).copied();
                if matches!(ident, "r" | "b" | "br" | "rb")
                    && matches!(next, Some(b'"') | Some(b'#'))
                {
                    if let Some(end) = skip_raw_string(bytes, i, &mut line) {
                        i = end;
                        continue;
                    }
                }
                out.tokens.push(Token {
                    line,
                    kind: TokenKind::Ident(ident.to_string()),
                });
            }
            _ if c.is_ascii_digit() => {
                // Numbers (incl. 0x…, 1_000, 0.25): skip; a trailing
                // type suffix is consumed as part of the number. A `.`
                // is part of the number only when a digit follows, so
                // ranges (`0..4`) and method calls on literals
                // (`2.0.powi(3)`) keep their punctuation and idents.
                while i < n
                    && (bytes[i] == b'_'
                        || bytes[i].is_ascii_alphanumeric()
                        || (bytes[i] == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)))
                {
                    i += 1;
                }
            }
            _ => {
                if !c.is_ascii_whitespace() {
                    out.tokens.push(Token {
                        line,
                        kind: TokenKind::Punct(c as char),
                    });
                }
                i += 1;
            }
        }
    }
    out
}

/// Parses `// simlint: allow(rule-a, rule-b) — reason` comments.
fn record_allow(comment: &str, line: u32, allows: &mut Vec<(u32, String)>) {
    let Some(pos) = comment.find("simlint: allow(") else {
        return;
    };
    let rest = &comment[pos + "simlint: allow(".len()..];
    let Some(close) = rest.find(')') else { return };
    for rule in rest[..close].split(',') {
        let rule = rule.trim();
        if !rule.is_empty() {
            allows.push((line, rule.to_string()));
        }
    }
}

/// Skips a conventional `"…"` string starting at `i` (the opening
/// quote). Returns the index just past the closing quote.
fn skip_string(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips a raw/byte string whose fence starts at `i` (at the `#`s or
/// the quote). Returns `None` if this is not actually a raw string.
fn skip_raw_string(bytes: &[u8], mut i: usize, line: &mut u32) -> Option<usize> {
    let mut hashes = 0usize;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if bytes.get(i) != Some(&b'"') {
        return None;
    }
    i += 1;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            *line += 1;
            i += 1;
        } else if bytes[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while seen < hashes && bytes.get(j) == Some(&b'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return Some(j);
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    Some(i)
}

/// Skips either a char literal (`'a'`, `'\n'`) or a lifetime (`'a`).
fn skip_char_or_lifetime(bytes: &[u8], i: usize, line: &mut u32) -> usize {
    let n = bytes.len();
    // Escaped char literal: '\…'
    if bytes.get(i + 1) == Some(&b'\\') {
        let mut j = i + 2;
        while j < n && bytes[j] != b'\'' {
            j += 1;
        }
        return (j + 1).min(n);
    }
    // 'x' (single char, closing quote right after) — incl. '\n' handled
    // above; lifetimes ('a, 'static) have no closing quote.
    if let (Some(&c1), Some(&c2)) = (bytes.get(i + 1), bytes.get(i + 2)) {
        if c2 == b'\'' && c1 != b'\'' {
            if c1 == b'\n' {
                *line += 1;
            }
            return i + 3;
        }
    }
    // Lifetime: consume the quote; the label lexes as a normal ident,
    // which is harmless (lifetime labels never collide with rule ids).
    i + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_are_invisible() {
        let src = r##"
            // Instant in a comment
            /* HashMap /* nested */ still comment */
            let a = "Instant::now()";
            let b = r#"SystemTime "quoted" here"#;
            let c = 'x';
            let d: &'static str = "";
            real_ident(a);
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids
            .iter()
            .any(|s| s == "Instant" || s == "HashMap" || s == "SystemTime"));
    }

    #[test]
    fn lines_are_tracked_through_multiline_constructs() {
        let src = "let s = \"a\nb\";\nInstant";
        let lexed = lex(src);
        let tok = lexed
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::Ident("Instant".into()))
            .expect("Instant token");
        assert_eq!(tok.line, 3);
    }

    #[test]
    fn allow_annotations_are_collected() {
        let src = "// simlint: allow(no-unwrap-in-lib, no-wall-clock) — justified\nfoo();\nbar(); // simlint: allow(no-ambient-rng)\n";
        let lexed = lex(src);
        assert!(lexed.allowed(1, "no-unwrap-in-lib"));
        assert!(
            lexed.allowed(2, "no-wall-clock"),
            "annotation covers next line"
        );
        assert!(lexed.allowed(3, "no-ambient-rng"));
        assert!(!lexed.allowed(3, "no-unwrap-in-lib"));
    }

    #[test]
    fn char_literal_with_quote_escape() {
        let ids = idents(r"let q = '\''; let h = HashMap;");
        assert!(ids.contains(&"HashMap".to_string()));
    }

    #[test]
    fn numeric_literals_do_not_eat_method_calls() {
        // `1.0.to_bits()` and ranges must keep the idents visible.
        let ids = idents("let x = (0..4).map(f); let b = 1.0f64; 2.0.powi(2);");
        assert!(ids.contains(&"powi".to_string()), "method on float literal");
        assert!(ids.contains(&"map".to_string()));
    }
}
