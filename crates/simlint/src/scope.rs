//! Structural scope layer over the lexical token stream.
//!
//! [`ScopeTree::build`] runs one forward pass over a [`LexedFile`] and
//! recovers just enough item structure for the scope-aware rules:
//!
//! * `fn` items with their names — so `[hot]`-listed functions can be
//!   checked for allocations, and `#[test]` functions skipped;
//! * `mod` items and any other `#[cfg(test)]`-attributed item — the
//!   scope-aware replacement for line-range test tracking;
//! * closures, each tagged with the name of the call they are an
//!   argument of — so "inside a `fan_out*` closure" is a structural
//!   fact, not a guess;
//! * item-level `// simlint: allow(rule)` annotations: an annotation on
//!   (or directly above) an item's first line excuses the rule for the
//!   *whole item body*, not just one line.
//!
//! The tracker is deliberately not a parser. It matches braces, walks
//! `fn`/`mod` headers to their bodies, and applies a closure-start
//! heuristic pinned by unit tests. Where Rust syntax is ambiguous at
//! the token level (`|` in or-patterns, `#[cfg(not(test))]`), it errs
//! toward *not* creating a scope / *not* marking test, so rules stay
//! conservative: a missed scope can cause a spurious diagnostic (fixed
//! with an inline allow), never a silently suppressed one.

use crate::lexer::{LexedFile, Token, TokenKind};

/// What kind of item a scope represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScopeKind {
    /// The whole file.
    Root,
    /// A `mod name { … }` item, or any non-fn `#[cfg(test)]` item.
    Module,
    /// A `fn` item (free or associated).
    Fn,
    /// A closure expression.
    Closure,
}

/// One scope: a token-index span plus the item facts rules query.
#[derive(Clone, Debug)]
pub struct Scope {
    /// What the scope is.
    pub kind: ScopeKind,
    /// `fn`/`mod` name; `None` for root, closures and attributed items.
    pub name: Option<String>,
    /// For closures: the name of the call this closure is an argument
    /// of (`fan_out_indexed(…, |i, s| …)` → `"fan_out_indexed"`).
    pub call: Option<String>,
    /// First token of the item (its attributes included).
    pub start_tok: usize,
    /// Last token of the item body (inclusive).
    pub end_tok: usize,
    /// Index of the enclosing scope (root points at itself).
    pub parent: usize,
    /// Whether this item is test-only (`#[cfg(test)]` / `#[test]`).
    pub test: bool,
    /// Rules excused for the whole item by an annotation on (or above)
    /// its first line.
    pub allows: Vec<String>,
}

/// The file's scopes in source (start-token) order; index 0 is root.
#[derive(Debug)]
pub struct ScopeTree {
    /// All scopes; nested scopes appear after their parents.
    pub scopes: Vec<Scope>,
}

impl ScopeTree {
    /// Builds the tree for a lexed file.
    pub fn build(lexed: &LexedFile) -> ScopeTree {
        Builder::new(lexed).run()
    }

    /// Index of the innermost scope containing token `tok`.
    pub fn innermost(&self, tok: usize) -> usize {
        let mut best = 0usize;
        for (idx, s) in self.scopes.iter().enumerate().skip(1) {
            if s.start_tok <= tok && tok <= s.end_tok && s.start_tok >= self.scopes[best].start_tok
            {
                best = idx;
            }
        }
        best
    }

    fn ancestors(&self, tok: usize) -> impl Iterator<Item = &Scope> {
        let mut idx = self.innermost(tok);
        let mut done = false;
        std::iter::from_fn(move || {
            if done {
                return None;
            }
            let scope = &self.scopes[idx];
            if idx == 0 {
                done = true;
            }
            idx = scope.parent;
            Some(scope)
        })
    }

    /// Whether `tok` sits inside test-only code.
    pub fn in_test(&self, tok: usize) -> bool {
        self.ancestors(tok).any(|s| s.test)
    }

    /// Whether `tok` sits inside a closure passed to a `fan_out*` call.
    pub fn in_fan_out_closure(&self, tok: usize) -> bool {
        self.ancestors(tok).any(|s| {
            s.kind == ScopeKind::Closure
                && s.call.as_deref().is_some_and(|c| c.starts_with("fan_out"))
        })
    }

    /// Name of the innermost enclosing `fn`, if any.
    pub fn enclosing_fn(&self, tok: usize) -> Option<&str> {
        self.ancestors(tok)
            .find(|s| s.kind == ScopeKind::Fn)
            .and_then(|s| s.name.as_deref())
    }

    /// Whether an enclosing item carries an item-level allow for `rule`.
    pub fn item_allowed(&self, tok: usize, rule: &str) -> bool {
        self.ancestors(tok)
            .any(|s| s.allows.iter().any(|r| r == rule))
    }
}

/// Single-pass builder state.
struct Builder<'a> {
    lexed: &'a LexedFile,
    scopes: Vec<Scope>,
    /// Open scopes (indices into `scopes`), innermost last.
    stack: Vec<usize>,
    /// `(call name, paren depth of its argument list)`, innermost last.
    calls: Vec<(String, i64)>,
    paren_depth: i64,
    /// `(first attr token, test flag)` of a pending attribute run.
    pending_attr: Option<(usize, bool)>,
}

/// Idents that look like calls but are control flow, never a closure's
/// call context.
const NOT_CALLS: &[&str] = &["if", "while", "match", "for", "return", "in"];

impl<'a> Builder<'a> {
    fn new(lexed: &'a LexedFile) -> Self {
        let end = lexed.tokens.len().saturating_sub(1);
        Builder {
            lexed,
            scopes: vec![Scope {
                kind: ScopeKind::Root,
                name: None,
                call: None,
                start_tok: 0,
                end_tok: end,
                parent: 0,
                test: false,
                allows: Vec::new(),
            }],
            stack: vec![0],
            calls: Vec::new(),
            paren_depth: 0,
            pending_attr: None,
        }
    }

    fn run(mut self) -> ScopeTree {
        let tokens = &self.lexed.tokens;
        let close_of = brace_matches(tokens);
        let mut i = 0usize;
        while i < tokens.len() {
            while self.stack.len() > 1 && self.scopes[*self.stack.last().unwrap_or(&0)].end_tok < i
            {
                self.stack.pop();
            }
            match &tokens[i].kind {
                TokenKind::Punct('#')
                    if matches!(
                        tokens.get(i + 1).map(|t| &t.kind),
                        Some(TokenKind::Punct('['))
                    ) =>
                {
                    let end = skip_attr(tokens, i);
                    let test = attr_marks_test(&tokens[i..end]);
                    self.pending_attr = match self.pending_attr.take() {
                        Some((start, t)) => Some((start, t || test)),
                        None => Some((i, test)),
                    };
                    i = end;
                }
                TokenKind::Punct('(') => {
                    self.paren_depth += 1;
                    if i > 0 {
                        if let TokenKind::Ident(name) = &tokens[i - 1].kind {
                            if !NOT_CALLS.contains(&name.as_str()) {
                                self.calls.push((name.clone(), self.paren_depth));
                            }
                        }
                    }
                    i += 1;
                }
                TokenKind::Punct(')') => {
                    if self
                        .calls
                        .last()
                        .is_some_and(|(_, d)| *d == self.paren_depth)
                    {
                        self.calls.pop();
                    }
                    self.paren_depth -= 1;
                    i += 1;
                }
                TokenKind::Ident(kw) if kw == "fn" => {
                    self.open_fn_or_mod(ScopeKind::Fn, i, &close_of);
                    i += 1;
                }
                TokenKind::Ident(kw) if kw == "mod" => {
                    self.open_fn_or_mod(ScopeKind::Module, i, &close_of);
                    i += 1;
                }
                TokenKind::Punct('|') if is_closure_start(tokens, i) => {
                    if let Some(end_tok) = closure_end(tokens, i, &close_of) {
                        let call = self.calls.last().map(|(n, _)| n.clone());
                        self.open(Scope {
                            kind: ScopeKind::Closure,
                            name: None,
                            call,
                            start_tok: i,
                            end_tok,
                            parent: *self.stack.last().unwrap_or(&0),
                            test: false,
                            allows: self.item_allows(tokens[i].line),
                        });
                    }
                    i += 1;
                }
                TokenKind::Ident(_) | TokenKind::Punct(_) => {
                    // Any other token consumes a pending attribute run.
                    // A `#[cfg(test)]` on a non-fn/mod item (impl block,
                    // use, const) still spans the whole item, mirroring
                    // the line-range tracker this layer replaces.
                    if let Some((start, test)) = self.pending_attr.take() {
                        if test {
                            let end = item_end(tokens, i, &close_of);
                            self.open(Scope {
                                kind: ScopeKind::Module,
                                name: None,
                                call: None,
                                start_tok: start,
                                end_tok: end,
                                parent: *self.stack.last().unwrap_or(&0),
                                test: true,
                                allows: self.item_allows(tokens[start].line),
                            });
                        }
                    }
                    i += 1;
                }
            }
        }
        self.scopes.sort_by_key(|s| s.start_tok);
        // Re-point parents after the sort: recompute by containment.
        let spans: Vec<(usize, usize)> = self
            .scopes
            .iter()
            .map(|s| (s.start_tok, s.end_tok))
            .collect();
        for idx in 1..self.scopes.len() {
            let (start, end) = spans[idx];
            let mut parent = 0usize;
            for (j, &(s, e)) in spans.iter().enumerate() {
                if j != idx && s <= start && end <= e && s >= spans[parent].0 {
                    parent = j;
                }
            }
            self.scopes[idx].parent = parent;
        }
        ScopeTree {
            scopes: self.scopes,
        }
    }

    /// Handles `fn name … { … }` / `mod name { … }` at keyword index `i`.
    fn open_fn_or_mod(&mut self, kind: ScopeKind, i: usize, close_of: &[usize]) {
        let tokens = &self.lexed.tokens;
        let (attr_start, test) = self.pending_attr.take().unwrap_or((i, false));
        let name = match tokens.get(i + 1).map(|t| &t.kind) {
            Some(TokenKind::Ident(n)) => Some(n.clone()),
            _ => None,
        };
        // Walk the header to the body `{` (or `;` — no body: trait
        // method signatures, file modules). Parens/brackets in the
        // signature are balanced, so a depth-0 `{` is the body.
        let mut depth = 0i64;
        let mut j = i + 1;
        let body = loop {
            match tokens.get(j).map(|t| &t.kind) {
                None => break None,
                Some(TokenKind::Punct('(' | '[')) => depth += 1,
                Some(TokenKind::Punct(')' | ']')) => depth -= 1,
                Some(TokenKind::Punct('{')) if depth == 0 => break Some(j),
                Some(TokenKind::Punct(';')) if depth == 0 => break None,
                _ => {}
            }
            j += 1;
        };
        let Some(open) = body else { return };
        let end_tok = close_of.get(open).copied().unwrap_or(tokens.len() - 1);
        let start_line = tokens[attr_start].line;
        self.open(Scope {
            kind,
            name,
            call: None,
            start_tok: attr_start,
            end_tok,
            parent: *self.stack.last().unwrap_or(&0),
            test,
            allows: self.item_allows(start_line),
        });
    }

    fn open(&mut self, scope: Scope) {
        let idx = self.scopes.len();
        self.scopes.push(scope);
        self.stack.push(idx);
    }

    /// Rules excused for an item starting on `start_line` by an
    /// annotation on that line or the line above.
    fn item_allows(&self, start_line: u32) -> Vec<String> {
        self.lexed
            .allows
            .iter()
            .filter(|(l, _)| *l == start_line || *l + 1 == start_line)
            .map(|(_, r)| r.clone())
            .collect()
    }
}

/// For every token index holding `{`, the index of its matching `}`
/// (or the last token when unbalanced). Non-`{` indices hold 0 and are
/// never read.
fn brace_matches(tokens: &[Token]) -> Vec<usize> {
    let mut out = vec![0usize; tokens.len()];
    let mut stack = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        match t.kind {
            TokenKind::Punct('{') => stack.push(i),
            TokenKind::Punct('}') => {
                if let Some(open) = stack.pop() {
                    out[open] = i;
                }
            }
            _ => {}
        }
    }
    let last = tokens.len().saturating_sub(1);
    for open in stack {
        out[open] = last;
    }
    out
}

/// Given `tokens[i] == '#'` starting an attribute, returns the index
/// just past the matching `]`.
pub(crate) fn skip_attr(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1; // at '['
    let mut depth = 0usize;
    while j < tokens.len() {
        match tokens[j].kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Whether an attribute's tokens mark a test item: `#[test]`,
/// `#[cfg(test)]`, `#[cfg(any(test, …))]` — but not `#[cfg(not(test))]`,
/// which is production-only code and must stay linted.
fn attr_marks_test(attr: &[Token]) -> bool {
    let has = |name: &str| {
        attr.iter()
            .any(|t| matches!(&t.kind, TokenKind::Ident(s) if s == name))
    };
    has("test") && !has("not")
}

/// Closure-start heuristic: a `|` opens a closure when the previous
/// token could not end an expression (so it cannot be bitwise/pattern
/// or). `a | b` has an ident/`)` before the bar; `(|x| …`, `, |x| …`,
/// `= |x| …`, `move |x| …` do not.
fn is_closure_start(tokens: &[Token], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).map(|j| &tokens[j].kind) else {
        return false;
    };
    match prev {
        TokenKind::Punct('(' | ',' | '=' | '{' | ';' | ':') => true,
        TokenKind::Ident(kw) => matches!(kw.as_str(), "move" | "return" | "else"),
        _ => false,
    }
}

/// Finds the last token of the closure starting at `|` index `i`:
/// locates the closing `|`, then spans a `{ … }` body via the brace
/// map, or an expression body to the first `,`/`;` at depth 0 or the
/// `)` closing the enclosing call. Returns `None` when the bar turns
/// out not to head a closure (e.g. an or-pattern that slipped past the
/// start heuristic).
fn closure_end(tokens: &[Token], i: usize, close_of: &[usize]) -> Option<usize> {
    // Closing bar: scan a bounded window; abort on statement
    // boundaries or an unbalanced `)` — those mean "not a closure".
    let mut depth = 0i64;
    let mut j = i + 1;
    let close_bar = loop {
        if j >= tokens.len() || j - i > 64 {
            return None;
        }
        match tokens[j].kind {
            TokenKind::Punct('(' | '[') => depth += 1,
            TokenKind::Punct(')' | ']') => {
                if depth == 0 {
                    return None;
                }
                depth -= 1;
            }
            TokenKind::Punct('{' | '}' | ';') => return None,
            TokenKind::Punct('|') if depth == 0 => break j,
            _ => {}
        }
        j += 1;
    };
    let body = close_bar + 1;
    match tokens.get(body).map(|t| &t.kind) {
        None => None,
        Some(TokenKind::Punct('{')) => Some(close_of.get(body).copied().unwrap_or(i)),
        _ => {
            // Expression body: ends before the first `,`/`;` at depth 0
            // or the `)` that closes the call the closure is inside.
            let mut depth = 0i64;
            let mut k = body;
            while k < tokens.len() {
                match tokens[k].kind {
                    TokenKind::Punct('(' | '[' | '{') => depth += 1,
                    TokenKind::Punct(')' | ']' | '}') => {
                        if depth == 0 {
                            return Some(k.saturating_sub(1).max(close_bar));
                        }
                        depth -= 1;
                    }
                    TokenKind::Punct(',' | ';') if depth == 0 => {
                        return Some(k.saturating_sub(1).max(close_bar));
                    }
                    _ => {}
                }
                k += 1;
            }
            Some(tokens.len() - 1)
        }
    }
}

/// Span of a generic attributed item starting at token `i`: to the
/// first `;` at depth 0, or the matching `}` of its first `{`.
fn item_end(tokens: &[Token], i: usize, close_of: &[usize]) -> usize {
    let mut j = i;
    while j < tokens.len() {
        match tokens[j].kind {
            TokenKind::Punct('{') => return close_of.get(j).copied().unwrap_or(j),
            TokenKind::Punct(';') => return j,
            _ => {}
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// Token index of the `n`th occurrence of ident `name`.
    fn ident_at(lexed: &LexedFile, name: &str, n: usize) -> usize {
        lexed
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(&t.kind, TokenKind::Ident(s) if s == name))
            .map(|(i, _)| i)
            .nth(n)
            .unwrap_or_else(|| panic!("ident {name} #{n} not found"))
    }

    #[test]
    fn fn_scopes_carry_names_and_nest() {
        let src = "fn outer() { fn inner() { marker(); } other(); }\n";
        let lexed = lex(src);
        let tree = ScopeTree::build(&lexed);
        let marker = ident_at(&lexed, "marker", 0);
        let other = ident_at(&lexed, "other", 0);
        assert_eq!(tree.enclosing_fn(marker), Some("inner"));
        assert_eq!(tree.enclosing_fn(other), Some("outer"));
    }

    #[test]
    fn cfg_test_mod_and_test_fn_are_test_scopes() {
        let src = "fn prod() { a(); }\n\
                   #[cfg(test)]\nmod tests {\n  fn helper() { b(); }\n}\n\
                   #[test]\nfn unit() { c(); }\n";
        let lexed = lex(src);
        let tree = ScopeTree::build(&lexed);
        assert!(!tree.in_test(ident_at(&lexed, "a", 0)));
        assert!(tree.in_test(ident_at(&lexed, "b", 0)));
        assert!(tree.in_test(ident_at(&lexed, "c", 0)));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_scope() {
        let src = "#[cfg(not(test))]\nfn prod() { a(); }\n";
        let lexed = lex(src);
        let tree = ScopeTree::build(&lexed);
        assert!(!tree.in_test(ident_at(&lexed, "a", 0)));
    }

    #[test]
    fn cfg_test_impl_block_spans_whole_item() {
        let src = "#[cfg(test)]\nimpl Foo {\n  fn helper(&self) { a(); }\n}\nfn prod() { b(); }\n";
        let lexed = lex(src);
        let tree = ScopeTree::build(&lexed);
        assert!(tree.in_test(ident_at(&lexed, "a", 0)));
        assert!(!tree.in_test(ident_at(&lexed, "b", 0)));
    }

    #[test]
    fn closures_know_their_call() {
        let src = "fn f() { fan_out_indexed(n, t, || s(), |i, st| body(i)); \
                   other(|x| elsewhere(x)); }\n";
        let lexed = lex(src);
        let tree = ScopeTree::build(&lexed);
        assert!(tree.in_fan_out_closure(ident_at(&lexed, "body", 0)));
        assert!(tree.in_fan_out_closure(ident_at(&lexed, "s", 0)));
        assert!(!tree.in_fan_out_closure(ident_at(&lexed, "elsewhere", 0)));
    }

    #[test]
    fn nested_call_inside_fan_out_closure_still_counts() {
        let src = "fn f() { fan_out(n, t, |i| items.map(|x| inner(x))); }\n";
        let lexed = lex(src);
        let tree = ScopeTree::build(&lexed);
        assert!(tree.in_fan_out_closure(ident_at(&lexed, "inner", 0)));
    }

    #[test]
    fn or_patterns_do_not_open_scopes() {
        // `Some(1 | 2)`: the bar's paren context closes before another
        // bar appears, so no closure scope is created.
        let src = "fn f(x: Option<u8>) { if matches!(x, Some(1 | 2)) { a(); } }\n";
        let lexed = lex(src);
        let tree = ScopeTree::build(&lexed);
        let a = ident_at(&lexed, "a", 0);
        assert_eq!(tree.enclosing_fn(a), Some("f"));
        assert!(tree.scopes.iter().all(|s| s.kind != ScopeKind::Closure));
    }

    #[test]
    fn expression_body_closure_ends_at_call_boundary() {
        let src = "fn f() { fan_out(n, |i| g(i), after()); }\n";
        let lexed = lex(src);
        let tree = ScopeTree::build(&lexed);
        assert!(tree.in_fan_out_closure(ident_at(&lexed, "g", 0)));
        assert!(!tree.in_fan_out_closure(ident_at(&lexed, "after", 0)));
    }

    #[test]
    fn item_level_allow_covers_the_whole_body() {
        let src = "// simlint: allow(demo-rule) — whole item excused\n\
                   fn f() {\n  line_one();\n  line_two();\n}\nfn g() { outside(); }\n";
        let lexed = lex(src);
        let tree = ScopeTree::build(&lexed);
        assert!(tree.item_allowed(ident_at(&lexed, "line_two", 0), "demo-rule"));
        assert!(!tree.item_allowed(ident_at(&lexed, "outside", 0), "demo-rule"));
    }

    #[test]
    fn trait_method_signatures_open_no_scope() {
        let src = "trait T { fn sig(&self) -> u8; }\nfn real() { a(); }\n";
        let lexed = lex(src);
        let tree = ScopeTree::build(&lexed);
        assert_eq!(tree.enclosing_fn(ident_at(&lexed, "a", 0)), Some("real"));
        // `sig` has no body, so no Fn scope carries its name.
        assert!(tree.scopes.iter().all(|s| s.name.as_deref() != Some("sig")));
    }
}
