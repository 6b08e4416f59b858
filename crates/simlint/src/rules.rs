//! The lint rules and the per-file diagnostic engine.
//!
//! Rules come in two layers:
//!
//! * **token layer** — scans the token stream of one file (via
//!   [`crate::lexer`]) for banned identifiers;
//! * **scope layer** — consults the structural view (via
//!   [`crate::scope`]) for facts the token stream alone cannot give:
//!   which `fn` a token is in, whether it is test-only code, whether it
//!   sits inside a closure handed to a `fan_out*` call.
//!
//! Diagnostics are `file:line: rule-id: message`. Rules are scoped by
//! workspace-relative path (see the `*_CRATES` tables) and individually
//! suppressible three ways:
//!
//! * `simlint.toml` — path-prefix allowlist, for module boundaries
//!   (e.g. the whole bench harness may read the wall clock);
//! * `// simlint: allow(rule-id) — reason` on the offending line or the
//!   line above it, for single sites;
//! * the same annotation on the first line of an item (its attributes
//!   included), which excuses the *whole item body* — for a function
//!   whose invariant justifies the construct throughout.

use crate::config::Config;
use crate::lexer::{lex, LexedFile, TokenKind};
use crate::scope::ScopeTree;

/// One reported violation.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// Stable rule id (the allowlist key).
    pub rule: &'static str,
    /// Human-readable explanation with the expected fix.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Rule id, one-line description, and the long-form rationale shown by
/// `--explain`.
pub struct RuleInfo {
    /// Stable id used in allowlists and diagnostics.
    pub id: &'static str,
    /// What the rule enforces and why (one line, for `--list-rules`).
    pub description: &'static str,
    /// The invariant behind the rule, what it catches, and how to
    /// satisfy or excuse it (multi-line, for `--explain`).
    pub explanation: &'static str,
}

/// Every rule simlint enforces.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "no-wall-clock",
        description: "Instant/SystemTime outside the walltime/bench modules: \
                      simulated results must never depend on the host clock",
        explanation: "Simulated time is the only clock simulation code may read: any \
                      host-clock influence makes runs irreproducible across machines and \
                      breaks the golden tests. Overhead *measurement* is the one sanctioned \
                      use, and it goes through adainf_simcore::walltime::WallTimer so the \
                      boundary is a single grep-able module. Fix: thread SimTime, or move \
                      the measurement behind WallTimer; benches (crates/bench/) are \
                      allowlisted wholesale in simlint.toml.",
    },
    RuleInfo {
        id: "no-ambient-rng",
        description: "ambient RNG construction (thread_rng, OsRng, RandomState, …): \
                      all randomness must be threaded from simcore::Prng seeds",
        explanation: "Every random draw must be a pure function of the run seed. Ambient \
                      generators (thread_rng, OsRng, hash RandomState) inject host entropy \
                      and destroy bit-reproducibility. Fix: accept a &mut Prng (or a Prng \
                      child via split) from the caller; the run seed enters once, in the \
                      binary that owns the run configuration.",
    },
    RuleInfo {
        id: "no-unordered-iteration",
        description: "HashMap/HashSet in deterministic crates: iteration order is \
                      nondeterministic; use BTreeMap/BTreeSet or a sorted Vec",
        explanation: "HashMap iteration order changes between processes (SipHash keys are \
                      randomized), so any fold/Vec-collect over one silently varies run to \
                      run. Deterministic crates use BTreeMap/BTreeSet or sorted Vecs \
                      instead. Point-lookup-only maps that are provably never iterated may \
                      be allowlisted at module granularity in simlint.toml.",
    },
    RuleInfo {
        id: "forbid-unsafe-everywhere",
        description: "every crate root (lib, bin, bench, example) must carry \
                      #![forbid(unsafe_code)]",
        explanation: "The determinism argument (parallel ≡ sequential bit-equality, \
                      OnceLock slot writes, golden tests) is machine-checked only under \
                      safe Rust: forbid(unsafe_code) turns the whole-workspace guarantee \
                      into a compiler obligation rather than a review convention. Every \
                      crate/target root must carry the attribute; there are no exceptions.",
    },
    RuleInfo {
        id: "no-unwrap-in-lib",
        description: "unwrap()/expect() in library code outside tests: return a \
                      Result, or annotate the site with its invariant",
        explanation: "A panicking extraction in library code turns a recoverable condition \
                      into an abort deep inside the simulation loop. Return Result/Option, \
                      restructure with let-else, or — when the invariant genuinely cannot \
                      fail — keep an expect() and annotate the line with the invariant \
                      (`// simlint: allow(no-unwrap-in-lib) — <why it cannot fail>`). \
                      Binaries (src/bin/) and #[cfg(test)] code are exempt.",
    },
    RuleInfo {
        id: "float-env-guard",
        description: "mul_add/powi/fma on simulation paths would break the \
                      documented -C target-cpu=native bit-safety argument",
        explanation: "The workspace builds with -C target-cpu=native and still promises \
                      bit-identical results across hosts. That argument (DESIGN.md) holds \
                      because simulation code sticks to IEEE-exact +,-,*,/,sqrt and never \
                      invites contraction: mul_add/fma codegen differs by target FMA \
                      support, and powi may lower through different polynomials. Fix: \
                      write the explicit mul-then-add or repeated multiplication.",
    },
    RuleInfo {
        id: "prng-stream-discipline",
        description: "Prng::new only at bin/test entry points; randomness inside \
                      fan_out* closures must come from stably-keyed Prng::split children",
        explanation: "One run seed enters the system once, at the binary or test that owns \
                      the run; everything below receives a Prng (or a split child) from its \
                      caller. A Prng::new inside library code creates a second root stream \
                      whose seed is invisible to the harness — cache hits stop being \
                      bit-identical to rebuilds the moment such a stream moves. Inside a \
                      fan_out* closure the bar is higher still: per-item randomness must \
                      come from Prng::split with a stable per-item key (e.g. \
                      STREAM ^ (period << 16) ^ node), so results do not depend on which \
                      worker claimed the item. Entry-point constructions that ARE the \
                      sanctioned seed boundary carry an inline allow naming that fact.",
    },
    RuleInfo {
        id: "no-adhoc-threading",
        description: "std::thread::spawn/scope only inside simcore/src/parallel.rs: \
                      all parallelism goes through the race-checked fan-out pool",
        explanation: "crates/simcore/src/parallel.rs is the single sanctioned home for \
                      thread spawning: its fan-outs write results into index-addressed \
                      OnceLock slots (parallel ≡ sequential bit-equality), carry the \
                      race-check claim ledger, and are exercised by the schedule-replay \
                      harness (fan_out_check). An ad-hoc thread::spawn elsewhere gets none \
                      of that. Fix: express the work as fan_out_indexed over an index \
                      space, or fan_out_indexed_owned over an owned job list.",
    },
    RuleInfo {
        id: "no-shared-sync-outside-pool",
        description: "Mutex/RwLock/Atomic*/RefCell in deterministic crates only in \
                      sanctioned modules: shared mutability breaks bit-equality",
        explanation: "Deterministic crates promise parallel ≡ sequential bit-equality, and \
                      that proof rests on results flowing only through index-addressed \
                      per-slot writes owned by simcore::parallel. A Mutex or atomic \
                      elsewhere introduces claim-order-dependent state the proof cannot \
                      see (the Vec<Mutex<Matrix>> carry handoff this rule retired is the \
                      canonical example). Fix: restructure onto owned jobs / per-slot \
                      writes (fan_out_indexed_owned), or keep state worker-local.",
    },
    RuleInfo {
        id: "hot-path-alloc",
        description: "allocating calls inside functions listed under [hot] in \
                      simlint.toml: hot paths must reuse their scratch buffers",
        explanation: "The [hot] table in simlint.toml names the functions the perf work \
                      made zero-alloc (GEMM kernels, PCA fits, drift artifact builds — the \
                      TrainScratch/DetectScratch discipline). Inside those functions, \
                      allocating calls (vec!, with_capacity, collect, to_vec, to_owned, \
                      to_string, zeros) are flagged so a refactor cannot quietly \
                      reintroduce per-call allocation. Fix: write into the caller-provided \
                      scratch; a genuinely one-off allocation carries an inline allow with \
                      its amortization argument.",
    },
    RuleInfo {
        id: "no-nondet-float-reduction",
        description: "float .sum()/.fold() with no structurally evident deterministic \
                      order: make the iteration order visible in the statement",
        explanation: "Float addition is non-associative, so a reduction is only \
                      reproducible if its iteration order is fixed. The rule asks for a \
                      *structural* witness of that order in the same statement: an \
                      explicit .iter()/.map()/.windows()/… chain from an ordered source. \
                      A bare it.sum() over an iterator handed in from elsewhere hides the \
                      order at the reduction site; either inline the ordered source or \
                      annotate the line with why the order is fixed (e.g. \"caller \
                      guarantees ascending index order\").",
    },
];

/// Looks up a rule by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Crates whose state must be iteration-order independent and free of
/// shared-mutability primitives (the deterministic core of the engine).
const DETERMINISTIC_CRATES: &[&str] = &[
    "crates/core/",
    "crates/gpusim/",
    "crates/driftgen/",
    "crates/simcore/",
    "crates/baselines/",
    "crates/apps/",
    "crates/modelzoo/",
];

/// Library crates whose `src/` (minus `src/bin/`) falls under
/// no-unwrap-in-lib, prng-stream-discipline and float-env-guard. The
/// root package's `src/` is handled separately.
const LIB_CRATES: &[&str] = &[
    "crates/core/",
    "crates/gpusim/",
    "crates/driftgen/",
    "crates/simcore/",
    "crates/baselines/",
    "crates/apps/",
    "crates/modelzoo/",
    "crates/nn/",
    "crates/harness/",
];

/// The one module allowed to spawn threads and hold sync primitives:
/// the race-checked fan-out pool.
const SANCTIONED_POOL: &str = "crates/simcore/src/parallel.rs";

/// Identifiers that read the host clock.
const WALL_CLOCK_IDENTS: &[&str] = &["Instant", "SystemTime", "UNIX_EPOCH", "Date"];

/// Identifiers that construct or reach ambient (unseeded) randomness.
const AMBIENT_RNG_IDENTS: &[&str] = &[
    "thread_rng",
    "ThreadRng",
    "OsRng",
    "from_entropy",
    "getrandom",
    "RandomState",
    "StdRng",
    "SmallRng",
    "rand",
];

/// Unordered-collection identifiers (including the std entry-API module
/// names, so `hash_map::Entry` cannot slip through).
const UNORDERED_IDENTS: &[&str] = &["HashMap", "HashSet", "hash_map", "hash_set"];

/// Float ops whose codegen (FMA contraction, libm polynomial choice)
/// may vary with the target environment.
const FLOAT_ENV_IDENTS: &[&str] = &["mul_add", "powi", "fma"];

/// Shared-mutability primitives banned outside the sanctioned pool.
const SYNC_IDENTS: &[&str] = &[
    "Mutex", "RwLock", "RefCell", "Condvar", "OnceLock", "OnceCell", "LazyLock", "LazyCell",
];

/// Thread-entry points behind `thread::`.
const THREADING_IDENTS: &[&str] = &["spawn", "scope", "Builder"];

/// Calls that allocate (the hot-path ban set).
const ALLOC_IDENTS: &[&str] = &[
    "with_capacity",
    "to_vec",
    "to_owned",
    "to_string",
    "collect",
    "zeros",
];

/// Float reductions whose order must be witnessed.
const REDUCTION_IDENTS: &[&str] = &["sum", "product", "fold"];

/// Idents that witness a structurally ordered source in the same
/// statement as a reduction.
const ORDER_WITNESS_IDENTS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "drain",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "enumerate",
    "zip",
    "rev",
    "windows",
    "chunks",
    "chunks_exact",
    "take",
    "skip",
    "step_by",
    "copied",
    "cloned",
    "scan",
    "chain",
    "once",
    "repeat",
    "successors",
    "rows",
    "row",
    "column",
    "data",
    "values",
    "keys",
    "chars",
    "bytes",
    "lines",
    "split",
];

/// Per-file lint context shared by every rule.
struct Ctx<'a> {
    path: &'a str,
    lexed: &'a LexedFile,
    tree: &'a ScopeTree,
    config: &'a Config,
    scoped: bool,
    out: Vec<Diagnostic>,
}

impl Ctx<'_> {
    /// Whether `rule` applies to this file at all: not allowlisted in
    /// simlint.toml, and (in scoped mode) within one of `prefixes`.
    fn in_scope(&self, rule: &'static str, prefixes: Option<&[&str]>) -> bool {
        if self.config.allowed(rule, self.path) {
            return false;
        }
        if !self.scoped {
            return true;
        }
        match prefixes {
            None => true,
            Some(p) => p.iter().any(|pre| self.path.starts_with(pre)),
        }
    }

    /// Whether the token at `idx` is excused for `rule` — by an inline
    /// annotation on its line (or the line above), or by an item-level
    /// annotation on any enclosing item.
    fn excused(&self, idx: usize, rule: &str) -> bool {
        self.lexed.allowed(self.lexed.tokens[idx].line, rule) || self.tree.item_allowed(idx, rule)
    }

    fn report(&mut self, idx: usize, rule: &'static str, message: String) {
        self.out.push(Diagnostic {
            path: self.path.to_string(),
            line: self.lexed.tokens[idx].line,
            rule,
            message,
        });
    }

    /// Reports any banned identifier, honouring allows and (optionally)
    /// test scopes and a required leading `.`.
    fn ban_idents(
        &mut self,
        rule: &'static str,
        banned: &[&str],
        require_dot: bool,
        skip_tests: bool,
        message: &str,
    ) {
        for i in 0..self.lexed.tokens.len() {
            let TokenKind::Ident(name) = &self.lexed.tokens[i].kind else {
                continue;
            };
            if !banned.iter().any(|b| b == name) {
                continue;
            }
            if require_dot && !self.prev_is(i, '.') {
                continue;
            }
            if skip_tests && self.tree.in_test(i) {
                continue;
            }
            if self.excused(i, rule) {
                continue;
            }
            let name = name.clone();
            self.report(i, rule, format!("`{name}`: {message}"));
        }
    }

    fn prev_is(&self, i: usize, p: char) -> bool {
        i.checked_sub(1)
            .is_some_and(|j| self.lexed.tokens[j].kind == TokenKind::Punct(p))
    }

    /// Whether tokens at `i..` spell `a::b`.
    fn is_path_call(&self, i: usize, a: &str, b: &str) -> bool {
        let t = &self.lexed.tokens;
        matches!(&t[i].kind, TokenKind::Ident(s) if s == a)
            && matches!(t.get(i + 1).map(|t| &t.kind), Some(TokenKind::Punct(':')))
            && matches!(t.get(i + 2).map(|t| &t.kind), Some(TokenKind::Punct(':')))
            && matches!(t.get(i + 3).map(|t| &t.kind), Some(TokenKind::Ident(s)) if s == b)
    }
}

/// Lints one file. `path` must be workspace-relative with `/`
/// separators. With `scoped = false` (fixture mode) every rule applies
/// regardless of path — except forbid-unsafe-everywhere, which still
/// only fires on crate-root-shaped file names, and no-adhoc-threading /
/// no-shared-sync-outside-pool, which still exempt the sanctioned pool
/// by file name.
pub fn lint_source(path: &str, source: &str, config: &Config, scoped: bool) -> Vec<Diagnostic> {
    let lexed = lex(source);
    let tree = ScopeTree::build(&lexed);
    let mut ctx = Ctx {
        path,
        lexed: &lexed,
        tree: &tree,
        config,
        scoped,
        out: Vec::new(),
    };

    if ctx.in_scope("no-wall-clock", None) {
        ctx.ban_idents(
            "no-wall-clock",
            WALL_CLOCK_IDENTS,
            false,
            false,
            "host wall-clock in simulation code; route timing through \
             adainf_simcore::walltime (overhead metrics) or move it into crates/bench",
        );
    }
    if ctx.in_scope("no-ambient-rng", None) {
        ctx.ban_idents(
            "no-ambient-rng",
            AMBIENT_RNG_IDENTS,
            false,
            false,
            "ambient randomness; construct adainf_simcore::Prng from a run seed \
             (Prng::new / Prng::split) instead",
        );
    }
    if ctx.in_scope("no-unordered-iteration", Some(DETERMINISTIC_CRATES)) {
        ctx.ban_idents(
            "no-unordered-iteration",
            UNORDERED_IDENTS,
            false,
            false,
            "unordered collection in a deterministic crate; use BTreeMap/BTreeSet \
             or a sorted Vec (point-lookup-only maps may be allowlisted)",
        );
    }
    if is_unwrap_scope(path, scoped) && ctx.in_scope("no-unwrap-in-lib", None) {
        ctx.ban_idents(
            "no-unwrap-in-lib",
            &["unwrap", "expect"],
            true,
            true,
            "panicking extraction in library code; return a Result, or keep an \
             `expect` and annotate the line with its invariant",
        );
    }
    if ctx.in_scope("float-env-guard", Some(LIB_OR_ROOT_SRC)) {
        ctx.ban_idents(
            "float-env-guard",
            FLOAT_ENV_IDENTS,
            false,
            false,
            "environment-sensitive float op; write explicit mul+add / repeated \
             multiplication so results stay bit-identical across targets",
        );
    }
    if is_crate_root(path) && ctx.in_scope("forbid-unsafe-everywhere", None) {
        check_forbid_unsafe(&mut ctx);
    }

    // ---- scope-aware rules ----
    if is_unwrap_scope(path, scoped) && ctx.in_scope("prng-stream-discipline", None) {
        check_prng_streams(&mut ctx);
    }
    if !is_sanctioned_pool(path) && ctx.in_scope("no-adhoc-threading", None) {
        check_adhoc_threading(&mut ctx);
    }
    if !is_sanctioned_pool(path)
        && ctx.in_scope("no-shared-sync-outside-pool", Some(DETERMINISTIC_CRATES))
    {
        check_shared_sync(&mut ctx);
    }
    if ctx.in_scope("hot-path-alloc", None) {
        check_hot_path_alloc(&mut ctx);
    }
    if ctx.in_scope("no-nondet-float-reduction", Some(LIB_OR_ROOT_SRC)) {
        check_float_reduction(&mut ctx);
    }

    let mut out = ctx.out;
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Path prefixes whose `src/` files count as library simulation code.
/// (Used via [`is_unwrap_scope`] for the src-only refinement; listed
/// here so the float guard can share the crate list plus root `src/`.)
const LIB_OR_ROOT_SRC: &[&str] = &[
    "crates/core/src/",
    "crates/gpusim/src/",
    "crates/driftgen/src/",
    "crates/simcore/src/",
    "crates/baselines/src/",
    "crates/apps/src/",
    "crates/modelzoo/src/",
    "crates/nn/src/",
    "crates/harness/src/",
    "src/",
];

/// no-unwrap-in-lib / prng-stream-discipline scope: library `src/`
/// files, excluding binary targets (`src/bin/`), which are applications
/// free to panic on startup errors and to construct root seeds.
fn is_unwrap_scope(path: &str, scoped: bool) -> bool {
    if !scoped {
        return true;
    }
    if path.contains("/bin/") {
        return false;
    }
    path.starts_with("src/")
        || LIB_CRATES
            .iter()
            .any(|c| path.starts_with(&format!("{c}src/")))
}

/// Whether `path` is the sanctioned threading/sync module. Fixture mode
/// hands bare file names through; `parallel.rs` keeps the exemption so
/// the real pool can be linted standalone.
fn is_sanctioned_pool(path: &str) -> bool {
    path == SANCTIONED_POOL || path == "parallel.rs"
}

/// Whether `path` is a crate/target root that must carry
/// `#![forbid(unsafe_code)]`: libs, bins, benches and examples.
/// (Integration-test roots are exempt: their code runs against
/// libraries that already forbid unsafe.)
fn is_crate_root(path: &str) -> bool {
    if path == "src/lib.rs" || path == "src/main.rs" {
        return true;
    }
    if let Some(rest) = path.strip_prefix("crates/") {
        if let Some((_, file)) = rest.split_once('/') {
            if file == "src/lib.rs" || file == "src/main.rs" {
                return true;
            }
            if let Some(bin) = file.strip_prefix("src/bin/") {
                return !bin.contains('/') && bin.ends_with(".rs");
            }
            if let Some(bench) = file.strip_prefix("benches/") {
                return !bench.contains('/') && bench.ends_with(".rs");
            }
            if let Some(ex) = file.strip_prefix("examples/") {
                return !ex.contains('/') && ex.ends_with(".rs");
            }
        }
        return false;
    }
    if let Some(ex) = path.strip_prefix("examples/") {
        return !ex.contains('/') && ex.ends_with(".rs");
    }
    // Fixture mode hands bare file names through `scoped = false`; the
    // caller names forbid-unsafe fixtures `lib.rs`/`main.rs`.
    path == "lib.rs" || path == "main.rs"
}

/// Verifies the file opens with `#![forbid(unsafe_code)]`.
fn check_forbid_unsafe(ctx: &mut Ctx<'_>) {
    let toks = &ctx.lexed.tokens;
    let found = toks.windows(8).any(|w| {
        matches!(
            (&w[0].kind, &w[1].kind, &w[2].kind, &w[3].kind, &w[4].kind, &w[5].kind, &w[6].kind, &w[7].kind),
            (
                TokenKind::Punct('#'),
                TokenKind::Punct('!'),
                TokenKind::Punct('['),
                TokenKind::Ident(a),
                TokenKind::Punct('('),
                TokenKind::Ident(b),
                TokenKind::Punct(')'),
                TokenKind::Punct(']'),
            ) if a == "forbid" && b == "unsafe_code"
        )
    });
    if !found && !ctx.lexed.allowed(1, "forbid-unsafe-everywhere") {
        ctx.out.push(Diagnostic {
            path: ctx.path.to_string(),
            line: 1,
            rule: "forbid-unsafe-everywhere",
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        });
    }
}

/// prng-stream-discipline: `Prng::new` is an entry-point construct. In
/// library code it is flagged outside tests; inside a `fan_out*`
/// closure it is flagged unconditionally — per-item randomness must be
/// a `Prng::split` child with a stable per-item key, or results depend
/// on worker claim order.
fn check_prng_streams(ctx: &mut Ctx<'_>) {
    for i in 0..ctx.lexed.tokens.len() {
        if !ctx.is_path_call(i, "Prng", "new") {
            continue;
        }
        let rule = "prng-stream-discipline";
        if ctx.excused(i, rule) {
            continue;
        }
        if ctx.tree.in_fan_out_closure(i) {
            ctx.report(
                i,
                rule,
                "`Prng::new` inside a fan_out* closure: per-item randomness must be a \
                 `Prng::split` child keyed by stable item identity (not worker or claim \
                 order), or parallel results diverge from the sequential loop"
                    .to_string(),
            );
        } else if !ctx.tree.in_test(i) {
            ctx.report(
                i,
                rule,
                "`Prng::new` in library code: root streams are constructed once at the \
                 bin/test entry point that owns the run seed; accept a Prng (or a \
                 `Prng::split` child) from the caller instead"
                    .to_string(),
            );
        }
    }
}

/// no-adhoc-threading: `thread::spawn` / `thread::scope` /
/// `thread::Builder` outside the sanctioned pool module.
fn check_adhoc_threading(ctx: &mut Ctx<'_>) {
    for i in 0..ctx.lexed.tokens.len() {
        let rule = "no-adhoc-threading";
        if !THREADING_IDENTS
            .iter()
            .any(|t| ctx.is_path_call(i, "thread", t))
        {
            continue;
        }
        if ctx.excused(i, rule) {
            continue;
        }
        ctx.report(
            i,
            rule,
            "ad-hoc thread creation; all parallelism goes through the race-checked \
             fan-outs in crates/simcore/src/parallel.rs (fan_out_indexed / \
             fan_out_indexed_owned)"
                .to_string(),
        );
    }
}

/// no-shared-sync-outside-pool: shared-mutability primitives in
/// deterministic crates, outside the sanctioned pool and tests.
fn check_shared_sync(ctx: &mut Ctx<'_>) {
    for i in 0..ctx.lexed.tokens.len() {
        let TokenKind::Ident(name) = &ctx.lexed.tokens[i].kind else {
            continue;
        };
        let banned = SYNC_IDENTS.iter().any(|b| b == name) || name.starts_with("Atomic");
        if !banned {
            continue;
        }
        let rule = "no-shared-sync-outside-pool";
        if ctx.tree.in_test(i) || ctx.excused(i, rule) {
            continue;
        }
        let name = name.clone();
        ctx.report(
            i,
            rule,
            format!(
                "`{name}`: shared-mutability primitive in a deterministic crate; \
                 restructure onto owned jobs / index-addressed per-slot writes \
                 (simcore::parallel), or keep the state worker-local"
            ),
        );
    }
}

/// hot-path-alloc: allocating calls inside `[hot]`-listed functions.
fn check_hot_path_alloc(ctx: &mut Ctx<'_>) {
    let Some(hot_fns) = ctx.config.hot_fns(ctx.path) else {
        return;
    };
    let hot_fns = hot_fns.to_vec();
    for i in 0..ctx.lexed.tokens.len() {
        let TokenKind::Ident(name) = &ctx.lexed.tokens[i].kind else {
            continue;
        };
        let is_vec_macro = name == "vec"
            && matches!(
                ctx.lexed.tokens.get(i + 1).map(|t| &t.kind),
                Some(TokenKind::Punct('!'))
            );
        if !is_vec_macro && !ALLOC_IDENTS.iter().any(|b| b == name) {
            continue;
        }
        let rule = "hot-path-alloc";
        let Some(fn_name) = ctx.tree.enclosing_fn(i) else {
            continue;
        };
        if !hot_fns.iter().any(|f| f == fn_name) {
            continue;
        }
        if ctx.tree.in_test(i) || ctx.excused(i, rule) {
            continue;
        }
        let name = if is_vec_macro {
            "vec!".to_string()
        } else {
            name.clone()
        };
        let fn_name = fn_name.to_string();
        ctx.report(
            i,
            rule,
            format!(
                "`{name}` allocates inside hot function `{fn_name}` (listed under \
                 [hot] in simlint.toml); write into the caller-provided scratch \
                 buffer instead"
            ),
        );
    }
}

/// no-nondet-float-reduction: `.sum()` / `.product()` / `.fold()` whose
/// statement shows no ordered-source witness.
fn check_float_reduction(ctx: &mut Ctx<'_>) {
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        let TokenKind::Ident(name) = &toks[i].kind else {
            continue;
        };
        if !REDUCTION_IDENTS.iter().any(|b| b == name) || !ctx.prev_is(i, '.') {
            continue;
        }
        if !is_call_position(toks, i) {
            continue; // field access like `s.sum`, not a reduction call
        }
        let rule = "no-nondet-float-reduction";
        if ctx.tree.in_test(i) || ctx.excused(i, rule) {
            continue;
        }
        // Walk back to the statement head (`;`, `{`, `}`) looking for a
        // structural witness of ordered iteration.
        let mut j = i;
        let mut witnessed = false;
        while j > 0 {
            j -= 1;
            match &toks[j].kind {
                TokenKind::Punct(';' | '{' | '}') => break,
                TokenKind::Ident(id) if ORDER_WITNESS_IDENTS.iter().any(|w| w == id) => {
                    witnessed = true;
                    break;
                }
                _ => {}
            }
        }
        if witnessed {
            continue;
        }
        let name = name.clone();
        ctx.report(
            i,
            rule,
            format!(
                "`.{name}()` with no ordered source in this statement; float reduction \
                 order must be structurally evident (an explicit .iter()/.map()/… chain) \
                 or the line annotated with why the order is fixed"
            ),
        );
    }
}

/// Whether the ident at `i` is immediately called: followed by `(`,
/// optionally through a `::<…>` turbofish.
fn is_call_position(toks: &[crate::lexer::Token], i: usize) -> bool {
    let mut j = i + 1;
    if matches!(toks.get(j).map(|t| &t.kind), Some(TokenKind::Punct(':')))
        && matches!(
            toks.get(j + 1).map(|t| &t.kind),
            Some(TokenKind::Punct(':'))
        )
        && matches!(
            toks.get(j + 2).map(|t| &t.kind),
            Some(TokenKind::Punct('<'))
        )
    {
        let mut depth = 0i64;
        j += 2;
        while let Some(t) = toks.get(j) {
            match t.kind {
                TokenKind::Punct('<') => depth += 1,
                TokenKind::Punct('>') => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    matches!(toks.get(j).map(|t| &t.kind), Some(TokenKind::Punct('(')))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Diagnostic> {
        lint_source(path, src, &Config::default(), true)
    }

    #[test]
    fn wall_clock_flagged_everywhere() {
        let d = lint("crates/harness/src/sim.rs", "use std::time::Instant;\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-wall-clock");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn unordered_scope_is_the_deterministic_crates() {
        let src = "use std::collections::HashMap;\n";
        assert!(lint("crates/gpusim/src/memory.rs", src)
            .iter()
            .any(|d| d.rule == "no-unordered-iteration"));
        // simlint itself may hash; nn is not in the scope either.
        assert!(lint("crates/simlint/src/rules.rs", src).is_empty());
    }

    #[test]
    fn unwrap_skips_cfg_test_and_bins() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   #[cfg(test)]\nmod tests {\n  fn g() { None::<u8>.unwrap(); }\n}\n";
        let d = lint("crates/core/src/plan.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 1);
        assert!(lint("crates/harness/src/bin/adainf-sim.rs", src)
            .iter()
            .all(|d| d.rule == "forbid-unsafe-everywhere"));
    }

    #[test]
    fn test_fn_attribute_also_exempts_unwrap() {
        let src = "#[test]\nfn unit() { None::<u8>.unwrap(); }\n";
        assert!(lint("crates/core/src/plan.rs", src).is_empty());
    }

    #[test]
    fn unwrap_requires_method_position() {
        // A local named `expect`, or `unwrap_or`, must not fire.
        let src = "pub fn f() { let expect = 1; let _ = Some(2).unwrap_or(expect); }\n";
        assert!(lint("crates/core/src/plan.rs", src).is_empty());
    }

    #[test]
    fn inline_allow_suppresses_with_reason() {
        let src = "pub fn f(x: Option<u8>) -> u8 {\n\
                   // simlint: allow(no-unwrap-in-lib) — caller checked is_some\n\
                   x.expect(\"checked\") }\n";
        assert!(lint("crates/core/src/plan.rs", src).is_empty());
    }

    #[test]
    fn item_level_allow_covers_the_whole_fn() {
        let src = "// simlint: allow(no-unwrap-in-lib) — table built in ctor, keys total\n\
                   pub fn f(x: Option<u8>, y: Option<u8>) -> u8 {\n\
                   x.unwrap() + y.unwrap()\n}\n\
                   pub fn g(z: Option<u8>) -> u8 { z.unwrap() }\n";
        let d = lint("crates/core/src/plan.rs", src);
        assert_eq!(d.len(), 1, "only g's unwrap fires: {d:?}");
        assert_eq!(d[0].line, 5);
    }

    #[test]
    fn forbid_unsafe_checks_crate_roots_only() {
        let missing = "pub fn f() {}\n";
        let present = "//! doc\n#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(lint("crates/core/src/lib.rs", missing)
            .iter()
            .any(|d| d.rule == "forbid-unsafe-everywhere"));
        assert!(lint("crates/core/src/lib.rs", present).is_empty());
        assert!(lint("crates/core/src/plan.rs", missing).is_empty());
        assert!(lint("crates/bench/src/bin/run_all.rs", missing).len() == 1);
        assert!(lint("examples/quickstart.rs", missing).len() == 1);
    }

    #[test]
    fn float_env_guard_fires_on_lib_src() {
        let src = "#![forbid(unsafe_code)]\npub fn f(a: f64) -> f64 { a.mul_add(2.0, 1.0) }\n";
        assert!(lint("crates/nn/src/lib.rs", src)
            .iter()
            .any(|d| d.rule == "float-env-guard"));
    }

    #[test]
    fn toml_allowlist_is_honoured() {
        let config =
            Config::parse("[allow]\nno-wall-clock = [\"crates/bench/\"]\n").expect("parses");
        let d = lint_source(
            "crates/bench/src/lib.rs",
            "#![forbid(unsafe_code)]\nuse std::time::Instant;\n",
            &config,
            true,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn ambient_rng_flagged() {
        let d = lint(
            "crates/driftgen/src/stream.rs",
            "let mut r = rand::thread_rng();\n",
        );
        assert!(d.iter().filter(|d| d.rule == "no-ambient-rng").count() >= 1);
    }

    #[test]
    fn prng_new_flagged_in_lib_but_not_tests_or_bins() {
        let src = "pub fn f() -> Prng { Prng::new(7) }\n\
                   #[cfg(test)]\nmod tests {\n  fn g() -> Prng { Prng::new(1) }\n}\n";
        let d = lint("crates/core/src/drift_artifacts.rs", src);
        assert_eq!(
            d.iter()
                .filter(|d| d.rule == "prng-stream-discipline")
                .count(),
            1,
            "{d:?}"
        );
        assert_eq!(d[0].line, 1);
        // Binaries own the run seed.
        assert!(lint("crates/harness/src/bin/calibration.rs", src)
            .iter()
            .all(|d| d.rule != "prng-stream-discipline"));
    }

    #[test]
    fn prng_new_inside_fan_out_closure_flagged_even_in_tests() {
        let src = "#[test]\nfn t() {\n  fan_out_indexed(4, 0, S::default, |i, s| {\n\
                   let mut r = Prng::new(i as u64);\n    r.next_u64()\n  });\n}\n";
        let d = lint("crates/core/src/drift_artifacts.rs", src);
        assert_eq!(
            d.iter()
                .filter(|d| d.rule == "prng-stream-discipline")
                .count(),
            1,
            "{d:?}"
        );
        // Split children with stable keys are the sanctioned pattern.
        let clean = "pub fn f(root: &Prng) {\n  fan_out_indexed(4, 0, S::default, |i, s| {\n\
                     let mut r = root.split(0xD21F ^ i as u64);\n    r.next_u64()\n  });\n}\n";
        assert!(lint("crates/core/src/drift_artifacts.rs", clean).is_empty());
    }

    #[test]
    fn adhoc_threading_flagged_outside_pool() {
        let src = "pub fn f() { std::thread::spawn(move || work()); }\n";
        let d = lint("crates/harness/src/sim.rs", src);
        assert_eq!(
            d.iter().filter(|d| d.rule == "no-adhoc-threading").count(),
            1,
            "{d:?}"
        );
        assert!(lint("crates/simcore/src/parallel.rs", src)
            .iter()
            .all(|d| d.rule != "no-adhoc-threading"));
    }

    #[test]
    fn shared_sync_flagged_in_deterministic_crates_only() {
        let src = "use std::sync::Mutex;\npub struct S { m: Mutex<u8> }\n";
        let d = lint("crates/core/src/drift_artifacts.rs", src);
        assert!(
            d.iter().any(|d| d.rule == "no-shared-sync-outside-pool"),
            "{d:?}"
        );
        // harness is not in the deterministic-crate scope; the pool is exempt.
        assert!(lint("crates/harness/src/sim.rs", src)
            .iter()
            .all(|d| d.rule != "no-shared-sync-outside-pool"));
        assert!(lint("crates/simcore/src/parallel.rs", src)
            .iter()
            .all(|d| d.rule != "no-shared-sync-outside-pool"));
    }

    #[test]
    fn atomics_in_tests_are_fine() {
        let src = "#[cfg(test)]\nmod tests {\n  use std::sync::atomic::AtomicUsize;\n}\n";
        assert!(lint("crates/core/src/drift_artifacts.rs", src).is_empty());
    }

    #[test]
    fn hot_path_alloc_uses_the_hot_table() {
        let config = Config::parse("[hot]\n\"crates/nn/src/matrix.rs\" = [\"matmul_into\"]\n")
            .expect("parses");
        let src = "pub fn matmul_into(out: &mut [f32], xs: &[f32]) {\n\
                   let tmp = xs.to_vec();\n  out[0] = tmp[0];\n}\n\
                   pub fn cold(xs: &[f32]) -> Vec<f32> { xs.to_vec() }\n";
        let d = lint_source("crates/nn/src/matrix.rs", src, &config, true);
        assert_eq!(
            d.iter().filter(|d| d.rule == "hot-path-alloc").count(),
            1,
            "only the hot fn fires: {d:?}"
        );
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn float_reduction_needs_a_witness() {
        let bad = "pub fn total(it: I) -> f64 { it.sum() }\n";
        let d = lint("crates/core/src/space.rs", bad);
        assert_eq!(
            d.iter()
                .filter(|d| d.rule == "no-nondet-float-reduction")
                .count(),
            1,
            "{d:?}"
        );
        let good = "pub fn total(xs: &[f64]) -> f64 { xs.iter().sum() }\n";
        assert!(lint("crates/core/src/space.rs", good).is_empty());
        let chained = "pub fn norm(v: &[f32]) -> f32 {\n\
                       let s: f32 = v.iter().map(|x| x * x).sum();\n  s\n}\n";
        assert!(lint("crates/core/src/space.rs", chained).is_empty());
        // `sum` as a field or free fn is not a reduction call.
        let field = "pub fn f(s: &Stats) -> f64 { s.sum }\n";
        assert!(lint("crates/core/src/space.rs", field).is_empty());
    }
}
