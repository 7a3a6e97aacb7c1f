//! The rule set: each rule walks the token stream of one file and emits
//! raw violations (rule, line, message). Severity, pragma suppression and
//! reporting are the engine's job.

use crate::lexer::{Token, TokenKind};

/// Identity of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`
    /// in library code of the panic-sensitive crates.
    NoPanicPaths,
    /// `expr[...]` indexing in library code of the panic-sensitive
    /// crates — the indexing arm of the panic-path policy, separately
    /// severity-configurable because indexing is pervasive in numeric
    /// code and is burned down incrementally.
    VecIndex,
    /// Replay hazards: `HashMap`/`HashSet` in replay-sensitive crates,
    /// wall clocks (`Instant`/`SystemTime`) and `std::env` outside
    /// bench/tooling code, float→int `as` casts in seeded-hash paths.
    Determinism,
    /// Non-path dependencies in any `Cargo.toml`.
    Hermeticity,
    /// `==` / `!=` against float operands outside approved tolerance
    /// helpers.
    FloatCompare,
    /// `println!`/`eprintln!` in library code: diagnostics belong on the
    /// obs `Recorder`, stdout belongs to binaries, examples and tests.
    NoPrintlnInLib,
    /// Interprocedural: a panic site (`panic!`/`unwrap`/`expect`/
    /// indexing) transitively reachable from a configured entry point
    /// (fleet runner, solver, session runners) through the workspace
    /// call graph.
    PanicReachability,
    /// Interprocedural: an allocation (`Vec::new`/`push`/`Box::new`/
    /// `format!`/`to_string`/`clone`/...) reachable from the fleet
    /// session loop or the solver inner loop — the static twin of the counting
    /// allocator's per-session heap budget.
    HotPathAlloc,
    /// Interprocedural: a non-determinism source (wall clock, `std::env`,
    /// `HashMap`/`HashSet`) reachable from a replay-critical entry point,
    /// wherever in the workspace it lives.
    DeterminismTaint,
    /// A `lint:allow` pragma that is malformed, names an unknown rule, or
    /// carries no reason.
    BadPragma,
}

impl RuleId {
    /// Every rule, in reporting order.
    pub const ALL: [RuleId; 10] = [
        RuleId::NoPanicPaths,
        RuleId::VecIndex,
        RuleId::Determinism,
        RuleId::Hermeticity,
        RuleId::FloatCompare,
        RuleId::NoPrintlnInLib,
        RuleId::PanicReachability,
        RuleId::HotPathAlloc,
        RuleId::DeterminismTaint,
        RuleId::BadPragma,
    ];

    /// The rule's stable string id (used in pragmas, CLI flags and the
    /// JSON report).
    pub fn id(self) -> &'static str {
        match self {
            RuleId::NoPanicPaths => "no-panic-paths",
            RuleId::VecIndex => "vec-index",
            RuleId::Determinism => "determinism",
            RuleId::Hermeticity => "hermeticity",
            RuleId::FloatCompare => "float-compare",
            RuleId::NoPrintlnInLib => "no-println-in-lib",
            RuleId::PanicReachability => "panic-reachability",
            RuleId::HotPathAlloc => "hot-path-alloc",
            RuleId::DeterminismTaint => "determinism-taint",
            RuleId::BadPragma => "bad-pragma",
        }
    }

    /// Parses a string id back into a rule.
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.id() == s)
    }
}

/// How hard a rule bites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Rule disabled.
    Allow,
    /// Reported, does not fail the gate.
    Warn,
    /// Reported and fails the gate.
    Deny,
}

impl Severity {
    /// The severity's string form.
    pub fn id(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }

    /// Parses a severity name.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "allow" => Some(Severity::Allow),
            "warn" => Some(Severity::Warn),
            "deny" => Some(Severity::Deny),
            _ => None,
        }
    }
}

/// A rule hit before severity/pragma processing.
#[derive(Debug, Clone)]
pub struct RawViolation {
    /// Which rule fired.
    pub rule: RuleId,
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description of the hit.
    pub message: String,
}

/// Where a source file sits in the workspace, as far as rules care.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// The crate the file belongs to (`sim`, `support`, ... or `ee360`
    /// for the umbrella crate).
    pub crate_name: String,
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
}

/// Crates whose library code must not contain panic paths.
pub const PANIC_CRATES: [&str; 8] = [
    "sim", "abr", "core", "trace", "qoe", "power", "video", "obs",
];

/// Crates whose library code feeds replay-deterministic output and must
/// not use unordered collections.
pub const REPLAY_CRATES: [&str; 11] = [
    "sim", "abr", "core", "trace", "qoe", "power", "video", "cluster", "geom", "predict", "obs",
];

/// Path fragments exempt from the wall-clock / `std::env` ban: the
/// micro-benchmark timer, the property-test harness's env-driven config,
/// the bench crate, the lint tool itself, the obs profiling island (the
/// one sanctioned wall-clock module, opt-in and gated off replay paths),
/// and binary entry points (which legitimately read CLI args).
pub const CLOCK_ENV_EXEMPT: [&str; 5] = [
    "crates/bench/",
    "crates/lint/",
    "crates/support/src/bench.rs",
    "crates/obs/src/profile.rs",
    "/bin/",
];

/// Files forming the seeded-hash path, where float→int `as` casts are
/// banned (they silently change hashed values if an expression drifts
/// between float and int domains).
pub const SEEDED_HASH_FILES: [&str; 3] = [
    "crates/trace/src/fault.rs",
    "crates/support/src/rng.rs",
    "crates/support/src/quantile.rs",
];

const INT_TYPES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

const FLOAT_METHODS: [&str; 16] = [
    "ceil",
    "floor",
    "round",
    "trunc",
    "fract",
    "sqrt",
    "cbrt",
    "powi",
    "powf",
    "exp",
    "ln",
    "log2",
    "log10",
    "to_degrees",
    "to_radians",
    "hypot",
];

/// Keywords that can legally precede `[` without forming an index
/// expression (`return [..]`, `match [..]`, ...).
const NON_INDEX_KEYWORDS: [&str; 14] = [
    "return", "break", "in", "mut", "ref", "else", "match", "if", "while", "move", "static",
    "const", "let", "as",
];

/// True for files whose job is to talk to a terminal: binary entry
/// points (`src/bin/`, any `main.rs`). `println!` is legitimate there;
/// examples, tests and benches are already exempt at the engine level.
fn is_binary_entry(rel_path: &str) -> bool {
    rel_path.contains("/bin/") || rel_path.ends_with("main.rs")
}

/// Runs every token-level rule over one file.
pub fn scan_tokens(ctx: &FileContext, tokens: &[Token]) -> Vec<RawViolation> {
    let mut out = Vec::new();
    let panic_scope = PANIC_CRATES.contains(&ctx.crate_name.as_str());
    let replay_scope = REPLAY_CRATES.contains(&ctx.crate_name.as_str());
    let clock_exempt = CLOCK_ENV_EXEMPT.iter().any(|p| ctx.rel_path.contains(p));
    let seeded_hash = SEEDED_HASH_FILES.iter().any(|p| ctx.rel_path.ends_with(p));
    let print_scope = !is_binary_entry(&ctx.rel_path);

    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.in_test {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|j| tokens.get(j));
        let next = tokens.get(i + 1);

        if panic_scope {
            no_panic_paths(t, prev, next, &mut out);
            vec_index(t, prev, &mut out);
        }
        if replay_scope
            && t.kind == TokenKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
        {
            out.push(RawViolation {
                rule: RuleId::Determinism,
                line: t.line,
                message: format!(
                    "`{}` in replay-sensitive crate `{}`: unordered iteration can leak into \
                     serialized output; use BTreeMap/BTreeSet or a Vec",
                    t.text, ctx.crate_name
                ),
            });
        }
        if !clock_exempt {
            clock_and_env(t, prev, &mut out);
        }
        if seeded_hash {
            float_int_cast(tokens, i, &mut out);
        }
        float_compare(t, prev, next, &mut out);
        if print_scope {
            no_println_in_lib(t, next, &mut out);
        }
    }
    out
}

fn no_println_in_lib(t: &Token, next: Option<&Token>, out: &mut Vec<RawViolation>) {
    if t.kind != TokenKind::Ident || (t.text != "println" && t.text != "eprintln") {
        return;
    }
    if next.is_some_and(|n| n.text == "!") {
        out.push(RawViolation {
            rule: RuleId::NoPrintlnInLib,
            line: t.line,
            message: format!(
                "`{}!` in library code: route diagnostics through the obs `Recorder`, or \
                 annotate genuine CLI output with `// lint:allow(no-println-in-lib, \"reason\")`",
                t.text
            ),
        });
    }
}

fn no_panic_paths(
    t: &Token,
    prev: Option<&Token>,
    next: Option<&Token>,
    out: &mut Vec<RawViolation>,
) {
    if t.kind != TokenKind::Ident {
        return;
    }
    let is_method_call = |name: &str| {
        t.text == name && prev.is_some_and(|p| p.text == ".") && next.is_some_and(|n| n.text == "(")
    };
    if is_method_call("unwrap") || is_method_call("expect") {
        out.push(RawViolation {
            rule: RuleId::NoPanicPaths,
            line: t.line,
            message: format!(
                "`.{}()` in library code: return a Result / use a graceful fallback, or annotate \
                 with `// lint:allow(no-panic-paths, \"reason\")`",
                t.text
            ),
        });
        return;
    }
    let panic_macro = matches!(
        t.text.as_str(),
        "panic" | "unreachable" | "todo" | "unimplemented"
    ) && next.is_some_and(|n| n.text == "!");
    if panic_macro {
        out.push(RawViolation {
            rule: RuleId::NoPanicPaths,
            line: t.line,
            message: format!("`{}!` in library code", t.text),
        });
    }
}

fn vec_index(t: &Token, prev: Option<&Token>, out: &mut Vec<RawViolation>) {
    if t.text != "[" || t.kind != TokenKind::Punct {
        return;
    }
    let Some(p) = prev else { return };
    let indexes = match p.kind {
        TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&p.text.as_str()),
        TokenKind::Punct => p.text == ")" || p.text == "]",
        _ => false,
    };
    if indexes {
        out.push(RawViolation {
            rule: RuleId::VecIndex,
            line: t.line,
            message: format!(
                "`{}[...]` indexing in library code can panic; prefer `.get()`-based access",
                if p.kind == TokenKind::Ident {
                    p.text.as_str()
                } else {
                    "expr"
                }
            ),
        });
    }
}

fn clock_and_env(t: &Token, prev: Option<&Token>, out: &mut Vec<RawViolation>) {
    if t.kind != TokenKind::Ident {
        return;
    }
    if t.text == "Instant" || t.text == "SystemTime" {
        out.push(RawViolation {
            rule: RuleId::Determinism,
            line: t.line,
            message: format!(
                "wall clock `{}` outside bench/tooling code breaks replay determinism",
                t.text
            ),
        });
    }
    if t.text == "env" && prev.is_some_and(|p| p.text == "::") {
        out.push(RawViolation {
            rule: RuleId::Determinism,
            line: t.line,
            message: "`std::env` outside bench/tooling code: environment reads make output \
                      machine-dependent"
                .to_owned(),
        });
    }
}

/// Flags `<float expr> as <int>` in seeded-hash files. The float-ness of
/// the left operand is judged lexically: a float literal, an `f64`/`f32`
/// token, or a float-producing method call in the same statement window.
fn float_int_cast(tokens: &[Token], i: usize, out: &mut Vec<RawViolation>) {
    let t = &tokens[i];
    if t.text != "as" || t.kind != TokenKind::Ident {
        return;
    }
    let casts_to_int = tokens
        .get(i + 1)
        .is_some_and(|n| INT_TYPES.contains(&n.text.as_str()));
    if !casts_to_int {
        return;
    }
    // Look back through the statement (bounded window) for float signals.
    let mut j = i;
    let mut looked = 0usize;
    while j > 0 && looked < 24 {
        j -= 1;
        looked += 1;
        let b = &tokens[j];
        if matches!(b.text.as_str(), ";" | "{" | "}") {
            break;
        }
        let float_literal = b.kind == TokenKind::FloatLit;
        let float_type = b.kind == TokenKind::Ident && (b.text == "f64" || b.text == "f32");
        let float_method = b.kind == TokenKind::Ident
            && FLOAT_METHODS.contains(&b.text.as_str())
            && tokens.get(j + 1).is_some_and(|n| n.text == "(")
            && j > 0
            && tokens[j - 1].text == ".";
        if float_literal || float_type || float_method {
            out.push(RawViolation {
                rule: RuleId::Determinism,
                line: t.line,
                message: "float→int `as` cast in a seeded-hash path: keep hashed quantities in \
                          one numeric domain"
                    .to_owned(),
            });
            return;
        }
    }
}

fn float_compare(
    t: &Token,
    prev: Option<&Token>,
    next: Option<&Token>,
    out: &mut Vec<RawViolation>,
) {
    if t.kind != TokenKind::Punct || (t.text != "==" && t.text != "!=") {
        return;
    }
    let floaty = |tok: Option<&Token>| {
        tok.is_some_and(|x| {
            x.kind == TokenKind::FloatLit
                || (x.kind == TokenKind::Ident && (x.text == "f64" || x.text == "f32"))
        })
    };
    if floaty(prev) || floaty(next) {
        out.push(RawViolation {
            rule: RuleId::FloatCompare,
            line: t.line,
            message: format!(
                "`{}` against a float operand: use an inequality, a tolerance helper, or \
                 annotate an intentional exact comparison",
                t.text
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx(crate_name: &str, rel_path: &str) -> FileContext {
        FileContext {
            crate_name: crate_name.to_owned(),
            rel_path: rel_path.to_owned(),
        }
    }

    fn rules_fired(crate_name: &str, rel_path: &str, src: &str) -> Vec<RuleId> {
        scan_tokens(&ctx(crate_name, rel_path), &lex(src).tokens)
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    #[test]
    fn unwrap_fires_only_in_panic_crates() {
        let src = "fn f() { v.unwrap(); }";
        assert_eq!(
            rules_fired("sim", "crates/sim/src/x.rs", src),
            vec![RuleId::NoPanicPaths]
        );
        assert!(rules_fired("numeric", "crates/numeric/src/x.rs", src).is_empty());
    }

    #[test]
    fn panic_macros_fire() {
        let src = "fn f() { panic!(\"boom\"); unreachable!(); }";
        assert_eq!(
            rules_fired("trace", "crates/trace/src/x.rs", src),
            vec![RuleId::NoPanicPaths, RuleId::NoPanicPaths]
        );
    }

    #[test]
    fn indexing_fires_but_attributes_do_not() {
        let src = "#[derive(Debug)]\nfn f(v: &[u8]) -> u8 { v[0] }";
        assert_eq!(
            rules_fired("abr", "crates/abr/src/x.rs", src),
            vec![RuleId::VecIndex]
        );
    }

    #[test]
    fn hashmap_fires_in_replay_crates_only() {
        let src = "use std::collections::HashMap;";
        assert_eq!(
            rules_fired("core", "crates/core/src/x.rs", src),
            vec![RuleId::Determinism]
        );
        assert!(rules_fired("support", "crates/support/src/x.rs", src).is_empty());
    }

    #[test]
    fn clocks_and_env_fire_outside_exempt_paths() {
        let src = "fn f() { let t = Instant::now(); let v = std::env::var(\"X\"); }";
        let fired = rules_fired("qoe", "crates/qoe/src/x.rs", src);
        assert_eq!(fired, vec![RuleId::Determinism, RuleId::Determinism]);
        assert!(rules_fired("bench", "crates/bench/src/x.rs", src).is_empty());
        assert!(rules_fired("ee360", "src/bin/ee360.rs", src).is_empty());
    }

    #[test]
    fn float_int_cast_fires_in_seeded_hash_files_only() {
        let src = "fn f(h: f64) -> usize { h.ceil() as usize }";
        assert!(
            rules_fired("trace", "crates/trace/src/fault.rs", src).contains(&RuleId::Determinism)
        );
        assert!(!rules_fired("trace", "crates/trace/src/network.rs", src)
            .contains(&RuleId::Determinism));
        // Pure integer casts in the seeded-hash file are fine.
        let int_src = "fn f(x: u64) -> u32 { x as u32 }";
        assert!(rules_fired("trace", "crates/trace/src/fault.rs", int_src).is_empty());
    }

    #[test]
    fn quantile_sketch_is_on_the_seeded_hash_list() {
        // The robust-control path fits quantiles online; a float→int
        // cast there would silently skew every downstream margin.
        let src = "fn f(q: f64, n: usize) -> usize { (q * n as f64) as usize }";
        assert!(
            rules_fired("support", "crates/support/src/quantile.rs", src)
                .contains(&RuleId::Determinism)
        );
        // Other support files keep the ordinary (cast-permitting) rules.
        assert!(!rules_fired("support", "crates/support/src/bench.rs", src)
            .contains(&RuleId::Determinism));
    }

    #[test]
    fn float_compare_fires_on_literals_and_consts() {
        assert_eq!(
            rules_fired(
                "geom",
                "crates/geom/src/x.rs",
                "fn f(x: f64) -> bool { x == 0.0 }"
            ),
            vec![RuleId::FloatCompare]
        );
        assert_eq!(
            rules_fired(
                "geom",
                "crates/geom/src/x.rs",
                "fn f(x: f64) -> bool { x != f64::INFINITY }"
            ),
            vec![RuleId::FloatCompare]
        );
        assert!(rules_fired(
            "geom",
            "crates/geom/src/x.rs",
            "fn f(x: u32) -> bool { x == 0 }"
        )
        .is_empty());
    }

    #[test]
    fn println_fires_in_library_code_of_every_crate() {
        let src = "fn f() { println!(\"x\"); eprintln!(\"y\"); }";
        assert_eq!(
            rules_fired("support", "crates/support/src/x.rs", src),
            vec![RuleId::NoPrintlnInLib, RuleId::NoPrintlnInLib]
        );
        assert_eq!(
            rules_fired("viz", "crates/viz/src/x.rs", src),
            vec![RuleId::NoPrintlnInLib, RuleId::NoPrintlnInLib]
        );
    }

    #[test]
    fn println_is_allowed_in_binary_entry_points() {
        let src = "fn main() { println!(\"usage\"); }";
        assert!(rules_fired("ee360", "src/bin/ee360.rs", src).is_empty());
        assert!(rules_fired("lint", "crates/lint/src/bin/gate.rs", src).is_empty());
        assert!(rules_fired("ee360", "src/main.rs", src).is_empty());
    }

    #[test]
    fn println_ident_without_bang_does_not_fire() {
        let src = "fn f() { let println = 3; let _ = println; }";
        assert!(rules_fired("sim", "crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn obs_crate_is_held_to_panic_and_replay_scope() {
        let src = "fn f() { v.unwrap(); }";
        assert_eq!(
            rules_fired("obs", "crates/obs/src/x.rs", src),
            vec![RuleId::NoPanicPaths]
        );
        let hm = "use std::collections::HashMap;";
        assert_eq!(
            rules_fired("obs", "crates/obs/src/x.rs", hm),
            vec![RuleId::Determinism]
        );
        // The profiling island is the sanctioned wall-clock module.
        let clock = "fn f() { let t = Instant::now(); }";
        assert!(rules_fired("obs", "crates/obs/src/profile.rs", clock).is_empty());
        assert!(!rules_fired("obs", "crates/obs/src/record.rs", clock).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn t() { v.unwrap(); let m = HashMap::new(); } }";
        assert!(rules_fired("sim", "crates/sim/src/x.rs", src).is_empty());
    }
}
