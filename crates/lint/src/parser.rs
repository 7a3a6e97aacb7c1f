//! A lightweight recursive-descent item/expression parser over the
//! lexer's token stream.
//!
//! This is not a full Rust parser — it recovers exactly the structure
//! the interprocedural rules need: which functions exist (free
//! functions, inherent/trait methods, trait default methods), what each
//! body calls (path calls and method calls), which panic / allocation /
//! non-determinism *facts* each body contains, and the file's `use`
//! imports so in-workspace paths can be resolved. Everything else
//! (types, generics, expressions) is skipped structurally via
//! brace/paren/angle matching.
//!
//! Known limits (documented in `DESIGN.md` §13): method calls are
//! resolved later by name only, macro bodies are scanned as ordinary
//! expression tokens, and `#[cfg(...)]`-gated duplicate items all
//! contribute nodes.

use std::collections::BTreeMap;

use crate::lexer::{Token, TokenKind};
use crate::rules::CLOCK_ENV_EXEMPT;

/// What kind of hazard a fact represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FactKind {
    /// `panic!`-family macro, `.unwrap()` or `.expect(...)`.
    Panic,
    /// `expr[...]` indexing (the separately-tunable panic arm).
    Index,
    /// A heap allocation: constructor, allocating method or macro.
    Alloc,
    /// A non-determinism source: wall clock, `std::env`, `HashMap`/
    /// `HashSet`.
    Nondet,
}

/// One hazard site inside a function body.
#[derive(Debug, Clone)]
pub struct Fact {
    /// Hazard class.
    pub kind: FactKind,
    /// 1-based source line.
    pub line: usize,
    /// The offending construct, for messages (`.unwrap()`, `format!`,
    /// `HashMap`, ...).
    pub what: String,
}

/// The callee of a call expression, before resolution.
#[derive(Debug, Clone)]
pub enum CallTarget {
    /// `a::b::c(...)` or a bare `helper(...)` — path segments in source
    /// order (turbofish stripped).
    Path(Vec<String>),
    /// `recv.method(...)` — resolved later by name against workspace
    /// methods (crate-dependency filtered). `on_self` is true for a
    /// direct `self.method(...)` call, which binds to the surrounding
    /// impl type when it has such a method.
    Method {
        /// Method name.
        name: String,
        /// Receiver is literally `self` (not a field or chain).
        on_self: bool,
    },
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// What is being called.
    pub target: CallTarget,
    /// 1-based source line of the call (pragmas on this line cut the
    /// edge).
    pub line: usize,
}

/// One parsed function with a body.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// Fully qualified `crate::module::[Type::]name`.
    pub qname: String,
    /// The `impl`/`trait` type the function is a method of, if any.
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub decl_line: usize,
    /// `true` when the function lives under `#[cfg(test)]` / `#[test]`.
    pub in_test: bool,
    /// Every call expression in the body.
    pub calls: Vec<CallSite>,
    /// Every hazard fact in the body.
    pub facts: Vec<Fact>,
}

/// The parse result for one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Workspace-relative path.
    pub rel_path: String,
    /// Short crate name (`sim`, `support`, ... `ee360` for the root).
    pub crate_name: String,
    /// File-level module path (e.g. `["fleet"]` for
    /// `crates/sim/src/fleet.rs`).
    pub module_path: Vec<String>,
    /// `use` imports: local name → normalized absolute path segments.
    pub imports: BTreeMap<String, Vec<String>>,
    /// Every function with a body.
    pub fns: Vec<FnDef>,
}

/// Constructor types whose `new`-family associated functions allocate.
const ALLOC_TYPES: [&str; 7] = [
    "Vec",
    "Box",
    "String",
    "VecDeque",
    "BinaryHeap",
    "BTreeMap",
    "BTreeSet",
];

/// Associated functions on [`ALLOC_TYPES`] that allocate.
const ALLOC_CTORS: [&str; 3] = ["new", "with_capacity", "from"];

/// Methods that (may) allocate on their receiver.
const ALLOC_METHODS: [&str; 7] = [
    "push",
    "push_str",
    "to_string",
    "to_owned",
    "to_vec",
    "collect",
    "clone",
];

/// Macros that allocate.
const ALLOC_MACROS: [&str; 2] = ["format", "vec"];

/// Macros that panic.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Identifiers that cannot start a call-path expression.
const EXPR_KEYWORDS: [&str; 27] = [
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "in",
    "as", "mut", "ref", "move", "where", "unsafe", "async", "await", "dyn", "pub", "use", "mod",
    "impl", "trait", "fn", "type",
];

/// Keywords that can precede `[` without forming an index expression —
/// shared with the lexical `vec-index` rule.
const NON_INDEX_KEYWORDS: [&str; 14] = [
    "return", "break", "in", "mut", "ref", "else", "match", "if", "while", "move", "static",
    "const", "let", "as",
];

/// The short crate name a workspace-relative path belongs to.
pub fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("unknown").to_owned(),
        _ => "ee360".to_owned(),
    }
}

/// The file-level module path: components under `src/`, minus
/// `lib.rs`/`main.rs`/`mod.rs`.
fn module_path_of(rel_path: &str) -> Vec<String> {
    let after_src = match rel_path.find("src/") {
        Some(i) => &rel_path[i + 4..],
        None => rel_path,
    };
    let mut out = Vec::new();
    for comp in after_src.split('/') {
        let name = comp.strip_suffix(".rs").unwrap_or(comp);
        if comp.ends_with(".rs") && matches!(name, "lib" | "main" | "mod") {
            continue;
        }
        if !name.is_empty() {
            out.push(name.to_owned());
        }
    }
    out
}

/// Normalizes the head of a path: `ee360_support` → `support`, `crate`
/// → the current crate, `self`/`super` → the current module.
pub(crate) fn normalize_path(
    segs: &[String],
    crate_name: &str,
    module_path: &[String],
) -> Vec<String> {
    let Some(first) = segs.first() else {
        return Vec::new();
    };
    let mut out: Vec<String> = Vec::new();
    let rest_from;
    match first.as_str() {
        "crate" => {
            out.push(crate_name.to_owned());
            rest_from = 1;
        }
        "self" => {
            out.push(crate_name.to_owned());
            out.extend(module_path.iter().cloned());
            rest_from = 1;
        }
        "super" => {
            out.push(crate_name.to_owned());
            let mut mods = module_path.to_vec();
            let mut i = 0;
            while segs.get(i).is_some_and(|s| s == "super") {
                mods.pop();
                i += 1;
            }
            out.extend(mods);
            rest_from = i;
        }
        other => {
            if let Some(short) = other.strip_prefix("ee360_") {
                out.push(short.to_owned());
            } else {
                out.push(other.to_owned());
            }
            rest_from = 1;
        }
    }
    out.extend(segs.iter().skip(rest_from).cloned());
    out
}

/// Parses one lexed file into functions, calls, facts and imports.
pub fn parse_file(rel_path: &str, tokens: &[Token]) -> ParsedFile {
    let crate_name = crate_of(rel_path);
    let module_path = module_path_of(rel_path);
    let clock_exempt = CLOCK_ENV_EXEMPT.iter().any(|p| rel_path.contains(p));
    let mut p = Parser {
        tokens,
        crate_name: crate_name.clone(),
        module_path: module_path.clone(),
        clock_exempt,
        scopes: Vec::new(),
        depth: 0,
        out: ParsedFile {
            rel_path: rel_path.to_owned(),
            crate_name,
            module_path,
            imports: BTreeMap::new(),
            fns: Vec::new(),
        },
    };
    p.run();
    p.out
}

#[derive(Debug)]
enum ScopeKind {
    /// An inline `mod name { ... }`.
    Mod(String),
    /// An `impl`/`trait` block, carrying the self type when known.
    TypeBlock(Option<String>),
    /// A function body; the index into `out.fns`.
    Fn(usize),
}

struct Scope {
    kind: ScopeKind,
    /// Brace depth *inside* the scope (depth value right after its `{`).
    depth: usize,
}

struct Parser<'a> {
    tokens: &'a [Token],
    crate_name: String,
    module_path: Vec<String>,
    clock_exempt: bool,
    scopes: Vec<Scope>,
    depth: usize,
    out: ParsedFile,
}

impl<'a> Parser<'a> {
    fn text(&self, i: usize) -> &str {
        self.tokens.get(i).map_or("", |t| t.text.as_str())
    }

    fn is_ident(&self, i: usize) -> bool {
        self.tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Ident)
    }

    /// The innermost enclosing function, if any.
    fn current_fn(&self) -> Option<usize> {
        self.scopes.iter().rev().find_map(|s| match s.kind {
            ScopeKind::Fn(idx) => Some(idx),
            _ => None,
        })
    }

    /// The innermost enclosing type block's name (for `Self` and method
    /// qnames). Functions nested inside a method keep the type.
    fn current_self_ty(&self) -> Option<String> {
        self.scopes.iter().rev().find_map(|s| match &s.kind {
            ScopeKind::TypeBlock(name) => Some(name.clone()?),
            _ => None,
        })
    }

    /// The inline-module path (file modules + `mod` scopes).
    fn current_mods(&self) -> Vec<String> {
        let mut mods = self.module_path.clone();
        for s in &self.scopes {
            if let ScopeKind::Mod(name) = &s.kind {
                mods.push(name.clone());
            }
        }
        mods
    }

    fn run(&mut self) {
        let mut i = 0usize;
        while i < self.tokens.len() {
            let t = &self.tokens[i];
            match (t.kind, t.text.as_str()) {
                // Skip `#[...]` / `#![...]` attribute groups entirely so
                // `#[cfg(test)]` never looks like a call to `cfg`.
                (TokenKind::Punct, "#") => {
                    let mut j = i + 1;
                    if self.text(j) == "!" {
                        j += 1;
                    }
                    if self.text(j) == "[" {
                        let mut d = 0usize;
                        while j < self.tokens.len() {
                            match self.text(j) {
                                "[" => d += 1,
                                "]" => {
                                    d -= 1;
                                    if d == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            j += 1;
                        }
                        i = j + 1;
                    } else {
                        i += 1;
                    }
                }
                (TokenKind::Ident, "use") => i = self.parse_use(i),
                (TokenKind::Ident, "mod") if self.is_ident(i + 1) => {
                    let name = self.text(i + 1).to_owned();
                    let mut j = i + 2;
                    while j < self.tokens.len() && self.text(j) != "{" && self.text(j) != ";" {
                        j += 1;
                    }
                    if self.text(j) == "{" {
                        self.depth += 1;
                        self.scopes.push(Scope {
                            kind: ScopeKind::Mod(name),
                            depth: self.depth,
                        });
                    }
                    i = j + 1;
                }
                (TokenKind::Ident, "impl") => i = self.parse_impl_header(i),
                (TokenKind::Ident, "trait") if self.is_ident(i + 1) => {
                    let name = self.text(i + 1).to_owned();
                    let mut j = i + 2;
                    while j < self.tokens.len() && self.text(j) != "{" && self.text(j) != ";" {
                        j += 1;
                    }
                    if self.text(j) == "{" {
                        self.depth += 1;
                        self.scopes.push(Scope {
                            kind: ScopeKind::TypeBlock(Some(name)),
                            depth: self.depth,
                        });
                    }
                    i = j + 1;
                }
                (TokenKind::Ident, "fn") if self.is_ident(i + 1) => i = self.parse_fn(i),
                (TokenKind::Punct, "{") => {
                    self.depth += 1;
                    i += 1;
                }
                (TokenKind::Punct, "}") => {
                    self.depth = self.depth.saturating_sub(1);
                    while self.scopes.last().is_some_and(|s| s.depth > self.depth) {
                        self.scopes.pop();
                    }
                    i += 1;
                }
                _ => {
                    if self.current_fn().is_some() {
                        i = self.parse_expr_token(i);
                    } else {
                        i += 1;
                    }
                }
            }
        }
    }

    /// Parses `use path::{a, b as c, self};` into the import map.
    fn parse_use(&mut self, start: usize) -> usize {
        let mut i = start + 1;
        let mut prefix: Vec<String> = Vec::new();
        let end = self.parse_use_tree(&mut i, &mut prefix);
        // Consume to the terminating `;` (defensive).
        let mut j = end;
        while j < self.tokens.len() && self.text(j) != ";" {
            j += 1;
        }
        j + 1
    }

    /// Recursively parses one use-tree rooted at `i` with `prefix`
    /// already consumed. Returns the index just past the tree.
    fn parse_use_tree(&mut self, i: &mut usize, prefix: &mut Vec<String>) -> usize {
        let base_len = prefix.len();
        loop {
            let text = self.text(*i);
            if text == "{" {
                *i += 1;
                loop {
                    if self.text(*i) == "}" {
                        *i += 1;
                        break;
                    }
                    let mut sub = prefix.clone();
                    self.parse_use_tree(i, &mut sub);
                    if self.text(*i) == "," {
                        *i += 1;
                    } else if self.text(*i) == "}" {
                        *i += 1;
                        break;
                    } else if *i >= self.tokens.len() {
                        break;
                    }
                }
                prefix.truncate(base_len);
                return *i;
            }
            if text == "*" {
                // Glob import: nothing nameable to record.
                *i += 1;
                prefix.truncate(base_len);
                return *i;
            }
            if self.is_ident(*i) {
                let seg = text.to_owned();
                if seg == "as" {
                    // `path as Alias`
                    if self.is_ident(*i + 1) {
                        let alias = self.text(*i + 1).to_owned();
                        self.record_import(alias, prefix.clone());
                        *i += 2;
                    } else {
                        *i += 1;
                    }
                    prefix.truncate(base_len);
                    return *i;
                }
                if seg == "self" && !prefix.is_empty() {
                    // `use a::b::{self}` — binds `b`.
                    let name = prefix.last().cloned().unwrap_or_default();
                    self.record_import(name, prefix.clone());
                    *i += 1;
                    prefix.truncate(base_len);
                    return *i;
                }
                prefix.push(seg);
                *i += 1;
                if self.text(*i) == "::" {
                    *i += 1;
                    continue;
                }
                if self.text(*i) == "as" {
                    continue;
                }
                // End of a simple path: bind the final segment.
                let name = prefix.last().cloned().unwrap_or_default();
                self.record_import(name, prefix.clone());
                prefix.truncate(base_len);
                return *i;
            }
            // Anything unexpected (`;`, `,`, `}`) ends the tree.
            prefix.truncate(base_len);
            return *i;
        }
    }

    fn record_import(&mut self, name: String, path: Vec<String>) {
        if name.is_empty() || path.is_empty() {
            return;
        }
        let mods = self.current_mods();
        let normalized = normalize_path(&path, &self.crate_name, &mods);
        self.out.imports.insert(name, normalized);
    }

    /// Parses `impl<...> [Trait for] Type { ... }` up to its `{`.
    fn parse_impl_header(&mut self, start: usize) -> usize {
        let mut i = start + 1;
        // Skip the generic parameter list, angle-aware (`>>` closes two).
        if self.text(i) == "<" {
            let mut d = 0i32;
            while i < self.tokens.len() {
                match self.text(i) {
                    "<" | "<<" => d += if self.text(i) == "<<" { 2 } else { 1 },
                    ">" => d -= 1,
                    ">>" => d -= 2,
                    _ => {}
                }
                i += 1;
                if d <= 0 {
                    break;
                }
            }
        }
        // Collect header tokens to `{` (angle-aware so `Foo<Bar<T>>`
        // generics never hide the body brace — braces can't occur here).
        let header_start = i;
        let mut for_pos: Option<usize> = None;
        let mut d = 0i32;
        while i < self.tokens.len() && self.text(i) != "{" && self.text(i) != ";" {
            match self.text(i) {
                "<" => d += 1,
                "<<" => d += 2,
                ">" => d -= 1,
                ">>" => d -= 2,
                "for" if d == 0 => for_pos = Some(i),
                "where" if d == 0 => break,
                _ => {}
            }
            i += 1;
        }
        // The self type is the path after `for` (trait impls) or the
        // whole header (inherent impls): its last ident before `<`.
        let ty_region_start = for_pos.map_or(header_start, |p| p + 1);
        let mut ty: Option<String> = None;
        let mut ad = 0i32;
        for j in ty_region_start..i {
            match self.text(j) {
                "<" => ad += 1,
                "<<" => ad += 2,
                ">" => ad -= 1,
                ">>" => ad -= 2,
                _ => {
                    if ad == 0 && self.is_ident(j) && self.text(j) != "where" {
                        ty = Some(self.text(j).to_owned());
                    }
                }
            }
        }
        // Advance to the body `{` (past any where clause).
        while i < self.tokens.len() && self.text(i) != "{" && self.text(i) != ";" {
            i += 1;
        }
        if self.text(i) == "{" {
            self.depth += 1;
            self.scopes.push(Scope {
                kind: ScopeKind::TypeBlock(ty),
                depth: self.depth,
            });
        }
        i + 1
    }

    /// Parses `fn name(...) -> T { ... }`, registering a [`FnDef`] when
    /// a body follows (bodyless trait-method declarations are skipped).
    fn parse_fn(&mut self, start: usize) -> usize {
        let name = self.text(start + 1).to_owned();
        let decl_line = self.tokens[start].line;
        let in_test = self.tokens[start].in_test;
        // Skip to the parameter list's `(`, then past its matching `)`.
        let mut i = start + 2;
        while i < self.tokens.len() && self.text(i) != "(" {
            if self.text(i) == "{" || self.text(i) == ";" {
                return i; // malformed; let the main loop handle it
            }
            i += 1;
        }
        let mut pd = 0usize;
        while i < self.tokens.len() {
            match self.text(i) {
                "(" => pd += 1,
                ")" => {
                    pd -= 1;
                    if pd == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        // Return type / where clause: scan to the body `{` or a `;`,
        // skipping nested parens (`impl Fn(A) -> B`).
        pd = 0;
        while i < self.tokens.len() {
            match self.text(i) {
                "(" => pd += 1,
                ")" => pd = pd.saturating_sub(1),
                "{" if pd == 0 => break,
                ";" if pd == 0 => return i + 1,
                _ => {}
            }
            i += 1;
        }
        if i >= self.tokens.len() {
            return i;
        }
        // Body found: register the definition and enter its scope.
        let self_ty = self.current_self_ty();
        let mut q = vec![self.crate_name.clone()];
        q.extend(self.current_mods());
        if let Some(ty) = &self_ty {
            q.push(ty.clone());
        }
        q.push(name.clone());
        let idx = self.out.fns.len();
        self.out.fns.push(FnDef {
            name,
            qname: q.join("::"),
            self_ty,
            decl_line,
            in_test,
            calls: Vec::new(),
            facts: Vec::new(),
        });
        self.depth += 1;
        self.scopes.push(Scope {
            kind: ScopeKind::Fn(idx),
            depth: self.depth,
        });
        i + 1
    }

    /// Handles one token inside a function body: collects calls and
    /// facts. Returns the next index to process.
    fn parse_expr_token(&mut self, i: usize) -> usize {
        let Some(fn_idx) = self.current_fn() else {
            return i + 1;
        };
        let t = &self.tokens[i];
        let prev = i.checked_sub(1).map(|j| &self.tokens[j]);
        let line = t.line;

        // `expr[...]` indexing.
        if t.kind == TokenKind::Punct && t.text == "[" {
            if let Some(p) = prev {
                let indexes = match p.kind {
                    TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&p.text.as_str()),
                    TokenKind::Punct => p.text == ")" || p.text == "]",
                    _ => false,
                };
                if indexes {
                    self.out.fns[fn_idx].facts.push(Fact {
                        kind: FactKind::Index,
                        line,
                        what: format!(
                            "`{}[...]` indexing",
                            if p.kind == TokenKind::Ident {
                                p.text.as_str()
                            } else {
                                "expr"
                            }
                        ),
                    });
                }
            }
            return i + 1;
        }

        if t.kind != TokenKind::Ident {
            return i + 1;
        }

        // `recv.method(...)`.
        let prev_is = |s: &str| prev.is_some_and(|p| p.text == s);
        if prev_is(".") {
            if self.text(i + 1) == "(" || (self.text(i + 1) == "::" && self.text(i + 2) == "<") {
                let name = t.text.clone();
                if name == "unwrap" || name == "expect" {
                    self.out.fns[fn_idx].facts.push(Fact {
                        kind: FactKind::Panic,
                        line,
                        what: format!(".{name}()"),
                    });
                } else if ALLOC_METHODS.contains(&name.as_str()) {
                    self.out.fns[fn_idx].facts.push(Fact {
                        kind: FactKind::Alloc,
                        line,
                        what: format!(".{name}()"),
                    });
                }
                let on_self = i >= 2
                    && self.tokens[i - 2].kind == TokenKind::Ident
                    && self.tokens[i - 2].text == "self";
                // Hazard-named methods (`unwrap`, `expect`, `push`, ...)
                // are overwhelmingly std calls and are already recorded
                // as facts at this call site, so they only become call
                // edges when the receiver is literally `self` — where
                // the impl-type binding resolves them precisely.
                let std_shadowed = !on_self
                    && (name == "unwrap"
                        || name == "expect"
                        || ALLOC_METHODS.contains(&name.as_str()));
                if !std_shadowed {
                    self.out.fns[fn_idx].calls.push(CallSite {
                        target: CallTarget::Method { name, on_self },
                        line,
                    });
                }
            }
            return i + 1;
        }

        // Path expressions: `a::b::c`, possibly a call or macro.
        if prev_is("::") || EXPR_KEYWORDS.contains(&t.text.as_str()) {
            return i + 1;
        }
        let mut segs: Vec<String> = vec![t.text.clone()];
        let mut j = i + 1;
        loop {
            if self.text(j) == "::" {
                if self.is_ident(j + 1) {
                    segs.push(self.text(j + 1).to_owned());
                    j += 2;
                    continue;
                }
                if self.text(j + 1) == "<" {
                    // Turbofish: skip the angle group, then continue the
                    // path if another `::` follows.
                    let mut d = 0i32;
                    let mut k = j + 1;
                    while k < self.tokens.len() {
                        match self.text(k) {
                            "<" => d += 1,
                            "<<" => d += 2,
                            ">" => d -= 1,
                            ">>" => d -= 2,
                            _ => {}
                        }
                        k += 1;
                        if d <= 0 {
                            break;
                        }
                    }
                    j = k;
                    if self.text(j) == "::" {
                        continue;
                    }
                }
            }
            break;
        }
        // `Self` names the innermost impl/trait type.
        if segs.first().is_some_and(|s| s == "Self") {
            if let Some(ty) = self.current_self_ty() {
                segs[0] = ty;
            }
        }

        // Non-determinism idents anywhere in the path.
        for s in &segs {
            let is_clock = s == "Instant" || s == "SystemTime";
            let is_hash = s == "HashMap" || s == "HashSet";
            let is_env = s == "env" && segs.first().is_some_and(|f| f == "std");
            if (is_clock || is_env) && !self.clock_exempt {
                self.out.fns[fn_idx].facts.push(Fact {
                    kind: FactKind::Nondet,
                    line,
                    what: if is_env {
                        "`std::env`".to_owned()
                    } else {
                        format!("wall clock `{s}`")
                    },
                });
            } else if is_hash {
                self.out.fns[fn_idx].facts.push(Fact {
                    kind: FactKind::Nondet,
                    line,
                    what: format!("unordered `{s}` iteration"),
                });
            }
        }

        if self.text(j) == "!" {
            // Macro invocation.
            let name = segs.last().cloned().unwrap_or_default();
            if PANIC_MACROS.contains(&name.as_str()) {
                self.out.fns[fn_idx].facts.push(Fact {
                    kind: FactKind::Panic,
                    line,
                    what: format!("{name}!"),
                });
            } else if ALLOC_MACROS.contains(&name.as_str()) {
                self.out.fns[fn_idx].facts.push(Fact {
                    kind: FactKind::Alloc,
                    line,
                    what: format!("{name}!"),
                });
            }
            return j + 1;
        }
        if self.text(j) == "(" {
            // A call. Associated-constructor allocations:
            if segs.len() >= 2 {
                let ty = &segs[segs.len() - 2];
                let ctor = &segs[segs.len() - 1];
                if ALLOC_TYPES.contains(&ty.as_str()) && ALLOC_CTORS.contains(&ctor.as_str()) {
                    self.out.fns[fn_idx].facts.push(Fact {
                        kind: FactKind::Alloc,
                        line,
                        what: format!("{ty}::{ctor}"),
                    });
                }
            }
            self.out.fns[fn_idx].calls.push(CallSite {
                target: CallTarget::Path(segs),
                line,
            });
        }
        j.max(i + 1)
    }
}

/// Resolution helper shared with the call graph: expands a call path
/// into the candidate fully-qualified names to look up, in priority
/// order.
pub fn candidate_paths(file: &ParsedFile, segs: &[String]) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = Vec::new();
    if segs.is_empty() {
        return out;
    }
    // 1. Through the import map.
    if let Some(base) = file.imports.get(&segs[0]) {
        let mut p = base.clone();
        p.extend(segs.iter().skip(1).cloned());
        out.push(p);
    }
    // 2. As written, with the head normalized (absolute path).
    out.push(normalize_path(segs, &file.crate_name, &file.module_path));
    // 3. Relative to the current module.
    let mut p = vec![file.crate_name.clone()];
    p.extend(file.module_path.iter().cloned());
    p.extend(segs.iter().cloned());
    out.push(p);
    // 4. Relative to the crate root.
    let mut p = vec![file.crate_name.clone()];
    p.extend(segs.iter().cloned());
    out.push(p);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(path: &str, src: &str) -> ParsedFile {
        parse_file(path, &lex(src).tokens)
    }

    #[test]
    fn free_fn_and_method_qnames() {
        let src = r#"
            pub fn run_scale_fleet() {}
            pub struct ScaleDriver;
            impl ScaleDriver {
                pub fn stream(&mut self) {}
            }
            pub trait Driver {
                fn start(&mut self) { self.warm(); }
                fn warm(&mut self);
            }
        "#;
        let f = parse("crates/sim/src/fleet.rs", src);
        let qnames: Vec<&str> = f.fns.iter().map(|d| d.qname.as_str()).collect();
        assert_eq!(
            qnames,
            vec![
                "sim::fleet::run_scale_fleet",
                "sim::fleet::ScaleDriver::stream",
                "sim::fleet::Driver::start",
            ]
        );
        assert_eq!(f.fns[1].self_ty.as_deref(), Some("ScaleDriver"));
    }

    #[test]
    fn lib_rs_has_no_module_segment() {
        let f = parse("crates/abr/src/lib.rs", "pub fn top() {}");
        assert_eq!(f.fns[0].qname, "abr::top");
    }

    #[test]
    fn calls_are_collected_with_paths_and_methods() {
        let src = r#"
            use ee360_support::rng::StdRng;
            fn f(x: Option<u32>) {
                helper(1);
                abr::mpc::solve();
                StdRng::new(7);
                x.inspect_it();
            }
        "#;
        let f = parse("crates/sim/src/fleet.rs", src);
        let calls = &f.fns[0].calls;
        let paths: Vec<String> = calls
            .iter()
            .filter_map(|c| match &c.target {
                CallTarget::Path(p) => Some(p.join("::")),
                CallTarget::Method { .. } => None,
            })
            .collect();
        assert!(paths.contains(&"helper".to_owned()), "{paths:?}");
        assert!(paths.contains(&"abr::mpc::solve".to_owned()));
        assert!(paths.contains(&"StdRng::new".to_owned()));
        assert!(calls.iter().any(|c| matches!(
            &c.target,
            CallTarget::Method { name, on_self: false } if name == "inspect_it"
        )));
        assert_eq!(
            f.imports.get("StdRng"),
            Some(&vec![
                "support".to_owned(),
                "rng".to_owned(),
                "StdRng".to_owned()
            ])
        );
    }

    #[test]
    fn direct_self_method_calls_are_marked_on_self() {
        let src = r#"
            struct S { inner: Vec<u32> }
            impl S {
                fn a(&mut self) { self.b(); self.inner.sort(); }
                fn b(&mut self) {}
            }
        "#;
        let f = parse("crates/sim/src/fleet.rs", src);
        let calls = &f.fns[0].calls;
        assert!(calls.iter().any(|c| matches!(
            &c.target,
            CallTarget::Method { name, on_self: true } if name == "b"
        )));
        // `self.inner.sort()` is a field-receiver chain, not `self.sort()`.
        assert!(calls.iter().any(|c| matches!(
            &c.target,
            CallTarget::Method { name, on_self: false } if name == "sort"
        )));
    }

    #[test]
    fn facts_cover_all_four_kinds() {
        let src = r#"
            fn f(v: Vec<u32>, x: Option<u32>) {
                let a = x.unwrap();
                let b = x.expect("why");
                panic!("boom");
                let c = v[0];
                let d = Vec::new();
                let e = format!("{a}");
                let s = a.to_string();
                let m = std::collections::HashMap::new();
                let t = Instant::now();
            }
        "#;
        let f = parse("crates/support/src/util.rs", src);
        let kinds: Vec<FactKind> = f.fns[0].facts.iter().map(|x| x.kind).collect();
        assert_eq!(
            kinds.iter().filter(|k| **k == FactKind::Panic).count(),
            3,
            "{:?}",
            f.fns[0].facts
        );
        assert_eq!(kinds.iter().filter(|k| **k == FactKind::Index).count(), 1);
        assert_eq!(kinds.iter().filter(|k| **k == FactKind::Alloc).count(), 3);
        assert_eq!(kinds.iter().filter(|k| **k == FactKind::Nondet).count(), 2);
    }

    #[test]
    fn clock_exempt_files_collect_no_clock_facts() {
        let src = "fn f() { let t = Instant::now(); }";
        let f = parse("crates/obs/src/profile.rs", src);
        assert!(f.fns[0].facts.is_empty(), "{:?}", f.fns[0].facts);
    }

    #[test]
    fn test_functions_are_marked() {
        let src = "#[cfg(test)]\nmod tests { fn t(x: Option<u32>) { x.unwrap(); } }";
        let f = parse("crates/sim/src/fleet.rs", src);
        assert!(f.fns[0].in_test);
        assert_eq!(f.fns[0].qname, "sim::fleet::tests::t");
    }

    #[test]
    fn attributes_do_not_look_like_calls() {
        let src = "#[derive(Debug, Clone)]\n#[cfg(feature = \"x\")]\nfn f() { real(); }";
        let f = parse("crates/sim/src/fleet.rs", src);
        let paths: Vec<String> = f.fns[0]
            .calls
            .iter()
            .filter_map(|c| match &c.target {
                CallTarget::Path(p) => Some(p.join("::")),
                _ => None,
            })
            .collect();
        assert_eq!(paths, vec!["real".to_owned()]);
    }

    #[test]
    fn use_groups_and_renames_resolve() {
        let src = "use ee360_abr::{controller::Scheme, mpc::MpcController as Mpc};\nfn f() {}";
        let f = parse("crates/core/src/client.rs", src);
        assert_eq!(
            f.imports.get("Scheme"),
            Some(&vec![
                "abr".to_owned(),
                "controller".to_owned(),
                "Scheme".to_owned()
            ])
        );
        assert_eq!(
            f.imports.get("Mpc"),
            Some(&vec![
                "abr".to_owned(),
                "mpc".to_owned(),
                "MpcController".to_owned()
            ])
        );
    }

    #[test]
    fn self_calls_resolve_to_impl_type() {
        let src = "struct S; impl S { fn a() { Self::b(); } fn b() {} }";
        let f = parse("crates/sim/src/fleet.rs", src);
        let CallTarget::Path(p) = &f.fns[0].calls[0].target else {
            panic!("expected path call");
        };
        assert_eq!(p.join("::"), "S::b");
    }

    #[test]
    fn turbofish_paths_keep_their_segments() {
        let src = "fn f() { let v = Vec::<u8>::with_capacity(4); collect::<Vec<_>>(); }";
        let f = parse("crates/sim/src/fleet.rs", src);
        assert!(f.fns[0]
            .facts
            .iter()
            .any(|x| x.kind == FactKind::Alloc && x.what == "Vec::with_capacity"));
    }

    #[test]
    fn candidate_paths_cover_import_module_and_crate() {
        let mut file = ParsedFile {
            rel_path: "crates/sim/src/fleet.rs".to_owned(),
            crate_name: "sim".to_owned(),
            module_path: vec!["fleet".to_owned()],
            imports: BTreeMap::new(),
            fns: Vec::new(),
        };
        file.imports.insert(
            "MpcController".to_owned(),
            vec![
                "abr".to_owned(),
                "mpc".to_owned(),
                "MpcController".to_owned(),
            ],
        );
        let cands = candidate_paths(&file, &["MpcController".to_owned(), "plan".to_owned()]);
        assert_eq!(cands[0].join("::"), "abr::mpc::MpcController::plan");
        let bare = candidate_paths(&file, &["helper".to_owned()]);
        assert!(bare.iter().any(|p| p.join("::") == "sim::fleet::helper"));
        assert!(bare.iter().any(|p| p.join("::") == "sim::helper"));
    }
}
