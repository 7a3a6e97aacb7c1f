//! The workspace-wide call graph: every parsed function becomes a node,
//! every resolvable call becomes an edge.
//!
//! Resolution strategy (see `DESIGN.md` §13 for the contract):
//!
//! - **Path calls** (`a::b::c(...)`) are expanded into candidate
//!   fully-qualified names via the file's import map, the current
//!   module, and the crate root, then matched exactly; multi-segment
//!   paths that still miss fall back to a `::`-boundary suffix match
//!   (so `mpc::solve` finds `abr::mpc::solve`). Single-segment calls
//!   never suffix-match — a bare `new(...)` must resolve exactly or not
//!   at all.
//! - **Method calls** (`recv.method(...)`) resolve to every workspace
//!   method of that name — a deliberate over-approximation (no type
//!   inference), which errs toward reporting — pruned two ways: a
//!   direct `self.method(...)` binds to the surrounding impl type when
//!   it defines the method, and cross-crate candidates are kept only
//!   when the caller's crate actually references the callee's crate
//!   (dependency closure derived from `use` imports and path calls).
//!   The same dependency filter applies to path suffix matches.
//! - Test functions (`#[cfg(test)]` / `#[test]`) are excluded entirely.
//!
//! Unresolved calls (std library, enum constructors, macros-as-calls)
//! are dropped: the graph under-approximates calls out of the
//! workspace, and the fact collector covers the std-side hazards
//! (`unwrap`, `push`, ...) at the call site itself, so nothing is lost.

use std::collections::{BTreeMap, BTreeSet};

use ee360_support::json::{Json, ToJson};

use crate::parser::{candidate_paths, normalize_path, CallTarget, Fact, FactKind, ParsedFile};

/// One function in the graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// Fully qualified `crate::module::[Type::]name`.
    pub qname: String,
    /// Bare function name.
    pub name: String,
    /// The `impl`/`trait` type when the function is a method.
    pub self_ty: Option<String>,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub decl_line: usize,
    /// Hazard facts inside the body.
    pub facts: Vec<Fact>,
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Caller node index.
    pub from: usize,
    /// Callee node index.
    pub to: usize,
    /// 1-based line of the call in the caller's file (pragmas on this
    /// line cut the edge).
    pub line: usize,
}

/// The whole-workspace call graph.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Every non-test function with a body, sorted by qname.
    pub nodes: Vec<Node>,
    /// Resolved edges, deduplicated, sorted by (from, to, line).
    pub edges: Vec<Edge>,
    /// Adjacency: `adj[from]` = indices into `edges`.
    pub adj: Vec<Vec<usize>>,
    /// How many call sites could not be resolved to a workspace node.
    pub unresolved_calls: usize,
}

impl CallGraph {
    /// Builds the graph from every parsed file.
    pub fn build(files: &[ParsedFile]) -> CallGraph {
        // Index nodes. Bodyless and test functions never made it into
        // `ParsedFile::fns` / are filtered here respectively.
        let mut nodes: Vec<Node> = Vec::new();
        let mut fn_origins: Vec<(usize, usize)> = Vec::new(); // (file idx, fn idx)
        for (fi, file) in files.iter().enumerate() {
            for (di, def) in file.fns.iter().enumerate() {
                if def.in_test {
                    continue;
                }
                nodes.push(Node {
                    qname: def.qname.clone(),
                    name: def.name.clone(),
                    self_ty: def.self_ty.clone(),
                    file: file.rel_path.clone(),
                    decl_line: def.decl_line,
                    facts: def.facts.clone(),
                });
                fn_origins.push((fi, di));
            }
        }
        // Sort nodes by qname (ties broken by file) for deterministic
        // ids, remembering where each came from.
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_by(|&a, &b| {
            (
                nodes[a].qname.as_str(),
                nodes[a].file.as_str(),
                nodes[a].decl_line,
            )
                .cmp(&(
                    nodes[b].qname.as_str(),
                    nodes[b].file.as_str(),
                    nodes[b].decl_line,
                ))
        });
        let mut sorted_nodes = Vec::with_capacity(nodes.len());
        let mut sorted_origins = Vec::with_capacity(nodes.len());
        for &o in &order {
            sorted_nodes.push(nodes[o].clone());
            sorted_origins.push(fn_origins[o]);
        }
        let nodes = sorted_nodes;

        // Lookup tables.
        let mut by_qname: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            by_qname.entry(n.qname.as_str()).or_default().push(i);
            if n.self_ty.is_some() {
                methods_by_name.entry(n.name.as_str()).or_default().push(i);
            }
        }

        // Which crates each crate references, from imports and explicit
        // call paths. The transitive closure prunes name-collision
        // method edges: a caller can only invoke methods of crates its
        // own crate can actually reach.
        let mut crate_deps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for file in files {
            let deps = crate_deps.entry(file.crate_name.clone()).or_default();
            for path in file.imports.values() {
                if let Some(head) = path.first() {
                    deps.insert(head.clone());
                }
            }
            for def in &file.fns {
                for call in &def.calls {
                    if let CallTarget::Path(segs) = &call.target {
                        if segs.len() >= 2 {
                            if let Some(head) =
                                normalize_path(segs, &file.crate_name, &file.module_path).first()
                            {
                                deps.insert(head.clone());
                            }
                        }
                    }
                }
            }
        }
        // Transitive closure (the workspace has ~16 crates).
        loop {
            let snapshot = crate_deps.clone();
            let mut grew = false;
            for deps in crate_deps.values_mut() {
                let extra: Vec<String> = deps
                    .iter()
                    .filter_map(|d| snapshot.get(d))
                    .flat_map(|s| s.iter().cloned())
                    .filter(|d| !deps.contains(d))
                    .collect();
                if !extra.is_empty() {
                    grew = true;
                    deps.extend(extra);
                }
            }
            if !grew {
                break;
            }
        }
        fn crate_of_qname(q: &str) -> &str {
            q.split("::").next().unwrap_or("")
        }
        let reaches = |caller: &str, callee: &str| {
            caller == callee || crate_deps.get(caller).is_some_and(|d| d.contains(callee))
        };

        // Resolve calls into edges.
        let mut edges: Vec<Edge> = Vec::new();
        let mut unresolved = 0usize;
        for (ni, &(fi, di)) in sorted_origins.iter().enumerate() {
            let file = &files[fi];
            let caller_crate = crate_of_qname(&nodes[ni].qname).to_owned();
            for call in &files[fi].fns[di].calls {
                let targets: Vec<usize> = match &call.target {
                    CallTarget::Method { name, on_self } => {
                        let all = methods_by_name
                            .get(name.as_str())
                            .cloned()
                            .unwrap_or_default();
                        // A direct `self.method()` binds to the
                        // surrounding impl type when it defines the
                        // method.
                        let own: Vec<usize> = match (&nodes[ni].self_ty, on_self) {
                            (Some(ty), true) => all
                                .iter()
                                .copied()
                                .filter(|&t| {
                                    nodes[t].self_ty.as_deref() == Some(ty.as_str())
                                        && crate_of_qname(&nodes[t].qname) == caller_crate
                                })
                                .collect(),
                            _ => Vec::new(),
                        };
                        if own.is_empty() {
                            all.into_iter()
                                .filter(|&t| {
                                    reaches(&caller_crate, crate_of_qname(&nodes[t].qname))
                                })
                                .collect()
                        } else {
                            own
                        }
                    }
                    CallTarget::Path(segs) => {
                        let mut found: Vec<usize> = Vec::new();
                        for cand in candidate_paths(file, segs) {
                            let joined = cand.join("::");
                            if let Some(ids) = by_qname.get(joined.as_str()) {
                                found = ids.clone();
                                break;
                            }
                        }
                        if found.is_empty() && segs.len() >= 2 {
                            // Suffix match at a `::` boundary, again
                            // dependency-filtered.
                            let suffix = format!("::{}", segs.join("::"));
                            found = nodes
                                .iter()
                                .enumerate()
                                .filter(|(_, n)| {
                                    n.qname.ends_with(&suffix)
                                        && reaches(&caller_crate, crate_of_qname(&n.qname))
                                })
                                .map(|(i, _)| i)
                                .collect();
                        }
                        found
                    }
                };
                if targets.is_empty() {
                    unresolved += 1;
                    continue;
                }
                for to in targets {
                    edges.push(Edge {
                        from: ni,
                        to,
                        line: call.line,
                    });
                }
            }
        }
        edges.sort_by_key(|e| (e.from, e.to, e.line));
        edges.dedup();

        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (ei, e) in edges.iter().enumerate() {
            adj[e.from].push(ei);
        }

        CallGraph {
            nodes,
            edges,
            adj,
            unresolved_calls: unresolved,
        }
    }

    /// Nodes whose qname equals `pattern` or ends with `::pattern` — how
    /// entry-point specs are matched.
    pub fn resolve_entry(&self, pattern: &str) -> Vec<usize> {
        let suffix = format!("::{pattern}");
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.qname == pattern || n.qname.ends_with(&suffix))
            .map(|(i, _)| i)
            .collect()
    }
}

impl ToJson for CallGraph {
    fn to_json(&self) -> Json {
        let nodes: Vec<Json> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let count =
                    |k: FactKind| Json::Int(n.facts.iter().filter(|f| f.kind == k).count() as i64);
                Json::Obj(vec![
                    ("id".to_owned(), Json::Int(i as i64)),
                    ("qname".to_owned(), Json::Str(n.qname.clone())),
                    ("file".to_owned(), Json::Str(n.file.clone())),
                    ("line".to_owned(), Json::Int(n.decl_line as i64)),
                    (
                        "facts".to_owned(),
                        Json::Obj(vec![
                            ("panic".to_owned(), count(FactKind::Panic)),
                            ("index".to_owned(), count(FactKind::Index)),
                            ("alloc".to_owned(), count(FactKind::Alloc)),
                            ("nondet".to_owned(), count(FactKind::Nondet)),
                        ]),
                    ),
                ])
            })
            .collect();
        let edges: Vec<Json> = self
            .edges
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("from".to_owned(), Json::Int(e.from as i64)),
                    ("to".to_owned(), Json::Int(e.to as i64)),
                    ("line".to_owned(), Json::Int(e.line as i64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            (
                "schema".to_owned(),
                Json::Str("ee360.callgraph.v1".to_owned()),
            ),
            ("fns".to_owned(), Json::Int(self.nodes.len() as i64)),
            ("calls".to_owned(), Json::Int(self.edges.len() as i64)),
            (
                "unresolved_calls".to_owned(),
                Json::Int(self.unresolved_calls as i64),
            ),
            ("nodes".to_owned(), Json::Arr(nodes)),
            ("edges".to_owned(), Json::Arr(edges)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let parsed: Vec<ParsedFile> = files
            .iter()
            .map(|(path, src)| parse_file(path, &lex(src).tokens))
            .collect();
        CallGraph::build(&parsed)
    }

    #[test]
    fn cross_crate_path_call_resolves_via_import() {
        let g = graph(&[
            (
                "crates/sim/src/fleet.rs",
                "use ee360_support::util::pick;\npub fn run() { pick(1); }",
            ),
            (
                "crates/support/src/util.rs",
                "pub fn pick(x: u32) -> u32 { x }",
            ),
        ]);
        assert_eq!(g.nodes.len(), 2);
        assert_eq!(g.edges.len(), 1);
        let e = g.edges[0];
        assert_eq!(g.nodes[e.from].qname, "sim::fleet::run");
        assert_eq!(g.nodes[e.to].qname, "support::util::pick");
    }

    #[test]
    fn module_qualified_call_resolves_by_suffix() {
        let g = graph(&[
            (
                "crates/sim/src/lib.rs",
                "pub fn top() { fleet::run_scale_fleet(); }",
            ),
            ("crates/sim/src/fleet.rs", "pub fn run_scale_fleet() {}"),
        ]);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.nodes[g.edges[0].to].qname, "sim::fleet::run_scale_fleet");
    }

    #[test]
    fn method_calls_resolve_by_name_to_all_impls() {
        let g = graph(&[
            (
                "crates/core/src/client.rs",
                "use ee360_abr::mpc::MpcController;\npub fn run(c: &mut C) { c.plan(); }",
            ),
            (
                "crates/abr/src/mpc.rs",
                "pub struct MpcController; impl MpcController { pub fn plan(&mut self) {} }",
            ),
            (
                "crates/abr/src/reference.rs",
                "pub struct RefController; impl RefController { pub fn plan(&mut self) {} }",
            ),
        ]);
        let to: Vec<&str> = g
            .edges
            .iter()
            .map(|e| g.nodes[e.to].qname.as_str())
            .collect();
        assert!(to.contains(&"abr::mpc::MpcController::plan"), "{to:?}");
        assert!(to.contains(&"abr::reference::RefController::plan"));
    }

    #[test]
    fn method_calls_do_not_cross_into_unreferenced_crates() {
        // `core` never imports `lint`, so the name-collision candidate
        // `lint::lexer::Lexer::advance` must be pruned.
        let g = graph(&[
            (
                "crates/core/src/client.rs",
                "pub fn run(v: &mut Cursor) { v.advance(1); }",
            ),
            (
                "crates/lint/src/lexer.rs",
                "pub struct Lexer; impl Lexer { pub fn advance(&mut self) {} }",
            ),
        ]);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
        assert_eq!(g.unresolved_calls, 1);
    }

    #[test]
    fn hazard_named_methods_only_form_edges_on_self() {
        // `.push(` / `.expect(` are std-shadowed: they are recorded as
        // facts at the call site, never as name-collision edges — except
        // a literal `self.expect(...)`, which binds to the own impl.
        let g = graph(&[(
            "crates/support/src/json.rs",
            "pub struct Parser;\nimpl Parser {\n  pub fn value(&mut self, v: &mut Vec<u32>) { v.push(1); self.expect(2); }\n  fn expect(&mut self, b: u32) {}\n}",
        )]);
        let to: Vec<&str> = g
            .edges
            .iter()
            .map(|e| g.nodes[e.to].qname.as_str())
            .collect();
        assert_eq!(to, vec!["support::json::Parser::expect"], "{to:?}");
    }

    #[test]
    fn self_method_call_binds_to_own_impl_only() {
        let g = graph(&[
            (
                "crates/sim/src/fleet.rs",
                "use ee360_abr::mpc::Other;\npub struct Driver;\nimpl Driver {\n  pub fn step(&mut self) { self.advance(); }\n  fn advance(&mut self) {}\n}",
            ),
            (
                "crates/abr/src/mpc.rs",
                "pub struct Other; impl Other { pub fn advance(&mut self) {} }",
            ),
        ]);
        let to: Vec<&str> = g
            .edges
            .iter()
            .map(|e| g.nodes[e.to].qname.as_str())
            .collect();
        assert_eq!(to, vec!["sim::fleet::Driver::advance"], "{to:?}");
    }

    #[test]
    fn bare_calls_only_resolve_in_scope() {
        let g = graph(&[
            (
                "crates/sim/src/fleet.rs",
                "pub fn a() { helper(); } fn helper() {}",
            ),
            ("crates/abr/src/mpc.rs", "pub fn helper() {}"),
        ]);
        // `helper()` from sim::fleet must bind the same-module helper,
        // not the abr one.
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.nodes[g.edges[0].to].qname, "sim::fleet::helper");
    }

    #[test]
    fn test_fns_are_excluded() {
        let g = graph(&[(
            "crates/sim/src/fleet.rs",
            "pub fn lib_fn() {}\n#[cfg(test)]\nmod tests { fn t() { super::lib_fn(); } }",
        )]);
        assert_eq!(g.nodes.len(), 1);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn entry_resolution_matches_suffix() {
        let g = graph(&[(
            "crates/sim/src/fleet.rs",
            "pub struct ScaleDriver; impl ScaleDriver { pub fn stream(&mut self) {} }",
        )]);
        assert_eq!(g.resolve_entry("sim::fleet::ScaleDriver::stream").len(), 1);
        assert_eq!(g.resolve_entry("ScaleDriver::stream").len(), 1);
        assert!(g.resolve_entry("no::such::fn").is_empty());
    }

    #[test]
    fn json_export_has_schema_nodes_and_edges() {
        let g = graph(&[(
            "crates/sim/src/fleet.rs",
            "pub fn a(x: Option<u32>) { b(); x.unwrap(); } fn b() {}",
        )]);
        let text = ee360_support::json::to_string(&g).expect("graph serialises");
        assert!(text.contains("\"schema\":\"ee360.callgraph.v1\""));
        assert!(text.contains("\"nodes\""));
        assert!(text.contains("\"edges\""));
        assert!(text.contains("\"panic\":1"));
    }
}
