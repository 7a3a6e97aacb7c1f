//! `ee360-lint` — the in-repo static-analysis gate.
//!
//! The repository carries three invariants that ordinary compilation
//! cannot check: library code must not panic on hot paths, same-seed
//! replays must be byte-identical (no iteration-order or wall-clock
//! nondeterminism), and the build must stay hermetic (no registry
//! dependencies). This crate enforces them with a comment- and
//! string-aware token scan plus a manifest scan, wired into CI as a
//! blocking stage.
//!
//! Rules (see `DESIGN.md` §7 for the full contract):
//!
//! - `no-panic-paths` — `.unwrap()` / `.expect(` / `panic!` /
//!   `unreachable!` / `todo!` / `unimplemented!` in library code of the
//!   simulation crates.
//! - `vec-index` — the indexing arm of the panic-path rule, reported
//!   separately so its severity can be tuned while the burn-down runs.
//! - `determinism` — `HashMap`/`HashSet` in replay-sensitive crates,
//!   `std::time::{Instant, SystemTime}` and `std::env` outside the
//!   bench/CLI exemptions, and float→int `as` casts in seeded-hash
//!   paths.
//! - `hermeticity` — any `Cargo.toml` dependency that is not an
//!   in-repo `path`/`workspace` entry.
//! - `float-compare` — `==`/`!=` against floats outside the tolerance
//!   helpers.
//! - `bad-pragma` — a `lint:allow` that is malformed, names an unknown
//!   rule, or omits its reason.
//!
//! On top of the lexical rules, a lightweight item/expression parser
//! (`parser`) feeds a workspace-wide call graph (`callgraph`) that
//! powers three interprocedural rules (`interproc`; `DESIGN.md` §13):
//!
//! - `panic-reachability` — panic sites (`panic!`-family, `unwrap`,
//!   `expect`, indexing) transitively reachable from configured entry
//!   points (fleet runner, MPC solver, session runners).
//! - `hot-path-alloc` — allocations (`Vec::new`, `push`, `Box::new`,
//!   `format!`, `to_string`, `clone`, ...) reachable from the fleet
//!   session loop or the solver inner loop.
//! - `determinism-taint` — non-determinism sources (wall clock,
//!   `std::env`, `HashMap`/`HashSet`) reachable from replay-critical
//!   entry points, in *any* crate.
//!
//! Suppressions are spelled `// lint:allow(rule, "reason")` (trailing:
//! covers its own line; standalone: covers the next line) or
//! `// lint:allow-file(rule, "reason")` for a whole file. The reason is
//! mandatory. For the interprocedural rules, a pragma on the hazard
//! line (or the lexical twin's pragma already there) suppresses the
//! finding for every entry that reaches it, a standalone pragma above
//! the `fn` covers the whole function, and a pragma on a call line cuts
//! that call edge. A `--baseline` file demotes known findings so only
//! new ones block CI.

pub mod callgraph;
pub mod engine;
pub mod interproc;
pub mod lexer;
pub mod manifest;
pub mod parser;
pub mod report;
pub mod rules;

pub use callgraph::CallGraph;
pub use engine::{scan_source, scan_sources, scan_workspace, scan_workspace_full, Config};
pub use report::Report;
pub use rules::{RuleId, Severity};
