//! Interprocedural fixture: entry points matching the default entry
//! configuration, with every hazard living one crate away in
//! `interproc_hazards.rs` (scanned as `crates/support/src/util.rs`).

use ee360_support::util::{edge_cut_target, hazard_alloc, hazard_map, hazard_panic, safe_pragmad};

pub struct ScaleDriver;

impl ScaleDriver {
    pub fn stream(&mut self) {
        hazard_alloc(3);
    }
}

pub fn run_scale_fleet() {
    hazard_panic(None);
    hazard_map();
    safe_pragmad(None);
    // lint:allow(panic-reachability, "fixture: edge cut at the call site")
    edge_cut_target(None);
}
