//! The straightforward MPC-DP formulation, kept as the frozen oracle for
//! [`crate::mpc`].
//!
//! [`solve_reference`] builds every candidate set up front, recomputes
//! the (8c) floor and per-candidate download/energy inside the per-state
//! loop, and allocates fresh DP vectors per step. It exists so the test
//! suite (and the `perf_baseline` binary) can pin
//! `MpcController::solve_horizon` **bit-identical** to this one across
//! randomised contexts: both must return the same
//! `(QualityLevel, fps, bits)` down to the last ulp.

use ee360_video::ladder::QualityLevel;

use crate::mpc::{dp_transition, Candidate, MpcController};
use crate::plan::SegmentContext;
use crate::sizer::FOV_AREA_FRACTION;

/// Solves the horizon DP the straightforward way and returns the first
/// segment's decision. Semantics (state grid, transition, tie-breaking,
/// pathological fallback) are those of `MpcController::solve_horizon`.
///
/// # Panics
///
/// Panics unless `bandwidths.len()` equals the controller's horizon.
pub fn solve_reference(
    controller: &MpcController,
    ctx: &SegmentContext,
    bandwidths: &[f64],
) -> (QualityLevel, f64, f64) {
    let cfg = *controller.config();
    assert_eq!(
        bandwidths.len(),
        cfg.horizon,
        "one bandwidth per horizon step"
    );
    let gran = cfg.buffer_granularity_sec;
    let n_states = (cfg.buffer_threshold_sec / gran).round() as usize + 1;
    let state_level = |i: usize| i as f64 * gran;
    let level_state = |b: f64| ((b / gran).floor() as usize).min(n_states - 1);
    let area = ctx.ptile_area_frac.max(FOV_AREA_FRACTION);

    let horizon = cfg.horizon;
    let per_step: Vec<Vec<Candidate>> = (0..horizon)
        .map(|h| {
            let content = ctx.content_at(h);
            controller.candidates(
                content,
                ctx.switching_speed_deg_s,
                area,
                ctx.background_blocks,
            )
        })
        .collect();

    const INF: f64 = f64::INFINITY;
    let mut cost = vec![INF; n_states];
    let mut first: Vec<Option<(QualityLevel, f64, f64)>> = vec![None; n_states];
    let start = level_state(ctx.buffer_sec.min(cfg.buffer_threshold_sec));
    cost[start] = 0.0;

    for (h, cands) in per_step.iter().take(horizon).enumerate() {
        let bandwidth = bandwidths[h];
        let mut next_cost = vec![INF; n_states];
        let mut next_first: Vec<Option<(QualityLevel, f64, f64)>> = vec![None; n_states];
        for s in 0..n_states {
            if cost[s].is_infinite() {
                continue;
            }
            let b = state_level(s);
            let q_ref = controller.reference_quality(cands, bandwidth);
            let q_floor = (1.0 - cfg.epsilon) * q_ref;
            for c in cands {
                // Constraint (8c).
                if c.q_vf + 1e-9 < q_floor {
                    continue;
                }
                let dl = c.bits / bandwidth;
                let (stall, b_next) = dp_transition(b, dl, cfg.buffer_threshold_sec, gran);
                let step_cost = controller.candidate_energy_mj(c, bandwidth)
                    + stall * cfg.stall_penalty_mj_per_sec;
                let total = cost[s] + step_cost;
                let ns = level_state(b_next);
                if total < next_cost[ns] {
                    next_cost[ns] = total;
                    next_first[ns] = first[s].or(Some((c.quality, c.fps, c.bits)));
                }
            }
        }
        cost = next_cost;
        first = next_first;
    }

    let best = (0..n_states)
        .filter(|&s| cost[s].is_finite())
        .min_by(|&a, &b| cost[a].total_cmp(&cost[b]));
    match best.and_then(|s| first[s]) {
        Some(decision) => decision,
        None => {
            // Pathological (e.g. every candidate violates 8c at every
            // state, which reference_quality prevents): cheapest tuple.
            let c = per_step[0]
                .iter()
                .min_by(|a, b| a.bits.total_cmp(&b.bits))
                // lint:allow(no-panic-paths, "documented invariant: the quality ladder is never empty")
                .expect("ladder is non-empty");
            (c.quality, c.fps, c.bits)
        }
    }
}
