//! Bit-exactness gate for the controller's MPC-DP solver.
//!
//! `MpcController::solve_horizon` (one candidate vector and four DP
//! vectors reused across steps and solves, variants listed once per
//! ladder) must return decisions **bit-identical** to the retained
//! straightforward formulation in `ee360_abr::reference` — same
//! `QualityLevel`, and `fps` and `bits` equal down to the last ulp.
//! Randomised contexts come from the seeded in-repo property harness;
//! repeat calls on one controller check that reusing its scratch leaves
//! nothing behind.

use ee360_abr::mpc::{MpcConfig, MpcController};
use ee360_abr::plan::SegmentContext;
use ee360_abr::reference::solve_reference;
use ee360_support::prelude::*;
use ee360_video::content::SiTi;
use ee360_video::ladder::{EncodingLadder, QualityLevel};

fn context_from(
    contents: &[(f64, f64)],
    bandwidth: f64,
    buffer: f64,
    s_fov: f64,
    area: f64,
    bg: usize,
) -> SegmentContext {
    SegmentContext {
        index: 0,
        upcoming: contents.iter().map(|&(si, ti)| SiTi::new(si, ti)).collect(),
        predicted_bandwidth_bps: bandwidth,
        buffer_sec: buffer,
        switching_speed_deg_s: s_fov,
        ptile_available: true,
        ptile_area_frac: area,
        background_blocks: bg,
        ftile_fov_area: 0.0,
        ftile_fov_tiles: 0,
    }
}

/// Asserts the two solvers agree bit-for-bit on one instance.
fn assert_bit_identical(
    controller: &MpcController,
    ctx: &SegmentContext,
    bandwidths: &[f64],
) -> Result<(), prop::TestError> {
    let (q_opt, f_opt, b_opt) = controller.solve_horizon(ctx, bandwidths);
    let (q_ref, f_ref, b_ref) = solve_reference(controller, ctx, bandwidths);
    prop_assert_eq!(q_opt, q_ref);
    prop_assert_eq!(f_opt.to_bits(), f_ref.to_bits());
    prop_assert_eq!(b_opt.to_bits(), b_ref.to_bits());
    Ok(())
}

proptest! {
    #[test]
    fn optimised_solver_matches_reference_bit_for_bit(
        contents in ee360_support::prop::collection::vec((20.0f64..100.0, 2.0f64..60.0), 1..8),
        bandwidths in ee360_support::prop::collection::vec(0.5e6f64..20.0e6, 5..6),
        buffer in 0.0f64..4.0,
        s_fov in 0.0f64..80.0,
        area in 0.05f64..0.9,
        bg in 0usize..7,
    ) {
        let controller = MpcController::paper_default();
        let ctx = context_from(&contents, bandwidths[0], buffer, s_fov, area, bg);
        assert_bit_identical(&controller, &ctx, &bandwidths)?;
        // Repeat on the same controller: reused scratch must leave the
        // answer unchanged, bit for bit.
        assert_bit_identical(&controller, &ctx, &bandwidths)?;
    }

    #[test]
    fn reused_scratch_stays_exact_across_a_session_shaped_stream(
        base_si in 20.0f64..90.0,
        base_ti in 2.0f64..50.0,
        bw in 0.8e6f64..16.0e6,
        s_fov in 0.0f64..60.0,
    ) {
        // One controller across many segments with overlapping horizon
        // windows, the way a session drives it.
        let controller = MpcController::paper_default();
        let contents: Vec<(f64, f64)> = (0..12)
            .map(|i| (base_si + (i % 5) as f64 * 2.0, base_ti + (i % 3) as f64 * 3.0))
            .collect();
        for k in 0..8 {
            let window: Vec<(f64, f64)> =
                (k..k + 5).map(|i| contents[i % contents.len()]).collect();
            let mut ctx = context_from(&window, bw, (k % 7) as f64 * 0.5, s_fov, 9.0 / 32.0, 3);
            ctx.index = k;
            let bandwidths = vec![bw; 5];
            assert_bit_identical(&controller, &ctx, &bandwidths)?;
        }
    }

    #[test]
    fn non_constant_forecasts_match_reference(
        bandwidths in ee360_support::prop::collection::vec(0.5e6f64..20.0e6, 5..6),
        ti in 2.0f64..60.0,
        buffer in 0.0f64..4.0,
    ) {
        let controller = MpcController::paper_default();
        let ctx = context_from(&[(60.0, ti); 5], bandwidths[0], buffer, 8.0, 9.0 / 32.0, 3);
        assert_bit_identical(&controller, &ctx, &bandwidths)?;
    }
}

#[test]
fn ladder_swap_replaces_the_variants() {
    // with_ladder must re-list the variants: plans after the swap match a
    // fresh single-rate controller, not the old ladder's.
    let controller = MpcController::paper_default();
    let ctx = context_from(&[(60.0, 25.0); 5], 6.0e6, 3.0, 8.0, 9.0 / 32.0, 3);
    let bandwidths = [6.0e6; 5];
    let _ = controller.solve_horizon(&ctx, &bandwidths); // use the scratch first
    let swapped = controller.with_ladder(EncodingLadder::single_rate(30.0));
    let fresh = MpcController::paper_default().with_ladder(EncodingLadder::single_rate(30.0));
    let (q_a, f_a, b_a) = swapped.solve_horizon(&ctx, &bandwidths);
    let (q_b, f_b, b_b) = fresh.solve_horizon(&ctx, &bandwidths);
    assert_eq!(q_a, q_b);
    assert_eq!(f_a.to_bits(), f_b.to_bits());
    assert_eq!(b_a.to_bits(), b_b.to_bits());
    assert_eq!(f_a.to_bits(), 30.0f64.to_bits());
}

#[test]
fn reference_survives_pathologically_low_bandwidth() {
    // Both solvers must agree even where only the cheapest-tuple fallback
    // of (8c) keeps the problem feasible.
    let controller = MpcController::new(MpcConfig::paper_default());
    let ctx = context_from(&[(95.0, 55.0); 5], 0.2e6, 0.0, 0.0, 0.9, 6);
    let bandwidths = [0.2e6; 5];
    let (q_opt, f_opt, b_opt) = controller.solve_horizon(&ctx, &bandwidths);
    let (q_ref, f_ref, b_ref) = solve_reference(&controller, &ctx, &bandwidths);
    assert_eq!(q_opt, q_ref);
    assert_eq!(f_opt.to_bits(), f_ref.to_bits());
    assert_eq!(b_opt.to_bits(), b_ref.to_bits());
    assert!(q_opt >= QualityLevel::Q1);
}
