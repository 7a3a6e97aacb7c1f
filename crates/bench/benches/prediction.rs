//! Bench: per-segment prediction costs.
//!
//! Viewport prediction (a ridge fit over the 2 s gaze window) and
//! bandwidth estimation run once per downloaded segment on the client.

use std::hint::black_box;

use ee360_bench::bench_harness;
use ee360_geom::switching::SwitchingSample;
use ee360_geom::viewport::ViewCenter;
use ee360_predict::bandwidth::{BandwidthEstimator, HarmonicMeanEstimator};
use ee360_predict::viewport::ViewportPredictor;

fn history(samples: usize) -> Vec<SwitchingSample> {
    (0..samples)
        .map(|i| {
            let t = i as f64 * 0.1;
            SwitchingSample::new(
                t,
                ViewCenter::new(12.0 * t + (i % 3) as f64, 5.0 * (t * 0.7).sin()),
            )
        })
        .collect()
}

fn main() {
    let mut bench = bench_harness();
    let predictor = ViewportPredictor::paper_default();
    for n in [10usize, 20, 50, 100] {
        let h = history(n);
        bench.run(&format!("viewport_predict/ridge/{n}"), || {
            predictor.predict(black_box(&h), 1.0)
        });
    }

    // The per-segment render-coverage computation (16×16 pixel samples),
    // cycling through a fixed set of viewports (some over a pole, some on
    // tile edges) so every call does the full pass.
    {
        use ee360_geom::grid::TileGrid;
        use ee360_geom::region::TileRegion;
        use ee360_geom::viewport::{ViewCenter, Viewport};
        let grid = TileGrid::paper_default();
        let region = TileRegion::new(&grid, 1, 3, 3, 3);
        let viewports: Vec<Viewport> = (0..64)
            .map(|i| {
                let yaw = -180.0 + i as f64 * 37.3;
                let pitch = [-8.0, 30.0, -45.0, 0.0, 72.0, -85.0, 60.0, 15.5][i % 8];
                Viewport::paper_fov(ViewCenter::new(yaw, pitch))
            })
            .collect();
        let mut next = viewports.iter().cycle();
        bench.run("projection/pixel_coverage_16", || {
            let vp = next.next().unwrap_or(&viewports[0]);
            ee360_geom::projection::pixel_coverage(black_box(vp), &region, &grid, 16)
        });
    }

    {
        let mut est = HarmonicMeanEstimator::paper_default();
        for s in [3.1e6, 4.4e6, 2.9e6, 5.0e6, 3.8e6] {
            est.observe(s);
        }
        bench.run("bandwidth/harmonic_estimate", || {
            est.observe(black_box(4.1e6));
            est.estimate()
        });
    }

    bench.print_table();
}
