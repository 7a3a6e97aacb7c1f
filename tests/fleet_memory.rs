//! Memory-bound regression gate for the scale fleet.
//!
//! Runs a 100k-session scale fleet behind the counting-allocator shim
//! and asserts the peak heap stays under a pinned per-session budget.
//! The fleet's scaling story rests on O(100 B) retained per session
//! (one scalar summary; each worker holds a single live session) — if
//! anyone reintroduces a per-segment vector or starts retaining
//! `SessionMetrics`, the peak jumps by orders of magnitude and this test
//! fails loudly.
//!
//! A third gate does the same for one paper session: on a very long gaze
//! trace its per-segment phases must not touch trace-sized memory. A
//! fourth holds the MPC solver to a fixed footprint: planning thousands
//! of distinct contexts must not grow the controller's live heap.
//!
//! The allocator counts every thread's heap in one process-wide peak, so
//! the budget tests take [`BUDGET_LOCK`] and run one at a time: each
//! peak then holds only its own workload, whatever `--test-threads` says.

use std::sync::{Mutex, PoisonError};

use ee360_abr::controller::{Controller, Scheme};
use ee360_abr::mpc::MpcController;
use ee360_abr::plan::{PlanBuffers, SegmentContext};
use ee360_cluster::ptile::PtileConfig;
use ee360_core::client::{make_controller, SessionRunner, SessionSetup};
use ee360_core::server::VideoServer;
use ee360_geom::grid::TileGrid;
use ee360_obs::{NoopRecorder, TelemetryConfig};
use ee360_power::model::Phone;
use ee360_sim::fleet::{run_scale_fleet, FleetConfig};
use ee360_sim::resilience::RetryPolicy;
use ee360_support::alloc::CountingAlloc;
use ee360_trace::dataset::VideoTraces;
use ee360_trace::fault::{FaultConfig, FaultPlan};
use ee360_trace::head::{GazeConfig, HeadTrace};
use ee360_trace::network::NetworkTrace;
use ee360_video::catalog::VideoCatalog;
use ee360_video::content::SiTi;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Serialises the budget tests. Poison-tolerant: one test failing must
/// not turn the other into a lock error.
static BUDGET_LOCK: Mutex<()> = Mutex::new(());

const SESSIONS: usize = 100_000;
const SEGMENTS: usize = 6;

/// Pinned peak-heap budget per session. Measured headroom: the run
/// peaks around 230 B/session (one 16 Ki-driver shard wave live at a
/// time plus the folded summaries); 768 B leaves room for legitimate
/// driver growth while still catching any per-segment vector (which
/// would add kilobytes per session) immediately.
const PER_SESSION_BUDGET_BYTES: usize = 768;

/// Pinned peak-heap budget per session with the full telemetry pipeline
/// on. Telemetry adds one retained [`SessionWindows`] per session —
/// ~440 B of *inline* window cells that live in the shard output `Vec`
/// until the fold consumes them (the inline small-buffer design keeps
/// that off the allocator's per-session hot path entirely) — plus a 1%
/// sample of boxed `Detail` recorders. Measured peak is ~790 B/session;
/// the fixed telemetry allowance below (documented, not incidental) is
/// 768 B/session on top of the base budget — roughly 2x headroom, tight
/// enough that retaining per-segment state would still fail loudly.
///
/// [`SessionWindows`]: ee360_obs::SessionWindows
const TELEMETRY_ALLOWANCE_BYTES: usize = 768;

#[test]
fn fleet_of_100k_sessions_stays_in_budget() {
    let _serial = BUDGET_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let network = NetworkTrace::paper_trace2(300, 17);
    let faults = FaultPlan::generate(FaultConfig::chaos_default(), 300.0, 23).and_outage(50.0, 5.0);
    let config = FleetConfig::new(SESSIONS, SEGMENTS, 2022);
    let baseline = ALLOC.reset_peak();
    let (report, _stats, _) =
        run_scale_fleet(&config, &network, &faults, &mut ee360_obs::NoopRecorder);
    let peak = ALLOC.peak_bytes().saturating_sub(baseline);
    assert_eq!(report.segments, SESSIONS * SEGMENTS, "every slot consumed");
    assert_eq!(report.delivered + report.skipped, report.segments);
    assert!(
        peak <= SESSIONS * PER_SESSION_BUDGET_BYTES,
        "fleet peak heap {peak} B breaks the {PER_SESSION_BUDGET_BYTES} B/session budget \
         ({} B/session over {SESSIONS} sessions)",
        peak / SESSIONS
    );
}

#[test]
fn fleet_of_100k_sessions_with_telemetry_stays_in_budget() {
    let _serial = BUDGET_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let network = NetworkTrace::paper_trace2(300, 17);
    let faults = FaultPlan::generate(FaultConfig::chaos_default(), 300.0, 23).and_outage(50.0, 5.0);
    let config =
        FleetConfig::new(SESSIONS, SEGMENTS, 2022).with_telemetry(TelemetryConfig::standard());
    let baseline = ALLOC.reset_peak();
    let (report, _stats, telemetry) =
        run_scale_fleet(&config, &network, &faults, &mut ee360_obs::NoopRecorder);
    let peak = ALLOC.peak_bytes().saturating_sub(baseline);
    assert_eq!(report.segments, SESSIONS * SEGMENTS, "every slot consumed");
    let tel = telemetry.expect("telemetry requested");
    assert!(tel.series.is_some(), "windows were on");
    assert!(!tel.traces.is_empty(), "1% sampling keeps traces");
    let budget = PER_SESSION_BUDGET_BYTES + TELEMETRY_ALLOWANCE_BYTES;
    assert!(
        peak <= SESSIONS * budget,
        "telemetry-on fleet peak heap {peak} B breaks the {budget} B/session budget \
         ({} B/session over {SESSIONS} sessions)",
        peak / SESSIONS
    );
}

/// Gaze sampling rate of the long trace: 40x the generator's 10 Hz.
const LONG_TRACE_HZ: f64 = 400.0;
/// Samples in the long trace: 250 s at 400 Hz, 2.4 MB of raw samples.
const LONG_TRACE_SAMPLES: usize = 100_000;
const SESSION_SEGMENTS: usize = 40;

/// Pinned peak-heap growth of one session's per-segment phases. What a
/// segment may hold is window-sized: the recycled 2 s gaze history
/// (~800 samples at 400 Hz, ~19 kB), the predictor's fit over it, the
/// speeds behind Eq. 4's S_fov, and the session's growing metrics
/// vector. Measured peaks are 57–78 kB per scheme; 128 kB is a
/// twentieth of the trace, so converting or copying the whole trace on
/// any segment fails by megabytes.
const SESSION_SEGMENT_BUDGET_BYTES: usize = 128 * 1024;

#[test]
fn session_segments_do_not_touch_the_whole_gaze_trace() {
    let _serial = BUDGET_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let catalog = VideoCatalog::paper_default();
    let spec = catalog.video(6).expect("catalog has video 6");
    let training = VideoTraces::generate(spec, 6, 5, GazeConfig::default());
    let refs: Vec<&HeadTrace> = training.traces().iter().collect();
    let server = VideoServer::prepare(
        spec,
        &refs,
        TileGrid::paper_default(),
        PtileConfig::paper_default(),
    );
    // A smooth sweep across the front hemisphere, densely sampled.
    let samples = (0..LONG_TRACE_SAMPLES)
        .map(|i| {
            let t = i as f64 / LONG_TRACE_HZ;
            (t, 60.0 * (0.31 * t).sin(), 15.0 * (0.17 * t).cos())
        })
        .collect();
    let user = HeadTrace::from_samples(spec.id, 99, samples);
    let trace_bytes = LONG_TRACE_SAMPLES * std::mem::size_of::<(f64, f64, f64)>();
    assert!(trace_bytes > 16 * SESSION_SEGMENT_BUDGET_BYTES);
    let network = NetworkTrace::paper_trace2(400, 5);
    let faults = FaultPlan::none();
    let setup = SessionSetup {
        server: &server,
        user: &user,
        network: &network,
        phone: Phone::Pixel3,
        max_segments: Some(SESSION_SEGMENTS),
    };
    for scheme in Scheme::ALL.into_iter().chain([Scheme::RobustMpc]) {
        let mut controller = make_controller(scheme, setup.phone);
        let mut runner = SessionRunner::new(scheme, &setup, &faults, &RetryPolicy::disabled());
        let mut rec = NoopRecorder;
        runner.start(&mut rec);
        let baseline = ALLOC.reset_peak();
        while runner.plan_segment(controller.as_mut(), &mut rec) {
            while runner
                .step_download(controller.as_mut(), &mut rec)
                .is_none()
            {}
        }
        let peak = ALLOC.peak_bytes().saturating_sub(baseline);
        let metrics = runner.finish(&mut rec);
        assert_eq!(metrics.len(), SESSION_SEGMENTS, "{scheme:?}");
        assert!(
            peak <= SESSION_SEGMENT_BUDGET_BYTES,
            "{scheme:?}: per-segment phases grew the heap by {peak} B, over the \
             {SESSION_SEGMENT_BUDGET_BYTES} B budget (the gaze trace is {trace_bytes} B)"
        );
    }
}

/// Distinct-bandwidth plans the solver footprint test runs.
const SOLVER_PLANS: usize = 5_000;
/// Live-heap growth those plans may leave behind: the solver's scratch
/// is sized by the first plan, so anything that keeps per-plan state
/// (a cache keyed on the bandwidth, say) outgrows this within a few
/// hundred plans.
const SOLVER_GROWTH_BUDGET_BYTES: usize = 4 * 1024;

#[test]
fn solver_footprint_stays_flat_across_distinct_plans() {
    let _serial = BUDGET_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let mut controller = MpcController::paper_default();
    let mut buffers = PlanBuffers::new();
    let mut ctx = SegmentContext {
        index: 0,
        upcoming: (0..5).map(|i| SiTi::new(50.0 + i as f64, 20.0)).collect(),
        predicted_bandwidth_bps: 1.0e6,
        buffer_sec: 1.5,
        switching_speed_deg_s: 8.0,
        ptile_available: true,
        ptile_area_frac: 9.0 / 32.0,
        background_blocks: 3,
        ftile_fov_area: 0.0,
        ftile_fov_tiles: 0,
    };
    let _ = controller.plan_into(&ctx, &mut buffers); // sizes the scratch
    let before = ALLOC.live_bytes();
    for k in 1..=SOLVER_PLANS {
        ctx.index = k;
        ctx.predicted_bandwidth_bps = 1.0e6 + k as f64 * 1.7e3;
        let _ = std::hint::black_box(controller.plan_into(&ctx, &mut buffers));
    }
    let grown = ALLOC.live_bytes().saturating_sub(before);
    let stats = controller.solver_stats().expect("mpc meters its solver");
    assert_eq!(stats.plans, SOLVER_PLANS as u64 + 1, "every plan solved");
    assert!(
        grown <= SOLVER_GROWTH_BUDGET_BYTES,
        "{SOLVER_PLANS} distinct plans grew the live heap by {grown} B, over the \
         {SOLVER_GROWTH_BUDGET_BYTES} B budget"
    );
}
