//! Memory-bound regression gate for the fleet engine.
//!
//! Runs a 100k-session scale fleet behind the counting-allocator shim
//! and asserts the peak heap stays under a pinned per-session budget.
//! The fleet's scaling story rests on O(100 B) hot state per session
//! (driver scalars + one retained summary, with shards streamed in
//! bounded waves) — if anyone reintroduces a per-segment vector or
//! starts retaining `SessionMetrics`, the peak jumps by orders of
//! magnitude and this test fails loudly.
//!
//! The allocator counts every thread's heap in one process-wide peak, so
//! the budget tests take [`BUDGET_LOCK`] and run one at a time: each
//! peak then holds only its own fleet, whatever `--test-threads` says.

use std::sync::{Mutex, PoisonError};

use ee360_obs::TelemetryConfig;
use ee360_sim::fleet::{run_scale_fleet, FleetConfig};
use ee360_support::alloc::CountingAlloc;
use ee360_trace::fault::{FaultConfig, FaultPlan};
use ee360_trace::network::NetworkTrace;

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
