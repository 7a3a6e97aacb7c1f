//! Observability reconciliation: the obs layer is a mirror, not a model.
//!
//! Every `resilience.*` counter bump and every histogram observation is
//! emitted at the *same statement* with the *same value* as the
//! simulation's own accounting, and sums accumulate in the same order —
//! so a seeded chaos run's obs-derived totals must equal the end-of-run
//! `ResilienceCounters` / `SessionMetrics` aggregates exactly (integer
//! `==` and bit-exact f64), not approximately. These tests also pin the
//! JSON round-trips of both aggregate types and the thread-independence
//! of the experiment-level registry merge.

use ee360::abr::controller::Scheme;
use ee360::cluster::ptile::PtileConfig;
use ee360::core::client::{
    make_controller, run_session_resilient, run_session_traced, SessionSetup,
};
use ee360::core::experiment::{Evaluation, ExperimentConfig};
use ee360::core::server::VideoServer;
use ee360::geom::grid::TileGrid;
use ee360::obs::{Level, Recorder};
use ee360::power::model::Phone;
use ee360::sim::metrics::SessionMetrics;
use ee360::sim::resilience::{ResilienceCounters, RetryPolicy};
use ee360::trace::dataset::VideoTraces;
use ee360::trace::fault::{FaultConfig, FaultPlan};
use ee360::trace::head::{GazeConfig, HeadTrace};
use ee360::trace::network::NetworkTrace;
use ee360::video::catalog::VideoCatalog;
use ee360_support::json::{from_str, to_string};

fn chaos_setup() -> (VideoServer, VideoTraces, NetworkTrace) {
    let catalog = VideoCatalog::paper_default();
    let spec = catalog.video(2).expect("catalog has video 2");
    let traces = VideoTraces::generate(spec, 10, 5, GazeConfig::default());
    let refs: Vec<&HeadTrace> = traces.traces().iter().collect();
    let server = VideoServer::prepare(
        spec,
        &refs[..8],
        TileGrid::paper_default(),
        PtileConfig::paper_default(),
    );
    let network = NetworkTrace::paper_trace2(400, 5);
    (server, traces, network)
}

fn chaos_traced(rec: &mut Recorder) -> SessionMetrics {
    let (server, traces, network) = chaos_setup();
    let user = traces.traces().last().expect("generated users");
    let setup = SessionSetup {
        server: &server,
        user,
        network: &network,
        phone: Phone::Pixel3,
        max_segments: Some(40),
    };
    let faults = FaultPlan::generate(FaultConfig::chaos_default(), 400.0, 77).and_outage(30.0, 8.0);
    run_session_traced(
        make_controller(Scheme::Ours, setup.phone).as_mut(),
        &setup,
        &faults,
        &RetryPolicy::default_mobile(),
        rec,
    )
}

#[test]
fn resilience_counters_json_roundtrip() {
    let mut rec = Recorder::new(Level::Detail);
    let metrics = chaos_traced(&mut rec);
    let counters = *metrics.resilience();
    assert!(counters.attempts > 0, "chaos run must attempt downloads");
    let json = to_string(&counters).expect("counters serialize");
    let back: ResilienceCounters = from_str(&json).expect("counters parse");
    assert_eq!(back, counters);
}

#[test]
fn session_metrics_json_roundtrip() {
    let mut rec = Recorder::new(Level::Summary);
    let metrics = chaos_traced(&mut rec);
    let json = to_string(&metrics).expect("metrics serialize");
    let back: SessionMetrics = from_str(&json).expect("metrics parse");
    assert_eq!(back, metrics);
    assert_eq!(to_string(&back).expect("re-serialize"), json);
}

/// The headline acceptance criterion: obs counters reconcile exactly —
/// integer equality for counts, bit-exact f64 equality for the summed
/// histograms — with the simulation's own end-of-run aggregates.
#[test]
fn obs_registry_reconciles_exactly_with_session_aggregates() {
    let mut rec = Recorder::new(Level::Detail);
    let metrics = chaos_traced(&mut rec);
    let r = *metrics.resilience();
    assert!(
        r.retries + r.abandons + r.skipped_segments > 0,
        "the chaos plan must actually exercise the resilience machinery: {r:?}"
    );

    let reg = rec.registry();
    assert_eq!(reg.counter("resilience.attempts"), r.attempts as u64);
    assert_eq!(reg.counter("resilience.retries"), r.retries as u64);
    assert_eq!(reg.counter("resilience.timeouts"), r.timeouts as u64);
    assert_eq!(reg.counter("resilience.losses"), r.losses as u64);
    assert_eq!(reg.counter("resilience.corruptions"), r.corruptions as u64);
    assert_eq!(reg.counter("resilience.abandons"), r.abandons as u64);
    assert_eq!(
        reg.counter("resilience.decoder_failures"),
        r.decoder_failures as u64
    );
    assert_eq!(
        reg.counter("resilience.skipped_segments"),
        r.skipped_segments as u64
    );
    assert_eq!(
        reg.counter("resilience.degraded_segments"),
        r.degraded_segments as u64
    );
    assert_eq!(
        reg.counter("resilience.degraded_rungs"),
        r.degraded_rungs as u64
    );

    // f64 sums accumulate in observation order — identical to the
    // counters' own sequential `+=` — so equality is bit-exact.
    assert_eq!(
        reg.hist_sum("resilience.backoff_sec").to_bits(),
        r.backoff_sec.to_bits()
    );
    assert_eq!(
        reg.hist_sum("resilience.blackout_sec").to_bits(),
        r.blackout_sec.to_bits()
    );
    assert_eq!(
        reg.hist_sum("resilience.recovery_sec").to_bits(),
        r.recovery_sec.to_bits()
    );
    assert_eq!(
        reg.hist_sum("resilience.wasted_bits").to_bits(),
        r.wasted_bits.to_bits()
    );
    assert_eq!(
        reg.hist_sum("session.stall_sec").to_bits(),
        metrics.total_stall_sec().to_bits()
    );
    let breakdown = metrics.energy_breakdown_mj();
    assert_eq!(
        reg.hist_sum("energy.transmission_mj").to_bits(),
        breakdown.transmission_mj.to_bits()
    );
    assert_eq!(
        reg.hist_sum("energy.decode_mj").to_bits(),
        breakdown.decode_mj.to_bits()
    );
    assert_eq!(
        reg.hist_sum("energy.render_mj").to_bits(),
        breakdown.render_mj.to_bits()
    );
}

/// The recorder is write-only: a live Detail recorder and no recorder
/// produce identical simulation output.
#[test]
fn live_recorder_does_not_perturb_the_session() {
    let (server, traces, network) = chaos_setup();
    let user = traces.traces().last().expect("generated users");
    let setup = SessionSetup {
        server: &server,
        user,
        network: &network,
        phone: Phone::Pixel3,
        max_segments: Some(40),
    };
    let faults = FaultPlan::generate(FaultConfig::chaos_default(), 400.0, 77).and_outage(30.0, 8.0);
    let policy = RetryPolicy::default_mobile();
    let untraced = run_session_resilient(Scheme::Ours, &setup, &faults, &policy);
    let mut rec = Recorder::new(Level::Detail);
    let traced = run_session_traced(
        make_controller(Scheme::Ours, setup.phone).as_mut(),
        &setup,
        &faults,
        &policy,
        &mut rec,
    );
    assert_eq!(untraced, traced);
    assert!(rec.events_len() > 0, "a chaos session must record events");
}

/// The MPC solver's work counters surface in the registry: the `Ours`
/// scheme plans via the DP solver, so `mpc.plans` must be positive and
/// every solve expands at least one `(state, candidate)` pair.
#[test]
fn mpc_solver_stats_surface_in_the_registry() {
    let mut rec = Recorder::new(Level::Summary);
    let metrics = chaos_traced(&mut rec);
    let reg = rec.registry();
    assert!(reg.counter("mpc.plans") > 0, "Ours must run the DP solver");
    assert!(
        reg.counter("mpc.plans") <= metrics.len() as u64,
        "at most one solve per planned segment"
    );
    assert!(
        reg.counter("mpc.states_expanded") >= reg.counter("mpc.plans"),
        "every solve expands at least its start state"
    );
}

/// The robust controller's uncertainty accounting mirrors into the
/// registry exactly: integer equality for the `robust.*` counters and a
/// bit-exact f64 sum for the widening histogram, both against the
/// controller's own end-of-run [`RobustStats`] — the obs layer observes
/// the same deltas, in the same order, as the controller accumulates.
#[test]
fn robust_counters_reconcile_exactly_with_controller_accounting() {
    use ee360::abr::controller::Controller;
    use ee360::abr::mpc::MpcConfig;
    use ee360::abr::robust::RobustMpcController;
    use ee360::core::client::run_session_traced;

    // The wandering-gaze regime from tests/robustness.rs: misses escape
    // the point slack often enough for the widening to engage while the
    // Ptile keeps covering the predicted viewport.
    let catalog = VideoCatalog::paper_default();
    let spec = catalog.video(5).expect("catalog has video 5");
    let gaze = GazeConfig {
        roam_probability: 0.15,
        exploratory_offset_deg: 14.0,
        flick_rate_hz: 1.8,
        ..GazeConfig::default()
    };
    let traces = VideoTraces::generate(spec, 12, 41, gaze);
    let refs: Vec<&HeadTrace> = traces.traces().iter().collect();
    let server = VideoServer::prepare(
        spec,
        &refs[..10],
        TileGrid::paper_default(),
        PtileConfig::paper_default(),
    );
    let network = NetworkTrace::paper_trace2(400, 41);
    let user = traces.traces().last().expect("generated users");
    let setup = SessionSetup {
        server: &server,
        user,
        network: &network,
        phone: Phone::Pixel3,
        max_segments: Some(80),
    };
    let faults = FaultPlan::generate(FaultConfig::chaos_default(), 400.0, 77).and_outage(30.0, 8.0);
    let mut cfg = MpcConfig::paper_default();
    cfg.phone = Phone::Pixel3;
    let mut controller = RobustMpcController::new(cfg);
    let mut rec = Recorder::new(Level::Summary);
    let _metrics = run_session_traced(
        &mut controller,
        &setup,
        &faults,
        &RetryPolicy::default_mobile(),
        &mut rec,
    );
    let stats = controller
        .robust_stats()
        .expect("robust controller reports stats");
    assert!(
        stats.widened_plans > 0,
        "the wandering-gaze chaos run must widen plans: {stats:?}"
    );
    let reg = rec.registry();
    assert_eq!(reg.counter("robust.margin_applied"), stats.margin_applied);
    assert_eq!(reg.counter("robust.widened_plans"), stats.widened_plans);
    assert_eq!(
        reg.counter("robust.coverage_miss_saved"),
        stats.coverage_miss_saved
    );
    assert_eq!(
        reg.hist_sum("robust.quantile_width_deg").to_bits(),
        stats.width_sum_deg.to_bits()
    );
}

/// The fleet telemetry pipeline reconciles against the whole-run
/// surfaces it mirrors: per-window deltas sum exactly (integer `==`) to
/// the folded `fleet.*` registry counters, the final cumulative row's
/// f64 fields equal the report totals bit-exactly, and the sampled
/// session set is a pure function of the seed — identical at every
/// worker count.
#[test]
fn fleet_window_series_reconciles_and_sampling_is_thread_independent() {
    use ee360::obs::TelemetryConfig;
    use ee360::sim::fleet::{run_scale_fleet, FleetConfig};
    let run = |threads: usize| {
        let network = NetworkTrace::paper_trace2(300, 9);
        let faults =
            FaultPlan::generate(FaultConfig::chaos_default(), 300.0, 13).and_outage(40.0, 6.0);
        let config = FleetConfig::new(800, 10, 31)
            .with_threads(threads)
            .with_telemetry(TelemetryConfig::standard());
        let mut rec = Recorder::new(Level::Summary);
        let (report, _stats, telemetry) = run_scale_fleet(&config, &network, &faults, &mut rec);
        (report, rec, telemetry.expect("telemetry requested"))
    };
    let (report, rec, tel) = run(1);
    let series = tel.series.as_ref().expect("windows enabled");

    // Window deltas partition the whole run: summing them recovers the
    // registry counters exactly.
    let deltas = series.deltas();
    assert!(deltas.len() > 1, "the run must span several windows");
    let reg = rec.registry();
    assert_eq!(
        deltas.iter().map(|d| d.segments).sum::<u64>(),
        reg.counter("fleet.segments")
    );
    assert_eq!(
        deltas.iter().map(|d| d.delivered).sum::<u64>(),
        reg.counter("fleet.delivered")
    );
    assert_eq!(
        deltas.iter().map(|d| d.skipped).sum::<u64>(),
        reg.counter("fleet.skipped")
    );

    // The final cumulative row is the report, bit for bit.
    let last = series.final_row().expect("series has windows");
    assert_eq!(last.segments as usize, report.segments);
    assert_eq!(last.stall_sec.to_bits(), report.total_stall_sec.to_bits());
    assert_eq!(last.energy_mj.to_bits(), report.total_energy_mj.to_bits());
    assert_eq!(last.bits.to_bits(), report.total_bits.to_bits());

    // Sampling is hash-of-(seed, session): the kept set never depends on
    // the worker count, and every kept session carries a Detail trace.
    let sampled = tel.sampled_sessions();
    assert!(!sampled.is_empty(), "1% of 800 sessions must keep traces");
    assert!(tel.trace_events() > 0);
    for threads in [4usize, 16] {
        let (_, _, tel_t) = run(threads);
        assert_eq!(
            tel_t.sampled_sessions(),
            sampled,
            "{threads} threads changed the sampled set"
        );
    }
}

/// Worst-K exemplar selection is a pure function of the offered set:
/// offering the same summaries in any order yields the same ranked
/// entries, because ties break on the session index, not arrival order.
#[test]
fn exemplar_top_k_is_stable_under_permuted_offer_order() {
    use ee360::obs::{ExemplarSet, ExemplarSummary};
    let summary = |session: u64, stall: f64| ExemplarSummary {
        session,
        stall_sec: stall,
        mean_qoe: 50.0,
        energy_mj: 1.0,
        delivered: 8,
        skipped: 0,
        startup_sec: 0.5,
    };
    // Includes a three-way tie at 4.0 so the index tie-break is load-bearing.
    let pool: Vec<(f64, u64)> = vec![
        (4.0, 7),
        (1.0, 0),
        (4.0, 2),
        (9.5, 11),
        (0.0, 3),
        (4.0, 5),
        (2.5, 1),
        (7.25, 4),
    ];
    let rank = |order: &[usize]| {
        let mut set = ExemplarSet::top(4);
        for &i in order {
            let (stall, session) = pool[i];
            set.offer(stall, summary(session, stall));
        }
        set.entries()
            .iter()
            .map(|(m, s)| (m.to_bits(), s.session))
            .collect::<Vec<_>>()
    };
    let forward: Vec<usize> = (0..pool.len()).collect();
    let reversed: Vec<usize> = (0..pool.len()).rev().collect();
    let interleaved: Vec<usize> = vec![4, 0, 6, 2, 7, 1, 5, 3];
    let baseline = rank(&forward);
    assert_eq!(baseline.len(), 4);
    // Worst stall first; the 4.0 tie resolves to the lowest session index.
    assert_eq!(baseline[0], (9.5f64.to_bits(), 11));
    assert_eq!(baseline[1], (7.25f64.to_bits(), 4));
    assert_eq!(baseline[2], (4.0f64.to_bits(), 2));
    assert_eq!(baseline[3], (4.0f64.to_bits(), 5));
    assert_eq!(rank(&reversed), baseline, "reverse order changed the top-K");
    assert_eq!(rank(&interleaved), baseline, "shuffle changed the top-K");
}

/// Experiment-level merge: the aggregated registry is identical for any
/// session-thread count, because per-session recorders are merged in
/// user index order after the fan-out joins.
#[test]
fn experiment_merge_is_thread_count_independent() {
    let mut config = ExperimentConfig::quick_test();
    config.max_segments = Some(25);
    let catalog = VideoCatalog::paper_default();
    let faults = FaultPlan::single_outage(10.0, 5.0);
    let policy = RetryPolicy::default_mobile();
    let run_with_threads = |threads: usize| {
        let eval =
            Evaluation::prepare_videos(config, &catalog, Some(&[2])).with_session_threads(threads);
        let mut rec = Recorder::new(Level::Detail);
        let outcome = eval.run_traced(2, Scheme::Ours, &faults, &policy, &mut rec);
        let registry_json =
            to_string(&ee360_support::json::ToJson::to_json(rec.registry())).expect("serializes");
        (outcome, registry_json, rec.events_len())
    };
    let (out_1, reg_1, events_1) = run_with_threads(1);
    let (out_4, reg_4, events_4) = run_with_threads(4);
    assert_eq!(out_1, out_4, "fan-out must not change the outcome");
    assert_eq!(reg_1, reg_4, "merged registry must be byte-identical");
    assert_eq!(events_1, events_4);
    assert!(events_1 > 0);
}
