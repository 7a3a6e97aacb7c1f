//! Fanning sessions out must not change them.
//!
//! `ee360::core::fleet::fleet_sessions_traced` fans a cell's paper
//! sessions out across workers and merges their recorders in user order;
//! `run_session_traced` runs the same sessions one after another as
//! closed loops. These tests pin the two **bit-identical** — per-session
//! metrics JSON (every QoE/energy/stall f64), the per-session
//! QoE/energy/stall tuples and `ResilienceCounters` by exact bits, and
//! the merged obs report bytes — across fleet sizes N ∈ {1, 4, 48},
//! benign and chaos fault plans, and worker counts ∈ {1, 4, 16}. A seeded
//! property test varies the fault plan itself. Golden pins fix the chaos
//! cell's aggregate, report bytes and per-kind tallies. The `#[ignore]`d
//! matrix test extends the equivalence to the paper's full 48-user ×
//! 8-video evaluation and is run in release by `scripts/ci.sh`.

use std::sync::OnceLock;

use ee360::abr::controller::Scheme;
use ee360::core::client::{make_controller, run_session_traced, SessionSetup};
use ee360::core::experiment::{Evaluation, ExperimentConfig};
use ee360::core::fleet::fleet_sessions_traced;
use ee360::obs::{export, Level, Record, Recorder};
use ee360::sim::metrics::SessionMetrics;
use ee360::sim::resilience::RetryPolicy;
use ee360::trace::fault::{FaultConfig, FaultPlan};
use ee360::video::catalog::VideoCatalog;
use ee360_support::json::to_string;
use ee360_support::{prop_assert_eq, proptest};

fn benign_plan() -> FaultPlan {
    FaultPlan::generate(FaultConfig::none(), 400.0, 3)
}

fn chaos_plan() -> FaultPlan {
    FaultPlan::generate(FaultConfig::chaos_default(), 400.0, 77).and_outage(30.0, 8.0)
}

/// Prepares an evaluation whose video 2 has exactly `n` eval users.
fn eval_with_users(n: usize, max_segments: usize) -> Evaluation {
    let mut config = ExperimentConfig::quick_test();
    config.train_users = 8;
    config.users_total = 8 + n;
    config.max_segments = Some(max_segments);
    Evaluation::prepare_videos_threaded(config, &VideoCatalog::paper_default(), Some(&[2]), 1)
}

/// The sequential reference: every user as one closed loop, one after
/// another, recorders merged in user order — the `Evaluation::run_traced`
/// merge sequence, spelled out so the per-session metrics stay
/// accessible.
fn loop_reference(
    eval: &Evaluation,
    video: usize,
    scheme: Scheme,
    faults: &FaultPlan,
    policy: &RetryPolicy,
    level: Level,
) -> (Vec<SessionMetrics>, Recorder) {
    let server = eval.server(video).expect("video prepared");
    let users = eval.eval_users(video);
    let mut rec = Recorder::new(level);
    let mut sessions = Vec::with_capacity(users.len());
    for user in users {
        let mut session_rec = Recorder::new(level);
        let mut controller = make_controller(scheme, eval.config().phone);
        let metrics = run_session_traced(
            controller.as_mut(),
            &SessionSetup {
                server,
                user,
                network: eval.network(),
                phone: eval.config().phone,
                max_segments: eval.config().max_segments,
            },
            faults,
            policy,
            &mut session_rec,
        );
        rec.count("experiment.sessions", 1);
        rec.merge_registry(session_rec.registry());
        for event in session_rec.events() {
            rec.record(event.clone());
        }
        sessions.push(metrics);
    }
    (sessions, rec)
}

fn report_bytes(rec: &Recorder) -> String {
    to_string(&export::report_json(rec)).expect("obs report serializes")
}

/// Asserts sequential and fanned-out runs are bit-identical at every
/// level: session JSON, QoE/energy/stall bits, counters, report.
fn assert_bit_identical(
    label: &str,
    loop_sessions: &[SessionMetrics],
    loop_rec: &Recorder,
    fleet_sessions: &[SessionMetrics],
    fleet_rec: &Recorder,
) {
    assert_eq!(
        loop_sessions.len(),
        fleet_sessions.len(),
        "{label}: session count"
    );
    for (i, (a, b)) in loop_sessions.iter().zip(fleet_sessions).enumerate() {
        assert_eq!(
            a.mean_qoe().to_bits(),
            b.mean_qoe().to_bits(),
            "{label}: session {i} QoE bits"
        );
        assert_eq!(
            a.total_energy_mj().to_bits(),
            b.total_energy_mj().to_bits(),
            "{label}: session {i} energy bits"
        );
        assert_eq!(
            a.total_stall_sec().to_bits(),
            b.total_stall_sec().to_bits(),
            "{label}: session {i} stall bits"
        );
        assert_eq!(
            a.resilience(),
            b.resilience(),
            "{label}: session {i} counters"
        );
        assert_eq!(
            to_string(a).unwrap(),
            to_string(b).unwrap(),
            "{label}: session {i} full metrics JSON"
        );
    }
    assert_eq!(
        report_bytes(loop_rec),
        report_bytes(fleet_rec),
        "{label}: merged obs report bytes"
    );
}

#[test]
fn fleet_matches_loop_across_sizes_plans_and_threads() {
    let policy = RetryPolicy::default_mobile();
    for n in [1usize, 4, 48] {
        // Keep the 48-session case affordable in debug builds.
        let segments = if n == 48 { 8 } else { 15 };
        let eval = eval_with_users(n, segments);
        for (faults, plan_label) in [(benign_plan(), "benign"), (chaos_plan(), "chaos")] {
            let (loop_sessions, loop_rec) =
                loop_reference(&eval, 2, Scheme::Ours, &faults, &policy, Level::Summary);
            for threads in [1usize, 4, 16] {
                let mut fleet_rec = Recorder::new(Level::Summary);
                let (fleet_sessions, stats) = fleet_sessions_traced(
                    &eval,
                    2,
                    Scheme::Ours,
                    &faults,
                    &policy,
                    threads,
                    &mut fleet_rec,
                );
                assert!(stats.events > 0, "sessions must be tallied");
                assert_bit_identical(
                    &format!("N={n} plan={plan_label} threads={threads}"),
                    &loop_sessions,
                    &loop_rec,
                    &fleet_sessions,
                    &fleet_rec,
                );
            }
        }
    }
}

/// The robust controller is stateful across segments (residual and
/// margin sketches warm as outcomes arrive), which makes it the
/// sharpest probe of fan-out equivalence: any ordering difference in how
/// outcomes reach it would skew a sketch and fork the plans.
#[test]
fn robust_mpc_fleet_matches_loop() {
    let policy = RetryPolicy::default_mobile();
    let eval = eval_with_users(4, 15);
    for (faults, plan_label) in [(benign_plan(), "benign"), (chaos_plan(), "chaos")] {
        let (loop_sessions, loop_rec) = loop_reference(
            &eval,
            2,
            Scheme::RobustMpc,
            &faults,
            &policy,
            Level::Summary,
        );
        for threads in [1usize, 4] {
            let mut fleet_rec = Recorder::new(Level::Summary);
            let (fleet_sessions, _stats) = fleet_sessions_traced(
                &eval,
                2,
                Scheme::RobustMpc,
                &faults,
                &policy,
                threads,
                &mut fleet_rec,
            );
            assert_bit_identical(
                &format!("robust plan={plan_label} threads={threads}"),
                &loop_sessions,
                &loop_rec,
                &fleet_sessions,
                &fleet_rec,
            );
        }
    }
}

/// Golden `SchemeOutcome` bytes of the 4-user × 15-segment chaos cell
/// (video 2, Ours).
const PINNED_CELL_OUTCOME: &str = concat!(
    r#"{"scheme":"Ours","video_id":2,"users":4,"segments":15,"#,
    r#""mean_energy_mj_per_segment":1443.648853254381,"#,
    r#""mean_transmission_mj":944.7188532543811,"mean_decode_mj":317.14599999999984,"#,
    r#""mean_render_mj":181.78400000000002,"mean_qoe":80.30205737679651,"#,
    r#""mean_quality":91.44393329408669,"mean_variation":5.196741575184199,"#,
    r#""mean_rebuffering":5.945134342105964,"mean_stall_sec":3.818921525679289,"#,
    r#""mean_quality_level":4.133333333333334,"mean_fps":29.6}"#
);

/// Golden merged obs-report bytes (Detail level) of the same cell.
const PINNED_CELL_REPORT: &str = concat!(
    r#"{"schema":"ee360-obs-report-v1","level":"detail","events_recorded":264,"#,
    r#""events_dropped":0,"spans":{},"metrics":{"counters":{"experiment.sessions":4,"#,
    r#""mpc.memo_hits":0,"mpc.memo_misses":0,"mpc.plans":60,"#,
    r#""mpc.states_expanded":12400,"resilience.attempts":68,"resilience.corruptions":4,"#,
    r#""resilience.decoder_failures":4,"resilience.losses":4,"resilience.retries":8,"#,
    r#""resilience.timeouts":4},"gauges":{"session.segments":15.0},"histograms":{"#,
    r#""energy.decode_mj":{"count":60,"sum":19028.75999999999,"min":301.65,"#,
    r#""max":319.53,"p50":319.53,"p95":319.53,"p99":319.53,"buckets":[[512.0,60]]},"#,
    r#""energy.render_mj":{"count":60,"sum":10907.04,"min":170.89000000000001,"#,
    r#""max":183.46,"p50":183.46,"p95":183.46,"p99":183.46,"buckets":[[256.0,60]]},"#,
    r#""energy.transmission_mj":{"count":64,"sum":56683.13119526287,"#,
    r#""min":249.82200960883338,"max":1655.554791322327,"p50":1024.0,"#,
    r#""p95":1655.554791322327,"p99":1655.554791322327,"#,
    r#""buckets":[[256.0,4],[1024.0,48],[2048.0,12]]},"#,
    r#""resilience.backoff_sec":{"count":8,"sum":2.0,"min":0.25,"max":0.25,"#,
    r#""p50":0.25,"p95":0.25,"p99":0.25,"buckets":[[0.5,8]]},"#,
    r#""resilience.recovery_sec":{"count":60,"sum":25.9675438199039,"min":0.0,"#,
    r#""max":4.249999999999999,"p50":0.0000000009313225746154785,"#,
    r#""p95":4.249999999999999,"p99":4.249999999999999,"#,
    r#""buckets":[[0.0000000009313225746154785,48],[1.0,4],[2.0,4],[8.0,4]]},"#,
    r#""resilience.wasted_bits":{"count":60,"sum":6145737.97192544,"min":0.0,"#,
    r#""max":1536434.49298136,"p50":0.0000000009313225746154785,"#,
    r#""p95":1536434.49298136,"p99":1536434.49298136,"#,
    r#""buckets":[[0.0000000009313225746154785,56],[2097152.0,4]]},"#,
    r#""session.stall_sec":{"count":60,"sum":15.275686102717156,"min":0.0,"#,
    r#""max":3.2621005254725586,"p50":0.0000000009313225746154785,"#,
    r#""p95":3.2621005254725586,"p99":3.2621005254725586,"#,
    r#""buckets":[[0.0000000009313225746154785,52],[1.0,4],[4.0,4]]}}}}"#
);

/// Pins the chaos cell's aggregate (through `run_traced`), its merged
/// report bytes (through both entry points), and the per-kind tallies `fleet_sessions_traced` counts:
/// one replan per segment plus a terminal one per session, one completion
/// per segment, one fault fire per unresolved download step, and a stall
/// start/end pair per booking that stalled.
#[test]
fn chaos_cell_outcome_report_and_counts_are_pinned() {
    let eval = eval_with_users(4, 15);
    let faults = chaos_plan();
    let policy = RetryPolicy::default_mobile();
    let mut rec = Recorder::new(Level::Detail);
    let outcome = eval.run_traced(2, Scheme::Ours, &faults, &policy, &mut rec);
    assert_eq!(to_string(&outcome).unwrap(), PINNED_CELL_OUTCOME);
    assert_eq!(report_bytes(&rec), PINNED_CELL_REPORT);
    for threads in [1usize, 4] {
        let mut fleet_rec = Recorder::new(Level::Detail);
        let (sessions, stats) = fleet_sessions_traced(
            &eval,
            2,
            Scheme::Ours,
            &faults,
            &policy,
            threads,
            &mut fleet_rec,
        );
        assert_eq!(sessions.len(), 4);
        assert_eq!(report_bytes(&fleet_rec), PINNED_CELL_REPORT);
        let counts = (
            stats.replans,
            stats.download_completes,
            stats.fault_fires,
            stats.stall_starts,
            stats.stall_ends,
            stats.events,
        );
        assert_eq!(counts, (64, 60, 8, 8, 8, 148), "threads={threads}");
    }
}

fn shared_eval() -> &'static Evaluation {
    static EVAL: OnceLock<Evaluation> = OnceLock::new();
    EVAL.get_or_init(|| eval_with_users(2, 12))
}

proptest! {
    /// Seeded property: whatever the chaos plan (fault seed, outage
    /// window) and worker count, the fanned-out run replays the
    /// sequential one bit-for-bit.
    #[test]
    fn random_fault_plans_stay_bit_identical(
        seed in 0u64..10_000,
        outage_start in 5.0f64..60.0,
        outage_sec in 1.0f64..10.0,
        threads in 1usize..6
    ) {
        let eval = shared_eval();
        let faults = FaultPlan::generate(FaultConfig::chaos_default(), 400.0, seed)
            .and_outage(outage_start, outage_sec);
        let policy = RetryPolicy::default_mobile();
        let (loop_sessions, loop_rec) =
            loop_reference(eval, 2, Scheme::Ours, &faults, &policy, Level::Summary);
        let mut fleet_rec = Recorder::new(Level::Summary);
        let (fleet_sessions, _stats) =
            fleet_sessions_traced(eval, 2, Scheme::Ours, &faults, &policy, threads, &mut fleet_rec);
        prop_assert_eq!(loop_sessions.len(), fleet_sessions.len());
        for (a, b) in loop_sessions.iter().zip(&fleet_sessions) {
            prop_assert_eq!(to_string(a).unwrap(), to_string(b).unwrap());
        }
        prop_assert_eq!(report_bytes(&loop_rec), report_bytes(&fleet_rec));
    }
}

/// The acceptance-criteria pin: the paper's full 48-user × 8-video
/// matrix (40 train + 8 eval streamers per video, full-length videos),
/// benign and chaos, sequential vs fanned out on 4 workers,
/// bit-identical. Heavy — run in
/// release via `scripts/ci.sh` (`--include-ignored`).
#[test]
#[ignore = "full paper matrix; scripts/ci.sh runs it in release"]
fn full_paper_matrix_is_bit_identical() {
    let config = ExperimentConfig::paper_trace2();
    let catalog = VideoCatalog::paper_default();
    let eval = Evaluation::prepare_videos(config, &catalog, None);
    let videos: Vec<usize> = catalog.videos().iter().map(|s| s.id).collect();
    assert_eq!(videos.len(), 8, "paper catalog has 8 videos");
    let policy = RetryPolicy::default_mobile();
    for (faults, plan_label) in [(benign_plan(), "benign"), (chaos_plan(), "chaos")] {
        for &video in &videos {
            let (loop_sessions, loop_rec) =
                loop_reference(&eval, video, Scheme::Ours, &faults, &policy, Level::Summary);
            let mut fleet_rec = Recorder::new(Level::Summary);
            let (fleet_sessions, _stats) = fleet_sessions_traced(
                &eval,
                video,
                Scheme::Ours,
                &faults,
                &policy,
                4,
                &mut fleet_rec,
            );
            assert_bit_identical(
                &format!("matrix video={video} plan={plan_label}"),
                &loop_sessions,
                &loop_rec,
                &fleet_sessions,
                &fleet_rec,
            );
        }
    }
}
