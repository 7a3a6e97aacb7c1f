//! The user-order fan-out of traced paper sessions.
//!
//! [`fleet_sessions_traced`] runs one (video, scheme) cell's evaluation
//! users, each as one closed loop of the [`crate::client`] phase loop
//! (controller, predictor, download, energy/QoE booking, private
//! recorder), fanned out across the worker pool and merged in
//! user-index order. [`Evaluation::run_traced`] is this fan-out folded
//! into the cell's aggregate. Every session borrows the evaluation's one
//! network trace and the caller's one fault plan; nothing per session is
//! cloned.

use ee360_abr::controller::Scheme;
use ee360_obs::{Record, Recorder};
use ee360_sim::fleet::EngineStats;
use ee360_sim::metrics::SessionMetrics;
use ee360_sim::resilience::RetryPolicy;
use ee360_support::parallel::parallel_map_indexed;
use ee360_trace::fault::FaultPlan;

use crate::client::{make_controller, run_session_counted};
use crate::experiment::Evaluation;

/// Runs one (video, scheme) cell's evaluation users on `threads` workers,
/// each with a private recorder (level, profiling and windows inherited
/// from `rec`), and merges the recorders into `rec` in user-index order.
/// Merge order is therefore a pure function of the input, whatever the
/// worker count. Returns the per-session metrics in user order plus the
/// summed tallies (whose `peak_queue_len` is the sessions a worker holds
/// live at once, 1; everything else is intrinsic).
///
/// # Panics
///
/// Panics if the video was not prepared.
pub fn fleet_sessions_traced(
    eval: &Evaluation,
    video_id: usize,
    scheme: Scheme,
    faults: &FaultPlan,
    policy: &RetryPolicy,
    threads: usize,
    rec: &mut Recorder,
) -> (Vec<SessionMetrics>, EngineStats) {
    let (users, setup) = eval.user_setups(video_id);
    let level = rec.level();
    let profiling = rec.profiling();
    let window_sec = rec.windows().map_or(0.0, |w| w.window_sec());
    let results: Vec<(SessionMetrics, EngineStats, Recorder)> =
        parallel_map_indexed(threads.max(1), users.len(), |i| {
            let mut session_rec = Recorder::new(level)
                .with_profiling(profiling)
                .with_windows(window_sec);
            let setup = setup(i);
            let mut controller = make_controller(scheme, setup.phone);
            let (metrics, stats) = run_session_counted(
                controller.as_mut(),
                &setup,
                faults,
                policy,
                &mut session_rec,
            );
            (metrics, stats, session_rec)
        });
    let mut sessions = Vec::with_capacity(results.len());
    let mut stats = EngineStats::default();
    for (metrics, session_stats, session_rec) in results {
        rec.count("experiment.sessions", 1);
        rec.merge_registry(session_rec.registry());
        rec.merge_windows(session_rec.windows());
        for event in session_rec.events() {
            rec.record(event.clone());
        }
        stats.accumulate(&session_stats);
        sessions.push(metrics);
    }
    (sessions, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{ExperimentConfig, SchemeOutcome};
    use ee360_obs::Level;
    use ee360_support::json;
    use ee360_trace::fault::FaultConfig;
    use ee360_video::catalog::VideoCatalog;

    fn quick_eval() -> Evaluation {
        let mut config = ExperimentConfig::quick_test();
        config.max_segments = Some(30);
        Evaluation::prepare_videos_threaded(config, &VideoCatalog::paper_default(), Some(&[2]), 1)
    }

    /// Golden `SchemeOutcome` bytes of the quick video-2 Ours cell under
    /// the seed-11 chaos plan.
    const PINNED_CHAOS_OUTCOME: &str = concat!(
        r#"{"scheme":"Ours","video_id":2,"users":2,"segments":30,"#,
        r#""mean_energy_mj_per_segment":1483.7343681592577,"#,
        r#""mean_transmission_mj":981.7593681592574,"mean_decode_mj":318.93399999999997,"#,
        r#""mean_render_mj":183.04100000000003,"mean_qoe":90.82058711019086,"#,
        r#""mean_quality":96.44941848137557,"mean_variation":3.2700603051969,"#,
        r#""mean_rebuffering":2.358771065987813,"mean_stall_sec":2.5745059356812017,"#,
        r#""mean_quality_level":4.566666666666666,"mean_fps":29.9}"#
    );

    /// Golden merged obs-report bytes (Detail level) of the same cell.
    const PINNED_CHAOS_REPORT: &str = concat!(
        r#"{"schema":"ee360-obs-report-v1","level":"detail","events_recorded":248,"#,
        r#""events_dropped":0,"spans":{},"metrics":{"counters":{"experiment.sessions":2,"#,
        r#""mpc.memo_hits":0,"mpc.memo_misses":0,"mpc.plans":60,"#,
        r#""mpc.states_expanded":8000,"resilience.attempts":62,"resilience.losses":2,"#,
        r#""resilience.retries":2,"resilience.timeouts":2},"#,
        r#""gauges":{"session.segments":30.0},"histograms":{"#,
        r#""energy.decode_mj":{"count":60,"sum":19136.039999999997,"min":301.65,"#,
        r#""max":319.53,"p50":319.53,"p95":319.53,"p99":319.53,"buckets":[[512.0,60]]},"#,
        r#""energy.render_mj":{"count":60,"sum":10982.460000000001,"#,
        r#""min":170.89000000000001,"max":183.46,"p50":183.46,"p95":183.46,"p99":183.46,"#,
        r#""buckets":[[256.0,60]]},"#,
        r#""energy.transmission_mj":{"count":62,"sum":58905.562089555446,"#,
        r#""min":249.82200960883338,"max":1595.7014460434211,"p50":1024.0,"#,
        r#""p95":1595.7014460434211,"p99":1595.7014460434211,"#,
        r#""buckets":[[256.0,2],[512.0,6],[1024.0,24],[2048.0,30]]},"#,
        r#""resilience.backoff_sec":{"count":2,"sum":0.5,"min":0.25,"max":0.25,"#,
        r#""p50":0.25,"p95":0.25,"p99":0.25,"buckets":[[0.5,2]]},"#,
        r#""resilience.recovery_sec":{"count":60,"sum":8.5,"min":0.0,"max":4.25,"#,
        r#""p50":0.0000000009313225746154785,"p95":0.0000000009313225746154785,"#,
        r#""p99":4.25,"buckets":[[0.0000000009313225746154785,58],[8.0,2]]},"#,
        r#""resilience.wasted_bits":{"count":60,"sum":0.0,"min":0.0,"max":0.0,"#,
        r#""p50":0.0,"p95":0.0,"p99":0.0,"buckets":[[0.0000000009313225746154785,60]]},"#,
        r#""session.stall_sec":{"count":60,"sum":5.149011871362403,"min":0.0,"#,
        r#""max":2.119835874300879,"p50":0.0000000009313225746154785,"p95":0.5,"#,
        r#""p99":2.119835874300879,"#,
        r#""buckets":[[0.0000000009313225746154785,56],[0.5,2],[4.0,2]]}}}}"#
    );

    #[test]
    fn chaos_cell_outcome_and_report_are_pinned() {
        let eval = quick_eval();
        let faults = FaultPlan::generate(FaultConfig::chaos_default(), 300.0, 11);
        let policy = RetryPolicy::default_mobile();
        let mut rec = Recorder::new(Level::Detail);
        let outcome = eval.run_traced(2, Scheme::Ours, &faults, &policy, &mut rec);
        assert_eq!(json::to_string(&outcome).unwrap(), PINNED_CHAOS_OUTCOME);
        assert_eq!(
            json::to_string(&ee360_obs::export::report_json(&rec)).unwrap(),
            PINNED_CHAOS_REPORT
        );
        let mut fleet_rec = Recorder::new(Level::Detail);
        let (sessions, _) =
            fleet_sessions_traced(&eval, 2, Scheme::Ours, &faults, &policy, 1, &mut fleet_rec);
        let fleet_outcome = SchemeOutcome::from_sessions(Scheme::Ours, 2, &sessions);
        assert_eq!(
            json::to_string(&fleet_outcome).unwrap(),
            PINNED_CHAOS_OUTCOME
        );
        assert_eq!(
            json::to_string(&ee360_obs::export::report_json(&fleet_rec)).unwrap(),
            PINNED_CHAOS_REPORT
        );
    }

    #[test]
    fn fleet_threads_do_not_change_results() {
        let eval = quick_eval();
        let faults = FaultPlan::generate(FaultConfig::none(), 300.0, 3);
        let policy = RetryPolicy::default_mobile();
        let run = |threads: usize| {
            let mut rec = Recorder::new(Level::Summary);
            let (sessions, stats) =
                fleet_sessions_traced(&eval, 2, Scheme::Ptile, &faults, &policy, threads, &mut rec);
            (
                json::to_string(&sessions).unwrap(),
                (stats.events, stats.replans, stats.download_completes),
                json::to_string(&ee360_obs::export::report_json(&rec)).unwrap(),
            )
        };
        let baseline = run(1);
        for threads in [2usize, 4, 16] {
            assert_eq!(run(threads), baseline, "{threads} threads diverged");
        }
    }
}
