//! Determinism gate for the user-level and video-level parallelism.
//!
//! `Evaluation::run` (session fan-out) and `Evaluation::prepare_videos`
//! (per-video preparation fan-out) must produce results **byte-identical**
//! to the sequential path — compared via JSON serialisation — at every
//! worker count. Together with `replay_determinism.rs` this pins the
//! whole pipeline: thread schedule must never leak into results.

use ee360_abr::controller::Scheme;
use ee360_core::experiment::{Evaluation, ExperimentConfig};
use ee360_core::parallel::run_matrix;
use ee360_support::json;
use ee360_video::catalog::VideoCatalog;

fn quick_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::quick_test();
    config.max_segments = Some(30);
    config
}

fn outcome_json(eval: &Evaluation, video: usize, scheme: Scheme) -> String {
    json::to_string(&eval.run(video, scheme)).unwrap()
}

#[test]
fn prepare_videos_identical_across_worker_counts() {
    let config = quick_config();
    let catalog = VideoCatalog::paper_default();
    let videos = [2usize, 6];
    let sequential = Evaluation::prepare_videos_threaded(config, &catalog, Some(&videos), 1);
    let baseline: Vec<String> = videos
        .iter()
        .map(|&v| outcome_json(&sequential, v, Scheme::Ptile))
        .collect();
    let network_baseline = json::to_string(sequential.network()).unwrap();
    for threads in [4usize, 16] {
        let eval = Evaluation::prepare_videos_threaded(config, &catalog, Some(&videos), threads);
        assert_eq!(
            json::to_string(eval.network()).unwrap(),
            network_baseline,
            "network differs at {threads} threads"
        );
        for (i, &v) in videos.iter().enumerate() {
            assert_eq!(
                eval.eval_users(v).len(),
                sequential.eval_users(v).len(),
                "eval split differs at {threads} threads"
            );
            assert_eq!(
                outcome_json(&eval, v, Scheme::Ptile),
                baseline[i],
                "video {v} outcome differs at {threads} threads"
            );
        }
    }
}

#[test]
fn session_fanout_identical_across_worker_counts() {
    let config = quick_config();
    let catalog = VideoCatalog::paper_default();
    let sequential = Evaluation::prepare_videos_threaded(config, &catalog, Some(&[2]), 1);
    for scheme in [Scheme::Ctile, Scheme::Ours] {
        let baseline = outcome_json(&sequential, 2, scheme);
        for threads in [4usize, 16] {
            let fanned = sequential.clone().with_session_threads(threads);
            assert_eq!(
                outcome_json(&fanned, 2, scheme),
                baseline,
                "{scheme:?} differs at {threads} session threads"
            );
        }
    }
}

#[test]
fn matrix_sweep_identical_with_nested_fanout() {
    // Cell-level parallelism (run_matrix) composed with session-level
    // fan-out must still match the fully sequential double loop.
    let config = quick_config();
    let catalog = VideoCatalog::paper_default();
    let videos = [2usize, 6];
    let schemes = [Scheme::Ctile, Scheme::Ptile, Scheme::Ours];
    let eval = Evaluation::prepare_videos_threaded(config, &catalog, Some(&videos), 1);
    let sequential: Vec<String> = videos
        .iter()
        .flat_map(|&v| schemes.iter().map(move |&s| (v, s)))
        .map(|(v, s)| outcome_json(&eval, v, s))
        .collect();
    let fanned = eval.clone().with_session_threads(2);
    let parallel: Vec<String> = run_matrix(&fanned, &videos, &schemes, 4)
        .iter()
        .map(|o| json::to_string(o).unwrap())
        .collect();
    assert_eq!(parallel, sequential);
}

#[test]
fn scheme_order_does_not_change_results() {
    // No state may carry from one session to the next on a thread: the
    // cells run in `Scheme::ALL` order across workers must equal the same
    // cells run one at a time, in reverse order, on one thread.
    let config = quick_config();
    let catalog = VideoCatalog::paper_default();
    let videos = [2usize, 6];
    let eval = Evaluation::prepare_videos_threaded(config, &catalog, Some(&videos), 1);
    let forward: Vec<String> = run_matrix(&eval, &videos, &Scheme::ALL, 2)
        .iter()
        .map(|o| json::to_string(o).unwrap())
        .collect();
    let cells: Vec<(usize, Scheme)> = videos
        .iter()
        .flat_map(|&v| Scheme::ALL.into_iter().map(move |s| (v, s)))
        .collect();
    let mut reversed: Vec<String> = cells
        .iter()
        .rev()
        .map(|&(v, s)| {
            let cell = run_matrix(&eval, &[v], &[s], 1);
            json::to_string(&cell[0]).unwrap()
        })
        .collect();
    reversed.reverse();
    assert_eq!(forward.len(), cells.len());
    for ((&(video, scheme), a), b) in cells.iter().zip(&forward).zip(&reversed) {
        assert_eq!(a, b, "video {video} {scheme:?} depends on scheme order");
    }
}
