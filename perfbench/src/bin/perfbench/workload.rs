//! The three workloads: their inputs, the timed driver each one runs,
//! and the one-session-at-a-time reference loop its outputs are checked
//! against.
//!
//! Every workload is a closed batch: a fixed set of sessions run from
//! this process on at most `threads` workers. The workload seed seeds
//! `ExperimentConfig::seed` (gaze traces, network trace, train/eval
//! split) and the fault plan; nothing else varies between seeds.

use ee360_abr::controller::{Controller, Scheme};
use ee360_core::client::{make_controller, run_session_resilient, SessionRunner, SessionSetup};
use ee360_core::experiment::{Evaluation, ExperimentConfig, SchemeOutcome};
use ee360_core::fleet::fleet_sessions_traced;
use ee360_core::parallel::run_matrix;
use ee360_obs::{Level, NoopRecorder, Record, Recorder};
use ee360_power::model::Phone;
use ee360_sim::fleet::EngineStats;
use ee360_sim::metrics::SessionMetrics;
use ee360_sim::resilience::RetryPolicy;
use ee360_support::parallel::parallel_map_indexed;
use ee360_trace::fault::{FaultConfig, FaultPlan};
use ee360_video::catalog::VideoCatalog;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figs. 9/11 matrix under trace 2 on a Pixel 3, benign network.
    PaperMatrix,
    /// Ours + RobustMpc under trace 1 on a Galaxy S20, chaos faults.
    MpcChaos,
    /// Many short baseline sessions on the event engine into a live
    /// recorder, chaos faults.
    FleetTelemetry,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperMatrix,
        Workload::MpcChaos,
        Workload::FleetTelemetry,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMatrix => "paper_matrix",
            Workload::MpcChaos => "mpc_chaos",
            Workload::FleetTelemetry => "fleet_telemetry",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full size is the benchmark; tiny is the self-tests' smoke size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// The fleet recorder's window length, seconds of logical time.
pub const FLEET_WINDOW_SEC: f64 = 10.0;

/// A workload's inputs, before preparation.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    pub size: Size,
    pub config: ExperimentConfig,
    pub videos: Vec<usize>,
    pub schemes: Vec<Scheme>,
    /// Chaos faults with the mobile retry policy, or the benign run.
    pub chaos: bool,
    /// The live recorder's level (`fleet_telemetry` only).
    pub recorder_level: Option<Level>,
}

impl Spec {
    pub fn new(workload: Workload, size: Size, seed: u64) -> Self {
        let paper = ExperimentConfig {
            seed,
            ..ExperimentConfig::paper_trace2()
        };
        let tiny = size == Size::Tiny;
        let (config, videos, schemes, chaos, recorder_level) = match workload {
            Workload::PaperMatrix => (paper, (1..=8).collect(), Scheme::ALL.to_vec(), false, None),
            Workload::MpcChaos => (
                ExperimentConfig {
                    phone: Phone::GalaxyS20,
                    ..ExperimentConfig {
                        seed,
                        ..ExperimentConfig::paper_trace1()
                    }
                },
                (1..=8).collect(),
                vec![Scheme::Ours, Scheme::RobustMpc],
                true,
                None,
            ),
            Workload::FleetTelemetry => (
                ExperimentConfig {
                    users_total: 540,
                    train_users: 40,
                    max_segments: Some(60),
                    ..paper
                },
                vec![2, 6],
                vec![Scheme::Nontile, Scheme::Ptile],
                true,
                Some(Level::Summary),
            ),
        };
        let mut spec = Spec {
            workload,
            size,
            config,
            videos,
            schemes,
            chaos,
            recorder_level,
        };
        if tiny {
            spec.videos.truncate(1);
            spec.config.users_total = 11;
            spec.config.train_users = 8;
            spec.config.max_segments = Some(12);
        }
        spec
    }

    /// Sessions per pass: cells × evaluation users per video.
    pub fn session_count(&self) -> u64 {
        let eval_users = (self.config.users_total - self.config.train_users) as u64;
        (self.videos.len() * self.schemes.len()) as u64 * eval_users
    }

    /// Builds the inputs: gaze traces, Ptiles/Ftiles and the network
    /// trace for every listed video (the set-up `setup_s` times).
    pub fn prepare(&self, threads: usize) -> Evaluation {
        Evaluation::prepare_videos_threaded(
            self.config,
            &VideoCatalog::paper_default(),
            Some(&self.videos),
            threads,
        )
    }

    /// The fault plan over the network trace's horizon, seeded by the
    /// workload seed.
    pub fn faults(&self) -> FaultPlan {
        if !self.chaos {
            return FaultPlan::none();
        }
        let catalog = VideoCatalog::paper_default();
        let longest = catalog
            .videos()
            .iter()
            .filter(|v| self.videos.contains(&v.id))
            .map(|v| v.duration_sec as usize)
            .max()
            .unwrap_or(60);
        let horizon_sec = (longest.max(60) * 2) as f64;
        FaultPlan::generate(FaultConfig::chaos_default(), horizon_sec, self.config.seed)
    }

    pub fn policy(&self) -> RetryPolicy {
        if self.chaos {
            RetryPolicy::default_mobile()
        } else {
            RetryPolicy::disabled()
        }
    }

    /// (video, scheme) cells in run order: video-major, scheme-minor.
    pub fn cells(&self) -> Vec<(usize, Scheme)> {
        self.videos
            .iter()
            .flat_map(|&v| self.schemes.iter().map(move |&s| (v, s)))
            .collect()
    }
}

/// One session of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Task {
    pub video: usize,
    pub scheme: Scheme,
    pub user: usize,
}

/// A prepared workload, ready to run any number of passes.
pub struct Inputs {
    pub spec: Spec,
    pub eval: Evaluation,
    pub faults: FaultPlan,
    pub policy: RetryPolicy,
    /// Every session, cell-major and user-minor (`run_matrix` order).
    pub tasks: Vec<Task>,
}

impl Inputs {
    pub fn new(spec: Spec, eval: Evaluation) -> Self {
        let tasks = spec
            .cells()
            .into_iter()
            .flat_map(|(video, scheme)| {
                (0..eval.eval_users(video).len()).map(move |user| Task {
                    video,
                    scheme,
                    user,
                })
            })
            .collect();
        Self {
            faults: spec.faults(),
            policy: spec.policy(),
            spec,
            eval,
            tasks,
        }
    }

    pub fn setup(&self, task: &Task) -> SessionSetup<'_> {
        SessionSetup {
            server: self
                .eval
                .server(task.video)
                .expect("workload video prepared"),
            user: &self.eval.eval_users(task.video)[task.user],
            network: self.eval.network(),
            phone: self.eval.config().phone,
            max_segments: self.eval.config().max_segments,
        }
    }

    /// A fresh recorder at `level` for the fleet workload.
    pub fn recorder(&self, level: Level) -> Recorder {
        Recorder::new(level).with_windows(FLEET_WINDOW_SEC)
    }
}

/// What one pass of a workload produced.
pub enum Output {
    /// `run_matrix`'s per-cell aggregates.
    Cells(Vec<SchemeOutcome>),
    /// Per-session metrics in task order.
    Sessions(Vec<SessionMetrics>),
    /// Per-session metrics, the event engine's tallies and the merged
    /// recorder.
    Fleet {
        sessions: Vec<SessionMetrics>,
        stats: EngineStats,
        rec: Box<Recorder>,
    },
}

impl Output {
    /// Segments booked, skipped ones included.
    pub fn segments(&self) -> u64 {
        match self {
            Output::Cells(cells) => cells.iter().map(|c| (c.users * c.segments) as u64).sum(),
            Output::Sessions(sessions) | Output::Fleet { sessions, .. } => {
                sessions.iter().map(|s| s.len() as u64).sum()
            }
        }
    }
}

/// One pass of the workload's timed path on `threads` workers, through
/// the entry points a paper session uses. `level` overrides the fleet
/// recorder's level (the `Level::Off` comparison of the traced run).
pub fn run_timed(inputs: &Inputs, threads: usize, level: Option<Level>) -> Output {
    let spec = &inputs.spec;
    match spec.workload {
        Workload::PaperMatrix => Output::Cells(run_matrix(
            &inputs.eval,
            &spec.videos,
            &spec.schemes,
            threads,
        )),
        Workload::MpcChaos => {
            Output::Sessions(parallel_map_indexed(threads, inputs.tasks.len(), |i| {
                let task = &inputs.tasks[i];
                run_session_resilient(
                    task.scheme,
                    &inputs.setup(task),
                    &inputs.faults,
                    &inputs.policy,
                )
            }))
        }
        Workload::FleetTelemetry => {
            let level = level.or(spec.recorder_level).unwrap_or(Level::Off);
            let mut rec = inputs.recorder(level);
            let mut sessions = Vec::with_capacity(inputs.tasks.len());
            let mut stats = EngineStats::default();
            for (video, scheme) in spec.cells() {
                let (cell, cell_stats) = fleet_sessions_traced(
                    &inputs.eval,
                    video,
                    scheme,
                    &inputs.faults,
                    &inputs.policy,
                    threads,
                    &mut rec,
                );
                sessions.extend(cell);
                stats.accumulate(&cell_stats);
            }
            Output::Fleet {
                sessions,
                stats,
                rec: Box::new(rec),
            }
        }
    }
}

/// Drives one session through `SessionRunner`'s phases in a plain loop.
pub fn drive_session(
    controller: &mut dyn Controller,
    scheme: Scheme,
    setup: &SessionSetup,
    inputs: &Inputs,
    rec: &mut dyn Record,
) -> SessionMetrics {
    let mut runner = SessionRunner::new(scheme, setup, &inputs.faults, &inputs.policy);
    runner.start(rec);
    while runner.plan_segment(controller, rec) {
        while runner.step_download(controller, rec).is_none() {}
    }
    runner.finish(rec)
}

/// Folds one session's private recorder into the workload recorder with
/// the fleet engine's merge sequence.
pub fn merge_session(rec: &mut Recorder, session: &Recorder) {
    rec.count("experiment.sessions", 1);
    rec.merge_registry(session.registry());
    rec.merge_windows(session.windows());
    for event in session.events() {
        rec.record(event.clone());
    }
}

/// The reference: every session driven alone through `make_controller`
/// and `SessionRunner` (no matrix fan-out, no event engine), fanned over
/// `threads` workers and collected in task order. For the fleet
/// workload each session records into its own recorder, merged in task
/// order like the engine merges.
pub fn run_reference(inputs: &Inputs, threads: usize) -> Output {
    let level = inputs.spec.recorder_level;
    let results: Vec<(SessionMetrics, Option<Recorder>)> =
        parallel_map_indexed(threads, inputs.tasks.len(), |i| {
            let task = &inputs.tasks[i];
            let setup = inputs.setup(task);
            let mut controller = make_controller(task.scheme, setup.phone);
            match level {
                Some(level) => {
                    let mut rec = inputs.recorder(level);
                    let m =
                        drive_session(controller.as_mut(), task.scheme, &setup, inputs, &mut rec);
                    (m, Some(rec))
                }
                None => {
                    let m = drive_session(
                        controller.as_mut(),
                        task.scheme,
                        &setup,
                        inputs,
                        &mut NoopRecorder,
                    );
                    (m, None)
                }
            }
        });
    match level {
        Some(level) => {
            let mut rec = inputs.recorder(level);
            let mut sessions = Vec::with_capacity(results.len());
            for (m, session_rec) in results {
                if let Some(session_rec) = session_rec {
                    merge_session(&mut rec, &session_rec);
                }
                sessions.push(m);
            }
            Output::Fleet {
                sessions,
                stats: EngineStats::default(),
                rec: Box::new(rec),
            }
        }
        None => Output::Sessions(results.into_iter().map(|(m, _)| m).collect()),
    }
}
