//! The traced run: per-layer figures from the span ledger.
//!
//! The run times set-up video by video, then makes these passes over
//! the prepared inputs, each kind `REPS` times:
//!
//! 1. the timed path on `threads` workers and on one worker (plus, for
//!    the fleet workload, on `threads` workers with the recorder at
//!    `Level::Off`), for the parallel-efficiency and obs-overhead ratios;
//! 2. alternately, the untraced reference — every session alone, one at
//!    a time — and the traced pass: the same sessions one at a time,
//!    with the controller and recorder behind the forwarding adapters
//!    and a span around every call into a layer.
//!
//! Every pass is checked against the reference bit for bit. The last
//! traced pass's spans (with the set-up spans) are written out once at
//! the end, and every per-layer metric is derived from them, plus the
//! solver's and the event engine's own tallies and the pass walls.

use std::fs;
use std::io::{BufWriter, Write};
use std::time::Instant;

use ee360_abr::controller::{Scheme, SolverStats};
use ee360_cluster::ptile::PtileConfig;
use ee360_core::client::{make_controller, SessionRunner};
use ee360_core::server::VideoServer;
use ee360_geom::grid::TileGrid;
use ee360_obs::{Level, NoopRecorder, Record};
use ee360_sim::fleet::EngineStats;
use ee360_sim::metrics::SessionMetrics;
use ee360_support::json::Json;
use ee360_trace::dataset::VideoTraces;
use ee360_trace::head::GazeConfig;
use ee360_video::catalog::VideoCatalog;

use crate::adapters::{TracedController, TracedRecord};
use crate::check::{self, Fingerprint};
use crate::ledger::{self, span, Name, Span};
use crate::report::{self, median, per_scheme, quantile, Outcome, SCHEMES};
use crate::workload::{
    merge_session, run_reference, run_timed, Inputs, Output, Size, Spec, Task, Workload,
};

/// Alternations of the timed-path passes.
const REPS: usize = 2;

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Set-up, video by video, with spans around trace generation and
/// Algorithm 1: the serial work `prepare_videos_threaded` fans out.
/// Returns the serial seconds spent.
fn traced_setup(spec: &Spec) -> f64 {
    let cfg = spec.config;
    let catalog = VideoCatalog::paper_default();
    let t0 = Instant::now();
    for video in catalog
        .videos()
        .iter()
        .filter(|v| spec.videos.contains(&v.id))
    {
        let traces = span(Name::TraceGenerate, || {
            VideoTraces::generate(video, cfg.users_total, cfg.seed, GazeConfig::default())
        });
        let (train, _eval) = traces.split(cfg.train_users, cfg.seed);
        let mut ptile_config = PtileConfig::paper_default();
        ptile_config.min_users = ((cfg.users_total as f64 * 0.10).ceil() as usize).max(2);
        let server = span(Name::ClusterPrepare, || {
            VideoServer::prepare(video, &train, TileGrid::paper_default(), ptile_config)
        });
        drop(server);
    }
    secs(t0)
}

/// One session through `SessionRunner`'s phases with a span around each
/// phase and (via the adapter) each controller call. Returns the metrics
/// and the solver's tallies.
fn traced_session(
    inputs: &Inputs,
    task: &Task,
    rec: &mut dyn Record,
) -> (SessionMetrics, Option<SolverStats>) {
    let setup = inputs.setup(task);
    let (metrics, controller) = span(Name::Session, || {
        let (mut controller, mut runner) = span(Name::Open, || {
            let controller = TracedController {
                inner: make_controller(task.scheme, setup.phone),
            };
            let mut runner =
                SessionRunner::new(task.scheme, &setup, &inputs.faults, &inputs.policy);
            runner.start(rec);
            (controller, runner)
        });
        while span(Name::PlanSegment, || {
            runner.plan_segment(&mut controller, rec)
        }) {
            while span(Name::StepDownload, || {
                runner.step_download(&mut controller, rec)
            })
            .is_none()
            {}
        }
        let metrics = span(Name::Finish, || runner.finish(rec));
        (metrics, controller)
    });
    (metrics, controller.inner.solver_stats())
}

/// Per-scheme sums over the span ledger.
#[derive(Debug, Default, Clone)]
struct SchemeAgg {
    segments: u64,
    plan_ns: u64,
    plan_self_ns: u64,
    plan_into_ns: u64,
    plan_into_calls: u64,
    download_ns: u64,
    session_ms: Vec<f64>,
}

/// Workload-wide sums over the span ledger.
#[derive(Debug, Default)]
struct Agg {
    by_scheme: Vec<SchemeAgg>,
    sessions: u64,
    segments: u64,
    open_ns: u64,
    finish_ns: u64,
    plan_allocs: u64,
    download_allocs: u64,
    steps: u64,
    replans: u64,
    replan_ns: u64,
    session_ns: u64,
    session_self_ns: u64,
    trace_generate_ns: u64,
    cluster_prepare_ns: u64,
}

fn scheme_index(scheme: Scheme) -> usize {
    SCHEMES.iter().position(|s| *s == scheme).unwrap_or(0)
}

fn aggregate(spans: &[Span], self_ns: &[u64], tasks: &[Task], sessions: &[SessionMetrics]) -> Agg {
    let mut agg = Agg {
        by_scheme: vec![SchemeAgg::default(); SCHEMES.len()],
        sessions: tasks.len() as u64,
        ..Agg::default()
    };
    for (task, m) in tasks.iter().zip(sessions) {
        let segs = m.len() as u64;
        agg.by_scheme[scheme_index(task.scheme)].segments += segs;
        agg.segments += segs;
    }
    for (s, &own) in spans.iter().zip(self_ns) {
        let scheme = tasks
            .get(s.session as usize)
            .map(|t| scheme_index(t.scheme));
        let by = scheme.and_then(|i| agg.by_scheme.get_mut(i));
        let dur = s.dur_ns();
        match s.name {
            Name::Session => {
                agg.session_ns += dur;
                agg.session_self_ns += own;
                if let Some(by) = by {
                    by.session_ms.push(dur as f64 / 1e6);
                }
            }
            Name::Open => agg.open_ns += dur,
            Name::Finish => agg.finish_ns += dur,
            Name::PlanSegment => {
                agg.plan_allocs += s.allocs;
                if let Some(by) = by {
                    by.plan_ns += dur;
                    by.plan_self_ns += own;
                }
            }
            Name::StepDownload => {
                agg.steps += 1;
                agg.download_allocs += s.allocs;
                if let Some(by) = by {
                    by.download_ns += dur;
                }
            }
            Name::CtlPlanInto => {
                if let Some(by) = by {
                    by.plan_into_ns += dur;
                    by.plan_into_calls += 1;
                }
            }
            Name::CtlReplanDegraded => {
                agg.replans += 1;
                agg.replan_ns += dur;
            }
            Name::TraceGenerate => agg.trace_generate_ns += dur,
            Name::ClusterPrepare => agg.cluster_prepare_ns += dur,
            _ => {}
        }
    }
    agg
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Walls of the passes, seconds.
#[derive(Debug, Default)]
struct PassWalls {
    threaded: Vec<f64>,
    serial: Vec<f64>,
    level_off: Vec<f64>,
    reference: Vec<f64>,
    traced: Vec<f64>,
}

/// What the traced pass produced besides its spans.
struct TracedPass {
    out: Output,
    solver: SolverStats,
    obs_calls: u64,
    obs_ns: u64,
}

/// Every session alone, one at a time on this thread, behind the
/// forwarding adapters; spans land in this thread's ledger.
fn traced_pass(inputs: &Inputs) -> TracedPass {
    let level = inputs.spec.recorder_level;
    let mut merged = level.map(|l| inputs.recorder(l));
    let mut sessions = Vec::with_capacity(inputs.tasks.len());
    let mut solver = SolverStats::default();
    let (mut obs_calls, mut obs_ns) = (0u64, 0u64);
    for (sid, task) in inputs.tasks.iter().enumerate() {
        ledger::set_session(sid as u32);
        let (m, stats) = match merged.as_mut() {
            Some(merged) => {
                let mut session_rec = inputs.recorder(merged.level());
                let mut traced = TracedRecord::new(&mut session_rec);
                let out = traced_session(inputs, task, &mut traced);
                let (calls, ns) = traced.tally();
                obs_calls += calls;
                obs_ns += ns;
                merge_session(merged, &session_rec);
                out
            }
            None => traced_session(inputs, task, &mut NoopRecorder),
        };
        if let Some(s) = stats {
            solver.plans += s.plans;
            solver.memo_hits += s.memo_hits;
            solver.memo_misses += s.memo_misses;
            solver.states_expanded += s.states_expanded;
        }
        sessions.push(m);
    }
    ledger::set_session(ledger::NO_SESSION);
    let out = match merged {
        Some(rec) => Output::Fleet {
            sessions,
            stats: EngineStats::default(),
            rec: Box::new(rec),
        },
        None => Output::Sessions(sessions),
    };
    TracedPass {
        out,
        solver,
        obs_calls,
        obs_ns,
    }
}

/// Runs the traced benchmark of one workload: `outcome` receives the
/// per-layer metrics and the verdict, `details` the walls and sample
/// counts for the run report.
pub fn run(spec: Spec, threads: usize, outcome: &mut Outcome, details: &mut Vec<(String, Json)>) {
    let workload = spec.workload;
    let _ = ledger::take();

    // --- set-up: serial per-video spans, then the threaded prepare -----
    let serial_setup_s = traced_setup(&spec);
    let setup_spans = ledger::take();
    let t0 = Instant::now();
    let eval = spec.prepare(threads);
    let threaded_setup_s = secs(t0);
    let inputs = Inputs::new(spec, eval);

    // --- timed path, N workers vs 1 worker (vs recorder off) ----------
    let mut walls = PassWalls::default();
    let mut checked: Vec<(&str, Fingerprint)> = Vec::new();
    let mut engine = EngineStats::default();
    for _ in 0..REPS {
        let t0 = Instant::now();
        let out = run_timed(&inputs, threads, None);
        walls.threaded.push(secs(t0));
        if let Output::Fleet { stats, .. } = &out {
            engine = *stats;
        }
        checked.push(("timed path", Fingerprint::of(&inputs, &out)));
        drop(out);
        if threads > 1 {
            let t0 = Instant::now();
            let out = run_timed(&inputs, 1, None);
            walls.serial.push(secs(t0));
            checked.push(("timed path on 1 thread", Fingerprint::of(&inputs, &out)));
        }
        if workload == Workload::FleetTelemetry {
            let t0 = Instant::now();
            let out = run_timed(&inputs, threads, Some(Level::Off));
            walls.level_off.push(secs(t0));
            drop(out);
        }
    }
    if walls.serial.is_empty() {
        walls.serial.clone_from(&walls.threaded);
    }

    // --- untraced reference vs traced pass, one session at a time ------
    let mut want = None;
    let mut last = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let reference = run_reference(&inputs, 1);
        walls.reference.push(secs(t0));
        want = Some(Fingerprint::of(&inputs, &reference));
        drop(reference);
        drop(last.take());
        let _ = ledger::take();
        let t0 = Instant::now();
        let pass = traced_pass(&inputs);
        walls.traced.push(secs(t0));
        checked.push(("traced pass", Fingerprint::of(&inputs, &pass.out)));
        last = Some(pass);
    }
    let (Some(want), Some(pass)) = (want, last) else {
        return;
    };
    let mut spans = setup_spans;
    ledger::append(&mut spans, ledger::take());
    let self_ns = ledger::self_times(&spans);

    // --- checks -----------------------------------------------------------
    let session_count = inputs.tasks.len() as u64;
    for (label, fp) in &checked {
        outcome.attempted += session_count;
        let (failed, problems) = check::compare(fp, &want);
        outcome.fail(
            failed,
            problems
                .into_iter()
                .map(|p| format!("{label}: {p}"))
                .collect(),
        );
    }
    if inputs.spec.config.seed == check::DEFAULT_SEED && inputs.spec.size == Size::Full {
        let (failed, problems) = check::check_golden(workload, &want);
        outcome.fail(failed, problems);
    }
    let (Output::Sessions(sessions) | Output::Fleet { sessions, .. }) = &pass.out else {
        return;
    };

    // --- spans out, figures derived from them ----------------------------
    let span_path = report::out_dir().join(format!("{}.spans.tsv", workload.name()));
    let written = fs::create_dir_all(report::out_dir())
        .and_then(|()| fs::File::create(&span_path))
        .and_then(|f| {
            let mut w = BufWriter::new(f);
            ledger::write_tsv(&mut w, &spans, &self_ns)?;
            w.flush()
        });
    if let Err(e) = written {
        outcome
            .problems
            .push(format!("writing {}: {e}", span_path.display()));
    }
    let agg = aggregate(&spans, &self_ns, &inputs.tasks, sessions);
    let segs = agg.segments as f64;
    let fleet = workload == Workload::FleetTelemetry;
    let threads_f = threads as f64;

    outcome.push("trace.generate_ms", agg.trace_generate_ns as f64 / 1e6);
    outcome.push("cluster.prepare_ms", agg.cluster_prepare_ns as f64 / 1e6);
    outcome.push(
        "support.parallel.setup_eff",
        ratio(serial_setup_s, threads_f * threaded_setup_s),
    );
    outcome.push(
        "core.client.open_us",
        ratio(agg.open_ns as f64 / 1e3, agg.sessions as f64),
    );
    outcome.push(
        "core.client.finish_us",
        ratio(agg.finish_ns as f64 / 1e3, agg.sessions as f64),
    );
    type PerScheme = fn(&SchemeAgg) -> f64;
    let per_scheme_metrics: [(&str, PerScheme); 6] = [
        ("core.client.plan_ns", |a| {
            ratio(a.plan_ns as f64, a.segments as f64)
        }),
        ("core.client.plan_self_ns", |a| {
            ratio(a.plan_self_ns as f64, a.segments as f64)
        }),
        ("abr.plan_ns", |a| {
            ratio(a.plan_into_ns as f64, a.plan_into_calls as f64)
        }),
        ("core.client.download_ns", |a| {
            ratio(a.download_ns as f64, a.segments as f64)
        }),
        ("core.client.session_p50_ms", |a| {
            quantile(&a.session_ms, 0.50)
        }),
        ("core.client.session_p95_ms", |a| {
            quantile(&a.session_ms, 0.95)
        }),
    ];
    for (name, f) in per_scheme_metrics {
        for (scheme, a) in SCHEMES.iter().zip(&agg.by_scheme) {
            outcome.push(per_scheme(name, *scheme), f(a));
        }
    }
    outcome.push(
        "core.client.plan_allocs",
        ratio(agg.plan_allocs as f64, segs),
    );
    let solver = pass.solver;
    outcome.push(
        "abr.memo_hit_ratio",
        ratio(
            solver.memo_hits as f64,
            (solver.memo_hits + solver.memo_misses) as f64,
        ),
    );
    outcome.push(
        "abr.states_expanded_per_plan",
        ratio(solver.states_expanded as f64, solver.plans as f64),
    );
    outcome.push("abr.replans_per_seg", ratio(agg.replans as f64, segs));
    outcome.push(
        "abr.replan_ns",
        ratio(agg.replan_ns as f64, agg.replans as f64),
    );
    outcome.push(
        "sim.resilience.steps_per_seg",
        ratio(agg.steps as f64, segs),
    );
    outcome.push(
        "core.client.download_allocs",
        ratio(agg.download_allocs as f64, segs),
    );
    outcome.push(
        "core.client.unattributed_frac",
        ratio(agg.session_self_ns as f64, agg.session_ns as f64),
    );
    outcome.push("obs.calls_per_seg", ratio(pass.obs_calls as f64, segs));
    outcome.push("obs.ns_per_seg", ratio(pass.obs_ns as f64, segs));
    let obs_overhead = if fleet {
        ratio(median(&walls.threaded), median(&walls.level_off)) - 1.0
    } else {
        0.0
    };
    outcome.push("obs.overhead_frac", obs_overhead);
    outcome.push(
        "sim.fleet.events_per_session",
        ratio(engine.events as f64, agg.sessions as f64),
    );
    outcome.push("sim.fleet.peak_queue_len", engine.peak_queue_len as f64);
    let engine_overhead = if fleet {
        ratio(median(&walls.serial), median(&walls.reference)) - 1.0
    } else {
        0.0
    };
    outcome.push("sim.fleet.engine_overhead_frac", engine_overhead);
    outcome.push(
        "support.parallel.run_eff",
        ratio(median(&walls.serial), threads_f * median(&walls.threaded)),
    );
    outcome.push(
        "trace_overhead_frac",
        ratio(median(&walls.traced), median(&walls.reference)) - 1.0,
    );

    let order = report::per_layer_names();
    outcome
        .metrics
        .sort_by_key(|(name, _)| order.iter().position(|(n, _)| n == name));

    let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
    details.push((
        "span_file".to_owned(),
        Json::Str(span_path.display().to_string()),
    ));
    details.push(("spans".to_owned(), Json::Int(spans.len() as i64)));
    details.push((
        "walls_s".to_owned(),
        Json::Obj(vec![
            ("setup_serial".to_owned(), Json::Num(serial_setup_s)),
            ("setup_threaded".to_owned(), Json::Num(threaded_setup_s)),
            ("timed_threaded".to_owned(), nums(&walls.threaded)),
            ("timed_1_thread".to_owned(), nums(&walls.serial)),
            ("timed_level_off".to_owned(), nums(&walls.level_off)),
            ("reference_1_thread".to_owned(), nums(&walls.reference)),
            ("traced_1_thread".to_owned(), nums(&walls.traced)),
        ]),
    ));
    details.push((
        "samples".to_owned(),
        Json::Obj(
            SCHEMES
                .iter()
                .zip(&agg.by_scheme)
                .map(|(s, a)| {
                    (
                        s.label().to_owned(),
                        Json::Obj(vec![
                            ("sessions".to_owned(), Json::Int(a.session_ms.len() as i64)),
                            ("segments".to_owned(), Json::Int(a.segments as i64)),
                            ("plans".to_owned(), Json::Int(a.plan_into_calls as i64)),
                        ]),
                    )
                })
                .collect(),
        ),
    ));
}
