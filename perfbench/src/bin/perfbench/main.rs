//! The repository benchmark: three paper-pipeline workloads, end-to-end
//! metrics from an untraced run, per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_matrix --seed 20220706 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints `setup_s`, `segments_per_s` and `peak_rss_mb`;
//! `--trace 1` prints the per-layer metrics and writes the span file to
//! `perfbench/out/<workload>.spans.tsv`. Either way the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the line before it is the run's provenance,
//! also written to `perfbench/out/<workload>.<mode>.json`.
//! `--workload all` runs the three workloads one after another, each in
//! a child process, and prints a table of their metrics. `--pin` prints
//! the pinned-results file (`golden.json`) for the default seed instead.

mod adapters;
mod alloc;
mod check;
mod layers;
mod ledger;
mod report;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ee360_support::json::{self, Json};

use check::{check_golden, compare, Fingerprint, DEFAULT_SEED};
use report::{median, Outcome};
use workload::{run_reference, run_timed, Inputs, Size, Spec, Workload};

#[global_allocator]
static ALLOC: alloc::CountingAllocator = alloc::CountingAllocator;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// Worker threads: the machine's, capped at two.
const MAX_THREADS: usize = 2;

#[derive(Debug)]
struct Args {
    /// `None` runs every workload, each in its own child process.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper_matrix|mpc_chaos|fleet_telemetry|all> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] | perfbench --pin";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        pin: false,
    };
    let mut workload = false;
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            args.pin = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = true;
                if value != "all" {
                    args.workload = Some(Workload::parse(&value).ok_or_else(bad)?);
                }
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !workload && !args.pin {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_THREADS)
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// The untraced run: set-up timed `SETUP_REPS` times, then passes of the
/// timed path until `seconds` of pass time have elapsed, each checked
/// against the one-session-at-a-time reference.
fn run_untraced(
    spec: Spec,
    threads: usize,
    seconds: f64,
    outcome: &mut Outcome,
    details: &mut Vec<(String, Json)>,
) {
    let workload = spec.workload;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut eval = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous inputs first so only one set is ever live.
        drop(eval.take());
        let t0 = Instant::now();
        eval = Some(spec.prepare(threads));
        setups.push(secs(t0));
    }
    let Some(eval) = eval else {
        return;
    };
    let inputs = Inputs::new(spec, eval);
    let sessions = inputs.tasks.len() as u64;
    let setup_rss_mb = report::peak_rss_mb();

    let budget = Duration::from_secs_f64(seconds);
    let mut spent = Duration::ZERO;
    let mut booked = 0u64;
    let mut walls = Vec::new();
    let mut rss_by_pass = Vec::new();
    let mut passes: Vec<Option<Fingerprint>> = Vec::new();
    while spent < budget {
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| run_timed(&inputs, threads, None)));
        let dt = t0.elapsed();
        spent += dt;
        walls.push(dt.as_secs_f64());
        rss_by_pass.push(report::peak_rss_mb().unwrap_or(0.0));
        match out {
            Ok(out) => {
                booked += out.segments();
                passes.push(Some(Fingerprint::of(&inputs, &out)));
            }
            Err(_) => passes.push(None),
        }
    }

    // The high-water mark of set-up plus the timed passes; the reference
    // below keeps every session's results at once and must not count.
    let peak_rss_mb = report::peak_rss_mb();
    let reference = catch_unwind(AssertUnwindSafe(|| {
        let out = run_reference(&inputs, threads);
        Fingerprint::of(&inputs, &out)
    }));
    outcome.attempted = sessions * passes.len() as u64;
    match reference {
        Ok(want) => {
            for (i, pass) in passes.iter().enumerate() {
                match pass {
                    Some(got) => {
                        let (failed, problems) = compare(got, &want);
                        outcome.fail(
                            failed,
                            problems
                                .into_iter()
                                .map(|p| format!("pass {i}: {p}"))
                                .collect(),
                        );
                    }
                    None => outcome.fail(sessions, vec![format!("pass {i} panicked")]),
                }
            }
            if inputs.spec.config.seed == DEFAULT_SEED && inputs.spec.size == Size::Full {
                let (failed, problems) = check_golden(workload, &want);
                outcome.fail(failed, problems);
            }
        }
        Err(_) => outcome.fail(outcome.attempted, vec!["reference run panicked".to_owned()]),
    }

    outcome.push("setup_s", median(&setups));
    // A ratio of totals, not a median of per-pass rates: each pass weighs
    // by the time it took, which keeps short-lived host noise from
    // swinging the figure.
    outcome.push("segments_per_s", booked as f64 / spent.as_secs_f64());
    match peak_rss_mb {
        Some(mb) => outcome.push("peak_rss_mb", mb),
        None => outcome.fail(0, vec!["VmHWM unavailable".to_owned()]),
    }
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
    details.push(("setup_s".to_owned(), nums(&setups)));
    details.push((
        "peak_rss_after_setup_mb".to_owned(),
        setup_rss_mb.map_or(Json::Null, Json::Num),
    ));
    details.push(("pass_walls_s".to_owned(), nums(&walls)));
    details.push(("peak_rss_by_pass_mb".to_owned(), nums(&rss_by_pass)));
    details.push(("segments_booked".to_owned(), Json::Int(booked as i64)));
}

fn provenance(args: &Args, spec: &Spec) -> Vec<(String, Json)> {
    let opt_str = |s: Option<String>| s.map_or(Json::Null, Json::Str);
    let int = |n: usize| Json::Int(n as i64);
    let inputs_desc = Json::Obj(vec![
        (
            "videos".to_owned(),
            Json::Arr(spec.videos.iter().map(|&v| int(v)).collect()),
        ),
        (
            "schemes".to_owned(),
            Json::Arr(
                spec.schemes
                    .iter()
                    .map(|s| Json::Str(s.label().to_owned()))
                    .collect(),
            ),
        ),
        ("users_total".to_owned(), int(spec.config.users_total)),
        ("train_users".to_owned(), int(spec.config.train_users)),
        (
            "max_segments".to_owned(),
            spec.config.max_segments.map_or(Json::Null, int),
        ),
        (
            "network_scale".to_owned(),
            Json::Num(spec.config.network_scale),
        ),
        (
            "phone".to_owned(),
            Json::Str(format!("{:?}", spec.config.phone)),
        ),
        (
            "sessions_per_pass".to_owned(),
            Json::Int(spec.session_count() as i64),
        ),
        ("chaos_faults".to_owned(), Json::Bool(spec.chaos)),
        (
            "recorder_level".to_owned(),
            spec.recorder_level
                .map_or(Json::Null, |l| Json::Str(l.as_str().to_owned())),
        ),
    ]);
    vec![
        (
            "workload".to_owned(),
            Json::Str(spec.workload.name().to_owned()),
        ),
        (
            "mode".to_owned(),
            Json::Str(if args.trace { "traced" } else { "untraced" }.to_owned()),
        ),
        ("seed".to_owned(), Json::Int(args.seed as i64)),
        ("seconds".to_owned(), Json::Num(args.seconds)),
        ("commit".to_owned(), opt_str(report::commit())),
        (
            "source_digest".to_owned(),
            Json::Str(report::source_digest()),
        ),
        ("nproc".to_owned(), report::nproc().map_or(Json::Null, int)),
        (
            "available_parallelism".to_owned(),
            std::thread::available_parallelism().map_or(Json::Null, |n| int(n.get())),
        ),
        ("threads".to_owned(), int(threads())),
        ("inputs".to_owned(), inputs_desc),
    ]
}

/// Prints the pinned-results file for the default seed.
fn pin(threads: usize) -> ExitCode {
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let spec = Spec::new(w, Size::Full, DEFAULT_SEED);
        let eval = spec.prepare(threads);
        let inputs = Inputs::new(spec, eval);
        let fp = Fingerprint::of(&inputs, &run_reference(&inputs, threads));
        workloads.push(check::golden_json(w, &fp));
    }
    let doc = Json::Obj(vec![
        ("seed".to_owned(), Json::Int(DEFAULT_SEED as i64)),
        ("workloads".to_owned(), Json::Arr(workloads)),
    ]);
    match json::to_string_pretty(&doc) {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload in this process and prints its provenance line and
/// result line.
fn run_one(args: &Args, workload: Workload) {
    let spec = Spec::new(workload, Size::Full, args.seed);
    let sessions = spec.session_count();
    let mut details = provenance(args, &spec);
    let mut outcome = Outcome::default();
    let t0 = Instant::now();
    let ran = catch_unwind(AssertUnwindSafe(|| {
        if args.trace {
            layers::run(spec, threads(), &mut outcome, &mut details);
        } else {
            run_untraced(spec, threads(), args.seconds, &mut outcome, &mut details);
        }
    }));
    if ran.is_err() {
        outcome.attempted = outcome.attempted.max(sessions);
        outcome.fail(sessions, vec!["the run panicked".to_owned()]);
    }
    details.push(("run_wall_s".to_owned(), Json::Num(secs(t0))));
    details.push((
        "problems".to_owned(),
        Json::Arr(outcome.problems.iter().cloned().map(Json::Str).collect()),
    ));
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    let doc = Json::Obj(vec![("provenance".to_owned(), Json::Obj(details))]);
    let text = json::to_string(&doc).unwrap_or_default();
    let mode = if args.trace { "traced" } else { "untraced" };
    let path = report::out_dir().join(format!("{}.{mode}.json", workload.name()));
    if let Err(e) =
        std::fs::create_dir_all(report::out_dir()).and_then(|()| std::fs::write(&path, &text))
    {
        eprintln!("warning: writing {}: {e}", path.display());
    }
    println!("{text}");
    println!("{}", outcome.result_line());
}

/// Runs every workload, each in a child process of its own (so each
/// `peak_rss_mb` is that workload's alone), waits for each, and prints a
/// table plus one combined result line whose metric names carry the
/// workload as a prefix.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut combined = Outcome::default();
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        let child = std::process::Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output();
        let last = child
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|text| text.lines().last().and_then(|l| json::parse(l).ok()));
        let Some(result) = last else {
            combined.fail(1, vec![format!("{}: no result", w.name())]);
            combined.attempted += 1;
            continue;
        };
        let int = |k: &str| result.get(k).and_then(Json::as_i64).unwrap_or(0) as u64;
        let (attempted, failed) = (int("attempted"), int("failed"));
        combined.attempted += attempted;
        combined.failed += failed;
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            combined
                .problems
                .push(format!("{}: checks failed", w.name()));
        }
        println!("{}: {failed} of {attempted} sessions failed", w.name());
        for (name, m) in result
            .get("metrics")
            .and_then(Json::as_object)
            .unwrap_or(&[])
        {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("  {name:<36} {value:>16.4} {unit}");
            metrics.push((format!("{}.{name}", w.name()), m.clone()));
        }
    }
    let line = Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(combined.correct())),
        ("attempted".to_owned(), Json::Int(combined.attempted as i64)),
        ("failed".to_owned(), Json::Int(combined.failed as i64)),
        ("metrics".to_owned(), Json::Obj(metrics)),
    ]);
    println!("{}", json::to_string(&line).unwrap_or_default());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.pin {
        return pin(threads());
    }
    match args.workload {
        Some(w) => {
            run_one(&args, w);
            ExitCode::SUCCESS
        }
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "mpc_chaos",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::MpcChaos));
        assert_eq!(args(&["--workload", "all"]).unwrap().workload, None);
        assert_eq!(a.seed, 3);
        assert!(a.trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "paper_matrix", "--trace", "2"]).is_err());
    }

    /// Tiny-size smoke run of every workload in both modes, with every
    /// output check applied.
    #[test]
    fn every_workload_passes_its_checks_at_smoke_size() {
        for w in Workload::ALL {
            for seed in [DEFAULT_SEED, 5] {
                let mut untraced = Outcome::default();
                run_untraced(
                    Spec::new(w, Size::Tiny, seed),
                    2,
                    0.01,
                    &mut untraced,
                    &mut Vec::new(),
                );
                assert!(
                    untraced.correct(),
                    "{} untraced: {:?}",
                    w.name(),
                    untraced.problems
                );
                assert!(untraced.attempted >= 1);
                let names: Vec<&str> = untraced.metrics.iter().map(|(n, _)| n.as_str()).collect();
                assert_eq!(names, ["setup_s", "segments_per_s", "peak_rss_mb"]);
                assert!(untraced.metrics.iter().all(|(_, v)| *v > 0.0));

                let mut traced = Outcome::default();
                layers::run(
                    Spec::new(w, Size::Tiny, seed),
                    2,
                    &mut traced,
                    &mut Vec::new(),
                );
                assert!(
                    traced.correct(),
                    "{} traced: {:?}",
                    w.name(),
                    traced.problems
                );
                let names: Vec<String> = traced.metrics.iter().map(|(n, _)| n.clone()).collect();
                let catalogue: Vec<String> = report::per_layer_names()
                    .into_iter()
                    .map(|(n, _)| n)
                    .collect();
                assert_eq!(names, catalogue, "{} traced metrics", w.name());
            }
        }
    }
}
