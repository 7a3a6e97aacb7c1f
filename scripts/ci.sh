#!/usr/bin/env bash
# The full CI gate, hermetic by construction: every cargo invocation runs
# --offline, so a build that reaches for the network fails here the same
# way it would fail in a sealed environment. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline (workspace, all targets)"
cargo build --release --offline --workspace --all-targets

echo "==> ee360-lint (analyzer gate: lexical rules + call-graph reachability)"
# Blocking: exits non-zero on any deny-severity violation, including the
# interprocedural rules (panic-reachability, hot-path-alloc,
# determinism-taint) that walk the workspace call graph from the fleet /
# solver / session entry points. The JSON report (per-rule counts, every
# violation and suppression) and the call graph land next to the
# experiment outputs; the baseline file pins the accepted-findings set —
# currently empty, i.e. the workspace is violation-free — so any new
# finding fails CI rather than blending into an existing pile.
mkdir -p results
cargo run --release --offline -p ee360-lint -- --root . \
  --json results/lint_report.json \
  --callgraph results/callgraph.json \
  --baseline results/lint_baseline.json
for rule in panic-reachability hot-path-alloc determinism-taint; do
  grep -q "\"${rule}\"" results/lint_report.json \
    || { echo "lint report missing rule: ${rule}" >&2; exit 1; }
done
for key in schema fns calls unresolved_calls; do
  grep -q "\"${key}\"" results/callgraph.json \
    || { echo "callgraph missing key: ${key}" >&2; exit 1; }
done

echo "==> cargo test -q --offline --workspace (default threads, then 4)"
# Twice: once at the harness's default thread count and once with four
# test threads, so tests that share process-wide state (the allocator
# budget in tests/fleet_memory.rs) race here even on a 1-core box, where
# the default is serial.
cargo test -q --offline --workspace
cargo test -q --offline --workspace -- --test-threads=4

echo "==> perfbench self-tests (repository benchmark, own workspace)"
# The repository benchmark is a separate package the workspace build
# does not reach. Its self-tests run every workload as a tiny smoke with
# bit-for-bit reference checks, so a break in the entry points it drives
# or in bit-exactness fails here rather than at benchmark time.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> fault-injection smoke (seeded chaos run per phone profile)"
# One seeded chaos scenario per phone: a 10 s mid-stream blackout on the
# paper's LTE trace. The example exits non-zero unless the session
# finishes without panicking, records the degradation in the resilience
# counters, keeps the rebuffer ratio bounded, and replays byte-identically.
for phone in Nexus5X Pixel3 GalaxyS20; do
  echo "---- chaos_run ${phone}"
  cargo run --release --offline --example chaos_run -- "${phone}"
done

echo "==> observability smoke (instrumented chaos run, offline + deterministic)"
# The same seeded scenario with a live Detail-level recorder. The example
# exits non-zero unless the registry reconciles *exactly* with the
# end-of-run resilience counters and session aggregates, two same-seed
# traces are byte-identical, and results/obs_report.json re-parses with
# every required key (schema/level/events/spans/metrics) present.
cargo run --release --offline --example chaos_run -- Pixel3 --obs
for key in schema level events_recorded events_dropped spans metrics; do
  grep -q "\"${key}\"" results/obs_report.json \
    || { echo "obs report missing key: ${key}" >&2; exit 1; }
done

echo "==> robust-control smoke (chance-constrained MPC, wandering gaze + storm)"
# The uncertainty-aware controller over the wandering-gaze fixture with
# the full fault storm. The example exits non-zero unless the robust
# widening actually engages and the run replays byte-identically; the
# greps pin the robust.* uncertainty counters in the exported report.
cargo run --release --offline --example chaos_run -- Pixel3 --scheme robust-mpc --storm --obs
for key in robust.margin_applied robust.widened_plans robust.coverage_miss_saved robust.quantile_width_deg; do
  grep -q "\"${key}\"" results/obs_report.json \
    || { echo "obs report missing robust key: ${key}" >&2; exit 1; }
done

echo "==> shared-link smoke (cell_contention: K clients on one benign cell)"
# Runs the sim::multiclient processor-sharing model over the full
# population sweep; set -e fails the gate on any panic or non-zero exit.
cargo run --release --offline --example cell_contention

echo "==> fleet equivalence (blocking: fanned-out vs sequential sessions, full paper matrix)"
# Fanning paper sessions out across workers must leave every session
# bit-identical to running them one after another. The quick tier
# already ran in the workspace test pass above; this stage adds the
# #[ignore]d 48-user x 8-video paper matrix (benign + chaos) in release.
cargo test --release -q --offline --test fleet_equivalence -- --include-ignored

echo "==> pixel-coverage kernel sweep (blocking: boundary predicates vs trigonometry)"
# The booking-coverage kernel decides each pixel sample's tile from the
# tile boundaries instead of asin/atan2 and must bin every sample exactly
# where the trigonometric path does. The seeded property already ran in
# the workspace test pass above; this stage adds the #[ignore]d dense
# sweep (lattice and tile-corner view centers on four grids) in release.
cargo test --release -q --offline -p ee360-geom --lib projection:: -- --include-ignored

echo "==> fleet smoke (10k-session scale fleet, offline + deterministic)"
# Runs the sim::fleet scale engine over a seeded chaos plan and exits
# non-zero unless every slot completes, two same-seed runs and every
# worker count serialize byte-identically, and the folded fleet.*
# registry keys reconcile with the report. Writes
# results/fleet_report.json; the key grep below guards the artifact
# schema the same way the obs smoke does.
cargo run --release --offline --example fleet_smoke
for key in schema sessions fleet_report obs_report mean_qoe total_energy_mj; do
  grep -q "\"${key}\"" results/fleet_report.json \
    || { echo "fleet report missing key: ${key}" >&2; exit 1; }
done

echo "==> fleet telemetry smoke (windowed series + sampling + SLOs, blocking)"
# The full ISSUE-10 telemetry pipeline over the same 10k-session fleet:
# 5 s logical-time windows, 1% deterministic trace sampling, worst-K
# exemplars, and the default SLO report card. The example exits non-zero
# unless results/fleet_timeseries.json is byte-identical at 1/4/16
# threads and the final window row reconciles bit-exactly with the
# report; the greps pin the artifact schema, the per-window rows, the
# tail exemplars, and the per-SLO verdicts.
cargo run --release --offline --example fleet_smoke -- \
  --timeseries --sample-rate 0.01 --slo
for key in ee360.timeseries.v1 window_sec t_start_sec stall_hist \
           worst_stall worst_qoe sampled_sessions slo max_burn verdict; do
  grep -q "\"${key}\"" results/fleet_timeseries.json \
    || { echo "fleet timeseries missing key: ${key}" >&2; exit 1; }
done
# Both fleet smoke runs regenerate tracked artifacts (the tracked
# fleet_report.json is the --timeseries run's). Inside a git work tree
# they must match the committed copies byte for byte.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  git diff --exit-code -- results/fleet_report.json results/fleet_timeseries.json \
    || { echo "fleet artifacts drifted from the committed copies" >&2; exit 1; }
fi

echo "==> figure and table outputs (blocking: regenerated results/ must match the committed copies)"
# Every paper figure/table binary reruns at full scale into results/:
# its text table on stdout, plus any SVG it draws and the robust-matrix
# JSON. All are seeded and two same-seed runs are byte-identical, so
# inside a git work tree any drift means a committed copy no longer
# matches the code.
for bin in fig2_motivation table1_power_models fig4_qoe_model table2_qoe_fit \
           fig5_switching_speed fig7_ptile_coverage fig8_size_cdf fig9_energy \
           fig10_energy_phones fig11_qoe table3_catalog ablations sweep_bandwidth; do
  cargo run --release --offline -q -p ee360-bench --bin "${bin}" > "results/${bin}.txt"
done
cargo run --release --offline -q -p ee360-bench --bin robust_matrix > /dev/null
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  git diff --exit-code -- results/*.txt results/*.svg results/robust_matrix.json \
    || { echo "figure outputs drifted from the committed copies" >&2; exit 1; }
fi

echo "==> perf smoke (tracked baseline, quick mode; regression-gated)"
# Emits BENCH_perf.json (repo root, the one copy) with the solver
# figures on paper-session inputs, session and quick-sweep wall times,
# the per-thread-count scaling rows, their canary-normalised speedups vs
# the pinned seed figures, and the obs_overhead section (fleet telemetry
# on vs off). Machine weather stays non-blocking (a loaded CI box must
# not fail the build), but two things are code regressions the binary
# signals with exit code 2 — blocking: a drop of more than 20% in the
# p75 per-pass solver speedup over the reference, replaying the
# quick-test Ours sessions' contexts, vs the checked-in baseline, and
# fleet telemetry overhead at or above the 10% budget.
perf_status=0
EE360_BENCH_QUICK=1 EE360_BENCH_GATE=1 \
  cargo run --release --offline -p ee360-bench --bin perf_baseline || perf_status=$?
if [ "${perf_status}" -eq 2 ]; then
  echo "perf smoke: gated regression (solver throughput or telemetry overhead budget)" >&2
  exit 1
elif [ "${perf_status}" -ne 0 ]; then
  echo "WARNING: perf smoke failed (status ${perf_status}, non-blocking)" >&2
else
  for key in available_parallelism threads_requested threads_used scaling obs_overhead; do
    grep -q "\"${key}\"" BENCH_perf.json \
      || { echo "BENCH_perf.json missing key: ${key}" >&2; exit 1; }
  done
  echo "perf smoke: wrote BENCH_perf.json"
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "CI gate passed."
