//! The scale fleet: many synthetic sessions, each run as one closed loop.
//!
//! The paper's client (Fig. 2b) streams each user as a closed
//! per-segment loop, and fleet sessions share nothing mutable, so a fleet
//! is just those loops run one after another. This module supplies:
//!
//! * **sharded per-session loops** — [`shard_ranges`] splits the fleet
//!   into contiguous index ranges driven on the `ee360-support` worker
//!   pool; each worker runs its sessions one at a time with
//!   [`ScaleDriver::stream`], so a worker holds one live session. Summaries
//!   are folded back in user-index order, so results are independent of
//!   the thread count;
//! * **a compact scale driver** — [`ScaleDriver`] holds O(100 bytes) of
//!   state (buffer/clock/counters core, an RNG handle and scalar
//!   accumulators — no per-segment vectors) and books energy/QoE through
//!   the same `ee360-power`/`ee360-qoe` models as the full client. Every
//!   scale session runs on the Pixel 3 models under
//!   [`RetryPolicy::default_mobile`], starting within the first 2 s;
//! * **one entry point** — [`run_scale_fleet`] runs the fleet, folds the
//!   report and, when [`FleetConfig::telemetry`] asks for it, the
//!   windowed series, exemplars and sampled traces. Plain and windowed
//!   runs take the same branches; only the window-log slot a session is
//!   handed differs.
//!
//! Every download goes through [`SessionCore::begin_download`] and
//! [`SessionCore::step_download`], the simulator's one download path,
//! which the paper client in `ee360-core` steps too.

use std::ops::Range;

use ee360_obs::profile::StageTimer;
use ee360_obs::timeseries::window_index;
use ee360_obs::{
    evaluate_all, sampled, ExemplarSummary, Exemplars, FleetSeries, Level, Record, Recorder,
    SessionWindows, SloSpec, TelemetryConfig, WindowCums, TIMESERIES_SCHEMA,
};
use ee360_power::energy::{SegmentEnergy, SegmentEnergyParams};
use ee360_power::model::{DecoderScheme, Phone, PowerModel};
use ee360_qoe::impairment::{QoeWeights, SegmentQoe};
use ee360_qoe::quality::QoModel;
use ee360_support::parallel::parallel_map_indexed;
use ee360_support::rng::StdRng;
use ee360_trace::fault::FaultPlan;
use ee360_trace::network::NetworkTrace;
use ee360_video::content::SiTi;
use ee360_video::segment::SEGMENT_DURATION_SEC;

use crate::decoder::DecoderPipeline;
use crate::resilience::{
    DownloadEnv, DownloadOutcome, DownloadState, ResilienceCounters, RetryPolicy, SessionCore,
};

/// Per-kind tallies of session loops, counted as each session runs. A
/// session makes one replan per segment slot plus a terminal one that
/// finds no slot left, one fault fire per download step that leaves the
/// download unresolved, one download completion per booked segment, and
/// a stall start/end pair per booking that stalled playback. These
/// counts are intrinsic to the sessions (identical across thread counts
/// and shardings); `peak_queue_len` is not, and must never be folded
/// into replay-compared reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Tallies of every kind, in total.
    pub events: u64,
    /// Replans: segment picks plus one terminal replan per session.
    pub replans: u64,
    /// Booked downloads (delivered or skipped).
    pub download_completes: u64,
    /// Download steps that left the download unresolved.
    pub fault_fires: u64,
    /// Bookings that stalled playback: each opens a stall…
    pub stall_starts: u64,
    /// …and closes it, so this equals `stall_starts`.
    pub stall_ends: u64,
    /// Sessions a worker holds live at once: 1, because each worker runs
    /// its sessions one after another (0 when no session ran).
    pub peak_queue_len: usize,
}

impl EngineStats {
    /// The tallies of one session about to run: one live session,
    /// nothing counted yet.
    #[must_use]
    pub fn session() -> Self {
        Self {
            peak_queue_len: 1,
            ..Self::default()
        }
    }

    /// Counts one replan.
    pub fn count_replan(&mut self) {
        self.replans += 1;
        self.events += 1;
    }

    /// Counts one download step that left the download unresolved.
    pub fn count_fault_fire(&mut self) {
        self.fault_fires += 1;
        self.events += 1;
    }

    /// Counts one booked download, plus its stall start and end when it
    /// stalled playback.
    pub fn count_completion(&mut self, outcome: &DownloadOutcome) {
        self.download_completes += 1;
        self.events += 1;
        if outcome.stall_sec() > 0.0 {
            self.stall_starts += 1;
            self.stall_ends += 1;
            self.events += 2;
        }
    }

    /// Component-wise accumulation; `peak_queue_len` takes the max (the
    /// workers hold their live sessions side by side, not in sequence).
    pub fn accumulate(&mut self, other: &EngineStats) {
        self.events += other.events;
        self.replans += other.replans;
        self.download_completes += other.download_completes;
        self.fault_fires += other.fault_fires;
        self.stall_starts += other.stall_starts;
        self.stall_ends += other.stall_ends;
        self.peak_queue_len = self.peak_queue_len.max(other.peak_queue_len);
    }
}

/// Splits `0..n` into at most `shards` contiguous, near-equal ranges —
/// a pure function of `(n, shards)`, so the assignment of sessions to
/// workers is deterministic.
pub fn shard_ranges(n: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1).min(n.max(1));
    let chunk = n.div_ceil(shards);
    (0..shards)
        .map(|i| (i * chunk).min(n)..((i + 1) * chunk).min(n))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Decorrelation stride between fleet sessions sharing one
/// [`FaultPlan`]: session `i` keys its per-attempt faults at
/// `i * FLEET_FAULT_STRIDE + segment`, so no realistic session length
/// overlaps another session's fault stream.
pub const FLEET_FAULT_STRIDE: usize = 100_000;

/// Sessions start uniformly spread over `[0, START_SPREAD_SEC)`.
const START_SPREAD_SEC: f64 = 2.0;

/// Phone whose power models price every scale session's energy.
const FLEET_PHONE: Phone = Phone::Pixel3;

/// Retry/timeout policy every scale session runs under.
const FLEET_POLICY: RetryPolicy = RetryPolicy::default_mobile();

/// Bits per one-second segment at each rung of the scale driver's
/// ladder (top-to-bottom).
const SCALE_LADDER_BITS: [f64; 5] = [16.0e6, 10.0e6, 6.0e6, 3.5e6, 1.5e6];

/// Effective bitrate (Mbps) of each ladder rung, for the Q_o model.
const SCALE_LADDER_MBPS: [f64; 5] = [16.0, 10.0, 6.0, 3.5, 1.5];

fn ladder_bits(level: usize, rung: usize) -> f64 {
    let wanted = level + rung;
    let idx = wanted.min(SCALE_LADDER_BITS.len() - 1);
    // Degradation past the ladder floor keeps halving so the recovery
    // path always has somewhere cheaper to go.
    let extra = (wanted - idx).min(8);
    SCALE_LADDER_BITS[idx] / (1u64 << extra) as f64
}

/// Configuration of a scale-fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Number of sessions in the fleet.
    pub sessions: usize,
    /// Segment slots each session streams.
    pub segments: usize,
    /// Master seed; session `i` derives its RNG stream from
    /// `seed + i` (SplitMix64-decorrelated).
    pub seed: u64,
    /// Worker threads for the sharded run (results are identical at any
    /// thread count).
    pub threads: usize,
    /// Telemetry switches (windowed series, sampled tracing, exemplar
    /// capture). All off by default, which keeps the fleet's outputs and
    /// heap profile byte-identical to the pre-telemetry engine.
    pub telemetry: TelemetryConfig,
}

impl FleetConfig {
    /// A fleet of `sessions` × `segments` with the mobile retry policy,
    /// a 2 s start spread and the Pixel 3 power models.
    pub fn new(sessions: usize, segments: usize, seed: u64) -> Self {
        Self {
            sessions,
            segments,
            seed,
            threads: 1,
            telemetry: TelemetryConfig::off(),
        }
    }

    /// Sets the worker-thread count (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the telemetry switches (windowed series, sampled tracing,
    /// exemplars).
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// Per-session scalar outcome of a scale-fleet session — everything the
/// fold retains (≈180 bytes, no vectors).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionSummary {
    /// Segment slots consumed (delivered + skipped).
    pub segments: usize,
    /// Segments delivered.
    pub delivered: usize,
    /// Segments skipped after an exhausted deadline.
    pub skipped: usize,
    /// Sum of per-segment QoE totals (Eq. 2).
    pub qoe_sum: f64,
    /// Total energy booked, millijoules.
    pub energy_mj: f64,
    /// Total stall time, seconds.
    pub stall_sec: f64,
    /// Total bits moved (delivered + wasted).
    pub bits: f64,
    /// Session wall clock at completion, seconds.
    pub clock_sec: f64,
    /// Startup latency: seconds from session start to the first
    /// delivered segment's booking; negative while/if nothing was ever
    /// delivered.
    pub startup_sec: f64,
    /// The session's resilience tallies.
    pub counters: ResilienceCounters,
}

ee360_support::impl_json_struct!(SessionSummary {
    segments,
    delivered,
    skipped,
    qoe_sum,
    energy_mj,
    stall_sec,
    bits,
    clock_sec,
    startup_sec,
    counters
});

/// Fleet-level aggregate of a scale run. Contains only thread-count
/// independent quantities (per-session sums folded in user order and
/// intrinsic session tallies) — safe to compare byte-for-byte across
/// replays and worker counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetReport {
    /// Sessions simulated.
    pub sessions: usize,
    /// Segment slots consumed across the fleet.
    pub segments: usize,
    /// Segments delivered across the fleet.
    pub delivered: usize,
    /// Segments skipped across the fleet.
    pub skipped: usize,
    /// Mean per-segment QoE across all consumed slots.
    pub mean_qoe: f64,
    /// Total energy, millijoules.
    pub total_energy_mj: f64,
    /// Total stall time, seconds.
    pub total_stall_sec: f64,
    /// Total bits moved.
    pub total_bits: f64,
    /// Replans (intrinsic; see [`EngineStats`]).
    pub replans: u64,
    /// Booked downloads (intrinsic).
    pub download_completes: u64,
    /// Unresolved download steps (intrinsic).
    pub fault_fires: u64,
    /// Bookings that stalled playback (intrinsic).
    pub stall_starts: u64,
    /// Fleet-wide resilience tallies.
    pub counters: ResilienceCounters,
}

ee360_support::impl_json_struct!(FleetReport {
    sessions,
    segments,
    delivered,
    skipped,
    mean_qoe,
    total_energy_mj,
    total_stall_sec,
    total_bits,
    replans,
    download_completes,
    fault_fires,
    stall_starts,
    counters
});

/// Read-only inputs shared by every session of one shard: the traces by
/// reference, the models by value (constructed deterministically).
#[derive(Debug)]
pub struct ScaleEnv<'a> {
    config: FleetConfig,
    network: &'a NetworkTrace,
    faults: &'a FaultPlan,
    power: PowerModel,
    qo_model: QoModel,
    weights: QoeWeights,
    decoder: DecoderPipeline,
    content: SiTi,
}

impl<'a> ScaleEnv<'a> {
    /// Builds the shared environment for one fleet run.
    pub fn new(config: &FleetConfig, network: &'a NetworkTrace, faults: &'a FaultPlan) -> Self {
        Self {
            config: *config,
            network,
            faults,
            power: PowerModel::for_phone(FLEET_PHONE),
            qo_model: QoModel::paper_default(),
            weights: QoeWeights::paper_default(),
            decoder: DecoderPipeline::paper_default(),
            // The reference content of Fig. 4a's cloud (SI 60, TI 25).
            content: SiTi::new(60.0, 25.0),
        }
    }
}

/// One scale session. All state is scalar: the [`SessionCore`] (buffer,
/// clock, counters), a 32-byte RNG, an EWMA bandwidth estimate and the
/// running [`SessionSummary`]. No allocation after construction.
#[derive(Debug)]
pub struct ScaleDriver<'a> {
    env: &'a ScaleEnv<'a>,
    index: usize,
    core: SessionCore,
    rng: StdRng,
    next_segment: usize,
    level: usize,
    coverage: f64,
    bw_est_bps: f64,
    prev_qo: Option<f64>,
    summary: SessionSummary,
    /// Session start offset (clock after the start spread), the zero
    /// point for startup latency.
    start_sec: f64,
    /// The window the most recent booking landed in; [`WINDOW_NONE`]
    /// until the first booking. Cells are sealed lazily: the booking
    /// path only tracks `cur_window`, and a snapshot is stamped into the
    /// session's window log when a booking lands in a *later* window
    /// (plus a final seal when the session ends), so the per-booking
    /// cost is one float compare, not a struct copy.
    cur_window: u32,
    /// End of `cur_window` in simulation seconds (0.0 until the first
    /// booking), so the same-window fast path is a single compare with
    /// no divide.
    window_end_sec: f64,
    /// Full `Detail` trace for sessions picked by the `(seed, session)`
    /// sampling hash; `None` (no heap) for everyone else.
    trace: Option<Box<Recorder>>,
}

/// Ring-buffer bound for one sampled session's `Detail` trace: deep
/// enough for every per-attempt event of a smoke-scale session, small
/// enough that a 1% sample of a 100k fleet stays tens of megabytes.
const TRACE_EVENT_CAPACITY: usize = 512;

/// Sentinel for [`ScaleDriver::cur_window`]: no booking yet. Real window
/// indices are clamped to [`ee360_obs::timeseries::MAX_WINDOWS`], far
/// below this.
const WINDOW_NONE: u32 = u32::MAX;

impl<'a> ScaleDriver<'a> {
    /// Builds session `index` of the fleet: its RNG stream is derived
    /// from `config.seed + index` (SplitMix64 decorrelates neighbours)
    /// and its fault keys live at `index * FLEET_FAULT_STRIDE`.
    pub fn new(env: &'a ScaleEnv<'a>, index: usize) -> Self {
        let rng = StdRng::seed_from_u64(env.config.seed.wrapping_add(index as u64));
        let tel = env.config.telemetry;
        Self {
            env,
            index,
            core: SessionCore::new(3.0),
            rng,
            next_segment: 0,
            level: 0,
            coverage: 1.0,
            bw_est_bps: 0.7 * env.network.bandwidth_at(0.0),
            prev_qo: None,
            summary: SessionSummary {
                startup_sec: -1.0,
                ..SessionSummary::default()
            },
            start_sec: 0.0,
            cur_window: WINDOW_NONE,
            window_end_sec: 0.0,
            trace: (tel.sampling_enabled()
                && sampled(env.config.seed, index as u64, tel.sample_ppm))
            .then(|| Box::new(Recorder::new(Level::Detail).with_capacity(TRACE_EVENT_CAPACITY))),
        }
    }

    /// Streams the whole session: after a start offset drawn uniformly
    /// from `[0, START_SPREAD_SEC)`, each segment slot picks a rung,
    /// opens its download, steps it until an outcome lands, and books
    /// it. `windows` is the session's window log, `None` when windowing
    /// is off; both cases take the same branches, so windowed and plain
    /// runs stay identical. Returns the summary, the `Detail` trace the
    /// session carried (sampled sessions only) and the session's tallies.
    pub fn stream(
        mut self,
        mut windows: Option<&mut SessionWindows>,
    ) -> (SessionSummary, Option<Box<Recorder>>, EngineStats) {
        let mut stats = EngineStats::session();
        let offset = self.rng.gen_f64() * START_SPREAD_SEC;
        self.core.advance_clock(offset);
        self.start_sec = self.core.clock_sec();
        let denv = self.download_env();
        loop {
            stats.count_replan();
            if self.next_segment >= self.env.config.segments {
                break;
            }
            self.pick_rung();
            let mut st = self.core.begin_download(&denv, self.next_segment);
            let outcome = loop {
                match self.step(&denv, &mut st) {
                    Some(outcome) => break outcome,
                    None => stats.count_fault_fire(),
                }
            };
            stats.count_completion(&outcome);
            self.book(outcome, windows.as_deref_mut());
        }
        // The final seal stamps the session's final accumulators, which
        // is what makes the series' final row bit-exact against the
        // fleet report.
        if self.cur_window != WINDOW_NONE {
            if let Some(windows) = windows {
                windows.stamp(self.cur_window, self.window_cums());
            }
        }
        let mut summary = self.summary;
        summary.counters = *self.core.counters();
        summary.clock_sec = self.core.clock_sec();
        (summary, self.trace, stats)
    }

    /// Bit-copies of the running accumulators the fold will total.
    fn window_cums(&self) -> WindowCums {
        WindowCums {
            stall_sec: self.summary.stall_sec,
            qoe_sum: self.summary.qoe_sum,
            energy_mj: self.summary.energy_mj,
            bits: self.summary.bits,
            segments: self.summary.segments as u32,
            delivered: self.summary.delivered as u32,
            skipped: self.summary.skipped as u32,
        }
    }

    fn download_env(&self) -> DownloadEnv<'a> {
        DownloadEnv {
            network: self.env.network,
            plan: self.env.faults,
            policy: &FLEET_POLICY,
            decoder: &self.env.decoder,
            fault_base: self.index * FLEET_FAULT_STRIDE,
        }
    }

    /// Draws the segment's viewport coverage and picks its rung-0 level.
    fn pick_rung(&mut self) {
        // Per-segment viewport-prediction miss, drawn from the session's
        // own stream: 85–100% of the FoV lands on the fetched tiles.
        self.coverage = 0.85 + 0.15 * self.rng.gen_f64();
        // Rate-based rung-0 pick: the cheapest rung that fits 80% of the
        // EWMA estimate, stepped down once more when the buffer is thin.
        let budget_bits = 0.8 * self.bw_est_bps * SEGMENT_DURATION_SEC;
        let mut level = SCALE_LADDER_BITS.len() - 1;
        for (i, &bits) in SCALE_LADDER_BITS.iter().enumerate() {
            if bits <= budget_bits {
                level = i;
                break;
            }
        }
        if self.core.buffer_level_sec() < 1.0 && level + 1 < SCALE_LADDER_BITS.len() {
            level += 1;
        }
        self.level = level;
    }

    /// Runs one attempt of the open download: `None` while it is still
    /// in flight.
    fn step(&mut self, denv: &DownloadEnv<'_>, st: &mut DownloadState) -> Option<DownloadOutcome> {
        let level = self.level;
        let mut request = |rung: usize| ladder_bits(level, rung);
        // Sampled sessions step through a live Detail recorder; recording
        // never changes the simulation (pinned by the obs reconcile
        // tests), so sampled and unsampled sessions stay bit-identical.
        let mut noop = ee360_obs::NoopRecorder;
        let rec: &mut dyn Record = match self.trace.as_deref_mut() {
            Some(trace) => trace,
            None => &mut noop,
        };
        self.core.step_download(denv, st, &mut request, rec)
    }

    fn book(&mut self, outcome: DownloadOutcome, windows: Option<&mut SessionWindows>) {
        let tel = &self.env.config.telemetry;
        if tel.windows_enabled() && self.core.clock_sec() >= self.window_end_sec {
            // Lazy seal: the summary still holds the previous booking's
            // accumulators here, so a booking that lands in a later
            // window first snapshots the window it is leaving. The
            // cached window end makes the same-window fast path a single
            // compare; the divide only runs on a window transition.
            let w = window_index(self.core.clock_sec(), tel.window_sec);
            if w != self.cur_window {
                if self.cur_window != WINDOW_NONE {
                    if let Some(windows) = windows {
                        windows.stamp(self.cur_window, self.window_cums());
                    }
                }
                self.cur_window = w;
            }
            self.window_end_sec = (f64::from(w) + 1.0) * tel.window_sec;
        }
        let k = self.next_segment;
        self.next_segment += 1;
        self.summary.segments += 1;
        match outcome {
            DownloadOutcome::Delivered {
                timing,
                bits,
                wasted_bits,
                degraded_rungs,
                ..
            } => {
                self.summary.delivered += 1;
                if self.summary.delivered == 1 {
                    self.summary.startup_sec = self.core.clock_sec() - self.start_sec;
                }
                self.summary.bits += bits + wasted_bits;
                self.summary.stall_sec += timing.stall_sec;
                self.bw_est_bps = 0.8 * self.bw_est_bps + 0.2 * timing.throughput_bps;
                let energy = SegmentEnergy::compute(
                    &self.env.power,
                    SegmentEnergyParams {
                        bits: bits + wasted_bits,
                        bandwidth_bps: timing.throughput_bps,
                        fps: 30.0,
                        duration_sec: SEGMENT_DURATION_SEC,
                        scheme: DecoderScheme::Ctile,
                    },
                );
                self.summary.energy_mj += energy.total_mj();
                let floor = SCALE_LADDER_MBPS.len() - 1;
                let served = (self.level + degraded_rungs).min(floor);
                let qo_hi = self
                    .env
                    .qo_model
                    .q_o(self.env.content, SCALE_LADDER_MBPS[served]);
                let qo_lo = self
                    .env
                    .qo_model
                    .q_o(self.env.content, SCALE_LADDER_MBPS[floor]);
                let qo_eff = self.coverage * qo_hi + (1.0 - self.coverage) * qo_lo;
                // Startup (k = 0) is not a rebuffering event.
                let download_for_qoe = if k == 0 { 0.0 } else { timing.download_sec };
                let qoe = SegmentQoe::evaluate(
                    self.env.weights,
                    qo_eff,
                    self.prev_qo,
                    download_for_qoe,
                    timing.buffer_at_request_sec,
                );
                self.prev_qo = Some(qo_eff);
                self.summary.qoe_sum += qoe.total;
            }
            DownloadOutcome::Skipped {
                blackout_sec,
                wasted_bits,
                elapsed_sec,
                ..
            } => {
                self.summary.skipped += 1;
                self.summary.bits += wasted_bits;
                self.summary.stall_sec += outcome.stall_sec();
                self.summary.energy_mj += self.env.power.transmission_power_mw() * elapsed_sec;
                let qoe =
                    SegmentQoe::evaluate(self.env.weights, 0.0, self.prev_qo, blackout_sec, 0.0);
                self.prev_qo = Some(0.0);
                self.summary.qoe_sum += qoe.total;
            }
        }
    }
}

/// Everything one shard hands back to the fold: summaries (always),
/// window logs and sampled traces (when telemetry asked for them), the
/// session tallies, and — under `EE360_OBS_PROFILE=1` — the shard's
/// wall-clock loop time.
struct ShardOut {
    summaries: Vec<SessionSummary>,
    /// Per-session window logs, indexed like `summaries`; empty when
    /// windowing is off. One allocation for the whole shard, handed back
    /// wholesale.
    windows: Vec<SessionWindows>,
    /// Dense window count this shard needs (`max(last_window) + 1`),
    /// computed in the worker so the fold thread never re-scans the
    /// window logs just to size the series.
    n_windows: usize,
    traces: Vec<(u64, Box<Recorder>)>,
    stats: EngineStats,
    loop_wall_sec: Option<f64>,
}

/// Runs the fleet as one contiguous shard per worker, each worker
/// running its sessions one after another.
fn run_scale_shards(
    config: &FleetConfig,
    network: &NetworkTrace,
    faults: &FaultPlan,
    profiling: bool,
) -> Vec<ShardOut> {
    let threads = config.threads.max(1);
    let ranges = shard_ranges(config.sessions, threads);
    let keep_windows = config.telemetry.windows_enabled();
    parallel_map_indexed(threads, ranges.len(), |shard| {
        let range = ranges.get(shard).cloned().unwrap_or(0..0);
        let env = ScaleEnv::new(config, network, faults);
        let loop_timer = StageTimer::start(profiling);
        let mut out = ShardOut {
            summaries: Vec::with_capacity(range.len()),
            windows: Vec::new(),
            n_windows: 1,
            traces: Vec::new(),
            stats: EngineStats::default(),
            loop_wall_sec: None,
        };
        // Empty when windowing is off, so every session's slot is `None`.
        if keep_windows {
            out.windows
                .resize_with(range.len(), SessionWindows::default);
        }
        for (slot, index) in range.enumerate() {
            let (summary, trace, stats) =
                ScaleDriver::new(&env, index).stream(out.windows.get_mut(slot));
            out.summaries.push(summary);
            out.stats.accumulate(&stats);
            if let Some(last) = out.windows.get(slot).and_then(SessionWindows::last_window) {
                out.n_windows = out.n_windows.max(last as usize + 1);
            }
            if let Some(trace) = trace {
                out.traces.push((index as u64, trace));
            }
        }
        out.loop_wall_sec = loop_timer.stop();
        out
    })
}

/// The telemetry a scale-fleet run produced beyond its report: the
/// windowed series, the tail exemplars, and the sampled sessions'
/// `Detail` traces (user-index order).
#[derive(Debug)]
pub struct FleetTelemetry {
    /// Telemetry switches the run used.
    pub config: TelemetryConfig,
    /// Cumulative windowed series; `None` when windowing was off.
    pub series: Option<FleetSeries>,
    /// Worst-K tail exemplars; `None` when exemplar capture was off.
    pub exemplars: Option<Exemplars>,
    /// `(session index, trace)` for every sampled session, in user
    /// order.
    pub traces: Vec<(u64, Box<Recorder>)>,
}

impl FleetTelemetry {
    /// The sampled session indices, in user order.
    #[must_use]
    pub fn sampled_sessions(&self) -> Vec<u64> {
        self.traces.iter().map(|(i, _)| *i).collect()
    }

    /// Total events held across every sampled trace.
    #[must_use]
    pub fn trace_events(&self) -> u64 {
        self.traces.iter().map(|(_, t)| t.events_len() as u64).sum()
    }
}

/// Runs a scale fleet and folds it into a [`FleetReport`], streaming the
/// per-session summaries into the recorder's registry (`fleet.*`
/// counters and histograms) **in user-index order** — the shards are
/// contiguous index ranges, so concatenating their summaries restores
/// the sequential fold order and the report plus registry are
/// byte-identical at every thread count.
///
/// Returns the report, the session tallies (whose `peak_queue_len`
/// describes the run, not the sessions, and stays out of the report)
/// and — when [`FleetConfig::telemetry`] asks for it — the
/// [`FleetTelemetry`]: the windowed [`FleetSeries`] (folded per session
/// in user-index order, so bit-identical at every thread count), the
/// worst-K [`Exemplars`], and the sampled `Detail` traces. Telemetry
/// never changes the report.
pub fn run_scale_fleet(
    config: &FleetConfig,
    network: &NetworkTrace,
    faults: &FaultPlan,
    rec: &mut dyn Record,
) -> (FleetReport, EngineStats, Option<FleetTelemetry>) {
    let profiling = rec.profiling();
    let dispatch_timer = StageTimer::start(profiling);
    let shards = run_scale_shards(config, network, faults, profiling);
    if let Some(t) = dispatch_timer.stop() {
        rec.observe("profile.fleet.dispatch_wall_sec", t);
    }
    let fold_timer = StageTimer::start(profiling);
    let tel = config.telemetry;
    let mut report = FleetReport {
        sessions: config.sessions,
        ..FleetReport::default()
    };
    let mut stats = EngineStats::default();
    let mut qoe_sum = 0.0f64;
    let mut series = if tel.windows_enabled() {
        // Dense windows sized by the shard-local maxima (computed while
        // the cells were hot in the workers), so every session folds
        // over the same window range.
        let n_windows = shards.iter().map(|s| s.n_windows).max().unwrap_or(1);
        // lint:allow(hot-path-alloc, "one allocation per fleet run: the dense window vector is sized once by the pre-pass, never grown")
        Some(FleetSeries::new(tel.window_sec, n_windows))
    } else {
        None
    };
    let mut exemplars = tel
        .exemplars_enabled()
        .then(|| Exemplars::new(tel.exemplar_k as usize));
    let mut traces: Vec<(u64, Box<Recorder>)> = Vec::new();
    let mut session_index = 0u64;
    for shard in shards {
        stats.accumulate(&shard.stats);
        if let Some(t) = shard.loop_wall_sec {
            rec.observe("profile.fleet.session_loop_wall_sec", t);
        }
        for (i, s) in shard.summaries.iter().enumerate() {
            report.segments += s.segments;
            report.delivered += s.delivered;
            report.skipped += s.skipped;
            qoe_sum += s.qoe_sum;
            report.total_energy_mj += s.energy_mj;
            report.total_stall_sec += s.stall_sec;
            report.total_bits += s.bits;
            report.counters.accumulate(&s.counters);
            rec.count("fleet.sessions", 1);
            rec.count("fleet.segments", s.segments as u64);
            rec.count("fleet.delivered", s.delivered as u64);
            rec.count("fleet.skipped", s.skipped as u64);
            rec.observe("fleet.session_qoe", s.qoe_sum / s.segments.max(1) as f64);
            rec.observe("fleet.session_energy_mj", s.energy_mj);
            rec.observe("fleet.session_stall_sec", s.stall_sec);
            if let (Some(series), Some(windows)) = (series.as_mut(), shard.windows.get(i)) {
                series.fold_session(windows, (s.startup_sec >= 0.0).then_some(s.startup_sec));
            }
            if let Some(ex) = exemplars.as_mut() {
                ex.offer(ExemplarSummary {
                    session: session_index,
                    stall_sec: s.stall_sec,
                    mean_qoe: s.qoe_sum / s.segments.max(1) as f64,
                    energy_mj: s.energy_mj,
                    delivered: s.delivered as u32,
                    skipped: s.skipped as u32,
                    startup_sec: s.startup_sec,
                });
            }
            session_index += 1;
        }
        traces.extend(shard.traces);
    }
    report.replans = stats.replans;
    report.download_completes = stats.download_completes;
    report.fault_fires = stats.fault_fires;
    report.stall_starts = stats.stall_starts;
    rec.count("fleet.events.replan", stats.replans);
    rec.count("fleet.events.download_complete", stats.download_completes);
    rec.count("fleet.events.fault_fire", stats.fault_fires);
    rec.count("fleet.events.stall_start", stats.stall_starts);
    if tel.sampling_enabled() {
        rec.count("fleet.sampled_sessions", traces.len() as u64);
        rec.count(
            "fleet.trace_events",
            traces.iter().map(|(_, t)| t.events_len() as u64).sum(),
        );
    }
    report.mean_qoe = if report.segments > 0 {
        qoe_sum / report.segments as f64
    } else {
        0.0
    };
    if let Some(t) = fold_timer.stop() {
        rec.observe("profile.fleet.fold_wall_sec", t);
    }
    let telemetry = tel.enabled().then(|| FleetTelemetry {
        config: tel,
        series,
        exemplars,
        traces,
    });
    (report, stats, telemetry)
}

/// Assembles the versioned `ee360.timeseries.v1` artifact for a
/// telemetry-enabled fleet run: the windowed series, exemplars,
/// sampling accounting, SLO verdicts, and the whole-run totals the
/// reconciliation tests compare against.
#[must_use]
pub fn fleet_timeseries_json(
    config: &FleetConfig,
    report: &FleetReport,
    telemetry: &FleetTelemetry,
    slos: &[SloSpec],
) -> ee360_support::json::Json {
    use ee360_support::json::{Json, ToJson};
    let slo_json = match telemetry.series.as_ref() {
        Some(series) => Json::Arr(
            evaluate_all(slos, series)
                .iter()
                .map(ToJson::to_json)
                .collect(),
        ),
        None => Json::Arr(Vec::new()),
    };
    let sampling = Json::Obj(vec![
        (
            "rate_ppm".to_owned(),
            Json::Int(i64::from(telemetry.config.sample_ppm)),
        ),
        (
            "sampled_sessions".to_owned(),
            Json::Int(telemetry.traces.len() as i64),
        ),
        (
            "sessions".to_owned(),
            Json::Arr(
                telemetry
                    .traces
                    .iter()
                    .map(|(i, _)| Json::Int(*i as i64))
                    .collect(),
            ),
        ),
        (
            "trace_events".to_owned(),
            Json::Int(telemetry.trace_events() as i64),
        ),
    ]);
    let totals = Json::Obj(vec![
        ("segments".to_owned(), Json::Int(report.segments as i64)),
        ("delivered".to_owned(), Json::Int(report.delivered as i64)),
        ("skipped".to_owned(), Json::Int(report.skipped as i64)),
        (
            "total_stall_sec".to_owned(),
            Json::Num(report.total_stall_sec),
        ),
        (
            "total_energy_mj".to_owned(),
            Json::Num(report.total_energy_mj),
        ),
        ("total_bits".to_owned(), Json::Num(report.total_bits)),
        ("mean_qoe".to_owned(), Json::Num(report.mean_qoe)),
    ]);
    Json::Obj(vec![
        ("schema".to_owned(), Json::Str(TIMESERIES_SCHEMA.to_owned())),
        ("seed".to_owned(), Json::Int(config.seed as i64)),
        ("sessions".to_owned(), Json::Int(config.sessions as i64)),
        (
            "window_sec".to_owned(),
            Json::Num(telemetry.config.window_sec),
        ),
        (
            "timeseries".to_owned(),
            match telemetry.series.as_ref() {
                Some(series) => series.to_json(),
                None => Json::Null,
            },
        ),
        (
            "exemplars".to_owned(),
            match telemetry.exemplars.as_ref() {
                Some(ex) => ex.to_json(),
                None => Json::Null,
            },
        ),
        ("sampling".to_owned(), sampling),
        ("slo".to_owned(), slo_json),
        ("totals".to_owned(), totals),
    ])
}

/// The fleet's per-session summaries in user order (test and inspection
/// entry; retains one summary per session, so size the fleet
/// accordingly).
pub fn run_scale_summaries(
    config: &FleetConfig,
    network: &NetworkTrace,
    faults: &FaultPlan,
) -> Vec<SessionSummary> {
    run_scale_shards(config, network, faults, false)
        .into_iter()
        .flat_map(|shard| shard.summaries)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee360_support::json::to_string;
    use ee360_trace::fault::FaultConfig;

    fn chaos_inputs() -> (NetworkTrace, FaultPlan) {
        let network = NetworkTrace::paper_trace2(300, 11);
        let faults =
            FaultPlan::generate(FaultConfig::chaos_default(), 300.0, 42).and_outage(40.0, 6.0);
        (network, faults)
    }

    #[test]
    fn shard_ranges_cover_exactly_once() {
        for n in [0usize, 1, 7, 48, 100, 1000] {
            for shards in [1usize, 2, 3, 7, 16, 200] {
                let ranges = shard_ranges(n, shards);
                let mut covered = 0usize;
                let mut expected_start = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, expected_start, "n={n} shards={shards}");
                    assert!(r.end > r.start);
                    covered += r.len();
                    expected_start = r.end;
                }
                assert_eq!(covered, n, "n={n} shards={shards}");
                assert!(ranges.len() <= shards.max(1));
            }
        }
    }

    /// Golden per-session `SessionSummary` JSON bytes of the 16 × 20
    /// chaos fleet (seed 99): every f64 of every session, in user order.
    #[test]
    fn session_summaries_are_pinned() {
        let (network, faults) = chaos_inputs();
        let config = FleetConfig::new(16, 20, 99);
        let summaries = run_scale_summaries(&config, &network, &faults);
        assert_eq!(
            to_string(&summaries).unwrap(),
            include_str!("../tests/fixtures/scale_summaries_chaos_16x20_seed99.json")
        );
    }

    #[test]
    fn report_is_thread_count_independent_and_replays() {
        let (network, faults) = chaos_inputs();
        let run = |threads: usize| {
            let config = FleetConfig::new(64, 12, 7).with_threads(threads);
            let (report, _, _) =
                run_scale_fleet(&config, &network, &faults, &mut ee360_obs::NoopRecorder);
            to_string(&report).unwrap()
        };
        let baseline = run(1);
        assert_eq!(run(1), baseline, "same seed must replay byte-identically");
        for threads in [2usize, 4, 16] {
            assert_eq!(run(threads), baseline, "{threads} threads diverged");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (network, faults) = chaos_inputs();
        let run = |seed: u64| {
            let config = FleetConfig::new(8, 10, seed);
            let (report, _, _) =
                run_scale_fleet(&config, &network, &faults, &mut ee360_obs::NoopRecorder);
            to_string(&report).unwrap()
        };
        assert_ne!(run(1), run(2), "seeds must matter");
    }

    #[test]
    fn chaos_fleet_records_faults_and_completes_every_slot() {
        let (network, faults) = chaos_inputs();
        let config = FleetConfig::new(32, 15, 5);
        let (report, stats, _) =
            run_scale_fleet(&config, &network, &faults, &mut ee360_obs::NoopRecorder);
        assert_eq!(report.segments, 32 * 15, "every slot consumed");
        assert_eq!(report.delivered + report.skipped, report.segments);
        assert!(report.total_energy_mj > 0.0);
        assert!(
            !report.counters.is_clean(),
            "chaos must leave a resilience trace"
        );
        assert_eq!(
            stats.replans as usize,
            32 * 15 + 32,
            "one replan per slot plus one terminal replan per session"
        );
        assert_eq!(stats.download_completes as usize, report.segments);
    }

    /// Golden `FleetReport` bytes of the 64 × 12 chaos fleet: the scale
    /// driver's fixed start spread, phone and retry policy must keep
    /// producing exactly this report, with telemetry off or on.
    const PINNED_FLEET_REPORT: &str = concat!(
        r#"{"sessions":64,"segments":768,"delivered":768,"skipped":0,"#,
        r#""mean_qoe":61.27504241023005,"total_energy_mj":1382467.645728414,"#,
        r#""total_stall_sec":71.41914375546324,"total_bits":1166500000.0,"#,
        r#""replans":832,"download_completes":768,"fault_fires":25,"stall_starts":85,"#,
        r#""counters":{"attempts":793,"retries":25,"timeouts":18,"abandons":0,"#,
        r#""losses":18,"corruptions":7,"decoder_failures":9,"skipped_segments":0,"#,
        r#""degraded_segments":0,"degraded_rungs":0,"backoff_sec":6.25,"#,
        r#""blackout_sec":0.0,"recovery_sec":94.5130096128178,"wasted_bits":10500000.0}}"#
    );

    /// The `FleetReport` JSON of the 64 × 12 chaos fleet (seed 7) under
    /// the given telemetry switches.
    fn pinned_fleet_report(telemetry: TelemetryConfig) -> String {
        let (network, faults) = chaos_inputs();
        let config = FleetConfig::new(64, 12, 7).with_telemetry(telemetry);
        let (report, _, fleet_telemetry) =
            run_scale_fleet(&config, &network, &faults, &mut ee360_obs::NoopRecorder);
        assert_eq!(
            fleet_telemetry.is_some(),
            telemetry.enabled(),
            "telemetry is returned exactly when requested"
        );
        to_string(&report).unwrap()
    }

    #[test]
    fn fleet_report_is_pinned() {
        let off = pinned_fleet_report(TelemetryConfig::off());
        let on = pinned_fleet_report(TelemetryConfig::standard());
        assert_eq!(off, PINNED_FLEET_REPORT);
        assert_eq!(
            on, PINNED_FLEET_REPORT,
            "telemetry must not move the report"
        );
    }

    #[test]
    fn telemetry_final_row_reconciles_bit_exactly_with_the_report() {
        let (network, faults) = chaos_inputs();
        let config = FleetConfig::new(48, 20, 31).with_telemetry(TelemetryConfig::standard());
        let (report, _, telemetry) =
            run_scale_fleet(&config, &network, &faults, &mut ee360_obs::NoopRecorder);
        let telemetry = telemetry.expect("telemetry on");
        let series = telemetry.series.as_ref().expect("windowing on");
        let last = series.final_row().expect("windows");
        // f64 accumulators: bit-exact (identical += chain in user order).
        assert_eq!(last.stall_sec.to_bits(), report.total_stall_sec.to_bits());
        assert_eq!(last.energy_mj.to_bits(), report.total_energy_mj.to_bits());
        assert_eq!(last.bits.to_bits(), report.total_bits.to_bits());
        // u64 counters: integer-exact.
        assert_eq!(last.segments as usize, report.segments);
        assert_eq!(last.delivered as usize, report.delivered);
        assert_eq!(last.skipped as usize, report.skipped);
        // Exemplars exist and are bounded by K per tail.
        let ex = telemetry.exemplars.as_ref().expect("exemplars on");
        assert!(ex.worst_stall.len() <= 8 && !ex.worst_stall.is_empty());
        assert!(ex.worst_qoe.len() <= 8 && !ex.worst_qoe.is_empty());
    }

    #[test]
    fn telemetry_artifact_is_thread_count_independent() {
        let (network, faults) = chaos_inputs();
        let run = |threads: usize| {
            let config = FleetConfig::new(64, 12, 7)
                .with_threads(threads)
                .with_telemetry(TelemetryConfig {
                    window_sec: 4.0,
                    sample_ppm: 100_000,
                    exemplar_k: 4,
                });
            let (report, _, telemetry) =
                run_scale_fleet(&config, &network, &faults, &mut ee360_obs::NoopRecorder);
            let telemetry = telemetry.expect("telemetry on");
            let json =
                fleet_timeseries_json(&config, &report, &telemetry, &ee360_obs::default_slos());
            (to_string(&json).unwrap(), telemetry.sampled_sessions())
        };
        let (baseline, sampled_set) = run(1);
        assert!(!sampled_set.is_empty(), "10% of 64 sessions should sample");
        for threads in [4usize, 16] {
            let (json, sampled) = run(threads);
            assert_eq!(json, baseline, "{threads} threads diverged");
            assert_eq!(sampled, sampled_set, "sampled set must be thread-free");
        }
        for key in ["ee360.timeseries.v1", "worst_stall", "verdict", "sampling"] {
            assert!(baseline.contains(key), "artifact missing {key}");
        }
    }

    #[test]
    fn sampled_sessions_carry_detail_traces() {
        let (network, faults) = chaos_inputs();
        let config = FleetConfig::new(16, 10, 17).with_telemetry(TelemetryConfig {
            window_sec: 0.0,
            sample_ppm: 1_000_000, // keep everyone: every session traces
            exemplar_k: 0,
        });
        let (_, _, telemetry) =
            run_scale_fleet(&config, &network, &faults, &mut ee360_obs::NoopRecorder);
        let telemetry = telemetry.expect("telemetry on");
        assert_eq!(telemetry.traces.len(), 16);
        assert!(
            telemetry.trace_events() > 0,
            "chaos sessions must emit Detail events"
        );
        assert_eq!(
            telemetry.sampled_sessions(),
            (0..16u64).collect::<Vec<_>>(),
            "traces arrive in user-index order"
        );
    }

    #[test]
    fn driver_state_is_compact() {
        // The fleet retains one summary per session until the fold, so
        // its size bounds fleet memory; the driver and its in-flight
        // download stay bundles of scalars (a per-segment vector here
        // would grow with session length).
        assert!(
            std::mem::size_of::<ScaleDriver>() <= 640,
            "ScaleDriver grew to {} bytes",
            std::mem::size_of::<ScaleDriver>()
        );
        assert!(std::mem::size_of::<SessionSummary>() <= 256);
        assert!(std::mem::size_of::<DownloadState>() <= 128);
    }
}
