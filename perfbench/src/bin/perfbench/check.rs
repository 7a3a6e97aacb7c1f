//! Output checks: every pass of the timed path must reproduce the
//! one-session-at-a-time reference bit for bit, and on the default seed
//! both must reproduce the values pinned in `golden.json`.
//!
//! Floats are compared by their bits, through a digest of the value's
//! JSON tree (the serialiser's field order is fixed, so the digest is a
//! pure function of the value).

use ee360_abr::controller::Scheme;
use ee360_core::experiment::SchemeOutcome;
use ee360_sim::metrics::SessionMetrics;
use ee360_support::json::{self, Json, ToJson};

use crate::workload::{Inputs, Output, Workload};

/// The seed the pinned values in `golden.json` belong to.
pub const DEFAULT_SEED: u64 = 20220706;

const GOLDEN: &str = include_str!("../../../golden.json");

/// FNV-1a over a JSON tree, numbers by their bit patterns.
fn digest_json(j: &Json, h: &mut u64) {
    fn eat(h: &mut u64, bytes: &[u8]) {
        for b in bytes {
            *h ^= u64::from(*b);
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    match j {
        Json::Null => eat(h, b"n"),
        Json::Bool(b) => eat(h, if *b { b"t" } else { b"f" }),
        Json::Int(i) => {
            eat(h, b"i");
            eat(h, &i.to_le_bytes());
        }
        Json::Num(x) => {
            eat(h, b"d");
            eat(h, &x.to_bits().to_le_bytes());
        }
        Json::Str(s) => {
            eat(h, b"s");
            eat(h, &(s.len() as u64).to_le_bytes());
            eat(h, s.as_bytes());
        }
        Json::Arr(items) => {
            eat(h, b"[");
            for item in items {
                digest_json(item, h);
            }
            eat(h, b"]");
        }
        Json::Obj(fields) => {
            eat(h, b"{");
            for (k, v) in fields {
                eat(h, k.as_bytes());
                digest_json(v, h);
            }
            eat(h, b"}");
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn digest<T: ToJson + ?Sized>(value: &T) -> u64 {
    let mut h = FNV_OFFSET;
    digest_json(&value.to_json(), &mut h);
    h
}

/// One digest for a list of digests.
fn fold(digests: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for d in digests {
        digest_json(&Json::Str(hex(*d)), &mut h);
    }
    h
}

/// A cell's aggregate over its sessions, with the same formulas and
/// summation order as `SchemeOutcome::from_sessions` — the aggregate
/// `run_matrix` returns — so the two compare bit for bit.
pub fn outcome_from_sessions(
    scheme: Scheme,
    video_id: usize,
    sessions: &[SessionMetrics],
) -> SchemeOutcome {
    let n = sessions.len() as f64;
    let mean = |f: &dyn Fn(&SessionMetrics) -> f64| sessions.iter().map(f).sum::<f64>() / n;
    SchemeOutcome {
        scheme,
        video_id,
        users: sessions.len(),
        segments: sessions.first().map_or(0, SessionMetrics::len),
        mean_energy_mj_per_segment: mean(&|s| s.total_energy_mj() / s.len().max(1) as f64),
        mean_transmission_mj: mean(&|s| {
            s.energy_breakdown_mj().transmission_mj / s.len().max(1) as f64
        }),
        mean_decode_mj: mean(&|s| s.energy_breakdown_mj().decode_mj / s.len().max(1) as f64),
        mean_render_mj: mean(&|s| s.energy_breakdown_mj().render_mj / s.len().max(1) as f64),
        mean_qoe: mean(&|s| s.mean_qoe()),
        mean_quality: mean(&|s| s.mean_quality()),
        mean_variation: mean(&|s| s.mean_variation()),
        mean_rebuffering: mean(&|s| s.mean_rebuffering()),
        mean_stall_sec: mean(&|s| s.total_stall_sec()),
        mean_quality_level: mean(&|s| s.mean_quality_level()),
        mean_fps: mean(&|s| s.mean_fps()),
    }
}

/// One cell's checked figures.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub video: usize,
    pub scheme: Scheme,
    pub users: usize,
    pub outcome: SchemeOutcome,
    /// Digest of the cell's per-session metrics, when the pass exposes
    /// them (`run_matrix` returns aggregates only).
    pub sessions_digest: Option<u64>,
}

/// Everything a pass is checked on.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub cells: Vec<Cell>,
    /// Per-session digests in task order, when the pass exposes them.
    pub sessions: Option<Vec<u64>>,
    /// The merged recorder's report digest and its `experiment.sessions`
    /// counter (fleet workload only).
    pub obs: Option<(u64, u64)>,
}

impl Fingerprint {
    pub fn of(inputs: &Inputs, out: &Output) -> Fingerprint {
        let sessions_of = |sessions: &[SessionMetrics]| {
            let digests: Vec<u64> = sessions.iter().map(digest).collect();
            let mut cursor = 0;
            let cells = inputs
                .spec
                .cells()
                .into_iter()
                .map(|(video, scheme)| {
                    let users = inputs.eval.eval_users(video).len();
                    let range = cursor..(cursor + users).min(sessions.len());
                    cursor = range.end;
                    Cell {
                        video,
                        scheme,
                        users,
                        outcome: outcome_from_sessions(scheme, video, &sessions[range.clone()]),
                        sessions_digest: Some(fold(&digests[range])),
                    }
                })
                .collect();
            (cells, Some(digests))
        };
        let (cells, sessions, obs) = match out {
            Output::Cells(outcomes) => {
                let cells = outcomes
                    .iter()
                    .map(|o| Cell {
                        video: o.video_id,
                        scheme: o.scheme,
                        users: o.users,
                        outcome: o.clone(),
                        sessions_digest: None,
                    })
                    .collect();
                (cells, None, None)
            }
            Output::Sessions(sessions) => {
                let (cells, digests) = sessions_of(sessions);
                (cells, digests, None)
            }
            Output::Fleet { sessions, rec, .. } => {
                let (cells, digests) = sessions_of(sessions);
                let report = ee360_obs::export::report_json(rec);
                let mut h = FNV_OFFSET;
                digest_json(&report, &mut h);
                let counted = rec.registry().counter("experiment.sessions");
                (cells, digests, Some((h, counted)))
            }
        };
        Fingerprint {
            cells,
            sessions,
            obs,
        }
    }

    pub fn session_count(&self) -> usize {
        self.cells.iter().map(|c| c.users).sum()
    }
}

/// Checks `got` against the reference `want`; returns the number of
/// sessions that count as failed (a mismatching cell fails all its
/// sessions) and a line per problem.
pub fn compare(got: &Fingerprint, want: &Fingerprint) -> (u64, Vec<String>) {
    let mut failed = 0u64;
    let mut problems = Vec::new();
    if got.cells.len() != want.cells.len() {
        let n = want.session_count() as u64;
        problems.push(format!(
            "{} cells, expected {}",
            got.cells.len(),
            want.cells.len()
        ));
        return (n, problems);
    }
    for (g, w) in got.cells.iter().zip(&want.cells) {
        let same_outcome = digest(&g.outcome) == digest(&w.outcome);
        let same_digest = match (g.sessions_digest, w.sessions_digest) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        };
        if g.video != w.video
            || g.scheme != w.scheme
            || g.users != w.users
            || !same_outcome
            || !same_digest
        {
            failed += w.users as u64;
            problems.push(format!(
                "cell (video {}, {}) differs from the reference",
                w.video,
                w.scheme.label()
            ));
        }
    }
    if let (Some(a), Some(b)) = (&got.sessions, &want.sessions) {
        let mismatched =
            a.iter().zip(b).filter(|(x, y)| x != y).count() + a.len().abs_diff(b.len());
        if mismatched > 0 && failed == 0 {
            failed += mismatched as u64;
            problems.push(format!("{mismatched} sessions differ from the reference"));
        }
    }
    if let (Some((a, _)), Some((b, _))) = (got.obs, want.obs) {
        if a != b {
            problems.push("merged recorder report differs from the reference".to_owned());
            failed = failed.max(1);
        }
    }
    if let Some((_, counted)) = got.obs {
        let expected = got.session_count() as u64;
        if counted != expected {
            problems.push(format!(
                "recorder counted {counted} experiment.sessions, expected {expected}"
            ));
            failed = failed.max(expected.abs_diff(counted));
        }
    }
    (failed, problems)
}

fn hex(x: u64) -> String {
    format!("{x:016x}")
}

/// The pinned figures of one workload as JSON (what `--pin` prints).
pub fn golden_json(workload: Workload, fp: &Fingerprint) -> Json {
    let cells = fp
        .cells
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("video".to_owned(), Json::Int(c.video as i64)),
                ("scheme".to_owned(), Json::Str(c.scheme.label().to_owned())),
                ("users".to_owned(), Json::Int(c.users as i64)),
                (
                    "mean_energy_mj_per_segment".to_owned(),
                    Json::Num(c.outcome.mean_energy_mj_per_segment),
                ),
                ("mean_qoe".to_owned(), Json::Num(c.outcome.mean_qoe)),
                (
                    "mean_stall_sec".to_owned(),
                    Json::Num(c.outcome.mean_stall_sec),
                ),
                (
                    "sessions_digest".to_owned(),
                    Json::Str(c.sessions_digest.map_or_else(String::new, hex)),
                ),
            ])
        })
        .collect();
    let mut fields = vec![
        ("workload".to_owned(), Json::Str(workload.name().to_owned())),
        ("cells".to_owned(), Json::Arr(cells)),
    ];
    if let Some((report, _)) = fp.obs {
        fields.push(("obs_report_digest".to_owned(), Json::Str(hex(report))));
    }
    Json::Obj(fields)
}

/// Checks a reference fingerprint against the pinned figures for the
/// default seed. Returns failed sessions and problems as [`compare`].
pub fn check_golden(workload: Workload, fp: &Fingerprint) -> (u64, Vec<String>) {
    let pinned = json::parse(GOLDEN).ok().and_then(|g| {
        g.get("workloads")?
            .as_array()?
            .iter()
            .find(|w| w.get("workload").and_then(Json::as_str) == Some(workload.name()))
            .cloned()
    });
    let Some(pinned) = pinned else {
        return (
            fp.session_count() as u64,
            vec![format!("no pinned values for {}", workload.name())],
        );
    };
    let mine = golden_json(workload, fp);
    let text = |j: &Json| json::to_string(j).unwrap_or_default();
    let want_cells = pinned.get("cells").and_then(Json::as_array).unwrap_or(&[]);
    let got_cells = mine.get("cells").and_then(Json::as_array).unwrap_or(&[]);
    let mut failed = 0u64;
    let mut problems = Vec::new();
    for (i, c) in fp.cells.iter().enumerate() {
        // Shortest round-trip decimals: equal text means equal bits.
        if want_cells.get(i).map(text) != got_cells.get(i).map(text) {
            failed += c.users as u64;
            problems.push(format!(
                "cell (video {}, {}) differs from the pinned values",
                c.video,
                c.scheme.label()
            ));
        }
    }
    if want_cells.len() != got_cells.len() {
        problems.push("pinned cell count differs".to_owned());
        failed = failed.max(1);
    }
    if pinned.get("obs_report_digest").map(text) != mine.get("obs_report_digest").map(text) {
        problems.push("merged recorder report differs from the pinned digest".to_owned());
        failed = failed.max(1);
    }
    (failed, problems)
}
