//! Metric names and units, the result line, and run provenance.

use std::path::{Path, PathBuf};

use ee360_abr::controller::Scheme;
use ee360_support::json::{self, Json};

/// Every scheme a per-scheme metric is reported for, by suffix.
pub const SCHEMES: [Scheme; 6] = [
    Scheme::Ctile,
    Scheme::Ftile,
    Scheme::Nontile,
    Scheme::Ptile,
    Scheme::Ours,
    Scheme::RobustMpc,
];

/// End-to-end metrics of the untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("segments_per_s", "segments/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: (name, unit, per scheme).
pub const PER_LAYER: [(&str, &str, bool); 27] = [
    ("trace.generate_ms", "ms", false),
    ("cluster.prepare_ms", "ms", false),
    ("support.parallel.setup_eff", "ratio", false),
    ("core.client.open_us", "us", false),
    ("core.client.finish_us", "us", false),
    ("core.client.plan_ns", "ns", true),
    ("core.client.plan_self_ns", "ns", true),
    ("core.client.plan_allocs", "allocs/seg", false),
    ("abr.plan_ns", "ns", true),
    ("abr.memo_hit_ratio", "ratio", false),
    ("abr.states_expanded_per_plan", "states/plan", false),
    ("abr.replans_per_seg", "calls/seg", false),
    ("abr.replan_ns", "ns", false),
    ("core.client.download_ns", "ns", true),
    ("sim.resilience.steps_per_seg", "calls/seg", false),
    ("core.client.download_allocs", "allocs/seg", false),
    ("core.client.session_p50_ms", "ms", true),
    ("core.client.session_p95_ms", "ms", true),
    ("core.client.unattributed_frac", "ratio", false),
    ("obs.calls_per_seg", "calls/seg", false),
    ("obs.ns_per_seg", "ns", false),
    ("obs.overhead_frac", "ratio", false),
    ("sim.fleet.events_per_session", "events/session", false),
    ("sim.fleet.peak_queue_len", "count", false),
    ("sim.fleet.engine_overhead_frac", "ratio", false),
    ("support.parallel.run_eff", "ratio", false),
    ("trace_overhead_frac", "ratio", false),
];

/// The full name of a per-scheme metric.
pub fn per_scheme(name: &str, scheme: Scheme) -> String {
    format!("{name}.{}", scheme.label())
}

/// Every metric name the traced run emits, with its unit, in order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (name, unit, by_scheme) in PER_LAYER {
        if by_scheme {
            out.extend(SCHEMES.iter().map(|&s| (per_scheme(name, s), unit)));
        } else {
            out.push((name.to_owned(), unit));
        }
    }
    out
}

/// The unit of a metric name from either catalogue.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .or_else(|| {
            per_layer_names()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        })
}

/// Names and units must stay inside what the result format allows.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One run's verdict and figures.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// (name, value); units come from the catalogue.
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        if !valid_name(&name) || !unit_of(&name).is_some_and(valid_unit) {
            self.problems
                .push(format!("metric {name} has a bad name or no unit"));
        }
        if value.is_finite() {
            self.metrics.push((name, value));
        } else {
            self.problems.push(format!("metric {name} is not finite"));
            self.metrics.push((name, 0.0));
        }
    }

    pub fn fail(&mut self, failed: u64, problems: Vec<String>) {
        self.failed += failed;
        self.problems.extend(problems);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = unit_of(name).unwrap_or("unknown");
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".to_owned(), Json::Num(*value)),
                        ("unit".to_owned(), Json::Str(unit.to_owned())),
                    ]),
                )
            })
            .collect();
        let line = Json::Obj(vec![
            ("correct".to_owned(), Json::Bool(self.correct())),
            ("attempted".to_owned(), Json::Int(self.attempted as i64)),
            ("failed".to_owned(), Json::Int(self.failed as i64)),
            ("metrics".to_owned(), Json::Obj(metrics)),
        ]);
        json::to_string(&line).unwrap_or_default()
    }
}

/// The checkout root: the directory above this package.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Where runs leave their span files and run reports.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Median of a sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile of a sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A field of `/proc/self/status` (the text after the colon, trimmed).
fn proc_status(field: &str) -> Option<String> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .map(|v| v.trim().to_owned())
}

/// The process's RSS high-water mark, MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let kb: f64 = proc_status("VmHWM")?
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// CPUs this process may run on — what `nproc` prints — from the
/// `Cpus_allowed_list` ranges.
pub fn nproc() -> Option<usize> {
    let list = proc_status("Cpus_allowed_list")?;
    let mut n = 0;
    for part in list.split(',') {
        match part.split_once('-') {
            Some((a, b)) => n += b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?,
            None => {
                part.parse::<usize>().ok()?;
                n += 1;
            }
        }
    }
    Some(n)
}

/// The checked-out commit, when the checkout is a git work tree.
pub fn commit() -> Option<String> {
    let git = repo_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference)?.strip_suffix(' '))
        .map(str::to_owned)
}

/// FNV-1a over the sources the benchmark builds (every `.rs`, `.toml`,
/// `.json` and `Cargo.lock` under `crates/` and this package, plus the
/// root manifest and lock), path by path in sorted order. It identifies
/// the code measured when the checkout carries no git metadata.
pub fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if !name.starts_with('.') && name != "target" && name != "out" {
                    walk(&path, out);
                }
            } else if name.ends_with(".rs")
                || name.ends_with(".toml")
                || name.ends_with(".json")
                || name == "Cargo.lock"
            {
                out.push(path);
            }
        }
    }
    let root = repo_root();
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(Path::new(env!("CARGO_MANIFEST_DIR")), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(&root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in rel.as_bytes().iter().chain(&[0u8]).chain(&bytes) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_well_formed_unique_and_has_a_unit() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
        names.extend(per_layer_names().into_iter().map(|(n, _)| n));
        for name in &names {
            assert!(valid_name(name), "bad metric name {name}");
            let unit = unit_of(name).unwrap_or_else(|| panic!("{name} has no unit"));
            assert!(valid_unit(unit), "bad unit {unit} for {name}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
        assert!(names.len() <= 3 + 128);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        let doc = json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn quantiles_and_medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 10.0);
        assert_eq!(quantile(&v, 0.95), 19.0);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.push("setup_s", 0.25);
        let doc = json::parse(&o.result_line()).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.25));
    }
}
