//! The bench regression gate: a typed-error port of the retired
//! `ci/bench_gate.py`.
//!
//! `repro --bench` appends one JSON line per run to `BENCH_audit.json`, so
//! after the CI bench job the file holds the committed baseline entries
//! followed by the fresh ones. The gate compares each fresh entry against
//! the latest committed entries with the same key and fails when `total_ms`
//! regressed beyond the threshold, a stage vanished or a gated stage
//! allocates more.
//!
//! Wall time depends on the machine, so time is compared only against an
//! entry with the same `(seed, jobs, fault_profile, hardware_threads)`. When
//! there is none, the entry lands in [`GateReport::incomparable`] instead of
//! being compared with another machine's figure. Allocation bytes, rendered
//! bytes and the stage set do not depend on the machine, so they are
//! compared against the latest entry with the same `(seed, jobs,
//! fault_profile)`. An entry without `fault_profile` predates the field and
//! was fault-free, so it counts as `"none"`: a faulted run is never
//! compared with a fault-free baseline.

use alexa_obs::{Json, JsonParseError};
use std::fmt;
use std::path::{Path, PathBuf};

/// Why the gate could not even run (exit 2 territory — distinct from a
/// gate *failure*, which is a successful run with a bad verdict).
#[derive(Debug, Clone, PartialEq)]
pub enum GateError {
    /// A bench file is missing or unreadable.
    Unreadable {
        /// The file that failed to read.
        path: PathBuf,
        /// The I/O error text.
        error: String,
    },
    /// A line of a bench file is not valid JSON.
    MalformedLine {
        /// The file containing the bad line.
        path: PathBuf,
        /// 1-based line number.
        line: usize,
        /// The parse failure.
        error: JsonParseError,
    },
    /// An entry that must be gated has no usable `total_ms` field.
    MissingTotalMs {
        /// The file the entry came from.
        path: PathBuf,
        /// Which side the entry is on ("fresh" or "baseline").
        what: &'static str,
        /// The keys the entry actually has, for the error message.
        keys: Vec<String>,
    },
    /// One side of a gated pair carries `rendered_bytes` and the other does
    /// not — the exact-equality check cannot run on half a pair.
    MissingRenderedBytes {
        /// The file the incomplete entry came from.
        path: PathBuf,
        /// Which side the entry is on ("fresh" or "baseline").
        what: &'static str,
        /// The keys the entry actually has, for the error message.
        keys: Vec<String>,
    },
    /// The candidate file contains no entries beyond the baseline.
    NoFreshEntries,
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Unreadable { path, error } => write!(
                f,
                "cannot read bench file {}: {error}\n(run `repro --bench` to produce it, or check the CI snapshot step)",
                path.display()
            ),
            GateError::MalformedLine { path, line, error } => {
                write!(f, "{}:{line}: malformed JSON line: {error}", path.display())
            }
            GateError::MissingTotalMs { path, what, keys } => write!(
                f,
                "{what} entry in {} has no 'total_ms' field (keys: {keys:?})",
                path.display()
            ),
            GateError::MissingRenderedBytes { path, what, keys } => write!(
                f,
                "{what} entry in {} has no 'rendered_bytes' field while its counterpart does (keys: {keys:?})",
                path.display()
            ),
            GateError::NoFreshEntries => {
                write!(f, "no new bench entries found — did the bench runs happen?")
            }
        }
    }
}

/// Stages gated individually: a wall-clock regression beyond the threshold,
/// or an allocation regression beyond the alloc threshold, in any of these
/// fails the gate even when `total_ms` stays within bounds. `render.all` is
/// the stage the shared-index/streaming-render work exists to keep down;
/// `persona.shards` holds the lean crawl records (interned labels,
/// exactly sized bid and sync vectors); `index.build` reads the crawl's bids
/// in place instead of copying them. A perf PR must not quietly give any of
/// them back.
pub const GATED_STAGES: &[&str] = &["render.all", "persona.shards", "index.build"];

/// The gate's verdict plus its full comparison log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateReport {
    /// Human-readable comparison lines, in entry order.
    pub log: Vec<String>,
    /// Labels of the entries that failed (`seed=.. jobs=..`, with reason
    /// for missing stages or gated-stage regressions).
    pub failures: Vec<String>,
    /// Labels of entry pairs whose `rendered_bytes` differ — output bytes
    /// changed, which a perf PR must never do.
    pub byte_mismatches: Vec<String>,
    /// Labels of fresh entries with no comparable baseline: a committed
    /// entry shares their `(seed, jobs, fault_profile)` but none their
    /// hardware threads, so their wall time is recorded, not gated.
    pub incomparable: Vec<String>,
    /// The wall-clock threshold the gate ran with.
    pub threshold: f64,
    /// The per-stage allocation-bytes threshold (`--max-alloc-regress`).
    pub alloc_threshold: f64,
}

impl GateReport {
    /// Whether every fresh entry passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && self.byte_mismatches.is_empty()
    }

    /// Human-readable report (the Python script's stdout, verdict last).
    pub fn render_human(&self) -> String {
        let mut out = self.log.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        if self.passed() {
            out.push_str("bench gate passed\n");
        } else {
            if !self.failures.is_empty() {
                out.push_str(&format!(
                    "bench gate failed (total_ms/stage regression >{:.0}%, stage alloc regression >{:.0}%, or missing stages) for: {}\n",
                    self.threshold * 100.0,
                    self.alloc_threshold * 100.0,
                    self.failures.join("; ")
                ));
            }
            if !self.byte_mismatches.is_empty() {
                out.push_str(&format!(
                    "bench gate failed (rendered_bytes changed — output is not byte-identical) for: {}\n",
                    self.byte_mismatches.join("; ")
                ));
            }
        }
        out
    }

    /// Machine-readable report (`--format json`).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("passed".to_string(), Json::Bool(self.passed())),
            ("threshold".to_string(), Json::Float(self.threshold)),
            (
                "alloc_threshold".to_string(),
                Json::Float(self.alloc_threshold),
            ),
            (
                "failures".to_string(),
                Json::Arr(self.failures.iter().map(|s| Json::Str(s.clone())).collect()),
            ),
            (
                "no_comparable_baseline".to_string(),
                Json::Arr(
                    self.incomparable
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
            (
                "rendered_bytes_mismatches".to_string(),
                Json::Arr(
                    self.byte_mismatches
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
            (
                "log".to_string(),
                Json::Arr(self.log.iter().map(|s| Json::Str(s.clone())).collect()),
            ),
        ])
    }
}

/// Parse a bench file: one JSON entry per non-blank line.
fn load_entries(path: &Path) -> Result<Vec<Json>, GateError> {
    let text = std::fs::read_to_string(path).map_err(|e| GateError::Unreadable {
        path: path.to_path_buf(),
        error: e.to_string(),
    })?;
    let mut entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let entry = Json::parse(line).map_err(|error| GateError::MalformedLine {
            path: path.to_path_buf(),
            line: lineno + 1,
            error,
        })?;
        entries.push(entry);
    }
    Ok(entries)
}

/// The identity of a bench entry: `(seed, jobs, hardware_threads)`, where
/// absent or null fields compare as `None` (mirroring the Python
/// `entry.get(...)` semantics), and the fault profile, absent meaning
/// `"none"`.
#[derive(Debug, Clone, PartialEq)]
struct BenchKey {
    seed: Option<u64>,
    jobs: Option<u64>,
    hardware_threads: Option<u64>,
    fault: String,
}

impl BenchKey {
    /// Same run identity, on any machine.
    fn same_run(&self, other: &BenchKey) -> bool {
        (self.seed, self.jobs, &self.fault) == (other.seed, other.jobs, &other.fault)
    }
}

fn key(entry: &Json) -> BenchKey {
    let field = |name| entry.get(name).and_then(Json::as_u64);
    BenchKey {
        seed: field("seed"),
        jobs: field("jobs"),
        hardware_threads: field("hardware_threads"),
        fault: entry
            .get("fault_profile")
            .and_then(Json::as_str)
            .unwrap_or("none")
            .to_string(),
    }
}

/// `seed=.. jobs=..`, plus `fault=..` for a faulted entry and
/// `hardware_threads=..` when the entry records it.
fn label(k: &BenchKey) -> String {
    let fmt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |n| n.to_string());
    let fault = if k.fault == "none" {
        String::new()
    } else {
        format!(" fault={}", k.fault)
    };
    let hw = k
        .hardware_threads
        .map_or_else(String::new, |n| format!(" hardware_threads={n}"));
    format!("seed={} jobs={}{fault}{hw}", fmt(k.seed), fmt(k.jobs))
}

/// The entry's `total_ms`, or the typed error naming the offending side.
fn total_ms(entry: &Json, path: &Path, what: &'static str) -> Result<f64, GateError> {
    entry
        .get("total_ms")
        .and_then(Json::as_f64)
        .ok_or_else(|| GateError::MissingTotalMs {
            path: path.to_path_buf(),
            what,
            keys: entry
                .as_obj()
                .map(|fields| fields.iter().map(|(k, _)| k.clone()).collect())
                .unwrap_or_default(),
        })
}

/// Run the gate: compare the fresh entries of `candidate` (everything past
/// the length of `baseline`) against the latest committed entries with the
/// same key (see the module docs for which key gates what). `threshold` is
/// the maximum tolerated fractional `total_ms` growth (0.25 = +25%);
/// `alloc_threshold` is the maximum tolerated fractional growth of a gated
/// stage's allocated bytes
/// (`stage_alloc` in the bench entries — deterministic, so a tight gate
/// holds without flake).
pub fn run_gate(
    baseline: &Path,
    candidate: &Path,
    threshold: f64,
    alloc_threshold: f64,
) -> Result<GateReport, GateError> {
    let base_entries = load_entries(baseline)?;
    let cand_entries = load_entries(candidate)?;
    let fresh = match cand_entries.get(base_entries.len()..) {
        Some(fresh) if !fresh.is_empty() => fresh,
        _ => return Err(GateError::NoFreshEntries),
    };
    // The latest committed entry whose key satisfies `same` wins.
    let latest =
        |same: &dyn Fn(&BenchKey) -> bool| base_entries.iter().rev().find(|e| same(&key(e)));

    let mut report = GateReport {
        threshold,
        alloc_threshold,
        ..GateReport::default()
    };
    for entry in fresh {
        let k = key(entry);
        let lbl = label(&k);
        let Some(base) = latest(&|ck| ck.same_run(&k)) else {
            let ms = total_ms(entry, candidate, "fresh")?;
            report.log.push(format!(
                "{lbl}: no committed baseline, recording {ms} ms (not gated)"
            ));
            continue;
        };
        // Per-stage wall times, for the time gate and the vanished-stage
        // check.
        let stages = |e: &Json| -> Vec<(String, f64)> {
            e.get("stages")
                .and_then(Json::as_obj)
                .map(|fields| {
                    fields
                        .iter()
                        .filter_map(|(name, v)| v.as_f64().map(|ms| (name.clone(), ms)))
                        .collect()
                })
                .unwrap_or_default()
        };
        let entry_stages = stages(entry);
        let base_stages = stages(base);
        let entry_total = total_ms(entry, candidate, "fresh")?;
        let timed = latest(&|ck| *ck == k);
        let mut regressed = false;
        if let Some(timed) = timed {
            let base_total = total_ms(timed, baseline, "baseline")?;
            let ratio = if base_total == 0.0 {
                f64::INFINITY
            } else {
                entry_total / base_total
            };
            regressed = ratio > 1.0 + threshold;
            report.log.push(format!(
                "{lbl}: {base_total} ms -> {entry_total} ms ({:+.1}% vs baseline) {}",
                (ratio - 1.0) * 100.0,
                if regressed { "REGRESSION" } else { "ok" }
            ));
        } else {
            report.log.push(format!(
                "{lbl}: no comparable baseline (no committed entry from the same hardware threads), recording {entry_total} ms (time not gated)"
            ));
            report.incomparable.push(lbl.clone());
        }
        let timed_stages = timed.map(stages).unwrap_or_default();
        for (stage, ms) in &entry_stages {
            if let Some((_, base_ms)) = timed_stages.iter().find(|(n, _)| n == stage) {
                // Gated stages regress the whole gate on their own: the
                // render path must not quietly reabsorb the wall time the
                // shared index bought back.
                let gated = GATED_STAGES.contains(&stage.as_str());
                let stage_ratio = if *base_ms == 0.0 {
                    if *ms == 0.0 {
                        1.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    ms / base_ms
                };
                let stage_regressed = gated && stage_ratio > 1.0 + threshold;
                report.log.push(format!(
                    "  {stage}: {base_ms} ms -> {ms} ms{}",
                    if stage_regressed { " REGRESSION" } else { "" }
                ));
                if stage_regressed {
                    report.failures.push(format!(
                        "{lbl} (stage {stage} {:+.1}%)",
                        (stage_ratio - 1.0) * 100.0
                    ));
                }
            }
        }
        // Per-stage allocation bytes: deterministic for a fixed seed, so
        // any growth is a real change. Gated stages fail the gate beyond
        // the alloc threshold; other stages are logged for context.
        let stage_alloc = |e: &Json| -> Vec<(String, u64)> {
            e.get("stage_alloc")
                .and_then(Json::as_obj)
                .map(|fields| {
                    fields
                        .iter()
                        .filter_map(|(name, v)| v.as_u64().map(|b| (name.clone(), b)))
                        .collect()
                })
                .unwrap_or_default()
        };
        let entry_alloc = stage_alloc(entry);
        let base_alloc = stage_alloc(base);
        for (stage, bytes) in &entry_alloc {
            if let Some((_, base_bytes)) = base_alloc.iter().find(|(n, _)| n == stage) {
                if bytes == base_bytes {
                    continue;
                }
                let gated = GATED_STAGES.contains(&stage.as_str());
                let alloc_ratio = if *base_bytes == 0 {
                    f64::INFINITY
                } else {
                    *bytes as f64 / *base_bytes as f64
                };
                let alloc_regressed = gated && alloc_ratio > 1.0 + alloc_threshold;
                report.log.push(format!(
                    "  {stage}: {base_bytes} B -> {bytes} B allocated{}",
                    if alloc_regressed { " REGRESSION" } else { "" }
                ));
                if alloc_regressed {
                    report.failures.push(format!(
                        "{lbl} (stage {stage} alloc {:+.1}%)",
                        (alloc_ratio - 1.0) * 100.0
                    ));
                }
            }
        }
        // Exact output-byte equality: a perf entry pair carrying
        // `rendered_bytes` must agree to the byte; carrying it on only one
        // side is a typed error (half a check is no check).
        let bytes_of = |e: &Json| e.get("rendered_bytes").and_then(Json::as_u64);
        match (bytes_of(base), bytes_of(entry)) {
            (Some(base_bytes), Some(entry_bytes)) => {
                if base_bytes != entry_bytes {
                    report.log.push(format!(
                        "{lbl}: rendered_bytes changed: {base_bytes} -> {entry_bytes}"
                    ));
                    report.byte_mismatches.push(lbl.clone());
                }
            }
            (None, None) => {}
            (half, _) => {
                let (path, what, e) = if half.is_none() {
                    (baseline, "baseline", base)
                } else {
                    (candidate, "fresh", entry)
                };
                return Err(GateError::MissingRenderedBytes {
                    path: path.to_path_buf(),
                    what,
                    keys: e
                        .as_obj()
                        .map(|fields| fields.iter().map(|(k, _)| k.clone()).collect())
                        .unwrap_or_default(),
                });
            }
        }
        let mut gone: Vec<&str> = base_stages
            .iter()
            .filter(|(n, _)| !entry_stages.iter().any(|(en, _)| en == n))
            .map(|(n, _)| n.as_str())
            .collect();
        gone.sort_unstable();
        if !gone.is_empty() {
            report.log.push(format!(
                "{lbl}: stage(s) present in baseline but missing from candidate: {}",
                gone.join(", ")
            ));
            report
                .failures
                .push(format!("{lbl} (missing stages: {})", gone.join(", ")));
        }
        if regressed {
            report.failures.push(lbl);
        }
    }
    Ok(report)
}
