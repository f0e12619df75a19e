//! The bench regression gate: a typed-error port of the retired
//! `ci/bench_gate.py`.
//!
//! `repro --bench` appends one [`BenchEntry`] per run to `BENCH_audit.json`,
//! so after the CI bench job the file holds the committed baseline entries
//! followed by the fresh ones. Both files are read through
//! [`BenchEntry::from_json`] only: a line that does not decode stops the
//! gate with a [`GateError::BadEntry`] naming the file, the line and the
//! field. The gate fails when time regressed beyond [`MAX_REGRESS`], a
//! gated stage allocates more than [`MAX_ALLOC_REGRESS`] beyond its
//! baseline, a stage vanished or the rendered bytes changed.
//!
//! Wall time depends on the machine and on the moment, so it is compared
//! only with the latest committed entry of the same full key `(seed, jobs,
//! fault_profile, hardware_threads)`, and it is the median of the fresh
//! entries of that key that is compared (the lower middle one for an even
//! count): one noisy run out of three does not fail the gate, a shift in
//! all of them does. When no committed entry has the key, the key lands in
//! [`GateReport::incomparable`] instead of being compared with another
//! machine's figure. Allocation bytes, rendered bytes and the stage set do
//! not depend on the machine or the moment, so every fresh entry is
//! compared with the latest committed entry of the same `(seed, jobs,
//! fault_profile)`. A faulted run is never compared with a fault-free
//! baseline.

use alexa_obs::bench::{BenchEntry, StageValues};
use alexa_obs::ledger::Fail;
use alexa_obs::{Json, JsonParseError};
use std::fmt;
use std::path::{Path, PathBuf};

/// The tolerated growth of a time (total, a gated stage) or of a bundle's
/// work units: 0.25 = +25%.
pub(crate) const MAX_REGRESS: f64 = 0.25;

/// The tolerated growth of allocated bytes, which are deterministic, so
/// the bound is tighter than [`MAX_REGRESS`]: 0.10 = +10%.
pub(crate) const MAX_ALLOC_REGRESS: f64 = 0.10;

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
    /// A line of a bench file is JSON but not a bench entry: a required
    /// field is missing or a field is mistyped.
    BadEntry {
        /// The file containing the bad line.
        path: PathBuf,
        /// 1-based line number.
        line: usize,
        /// The field and what is wrong with it.
        detail: Fail,
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
            GateError::BadEntry { path, line, detail } => {
                write!(f, "{}:{line}: not a bench entry: {detail}", path.display())
            }
            GateError::NoFreshEntries => {
                write!(f, "no new bench entries found — did the bench runs happen?")
            }
        }
    }
}

/// Stages gated individually: a wall-clock regression beyond
/// [`MAX_REGRESS`], or an allocation regression beyond
/// [`MAX_ALLOC_REGRESS`], in any of these fails the gate even when
/// `total_ms` stays within bounds. `render.all` is the stage the
/// shared-index/streaming-render work exists to keep down;
/// `persona.shards` holds the lean crawl records (interned labels, exactly
/// sized bid and sync vectors, interned hosts and creatives); `avs.pass`
/// holds the AVS captures' interned hosts; `index.build` reads the crawl's
/// bids in place instead of copying them. A perf change must not quietly
/// give any of them back.
pub(crate) const GATED_STAGES: &[&str] =
    &["render.all", "persona.shards", "index.build", "avs.pass"];

/// The gate's verdict plus its full comparison log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateReport {
    /// Human-readable comparison lines, in entry order.
    pub log: Vec<String>,
    /// Labels of the keys and entries that failed (`seed=.. jobs=..`, with
    /// the reason for missing stages or gated-stage regressions).
    pub failures: Vec<String>,
    /// Labels of entry pairs whose `rendered_bytes` differ — output bytes
    /// changed, which a perf change must never do.
    pub byte_mismatches: Vec<String>,
    /// Labels of fresh keys with no comparable baseline: a committed entry
    /// shares their `(seed, jobs, fault_profile)` but none their hardware
    /// threads, so their wall time is recorded, not gated.
    pub incomparable: Vec<String>,
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
                    MAX_REGRESS * 100.0,
                    MAX_ALLOC_REGRESS * 100.0,
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
        let strings = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
        Json::Obj(vec![
            ("passed".to_string(), Json::Bool(self.passed())),
            ("threshold".to_string(), Json::Float(MAX_REGRESS)),
            (
                "alloc_threshold".to_string(),
                Json::Float(MAX_ALLOC_REGRESS),
            ),
            ("failures".to_string(), strings(&self.failures)),
            (
                "no_comparable_baseline".to_string(),
                strings(&self.incomparable),
            ),
            (
                "rendered_bytes_mismatches".to_string(),
                strings(&self.byte_mismatches),
            ),
            ("log".to_string(), strings(&self.log)),
        ])
    }
}

/// Decode a bench file: one entry per non-blank line.
fn load_entries(path: &Path) -> Result<Vec<BenchEntry>, GateError> {
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
        let line_no = lineno + 1;
        let json = Json::parse(line).map_err(|error| GateError::MalformedLine {
            path: path.to_path_buf(),
            line: line_no,
            error,
        })?;
        let entry = BenchEntry::from_json(&json).map_err(|detail| GateError::BadEntry {
            path: path.to_path_buf(),
            line: line_no,
            detail,
        })?;
        entries.push(entry);
    }
    Ok(entries)
}

/// The same run on any machine: `(seed, jobs, fault_profile)`.
fn same_run(a: &BenchEntry, b: &BenchEntry) -> bool {
    (a.seed, a.jobs, &a.fault_profile) == (b.seed, b.jobs, &b.fault_profile)
}

/// The same run on a machine with as many hardware threads: the full key.
fn same_key(a: &BenchEntry, b: &BenchEntry) -> bool {
    same_run(a, b) && a.hardware_threads == b.hardware_threads
}

/// `seed=.. jobs=.. hardware_threads=..`, with `fault=..` for a faulted
/// entry.
fn label(e: &BenchEntry) -> String {
    let jobs = e.jobs.map_or_else(|| "null".to_string(), |n| n.to_string());
    let fault = match e.fault_profile.as_str() {
        "none" => String::new(),
        other => format!(" fault={other}"),
    };
    let hw = e.hardware_threads;
    format!("seed={} jobs={jobs}{fault} hardware_threads={hw}", e.seed)
}

/// The median of `values`: the lower middle one for an even count.
fn median(mut values: Vec<u64>) -> u64 {
    values.sort_unstable();
    let mid = values.len().saturating_sub(1) / 2;
    values.get(mid).copied().unwrap_or(0)
}

/// `now` over `before`; any growth from zero is infinite.
fn growth(before: u64, now: u64) -> f64 {
    match (before, now) {
        (0, 0) => 1.0,
        (0, _) => f64::INFINITY,
        _ => now as f64 / before as f64,
    }
}

/// The value of stage `name`.
fn stage(values: &StageValues, name: &str) -> Option<u64> {
    values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

/// Run the gate: compare the fresh entries of `candidate` (everything past
/// the entries of `baseline`) with the latest committed entries of the
/// same key (see the module docs for which key gates what).
pub fn run_gate(baseline: &Path, candidate: &Path) -> Result<GateReport, GateError> {
    let base_entries = load_entries(baseline)?;
    let cand_entries = load_entries(candidate)?;
    let fresh = match cand_entries.get(base_entries.len()..) {
        Some(fresh) if !fresh.is_empty() => fresh,
        _ => return Err(GateError::NoFreshEntries),
    };
    // The latest committed entry that `same` holds for wins.
    let latest = |same: &dyn Fn(&BenchEntry) -> bool| base_entries.iter().rev().find(|e| same(e));
    // The fresh entries by full key, in order of first appearance.
    let mut groups: Vec<Vec<&BenchEntry>> = Vec::new();
    for entry in fresh {
        match groups
            .iter_mut()
            .find(|g| g.first().is_some_and(|f| same_key(f, entry)))
        {
            Some(group) => group.push(entry),
            None => groups.push(vec![entry]),
        }
    }

    let mut report = GateReport::default();
    for group in &groups {
        let Some(first) = group.first().copied() else {
            continue;
        };
        let lbl = label(first);
        let total = median(group.iter().map(|e| e.total_ms).collect());
        let runs = match group.len() {
            1 => String::new(),
            n => format!(", median of {n}"),
        };
        let Some(base) = latest(&|b| same_run(b, first)) else {
            report.log.push(format!(
                "{lbl}: no committed baseline, recording {total} ms{runs} (not gated)"
            ));
            continue;
        };
        let regressed = match latest(&|b| same_key(b, first)) {
            Some(timed) => gate_time(&mut report, &lbl, timed, group, &runs),
            None => {
                report.log.push(format!(
                    "{lbl}: no comparable baseline (no committed entry from the same hardware threads), recording {total} ms{runs} (time not gated)"
                ));
                report.incomparable.push(lbl.clone());
                false
            }
        };
        for entry in group {
            gate_deterministic(&mut report, &lbl, base, entry);
        }
        if regressed {
            report.failures.push(lbl);
        }
    }
    Ok(report)
}

/// Compare the median time of the fresh entries of one key with the
/// committed entry `timed`: log the total and every shared stage, fail each
/// gated stage beyond [`MAX_REGRESS`], and return whether the total
/// regressed beyond it.
fn gate_time(
    report: &mut GateReport,
    lbl: &str,
    timed: &BenchEntry,
    group: &[&BenchEntry],
    runs: &str,
) -> bool {
    let total = median(group.iter().map(|e| e.total_ms).collect());
    let ratio = growth(timed.total_ms, total);
    let regressed = ratio > 1.0 + MAX_REGRESS;
    report.log.push(format!(
        "{lbl}: {} ms -> {total} ms ({:+.1}% vs baseline{runs}) {}",
        timed.total_ms,
        (ratio - 1.0) * 100.0,
        if regressed { "REGRESSION" } else { "ok" }
    ));
    let names = group.first().map(|e| &e.stages).into_iter().flatten();
    for (name, _) in names {
        let Some(base_ms) = stage(&timed.stages, name) else {
            continue;
        };
        let ms = median(
            group
                .iter()
                .filter_map(|e| stage(&e.stages, name))
                .collect(),
        );
        let ratio = growth(base_ms, ms);
        let stage_regressed = GATED_STAGES.contains(&name.as_str()) && ratio > 1.0 + MAX_REGRESS;
        report.log.push(format!(
            "  {name}: {base_ms} ms -> {ms} ms{}",
            if stage_regressed { " REGRESSION" } else { "" }
        ));
        if stage_regressed {
            report.failures.push(format!(
                "{lbl} (stage {name} {:+.1}%)",
                (ratio - 1.0) * 100.0
            ));
        }
    }
    regressed
}

/// Compare what one fresh entry shares with every machine against the
/// committed entry `base`: per-stage allocation bytes (gated stages fail
/// beyond [`MAX_ALLOC_REGRESS`], the others are logged), the rendered bytes
/// (exact) and the stage set (a vanished stage fails).
fn gate_deterministic(report: &mut GateReport, lbl: &str, base: &BenchEntry, entry: &BenchEntry) {
    if let (Some(before), Some(now)) = (&base.stage_alloc, &entry.stage_alloc) {
        for (name, bytes) in now {
            let Some(base_bytes) = stage(before, name) else {
                continue;
            };
            if *bytes == base_bytes {
                continue;
            }
            let ratio = growth(base_bytes, *bytes);
            let gated = GATED_STAGES.contains(&name.as_str());
            let alloc_regressed = gated && ratio > 1.0 + MAX_ALLOC_REGRESS;
            report.log.push(format!(
                "  {name}: {base_bytes} B -> {bytes} B allocated{}",
                if alloc_regressed { " REGRESSION" } else { "" }
            ));
            if alloc_regressed {
                report.failures.push(format!(
                    "{lbl} (stage {name} alloc {:+.1}%)",
                    (ratio - 1.0) * 100.0
                ));
            }
        }
    }
    if base.rendered_bytes != entry.rendered_bytes {
        report.log.push(format!(
            "{lbl}: rendered_bytes changed: {} -> {}",
            base.rendered_bytes, entry.rendered_bytes
        ));
        report.byte_mismatches.push(lbl.to_string());
    }
    let mut gone: Vec<&str> = base
        .stages
        .iter()
        .map(|(n, _)| n.as_str())
        .filter(|n| stage(&entry.stages, n).is_none())
        .collect();
    gone.sort_unstable();
    if !gone.is_empty() {
        let gone = gone.join(", ");
        report.log.push(format!(
            "{lbl}: stage(s) present in baseline but missing from candidate: {gone}"
        ));
        report
            .failures
            .push(format!("{lbl} (missing stages: {gone})"));
    }
}
