//! The bundle diff engine: every way two run ledgers can disagree.

use crate::bundle::LoadedBundle;
use crate::gate::{MAX_ALLOC_REGRESS, MAX_REGRESS};
use alexa_obs::bundle::BundleSpec;
use alexa_obs::{Json, Report, ShardReport, StageRec};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// How much a difference matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Context, not a failure: different seeds, an added stage, ...
    Note,
    /// The bundles differ where equal inputs should produce equal bytes.
    Drift,
    /// A loss: removed structure, work/percentile growth beyond the
    /// threshold, a coverage drop, a determinism break.
    Regression,
}

impl Severity {
    /// Lowercase label used in both output formats.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Drift => "drift",
            Severity::Regression => "regression",
        }
    }
}

/// One observed difference between two bundles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// How much this difference matters.
    pub severity: Severity,
    /// Machine-stable category (`stage-work`, `counter`, `coverage`, ...).
    pub category: &'static str,
    /// What differs (a stage, counter, section or shard name).
    pub subject: String,
    /// Human-readable explanation with both values.
    pub detail: String,
}

/// The outcome of comparing two bundles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Every difference found, in comparison order.
    pub findings: Vec<Finding>,
}

impl DiffReport {
    /// Whether the bundles are equivalent: nothing beyond [`Severity::Note`].
    pub fn clean(&self) -> bool {
        self.findings.iter().all(|f| f.severity == Severity::Note)
    }

    fn count(&self, sev: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == sev).count()
    }

    fn push(&mut self, severity: Severity, category: &'static str, subject: &str, detail: String) {
        self.findings.push(Finding {
            severity,
            category,
            subject: subject.to_string(),
            detail,
        });
    }

    /// Human-readable listing, one finding per line, worst first.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        let mut ordered: Vec<&Finding> = self.findings.iter().collect();
        ordered.sort_by_key(|f| std::cmp::Reverse(f.severity));
        for f in ordered {
            let _ = writeln!(
                out,
                "[{:<10}] {:<14} {}: {}",
                f.severity.label(),
                f.category,
                f.subject,
                f.detail
            );
        }
        let _ = writeln!(
            out,
            "{} regression(s), {} drift(s), {} note(s) — {}",
            self.count(Severity::Regression),
            self.count(Severity::Drift),
            self.count(Severity::Note),
            if self.clean() {
                "bundles equivalent"
            } else {
                "bundles differ"
            }
        );
        out
    }

    /// Machine-readable report (`--format json`).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("clean".to_string(), Json::Bool(self.clean())),
            (
                "regressions".to_string(),
                Json::Int(self.count(Severity::Regression) as u64),
            ),
            (
                "drifts".to_string(),
                Json::Int(self.count(Severity::Drift) as u64),
            ),
            (
                "notes".to_string(),
                Json::Int(self.count(Severity::Note) as u64),
            ),
            (
                "findings".to_string(),
                Json::Arr(
                    self.findings
                        .iter()
                        .map(|f| {
                            Json::Obj(vec![
                                (
                                    "severity".to_string(),
                                    Json::Str(f.severity.label().to_string()),
                                ),
                                ("category".to_string(), Json::Str(f.category.to_string())),
                                ("subject".to_string(), Json::Str(f.subject.clone())),
                                ("detail".to_string(), Json::Str(f.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Percentage growth from `a` to `b`; `None` when `a` is zero and `b` grew
/// (infinite growth — always beyond any threshold).
fn growth_pct(a: u64, b: u64) -> Option<f64> {
    if a == 0 {
        return if b == 0 { Some(0.0) } else { None };
    }
    Some((b as f64 - a as f64) / a as f64 * 100.0)
}

/// Compare two keyed maps in key order: a key only in `a` is a finding of
/// severity `missing.0` saying `missing.1`, a changed value is whatever
/// `changed` reports for it, and a key only in `b` is a note saying
/// `added`.
fn diff_keyed<V: PartialEq>(
    report: &mut DiffReport,
    a: &BTreeMap<String, V>,
    b: &BTreeMap<String, V>,
    category: &'static str,
    missing: (Severity, &str),
    added: &str,
    mut changed: impl FnMut(&mut DiffReport, &str, &V, &V),
) {
    for (name, av) in a {
        match b.get(name) {
            None => report.push(missing.0, category, name, missing.1.to_string()),
            Some(bv) if bv == av => {}
            Some(bv) => changed(report, name, av, bv),
        }
    }
    for name in b.keys().filter(|name| !a.contains_key(*name)) {
        report.push(Severity::Note, category, name, added.to_string());
    }
}

/// Compare two `name -> value` maps, reporting removals as regressions,
/// additions as notes, and value changes as drift — escalating to
/// regression when growth exceeds the gate percentage (`gate: Some(pct)`;
/// `None` never escalates).
fn diff_int_maps(
    report: &mut DiffReport,
    (a, b): (BTreeMap<String, u64>, BTreeMap<String, u64>),
    category: &'static str,
    what: &str,
    unit: &str,
    gate: Option<f64>,
) {
    let missing = format!("{what} present in baseline but missing from candidate");
    let added = format!("{what} only in candidate");
    let regression = (Severity::Regression, missing.as_str());
    diff_keyed(
        report,
        &a,
        &b,
        category,
        regression,
        &added,
        |r, name, av, bv| {
            let growth = growth_pct(*av, *bv);
            let beyond = growth.is_none_or(|pct| gate.is_some_and(|max| pct > max));
            let sev = if gate.is_some() && beyond {
                Severity::Regression
            } else {
                Severity::Drift
            };
            let pct = growth.map_or_else(|| "from zero".to_string(), |p| format!("{p:+.1}%"));
            r.push(sev, category, name, format!("{av} -> {bv} {unit} ({pct})"));
        },
    );
}

/// Compare two histogram maps by shape: a changed one is drift.
fn diff_shapes<H: PartialEq>(
    report: &mut DiffReport,
    (a, b): (&BTreeMap<String, H>, &BTreeMap<String, H>),
    category: &'static str,
    what: &str,
    shifted: &str,
) {
    let missing = format!("{what} missing from candidate");
    let added = format!("{what} only in candidate");
    let regression = (Severity::Regression, missing.as_str());
    diff_keyed(
        report,
        a,
        b,
        category,
        regression,
        &added,
        |r, name, _, _| {
            r.push(Severity::Drift, category, name, shifted.to_string());
        },
    );
}

/// Per-shard values keyed by `group[index] label`.
fn shard_values(r: &Report, value: impl Fn(&ShardReport) -> u64) -> BTreeMap<String, u64> {
    r.shards
        .iter()
        .map(|s| (format!("{}[{}] {}", s.group, s.index, s.label), value(s)))
        .collect()
}

/// Per-stage values keyed by stage name (a repeated name keeps its last
/// stage's value).
fn stage_values(r: &Report, value: impl Fn(&StageRec) -> u64) -> BTreeMap<String, u64> {
    r.stages
        .iter()
        .map(|s| (s.name.clone(), value(s)))
        .collect()
}

/// Diff the manifests' run identities: one note per identity field that
/// differs. A digest mismatch is a determinism regression exactly when the
/// identities are equal, and otherwise a note.
fn diff_manifests(report: &mut DiffReport, a: &BundleSpec, b: &BundleSpec) {
    let (ia, ib) = (a.identity(), b.identity());
    for ((field, va), (_, vb)) in ia.fields().into_iter().zip(ib.fields()) {
        if va != vb {
            report.push(Severity::Note, "manifest", field, format!("{va} vs {vb}"));
        }
    }
    let (da, db) = (a.observations_digest, b.observations_digest);
    if da == db {
        return;
    }
    if ia == ib {
        // Equal inputs must produce equal observations: this is a
        // determinism break, the strongest finding this tool can make.
        let detail = format!("{da:016x} vs {db:016x} with identical run identity");
        report.push(
            Severity::Regression,
            "determinism",
            "observations_digest",
            detail,
        );
    } else {
        let detail = "differs (expected across different runs)".to_string();
        report.push(Severity::Note, "manifest", "observations_digest", detail);
    }
}

/// Diff the embedded coverage reports, when present.
fn diff_coverage(report: &mut DiffReport, a: &LoadedBundle, b: &LoadedBundle) {
    let (Some(ca), Some(cb)) = (&a.coverage, &b.coverage) else {
        if a.coverage.is_some() != b.coverage.is_some() {
            report.push(
                Severity::Note,
                "coverage",
                "presence",
                "only one bundle embeds a coverage report".to_string(),
            );
        }
        return;
    };
    // Sections: a drop in the observed/expected ratio is a regression.
    let missing = (
        Severity::Regression,
        "section present in baseline but missing from candidate",
    );
    let added = "section only in candidate";
    diff_keyed(
        report,
        &ca.sections,
        &cb.sections,
        "coverage",
        missing,
        added,
        |r, name, a, b| {
            let (ao, ae, bo, be) = (a.observed, a.expected, b.observed, b.expected);
            let (pa, pb) = (a.ratio() * 100.0, b.ratio() * 100.0);
            let (severity, detail) = match b.ratio() < a.ratio() {
                true => (
                    Severity::Regression,
                    format!("{ao}/{ae} ({pa:.1}%) -> {bo}/{be} ({pb:.1}%)"),
                ),
                false => (Severity::Drift, format!("{ao}/{ae} -> {bo}/{be}")),
            };
            r.push(severity, "coverage", name, detail);
        },
    );
    // Fault totals: injected per channel plus retries / losses / backoff.
    let injected = (ca.injected.clone(), cb.injected.clone());
    diff_int_maps(report, injected, "fault", "fault channel", "injected", None);
    for (field, av, bv) in [
        ("retries", ca.retries, cb.retries),
        ("backoff_ms", ca.backoff_ms, cb.backoff_ms),
        ("losses", ca.losses, cb.losses),
    ] {
        if av != bv {
            report.push(Severity::Drift, "fault", field, format!("{av} -> {bv}"));
        }
    }
    // Newly degraded shards are a robustness regression.
    let (da, db) = (&ca.degraded_shards, &cb.degraded_shards);
    for (now, before, severity, detail) in [
        (
            db,
            da,
            Severity::Regression,
            "shard newly degraded in candidate",
        ),
        (da, db, Severity::Note, "shard no longer degraded"),
    ] {
        for shard in now.iter().filter(|shard| !before.contains(shard)) {
            report.push(severity, "degraded", shard, detail.to_string());
        }
    }
}

/// Diff the per-group percentile summaries of shard work.
fn diff_summaries(report: &mut DiffReport, a: &Report, b: &Report) {
    let missing = (Severity::Regression, "shard group missing from candidate");
    let added = "shard group only in candidate";
    let (ga, gb) = (a.work_summaries(), b.work_summaries());
    diff_keyed(
        report,
        &ga,
        &gb,
        "summary",
        missing,
        added,
        |r, group, sa, sb| {
            for ((key, av), (_, bv)) in sa.fields().into_iter().zip(sb.fields()) {
                if av == bv {
                    continue;
                }
                // Percentile growth beyond the threshold gates; anything else
                // (including shrinkage) is drift worth seeing.
                let gated = matches!(key, "p50" | "p90" | "p99");
                let beyond = growth_pct(av, bv).is_none_or(|pct| pct > MAX_REGRESS * 100.0);
                let sev = if gated && beyond {
                    Severity::Regression
                } else {
                    Severity::Drift
                };
                let subject = format!("{group}.{key}");
                r.push(sev, "summary", &subject, format!("{av} -> {bv} work units"));
            }
        },
    );
}

/// Compare two loaded bundles, baseline first.
///
/// Every view compared here is derived from the two decoded reports, the
/// same [`Report`] method computing it for both sides. The report
/// distinguishes context notes (different seeds), drift (values differ
/// where equal inputs should agree byte-for-byte) and regressions
/// (structure lost, growth beyond 25%, or 10% for allocated bytes, coverage drops,
/// determinism breaks). Identical bundles produce an empty report.
pub fn diff_bundles(a: &LoadedBundle, b: &LoadedBundle) -> DiffReport {
    let mut report = DiffReport::default();
    let (ra, rb) = (&a.report, &b.report);
    let gate = Some(MAX_REGRESS * 100.0);
    let alloc_gate = Some(MAX_ALLOC_REGRESS * 100.0);
    diff_manifests(&mut report, &a.manifest, &b.manifest);
    // Stage work: removed stages and big growth gate.
    let work = (stage_values(ra, |s| s.work), stage_values(rb, |s| s.work));
    diff_int_maps(&mut report, work, "stage-work", "stage", "work units", gate);
    // Counter totals (includes fault.* when a fault profile was active).
    let counters = (ra.counter_totals(), rb.counter_totals());
    diff_int_maps(&mut report, counters, "counter", "counter", "", None);
    // Aggregates: count and calls per name.
    let missing = (Severity::Drift, "aggregate missing from candidate");
    let (aa, ab) = (&ra.aggregates, &rb.aggregates);
    let added = "aggregate only in candidate";
    diff_keyed(
        &mut report,
        aa,
        ab,
        "aggregate",
        missing,
        added,
        |r, name, a, b| {
            let detail = format!(
                "count {} -> {}, calls {} -> {}",
                a.count, b.count, a.calls, b.calls
            );
            r.push(Severity::Drift, "aggregate", name, detail);
        },
    );
    diff_summaries(&mut report, ra, rb);
    // Work histograms: shape only — magnitude shifts already surface via
    // the summaries and stage work.
    let hists = (&ra.work_histograms(), &rb.work_histograms());
    let shifted = "bucket distribution shifted";
    diff_shapes(&mut report, hists, "histogram", "histogram", shifted);
    // Shard structure and per-shard work.
    let shards = (shard_values(ra, |s| s.work), shard_values(rb, |s| s.work));
    diff_int_maps(
        &mut report,
        shards,
        "shard-work",
        "shard",
        "work units",
        gate,
    );
    // The allocation plane (the facts of `memory.json`). Bytes per stage
    // and per shard gate at [`MAX_ALLOC_REGRESS`]; counts surface as
    // drift (bytes are what memory budgets are written in); size
    // histograms compare by shape. Per-group allocation summaries are
    // functions of the shard values, so they get no category.
    let bytes = (
        stage_values(ra, |s| s.alloc_bytes),
        stage_values(rb, |s| s.alloc_bytes),
    );
    let (what, unit) = ("stage allocation", "alloc bytes");
    diff_int_maps(&mut report, bytes, "stage-alloc", what, unit, alloc_gate);
    let counts = (
        stage_values(ra, |s| s.alloc_count),
        stage_values(rb, |s| s.alloc_count),
    );
    let (what, unit) = ("stage allocation count", "allocations");
    diff_int_maps(&mut report, counts, "stage-alloc-count", what, unit, None);
    let bytes = (
        shard_values(ra, |s| s.alloc_bytes),
        shard_values(rb, |s| s.alloc_bytes),
    );
    let (what, unit) = ("shard allocation", "alloc bytes");
    diff_int_maps(&mut report, bytes, "shard-alloc", what, unit, alloc_gate);
    let sizes = (&ra.alloc_sizes, &rb.alloc_sizes);
    let (what, shifted) = (
        "allocation-size histogram",
        "allocation-size distribution shifted",
    );
    diff_shapes(&mut report, sizes, "alloc-sizes", what, shifted);
    diff_coverage(&mut report, a, b);
    // The folded profile: byte-compare, report the line-level delta size.
    let (pa, pb) = (ra.folded_profile(), rb.folded_profile());
    if pa != pb {
        let la: BTreeSet<&str> = pa.lines().collect();
        let lb: BTreeSet<&str> = pb.lines().collect();
        let only_a = la.difference(&lb).count();
        let only_b = lb.difference(&la).count();
        report.push(
            Severity::Drift,
            "profile",
            "folded_profile",
            format!("{only_a} line(s) only in baseline, {only_b} only in candidate"),
        );
    }
    report
}
