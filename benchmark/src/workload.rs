//! The three workloads: what each runs, and how its output is checked.

use alexa_obs::Json;

/// A benchmark workload. Every item runs in its own `repro` process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `repro --seed s all`: every stage, thread backend, no faults.
    Report,
    /// `repro --seed s --fault-profile flaky all`: the same layers with the
    /// fault plane and retries on every channel, and defended records
    /// executed for real.
    ReportFlaky,
    /// `repro campaign PLAN --out DIR` on an 8-cell plan per item:
    /// execute-only cells with the recorder on, bundles written and loaded
    /// back, jobs-1 and jobs-2 instances byte-compared, tables derived.
    Campaign,
}

/// The fault and defense axes of every campaign plan the benchmark writes.
pub const CAMPAIGN_FAULTS: &[&str] = &["none", "flaky"];
/// See [`CAMPAIGN_FAULTS`].
pub const CAMPAIGN_DEFENSES: &[&str] = &["none", "firewall"];
/// Worker counts of every campaign plan: each identity runs sequentially
/// and on two workers, and the two bundles must be byte-identical.
pub const CAMPAIGN_JOBS: &[usize] = &[1, 2];

/// How an item's output was checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Check {
    /// Byte-exact against a reference digest.
    Exact,
    /// No reference for this seed: exit code and output shape only.
    Contract,
    /// The item failed; the reason.
    Failed(String),
}

impl Workload {
    /// Every workload, in the order `run` executes them.
    pub const ALL: [Workload; 3] = [Workload::Report, Workload::ReportFlaky, Workload::Campaign];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Report => "report",
            Workload::ReportFlaky => "report-flaky",
            Workload::Campaign => "campaign",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fault profile of a report workload's items.
    pub fn fault(self) -> &'static str {
        match self {
            Workload::ReportFlaky => "flaky",
            Workload::Report | Workload::Campaign => "none",
        }
    }

    /// Whether `code` is an exit code this workload's items may end with:
    /// a flaky run may legitimately end degraded (3).
    pub fn exit_ok(self, code: i32) -> bool {
        code == 0 || (self == Workload::ReportFlaky && code == 3)
    }
}

/// Item `i`'s seed for base seed `base`.
pub fn item_seed(base: u64, i: usize) -> u64 {
    base.wrapping_add(i as u64)
}

/// `repro` arguments of one report item.
pub fn report_args(seed: u64, fault: &str) -> Vec<String> {
    let mut args = vec!["--seed".to_string(), seed.to_string()];
    if fault != "none" {
        args.extend(["--fault-profile".to_string(), fault.to_string()]);
    }
    args.push("all".to_string());
    args
}

/// A campaign plan document at paper scale over the given axes.
pub fn campaign_plan(
    name: &str,
    seeds: &[u64],
    faults: &[&str],
    defenses: &[&str],
    jobs: &[usize],
) -> String {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::Str(s.to_string())).collect());
    let mut plan = Json::Obj(vec![
        ("schema".into(), Json::Int(1)),
        ("name".into(), Json::Str(name.into())),
        ("scale".into(), Json::Str("paper".into())),
        (
            "seeds".into(),
            Json::Arr(seeds.iter().map(|s| Json::Int(*s)).collect()),
        ),
        ("faults".into(), strs(faults)),
        ("defenses".into(), strs(defenses)),
        (
            "jobs".into(),
            Json::Arr(jobs.iter().map(|j| Json::Int(*j as u64)).collect()),
        ),
    ])
    .render();
    plan.push('\n');
    plan
}

/// The identity of a campaign cell, as `campaign.json` records it.
pub fn cell_id(seed: u64, fault: &str, defense: &str) -> String {
    format!("s{seed}-f{fault}-d{defense}")
}

/// The line each artifact of `repro all` starts with, in order. Seed-
/// dependent numbers follow these prefixes, so only the prefix is checked.
pub const ARTIFACT_HEADINGS: [&str; 25] = [
    "Table 1:",
    "Table 2:",
    "Table 3:",
    "Table 4:",
    "Figure 2:",
    "Table 5:",
    "Table 6:",
    "Figure 3a:",
    "Table 7:",
    "Table 8:",
    "Table 9:",
    "Figure 5:",
    "Cookie syncing",
    "Table 10:",
    "Figure 6:",
    "Table 11:",
    "Figure 7:",
    "Table 12:",
    "Policy availability",
    "Table 13:",
    "Table 13:",
    "Table 14:",
    "PoliCheck validation",
    "Policies that DENY",
    "Defense evaluation:",
];

/// Whether a report's stdout has the shape of `repro all`: the coverage
/// block first when faults are on, then all 25 artifact headings in order.
pub fn report_shape_ok(stdout: &[u8], fault: &str) -> bool {
    let Ok(text) = std::str::from_utf8(stdout) else {
        return false;
    };
    if fault != "none" && !text.starts_with("## Coverage") {
        return false;
    }
    let mut headings = ARTIFACT_HEADINGS.iter().peekable();
    for line in text.lines() {
        if headings.peek().is_some_and(|h| line.starts_with(**h)) {
            headings.next();
        }
    }
    headings.peek().is_none()
}

/// Classify one report item from its exit code, its stdout with that
/// output's FNV-1a-64 digest, and the reference digest for its seed, if
/// there is one.
pub fn check_report(
    workload: Workload,
    code: Option<i32>,
    stdout: &[u8],
    digest: u64,
    reference: Option<u64>,
) -> Check {
    match code {
        Some(c) if workload.exit_ok(c) => {}
        Some(c) => return Check::Failed(format!("exit code {c}")),
        None => return Check::Failed("killed by a signal".into()),
    }
    match reference {
        Some(want) if digest == want => Check::Exact,
        Some(_) => Check::Failed("stdout digest differs from the reference".into()),
        None if report_shape_ok(stdout, workload.fault()) => Check::Contract,
        None => Check::Failed("stdout lacks the coverage block or an artifact heading".into()),
    }
}

/// Classify one campaign item: the exit code, the summary line, and every
/// cell digest in `campaign.json` against the reference (`lookup`), or,
/// where a cell has none, against its sibling instance.
pub fn check_campaign(
    code: Option<i32>,
    stdout: &[u8],
    manifest: Option<&Json>,
    cells: usize,
    lookup: impl Fn(&str) -> Option<u64>,
) -> Check {
    if code != Some(0) {
        return Check::Failed(format!("exit code {code:?}"));
    }
    let summary = format!("{cells} cell(s) — {cells} executed");
    if !String::from_utf8_lossy(stdout).contains(&summary) {
        return Check::Failed(format!("summary does not read {summary:?}"));
    }
    let Some(rows) = manifest.and_then(|m| m.get("cells")).and_then(Json::as_arr) else {
        return Check::Failed("campaign.json missing or without cells".into());
    };
    if rows.len() != cells {
        return Check::Failed(format!("campaign.json lists {} cells", rows.len()));
    }
    let mut exact = true;
    let mut seen: Vec<(&str, &str)> = Vec::new();
    for row in rows {
        let (Some(id), Some(digest)) = (
            row.get("id").and_then(Json::as_str),
            row.get("digest").and_then(Json::as_str),
        ) else {
            return Check::Failed("a campaign.json cell lacks id or digest".into());
        };
        match lookup(id) {
            Some(want) if format!("{want:016x}") == digest => {}
            Some(_) => return Check::Failed(format!("cell {id}: digest differs")),
            None => exact = false,
        }
        if seen.iter().any(|(i, d)| *i == id && *d != digest) {
            return Check::Failed(format!("cell {id}: instances disagree"));
        }
        seen.push((id, digest));
    }
    if exact {
        Check::Exact
    } else {
        Check::Contract
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv1a64;
    use alexa_obs::campaign::Plan;

    const GOLDEN: &str = include_str!("../../crates/bench/tests/golden/report_seed7.txt");

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("reports"), None);
    }

    /// [`check_report`] on `stdout` with its true digest.
    fn check(w: Workload, code: Option<i32>, stdout: &[u8], want: Option<u64>) -> Check {
        check_report(w, code, stdout, fnv1a64(stdout), want)
    }

    #[test]
    fn exit_three_fails_report_but_passes_report_flaky() {
        let out = GOLDEN.as_bytes();
        let want = Some(fnv1a64(out));
        assert_eq!(check(Workload::Report, Some(0), out, want), Check::Exact);
        assert!(matches!(
            check(Workload::Report, Some(3), out, want),
            Check::Failed(_)
        ));
        assert_eq!(
            check(Workload::ReportFlaky, Some(3), out, want),
            Check::Exact
        );
        assert!(matches!(
            check(Workload::ReportFlaky, Some(1), out, want),
            Check::Failed(_)
        ));
        assert!(matches!(
            check(Workload::Report, None, out, want),
            Check::Failed(_)
        ));
    }

    #[test]
    fn a_digest_mismatch_fails_both_report_workloads() {
        let out = GOLDEN.as_bytes();
        let wrong = Some(fnv1a64(out) ^ 1);
        for w in [Workload::Report, Workload::ReportFlaky] {
            assert!(matches!(check(w, Some(0), out, wrong), Check::Failed(_)));
        }
    }

    #[test]
    fn without_a_reference_only_the_contract_is_checked() {
        let out = GOLDEN.as_bytes();
        assert_eq!(check(Workload::Report, Some(0), out, None), Check::Contract);
        // A flaky report must lead with its coverage block.
        assert!(matches!(
            check(Workload::ReportFlaky, Some(0), out, None),
            Check::Failed(_)
        ));
        let flaky = format!("## Coverage (fault profile: flaky)\n\n{GOLDEN}");
        assert_eq!(
            check(Workload::ReportFlaky, Some(3), flaky.as_bytes(), None),
            Check::Contract
        );
        // Dropping one artifact breaks the shape.
        let truncated = GOLDEN.replace("Table 12:", "Table twelve:");
        assert!(matches!(
            check(Workload::Report, Some(0), truncated.as_bytes(), None),
            Check::Failed(_)
        ));
    }

    #[test]
    fn generated_plans_expand_to_the_expected_cells() {
        let seeds: Vec<u64> = (7..22).collect();
        let plan = Plan::parse(&campaign_plan(
            "sweep",
            &seeds,
            CAMPAIGN_FAULTS,
            CAMPAIGN_DEFENSES,
            CAMPAIGN_JOBS,
        ))
        .expect("plan parses");
        assert_eq!(plan.cells().len(), 120);
        let item = Plan::parse(&campaign_plan(
            "item",
            &[7],
            CAMPAIGN_FAULTS,
            CAMPAIGN_DEFENSES,
            CAMPAIGN_JOBS,
        ))
        .expect("plan parses");
        let cells = item.cells();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].id(), cell_id(7, "none", "none"));
        assert_eq!(cells[7].id(), cell_id(7, "flaky", "firewall"));
    }

    #[test]
    fn campaign_checks_cover_exit_summary_and_digests() {
        let manifest = Json::parse(
            r#"{"cells": [
                {"id": "s1-fnone-dnone", "digest": "00000000000000aa"},
                {"id": "s1-fnone-dnone", "digest": "00000000000000aa"}]}"#,
        )
        .expect("parses");
        let stdout = "campaign x: 2 cell(s) — 2 executed, 0 skipped, 0 degraded\n".as_bytes();
        let known = |_: &str| Some(0xaa);
        let unknown = |_: &str| None;
        let wrong = |_: &str| Some(0xab);
        assert_eq!(
            check_campaign(Some(0), stdout, Some(&manifest), 2, known),
            Check::Exact
        );
        assert_eq!(
            check_campaign(Some(0), stdout, Some(&manifest), 2, unknown),
            Check::Contract
        );
        assert!(matches!(
            check_campaign(Some(0), stdout, Some(&manifest), 2, wrong),
            Check::Failed(_)
        ));
        assert!(matches!(
            check_campaign(Some(1), stdout, Some(&manifest), 2, known),
            Check::Failed(_)
        ));
        assert!(matches!(
            check_campaign(Some(0), stdout, None, 2, known),
            Check::Failed(_)
        ));
        assert!(matches!(
            check_campaign(Some(0), stdout, Some(&manifest), 8, known),
            Check::Failed(_)
        ));
    }
}
