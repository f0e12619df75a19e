//! Integration tests: the fixture workspace against its golden report, the
//! ratchet semantics, the real workspace gate, and the DESIGN.md lint-catalog
//! drift check.

use alexa_analyzer::{analyze, findings, BaselineEntry, Config, CATALOG};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyzer sits two levels below the workspace root")
        .to_path_buf()
}

fn fixture_config() -> Config {
    let src = std::fs::read_to_string(fixture_root().join("analyzer.toml")).expect("fixture toml");
    Config::parse(&src).expect("fixture config parses")
}

/// Render a report exactly like `--format json` does.
fn report_json(report: &alexa_analyzer::AnalysisReport) -> String {
    let mut all: Vec<findings::Finding> = report.new_findings.clone();
    all.extend(report.warnings.iter().cloned());
    all.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    findings::render_json(&all, &report.drift, report.baselined, report.clean())
}

#[test]
fn fixture_findings_match_golden_json() {
    let report = analyze(&fixture_root(), &fixture_config()).expect("fixture analyzes");
    let expected = include_str!("fixtures/expected.json");
    assert_eq!(
        report_json(&report),
        expected,
        "fixture report drifted from tests/fixtures/expected.json — if the \
         change is intentional, regenerate the golden with --format json"
    );
}

#[test]
fn fixture_counts_are_what_the_golden_encodes() {
    let report = analyze(&fixture_root(), &fixture_config()).expect("fixture analyzes");
    assert!(!report.clean());
    assert_eq!(report.files_scanned, 9);
    assert_eq!(report.baselined, 1, "baselined.rs unwrap is covered");
    assert_eq!(report.warnings.len(), 2, "AP03 + AX01 are advisory");
    // Every deny lint fires at least once in the fixture tree.
    for id in [
        "AD01", "AD02", "AD03", "AD04", "AP01", "AP02", "AO01", "AO02", "AS01", "AS02", "AS03",
        "AS04", "AX02",
    ] {
        assert!(
            report.new_findings.iter().any(|f| f.lint == id),
            "fixture should produce a {id} finding"
        );
    }
}

#[test]
fn ratchet_exact_match_is_clean_and_silent() {
    let mut cfg = fixture_config();
    let report = analyze(&fixture_root(), &cfg).expect("analyze");
    // Rebuild the baseline from the observed counts: the next run must be
    // clean, with every deny finding absorbed and no drift.
    cfg.baseline = report.fresh_baseline();
    let again = analyze(&fixture_root(), &cfg).expect("analyze");
    assert!(
        again.clean(),
        "exact baseline must gate nothing: {:?}",
        again.drift
    );
    assert!(again.new_findings.is_empty());
    assert!(again.drift.is_empty());
    assert_eq!(again.warnings.len(), 2, "warnings are never baselined");
}

#[test]
fn ratchet_flags_new_findings_beyond_the_baseline() {
    let mut cfg = fixture_config();
    let report = analyze(&fixture_root(), &cfg).expect("analyze");
    let mut baseline = report.fresh_baseline();
    // Pretend one AP02 site in lib.rs was not there when the baseline was
    // recorded: the run must fail and surface the site.
    let entry = baseline
        .iter_mut()
        .find(|b| b.lint == "AP02" && b.path == "crates/demo/src/lib.rs")
        .expect("lib.rs AP02 entry");
    entry.count -= 1;
    cfg.baseline = baseline;
    let again = analyze(&fixture_root(), &cfg).expect("analyze");
    assert!(!again.clean());
    assert!(again
        .new_findings
        .iter()
        .any(|f| f.lint == "AP02" && f.path == "crates/demo/src/lib.rs"));
    assert!(again
        .drift
        .iter()
        .any(|d| d.lint == "AP02" && d.actual > d.expected));
}

#[test]
fn ratchet_flags_stale_baseline_entries() {
    let mut cfg = fixture_config();
    let report = analyze(&fixture_root(), &cfg).expect("analyze");
    let mut baseline = report.fresh_baseline();
    // An entry for a file with no findings at all must fail as stale.
    baseline.push(BaselineEntry {
        lint: "AP01".to_string(),
        path: "crates/demo/src/vanished.rs".to_string(),
        count: 2,
    });
    cfg.baseline = baseline;
    let again = analyze(&fixture_root(), &cfg).expect("analyze");
    assert!(!again.clean(), "stale entries must fail the run");
    assert!(again
        .drift
        .iter()
        .any(|d| d.path == "crates/demo/src/vanished.rs" && d.expected == 2 && d.actual == 0));
    // Stale-only failures introduce no new findings.
    assert!(again.new_findings.is_empty());
}

#[test]
fn workspace_is_clean() {
    // The real workspace, under the checked-in analyzer.toml, must pass —
    // this is the same gate CI runs.
    let root = workspace_root();
    let (_, report) =
        alexa_analyzer::analyze_with_default_config(&root).expect("workspace analyzes");
    let mut complaints = String::new();
    for f in &report.new_findings {
        complaints.push_str(&f.render_human());
        complaints.push('\n');
    }
    for d in &report.drift {
        complaints.push_str(&d.render_human());
        complaints.push('\n');
    }
    assert!(report.clean(), "workspace lint gate failed:\n{complaints}");
    assert!(
        report.files_scanned > 50,
        "walker found only {} files",
        report.files_scanned
    );
}

#[test]
fn semantic_lints_skip_the_near_misses() {
    let report = analyze(&fixture_root(), &fixture_config()).expect("fixture analyzes");
    let all: Vec<&findings::Finding> = report
        .new_findings
        .iter()
        .chain(report.warnings.iter())
        .collect();
    // AS01: the clean render surface is not tainted, and the finding for
    // the tainted one carries the full cross-file call chain.
    assert!(!all
        .iter()
        .any(|f| f.lint == "AS01" && f.message.contains("render_static")));
    let taint = all
        .iter()
        .find(|f| f.lint == "AS01")
        .expect("render_report taint finding");
    for hop in ["render_report", "stamp", "read", "clock.rs"] {
        assert!(taint.message.contains(hop), "chain misses {hop}");
    }
    // AS02: the complete Meta pair round-trips; only Shard::gamma drifts.
    assert!(!all
        .iter()
        .any(|f| f.lint == "AS02" && f.message.contains("Meta")));
    assert!(all
        .iter()
        .any(|f| f.lint == "AS02" && f.message.contains("gamma")));
    // AS03: live names stay quiet; both dead entries are named.
    for live in ["\"boot\"", "\"render.bytes\"", "\"fault.injected\""] {
        assert!(!all
            .iter()
            .any(|f| f.lint == "AS03" && f.message.contains(live)));
    }
    for dead in ["fault.mystery", "fault.packet_drop"] {
        assert!(all
            .iter()
            .any(|f| f.lint == "AS03" && f.message.contains(dead)));
    }
    // AS04: the documented status 3 passes, only 7 is flagged.
    let as04: Vec<_> = all.iter().filter(|f| f.lint == "AS04").collect();
    assert_eq!(as04.len(), 1);
    assert!(as04[0].message.contains('7'));
}

#[test]
fn design_doc_catalogs_every_lint() {
    // DESIGN.md §11 documents the catalog; `--list-lints` prints it from the
    // same CATALOG constant. This test pins the two together: every lint's
    // id, slug and summary must appear verbatim in the doc.
    let design = std::fs::read_to_string(workspace_root().join("DESIGN.md")).expect("DESIGN.md");
    for spec in CATALOG {
        assert!(
            design.contains(spec.id),
            "DESIGN.md does not mention lint id {}",
            spec.id
        );
        assert!(
            design.contains(spec.slug),
            "DESIGN.md does not mention the slug of {} ({})",
            spec.id,
            spec.slug
        );
        assert!(
            design.contains(spec.summary),
            "DESIGN.md does not carry the one-line summary of {} verbatim:\n  {}",
            spec.id,
            spec.summary
        );
    }
}
