//! Bundle diff engine: synthetic pairs covering the verdict space, plus a
//! real-audit round-trip.

#![expect(
    clippy::expect_used,
    reason = "test helpers fail the test by panicking"
)]

use alexa_audit::{AuditConfig, AuditRun};
use alexa_fault::{CoverageReport, FaultProfile};
use alexa_obs::bundle::{write_bundle, BundleSpec, FILES, MANIFEST_FILE, SCHEMA_VERSION};
use alexa_obs::{Json, Recorder, Report};
use alexa_obsdiff::{diff_bundles, load_bundle, BundleError, DiffOptions, DiffReport, Severity};
use std::path::{Path, PathBuf};

/// An empty scratch directory for one tag (tags are unique per call site).
/// Whether any finding reached [`Severity::Regression`].
fn has_regression(report: &DiffReport) -> bool {
    report
        .findings
        .iter()
        .any(|f| f.severity == Severity::Regression)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("obsdiff-diff-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(seed: u64) -> BundleSpec {
    BundleSpec {
        seed,
        fault_profile: "none".into(),
        defense: None,
        campaign: None,
        observations_digest: 0x1234_5678 ^ seed,
        coverage: None,
    }
}

/// A tiny synthetic run: one stage, one shard, configurable work.
fn synthetic(dir: &Path, seed: u64, install_work: u64, extra_stage: bool) {
    let rec = Recorder::new();
    rec.stage("persona.shards", || {
        let mut log = rec.shard("persona", 0, "Vanilla");
        log.span("install", |l| l.work(install_work));
        log.add("crawl.visits", 40 + install_work / 100);
        rec.submit(log);
    });
    if extra_stage {
        rec.stage("policy.download", || {});
    }
    write_bundle(dir, &spec(seed), &rec.report()).expect("bundle write");
}

#[test]
fn identical_bundles_diff_clean_with_zero_findings() {
    let (da, db) = (fresh_dir("id-a"), fresh_dir("id-b"));
    synthetic(&da, 7, 100, true);
    synthetic(&db, 7, 100, true);
    let a = load_bundle(&da).expect("load a");
    let b = load_bundle(&db).expect("load b");
    let report = diff_bundles(&a, &b, &DiffOptions::default());
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert!(report.clean());
    assert!(report.render_human().contains("bundles equivalent"));
}

#[test]
fn growth_beyond_threshold_is_a_regression() {
    let (da, db) = (fresh_dir("reg-a"), fresh_dir("reg-b"));
    synthetic(&da, 7, 100, false);
    synthetic(&db, 7, 200, false); // +100% work
    let a = load_bundle(&da).expect("load a");
    let b = load_bundle(&db).expect("load b");
    let report = diff_bundles(&a, &b, &DiffOptions::default());
    assert!(has_regression(&report));
    assert!(report
        .findings
        .iter()
        .any(|f| f.category == "stage-work" && f.severity == Severity::Regression));
    // The digest differs with identical seed/profile: a determinism break.
    // (The synthetic specs share the digest for equal seeds, so none here.)
    assert!(!report.findings.iter().any(|f| f.category == "determinism"));
}

#[test]
fn growth_within_threshold_is_drift_not_regression() {
    let (da, db) = (fresh_dir("drift-a"), fresh_dir("drift-b"));
    synthetic(&da, 7, 100, false);
    synthetic(&db, 7, 110, false); // +10% < 25%
    let a = load_bundle(&da).expect("load a");
    let b = load_bundle(&db).expect("load b");
    let report = diff_bundles(&a, &b, &DiffOptions::default());
    assert!(!report.clean(), "drift must not be clean");
    assert!(!has_regression(&report), "{:?}", report.findings);
    // The same pair under a tighter threshold regresses.
    let tight = diff_bundles(
        &a,
        &b,
        &DiffOptions {
            max_regress_pct: 5.0,
            ..DiffOptions::default()
        },
    );
    assert!(has_regression(&tight));
}

#[test]
fn removed_stage_is_a_regression() {
    let (da, db) = (fresh_dir("gone-a"), fresh_dir("gone-b"));
    synthetic(&da, 7, 100, true); // has policy.download
    synthetic(&db, 7, 100, false); // lost it
    let a = load_bundle(&da).expect("load a");
    let b = load_bundle(&db).expect("load b");
    let report = diff_bundles(&a, &b, &DiffOptions::default());
    assert!(report.findings.iter().any(|f| f.category == "stage-work"
        && f.severity == Severity::Regression
        && f.subject == "policy.download"));
    // The reverse direction reports an addition as a note only.
    let reverse = diff_bundles(&b, &a, &DiffOptions::default());
    assert!(reverse
        .findings
        .iter()
        .any(|f| f.subject == "policy.download" && f.severity == Severity::Note));
}

#[test]
fn digest_mismatch_with_equal_seed_is_a_determinism_regression() {
    let (da, db) = (fresh_dir("det-a"), fresh_dir("det-b"));
    let rec = Recorder::new();
    write_bundle(&da, &spec(7), &rec.report()).expect("write a");
    let mut other = spec(7);
    other.observations_digest ^= 1;
    write_bundle(&db, &other, &rec.report()).expect("write b");
    let a = load_bundle(&da).expect("load a");
    let b = load_bundle(&db).expect("load b");
    let report = diff_bundles(&a, &b, &DiffOptions::default());
    assert!(report
        .findings
        .iter()
        .any(|f| f.category == "determinism" && f.severity == Severity::Regression));
    // Different seeds: the same digest mismatch is only a note.
    let (dc, dd) = (fresh_dir("det-c"), fresh_dir("det-d"));
    write_bundle(&dc, &spec(7), &rec.report()).expect("write c");
    write_bundle(&dd, &spec(8), &rec.report()).expect("write d");
    let c = load_bundle(&dc).expect("load c");
    let d = load_bundle(&dd).expect("load d");
    let cross = diff_bundles(&c, &d, &DiffOptions::default());
    assert!(cross.clean(), "{:?}", cross.findings);
    // Equal seed and fault profile but another defense: another run, so
    // the mismatch is a note, beside one note for the defense.
    let (de, df) = (fresh_dir("det-e"), fresh_dir("det-f"));
    let mut defended = other.clone();
    defended.defense = Some("firewall".into());
    write_bundle(&de, &spec(7), &rec.report()).expect("write e");
    write_bundle(&df, &defended, &rec.report()).expect("write f");
    let e = load_bundle(&de).expect("load e");
    let f = load_bundle(&df).expect("load f");
    let defense = diff_bundles(&e, &f, &DiffOptions::default());
    assert!(defense.clean(), "{:?}", defense.findings);
    let subjects: Vec<&str> = defense
        .findings
        .iter()
        .map(|f| f.subject.as_str())
        .collect();
    assert_eq!(subjects, ["defense", "observations_digest"]);
}

#[test]
fn coverage_ratio_drop_is_a_regression() {
    let cov = |observed: u64| {
        Json::Obj(vec![
            ("profile".to_string(), Json::Str("flaky".to_string())),
            (
                "sections".to_string(),
                Json::Obj(vec![(
                    "skill.installs".to_string(),
                    Json::Obj(vec![
                        ("observed".to_string(), Json::Int(observed)),
                        ("expected".to_string(), Json::Int(50)),
                    ]),
                )]),
            ),
            (
                "injected".to_string(),
                Json::Obj(vec![("install".to_string(), Json::Int(3))]),
            ),
            ("retries".to_string(), Json::Int(4)),
            ("backoff_ms".to_string(), Json::Int(100)),
            ("losses".to_string(), Json::Int(0)),
            ("degraded_shards".to_string(), Json::Arr(vec![])),
        ])
    };
    let (da, db) = (fresh_dir("cov-a"), fresh_dir("cov-b"));
    let rec = Recorder::new();
    let mut sa = spec(7);
    sa.fault_profile = "flaky".into();
    sa.coverage = Some(cov(50));
    let mut sb = sa.clone();
    sb.coverage = Some(cov(44));
    write_bundle(&da, &sa, &rec.report()).expect("write a");
    write_bundle(&db, &sb, &rec.report()).expect("write b");
    let a = load_bundle(&da).expect("load a");
    let b = load_bundle(&db).expect("load b");
    let report = diff_bundles(&a, &b, &DiffOptions::default());
    assert!(report
        .findings
        .iter()
        .any(|f| f.category == "coverage" && f.severity == Severity::Regression));
}

#[test]
fn malformed_manifest_is_a_typed_load_error() {
    let dir = fresh_dir("bad-manifest");
    synthetic(&dir, 7, 100, false);
    std::fs::write(dir.join(MANIFEST_FILE), "{\"seed\": 7,,}").expect("corrupt");
    match load_bundle(&dir) {
        Err(BundleError::Malformed { path, .. }) => {
            assert!(path.ends_with(MANIFEST_FILE));
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn missing_bundle_file_is_unreadable() {
    let dir = fresh_dir("absent");
    match load_bundle(&dir) {
        Err(BundleError::Unreadable { path, .. }) => {
            assert!(path.ends_with(MANIFEST_FILE));
        }
        other => panic!("expected Unreadable, got {other:?}"),
    }
}

#[test]
fn manifest_without_required_fields_is_rejected() {
    let dir = fresh_dir("no-seed");
    synthetic(&dir, 7, 100, false);
    let hand_written = |fields: &str| {
        format!("{{\"schema\": {SCHEMA_VERSION}, {fields}, \"jobs_independent\": true}}\n")
    };
    let digest = "\"observations_digest\": \"0000000000000000\"";
    let mut covered = spec(7);
    covered.coverage = Some(CoverageReport::new("none").to_json());
    let covered = covered.manifest_json().render();
    let cases = [
        (
            hand_written(&format!("\"fault_profile\": \"none\", {digest}")),
            "seed",
        ),
        (
            hand_written(&format!(
                "\"seed\": \"7\", \"fault_profile\": \"none\", {digest}"
            )),
            "seed",
        ),
        (
            hand_written(&format!("\"seed\": 7, \"fault_profile\": 3, {digest}")),
            "fault_profile",
        ),
        (
            hand_written(
                "\"seed\": 7, \"fault_profile\": \"none\", \"observations_digest\": \"00\"",
            ),
            "observations_digest",
        ),
        (
            covered.replacen("\"losses\": 0", "\"losses\": \"lots\"", 1),
            "coverage.losses",
        ),
    ];
    for (manifest, field) in cases {
        std::fs::write(dir.join(MANIFEST_FILE), &manifest).expect("rewrite");
        match load_bundle(&dir) {
            Err(BundleError::Ledger { path, error }) => {
                assert!(path.ends_with(MANIFEST_FILE));
                assert_eq!(error.file, MANIFEST_FILE);
                let named = error.detail.strip_prefix(field);
                assert!(named.is_some_and(|rest| rest.starts_with(':')), "{error}");
            }
            other => panic!("{manifest}: expected a typed error naming {field}, got {other:?}"),
        }
    }
}

#[test]
fn future_schema_versions_are_rejected() {
    let dir = fresh_dir("future");
    synthetic(&dir, 7, 100, false);
    std::fs::write(
        dir.join(MANIFEST_FILE),
        "{\"schema\": 99, \"seed\": 7, \"fault_profile\": \"none\", \"observations_digest\": \
         \"0000000000000000\", \"jobs_independent\": true}\n",
    )
    .expect("rewrite");
    match load_bundle(&dir) {
        Err(BundleError::SchemaMismatch { found, .. }) => assert_eq!(found, 99),
        other => panic!("expected SchemaMismatch, got {other:?}"),
    }
}

#[test]
fn json_report_format_is_parseable_and_complete() {
    let (da, db) = (fresh_dir("json-a"), fresh_dir("json-b"));
    synthetic(&da, 7, 100, true);
    synthetic(&db, 7, 300, false);
    let a = load_bundle(&da).expect("load a");
    let b = load_bundle(&db).expect("load b");
    let report = diff_bundles(&a, &b, &DiffOptions::default());
    let rendered = report.to_json().render();
    let parsed = Json::parse(&rendered).expect("report JSON parses");
    assert_eq!(parsed.get("clean").and_then(Json::as_bool), Some(false));
    assert!(
        parsed
            .get("regressions")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 1
    );
    assert!(!parsed
        .get("findings")
        .and_then(Json::as_arr)
        .expect("findings array")
        .is_empty());
}

/// The full loop the CI determinism job runs: a real (small) audit, traced,
/// written as a bundle, reloaded, and diffed against a second run at a
/// different worker count — must come back byte-identical and diff-clean.
#[test]
fn real_audit_bundle_round_trips_clean_across_worker_counts() {
    let run = |jobs: usize, tag: &str| {
        let config = AuditConfig::small(7).with_jobs(Some(jobs));
        write_audit(config, 7, &FaultProfile::none(), tag).0
    };
    let (da, db) = (run(1, "real-j1"), run(4, "real-j4"));
    // Byte-identical bundle files across worker counts.
    for file in FILES {
        let fa = std::fs::read(da.join(file)).expect("read a");
        let fb = std::fs::read(db.join(file)).expect("read b");
        assert_eq!(fa, fb, "{file} differs between jobs=1 and jobs=4");
    }
    // And the diff engine agrees: zero findings.
    let a = load_bundle(&da).expect("load a");
    let b = load_bundle(&db).expect("load b");
    let report = diff_bundles(&a, &b, &DiffOptions::default());
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

/// Execute `config` traced and write its bundle under `tag`; returns the
/// directory and the in-process report.
fn write_audit(
    config: AuditConfig,
    seed: u64,
    fault: &FaultProfile,
    tag: &str,
) -> (PathBuf, Report) {
    let rec = Recorder::new();
    let obs = AuditRun::execute_with(config.with_faults(fault.clone()), &rec);
    let dir = fresh_dir(tag);
    let spec = BundleSpec {
        seed,
        fault_profile: fault.name().to_string(),
        defense: None,
        campaign: None,
        observations_digest: obs.digest(),
        coverage: Some(obs.coverage.to_json()),
    };
    let report = rec.report();
    write_bundle(&dir, &spec, &report).expect("bundle write");
    (dir, report)
}

/// A paper-scale bundle decodes back into a report that re-encodes both
/// ledger documents byte for byte and yields every derived view the
/// in-process report yields, for two seeds with and without faults; and
/// `obs-diff profile` prints the folded profile the bundle no longer stores.
#[test]
#[expect(
    clippy::disallowed_types,
    reason = "the test drives the obs-diff binary as a child process"
)]
fn bundle_round_trips_through_the_ledger_decoder() {
    let views = |r: &Report| {
        let stage_work: Vec<_> = r.stages.iter().map(|s| (s.name.clone(), s.work)).collect();
        let aggs = r.aggregates.iter();
        let aggregates: Vec<_> = aggs.map(|(n, a)| (n.clone(), a.count, a.calls)).collect();
        let (summaries, histograms) = (r.work_summaries(), r.work_histograms());
        let sizes = r.alloc_sizes.clone();
        let totals = r.counter_totals();
        (
            stage_work,
            totals,
            aggregates,
            summaries,
            histograms,
            r.folded_profile(),
            sizes,
        )
    };
    for seed in [7, 1234] {
        for fault in [FaultProfile::none(), FaultProfile::flaky()] {
            let case = format!("seed {seed}, {}", fault.name());
            let tag = format!("roundtrip-{seed}-{}", fault.name());
            let (dir, report) = write_audit(AuditConfig::paper(seed), seed, &fault, &tag);
            let decoded = load_bundle(&dir).expect("bundle loads").report;
            let read = |file: &str| std::fs::read_to_string(dir.join(file)).expect("read");
            let trace = decoded.ledger_trace_json().render() + "\n";
            assert_eq!(trace, read("trace.json"), "{case}: trace.json");
            let memory = decoded.ledger_memory_json().render() + "\n";
            assert_eq!(memory, read("memory.json"), "{case}: memory.json");
            assert_eq!(views(&decoded), views(&report), "{case}");
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_obs-diff"))
                .arg("profile")
                .arg(&dir)
                .output()
                .expect("run obs-diff");
            assert_eq!(out.status.code(), Some(0), "{case}");
            assert_eq!(
                String::from_utf8_lossy(&out.stdout),
                report.folded_profile()
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
