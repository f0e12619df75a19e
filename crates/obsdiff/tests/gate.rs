//! Bench gate semantics: one test per verdict and per typed failure mode of
//! the retired `ci/bench_gate.py`, plus the median over a key's fresh runs.
//! Every fixture is written by the bench entry's own encoder; only the
//! malformed and mistyped lines are made by hand.

#![expect(
    clippy::expect_used,
    reason = "test helpers fail the test by panicking"
)]

use alexa_obs::bench::BenchEntry;
use alexa_obs::Json;
use alexa_obsdiff::{run_gate, GateError, GateReport};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static FILE_SEQ: AtomicU64 = AtomicU64::new(0);

fn bench_file(tag: &str, content: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "obsdiff-gate-{tag}-{}.json",
        FILE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, content).expect("write bench file");
    path
}

/// A fault-free seed-7 entry from a 2-thread machine taking `total_ms`,
/// with the given stage times and no allocation column.
fn entry(jobs: Option<u64>, total_ms: u64, stages: &[(&str, u64)]) -> BenchEntry {
    let stages: Vec<(String, u64)> = stages.iter().map(|&(n, v)| (n.to_string(), v)).collect();
    BenchEntry {
        seed: 7,
        jobs,
        fault_profile: "none".to_string(),
        hardware_threads: 2,
        execute_ms: total_ms,
        render_all_ms: 0,
        total_ms,
        rendered_bytes: 36392,
        stage_work: stages.iter().map(|(n, _)| (n.clone(), 0)).collect(),
        stages,
        stage_alloc: None,
    }
}

/// `entry` carrying the given per-stage allocation bytes.
fn with_alloc(e: BenchEntry, alloc: &[(&str, u64)]) -> BenchEntry {
    let alloc = alloc.iter().map(|&(n, v)| (n.to_string(), v)).collect();
    BenchEntry {
        stage_alloc: Some(alloc),
        ..e
    }
}

/// The bench file holding `entries`, one encoded line each.
fn lines(entries: &[&BenchEntry]) -> String {
    entries
        .iter()
        .map(|e| e.to_json().render() + "\n")
        .collect()
}

/// The encoded line of `e` without the field `key`.
fn line_without(e: &BenchEntry, key: &str) -> String {
    let json = e.to_json();
    let fields = json.as_obj().expect("an entry encodes as an object");
    let kept = fields.iter().filter(|(k, _)| k != key).cloned().collect();
    Json::Obj(kept).render() + "\n"
}

/// Gate `fresh` against `base` (the candidate file is `base` + `fresh`).
fn gate(tag: &str, base: &[&BenchEntry], fresh: &[&BenchEntry]) -> GateReport {
    let baseline = bench_file(&format!("{tag}-base"), &lines(base));
    let candidate = bench_file(&format!("{tag}-cand"), &(lines(base) + &lines(fresh)));
    run_gate(&baseline, &candidate).expect("gate runs")
}

const LABEL: &str = "seed=7 jobs=null hardware_threads=2";

#[test]
fn within_threshold_passes() {
    let base = entry(None, 1000, &[("avs.pass", 100)]);
    let cand = entry(None, 1200, &[("avs.pass", 120)]);
    let report = gate("pass", &[&base], &[&cand]);
    assert!(report.passed());
    let human = report.render_human();
    assert!(human.contains("bench gate passed"));
    assert!(human.contains("avs.pass: 100 ms -> 120 ms"));
}

#[test]
fn regression_beyond_threshold_fails() {
    let base = entry(None, 1000, &[]);
    let report = gate("reg", &[&base], &[&entry(None, 1400, &[])]);
    assert!(!report.passed());
    assert_eq!(report.failures, vec![LABEL.to_string()]);
    assert!(report.render_human().contains("REGRESSION"));
    // The threshold is 25%: +30% fails, +20% passes.
    assert!(!gate("reg30", &[&base], &[&entry(None, 1300, &[])]).passed());
    assert!(gate("reg20", &[&base], &[&entry(None, 1200, &[])]).passed());
}

#[test]
fn vanished_stages_fail_even_when_total_is_fine() {
    let base = entry(Some(4), 1000, &[("avs.pass", 100), ("merge", 5)]);
    let cand = entry(Some(4), 1000, &[("avs.pass", 100)]);
    let report = gate("gone", &[&base], &[&cand]);
    assert!(!report.passed());
    assert!(report.failures[0].contains("missing stages: merge"));
}

#[test]
fn fresh_entry_without_baseline_is_recorded_not_gated() {
    let base = entry(None, 1000, &[]);
    let cand = BenchEntry {
        seed: 99,
        ..entry(None, 9000, &[])
    };
    let report = gate("new", &[&base], &[&cand]);
    assert!(report.passed());
    assert!(report.render_human().contains("no committed baseline"));
}

#[test]
fn latest_committed_entry_per_key_wins() {
    // Two baseline entries for the same key: only the later (fast) one
    // gates, so a candidate near the older slow figure fails.
    let (old, new) = (entry(None, 4000, &[]), entry(None, 1000, &[]));
    let report = gate("latest", &[&old, &new], &[&entry(None, 3000, &[])]);
    assert!(!report.passed());
}

#[test]
fn unreadable_file_is_a_typed_error() {
    let cand = bench_file("unread-cand", &lines(&[&entry(None, 1000, &[])]));
    let missing =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join("obsdiff-gate-definitely-absent.json");
    match run_gate(&missing, &cand) {
        Err(GateError::Unreadable { path, .. }) => assert_eq!(path, missing),
        other => panic!("expected Unreadable, got {other:?}"),
    }
    let msg = GateError::Unreadable {
        path: missing,
        error: "x".into(),
    }
    .to_string();
    assert!(msg.contains("repro --bench"), "hint missing: {msg}");
}

#[test]
fn malformed_line_reports_its_line_number() {
    let line = lines(&[&entry(None, 1000, &[])]);
    let baseline = bench_file("mal-base", &line);
    let candidate = bench_file("mal-cand", &format!("{line}not json at all\n"));
    match run_gate(&baseline, &candidate) {
        Err(GateError::MalformedLine { line, path, .. }) => {
            assert_eq!(line, 2);
            assert_eq!(path, candidate);
        }
        other => panic!("expected MalformedLine, got {other:?}"),
    }
}

/// The decode error of gating `cand_extra` after `base`.
fn bad_entry(tag: &str, base: &str, cand_extra: &str) -> (PathBuf, PathBuf, GateError) {
    let baseline = bench_file(&format!("{tag}-base"), base);
    let candidate = bench_file(&format!("{tag}-cand"), &format!("{base}{cand_extra}"));
    let err = run_gate(&baseline, &candidate).expect_err("entry does not decode");
    (baseline, candidate, err)
}

#[test]
fn missing_total_ms_names_the_offending_side() {
    // The fresh entry lacks total_ms: the candidate file, its line 2.
    let e = entry(None, 1000, &[]);
    let (_, candidate, err) = bad_entry("nototal", &lines(&[&e]), &line_without(&e, "total_ms"));
    assert_eq!(
        err,
        GateError::BadEntry {
            path: candidate.clone(),
            line: 2,
            detail: "total_ms: missing or mistyped".into()
        }
    );
    let msg = err.to_string();
    assert!(
        msg.starts_with(&format!("{}:2: ", candidate.display())),
        "{msg}"
    );
    assert!(msg.contains("total_ms"), "{msg}");
    // The baseline entry lacks it: the baseline file, its line 1.
    let (baseline, _, err) = bad_entry("nototal2", &line_without(&e, "total_ms"), &lines(&[&e]));
    match err {
        GateError::BadEntry { path, line, detail } => {
            assert_eq!((path, line), (baseline, 1));
            assert!(detail.starts_with("total_ms"), "{detail}");
        }
        other => panic!("expected BadEntry, got {other:?}"),
    }
}

#[test]
fn no_fresh_entries_is_a_typed_error() {
    let content = lines(&[&entry(None, 1000, &[])]);
    let baseline = bench_file("nofresh-base", &content);
    let candidate = bench_file("nofresh-cand", &content);
    match run_gate(&baseline, &candidate) {
        Err(GateError::NoFreshEntries) => {}
        other => panic!("expected NoFreshEntries, got {other:?}"),
    }
}

#[test]
fn gated_stage_regression_fails_even_when_total_is_fine() {
    // render.all triples while total_ms stays flat (other stages absorbed
    // the difference): the per-stage gate must still fail.
    let base = entry(
        Some(1),
        1000,
        &[("render.all", 100), ("persona.shards", 900)],
    );
    let cand = entry(
        Some(1),
        1000,
        &[("render.all", 300), ("persona.shards", 700)],
    );
    let report = gate("stage", &[&base], &[&cand]);
    assert!(!report.passed());
    assert!(
        report.failures[0].contains("stage render.all"),
        "{:?}",
        report.failures
    );
    assert!(report
        .render_human()
        .contains("render.all: 100 ms -> 300 ms REGRESSION"));
    // Non-gated stages may swing freely: keep the gated ones, triple another.
    let base2 = entry(Some(1), 1000, &[("render.all", 100), ("merge", 900)]);
    let cand2 = entry(Some(1), 1000, &[("render.all", 100), ("merge", 2700)]);
    assert!(gate("stage2", &[&base2], &[&cand2]).passed());
}

fn entry_with_bytes(total_ms: u64, rendered_bytes: u64) -> BenchEntry {
    BenchEntry {
        rendered_bytes,
        ..entry(Some(1), total_ms, &[])
    }
}

#[test]
fn rendered_bytes_mismatch_fails_with_its_own_json_field() {
    let base = entry_with_bytes(1000, 36392);
    let report = gate("bytes", &[&base], &[&entry_with_bytes(1000, 36400)]);
    assert!(!report.passed());
    assert!(report.failures.is_empty(), "not a timing failure");
    assert_eq!(
        report.byte_mismatches,
        vec!["seed=7 jobs=1 hardware_threads=2".to_string()]
    );
    assert!(report
        .render_human()
        .contains("rendered_bytes changed: 36392 -> 36400"));
    let parsed = Json::parse(&report.to_json().render()).expect("parses");
    assert_eq!(parsed.get("passed").and_then(Json::as_bool), Some(false));
    assert_eq!(
        parsed
            .get("rendered_bytes_mismatches")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(1)
    );
}

#[test]
fn rendered_bytes_equal_passes() {
    let base = entry_with_bytes(1000, 36392);
    assert!(gate("byteseq", &[&base], &[&entry_with_bytes(1100, 36392)]).passed());
}

#[test]
fn rendered_bytes_on_one_side_only_is_a_typed_error() {
    // Every entry records rendered_bytes, so an entry without it does not
    // decode, on either side: a typed error naming the line and the field
    // rather than a silent skip.
    let e = entry_with_bytes(1000, 36392);
    let (baseline, _, err) = bad_entry(
        "byteshalf",
        &line_without(&e, "rendered_bytes"),
        &lines(&[&e]),
    );
    assert_eq!(
        err,
        GateError::BadEntry {
            path: baseline,
            line: 1,
            detail: "rendered_bytes: missing or mistyped".into()
        }
    );
    assert!(err.to_string().contains("rendered_bytes"), "{err}");
}

#[test]
fn json_format_carries_verdict_failures_and_log() {
    let base = entry(Some(2), 1000, &[]);
    let report = gate("json", &[&base], &[&entry(Some(2), 2000, &[])]);
    let parsed = Json::parse(&report.to_json().render()).expect("parses");
    assert_eq!(parsed.get("passed").and_then(Json::as_bool), Some(false));
    assert_eq!(parsed.get("threshold").and_then(Json::as_f64), Some(0.25));
    assert_eq!(
        parsed.get("alloc_threshold").and_then(Json::as_f64),
        Some(0.10)
    );
    assert_eq!(
        parsed
            .get("failures")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(1)
    );
    assert!(!parsed
        .get("log")
        .and_then(Json::as_arr)
        .expect("log array")
        .is_empty());
}

/// A jobs-1 entry carrying `render.all` and `merge` allocation bytes.
fn entry_with_alloc(total_ms: u64, render_alloc: u64, merge_alloc: u64) -> BenchEntry {
    let stages = [("render.all", 10), ("merge", 1)];
    let alloc = [("render.all", render_alloc), ("merge", merge_alloc)];
    with_alloc(entry(Some(1), total_ms, &stages), &alloc)
}

#[test]
fn alloc_regression_on_gated_stage_fails() {
    // render.all allocation grows 20% — beyond the 10% alloc gate — while
    // wall-clock is unchanged. The gate must fail on the alloc axis alone.
    let base = entry_with_alloc(1000, 1_000_000, 500);
    let report = gate(
        "alloc-reg",
        &[&base],
        &[&entry_with_alloc(1000, 1_200_000, 500)],
    );
    assert!(!report.passed());
    assert_eq!(report.failures.len(), 1);
    assert!(
        report.failures[0].contains("stage render.all alloc +20.0%"),
        "{:?}",
        report.failures
    );
    assert!(report
        .render_human()
        .contains("render.all: 1000000 B -> 1200000 B allocated REGRESSION"));
    // The alloc threshold is 10%: +11% fails, +9% passes.
    let grown = |bytes| {
        gate(
            "alloc-edge",
            &[&base],
            &[&entry_with_alloc(1000, bytes, 500)],
        )
    };
    assert!(!grown(1_110_000).passed());
    assert!(grown(1_090_000).passed());
}

#[test]
fn persona_shards_alloc_regression_fails() {
    // The crawl's lean records are held by the alloc gate: a synthetic +20%
    // persona.shards allocation fails at the 10% threshold on its own.
    let alloc_entry = |persona_alloc: u64| {
        let stages = [("persona.shards", 60), ("render.all", 40)];
        let alloc = [
            ("persona.shards", persona_alloc),
            ("render.all", 30_000_000),
        ];
        with_alloc(entry(Some(8), 150, &stages), &alloc)
    };
    let base = alloc_entry(21_000_000);
    let report = gate("persona-alloc", &[&base], &[&alloc_entry(25_200_000)]);
    assert!(!report.passed());
    assert_eq!(
        report.failures,
        vec!["seed=7 jobs=8 hardware_threads=2 (stage persona.shards alloc +20.0%)".to_string()]
    );
    assert!(report
        .render_human()
        .contains("persona.shards: 21000000 B -> 25200000 B allocated REGRESSION"));
}

#[test]
fn alloc_growth_within_threshold_passes_and_is_logged() {
    let base = entry_with_alloc(1000, 1_000_000, 500);
    let report = gate(
        "alloc-ok",
        &[&base],
        &[&entry_with_alloc(1000, 1_050_000, 500)],
    );
    assert!(report.passed());
    assert!(report
        .render_human()
        .contains("render.all: 1000000 B -> 1050000 B allocated"));
}

#[test]
fn alloc_regression_on_ungated_stage_is_logged_not_gated() {
    // merge is not a gated stage: even a 10x allocation jump only logs.
    let base = entry_with_alloc(1000, 1_000_000, 500);
    let report = gate(
        "alloc-ungated",
        &[&base],
        &[&entry_with_alloc(1000, 1_000_000, 5000)],
    );
    assert!(report.passed());
    assert!(report
        .render_human()
        .contains("merge: 500 B -> 5000 B allocated"));
}

#[test]
fn entries_without_stage_alloc_are_tolerated() {
    // The oldest committed entries predate the allocation meter and carry
    // no `stage_alloc`: they decode with no allocation baseline.
    let base = entry(Some(1), 1000, &[("render.all", 10)]);
    let report = gate(
        "alloc-miss",
        &[&base],
        &[&entry_with_alloc(1000, 1_000_000, 500)],
    );
    assert!(report.passed());
}

/// A jobs-1 entry stamped with the hardware threads it ran on, carrying a
/// gated stage's wall time and allocation bytes.
fn entry_on(hw: u64, total_ms: u64, render_alloc: u64) -> BenchEntry {
    let e = entry(Some(1), total_ms, &[("render.all", total_ms)]);
    BenchEntry {
        hardware_threads: hw,
        ..with_alloc(e, &[("render.all", render_alloc)])
    }
}

#[test]
fn time_compares_only_entries_from_the_same_hardware_threads() {
    // The later committed entry comes from another machine: a fresh entry
    // from the first machine is timed against its own, not the latest one.
    let (one, two) = (entry_on(1, 1000, 500), entry_on(2, 100, 500));
    let report = gate("hw-same", &[&one, &two], &[&entry_on(1, 1100, 500)]);
    assert!(report.passed(), "{:?}", report.failures);
    assert!(report.incomparable.is_empty());
    assert!(report.render_human().contains("1000 ms -> 1100 ms"));
}

#[test]
fn fresh_entry_from_other_hardware_threads_is_incomparable_for_time() {
    // Ten times slower, but on a machine with no committed entry: the time
    // is reported incomparable rather than judged.
    let report = gate(
        "hw-other",
        &[&entry_on(2, 100, 500)],
        &[&entry_on(4, 1000, 500)],
    );
    assert!(report.passed(), "{:?}", report.failures);
    assert_eq!(
        report.incomparable,
        vec!["seed=7 jobs=1 hardware_threads=4".to_string()]
    );
    assert!(report.render_human().contains("no comparable baseline"));
    let parsed = Json::parse(&report.to_json().render()).expect("parses");
    assert_eq!(
        parsed
            .get("no_comparable_baseline")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(1)
    );
}

#[test]
fn alloc_regression_from_other_hardware_threads_still_fails() {
    // Allocation bytes do not depend on the machine: an incomparable time
    // does not let a +20% gated-stage allocation through.
    let report = gate(
        "hw-alloc",
        &[&entry_on(2, 100, 1_000_000)],
        &[&entry_on(4, 100, 1_200_000)],
    );
    assert!(!report.passed());
    assert_eq!(
        report.failures,
        vec!["seed=7 jobs=1 hardware_threads=4 (stage render.all alloc +20.0%)".to_string()]
    );
    assert_eq!(report.incomparable.len(), 1);
}

/// A jobs-1 entry under a fault profile, carrying `persona.shards` time
/// and allocation bytes.
fn entry_under(fault: &str, total_ms: u64, persona_alloc: u64) -> BenchEntry {
    let e = entry(Some(1), total_ms, &[("persona.shards", total_ms)]);
    BenchEntry {
        fault_profile: fault.to_string(),
        ..with_alloc(e, &[("persona.shards", persona_alloc)])
    }
}

#[test]
fn faulted_entry_is_never_compared_with_a_fault_free_baseline() {
    // Only fault-free baselines, one without the field (absent = "none")
    // and one explicit: a flaky entry twice as slow with half again the
    // allocation has no baseline, so nothing about it is judged.
    let none = entry_under("none", 100, 1_000_000);
    let base = line_without(&none, "fault_profile") + &lines(&[&none]);
    let baseline = bench_file("fault-none-base", &base);
    let fresh = lines(&[&entry_under("flaky", 200, 1_500_000)]);
    let candidate = bench_file("fault-none-cand", &(base + &fresh));
    let report = run_gate(&baseline, &candidate).expect("gate runs");
    assert!(report.passed(), "{:?}", report.failures);
    assert!(report
        .render_human()
        .contains("seed=7 jobs=1 fault=flaky hardware_threads=2: no committed baseline"));
}

#[test]
fn faulted_entries_gate_against_their_own_profile() {
    // The latest committed entry is fault-free and fast; the flaky entry is
    // timed and alloc-gated against the older flaky one.
    let base = [
        &entry_under("flaky", 200, 1_000_000),
        &entry_under("none", 100, 500_000),
    ];
    let report = gate(
        "fault-own-ok",
        &base,
        &[&entry_under("flaky", 210, 1_000_000)],
    );
    assert!(report.passed(), "{:?}", report.failures);
    assert!(report.render_human().contains("200 ms -> 210 ms"));

    let report = gate(
        "fault-own-slow",
        &base,
        &[&entry_under("flaky", 300, 1_200_000)],
    );
    assert!(!report.passed());
    assert!(report
        .failures
        .iter()
        .any(|f| f.contains("fault=flaky") && f.contains("persona.shards alloc +20.0%")));
}

#[test]
fn absent_fault_profile_gates_as_none() {
    // A fresh fault-free entry recording the field matches an old entry
    // without it, and is not compared with the flaky entry committed later.
    let old = line_without(&entry_under("none", 100, 500), "fault_profile");
    let base = old + &lines(&[&entry_under("flaky", 400, 500)]);
    let baseline = bench_file("fault-absent-base", &base);
    let fresh = lines(&[&entry_under("none", 150, 500)]);
    let candidate = bench_file("fault-absent-cand", &(base + &fresh));
    let report = run_gate(&baseline, &candidate).expect("gate runs");
    assert_eq!(
        report.failures,
        vec![
            "seed=7 jobs=1 hardware_threads=2 (stage persona.shards +50.0%)".to_string(),
            "seed=7 jobs=1 hardware_threads=2".to_string()
        ]
    );
    assert!(report.render_human().contains("100 ms -> 150 ms"));
}

/// A jobs-1 entry whose `render.all` takes `render_ms` of `total_ms`.
fn timed(total_ms: u64, render_ms: u64) -> BenchEntry {
    entry(
        Some(1),
        total_ms,
        &[("render.all", render_ms), ("avs.pass", 10)],
    )
}

#[test]
fn one_noisy_run_of_three_passes() {
    // The second of three fresh runs is 50% slower in total and in
    // render.all; the medians are the baseline's figures.
    let base = timed(1000, 100);
    let fresh = [&timed(1000, 100), &timed(1500, 150), &timed(1010, 100)];
    let report = gate("noisy", &[&base], &fresh);
    assert!(report.passed(), "{:?}", report.failures);
    let human = report.render_human();
    assert!(
        human.contains("1000 ms -> 1010 ms (+1.0% vs baseline, median of 3) ok"),
        "{human}"
    );
    assert!(human.contains("render.all: 100 ms -> 100 ms"), "{human}");
}

#[test]
fn three_runs_all_slower_fail() {
    // Every run is 30% slower: the median is too, in total and in
    // render.all, so the key fails on both.
    let base = timed(1000, 100);
    let fresh = [&timed(1300, 130), &timed(1310, 131), &timed(1320, 130)];
    let report = gate("shift", &[&base], &fresh);
    assert_eq!(
        report.failures,
        vec![
            "seed=7 jobs=1 hardware_threads=2 (stage render.all +30.0%)".to_string(),
            "seed=7 jobs=1 hardware_threads=2".to_string()
        ]
    );
    // A +30% render.all under a flat total still fails on the stage.
    let fresh = [&timed(1000, 130), &timed(1000, 130), &timed(1000, 130)];
    let report = gate("shift-stage", &[&base], &fresh);
    assert_eq!(
        report.failures,
        vec!["seed=7 jobs=1 hardware_threads=2 (stage render.all +30.0%)".to_string()]
    );
}

#[test]
fn an_even_count_takes_the_lower_middle_run() {
    let base = timed(1000, 100);
    let report = gate("even", &[&base], &[&timed(1500, 150), &timed(1000, 100)]);
    assert!(report.passed(), "{:?}", report.failures);
    assert!(report.render_human().contains("median of 2"));
}

#[test]
fn a_single_fresh_run_is_gated_alone() {
    // One fresh run is its own median: +30% fails as it always did.
    let base = timed(1000, 100);
    let report = gate("single", &[&base], &[&timed(1300, 100)]);
    assert_eq!(
        report.failures,
        vec!["seed=7 jobs=1 hardware_threads=2".to_string()]
    );
    assert!(!report.render_human().contains("median of"));
}

#[test]
fn deterministic_columns_are_checked_on_every_fresh_run() {
    // A median cannot hide a changed output: one run of three renders other
    // bytes and allocates 20% more in render.all.
    let base = with_alloc(timed(1000, 100), &[("render.all", 1_000_000)]);
    let odd = BenchEntry {
        rendered_bytes: 1,
        ..with_alloc(timed(1000, 100), &[("render.all", 1_200_000)])
    };
    let report = gate("every-run", &[&base], &[&base, &odd, &base]);
    assert_eq!(report.byte_mismatches.len(), 1);
    assert_eq!(
        report.failures,
        vec!["seed=7 jobs=1 hardware_threads=2 (stage render.all alloc +20.0%)".to_string()]
    );
}

/// `BENCH_audit.json` as committed at the repository root.
fn committed() -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_audit.json");
    let text = std::fs::read_to_string(&path).expect("read BENCH_audit.json");
    (path, text)
}

#[test]
fn every_committed_bench_line_decodes_and_current_lines_round_trip() {
    let (path, text) = committed();
    let decoded: Vec<(&str, BenchEntry)> = text
        .lines()
        .map(|line| {
            let json = Json::parse(line).expect("a JSON line");
            (line, BenchEntry::from_json(&json).expect("a bench entry"))
        })
        .collect();
    assert!(decoded.len() >= 19, "{} lines", decoded.len());
    for (n, (line, entry)) in decoded.iter().enumerate() {
        let n = n + 1;
        // Lines 1-4 predate the allocation meter, 1-14 the fault profile.
        assert_eq!(entry.stage_alloc.is_some(), n > 4, "line {n}");
        if n <= 14 {
            assert_eq!(entry.fault_profile, "none", "line {n}");
        }
        // From line 15 on every line has the current shape.
        if n >= 15 {
            assert_eq!(entry.to_json().render(), *line, "line {n}");
        }
    }
    // The gate reads the whole committed file on both sides.
    let fresh = decoded.last().map(|(_, e)| lines(&[e])).expect("entries");
    let candidate = bench_file("committed-cand", &format!("{text}{fresh}"));
    let report = run_gate(&path, &candidate).expect("committed lines decode");
    assert!(report.passed(), "{:?}", report.failures);
}
