//! Bench gate semantics: one test per verdict and per typed failure mode of
//! the retired `ci/bench_gate.py`.

#![expect(
    clippy::expect_used,
    reason = "test helpers fail the test by panicking"
)]

use alexa_obsdiff::{run_gate, GateError};
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

fn entry(seed: u64, jobs: &str, total_ms: u64, stages: &str) -> String {
    format!(
        "{{\"seed\": {seed}, \"jobs\": {jobs}, \"total_ms\": {total_ms}, \"stages\": {{{stages}}}}}\n"
    )
}

#[test]
fn within_threshold_passes() {
    let base = entry(7, "null", 1000, "\"avs.pass\": 100");
    let cand = format!("{base}{}", entry(7, "null", 1200, "\"avs.pass\": 120"));
    let baseline = bench_file("pass-base", &base);
    let candidate = bench_file("pass-cand", &cand);
    let report = run_gate(&baseline, &candidate, 0.25, 0.10).expect("gate runs");
    assert!(report.passed());
    let human = report.render_human();
    assert!(human.contains("bench gate passed"));
    assert!(human.contains("avs.pass: 100 ms -> 120 ms"));
}

#[test]
fn regression_beyond_threshold_fails() {
    let base = entry(7, "null", 1000, "");
    let cand = format!("{base}{}", entry(7, "null", 1400, ""));
    let baseline = bench_file("reg-base", &base);
    let candidate = bench_file("reg-cand", &cand);
    let report = run_gate(&baseline, &candidate, 0.25, 0.10).expect("gate runs");
    assert!(!report.passed());
    assert_eq!(report.failures, vec!["seed=7 jobs=null".to_string()]);
    assert!(report.render_human().contains("REGRESSION"));
    // A looser threshold lets the same pair through.
    assert!(run_gate(&baseline, &candidate, 0.50, 0.10)
        .expect("gate runs")
        .passed());
}

#[test]
fn vanished_stages_fail_even_when_total_is_fine() {
    let base = entry(7, "4", 1000, "\"avs.pass\": 100, \"merge\": 5");
    let cand = format!("{base}{}", entry(7, "4", 1000, "\"avs.pass\": 100"));
    let baseline = bench_file("gone-base", &base);
    let candidate = bench_file("gone-cand", &cand);
    let report = run_gate(&baseline, &candidate, 0.25, 0.10).expect("gate runs");
    assert!(!report.passed());
    assert!(report.failures[0].contains("missing stages: merge"));
}

#[test]
fn fresh_entry_without_baseline_is_recorded_not_gated() {
    let base = entry(7, "null", 1000, "");
    let cand = format!("{base}{}", entry(99, "null", 9000, ""));
    let baseline = bench_file("new-base", &base);
    let candidate = bench_file("new-cand", &cand);
    let report = run_gate(&baseline, &candidate, 0.25, 0.10).expect("gate runs");
    assert!(report.passed());
    assert!(report.render_human().contains("no committed baseline"));
}

#[test]
fn latest_committed_entry_per_key_wins() {
    // Two baseline entries for the same key: only the later (fast) one
    // gates, so a candidate near the older slow figure fails.
    let base = format!(
        "{}{}",
        entry(7, "null", 4000, ""),
        entry(7, "null", 1000, "")
    );
    let cand = format!("{base}{}", entry(7, "null", 3000, ""));
    let baseline = bench_file("latest-base", &base);
    let candidate = bench_file("latest-cand", &cand);
    let report = run_gate(&baseline, &candidate, 0.25, 0.10).expect("gate runs");
    assert!(!report.passed());
}

#[test]
fn unreadable_file_is_a_typed_error() {
    let cand = bench_file("unread-cand", &entry(7, "null", 1000, ""));
    let missing =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join("obsdiff-gate-definitely-absent.json");
    match run_gate(&missing, &cand, 0.25, 0.10) {
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
    let baseline = bench_file("mal-base", &entry(7, "null", 1000, ""));
    let candidate = bench_file(
        "mal-cand",
        &format!("{}\nnot json at all\n", entry(7, "null", 1000, "").trim()),
    );
    match run_gate(&baseline, &candidate, 0.25, 0.10) {
        Err(GateError::MalformedLine { line, path, .. }) => {
            assert_eq!(line, 2);
            assert_eq!(path, candidate);
        }
        other => panic!("expected MalformedLine, got {other:?}"),
    }
}

#[test]
fn missing_total_ms_names_the_offending_side() {
    // Fresh entry lacks total_ms.
    let base = entry(7, "null", 1000, "");
    let cand = format!("{base}{{\"seed\": 7, \"jobs\": null}}\n");
    let baseline = bench_file("nototal-base", &base);
    let candidate = bench_file("nototal-cand", &cand);
    match run_gate(&baseline, &candidate, 0.25, 0.10) {
        Err(GateError::MissingTotalMs { what, keys, .. }) => {
            assert_eq!(what, "fresh");
            assert_eq!(keys, vec!["seed".to_string(), "jobs".to_string()]);
        }
        other => panic!("expected MissingTotalMs, got {other:?}"),
    }
    // Baseline entry lacks total_ms.
    let base2 = "{\"seed\": 7, \"jobs\": null}\n".to_string();
    let cand2 = format!("{base2}{}", entry(7, "null", 1000, ""));
    let baseline2 = bench_file("nototal-base2", &base2);
    let candidate2 = bench_file("nototal-cand2", &cand2);
    match run_gate(&baseline2, &candidate2, 0.25, 0.10) {
        Err(GateError::MissingTotalMs { what, .. }) => assert_eq!(what, "baseline"),
        other => panic!("expected MissingTotalMs, got {other:?}"),
    }
}

#[test]
fn no_fresh_entries_is_a_typed_error() {
    let content = entry(7, "null", 1000, "");
    let baseline = bench_file("nofresh-base", &content);
    let candidate = bench_file("nofresh-cand", &content);
    match run_gate(&baseline, &candidate, 0.25, 0.10) {
        Err(GateError::NoFreshEntries) => {}
        other => panic!("expected NoFreshEntries, got {other:?}"),
    }
}

#[test]
fn gated_stage_regression_fails_even_when_total_is_fine() {
    // render.all triples while total_ms stays flat (other stages absorbed
    // the difference): the per-stage gate must still fail.
    let base = entry(7, "1", 1000, "\"render.all\": 100, \"persona.shards\": 900");
    let cand = format!(
        "{base}{}",
        entry(7, "1", 1000, "\"render.all\": 300, \"persona.shards\": 700")
    );
    let baseline = bench_file("stage-base", &base);
    let candidate = bench_file("stage-cand", &cand);
    let report = run_gate(&baseline, &candidate, 0.25, 0.10).expect("gate runs");
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
    let base2 = entry(7, "1", 1000, "\"render.all\": 100, \"avs.pass\": 900");
    let baseline2 = bench_file("stage-base2", &base2);
    let cand2 = format!(
        "{base2}{}",
        entry(7, "1", 1000, "\"render.all\": 100, \"avs.pass\": 2700")
    );
    let candidate2 = bench_file("stage-cand2", &cand2);
    assert!(run_gate(&baseline2, &candidate2, 0.25, 0.10)
        .expect("gate runs")
        .passed());
}

fn entry_with_bytes(seed: u64, total_ms: u64, bytes: u64) -> String {
    format!("{{\"seed\": {seed}, \"jobs\": 1, \"total_ms\": {total_ms}, \"rendered_bytes\": {bytes}, \"stages\": {{}}}}\n")
}

#[test]
fn rendered_bytes_mismatch_fails_with_its_own_json_field() {
    use alexa_obs::Json;
    let base = entry_with_bytes(7, 1000, 36392);
    let cand = format!("{base}{}", entry_with_bytes(7, 1000, 36400));
    let baseline = bench_file("bytes-base", &base);
    let candidate = bench_file("bytes-cand", &cand);
    let report = run_gate(&baseline, &candidate, 0.25, 0.10).expect("gate runs");
    assert!(!report.passed());
    assert!(report.failures.is_empty(), "not a timing failure");
    assert_eq!(report.byte_mismatches, vec!["seed=7 jobs=1".to_string()]);
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
    let base = entry_with_bytes(7, 1000, 36392);
    let cand = format!("{base}{}", entry_with_bytes(7, 1100, 36392));
    let baseline = bench_file("byteseq-base", &base);
    let candidate = bench_file("byteseq-cand", &cand);
    assert!(run_gate(&baseline, &candidate, 0.25, 0.10)
        .expect("gate runs")
        .passed());
}

#[test]
fn rendered_bytes_on_one_side_only_is_a_typed_error() {
    // Baseline predates the field, candidate carries it: typed error naming
    // the incomplete side rather than a silent skip.
    let base = entry(7, "1", 1000, "");
    let cand = format!("{base}{}", entry_with_bytes(7, 1000, 36392));
    let baseline = bench_file("byteshalf-base", &base);
    let candidate = bench_file("byteshalf-cand", &cand);
    match run_gate(&baseline, &candidate, 0.25, 0.10) {
        Err(GateError::MissingRenderedBytes { what, .. }) => assert_eq!(what, "baseline"),
        other => panic!("expected MissingRenderedBytes, got {other:?}"),
    }
    let msg = GateError::MissingRenderedBytes {
        path: std::path::PathBuf::from("x"),
        what: "baseline",
        keys: vec![],
    }
    .to_string();
    assert!(msg.contains("rendered_bytes"), "{msg}");
}

#[test]
fn json_format_carries_verdict_failures_and_log() {
    use alexa_obs::Json;
    let base = entry(7, "2", 1000, "");
    let cand = format!("{base}{}", entry(7, "2", 2000, ""));
    let baseline = bench_file("json-base", &base);
    let candidate = bench_file("json-cand", &cand);
    let report = run_gate(&baseline, &candidate, 0.25, 0.10).expect("gate runs");
    let parsed = Json::parse(&report.to_json().render()).expect("parses");
    assert_eq!(parsed.get("passed").and_then(Json::as_bool), Some(false));
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

/// A bench entry carrying a `stage_alloc` map (deterministic allocation
/// bytes per stage) alongside the wall-clock stages.
fn entry_with_alloc(seed: u64, total_ms: u64, render_alloc: u64, merge_alloc: u64) -> String {
    format!(
        "{{\"seed\": {seed}, \"jobs\": 1, \"total_ms\": {total_ms}, \
         \"stages\": {{\"render.all\": 10, \"merge\": 1}}, \
         \"stage_alloc\": {{\"render.all\": {render_alloc}, \"merge\": {merge_alloc}}}}}\n"
    )
}

#[test]
fn alloc_regression_on_gated_stage_fails() {
    // render.all allocation grows 20% — beyond the 10% alloc gate — while
    // wall-clock is unchanged. The gate must fail on the alloc axis alone.
    let base = entry_with_alloc(7, 1000, 1_000_000, 500);
    let cand = format!("{base}{}", entry_with_alloc(7, 1000, 1_200_000, 500));
    let baseline = bench_file("alloc-reg-base", &base);
    let candidate = bench_file("alloc-reg-cand", &cand);
    let report = run_gate(&baseline, &candidate, 0.25, 0.10).expect("gate runs");
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
    // A looser alloc threshold lets the same pair through.
    assert!(run_gate(&baseline, &candidate, 0.25, 0.30)
        .expect("gate runs")
        .passed());
}

#[test]
fn persona_shards_alloc_regression_fails() {
    // The crawl's lean records are held by the alloc gate: a synthetic +20%
    // persona.shards allocation fails at the 10% threshold on its own.
    let alloc_entry = |persona_alloc: u64| {
        format!(
            "{{\"seed\": 7, \"jobs\": 8, \"total_ms\": 150, \
             \"stages\": {{\"persona.shards\": 60, \"render.all\": 40}}, \
             \"stage_alloc\": {{\"persona.shards\": {persona_alloc}, \"render.all\": 30000000}}}}\n"
        )
    };
    let base = alloc_entry(21_000_000);
    let cand = format!("{base}{}", alloc_entry(25_200_000));
    let baseline = bench_file("persona-alloc-base", &base);
    let candidate = bench_file("persona-alloc-cand", &cand);
    let report = run_gate(&baseline, &candidate, 0.25, 0.10).expect("gate runs");
    assert!(!report.passed());
    assert_eq!(
        report.failures,
        vec!["seed=7 jobs=8 (stage persona.shards alloc +20.0%)".to_string()]
    );
    assert!(report
        .render_human()
        .contains("persona.shards: 21000000 B -> 25200000 B allocated REGRESSION"));
}

#[test]
fn alloc_growth_within_threshold_passes_and_is_logged() {
    let base = entry_with_alloc(7, 1000, 1_000_000, 500);
    let cand = format!("{base}{}", entry_with_alloc(7, 1000, 1_050_000, 500));
    let baseline = bench_file("alloc-ok-base", &base);
    let candidate = bench_file("alloc-ok-cand", &cand);
    let report = run_gate(&baseline, &candidate, 0.25, 0.10).expect("gate runs");
    assert!(report.passed());
    assert!(report
        .render_human()
        .contains("render.all: 1000000 B -> 1050000 B allocated"));
}

#[test]
fn alloc_regression_on_ungated_stage_is_logged_not_gated() {
    // merge is not in GATED_STAGES: even a 10x allocation jump only logs.
    let base = entry_with_alloc(7, 1000, 1_000_000, 500);
    let cand = format!("{base}{}", entry_with_alloc(7, 1000, 1_000_000, 5000));
    let baseline = bench_file("alloc-ungated-base", &base);
    let candidate = bench_file("alloc-ungated-cand", &cand);
    let report = run_gate(&baseline, &candidate, 0.25, 0.10).expect("gate runs");
    assert!(report.passed());
    assert!(report
        .render_human()
        .contains("merge: 500 B -> 5000 B allocated"));
}

#[test]
fn entries_without_stage_alloc_are_tolerated() {
    // Committed baselines that predate the memory plane carry no
    // `stage_alloc`; the gate must not demand it the way it demands
    // `rendered_bytes`.
    let base = entry(7, "1", 1000, "\"render.all\": 10");
    let cand = format!("{base}{}", entry_with_alloc(7, 1000, 1_000_000, 500));
    let baseline = bench_file("alloc-miss-base", &base);
    let candidate = bench_file("alloc-miss-cand", &cand);
    let report = run_gate(&baseline, &candidate, 0.25, 0.10).expect("gate runs");
    assert!(report.passed());
}

/// A bench entry stamped with the hardware threads it ran on, carrying a
/// gated stage's wall time and allocation bytes.
fn entry_on(hw: u64, total_ms: u64, render_alloc: u64) -> String {
    format!(
        "{{\"seed\": 7, \"jobs\": 1, \"hardware_threads\": {hw}, \"total_ms\": {total_ms}, \
         \"stages\": {{\"render.all\": {total_ms}}}, \
         \"stage_alloc\": {{\"render.all\": {render_alloc}}}}}\n"
    )
}

#[test]
fn time_compares_only_entries_from_the_same_hardware_threads() {
    // The later committed entry comes from another machine: a fresh entry
    // from the first machine is timed against its own, not the latest one.
    let base = format!("{}{}", entry_on(1, 1000, 500), entry_on(2, 100, 500));
    let cand = format!("{base}{}", entry_on(1, 1100, 500));
    let baseline = bench_file("hw-same-base", &base);
    let candidate = bench_file("hw-same-cand", &cand);
    let report = run_gate(&baseline, &candidate, 0.25, 0.10).expect("gate runs");
    assert!(report.passed(), "{:?}", report.failures);
    assert!(report.incomparable.is_empty());
    assert!(report.render_human().contains("1000 ms -> 1100 ms"));
}

#[test]
fn fresh_entry_from_other_hardware_threads_is_incomparable_for_time() {
    // Ten times slower, but on a machine with no committed entry: the time
    // is reported incomparable rather than judged.
    let base = entry_on(2, 100, 500);
    let cand = format!("{base}{}", entry_on(4, 1000, 500));
    let baseline = bench_file("hw-other-base", &base);
    let candidate = bench_file("hw-other-cand", &cand);
    let report = run_gate(&baseline, &candidate, 0.25, 0.10).expect("gate runs");
    assert!(report.passed(), "{:?}", report.failures);
    assert_eq!(
        report.incomparable,
        vec!["seed=7 jobs=1 hardware_threads=4".to_string()]
    );
    assert!(report.render_human().contains("no comparable baseline"));
    let parsed = alexa_obs::Json::parse(&report.to_json().render()).expect("parses");
    assert_eq!(
        parsed
            .get("no_comparable_baseline")
            .and_then(alexa_obs::Json::as_arr)
            .map(<[alexa_obs::Json]>::len),
        Some(1)
    );
}

#[test]
fn alloc_regression_from_other_hardware_threads_still_fails() {
    // Allocation bytes do not depend on the machine: an incomparable time
    // does not let a +20% gated-stage allocation through.
    let base = entry_on(2, 100, 1_000_000);
    let cand = format!("{base}{}", entry_on(4, 100, 1_200_000));
    let baseline = bench_file("hw-alloc-base", &base);
    let candidate = bench_file("hw-alloc-cand", &cand);
    let report = run_gate(&baseline, &candidate, 0.25, 0.10).expect("gate runs");
    assert!(!report.passed());
    assert_eq!(
        report.failures,
        vec!["seed=7 jobs=1 hardware_threads=4 (stage render.all alloc +20.0%)".to_string()]
    );
    assert_eq!(report.incomparable.len(), 1);
}

/// A bench entry under a fault profile; `None` writes no `fault_profile`
/// field, as entries from before the field did.
fn entry_under(fault: Option<&str>, total_ms: u64, persona_alloc: u64) -> String {
    let fault = fault.map_or_else(String::new, |f| format!("\"fault_profile\": \"{f}\", "));
    format!(
        "{{\"seed\": 7, \"jobs\": 1, {fault}\"hardware_threads\": 2, \
         \"total_ms\": {total_ms}, \"stages\": {{\"persona.shards\": {total_ms}}}, \
         \"stage_alloc\": {{\"persona.shards\": {persona_alloc}}}}}\n"
    )
}

#[test]
fn faulted_entry_is_never_compared_with_a_fault_free_baseline() {
    // Only fault-free baselines, one without the field (absent = "none")
    // and one explicit: a flaky entry twice as slow with half again the
    // allocation has no baseline, so nothing about it is judged.
    let base = format!(
        "{}{}",
        entry_under(None, 100, 1_000_000),
        entry_under(Some("none"), 100, 1_000_000)
    );
    let cand = format!("{base}{}", entry_under(Some("flaky"), 200, 1_500_000));
    let baseline = bench_file("fault-none-base", &base);
    let candidate = bench_file("fault-none-cand", &cand);
    let report = run_gate(&baseline, &candidate, 0.25, 0.10).expect("gate runs");
    assert!(report.passed(), "{:?}", report.failures);
    assert!(report
        .render_human()
        .contains("seed=7 jobs=1 fault=flaky hardware_threads=2: no committed baseline"));
}

#[test]
fn faulted_entries_gate_against_their_own_profile() {
    // The latest committed entry is fault-free and fast; the flaky entry is
    // timed and alloc-gated against the older flaky one.
    let base = format!(
        "{}{}",
        entry_under(Some("flaky"), 200, 1_000_000),
        entry_under(Some("none"), 100, 500_000)
    );
    let baseline = bench_file("fault-own-base", &base);
    let ok = format!("{base}{}", entry_under(Some("flaky"), 210, 1_000_000));
    let report =
        run_gate(&baseline, &bench_file("fault-own-ok", &ok), 0.25, 0.10).expect("gate runs");
    assert!(report.passed(), "{:?}", report.failures);
    assert!(report.render_human().contains("200 ms -> 210 ms"));

    let slow = format!("{base}{}", entry_under(Some("flaky"), 300, 1_200_000));
    let report =
        run_gate(&baseline, &bench_file("fault-own-slow", &slow), 0.25, 0.10).expect("gate runs");
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
    let base = format!(
        "{}{}",
        entry_under(None, 100, 500),
        entry_under(Some("flaky"), 400, 500)
    );
    let cand = format!("{base}{}", entry_under(Some("none"), 150, 500));
    let baseline = bench_file("fault-absent-base", &base);
    let candidate = bench_file("fault-absent-cand", &cand);
    let report = run_gate(&baseline, &candidate, 0.25, 0.10).expect("gate runs");
    assert_eq!(
        report.failures,
        vec![
            "seed=7 jobs=1 hardware_threads=2 (stage persona.shards +50.0%)".to_string(),
            "seed=7 jobs=1 hardware_threads=2".to_string()
        ]
    );
    assert!(report.render_human().contains("100 ms -> 150 ms"));
}
