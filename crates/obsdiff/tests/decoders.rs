//! Structured mutation of every outside-input decoder that remains: campaign
//! plans (`Plan::parse`), run bundles (`load_bundle`, then `diff_bundles`
//! against the pristine bundle in both directions) and bench entries
//! (`obs-diff gate`).
//!
//! Each case takes a real input — the committed smoke plan, or one file of a
//! small-scale audit bundle — and breaks it one structured way: truncation,
//! a bit flip, 10k-deep nesting, an integer at or past `u64::MAX`, or a field
//! of the wrong JSON type. No mutation may panic, and every rejection must be
//! a typed error whose reported position lies inside the input.

#![expect(
    clippy::expect_used,
    reason = "test helpers fail the test by panicking"
)]

use alexa_audit::{AuditConfig, AuditRun};
use alexa_obs::bundle::{write_bundle, BundleSpec, FILES, MANIFEST_FILE, TRACE_FILE};
use alexa_obs::campaign::{Plan, PlanError};
use alexa_obs::Recorder;
use alexa_obsdiff::{diff_bundles, load_bundle, run_gate, BundleError, GateError, LoadedBundle};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const SMOKE_PLAN: &str = include_str!("../../../ci/plans/smoke.json");

/// One structured way to break a document.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// Keep only a prefix.
    Truncate,
    /// Flip one bit of one byte.
    BitFlip,
    /// Splice 10 000 nested arrays in front of a value.
    DeepNest,
    /// Replace a number with one at or past `u64::MAX`.
    HugeInt,
    /// Replace a value with one of another JSON type.
    WrongType,
}

const MUTATIONS: [Mutation; 5] = [
    Mutation::Truncate,
    Mutation::BitFlip,
    Mutation::DeepNest,
    Mutation::HugeInt,
    Mutation::WrongType,
];

const HUGE_INTS: [&str; 4] = [
    "18446744073709551615",
    "18446744073709551616",
    "340282366920938463463374607431768211456",
    "99999999999999999999999999999999999999999999",
];

const WRONG_TYPES: [&str; 8] = [
    "\"x\"",
    "[]",
    "{}",
    "true",
    "null",
    "-7",
    "0.5",
    "[{\"a\": [1]}]",
];

/// Start offsets of every value that follows an object key (`": "`).
fn value_starts(doc: &[u8]) -> Vec<usize> {
    doc.windows(3)
        .enumerate()
        .filter(|(_, w)| w == b"\": ")
        .map(|(i, _)| i + 3)
        .collect()
}

/// The end (exclusive) of the JSON value starting at `start`, by bracket
/// matching that skips string contents.
fn value_end(doc: &[u8], start: usize) -> usize {
    let (mut depth, mut in_str, mut escaped) = (0usize, false, false);
    for (i, &b) in doc.iter().enumerate().skip(start) {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' if depth == 0 => return i + 1,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'[' | b'{' => depth += 1,
            b']' | b'}' if depth == 0 => return i,
            b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            b',' | b'\n' if depth == 0 => return i,
            _ => {}
        }
    }
    doc.len()
}

/// Apply `m` to `doc`; `pick` chooses the site among the candidates.
fn mutate(doc: &[u8], m: Mutation, pick: usize) -> Vec<u8> {
    let splice =
        |start: usize, end: usize, with: &[u8]| [&doc[..start], with, &doc[end..]].concat();
    let values = value_starts(doc);
    match m {
        Mutation::Truncate => doc[..pick % (doc.len() + 1)].to_vec(),
        Mutation::BitFlip if doc.is_empty() => Vec::new(),
        Mutation::BitFlip => {
            let mut out = doc.to_vec();
            out[(pick / 8) % doc.len()] ^= 1 << (pick % 8);
            out
        }
        Mutation::DeepNest => {
            let at = values.get(pick % values.len().max(1)).copied().unwrap_or(0);
            let nest = ["[".repeat(10_000), "]".repeat(10_000)].concat();
            splice(at, at, nest.as_bytes())
        }
        Mutation::HugeInt => {
            let numbers: Vec<usize> = values
                .iter()
                .copied()
                .filter(|&i| doc.get(i).is_some_and(u8::is_ascii_digit))
                .collect();
            let huge = HUGE_INTS[pick % HUGE_INTS.len()].as_bytes();
            match numbers.get(pick % numbers.len().max(1)) {
                Some(&at) => splice(at, value_end(doc, at), huge),
                None => splice(0, 0, huge),
            }
        }
        Mutation::WrongType => {
            let wrong = WRONG_TYPES[pick % WRONG_TYPES.len()].as_bytes();
            match values.get(pick % values.len().max(1)) {
                Some(&at) => splice(at, value_end(doc, at), wrong),
                None => splice(0, doc.len(), wrong),
            }
        }
    }
}

/// The files of a small-scale audit bundle (in [`FILES`] order) and
/// the bundle loaded from them, built once per test process.
fn pristine() -> &'static (Vec<Vec<u8>>, LoadedBundle) {
    static BASE: OnceLock<(Vec<Vec<u8>>, LoadedBundle)> = OnceLock::new();
    BASE.get_or_init(|| {
        let dir = case_dir("base");
        let rec = Recorder::new();
        let obs = AuditRun::execute_with(AuditConfig::small(7).with_jobs(Some(2)), &rec);
        let spec = BundleSpec {
            seed: 7,
            fault_profile: "none".into(),
            defense: None,
            campaign: None,
            observations_digest: obs.digest(),
            coverage: Some(obs.coverage.to_json()),
        };
        write_bundle(&dir, &spec, &rec.report()).expect("write pristine bundle");
        let loaded = load_bundle(&dir).expect("pristine bundle loads");
        let files = FILES
            .iter()
            .map(|name| std::fs::read(dir.join(name)).expect("read pristine file"))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        (files, loaded)
    })
}

/// An empty scratch directory for one tag.
fn case_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("obsdiff-mutation-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Parse a mutated plan; a rejection must be typed and in range.
fn check_plan(src: &[u8]) {
    let text = String::from_utf8_lossy(src);
    match Plan::parse(&text) {
        Ok(plan) => {
            let _ = (plan.cells(), plan.hash());
        }
        Err(PlanError::Syntax(e)) => assert!(e.offset <= text.len(), "{e:?}"),
        Err(e) => assert!(!e.to_string().is_empty()),
    }
}

/// Load the pristine bundle with file `target` replaced by `bytes`; diff it
/// against the pristine one when it loads, and check the rejection is typed
/// when it does not. Returns the load outcome. `tag` names the scratch
/// directory, one per concurrently running test.
fn check_bundle(tag: &str, target: usize, bytes: &[u8]) -> Result<LoadedBundle, BundleError> {
    let (files, base) = pristine();
    let dir = case_dir(tag);
    std::fs::create_dir_all(&dir).expect("create case dir");
    for (i, (name, pristine)) in FILES.iter().zip(files).enumerate() {
        let body = if i == target { bytes } else { pristine };
        std::fs::write(dir.join(name), body).expect("write bundle file");
    }
    let file = FILES[target];
    let outcome = load_bundle(&dir);
    match &outcome {
        Ok(mutated) => {
            for report in [diff_bundles(base, mutated), diff_bundles(mutated, base)] {
                let _ = (report.render_human(), report.to_json().render());
            }
        }
        Err(BundleError::Malformed { error, .. }) => {
            assert!(error.offset <= bytes.len(), "{file}: {error:?}")
        }
        Err(e) => assert!(!e.to_string().is_empty()),
    }
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(240))]

    #[test]
    fn outside_input_decoders_fail_typed_under_mutation(
        m in prop::sample::select(MUTATIONS.to_vec()),
        target in 0usize..=FILES.len(),
        pick in 0usize..1_000_000,
    ) {
        let outcome = std::panic::catch_unwind(|| match pristine().0.get(target) {
            Some(doc) => drop(check_bundle("case", target, &mutate(doc, m, pick))),
            None => check_plan(&mutate(SMOKE_PLAN.as_bytes(), m, pick)),
        });
        let input = FILES.get(target).copied().unwrap_or("plan");
        prop_assert!(outcome.is_ok(), "{m:?} of {input} (pick {pick}) panicked");
    }
}

/// The aggregates that `trace.json` carries since the bundle dropped
/// `metrics.json`: every mutation confined to that section loads or fails
/// typed, and a value of the wrong type is always a ledger error.
#[test]
fn trace_aggregates_fail_typed_under_mutation() {
    let (target, doc) = (0, &pristine().0[0]);
    assert_eq!(FILES[target], TRACE_FILE);
    let key = b"\"aggregates\": ";
    let at = doc
        .windows(key.len())
        .position(|w| w == key)
        .expect("aggregates")
        + key.len();
    let (head, section) = doc.split_at(at);
    assert!(
        value_starts(section).len() > 4,
        "aggregates hold count/calls rows"
    );
    for (m, pick) in MUTATIONS
        .into_iter()
        .flat_map(|m| (0..1000).step_by(61).map(move |p| (m, p)))
    {
        let mutated = [head, &mutate(section, m, pick)].concat();
        let outcome = std::panic::catch_unwind(|| check_bundle("aggregates", target, &mutated));
        let Ok(outcome) = outcome else {
            panic!("{m:?} of trace.json aggregates (pick {pick}) panicked");
        };
        if matches!(m, Mutation::WrongType) {
            let typed = matches!(outcome, Err(BundleError::Ledger { .. }));
            assert!(typed, "{m:?} (pick {pick}) of an aggregate: {outcome:?}");
        }
    }
}

/// The JSON kind of the value whose text starts `value`: a count (what
/// the decoders read as an integer), another number, or the type its first
/// byte opens.
fn kind(value: &[u8]) -> &'static str {
    match value.first() {
        Some(b'"') => "string",
        Some(b'[') => "array",
        Some(b'{') => "object",
        Some(b't' | b'f') => "bool",
        Some(b'n') => "null",
        _ if value.iter().all(u8::is_ascii_digit) => "count",
        _ => "number",
    }
}

/// `manifest.json`, its coverage included: every mutation confined to it
/// loads or fails typed, and every value replaced by one of another kind
/// is a typed load error.
#[test]
fn manifest_fails_typed_under_mutation() {
    let target = FILES
        .iter()
        .position(|f| *f == MANIFEST_FILE)
        .expect("manifest");
    let doc = &pristine().0[target];
    assert!(
        doc.windows(8).any(|w| w == b"\"losses\""),
        "manifest embeds coverage"
    );
    for (m, pick) in MUTATIONS
        .into_iter()
        .flat_map(|m| (0..1000).step_by(61).map(move |p| (m, p)))
    {
        let mutated = mutate(doc, m, pick);
        let outcome = std::panic::catch_unwind(|| check_bundle("manifest", target, &mutated));
        assert!(
            outcome.is_ok(),
            "{m:?} of manifest.json (pick {pick}) panicked"
        );
    }
    for at in value_starts(doc) {
        let (head, rest) = doc.split_at(at);
        let (value, tail) = rest.split_at(value_end(doc, at) - at);
        for wrong in WRONG_TYPES.map(str::as_bytes) {
            let mutated = [head, wrong, tail].concat();
            let outcome = std::panic::catch_unwind(|| check_bundle("manifest", target, &mutated));
            let site = String::from_utf8_lossy(&head[head.len().saturating_sub(24)..]);
            let Ok(outcome) = outcome else {
                panic!("{site}{} panicked", String::from_utf8_lossy(wrong));
            };
            if kind(value) != kind(wrong) {
                let typed = matches!(outcome, Err(BundleError::Ledger { .. }));
                let wrong = String::from_utf8_lossy(wrong);
                assert!(typed, "…{site}{wrong} (was {}): {outcome:?}", kind(value));
            }
        }
    }
}

/// The key of the value that starts at `at` (the text between the quotes
/// before its `": `).
fn key_before(doc: &[u8], at: usize) -> String {
    let head = &doc[..at - 3];
    let open = head.iter().rposition(|&b| b == b'"').expect("a key");
    String::from_utf8_lossy(&head[open + 1..]).into_owned()
}

/// A bench entry of the current shape: every required field removed, and
/// every value replaced by one of another kind (save `jobs`' `null`), makes
/// `obs-diff gate` refuse the file with exit 2, naming the line and the
/// field. The library's typed error says the same for every site.
#[test]
#[expect(
    clippy::disallowed_types,
    reason = "the test drives the obs-diff binary as a child process"
)]
fn bench_entry_fails_typed_under_mutation() {
    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_audit.json"
    ))
    .expect("read BENCH_audit.json");
    let last = committed
        .lines()
        .last()
        .expect("committed entries")
        .as_bytes();
    let line = committed.lines().count() + 1;
    let dir = case_dir("bench");
    std::fs::create_dir_all(&dir).expect("create case dir");
    let baseline = dir.join("baseline.json");
    std::fs::write(&baseline, &committed).expect("write baseline");
    let candidate = dir.join("candidate.json");
    let gate = |mutated: &[u8]| {
        let body = [committed.as_bytes(), mutated, b"\n"].concat();
        std::fs::write(&candidate, body).expect("write candidate");
        run_gate(&baseline, &candidate)
    };
    let cli = |field: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_obs-diff"))
            .arg("gate")
            .arg("--baseline")
            .arg(&baseline)
            .arg("--candidate")
            .arg(&candidate)
            .output()
            .expect("run obs-diff");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{field}: {stderr}");
        assert!(stderr.contains(&format!(":{line}: ")), "{field}: {stderr}");
        assert!(stderr.contains(field), "{field}: {stderr}");
    };
    let required = [
        "seed",
        "jobs",
        "hardware_threads",
        "execute_ms",
        "render_all_ms",
        "total_ms",
        "rendered_bytes",
        "stages",
        "stage_work",
    ];
    for field in required {
        let json = alexa_obs::Json::parse(&String::from_utf8_lossy(last)).expect("parses");
        let alexa_obs::Json::Obj(fields) = json else {
            panic!("an entry is an object")
        };
        let kept = fields.into_iter().filter(|(k, _)| k != field).collect();
        let mutated = alexa_obs::Json::Obj(kept).render();
        match gate(mutated.as_bytes()) {
            Err(GateError::BadEntry {
                line: at, detail, ..
            }) => {
                assert_eq!(at, line, "{field}");
                assert_eq!(detail, format!("{field}: missing or mistyped"));
            }
            other => panic!("without {field}: {other:?}"),
        }
        cli(field);
    }
    for at in value_starts(last) {
        let (head, rest) = last.split_at(at);
        let (value, tail) = rest.split_at(value_end(last, at) - at);
        let key = key_before(last, at);
        let depth = |brace| head.iter().filter(|&&b| b == brace).count();
        let top_level = depth(b'{') - depth(b'}') == 1;
        for wrong in WRONG_TYPES.map(str::as_bytes) {
            if kind(value) == kind(wrong) || (key == "jobs" && wrong == b"null") {
                continue;
            }
            match gate(&[head, wrong, tail].concat()) {
                Err(GateError::BadEntry {
                    line: at, detail, ..
                }) => {
                    assert_eq!(at, line, "{key}");
                    assert!(detail.contains(&key), "{key}: {detail}");
                }
                other => panic!("{key} = {}: {other:?}", String::from_utf8_lossy(wrong)),
            }
        }
        if top_level {
            // No field is a bool: the binary refuses it, naming the field.
            assert!(gate(&[head, b"true", tail].concat()).is_err(), "{key}");
            cli(&key);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
