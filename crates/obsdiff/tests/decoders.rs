//! Structured mutation of every outside-input decoder that remains: campaign
//! plans (`Plan::parse`) and run bundles (`load_bundle`, then `diff_bundles`
//! against the pristine bundle in both directions).
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
use alexa_obs::bundle::{
    write_bundle, BundleSpec, MANIFEST_FILE, MEMORY_FILE, METRICS_FILE, PROFILE_FILE, TRACE_FILE,
};
use alexa_obs::campaign::{Plan, PlanError};
use alexa_obs::Recorder;
use alexa_obsdiff::{diff_bundles, load_bundle, BundleError, DiffOptions, LoadedBundle};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

const SMOKE_PLAN: &str = include_str!("../../../ci/plans/smoke.json");
const BUNDLE_FILES: [&str; 5] = [
    MANIFEST_FILE,
    METRICS_FILE,
    TRACE_FILE,
    MEMORY_FILE,
    PROFILE_FILE,
];

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
                // No key-valued number (the folded profile): overwrite the
                // last count on the first line instead.
                None => {
                    let eol = doc.iter().position(|&b| b == b'\n').unwrap_or(doc.len());
                    let at = doc[..eol]
                        .iter()
                        .rposition(|&b| b == b' ')
                        .map_or(0, |p| p + 1);
                    splice(at, eol, huge)
                }
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

/// The files of a small-scale audit bundle (in [`BUNDLE_FILES`] order) and
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
        let files = BUNDLE_FILES
            .iter()
            .map(|name| std::fs::read(dir.join(name)).expect("read pristine file"))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        (files, loaded)
    })
}

/// An empty scratch directory private to this test process.
fn case_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("obsdiff-mutation-{tag}-{}", std::process::id()));
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
/// when it does not.
fn check_bundle(target: usize, bytes: &[u8]) {
    let (files, base) = pristine();
    let dir = case_dir("case");
    std::fs::create_dir_all(&dir).expect("create case dir");
    for (i, (name, pristine)) in BUNDLE_FILES.iter().zip(files).enumerate() {
        let body = if i == target { bytes } else { pristine };
        std::fs::write(dir.join(name), body).expect("write bundle file");
    }
    let file = BUNDLE_FILES[target];
    match load_bundle(&dir) {
        Ok(mutated) => {
            let opts = DiffOptions::default();
            for report in [
                diff_bundles(base, &mutated, &opts),
                diff_bundles(&mutated, base, &opts),
            ] {
                let _ = (report.render_human(), report.to_json().render());
            }
        }
        Err(BundleError::Malformed { error, .. }) => {
            assert!(error.offset <= bytes.len(), "{file}: {error:?}")
        }
        Err(e) => assert!(!e.to_string().is_empty()),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(240))]

    #[test]
    fn outside_input_decoders_fail_typed_under_mutation(
        m in prop::sample::select(MUTATIONS.to_vec()),
        target in 0usize..=BUNDLE_FILES.len(),
        pick in 0usize..1_000_000,
    ) {
        let outcome = std::panic::catch_unwind(|| match pristine().0.get(target) {
            Some(doc) => check_bundle(target, &mutate(doc, m, pick)),
            None => check_plan(&mutate(SMOKE_PLAN.as_bytes(), m, pick)),
        });
        let input = BUNDLE_FILES.get(target).copied().unwrap_or("plan");
        prop_assert!(outcome.is_ok(), "{m:?} of {input} (pick {pick}) panicked");
    }
}
