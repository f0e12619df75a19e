//! End-to-end tests of `repro campaign`: plan parsing at the CLI boundary,
//! resume semantics, crash recovery, the `--run-dir` overwrite guard, and
//! golden-pinned analysis tables for the committed CI smoke plan.
//!
//! Every campaign here runs as a **subprocess** of the real `repro` binary
//! (`CARGO_BIN_EXE_repro`): cells install a fresh global recorder, so two
//! in-process campaigns racing in the same test binary would observe each
//! other.
//!
//! Regenerate the table goldens after an *intentional* output change with
//! `BLESS=1 cargo test -p alexa-bench --test campaign`.

#![expect(
    clippy::disallowed_types,
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "the tests drive the repro binary as a child process, and their helpers fail the test by panicking"
)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The committed CI smoke plan (2 seeds × {none, flaky} × jobs {1, 4}).
const SMOKE_PLAN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/plans/smoke.json");

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// A fresh scratch directory unique to this test invocation.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alexa-campaign-{}-{test}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Every file under `dir`, as relative path → bytes (deterministic order).
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    walk(dir, dir, &mut files);
    files
}

fn walk(root: &Path, dir: &Path, files: &mut BTreeMap<String, Vec<u8>>) {
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            walk(root, &path, files);
        } else {
            let rel = path
                .strip_prefix(root)
                .expect("path under root")
                .to_string_lossy()
                .into_owned();
            files.insert(rel, std::fs::read(&path).expect("read file"));
        }
    }
}

/// A two-cell plan (seed 7 × {none, flaky} × jobs 1) for fast resume tests.
fn write_tiny_plan(dir: &Path) -> PathBuf {
    let path = dir.join("tiny.json");
    std::fs::write(
        &path,
        r#"{"schema": 1, "name": "tiny", "scale": "small", "seeds": [7], "faults": ["none", "flaky"]}"#,
    )
    .expect("write plan");
    path
}

fn run_campaign(plan: &Path, out_dir: &Path) -> Output {
    repro()
        .args(["campaign", plan.to_str().unwrap(), "--out"])
        .arg(out_dir)
        .output()
        .expect("run repro campaign")
}

#[test]
fn plan_parse_errors_are_typed_and_exit_2() {
    let dir = scratch("parse-errors");
    let cases: [(&str, &str, &[&str]); 5] = [
        (
            "syntax.json",
            r#"{"schema": 1, "name": "x", "#,
            &["plan is not valid JSON", "offset"],
        ),
        (
            "schema.json",
            r#"{"schema": 99, "name": "x", "seeds": [7]}"#,
            &["schema"],
        ),
        (
            "unknown.json",
            r#"{"schema": 1, "name": "x", "seeds": [7], "turbo": true}"#,
            &["plan field"],
        ),
        (
            "empty-axis.json",
            r#"{"schema": 1, "name": "x", "seeds": []}"#,
            &["plan field", "seeds"],
        ),
        (
            "backends.json",
            r#"{"schema": 1, "name": "x", "seeds": [7], "backends": ["thread"]}"#,
            &["plan field \"backends\"", "unknown field"],
        ),
    ];
    for (file, body, expected) in cases {
        let plan = dir.join(file);
        std::fs::write(&plan, body).expect("write plan");
        let out = run_campaign(&plan, &dir.join("out"));
        assert_eq!(out.status.code(), Some(2), "{file}: wrong exit code");
        let err = stderr(&out);
        for needle in expected {
            assert!(
                err.contains(needle),
                "{file}: stderr lacks {needle:?}: {err}"
            );
        }
    }
    // There is one execution path: a backend flag is a typo, not a choice.
    let out = repro()
        .args(["--backend", "thread", "all"])
        .output()
        .expect("run repro");
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("unknown flag \"--backend\""),
        "{}",
        stderr(&out)
    );
}

#[test]
fn deeply_nested_plan_exits_2_instead_of_overflowing() {
    // 200k unclosed brackets once overflowed the recursive-descent parser's
    // stack (abort, exit 134); the nesting limit makes it a syntax error.
    let dir = scratch("deep-plan");
    let plan = dir.join("deep.json");
    std::fs::write(&plan, "[".repeat(200_000)).expect("write plan");
    let out = run_campaign(&plan, &dir.join("out"));
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("plan is not valid JSON") && err.contains("nesting"),
        "{err}"
    );
}

#[test]
fn missing_plan_exits_2() {
    let dir = scratch("missing-plan");
    let out = run_campaign(&dir.join("nope.json"), &dir.join("out"));
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("cannot read plan"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn resume_skips_completed_cells() {
    let dir = scratch("resume");
    let plan = write_tiny_plan(&dir);
    let camp = dir.join("camp");

    let first = run_campaign(&plan, &camp);
    assert_eq!(first.status.code(), Some(0), "{}", stderr(&first));
    assert!(
        stdout(&first).contains("2 cell(s) — 2 executed, 0 skipped"),
        "first run should execute every cell:\n{}",
        stdout(&first)
    );
    let after_first = snapshot(&camp);

    let second = run_campaign(&plan, &camp);
    assert_eq!(second.status.code(), Some(0), "{}", stderr(&second));
    assert!(
        stdout(&second).contains("2 cell(s) — 0 executed, 2 skipped"),
        "second run should skip every cell:\n{}",
        stdout(&second)
    );
    assert_eq!(
        after_first,
        snapshot(&camp),
        "resume must not rewrite any byte of a completed campaign"
    );
}

#[test]
fn crash_mid_campaign_then_resume_is_byte_identical_to_fresh() {
    let dir = scratch("crash-resume");
    let plan = write_tiny_plan(&dir);

    let fresh = dir.join("fresh");
    let out = run_campaign(&plan, &fresh);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    // Simulate a crash mid-campaign: one cell lost its manifest (written
    // last, so a partial cell never has one) and campaign.json (also
    // written last) never landed.
    let crashed = dir.join("crashed");
    let out = run_campaign(&plan, &crashed);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let cell = crashed.join("cells").join("s7-fflaky-dnone-j1-r0");
    std::fs::remove_file(cell.join("manifest.json")).expect("drop cell manifest");
    std::fs::remove_file(crashed.join("campaign.json")).expect("drop campaign manifest");

    let resume = run_campaign(&plan, &crashed);
    assert_eq!(resume.status.code(), Some(0), "{}", stderr(&resume));
    assert!(
        stdout(&resume).contains("2 cell(s) — 1 executed, 1 skipped"),
        "resume should re-execute only the crashed cell:\n{}",
        stdout(&resume)
    );
    assert_eq!(
        snapshot(&fresh),
        snapshot(&crashed),
        "a resumed campaign must be byte-identical to an uninterrupted one"
    );
}

#[test]
fn changed_plan_in_existing_campaign_dir_exits_2() {
    let dir = scratch("plan-changed");
    let plan = write_tiny_plan(&dir);
    let camp = dir.join("camp");
    let out = run_campaign(&plan, &camp);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    let renamed = dir.join("renamed.json");
    std::fs::write(
        &renamed,
        r#"{"schema": 1, "name": "renamed", "scale": "small", "seeds": [7], "faults": ["none", "flaky"]}"#,
    )
    .expect("write plan");
    let out = run_campaign(&renamed, &camp);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("was produced by a different plan"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn run_dir_refuses_foreign_nonempty_directory() {
    let dir = scratch("run-dir-guard");
    std::fs::write(dir.join("notes.txt"), "precious\n").expect("write file");
    let out = repro()
        .args(["--seed", "7", "--run-dir"])
        .arg(&dir)
        .arg("table1")
        .output()
        .expect("run repro");
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("refusing to overwrite"),
        "{}",
        stderr(&out)
    );
    let contents = std::fs::read(dir.join("notes.txt")).expect("file survives");
    assert_eq!(contents, b"precious\n");
}

#[test]
fn run_dir_refuses_bundle_of_a_different_run() {
    let dir = scratch("run-dir-mismatch");
    let first = repro()
        .args(["--seed", "7", "--run-dir"])
        .arg(&dir)
        .arg("table1")
        .output()
        .expect("run repro");
    assert_eq!(first.status.code(), Some(0), "{}", stderr(&first));

    let other = repro()
        .args(["--seed", "8", "--run-dir"])
        .arg(&dir)
        .arg("table1")
        .output()
        .expect("run repro");
    assert_eq!(other.status.code(), Some(2), "{}", stderr(&other));
    assert!(
        stderr(&other).contains("a different run"),
        "{}",
        stderr(&other)
    );

    // Same identity is allowed to overwrite: re-runs refresh their bundle.
    let again = repro()
        .args(["--seed", "7", "--run-dir"])
        .arg(&dir)
        .arg("table1")
        .output()
        .expect("run repro");
    assert_eq!(again.status.code(), Some(0), "{}", stderr(&again));
}

/// The derived analysis tables for the committed CI smoke plan, pinned
/// byte-for-byte. The plan spans jobs {1, 4}, so a passing run also proves
/// the tables are independent of worker count.
#[test]
fn smoke_plan_tables_match_goldens() {
    let dir = scratch("smoke-goldens");
    let camp = dir.join("camp");
    let out = run_campaign(Path::new(SMOKE_PLAN), &camp);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("8 cell(s) — 8 executed, 0 skipped"),
        "{}",
        stdout(&out)
    );

    let golden_dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"));
    for table in ["bids_by_fault", "coverage_by_fault", "defense_efficacy"] {
        for ext in ["jsonl", "md"] {
            let produced =
                std::fs::read_to_string(camp.join("tables").join(format!("{table}.{ext}")))
                    .expect("read produced table");
            let golden_path = golden_dir.join(format!("campaign_smoke_{table}.{ext}"));
            if std::env::var_os("BLESS").is_some() {
                std::fs::write(&golden_path, &produced).expect("write golden");
                continue;
            }
            let golden =
                std::fs::read_to_string(&golden_path).expect("read golden (BLESS=1 generates it)");
            assert_eq!(
                produced,
                golden,
                "{table}.{ext} drifted from {} (BLESS=1 regenerates after an \
                 intentional change)",
                golden_path.display()
            );
        }
    }
}
