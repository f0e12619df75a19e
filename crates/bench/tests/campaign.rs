//! End-to-end tests of `repro campaign`: plan parsing at the CLI boundary,
//! resume semantics, crash recovery, the `--run-dir` overwrite guard, the
//! `--bench` and `--list` argument checks, and golden-pinned analysis tables
//! for the committed CI smoke plan.
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

use alexa_obsdiff::check_campaign;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

/// The committed CI smoke plan (2 seeds × {none, flaky} × jobs {1, 4}).
const SMOKE_PLAN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/plans/smoke.json");

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// A fresh scratch directory for one test, under cargo's per-target temp
/// dir so repeated runs reuse it.
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("campaign-{test}"));
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
    // Nor is there a standalone memory, profile or trace file: `--run-dir`
    // writes memory.json and profile.folded, and `--trace` prints the tree.
    for flag in ["--backend", "--mem-out", "--profile-out", "--trace-out"] {
        let out = repro()
            .args([flag, "x", "all"])
            .output()
            .expect("run repro");
        assert_eq!(out.status.code(), Some(2), "{flag}: {}", stderr(&out));
        let unknown = format!("unknown flag {flag:?}");
        assert!(stderr(&out).contains(&unknown), "{}", stderr(&out));
        assert!(stdout(&out).is_empty(), "{flag}: {}", stdout(&out));
    }
    // Zero workers is rejected on the command line as in a plan's jobs axis.
    let out = repro()
        .args(["--jobs", "0", "table1"])
        .output()
        .expect("run repro");
    assert_eq!(out.status.code(), Some(2), "--jobs 0: {}", stderr(&out));
    assert!(stderr(&out).contains("--jobs expects a positive integer"));
    assert!(stdout(&out).is_empty(), "--jobs 0: {}", stdout(&out));
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

/// The benchmark's 8-cell campaign shape (seed 7 × {none, flaky} × {none,
/// firewall} × jobs {1, 2}), run once per test binary. Tests edit copies.
fn eight_cell_campaign() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = scratch("eight-cell");
        let plan = dir.join("plan.json");
        std::fs::write(
            &plan,
            r#"{"schema": 1, "name": "eight", "scale": "paper", "seeds": [7], "faults": ["none", "flaky"], "defenses": ["none", "firewall"], "jobs": [1, 2]}"#,
        )
        .expect("write plan");
        let out = run_campaign(&plan, &dir.join("camp"));
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        dir
    })
}

/// A copy of the 8-cell campaign (plan and directory) under a fresh
/// scratch directory, with the first `"degraded": false` of its
/// `campaign.json` replaced by `degraded`. Returns the plan, the campaign
/// directory and the edited manifest text.
fn eight_cell_copy_with(test: &str, degraded: &str) -> (PathBuf, PathBuf, String) {
    let dir = scratch(test);
    for (rel, bytes) in snapshot(eight_cell_campaign()) {
        let path = dir.join(rel);
        std::fs::create_dir_all(path.parent().expect("file has a parent")).expect("mkdir");
        std::fs::write(path, bytes).expect("copy file");
    }
    let camp = dir.join("camp");
    let manifest = camp.join("campaign.json");
    let text = std::fs::read_to_string(&manifest).expect("read campaign.json");
    let edited = text.replacen(
        "\"degraded\": false",
        &format!("\"degraded\": {degraded}"),
        1,
    );
    assert_ne!(text, edited);
    std::fs::write(&manifest, &edited).expect("write campaign.json");
    (dir.join("plan.json"), camp, edited)
}

/// `campaign.json`'s degraded flag is a claim about the cell's bundle: a
/// flag that disagrees with the bundle's coverage is a finding naming the
/// cell (`obs-diff campaign` exits 1 on findings).
#[test]
fn flipped_degraded_flag_is_a_campaign_finding() {
    let pristine = check_campaign(&eight_cell_campaign().join("camp")).expect("checkable");
    assert!(pristine.clean(), "{}", pristine.render_human());

    let (_, camp, _) = eight_cell_copy_with("degraded-flip", "true");
    let check = check_campaign(&camp).expect("the edited manifest still decodes");
    assert_eq!(
        check.findings,
        ["cell s7-fnone-dnone-j1-r0: bundle records degraded false, campaign manifest says true"]
    );
}

/// A `campaign.json` that parses but does not decode is a usage error that
/// names the field, not a different plan, and resuming leaves it in place.
#[test]
fn undecodable_campaign_manifest_exits_2_naming_the_field() {
    let (plan, camp, edited) = eight_cell_copy_with("manifest-undecodable", "1");
    let out = run_campaign(&plan, &camp);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("cells[0].degraded: missing or mistyped") && !err.contains("different plan"),
        "{err}"
    );
    let kept = std::fs::read_to_string(camp.join("campaign.json")).ok();
    assert_eq!(kept, Some(edited));
}

/// `--bench` always benches every artifact, so artifact names beside it are
/// a usage error, rejected before a `BENCH_audit.json` entry is appended.
#[test]
fn bench_with_artifact_names_exits_2_and_appends_nothing() {
    let log = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_audit.json");
    let len = || std::fs::metadata(log).map(|m| m.len()).ok();
    let before = len();
    for names in [&["table1"][..], &["all"], &["table1", "figure3"]] {
        let out = repro()
            .args(["--seed", "7", "--bench"])
            .args(names)
            .output()
            .expect("run repro");
        assert_eq!(out.status.code(), Some(2), "{names:?}: {}", stderr(&out));
        assert!(stdout(&out).is_empty(), "{names:?}: {}", stdout(&out));
    }
    assert_eq!(len(), before, "BENCH_audit.json changed");
}

/// `--list` takes no artifact names, and never pairs with `--bench`: that
/// pair must not print the list in place of a bench, nor append an entry.
#[test]
fn list_with_artifact_names_exits_2() {
    let out = repro().arg("--list").output().expect("run repro");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(stdout(&out), alexa_bench::ARTIFACTS.join("\n") + "\n");
    let log = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_audit.json");
    let len = || std::fs::metadata(log).map(|m| m.len()).ok();
    let before = len();
    for names in [
        &["table1"][..],
        &["all"],
        &["table1", "figure3"],
        &["--bench"],
    ] {
        let out = repro()
            .arg("--list")
            .args(names)
            .output()
            .expect("run repro");
        assert_eq!(out.status.code(), Some(2), "{names:?}: {}", stderr(&out));
        assert!(stdout(&out).is_empty(), "{names:?}: {}", stdout(&out));
    }
    assert_eq!(len(), before, "BENCH_audit.json changed");
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

    // A manifest that parses but does not decode is refused too, and the
    // refusal names the field instead of inventing a value for it.
    let manifest = dir.join("manifest.json");
    let text = std::fs::read_to_string(&manifest).expect("read manifest");
    let mistyped = text.replacen("\"seed\": 7,", "\"seed\": \"7\",", 1);
    assert_ne!(text, mistyped);
    std::fs::write(&manifest, &mistyped).expect("write manifest");
    let refused = repro()
        .args(["--seed", "7", "--run-dir"])
        .arg(&dir)
        .arg("table1")
        .output()
        .expect("run repro");
    assert_eq!(refused.status.code(), Some(2), "{}", stderr(&refused));
    let err = stderr(&refused);
    assert!(
        err.contains("seed: missing or mistyped") && err.contains("refusing"),
        "{err}"
    );
    assert_eq!(std::fs::read_to_string(&manifest).ok(), Some(mistyped));
}

/// A bundle of an older schema is a different run, whatever its identity:
/// `repro --run-dir` and a campaign resume both refuse it (exit 2, naming
/// the directory) and leave every byte in place, instead of writing this
/// schema's files beside the stale ones.
#[test]
fn older_schema_bundles_are_refused_and_left_untouched() {
    let dir = scratch("old-schema");
    let (run_dir, plan, camp) = (dir.join("run"), write_tiny_plan(&dir), dir.join("camp"));
    let args = [
        "--seed",
        "7",
        "--run-dir",
        run_dir.to_str().unwrap(),
        "table1",
    ];
    let run = || repro().args(args).output().expect("run repro");
    let cell = camp.join("cells").join("s7-fflaky-dnone-j1-r0");
    for (bundle, again) in [
        (&run_dir, &run as &dyn Fn() -> Output),
        (&cell, &|| run_campaign(&plan, &camp)),
    ] {
        let first = again();
        assert_eq!(first.status.code(), Some(0), "{}", stderr(&first));
        // What an older release leaves behind: a manifest recording schema
        // 2, and the two files that schema had besides ours.
        let manifest = bundle.join("manifest.json");
        let text = std::fs::read_to_string(&manifest).expect("read manifest");
        let current = format!("\"schema\": {}", alexa_obs::bundle::SCHEMA_VERSION);
        std::fs::write(&manifest, text.replacen(&current, "\"schema\": 2", 1)).unwrap();
        std::fs::write(bundle.join("metrics.json"), "{\"schema\": 2}\n").unwrap();
        std::fs::write(bundle.join("profile.folded"), "persona;Vanilla 1\n").unwrap();
        let before = snapshot(&dir);

        let refused = again();
        assert_eq!(refused.status.code(), Some(2), "{}", stderr(&refused));
        let err = stderr(&refused);
        assert!(err.contains(&bundle.display().to_string()), "{err}");
        assert!(
            err.contains("(schema 2,") && err.contains("refusing"),
            "{err}"
        );
        assert_eq!(before, snapshot(&dir), "{} changed", bundle.display());
    }
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
