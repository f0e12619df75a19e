//! Integration tests: the fixture workspace against its golden report, the
//! real workspace gate (the analyzer's lints and clippy's), the CLI's error
//! exits, and the DESIGN.md lint-catalog drift check.
//!
//! Regenerate the fixture golden after an *intentional* change with
//! `BLESS=1 cargo test -p alexa-analyzer --test analyzer`.

#![expect(
    clippy::disallowed_types,
    clippy::expect_used,
    reason = "the tests drive cargo and the analyzer binary as child processes, and their helpers fail the test by panicking"
)]

use alexa_analyzer::{analyze, findings, Finding, CATALOG};
use std::path::{Path, PathBuf};
use std::process::Command;

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

fn fixture_findings() -> Vec<Finding> {
    let report = analyze(&fixture_root()).expect("fixture analyzes");
    assert_eq!(report.files_scanned, 3);
    report.findings
}

#[test]
fn fixture_findings_match_golden_json() {
    let actual = findings::render_json(&fixture_findings());
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/expected.json");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden, &actual).expect("write the fixture golden");
    }
    let expected = std::fs::read_to_string(&golden).expect("read the fixture golden");
    assert_eq!(
        actual, expected,
        "fixture report drifted from tests/fixtures/expected.json — if the \
         change is intentional, rerun with BLESS=1"
    );
}

#[test]
fn fixture_counts_are_what_the_golden_encodes() {
    let all = fixture_findings();
    for spec in CATALOG {
        assert!(
            all.iter().any(|f| f.lint == spec.id),
            "fixture should produce a {} finding",
            spec.id
        );
    }
}

#[test]
fn semantic_lints_skip_the_near_misses() {
    let all = fixture_findings();
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
}

#[test]
fn workspace_is_clean() {
    // The analyzer's own lints over the real workspace.
    let root = workspace_root();
    let report = analyze(&root).expect("workspace analyzes");
    let complaints: String = report
        .findings
        .iter()
        .map(|f| f.render_human() + "\n")
        .collect();
    assert!(report.clean(), "workspace lint gate failed:\n{complaints}");
    assert!(
        report.files_scanned > 50,
        "walker found only {} files",
        report.files_scanned
    );

    // The lints handed to clippy. CI runs clippy only here, through its
    // `cargo test` step. A missing clippy fails the gate; it never skips it.
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(&root)
        .args(["clippy", "--offline", "--workspace", "--all-targets"])
        .args(["--target-dir", "target/clippy-gate", "--", "-D", "warnings"])
        .output()
        .expect("cannot start cargo");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("no such command"),
        "`cargo clippy` is not installed, and the lint gate needs it \
         (`rustup component add clippy`):\n{stderr}"
    );
    assert!(out.status.success(), "clippy lint gate failed:\n{stderr}");
}

/// Run the analyzer binary with `args`: (exit code, stderr).
fn run_cli(args: &[&std::ffi::OsStr]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_alexa-analyzer"))
        .args(args)
        .output()
        .expect("run alexa-analyzer");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unreadable_workspace_exits_2_with_one_line_error() {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("analyzer-cli");
    let _ = std::fs::remove_dir_all(&scratch);

    // No name registry at all.
    let empty = scratch.join("empty");
    std::fs::create_dir_all(&empty).expect("mkdir");
    let (code, err) = run_cli(&["--root".as_ref(), empty.as_os_str()]);
    assert_eq!(code, Some(2), "{err}");
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(
        err.starts_with("error: ") && err.contains("names.rs"),
        "{err}"
    );

    // Registries in place, but one source is not UTF-8.
    let ws = scratch.join("ws");
    for rel in ["crates/obs/src/names.rs", "crates/fault/src/profile.rs"] {
        let to = ws.join(rel);
        std::fs::create_dir_all(to.parent().expect("parent")).expect("mkdir");
        std::fs::copy(fixture_root().join(rel), &to).expect("copy registry");
    }
    std::fs::write(ws.join("crates/obs/src/bad.rs"), b"fn f() {}\n\xff\xfe\n").expect("write");
    let (code, err) = run_cli(&["--root".as_ref(), ws.as_os_str()]);
    assert_eq!(code, Some(2), "{err}");
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(
        err.starts_with("error: ") && err.contains("bad.rs"),
        "{err}"
    );
}

#[test]
fn unwritable_out_file_exits_1() {
    // An I/O failure, not a usage error: the clean workspace still exits 1.
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("analyzer-cli-missing/dir/x.json");
    let root = workspace_root();
    let (code, err) = run_cli(&[
        "--root".as_ref(),
        root.as_os_str(),
        "--out".as_ref(),
        out.as_os_str(),
    ]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.starts_with("error: cannot write"), "{err}");
}

#[test]
fn retired_flags_are_usage_errors() {
    for flag in ["--config", "--fix", "--write-baseline"] {
        let (code, err) = run_cli(&[flag.as_ref()]);
        assert_eq!(code, Some(2), "{flag}: {err}");
    }
    let (code, err) = run_cli(&["--format".as_ref(), "sarif".as_ref()]);
    assert_eq!(code, Some(2), "{err}");
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
