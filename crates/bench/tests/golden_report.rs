//! Golden byte-equality of the full `repro all` report.
//!
//! The shared-`AnalysisIndex` render path must produce **exactly** the bytes
//! the naive per-artifact rescans produced before the refactor — a perf PR
//! must not change output — and those bytes must not depend on the worker
//! count. Each seed's full report is pinned to a committed golden file and
//! additionally rendered at `--jobs 1/4/8` for byte-equality.
//!
//! Those renders run unobserved (a disabled recorder, no global one). The
//! observed path — the real `repro` binary with `--trace`, so the recorder
//! is enabled, installed globally and timing every leaf library — is pinned
//! to the same golden: wall time may reach the recorder, never stdout.
//!
//! Regenerate the goldens after an *intentional* output change with
//! `BLESS=1 cargo test -p alexa-bench --test golden_report`.

#![expect(
    clippy::disallowed_types,
    clippy::expect_used,
    reason = "one test drives the repro binary as a child process, and test helpers fail the test by panicking"
)]

use alexa_audit::{AuditConfig, AuditRun};
use alexa_bench::{render_all, ARTIFACTS};
use alexa_fault::FaultProfile;
use alexa_obs::Recorder;
use std::process::{Command, Stdio};

/// What `repro --seed N all` writes to stdout: every artifact in paper
/// order, each followed by the `println!` newline.
fn repro_all_stdout(seed: u64, jobs: usize) -> String {
    let obs = AuditRun::execute(AuditConfig::paper(seed).with_jobs(Some(jobs)));
    let rec = Recorder::disabled();
    let mut out = String::new();
    for artifact in render_all(
        &obs,
        ARTIFACTS,
        seed,
        Some(jobs),
        &FaultProfile::none(),
        &rec,
    ) {
        out.push_str(&artifact);
        out.push('\n');
    }
    out
}

fn check_seed(seed: u64, golden: &str, golden_path: &str) {
    let sequential = repro_all_stdout(seed, 1);
    for jobs in [4, 8] {
        let parallel = repro_all_stdout(seed, jobs);
        assert_eq!(
            sequential, parallel,
            "seed {seed}: report bytes differ between --jobs 1 and --jobs {jobs}"
        );
    }
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(golden_path, &sequential).expect("write golden");
        return;
    }
    assert_eq!(
        sequential, golden,
        "seed {seed}: report drifted from {golden_path} \
         (BLESS=1 regenerates after an intentional change)"
    );
}

#[test]
fn report_seed7_matches_golden_across_jobs() {
    check_seed(
        7,
        include_str!("golden/report_seed7.txt"),
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/report_seed7.txt"),
    );
}

#[test]
fn report_seed1234_matches_golden_across_jobs() {
    check_seed(
        1234,
        include_str!("golden/report_seed1234.txt"),
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/report_seed1234.txt"
        ),
    );
}

#[test]
fn report_seed2222_matches_golden_across_jobs() {
    check_seed(
        2222,
        include_str!("golden/report_seed2222.txt"),
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/report_seed2222.txt"
        ),
    );
}

/// The observed path: `repro --trace` times every stage and leaf library
/// (Mann–Whitney tests, crawler visits) on the global recorder with the
/// real clock, and its stdout must still be the unobserved golden.
#[test]
fn traced_repro_stdout_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--seed", "7", "--jobs", "8", "--trace", "all"])
        .stderr(Stdio::null())
        .output()
        .expect("run repro");
    assert_eq!(out.status.code(), Some(0));
    assert!(
        out.stdout == include_bytes!("golden/report_seed7.txt"),
        "traced `repro --seed 7 --jobs 8 all` stdout drifted from \
         tests/golden/report_seed7.txt"
    );
}

/// Pins the folded work profile of a **rendered** small(7) run: unlike the
/// execution-only golden in `crates/audit`, this one covers `index.build`,
/// `derive.defended`, `index.defended` and — the point of the exercise —
/// per-artifact `render.all;artifact;<name>;render` frames, so render cost
/// attribution can never silently regress to zero again.
#[test]
fn rendered_profile_matches_golden_with_per_artifact_attribution() {
    let rec = Recorder::new();
    let obs = AuditRun::execute_with(AuditConfig::small(7), &rec);
    render_all(&obs, ARTIFACTS, 7, None, &FaultProfile::none(), &rec);
    let got = rec.report().folded_profile();

    for artifact in ["table1", "figure3", "defenses"] {
        assert!(
            got.lines()
                .any(|l| l.starts_with(&format!("render.all;artifact;{artifact};render "))),
            "no render work attributed to artifact {artifact}:\n{got}"
        );
    }

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/profile_render_seed7.folded"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    assert_eq!(
        got,
        include_str!("golden/profile_render_seed7.folded"),
        "rendered profile drifted from {path} \
         (BLESS=1 regenerates after an intentional change)"
    );
}
