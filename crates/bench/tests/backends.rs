//! End-to-end tests of the worker backends (DESIGN.md §15).
//!
//! Three contracts, each exercised through the real `repro` binary
//! (`CARGO_BIN_EXE_repro`) so the process backend spawns genuine
//! `--shard-worker` children:
//!
//! * **byte-identity** — the thread and process backends commit
//!   byte-identical cell bundles for every `(seed, fault profile)`, proven
//!   over seeds 7/1234/2222 × {none, flaky};
//! * **worker death** — a worker killed mid-shard degrades that shard into
//!   the coverage ledger and the run exits 3 with the report rendered;
//! * **worker hang** — a stalled worker is cut off by the wall-clock
//!   timeout instead of hanging the parent.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// A fresh scratch directory unique to this test invocation.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alexa-backends-{}-{test}", std::process::id()));
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

/// Seeds 7/1234/2222 × {none, flaky} run under both backends must commit
/// byte-identical bundles. The
/// campaign runner's own `verify` pass already enforces instance equality
/// of `metrics.json`; this test additionally compares **every** bundle
/// file byte for byte.
#[test]
fn backends_commit_byte_identical_bundles_across_seeds_and_faults() {
    let dir = scratch("matrix");
    let plan = dir.join("backends.json");
    std::fs::write(
        &plan,
        r#"{"schema": 1, "name": "backends", "scale": "small", "seeds": [7, 1234, 2222], "faults": ["none", "flaky"], "defenses": ["none"], "jobs": [2], "backends": ["thread", "process"], "repeats": 1}"#,
    )
    .expect("write plan");
    let camp = dir.join("out");
    let out = repro()
        .args(["campaign", plan.to_str().expect("utf8 path"), "--out"])
        .arg(&camp)
        .output()
        .expect("run repro campaign");
    assert!(
        out.status.success(),
        "campaign failed:\n{}\n{}",
        stdout(&out),
        stderr(&out)
    );
    assert!(
        stdout(&out).contains("12 cell(s) — 12 executed, 0 skipped, 0 degraded"),
        "unexpected cell accounting:\n{}",
        stdout(&out)
    );
    for seed in [7u64, 1234, 2222] {
        for fault in ["none", "flaky"] {
            let thread_dir = camp
                .join("cells")
                .join(format!("s{seed}-f{fault}-dnone-j2-r0"));
            let thread = snapshot(&thread_dir);
            assert!(
                !thread.is_empty(),
                "thread bundle missing for seed {seed} fault {fault}"
            );
            let process = snapshot(&PathBuf::from(format!("{}-bprocess", thread_dir.display())));
            assert_eq!(
                thread.keys().collect::<Vec<_>>(),
                process.keys().collect::<Vec<_>>(),
                "seed {seed} fault {fault}: process bundle has different files"
            );
            for (name, bytes) in &thread {
                assert!(
                    process.get(name) == Some(bytes),
                    "seed {seed} fault {fault}: {name} differs between thread and process"
                );
            }
        }
    }
}

/// A worker killed mid-shard (simulated via the `REPRO_WORKER_CRASH` test
/// hook) must degrade that shard — never panic the parent: the run exits 3,
/// says so on stderr, and still renders the requested artifact.
#[test]
fn killed_worker_degrades_the_run_to_exit_3() {
    let out = repro()
        .args([
            "--backend",
            "process",
            "--seed",
            "7",
            "--jobs",
            "2",
            "table1",
        ])
        .env("REPRO_WORKER_CRASH", "persona/3")
        .output()
        .expect("run repro");
    assert_eq!(
        out.status.code(),
        Some(3),
        "expected degraded exit:\n{}",
        stderr(&out)
    );
    assert!(
        stderr(&out).contains("run degraded"),
        "stderr should explain the degradation:\n{}",
        stderr(&out)
    );
    assert!(
        stdout(&out).contains("Table 1"),
        "the report must still render:\n{}",
        stdout(&out)
    );
}

/// A hung worker (simulated via `REPRO_WORKER_STALL`, sleeping far past any
/// reasonable budget) is cut off by `--worker-timeout-ms`: the run finishes
/// promptly with the shard degraded instead of hanging on the pipe.
#[test]
fn stalled_worker_is_timed_out_within_the_configured_budget() {
    let started = std::time::Instant::now();
    let out = repro()
        .args([
            "--backend",
            "process",
            "--seed",
            "7",
            "--jobs",
            "2",
            "--worker-timeout-ms",
            "500",
            "table1",
        ])
        .env("REPRO_WORKER_STALL", "avs/1")
        .env("REPRO_WORKER_STALL_MS", "120000")
        .output()
        .expect("run repro");
    assert_eq!(
        out.status.code(),
        Some(3),
        "expected degraded exit:\n{}",
        stderr(&out)
    );
    assert!(
        started.elapsed() < std::time::Duration::from_secs(60),
        "run took {:?} — the stalled worker was not timed out",
        started.elapsed()
    );
}

/// `--backend` rejects unknown names with the usage exit code, not a panic.
#[test]
fn unknown_backend_is_a_usage_error() {
    for name in ["quantum", "mock-remote"] {
        let out = repro()
            .args(["--backend", name, "--seed", "7", "table1"])
            .output()
            .expect("run repro");
        assert_eq!(out.status.code(), Some(2), "--backend {name}");
        assert!(
            stderr(&out).contains("unknown backend"),
            "stderr should name the problem:\n{}",
            stderr(&out)
        );
    }
}
