//! Peak RSS bounds.
//!
//! Under a fault profile the `defenses` artifact takes its firewall row from
//! a shadow tap inside the one baseline run, so a faulted `all` peaks close
//! to a fault-free one. A shadow that kept full plaintext copies, or any
//! defended run held next to the baseline, would show here. A campaign runs
//! its cells one after another in one process, so it peaks close to one
//! cell: memory a finished cell leaves in the allocator would show here.

#![expect(
    clippy::disallowed_types,
    clippy::expect_used,
    reason = "the tests drive the repro binary as a child process, and their helpers fail the test by panicking"
)]

use alexa_obs::Json;
use std::path::Path;
use std::process::{Command, Stdio};

/// The largest stage `peak_rss_kb` of `repro --seed 7 [extra] all`, from
/// its `--metrics-out` file.
fn peak_rss_kb(extra: &[&str], tag: &str) -> u64 {
    let metrics =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("repro-memory-bound-{tag}.json"));
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--seed", "7", "--jobs", "1", "--metrics-out"])
        .arg(&metrics)
        .args(extra)
        .arg("all")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn repro");
    assert!(
        matches!(status.code(), Some(0 | 3)),
        "repro {extra:?} exited with {status}"
    );
    let text = std::fs::read_to_string(&metrics).expect("read metrics");
    let _ = std::fs::remove_file(&metrics);
    let json = Json::parse(&text).expect("metrics parse");
    json.get("stages")
        .and_then(Json::as_arr)
        .expect("metrics carry stages")
        .iter()
        .filter_map(|s| s.get("peak_rss_kb").and_then(Json::as_u64))
        .max()
        .expect("a stage with peak_rss_kb")
}

#[test]
fn flaky_run_peaks_close_to_fault_free() {
    let fault_free = peak_rss_kb(&[], "none");
    let flaky = peak_rss_kb(&["--fault-profile", "flaky"], "flaky");
    assert!(
        flaky * 4 <= fault_free * 5,
        "flaky peak {flaky} kB exceeds 1.25x the fault-free peak {fault_free} kB"
    );
}

/// The per-cell `[peak rss N kB]` figures of a `repro campaign` status
/// report, in plan order.
fn cell_peaks_kb(stdout: &str) -> Vec<u64> {
    stdout
        .lines()
        .filter_map(|line| line.split_once("[peak rss ")?.1.strip_suffix(" kB]"))
        .map(|kb| kb.parse().expect("peak rss figure"))
        .collect()
}

/// Cells that fan out on worker threads leave freed memory in those
/// threads' heap arenas; unless it goes back to the OS between cells, the
/// resident set climbs with each cell that runs on other threads.
#[test]
fn campaign_memory_does_not_accumulate_across_cells() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("memory-bound-campaign");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let plan = dir.join("plan.json");
    std::fs::write(
        &plan,
        r#"{"schema": 1, "name": "memory", "scale": "paper", "seeds": [7], "faults": ["none"], "defenses": ["none", "firewall"], "jobs": [1, 2]}"#,
    )
    .expect("write plan");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("campaign")
        .arg(&plan)
        .arg("--out")
        .arg(dir.join("campaign"))
        .stderr(Stdio::null())
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(0), "repro campaign failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let peaks = cell_peaks_kb(&stdout);
    let _ = std::fs::remove_dir_all(&dir);
    let Some((&first, rest)) = peaks.split_first() else {
        return; // no peak RSS on this platform
    };
    assert_eq!(rest.len(), 3, "one peak per executed cell:\n{stdout}");
    let largest = rest.iter().copied().max().unwrap_or(first);
    assert!(
        largest * 4 <= first * 5,
        "campaign peak {largest} kB exceeds 1.25x the first cell's {first} kB:\n{stdout}"
    );
}
