//! Under a fault profile the `defenses` artifact takes its firewall row from
//! a shadow tap inside the one baseline run, so a faulted `all` peaks close
//! to a fault-free one. A shadow that kept full plaintext copies, or any
//! defended run held next to the baseline, would show here.

#![expect(
    clippy::disallowed_types,
    clippy::expect_used,
    reason = "the tests drive the repro binary as a child process, and their helpers fail the test by panicking"
)]

use alexa_obs::Json;
use std::process::{Command, Stdio};

/// The largest stage `peak_rss_kb` of `repro --seed 7 [extra] all`, from
/// its `--metrics-out` file.
fn peak_rss_kb(extra: &[&str], tag: &str) -> u64 {
    let metrics = std::env::temp_dir().join(format!(
        "repro-memory-bound-{}-{tag}.json",
        std::process::id()
    ));
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
