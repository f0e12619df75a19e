//! The two execution paths of the `defenses` artifact.
//!
//! * **fault-free** — the defense lens reads the baseline index; the
//!   `derive.defended` and `index.defended` stages must still be recorded,
//!   because the traced benchmark fails an item when either is missing;
//! * **faulted** — tap faults key off post-firewall sequence numbers, so the
//!   firewall row comes from a shadow tap inside the one baseline run
//!   (`repro`), or from one shadowed baseline executed in
//!   `derive.defended` (`render_all`, for callers holding a plain run). The
//!   section is pinned byte for byte to a golden on both paths so neither
//!   can drift silently, and each stage must be recorded exactly once.
//!
//! Regenerate the golden after an *intentional* output change with
//! `BLESS=1 cargo test -p alexa-bench --test defenses`.

#![expect(
    clippy::disallowed_types,
    reason = "the tests drive the repro binary as a child process"
)]

use alexa_audit::{AuditConfig, AuditRun};
use alexa_bench::{render_all, render_artifacts, ARTIFACTS};
use alexa_fault::FaultProfile;
use alexa_obs::{Json, Recorder};
use std::path::Path;
use std::process::{Command, Stdio};

#[test]
fn fault_free_render_records_both_defense_stages() {
    let rec = Recorder::new();
    let obs = AuditRun::execute_with(AuditConfig::small(7), &rec);
    render_all(&obs, ARTIFACTS, 7, None, &FaultProfile::none(), &rec);
    let report = rec.report();
    for stage in [
        "index.build",
        "derive.defended",
        "index.defended",
        "render.all",
    ] {
        assert!(
            report.stage(stage).is_some(),
            "stage {stage} missing from a fault-free `all` render"
        );
    }
}

/// Assert that every stage of the `defenses` pass ran exactly once.
fn assert_defense_stages_once(rec: &Recorder, path: &str) {
    let report = rec.report();
    for stage in ["index.build", "derive.defended", "index.defended"] {
        let recorded = report.stages.iter().filter(|s| s.name == stage).count();
        assert_eq!(
            recorded, 1,
            "{path}: stage {stage} recorded {recorded} times under faults"
        );
    }
}

#[test]
fn flaky_defenses_section_matches_golden() {
    let fault = FaultProfile::flaky();
    let config = AuditConfig::paper(7)
        .with_faults(fault.clone())
        .with_jobs(Some(2));

    // `render_all` on a plain run: one shadowed baseline in `derive.defended`.
    let rec = Recorder::new();
    let obs = AuditRun::execute_with(config.clone(), &rec);
    let got = render_all(&obs, &["defenses"], 7, Some(2), &fault, &rec).concat();
    assert_defense_stages_once(&rec, "render_all");
    drop(obs);

    // `repro`'s path: the shadow rides along the one baseline run.
    let rec = Recorder::new();
    let (obs, firewall) = AuditRun::execute_with_firewall_shadow(config, &rec);
    assert!(
        firewall.is_some(),
        "a flaky run measures its firewall shadow"
    );
    let shadowed = render_artifacts(&obs, &["defenses"], Some(2), firewall, &rec).concat();
    assert_defense_stages_once(&rec, "execute_with_firewall_shadow");
    assert_eq!(got, shadowed, "the two faulted paths disagree");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/defenses_flaky_seed7.txt"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    assert_eq!(
        got,
        include_str!("golden/defenses_flaky_seed7.txt"),
        "flaky defenses section drifted from {path} \
         (BLESS=1 regenerates after an intentional change)"
    );
}

/// A faulted `repro all` executes the audit once: the crawler's leaf
/// aggregate counts exactly the visits of the run's own persona shards. A
/// re-executed defended run would feed the global recorder, but no shard.
#[test]
fn faulted_repro_all_executes_once() {
    let metrics = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-execute-once.json");
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--seed", "7", "--fault-profile", "flaky", "--metrics-out"])
        .arg(&metrics)
        .arg("all")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn repro");
    assert!(
        matches!(status.code(), Some(0 | 3)),
        "repro exited {status}"
    );
    let text = std::fs::read_to_string(&metrics).expect("read metrics");
    let _ = std::fs::remove_file(&metrics);
    let json = Json::parse(&text).expect("metrics parse");

    let aggregate = json
        .get("aggregates")
        .and_then(|a| a.get("crawler.visits"))
        .and_then(|a| a.get("count"))
        .and_then(Json::as_u64)
        .expect("crawler.visits aggregate");
    let shard_sum: u64 = json
        .get("shards")
        .and_then(Json::as_arr)
        .expect("metrics carry shards")
        .iter()
        .filter(|s| s.get("group").and_then(Json::as_str) == Some("persona"))
        .filter_map(|s| s.get("counters")?.get("crawl.visits")?.as_u64())
        .sum();
    assert!(shard_sum > 0, "no persona shard counted a crawl visit");
    assert_eq!(
        aggregate, shard_sum,
        "crawler.visits counts more than the persona shards crawled"
    );
}
