//! The observability name registry (`alexa_obs::names::REGISTRY`) against
//! the names the runs actually emit.
//!
//! The test runs what `repro` runs — `repro all` under the `none`, `flaky`
//! and `hostile` profiles, and a one-cell campaign executed fresh and then
//! resumed — with an enabled recorder installed globally, so leaf libraries
//! (stats, the crawler) report too. It collects every name those runs put
//! in a ledger: stage names, shard groups and stages, span names, shard
//! counters, aggregates, volatile keys and coverage sections. Then:
//!
//! 1. every collected name is registered;
//! 2. every `fault.<x>` name has `x` a fault channel label or a ledger
//!    total (`injected`, `retries`, `losses`);
//! 3. every registered name is collected, except those in [`NOT_EMITTED`].
//!
//! One `#[test]` in its own binary: the global recorder is process-wide.

use alexa_audit::{AuditConfig, AuditRun};
use alexa_bench::{campaign, render_artifacts, ARTIFACTS};
use alexa_fault::{FaultChannel, FaultProfile};
use alexa_obs::names::{is_registered, REGISTRY};
use alexa_obs::{Recorder, Report};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

/// Registered names that no run here emits, sorted.
const NOT_EMITTED: &[&str] = &[
    // The crawler counts dropped bids under this name, but `AuditRun` gives
    // its crawler no fault plane yet, so no profile drops a bid.
    "fault.bid_loss",
];

/// The `fault.*` suffixes that are ledger totals rather than channels.
const FAULT_TOTALS: &[&str] = &["injected", "retries", "losses"];

/// A one-cell campaign at small scale.
const PLAN: &str = r#"{"schema": 1, "name": "obs-names", "scale": "small", "seeds": [7], "faults": ["none"], "jobs": [1]}"#;

/// Every name `report` holds.
fn collect(report: &Report, names: &mut BTreeSet<String>) {
    names.extend(report.stages.iter().map(|s| s.name.clone()));
    for shard in &report.shards {
        names.insert(shard.group.clone());
        if !shard.stage.is_empty() {
            names.insert(shard.stage.clone());
        }
        names.extend(shard.spans.iter().map(|s| s.name.clone()));
        names.extend(shard.counters.keys().cloned());
    }
    names.extend(report.aggregates.keys().cloned());
    names.extend(report.volatile.keys().cloned());
}

/// A fresh enabled recorder, installed as the process-wide one.
fn install() -> Arc<Recorder> {
    let rec = Arc::new(Recorder::new());
    alexa_obs::install_global(rec.clone());
    rec
}

#[test]
fn emitted_names_match_the_registry() {
    let mut names = BTreeSet::new();

    for profile in ["none", "flaky", "hostile"] {
        let rec = install();
        let fault: FaultProfile = profile.parse().expect("fault preset");
        let config = AuditConfig::paper(7).with_faults(fault);
        let (obs, firewall) = AuditRun::execute_with_firewall_shadow(config, &rec);
        render_artifacts(&obs, ARTIFACTS, None, firewall, &rec);
        collect(&rec.report(), &mut names);
        names.extend(obs.coverage.sections.keys().cloned());
    }

    // Fresh, then resumed: the second pass skips the cell (`cell.skipped`).
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs-names");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let plan = dir.join("plan.json");
    std::fs::write(&plan, PLAN).expect("write plan");
    for _ in 0..2 {
        let rec = install();
        campaign::run_campaign(&plan, Some(&dir.join("campaign")), &rec).expect("campaign runs");
        collect(&rec.report(), &mut names);
    }

    let unregistered: Vec<&String> = names.iter().filter(|n| !is_registered(n)).collect();
    assert!(
        unregistered.is_empty(),
        "emitted names missing from crates/obs/src/names.rs: {unregistered:?}"
    );

    let channels: Vec<&str> = FaultChannel::ALL.iter().map(FaultChannel::label).collect();
    let stray_faults: BTreeSet<&str> = names
        .iter()
        .map(String::as_str)
        .chain(REGISTRY.iter().copied())
        .filter(|n| {
            n.strip_prefix("fault.")
                .is_some_and(|x| !channels.contains(&x) && !FAULT_TOTALS.contains(&x))
        })
        .collect();
    assert!(
        stray_faults.is_empty(),
        "fault names that are neither a channel label nor a ledger total: {stray_faults:?}"
    );

    let unemitted: Vec<&str> = REGISTRY
        .iter()
        .copied()
        .filter(|n| !names.contains(*n))
        .collect();
    assert_eq!(
        unemitted, NOT_EMITTED,
        "registered names that no run emits (delete them, or list them with a reason)"
    );
}
