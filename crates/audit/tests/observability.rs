//! The observability layer's determinism contract: tracing is invisible in
//! the observable record, and the trace itself is structurally deterministic
//! across worker counts.

use alexa_audit::{AuditConfig, AuditRun};
use alexa_obs::Recorder;

#[test]
fn tracing_does_not_change_the_digest() {
    let untraced = AuditRun::execute(AuditConfig::small(7));
    let rec = Recorder::new();
    let traced = AuditRun::execute_with(AuditConfig::small(7), &rec);
    assert_eq!(
        untraced.digest(),
        traced.digest(),
        "enabling the recorder changed the observable record"
    );
}

#[test]
fn report_covers_every_stage_and_shard() {
    let rec = Recorder::new();
    AuditRun::execute_with(AuditConfig::small(5), &rec);
    let report = rec.report();

    for stage in [
        "marketplace",
        "avs.pass",
        "web.ecosystem",
        "persona.shards",
        "merge",
        "policy.download",
    ] {
        assert!(report.stage(stage).is_some(), "missing stage {stage}");
    }

    // All 13 persona shards, keyed by their fixed Persona::all index.
    let personas = report.shards_in("persona");
    assert_eq!(personas.len(), 13);
    assert_eq!(personas[0].label, "Connected Car");
    assert_eq!(personas[12].label, "Web Computers");
    for shard in &personas {
        assert!(
            shard.counter("crawl.visits") > 0,
            "{}: no crawl visits",
            shard.label
        );
        assert!(
            shard.spans.iter().any(|s| s.name == "crawl.post"),
            "{}: missing crawl.post span",
            shard.label
        );
    }
    // Echo personas capture flows through the router tap; web personas
    // never own a device.
    let connected_car = &personas[0];
    assert!(connected_car.counter("tap.flows") > 0);
    assert!(connected_car.counter("crawl.bids") > 0);
    assert_eq!(
        personas[10].counter("tap.flows"),
        0,
        "web persona saw tap flows"
    );

    // One AVS shard per skill category.
    assert_eq!(report.shards_in("avs").len(), 9);

    // Leaf-library aggregates only flow through the *global* recorder (the
    // repro binary installs one); a locally attached recorder must still
    // have the pipeline's own counts.
    assert!(report.aggregates.contains_key("policy.documents"));
}

#[test]
fn every_shard_accumulates_work_and_attributes_it_to_its_stage() {
    let rec = Recorder::new();
    AuditRun::execute_with(AuditConfig::small(5), &rec);
    let report = rec.report();
    for shard in report.shards_in("persona") {
        assert!(shard.work > 0, "{}: zero work units", shard.label);
        assert_eq!(shard.stage, "persona.shards", "{}", shard.label);
    }
    for shard in report.shards_in("avs") {
        assert!(shard.work > 0, "avs {}: zero work units", shard.label);
        assert_eq!(shard.stage, "avs.pass", "avs {}", shard.label);
    }
    // Stage work is the sum of its shards' virtual clocks.
    let persona_work: u64 = report.shards_in("persona").iter().map(|s| s.work).sum();
    let stage = report.stage("persona.shards").expect("stage recorded");
    assert_eq!(stage.work, persona_work);
    // Summaries and histograms cover both shard groups.
    let summaries = report.work_summaries();
    assert_eq!(summaries["persona"].count, 13);
    assert_eq!(summaries["avs"].count, 9);
    assert!(summaries["persona"].p50 > 0);
    assert!(summaries["persona"].p50 <= summaries["persona"].p99);
    let hists = report.work_histograms();
    assert_eq!(hists["persona"].total(), 13);
    assert!(hists.contains_key("persona:install"));
    assert!(hists.contains_key("avs:skills"));
}

/// The run-ledger bundle documents — trace and memory — and the folded
/// profile derived from them must be **byte-identical** across worker
/// counts, not merely structurally equal: they are built exclusively from
/// the deterministic virtual work clock and the allocation meter.
#[test]
fn ledger_surfaces_are_byte_identical_across_worker_counts() {
    let surfaces = |jobs: usize| {
        let rec = Recorder::new();
        AuditRun::execute_with(AuditConfig::small(7).with_jobs(Some(jobs)), &rec);
        let report = rec.report();
        (
            report.ledger_trace_json().render(),
            report.ledger_memory_json().render(),
            report.folded_profile(),
        )
    };
    let (trace1, memory1, profile1) = surfaces(1);
    let (trace4, memory4, profile4) = surfaces(4);
    assert_eq!(trace1, trace4, "trace.json differs across worker counts");
    assert_eq!(memory1, memory4, "memory.json differs across worker counts");
    assert_eq!(
        profile1, profile4,
        "the folded profile differs across worker counts"
    );
}

/// Pins the exact folded profile of `AuditConfig::small(7)`. A diff here
/// means the work-unit accounting changed — intentional changes must
/// regenerate the golden file (instructions inside it... it is plain text:
/// write `report.folded_profile()` for `small(7)` over it).
#[test]
fn folded_profile_matches_the_golden_file() {
    let rec = Recorder::new();
    AuditRun::execute_with(AuditConfig::small(7), &rec);
    let got = rec.report().folded_profile();
    let want = include_str!("golden/profile_seed7.folded");
    assert_eq!(
        got, want,
        "folded profile drifted from tests/golden/profile_seed7.folded"
    );
}

// Small helper so the assertions above read naturally.
trait CounterExt {
    fn counter(&self, name: &str) -> u64;
}

impl CounterExt for alexa_obs::ShardReport {
    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}
