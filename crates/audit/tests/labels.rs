//! The crawl's intern tables at paper scale, in a process of their own.
//!
//! Crawl labels live in one process-wide table (`alexa_adtech::Label`),
//! and the crawl's repeated label tuples in two more: bid keys
//! (`alexa_adtech::BidKey`, a bid's bidder and slot) and sync triples
//! (`alexa_adtech::SyncObservation`). The first run in a process fills
//! them; later runs reuse them. None of that may show in the allocation
//! ledger, which must stay a pure function of the seed. The text vocabulary
//! must not depend on the seed at all, and a tuple table grows by at most
//! the distinct tuples a run's crawl records. This file holds a single test
//! so that its first run really meets empty tables.

use alexa_adtech::{BidKey, Label, SyncObservation};
use alexa_audit::{AuditConfig, AuditRun};
use alexa_obs::Recorder;
use std::collections::BTreeSet;

/// The sizes of the three tables: labels, bid keys, sync triples.
fn tables() -> [usize; 3] {
    [Label::count(), BidKey::count(), SyncObservation::count()]
}

/// One paper-scale run.
struct Run {
    /// The `alloc.*` aggregates (count, calls).
    alloc: Vec<(u64, u64)>,
    /// The memory ledger.
    memory: String,
    /// The table sizes after the run.
    tables: [usize; 3],
    /// The distinct bid keys and sync triples the crawl recorded.
    recorded: [usize; 2],
}

fn run(seed: u64, jobs: usize) -> Run {
    let rec = Recorder::new();
    let obs = AuditRun::execute_with(AuditConfig::paper(seed).with_jobs(Some(jobs)), &rec);
    let report = rec.report();
    let alloc = ["alloc.count", "alloc.bytes", "alloc.peak_bytes"]
        .iter()
        .map(|name| {
            let a = report.aggregates.get(*name).copied().unwrap_or_default();
            (a.count, a.calls)
        })
        .collect();
    let visits = || obs.crawl.values().flatten();
    let keys: BTreeSet<usize> = visits()
        .flat_map(|v| &v.bids)
        .map(|b| b.key().id())
        .collect();
    let syncs: BTreeSet<usize> = visits().flat_map(|v| &v.syncs).map(|s| s.id()).collect();
    Run {
        alloc,
        memory: report.ledger_memory_json().render(),
        tables: tables(),
        recorded: [keys.len(), syncs.len()],
    }
}

#[test]
fn labels_never_reach_the_alloc_ledger_and_do_not_depend_on_the_seed() {
    let [_, keys_before, syncs_before] = tables();
    assert_eq!(
        (keys_before, syncs_before),
        (0, 0),
        "tuple tables start empty"
    );
    let first = run(7, 1);
    assert!(first.alloc[1].0 > 0, "the meter saw no allocation");
    // The first run interned every tuple its crawl recorded.
    let [_, keys, syncs] = first.tables;
    let [recorded_keys, recorded_syncs] = first.recorded;
    assert!(recorded_keys > 0 && recorded_syncs > 0);
    assert!(
        keys >= recorded_keys,
        "{keys} bid keys, {recorded_keys} recorded"
    );
    assert!(
        syncs >= recorded_syncs,
        "{syncs} sync triples, {recorded_syncs} recorded"
    );
    // A repeat at another worker count finds every label and tuple, and
    // must meter exactly the same allocations.
    let again = run(7, 2);
    assert_eq!(first.alloc, again.alloc);
    assert!(first.memory == again.memory, "memory ledger differs");
    assert_eq!(
        first.tables, again.tables,
        "a repeat run interned something"
    );
    // Another seed crawls other sites and slots, all from the same text
    // vocabulary: the label table does not grow. Each tuple table grows by
    // at most the distinct tuples the new crawl recorded.
    let other = run(1234, 2);
    assert_eq!(
        first.tables[0], other.tables[0],
        "label table grew for a new seed"
    );
    for (i, name) in [(1, "bid keys"), (2, "sync triples")] {
        let grown = other.tables[i] - first.tables[i];
        let recorded = other.recorded[i - 1];
        assert!(
            grown <= recorded,
            "{name}: the table grew by {grown}, the crawl recorded {recorded}"
        );
    }
}
