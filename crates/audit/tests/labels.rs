//! The crawl's label interner at paper scale, in a process of its own.
//!
//! Crawl labels live in one process-wide table (`alexa_adtech::Label`).
//! The first run in a process fills it; later runs reuse it. Neither may
//! show in the allocation ledger, which must stay a pure function of the
//! seed, and the vocabulary must not depend on the seed at all. This file
//! holds a single test so that its first run really meets an empty table.

use alexa_adtech::Label;
use alexa_audit::{AuditConfig, AuditRun};
use alexa_obs::Recorder;

/// The `alloc.*` aggregates (count, calls) and the memory ledger of one
/// paper-scale run, plus the label-table size after it.
fn run(seed: u64, jobs: usize) -> (Vec<(u64, u64)>, String, usize) {
    let rec = Recorder::new();
    AuditRun::execute_with(AuditConfig::paper(seed).with_jobs(Some(jobs)), &rec);
    let report = rec.report();
    let aggregates = ["alloc.count", "alloc.bytes", "alloc.peak_bytes"]
        .iter()
        .map(|name| {
            let a = report.aggregates.get(*name).copied().unwrap_or_default();
            (a.count, a.calls)
        })
        .collect();
    (
        aggregates,
        report.ledger_memory_json().render(),
        Label::count(),
    )
}

#[test]
fn labels_never_reach_the_alloc_ledger_and_do_not_depend_on_the_seed() {
    let (first_alloc, first_memory, labels) = run(7, 1);
    assert!(first_alloc[1].0 > 0, "the meter saw no allocation");
    // The first run interned every label; a repeat at another worker count
    // finds them all and must meter exactly the same allocations.
    let (again_alloc, again_memory, labels_again) = run(7, 2);
    assert_eq!(first_alloc, again_alloc);
    assert!(first_memory == again_memory, "memory ledger differs");
    assert_eq!(labels, labels_again);
    // Another seed crawls other sites and slots, all from the same
    // vocabulary: the table does not grow.
    let (_, _, labels_other_seed) = run(1234, 2);
    assert_eq!(labels, labels_other_seed, "label table grew for a new seed");
}
