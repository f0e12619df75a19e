//! The single-source registry of observability names.
//!
//! Every span, stage, counter, shard group, coverage section and global
//! aggregate name used anywhere in the workspace must appear here, in
//! `dotted.lowercase` form. The `obs_names` test (`crates/bench/tests/`)
//! runs `repro all` under three fault profiles plus a small campaign and
//! fails when a name those runs emit is missing here, when a `fault.*` name
//! names no fault channel, or when an entry here is emitted by none of them
//! (one commented exception aside), so the registry cannot drift from the
//! code.
//!
//! Keep the list sorted — a unit test enforces it, which keeps merges
//! conflict-free and diffs reviewable.

/// All sanctioned observability names, sorted.
pub const REGISTRY: &[&str] = &[
    "alloc.bytes",             // aggregate: heap bytes in shard windows and metered stages
    "alloc.count",             // aggregate: heap allocations in shard windows and metered stages
    "alloc.peak_bytes",        // aggregate: summed per-shard windowed peak net-live bytes
    "artifact",                // shard group: report artifact renders
    "audio",                   // span: audio tap + transcript harvest
    "audio.transcripts",       // counter: voice transcripts harvested
    "avs",                     // shard group: AVS catalogue passes
    "avs.pass",                // stage: AVS skill-store sweep
    "avs.skills",              // coverage section: skills seen via AVS
    "boot",                    // span: device boot + profile setup
    "campaign.cells",          // stage: execute every plan cell
    "campaign.plan",           // stage: plan load + parse + conflict checks
    "campaign.tables",         // stage: derive analysis tables from cell bundles
    "campaign.verify",         // stage: cross-instance byte-equality verification
    "cell",                    // shard group: one campaign cell instance
    "cell.executed",           // counter: cells executed this invocation
    "cell.skipped",            // counter: cells skipped as already complete
    "crawl.bids",              // counter: bids captured across crawl visits
    "crawl.creatives",         // counter: ad creatives captured across crawl visits
    "crawl.post",              // span: web crawl after interactions
    "crawl.pre",               // span: web crawl before interactions
    "crawl.syncs",             // counter: cookie syncs captured across crawl visits
    "crawl.visits",            // counter + coverage section: crawl page visits
    "crawler.bids",            // aggregate: bids observed by the crawler
    "crawler.creatives",       // aggregate: ad creatives captured
    "crawler.syncs",           // aggregate: cookie syncs observed
    "crawler.visit",           // aggregate timer: one crawl visit
    "crawler.visits",          // aggregate: crawl visits completed
    "derive.defended",         // stage: defense lens (faults: firewall row from the shadow)
    "digest",                  // span: a campaign cell's observations digest
    "dsar.after_install",      // span: DSAR export after installs
    "dsar.after_interaction1", // span: DSAR export after first interaction round
    "dsar.after_interaction2", // span: DSAR export after second interaction round
    "dsar.exports",            // counter: DSAR exports harvested
    "fault.bid_loss",          // aggregate: bids dropped by the bid_loss channel
    "fault.injected",          // counter: faults injected (ledger total)
    "fault.losses",            // counter: permanent losses after retry budget
    "fault.retries",           // counter: retries consumed by faults
    "index.build",             // stage: shared analysis-index construction
    "index.defended",          // stage: bid uplift, once
    "install",                 // span: skill installation round
    "install.failed",          // counter: installs that failed permanently
    "interact",                // span: skill interaction round
    "marketplace",             // stage: marketplace generation
    "mem.peak_rss_kb",         // volatile: process peak RSS (VmHWM), schedule-dependent
    "merge",                   // stage: deterministic shard merge (+ firewall shadow measure)
    "persona",                 // shard group: per-persona pipeline shards
    "persona.shards",          // stage: per-persona experiment shards
    "policy.documents",        // counter: policy documents downloaded
    "policy.download",         // stage: policy document download pass
    "policy.downloads",        // coverage section: policy download coverage
    "render",                  // span: report rendering
    "render.all",              // stage: render all report artifacts
    "render.bytes",            // counter: bytes of rendered artifacts
    "skill.installs",          // coverage section: skill install coverage
    "skill.interactions",      // coverage section: skill interaction coverage
    "skills",                  // span: skill catalogue resolution
    "stats.mann_whitney_u",    // aggregate timer: Mann-Whitney U test
    "tap.bytes",               // counter: bytes seen by the network tap
    "tap.flows",               // counter: flows seen by the network tap
    "tap.sessions",            // counter: TLS sessions seen by the tap
    "web.ecosystem",           // stage: web ad-ecosystem construction
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for pair in REGISTRY.windows(2) {
            assert!(
                pair[0] < pair[1],
                "{:?} must sort before {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn registry_names_are_dotted_lowercase() {
        for name in REGISTRY {
            assert!(
                name.split('.').all(|seg| {
                    !seg.is_empty()
                        && seg.starts_with(|c: char| c.is_ascii_lowercase())
                        && seg
                            .chars()
                            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                }),
                "bad name shape: {name:?}"
            );
        }
    }

    #[test]
    fn lookup_works() {
        let is_registered = |name| REGISTRY.binary_search(&name).is_ok();
        assert!(is_registered("boot"));
        assert!(is_registered("stats.mann_whitney_u"));
        assert!(!is_registered("render-all"));
        assert!(!is_registered("mystery"));
    }
}
