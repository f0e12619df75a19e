//! Quickstart: run a reduced-scale audit end to end and print the headline
//! findings for each research question.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![expect(
    clippy::unwrap_used,
    reason = "an example reads best as straight-line code; a missing row is a bug worth a panic"
)]

use alexa_audit::analysis::{bids, policy, profiling, significance, traffic};
use alexa_audit::{AnalysisIndex, AuditConfig, AuditRun, Persona};

fn main() {
    // A reduced configuration keeps the quickstart fast; use
    // `AuditConfig::paper(seed)` for the full-scale reproduction.
    let config = AuditConfig::small(42);
    println!("Running audit (seed {}) ...\n", config.seed);
    let obs = AuditRun::execute(config);
    let ix = AnalysisIndex::build(&obs);

    // RQ1 — who collects data?
    let t1 = traffic::table1(&ix);
    println!(
        "RQ1: {} skills contacted Amazon, {} their own vendor, {} third parties ({} failed).",
        t1.skills_amazon, t1.skills_vendor, t1.skills_third_party, t1.skills_failed
    );
    let t2 = traffic::table2(&ix, traffic::KEEP_ALL);
    println!(
        "     {:.1}% of all traffic is advertising & tracking.",
        100.0 * t2.total_ad_tracking
    );

    // RQ2 — is interaction data used for targeting?
    let t5 = bids::table5(&ix);
    let (vanilla_median, _) = t5.get(Persona::Vanilla).unwrap();
    let best = t5
        .rows
        .iter()
        .filter(|r| r.0 != Persona::Vanilla)
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    println!(
        "\nRQ2: vanilla median CPM {:.3}; highest interest persona: {} at {:.3} ({:.1}x).",
        vanilla_median,
        best.0,
        best.1,
        best.1 / vanilla_median
    );
    let t7 = significance::table7(&ix);
    println!(
        "     personas bidding significantly above vanilla: {:?}",
        t7.significant()
    );
    let sync = &ix.sync;
    println!(
        "     {} advertisers sync cookies with Amazon; {} downstream third parties.",
        sync.amazon_partners.len(),
        sync.downstream_parties.len()
    );
    let t12 = profiling::table12(&ix);
    println!(
        "     Amazon inferred interests for {} persona/phase combinations; files missing for {:?}.",
        t12.rows.len(),
        t12.missing_files
    );

    // RQ3 — policy compliance.
    let stats = policy::policy_stats(&ix);
    println!(
        "\nRQ3: {}/{} skills link a policy, {} retrievable, {} mention Amazon/Alexa.",
        stats.with_link, stats.total, stats.retrievable, stats.mention_platform
    );
    let v = policy::validation(&ix);
    println!(
        "     PoliCheck validation: micro F1 {:.1}%, macro F1 {:.1}%.",
        100.0 * v.micro.f1,
        100.0 * v.macro_avg.f1
    );

    println!(
        "\nFor every table and figure, run: cargo run --release -p alexa-bench --bin repro -- all"
    );
}
