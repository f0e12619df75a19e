//! Bid forensics: the full RQ2 evidence chain — bid distributions,
//! holiday-season control, significance tests, cookie-sync recovery, and
//! partner vs non-partner bids.
//!
//! ```sh
//! cargo run --release --example bid_forensics
//! ```

#![expect(
    clippy::unwrap_used,
    reason = "an example reads best as straight-line code; a missing row is a bug worth a panic"
)]

use alexa_audit::analysis::{bids, partners, significance};
use alexa_audit::{AnalysisIndex, AuditConfig, AuditRun};

fn main() {
    let obs = AuditRun::execute(AuditConfig::small(42));
    let ix = AnalysisIndex::build(&obs);

    println!("{}", bids::table5(&ix).render());
    println!("{}", bids::table6(&ix).render());
    println!("{}", bids::figure3(&ix).render());
    println!("{}", significance::table7(&ix).render());

    let sync = partners::sync_analysis(&ix);
    println!("{}", sync.render());
    println!("{}", partners::table10(&ix).render());
    println!("{}", partners::figure6(&ix).render());

    println!("{}", significance::table11(&ix).render());
    println!("{}", bids::figure7(&ix).render());

    // The headline inference: does skill interaction raise bids?
    let t5 = bids::table5(&ix);
    let (vm, _) = t5.get("Vanilla").unwrap();
    let above = t5
        .rows
        .iter()
        .filter(|r| r.0 != "Vanilla" && r.1 > vm)
        .count();
    println!("\nConclusion: {above}/9 interest personas receive higher median bids than vanilla;");
    println!(
        "{} advertisers sync cookies with Amazon and propagate to {} downstream parties.",
        sync.amazon_partners.len(),
        sync.downstream_parties.len()
    );
}
