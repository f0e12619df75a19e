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

use alexa_audit::analysis::bids;
use alexa_audit::{render_into, AnalysisIndex, AuditConfig, AuditRun, Persona};

fn main() {
    let obs = AuditRun::execute(AuditConfig::small(42));
    let ix = AnalysisIndex::build(&obs);

    // Every artifact streams into one report, a blank line after each.
    let mut report = String::new();
    for artifact in [
        "table5", "table6", "figure3", "table7", "sync", "table10", "figure6", "table11", "figure7",
    ] {
        render_into(&ix, artifact, &mut report).unwrap();
        report.push('\n');
    }
    print!("{report}");

    // The headline inference: does skill interaction raise bids?
    let t5 = bids::table5(&ix);
    let (vm, _) = t5.get(Persona::Vanilla).unwrap();
    let above = t5
        .rows
        .iter()
        .filter(|r| r.0 != Persona::Vanilla && r.1 > vm)
        .count();
    let sync = &ix.sync;
    println!("\nConclusion: {above}/9 interest personas receive higher median bids than vanilla;");
    println!(
        "{} advertisers sync cookies with Amazon and propagate to {} downstream parties.",
        sync.amazon_partners.len(),
        sync.downstream_parties.len()
    );
}
