//! Traffic forensics on archived captures.
//!
//! The paper releases its network captures for independent re-analysis.
//! This example demonstrates that pathway: run an audit, archive one
//! persona's router captures in the trace format, read the archive back,
//! and analyze the flows from disk alone.
//!
//! ```sh
//! cargo run --release --example traffic_forensics
//! ```

#![expect(
    clippy::expect_used,
    reason = "an example reads best as straight-line code; a failed trace round trip is a bug worth a panic"
)]

use alexa_audit::{AuditConfig, AuditRun};
use alexa_net::{
    aggregate_flows, read_trace, top_by_bytes, write_trace, FilterList, OrgMap, AMAZON,
};

fn main() {
    let obs = AuditRun::execute(AuditConfig::small(42));
    let persona = "Fashion & Style";
    let captures = &obs.router_captures[persona];

    // Archive to the trace format (what a data release would ship).
    let archive = write_trace(captures);
    println!(
        "Archived {} capture sessions ({} lines, {} bytes) for {persona}.",
        captures.len(),
        archive.lines().count(),
        archive.len()
    );

    // Re-read from the archive and analyze from disk alone.
    let restored = read_trace(&archive).expect("well-formed archive");
    assert_eq!(restored.len(), captures.len());
    let stats = aggregate_flows(&restored);

    let orgs = OrgMap::new();
    let fl = FilterList::new();
    println!("\nTop endpoints by byte volume:");
    println!(
        "{:<50} {:>8} {:>10} {:>9} {:>5}",
        "endpoint", "packets", "bytes", "sessions", "A&T"
    );
    for (domain, s) in top_by_bytes(&stats, 15) {
        println!(
            "{:<50} {:>8} {:>10} {:>9} {:>5}",
            domain.as_str(),
            s.packets(),
            s.bytes(),
            s.sessions,
            if fl.is_ad_tracking(domain) { "yes" } else { "" }
        );
    }

    let (at_bytes, total_bytes) = stats.iter().fold((0usize, 0usize), |(at, total), (d, s)| {
        (
            at + if fl.is_ad_tracking(d) { s.bytes() } else { 0 },
            total + s.bytes(),
        )
    });
    println!(
        "\nA&T byte share: {:.2}% of {total_bytes} bytes.",
        100.0 * at_bytes as f64 / total_bytes.max(1) as f64
    );
    let third_party = stats
        .keys()
        .filter(|d| orgs.org_of(d) != Some(AMAZON))
        .count();
    println!(
        "Endpoints: {} total, {} non-Amazon.",
        stats.len(),
        third_party
    );
}
