//! Deep-dive into a single interest persona: what its skills leaked, which
//! endpoints were contacted, and how the ad ecosystem responded.
//!
//! ```sh
//! cargo run --release --example persona_audit -- "Fashion & Style"
//! ```

#![expect(
    clippy::unwrap_used,
    reason = "an example reads best as straight-line code; a missing row is a bug worth a panic"
)]

use alexa_audit::analysis::{bids, creatives, significance, traffic};
use alexa_audit::{AnalysisIndex, AuditConfig, AuditRun, Persona};
use alexa_platform::SkillCategory;

fn main() {
    let wanted = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "Fashion & Style".to_string());
    let Some(category) = SkillCategory::ALL.iter().find(|c| c.label() == wanted) else {
        eprintln!("Unknown category {wanted:?}. Options:");
        for c in SkillCategory::ALL {
            eprintln!("  {}", c.label());
        }
        std::process::exit(1);
    };
    let persona = Persona::Interest(*category);

    let obs = AuditRun::execute(AuditConfig::small(42));
    let ix = AnalysisIndex::build(&obs);

    println!("=== Persona audit: {} ===\n", persona.name());

    // Network behaviour of this persona's skills.
    let per_skill = traffic::skill_traffic(&obs);
    let mine: Vec<_> = per_skill
        .iter()
        .filter(|t| t.persona == persona.name())
        .collect();
    println!(
        "{} skills produced traffic. Endpoints contacted:",
        mine.len()
    );
    let mut endpoints = std::collections::BTreeMap::new();
    for t in &mine {
        for e in &t.endpoints {
            *endpoints.entry(e.as_str().to_string()).or_insert(0usize) += 1;
        }
    }
    for (endpoint, n) in &endpoints {
        let org = obs
            .orgs
            .org_of(&alexa_net::Domain::parse(endpoint).unwrap())
            .unwrap_or("?");
        println!("  {endpoint:<55} {n:>3} skills  [{org}]");
    }

    // Bid response.
    let t5 = bids::table5(&ix);
    let (median, mean) = t5.get(&persona.name()).unwrap();
    let (vmedian, vmean) = t5.get("Vanilla").unwrap();
    println!(
        "\nBids (post-interaction, common slots): median {median:.3} vs vanilla {vmedian:.3} \
         ({:.1}x); mean {mean:.3} vs {vmean:.3}.",
        median / vmedian
    );
    let t7 = significance::table7(&ix);
    if let Some((p, r)) = t7.get(&persona.name()) {
        println!("Mann-Whitney U vs vanilla: p = {p:.3}, rank-biserial = {r:.3}.");
    }

    // Exclusive ads.
    let t8 = creatives::table8(&ix);
    let products = t8.products_for(&persona.name());
    if products.is_empty() {
        println!("No persona-exclusive Amazon ads observed.");
    } else {
        println!("Persona-exclusive Amazon ads: {products:?}");
    }
}
