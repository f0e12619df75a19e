//! The cookie-syncing graph.
//!
//! §5.5 of the paper observes that **41 third parties sync their cookies
//! with Amazon** (one-way: Amazon never syncs its own cookie out), and that
//! those partners **further sync with 247 other third parties**, propagating
//! user data deep into the ad ecosystem. This module plants that graph as
//! ground truth; the crawler emits matching sync redirects into the crawl
//! traffic, and the audit recovers the graph from the traffic alone.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Amazon's advertising domain, the hub of all observed syncs.
pub(crate) const AMAZON_AD_ORG: &str = "amazon-adsystem.com";

/// Real-world advertiser organizations seeding the partner list.
const NAMED_PARTNERS: &[&str] = &[
    "criteo.com",
    "pubmatic.com",
    "rubiconproject.com",
    "adnxs.com",
    "openx.net",
    "indexexchange.com",
    "sharethrough.com",
    "triplelift.com",
    "sovrn.com",
    "33across.com",
    "smartadserver.com",
    "medianet.com",
    "taboola.com",
    "outbrain.com",
    "bidswitch.net",
    "casalemedia.com",
    "gumgum.com",
    "yieldmo.com",
];

/// Number of advertisers syncing with Amazon (paper: 41).
pub(crate) const PARTNER_COUNT: usize = 41;

/// Number of downstream third parties partners sync onward with (paper: 247).
const DOWNSTREAM_COUNT: usize = 247;

/// The planted cookie-syncing graph.
#[derive(Debug, Clone)]
pub struct SyncGraph {
    partners: Vec<String>,
    downstream: Vec<(String, Vec<String>)>,
}

impl SyncGraph {
    /// Generate the graph: 41 partner orgs (named advertisers plus
    /// deterministic synthetic ones) and 247 downstream orgs, each reachable
    /// from at least one partner.
    pub fn generate(seed: u64) -> SyncGraph {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x73796e63);
        let mut partners: Vec<String> = NAMED_PARTNERS.iter().map(|s| s.to_string()).collect();
        for i in 0..(PARTNER_COUNT - NAMED_PARTNERS.len()) {
            partners.push(format!("adpartner{:02}.com", i + 1));
        }

        let pool: Vec<String> = (0..DOWNSTREAM_COUNT)
            .map(|i| format!("thirdparty{i:03}.net"))
            .collect();

        // Every downstream org gets at least one upstream partner; partners
        // fan out to 2–14 downstream orgs each.
        let mut downstream: Vec<(String, Vec<String>)> =
            partners.iter().map(|p| (p.clone(), Vec::new())).collect();
        for (i, d) in pool.iter().enumerate() {
            let k = if i < partners.len() {
                i // spread the first orgs evenly
            } else {
                rng.gen_range(0..partners.len())
            };
            if let Some((_, orgs)) = downstream.get_mut(k % partners.len()) {
                orgs.push(d.clone());
            }
        }
        // Extra edges: downstream orgs shared by several partners.
        for _ in 0..120 {
            let p = rng.gen_range(0..partners.len());
            let d = rng.gen_range(0..pool.len());
            if let (Some((_, orgs)), Some(d)) = (downstream.get_mut(p), pool.get(d)) {
                if !orgs.contains(d) {
                    orgs.push(d.clone());
                }
            }
        }
        SyncGraph {
            partners,
            downstream,
        }
    }

    /// Organizations that sync their cookies with Amazon.
    pub fn partners(&self) -> &[String] {
        &self.partners
    }

    /// Whether an org is an Amazon sync partner.
    pub fn is_partner(&self, org: &str) -> bool {
        self.partners.iter().any(|p| p == org)
    }

    /// The downstream orgs a partner syncs onward with.
    pub fn downstream_of(&self, partner: &str) -> &[String] {
        self.downstream
            .iter()
            .find(|(p, _)| p == partner)
            .map(|(_, d)| d.as_slice())
            .unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// All downstream third parties, deduplicated.
    fn all_downstream(g: &SyncGraph) -> BTreeSet<String> {
        g.downstream
            .iter()
            .flat_map(|(_, d)| d.iter().cloned())
            .collect()
    }

    #[test]
    fn graph_has_41_partners() {
        let g = SyncGraph::generate(1);
        assert_eq!(g.partners().len(), PARTNER_COUNT);
        assert!(g.is_partner("criteo.com"));
        assert!(!g.is_partner("amazon-adsystem.com"));
        assert!(!g.is_partner("example.com"));
    }

    #[test]
    fn graph_has_247_downstream() {
        let g = SyncGraph::generate(1);
        assert_eq!(all_downstream(&g).len(), DOWNSTREAM_COUNT);
    }

    #[test]
    fn every_partner_has_downstream() {
        let g = SyncGraph::generate(2);
        for p in g.partners() {
            assert!(
                !g.downstream_of(p).is_empty(),
                "partner {p} has no downstream"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SyncGraph::generate(7);
        let b = SyncGraph::generate(7);
        assert_eq!(a.partners(), b.partners());
        assert_eq!(all_downstream(&a), all_downstream(&b));
    }

    #[test]
    fn downstream_are_not_partners() {
        let g = SyncGraph::generate(3);
        for d in all_downstream(&g) {
            assert!(!g.is_partner(&d), "{d} is both partner and downstream");
        }
    }

    #[test]
    fn unknown_partner_has_no_downstream() {
        let g = SyncGraph::generate(4);
        assert!(g.downstream_of("not-a-partner.com").is_empty());
    }
}
