//! The publisher web: ranked sites, prebid adoption, ad slots.
//!
//! §3.3: the paper crawls the Tranco top list probing for `prebid.js`
//! (`pbjs.version`), stops at the first 200 prebid-supported sites, and
//! collects bids there. This module generates the equivalent ranked web with
//! ~35% prebid adoption and 2–5 ad slots per prebid site.

use crate::bidding::AdSlot;
use crate::label::Label;
use alexa_net::Domain;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Most header-bidding slots a prebid site carries (one digit, so slot ids
/// ascend with their position).
pub(crate) const MAX_SLOTS: usize = 5;
const _: () = assert!(MAX_SLOTS <= 10);

/// One publisher site.
#[derive(Debug, Clone)]
pub struct Website {
    /// Site domain.
    pub domain: Domain,
    /// Tranco-style popularity rank (1 = most popular).
    pub rank: usize,
    /// Whether the site runs `prebid.js` (probed via `pbjs.version`).
    pub prebid: bool,
    /// Header-bidding ad slots (empty on non-prebid sites), in ascending
    /// slot-id order.
    pub slots: Vec<AdSlot>,
}

/// The generated web ecosystem.
#[derive(Debug, Clone)]
pub struct WebEcosystem {
    websites: Vec<Website>,
}

impl WebEcosystem {
    /// Generate a ranked web of `n_sites` publishers.
    pub fn generate(seed: u64, n_sites: usize) -> WebEcosystem {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x776562);
        let mut websites = Vec::with_capacity(n_sites);
        for rank in 1..=n_sites {
            let name = format!("site{rank:04}.example.com");
            let domain = Domain::parse(&name).unwrap_or_else(|_| Domain::invalid_sentinel());
            // Every possible slot id of every rank is interned, prebid site
            // or not, so the label vocabulary depends on `n_sites` alone and
            // never on the seed. One buffer serves all five ids: only the
            // position digit changes.
            let mut id = format!("{name}#slot0");
            let slot_ids: [Label; MAX_SLOTS] = std::array::from_fn(|i| {
                id.pop();
                id.push(char::from(b'0' + i as u8));
                Label::intern(&id)
            });
            let prebid = rng.gen_bool(0.35);
            let slots = if prebid {
                let n_slots = rng.gen_range(2..=MAX_SLOTS);
                slot_ids
                    .iter()
                    .take(n_slots)
                    .map(|&id| {
                        // Slot quality: log-normal around 1 with σ ≈ 0.9 so
                        // slot heterogeneity dominates within-persona bid
                        // spread (the paper controls for it by comparing
                        // common slots only).
                        let u1: f64 = rng.gen_range(1e-12..1.0);
                        let u2: f64 = rng.gen_range(0.0..1.0);
                        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                        AdSlot {
                            id,
                            site: name.clone(),
                            quality: (0.9 * z).exp(),
                        }
                    })
                    .collect()
            } else {
                Vec::new()
            };
            websites.push(Website {
                domain,
                rank,
                prebid,
                slots,
            });
        }
        WebEcosystem { websites }
    }

    /// All sites in rank order.
    pub fn all(&self) -> &[Website] {
        &self.websites
    }

    /// The first `n` prebid-supported sites by rank — the paper's crawl
    /// stops as soon as it has identified 200 of them.
    pub fn prebid_sites(&self, n: usize) -> Vec<&Website> {
        self.websites.iter().filter(|w| w.prebid).take(n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count() {
        let web = WebEcosystem::generate(1, 700);
        assert_eq!(web.all().len(), 700);
    }

    #[test]
    fn prebid_adoption_near_35_percent() {
        let web = WebEcosystem::generate(2, 2000);
        let n = web.all().iter().filter(|w| w.prebid).count();
        assert!((600..800).contains(&n), "prebid sites: {n}");
    }

    #[test]
    fn can_find_200_prebid_sites() {
        let web = WebEcosystem::generate(3, 700);
        let sites = web.prebid_sites(200);
        assert_eq!(sites.len(), 200);
        assert!(sites.iter().all(|w| w.prebid && !w.slots.is_empty()));
    }

    #[test]
    fn prebid_sites_in_rank_order() {
        let web = WebEcosystem::generate(4, 700);
        let sites = web.prebid_sites(50);
        for w in sites.windows(2) {
            assert!(w[0].rank < w[1].rank);
        }
    }

    #[test]
    fn non_prebid_sites_have_no_slots() {
        let web = WebEcosystem::generate(5, 300);
        for w in web.all().iter().filter(|w| !w.prebid) {
            assert!(w.slots.is_empty());
        }
    }

    #[test]
    fn slot_ids_are_unique() {
        let web = WebEcosystem::generate(6, 700);
        let mut ids: Vec<&str> = web
            .all()
            .iter()
            .flat_map(|w| w.slots.iter().map(|s| s.id.as_str()))
            .collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn slot_ids_ascend_within_every_prebid_site() {
        // The crawler records a page's bids in ad-unit order; the recorded
        // (and digested) bid order is slot-id order only if ids ascend.
        for seed in [1, 7, 1234] {
            let web = WebEcosystem::generate(seed, 700);
            for w in web.all().iter().filter(|w| w.prebid) {
                assert!(
                    w.slots
                        .windows(2)
                        .all(|p| p[0].id.as_str() < p[1].id.as_str()),
                    "{}: slot ids out of order",
                    w.domain.as_str()
                );
            }
        }
    }

    #[test]
    fn generation_deterministic() {
        let a = WebEcosystem::generate(7, 100);
        let b = WebEcosystem::generate(7, 100);
        for (x, y) in a.all().iter().zip(b.all()) {
            assert_eq!(x.prebid, y.prebid);
            assert_eq!(x.slots.len(), y.slots.len());
        }
    }
}
