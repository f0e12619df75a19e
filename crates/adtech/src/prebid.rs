//! A `prebid.js`-shaped client API.
//!
//! §3.3: the paper identifies header-bidding sites by injecting a script
//! that calls `pbjs.version`, treats a site as prebid-supported when the
//! call returns non-null, then collects bids via `pbjs.getBidResponses`
//! (or `pbjs.requestBids` when no bids arrived yet). This module exposes
//! the page-side object with exactly that surface, so the crawler's probe
//! logic works the way the paper's injected script did — including sites
//! where the object simply is not present.

use crate::bidding::{Auction, Bid, UserState, UserView};
use crate::label::Label;
use crate::website::Website;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The prebid version string our simulated publishers deploy.
pub const PREBID_VERSION: &str = "v7.27.0";

/// The page-side `pbjs` object, present only on prebid-enabled sites.
#[derive(Debug)]
pub struct PrebidPage<'a> {
    site: &'a Website,
    auction: &'a Auction,
    /// Bids gathered on the page, flat in ad-unit order (empty until an
    /// auction runs). The buffer belongs to the caller, so a crawler reuses
    /// one allocation across every page it visits.
    responses: &'a mut Vec<Bid>,
}

/// Probe a site for prebid support — the `pbjs.version` injection.
///
/// Returns `None` when the site does not run prebid (the injected call
/// would find no `pbjs` object). Otherwise the page collects its bids into
/// `responses`, which is cleared first.
pub fn probe<'a>(
    site: &'a Website,
    auction: &'a Auction,
    responses: &'a mut Vec<Bid>,
) -> Option<PrebidPage<'a>> {
    if site.prebid {
        responses.clear();
        Some(PrebidPage {
            site,
            auction,
            responses,
        })
    } else {
        None
    }
}

impl<'a> PrebidPage<'a> {
    /// `pbjs.version`.
    pub fn version(&self) -> &'static str {
        PREBID_VERSION
    }

    /// `pbjs.adUnits`: the slot ids configured on the page.
    pub fn ad_units(&self) -> Vec<Label> {
        self.site.slots.iter().map(|s| s.id).collect()
    }

    /// `pbjs.getBidResponses`: bids gathered so far, grouped by ad unit in
    /// the page's ad-unit order (slot ids ascend within a site).
    pub fn get_bid_responses(&self) -> &[Bid] {
        self.responses
    }

    /// `pbjs.requestBids`: run the header-bidding auction for every ad unit
    /// that loads, appending to the responses. Returns the total number of
    /// bids received. `loaded` decides per-slot whether the unit rendered
    /// (the paper's analyses must handle slots that failed to load).
    pub fn request_bids<F>(
        &mut self,
        user: &UserState,
        iteration: usize,
        seed: u64,
        loaded: F,
    ) -> usize
    where
        F: FnMut(Label) -> bool,
    {
        let view = self.auction.user_view(user);
        self.request_bids_with_view(user, &view, iteration, seed, loaded)
    }

    /// [`PrebidPage::request_bids`] with the roster's knowledge facts about
    /// the user precomputed (the crawler caches them across a whole crawl —
    /// they are deterministic per user, so the bids are identical).
    pub fn request_bids_with_view<F>(
        &mut self,
        user: &UserState,
        view: &UserView,
        iteration: usize,
        seed: u64,
        mut loaded: F,
    ) -> usize
    where
        F: FnMut(Label) -> bool,
    {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x70626a73);
        let before = self.responses.len();
        for slot in &self.site.slots {
            if loaded(slot.id) {
                self.auction.request_bids_into(
                    slot,
                    view,
                    user,
                    iteration,
                    &mut rng,
                    self.responses,
                );
            }
        }
        self.responses.len() - before
    }

    /// `pbjs.getHighestCpmBids`: per ad unit, the winning bid so far.
    pub fn highest_cpm_bids(&self) -> Vec<&Bid> {
        self.responses
            .chunk_by(|a, b| a.slot_id == b.slot_id)
            .filter_map(|unit| unit.iter().max_by(|a, b| a.cpm.total_cmp(&b.cpm)))
            .collect()
    }

    /// Move the gathered bids out into an exactly sized vector, leaving the
    /// caller's buffer empty (its capacity stays for the next page).
    pub fn take_bids(self) -> Vec<Bid> {
        crate::crawler::drain_exact(self.responses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bidding::{standard_roster, SeasonModel};
    use crate::sync::SyncGraph;
    use crate::website::WebEcosystem;

    fn setup() -> (Auction, WebEcosystem) {
        let graph = SyncGraph::generate(1);
        (
            Auction {
                bidders: standard_roster(graph.partners()),
                season: SeasonModel::default(),
            },
            WebEcosystem::generate(1, 400),
        )
    }

    #[test]
    fn probe_detects_prebid_sites_only() {
        let (auction, web) = setup();
        let with = web.all().iter().find(|w| w.prebid).unwrap();
        let without = web.all().iter().find(|w| !w.prebid).unwrap();
        assert!(probe(with, &auction, &mut Vec::new()).is_some());
        assert!(probe(without, &auction, &mut Vec::new()).is_none());
    }

    #[test]
    fn version_is_non_null_like_the_papers_check() {
        let (auction, web) = setup();
        let mut buf = Vec::new();
        let page = probe(web.prebid_sites(1)[0], &auction, &mut buf).unwrap();
        assert!(!page.version().is_empty());
        assert!(page.version().starts_with('v'));
    }

    #[test]
    fn request_bids_fills_responses() {
        let (auction, web) = setup();
        let site = web.prebid_sites(1)[0];
        let mut buf = Vec::new();
        let mut page = probe(site, &auction, &mut buf).unwrap();
        assert!(page.get_bid_responses().is_empty());
        let n = page.request_bids(&UserState::blank("t"), 10, 42, |_| true);
        assert!(n > 0);
        assert_eq!(page.get_bid_responses().len(), n);
        let units: Vec<Label> = page
            .get_bid_responses()
            .chunk_by(|a, b| a.slot_id == b.slot_id)
            .map(|unit| unit[0].slot_id)
            .collect();
        assert_eq!(
            units,
            page.ad_units(),
            "every loaded unit collects responses"
        );
        assert_eq!(page.take_bids().len(), n);
        assert!(buf.is_empty(), "taking the bids drains the buffer");
    }

    #[test]
    fn failed_units_collect_nothing() {
        let (auction, web) = setup();
        let site = web.prebid_sites(1)[0];
        let mut buf = Vec::new();
        let mut page = probe(site, &auction, &mut buf).unwrap();
        let n = page.request_bids(&UserState::blank("t"), 10, 42, |_| false);
        assert_eq!(n, 0);
        assert!(page.get_bid_responses().is_empty());
    }

    #[test]
    fn highest_cpm_bids_are_maxima() {
        let (auction, web) = setup();
        let site = web.prebid_sites(1)[0];
        let mut buf = Vec::new();
        let mut page = probe(site, &auction, &mut buf).unwrap();
        page.request_bids(&UserState::blank("t"), 10, 42, |_| true);
        let winners = page.highest_cpm_bids();
        assert_eq!(winners.len(), site.slots.len());
        for winner in winners {
            assert!(page
                .get_bid_responses()
                .iter()
                .filter(|b| b.slot_id == winner.slot_id)
                .all(|b| b.cpm <= winner.cpm));
        }
    }

    #[test]
    fn ad_units_match_site_slots() {
        let (auction, web) = setup();
        let site = web.prebid_sites(1)[0];
        let mut buf = Vec::new();
        let page = probe(site, &auction, &mut buf).unwrap();
        assert_eq!(page.ad_units().len(), site.slots.len());
    }
}
