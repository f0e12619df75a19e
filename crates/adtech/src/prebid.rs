//! A `prebid.js`-shaped client API.
//!
//! §3.3: the paper identifies header-bidding sites by injecting a script
//! that calls `pbjs.version`, treats a site as prebid-supported when the
//! call returns non-null, then collects bids via `pbjs.requestBids`. This
//! module models the page-side object the crawler's probe meets: [`probe`]
//! is the version check (a site without prebid has no `pbjs` object), and
//! a probed page runs the auction for each of its ad units.

use crate::bidding::{Auction, Bid, UserState, UserView};
use crate::crawler::KeyCache;
use crate::website::Website;
use alexa_net::Label;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The page-side `pbjs` object, present only on prebid-enabled sites.
#[derive(Debug)]
pub(crate) struct PrebidPage<'a> {
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
pub(crate) fn probe<'a>(
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
    /// `pbjs.requestBids`: run the header-bidding auction for every ad unit
    /// that loads, appending to the responses. Returns the number of bids
    /// received. `loaded` decides per-slot whether the unit rendered (the
    /// paper's analyses must handle slots that failed to load). `view`
    /// holds the roster's knowledge facts about the user, which the crawler
    /// computes once per crawl (they are deterministic per user), and
    /// `keys` each loaded slot's row of bid keys.
    pub(crate) fn request_bids_with_view<F>(
        &mut self,
        user: &UserState,
        view: &UserView,
        keys: &mut KeyCache,
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
                    keys.bid_row(self.auction, slot.id),
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

    /// Move the gathered bids out into an exactly sized vector, leaving the
    /// caller's buffer empty (its capacity stays for the next page).
    pub(crate) fn take_bids(self) -> Vec<Bid> {
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
    fn request_bids_fills_responses() {
        let (auction, web) = setup();
        let site = web.prebid_sites(1)[0];
        let user = UserState::blank("t");
        let view = auction.user_view(&user);
        let mut buf = Vec::new();
        let mut page = probe(site, &auction, &mut buf).unwrap();
        let n =
            page.request_bids_with_view(&user, &view, &mut KeyCache::default(), 10, 42, |_| true);
        assert!(n > 0);
        assert_eq!(buf.len(), n);
        // A second probe starts from an empty buffer, and taking the bids
        // drains it.
        let mut page = probe(site, &auction, &mut buf).unwrap();
        assert_eq!(
            page.request_bids_with_view(&user, &view, &mut KeyCache::default(), 10, 42, |_| true),
            n
        );
        assert_eq!(page.take_bids().len(), n);
        assert!(buf.is_empty(), "taking the bids drains the buffer");
    }

    #[test]
    fn failed_units_collect_nothing() {
        let (auction, web) = setup();
        let site = web.prebid_sites(1)[0];
        let user = UserState::blank("t");
        let mut buf = Vec::new();
        let mut page = probe(site, &auction, &mut buf).unwrap();
        let n = page.request_bids_with_view(
            &user,
            &auction.user_view(&user),
            &mut KeyCache::default(),
            10,
            42,
            |_| false,
        );
        assert_eq!(n, 0);
        assert!(page.take_bids().is_empty());
    }

    #[test]
    fn ad_units_match_site_slots() {
        // Every loaded ad unit collects responses, grouped in the page's
        // ad-unit order (the site's slots).
        let (auction, web) = setup();
        let site = web.prebid_sites(1)[0];
        let user = UserState::blank("t");
        let mut buf = Vec::new();
        let mut page = probe(site, &auction, &mut buf).unwrap();
        page.request_bids_with_view(
            &user,
            &auction.user_view(&user),
            &mut KeyCache::default(),
            10,
            42,
            |_| true,
        );
        let units: Vec<Label> = page
            .take_bids()
            .chunk_by(|a, b| a.slot_id() == b.slot_id())
            .map(|unit| unit[0].slot_id())
            .collect();
        let slots: Vec<Label> = site.slots.iter().map(|s| s.id).collect();
        assert_eq!(units, slots, "every loaded unit collects responses");
    }
}
