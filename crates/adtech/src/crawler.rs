//! The OpenWPM-equivalent crawler.
//!
//! §3.3: the paper crawls 200 prebid-supported sites per iteration, logged
//! in as each persona, and records three observable streams per visit:
//!
//! 1. **bids** — via an injected script calling `pbjs.getBidResponses` /
//!    `pbjs.requestBids`;
//! 2. **creatives** — the served ad images;
//! 3. **network requests** — from which cookie-sync redirects are detected
//!    (URL-embedded partner identifiers, §5.5).
//!
//! Slots fail to load sometimes; the analysis keeps only slots that loaded
//! for *all* personas ("common slots") to control for slot effects.

use crate::adserver::AdServer;
use crate::bidding::{Auction, Bid, UserState, UserView};
use crate::identity::BrowserProfile;
use crate::label::intern;
use crate::sync::{SyncGraph, AMAZON_AD_ORG};
use crate::website::Website;
use crate::Creative;
use alexa_fault::{FaultChannel, FaultPlane};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A cookie-sync redirect observed in crawl traffic. Every field is an
/// interned [`label`](crate::label): the same few hundred orgs and cookie
/// values appear in tens of thousands of sync events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SyncObservation {
    /// Organization initiating the sync (sends its cookie).
    pub from_org: &'static str,
    /// Organization receiving the identifier.
    pub to_org: &'static str,
    /// The user identifier embedded in the redirect URL.
    pub user_id: &'static str,
}

/// Everything recorded during one page visit.
#[derive(Debug, Clone, Default)]
pub struct VisitRecord {
    /// Site visited.
    pub site: String,
    /// Crawl iteration this visit belongs to.
    pub iteration: usize,
    /// Bids observed via the prebid API, grouped by loaded slot in the
    /// page's ad-unit order.
    pub bids: Vec<Bid>,
    /// Ad creatives rendered on the page.
    pub creatives: Vec<Creative>,
    /// Cookie-sync redirects seen in the network log.
    pub syncs: Vec<SyncObservation>,
}

/// The persona-facing crawler.
#[derive(Debug)]
pub struct Crawler {
    auction: Auction,
    adserver: AdServer,
    /// Probability a slot loads during a visit.
    pub slot_load_rate: f64,
    fault: FaultPlane,
    sync_plan: SyncPlan,
}

/// The sync roles precomputed from `(auction, sync_graph)` at construction:
/// which bidders are Amazon sync partners and which partners are page
/// trackers that never bid, each with its downstream orgs resolved. The
/// visit loop walks these lists in the exact order the original per-visit
/// membership scans produced, so RNG draw order is unchanged — this only
/// removes the repeated linear string searches from every visit.
#[derive(Debug)]
struct SyncPlan {
    /// Partner bidders, in roster order: `(org, downstream orgs)`.
    partner_bidders: Vec<(&'static str, Vec<&'static str>)>,
    /// Non-bidding sync partners, in partner-list order.
    trackers: Vec<(&'static str, Vec<&'static str>)>,
    /// Amazon's ad endpoint, the hub every sync points at.
    amazon: &'static str,
}

impl SyncPlan {
    fn build(auction: &Auction, graph: &SyncGraph) -> SyncPlan {
        let labels =
            |orgs: &[String]| -> Vec<&'static str> { orgs.iter().map(|d| intern(d)).collect() };
        let partner_bidders = auction
            .bidders
            .iter()
            .filter(|b| graph.is_partner(b.org))
            .map(|b| (b.org, labels(graph.downstream_of(b.org))))
            .collect();
        let trackers = graph
            .partners()
            .iter()
            .filter(|p| !auction.bidders.iter().any(|b| b.org == p.as_str()))
            .map(|p| (intern(p), labels(graph.downstream_of(p))))
            .collect();
        SyncPlan {
            partner_bidders,
            trackers,
            amazon: intern(AMAZON_AD_ORG),
        }
    }
}

impl Crawler {
    /// Build a crawler over an auction roster and sync graph.
    pub fn new(auction: Auction, sync_graph: SyncGraph) -> Crawler {
        let sync_plan = SyncPlan::build(&auction, &sync_graph);
        Crawler {
            auction,
            adserver: AdServer::new(),
            slot_load_rate: 0.8,
            fault: FaultPlane::disabled(),
            sync_plan,
        }
    }

    /// Route bid collection through a fault plane ([`FaultChannel::BidLoss`]).
    /// An inactive plane leaves every visit untouched.
    pub fn with_fault_plane(mut self, plane: FaultPlane) -> Crawler {
        self.fault = plane;
        self
    }

    /// Visit one site as a persona and record the observables.
    pub fn visit(
        &self,
        site: &Website,
        profile: &mut BrowserProfile,
        user: &UserState,
        iteration: usize,
        seed: u64,
    ) -> VisitRecord {
        let record = alexa_obs::agg_time("crawler.visit", || {
            self.visit_uninstrumented(site, profile, user, iteration, seed)
        });
        alexa_obs::agg_count("crawler.visits", 1);
        alexa_obs::agg_count("crawler.bids", record.bids.len() as u64);
        alexa_obs::agg_count("crawler.creatives", record.creatives.len() as u64);
        alexa_obs::agg_count("crawler.syncs", record.syncs.len() as u64);
        record
    }

    /// Like [`Crawler::visit`], but applies the fault plane's bid-loss
    /// channel and reports how many bid responses were lost.
    ///
    /// Losses are keyed by `(persona, site, iteration, bid index)` — the
    /// bid order inside a visit is deterministic, so the same bids vanish
    /// on every run regardless of `--jobs`. The filter runs *after* the
    /// visit's RNG streams finish, so injected losses never perturb the
    /// auction itself.
    pub fn visit_with_faults(
        &self,
        site: &Website,
        profile: &mut BrowserProfile,
        user: &UserState,
        iteration: usize,
        seed: u64,
    ) -> (VisitRecord, u64) {
        let mut record = self.visit(site, profile, user, iteration, seed);
        let mut lost = 0u64;
        if self.fault.is_active() {
            let before = record.bids.len();
            let persona = profile.persona.clone();
            let domain = site.domain.as_str();
            let mut idx = 0usize;
            record.bids.retain(|_| {
                let key = format!("{persona}/{domain}/{iteration}/{idx}");
                idx += 1;
                !self.fault.fires(FaultChannel::BidLoss, &key)
            });
            lost = (before - record.bids.len()) as u64;
            alexa_obs::agg_count("fault.bid_loss", lost);
        }
        (record, lost)
    }

    /// The roster's knowledge facts about `user`, from the profile's cache
    /// when the has-segments key still matches (a profile serves exactly one
    /// persona, so the persona never changes under a profile's cache).
    fn user_view(&self, profile: &mut BrowserProfile, user: &UserState) -> Arc<UserView> {
        let empty = user.echo_segments.is_empty();
        if let Some((was_empty, view)) = profile.view_cache.as_ref() {
            if *was_empty == empty {
                return view.clone();
            }
        }
        let view = Arc::new(self.auction.user_view(user));
        profile.view_cache = Some((empty, view.clone()));
        view
    }

    /// The visit itself, free of observability hooks. Recording happens in
    /// [`Crawler::visit`] and never feeds back into the visit's RNG streams.
    fn visit_uninstrumented(
        &self,
        site: &Website,
        profile: &mut BrowserProfile,
        user: &UserState,
        iteration: usize,
        seed: u64,
    ) -> VisitRecord {
        // Per-(site, persona, iteration) deterministic randomness.
        let mut h: u64 = seed ^ 0xc7a41;
        for b in site.domain.as_str().bytes().chain(profile.persona.bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        let mut rng = StdRng::seed_from_u64(h.wrapping_add(iteration as u64));

        let mut record = VisitRecord {
            site: site.domain.as_str().to_string(),
            iteration,
            ..VisitRecord::default()
        };
        // The paper's injected probe: a site without a `pbjs` object is
        // skipped entirely. The page collects its bids in the profile's
        // scratch buffer, moved out for the visit so the profile stays
        // usable meanwhile.
        let mut bids = std::mem::take(&mut profile.bid_scratch);
        let Some(mut page) = crate::prebid::probe(site, &self.auction, &mut bids) else {
            profile.bid_scratch = bids;
            return record;
        };
        let view = self.user_view(profile, user);
        page.request_bids_with_view(
            user,
            &view,
            iteration,
            h.wrapping_add(iteration as u64),
            |_| rng.gen_bool(self.slot_load_rate),
        );
        record.bids = page.take_bids();
        profile.bid_scratch = bids;

        record.creatives = self.adserver.select(user, &mut rng);

        // Cookie syncing: partners present on the page push their cookie to
        // Amazon (one-way — Amazon never pushes its own out), and re-share
        // onward with their downstream third parties. Partner bidders first
        // (roster order, sync rate 0.3), then the non-bidding tracker
        // partners (partner-list order, rate 0.18) — the same draw order the
        // original per-visit membership scans produced.
        let mut syncs = std::mem::take(&mut profile.sync_scratch);
        for (plan, rate) in [
            (&self.sync_plan.partner_bidders, 0.3),
            (&self.sync_plan.trackers, 0.18),
        ] {
            for &(org, ref downstream) in plan {
                if rng.gen_bool(rate) {
                    let user_id = profile.cookie(org).value;
                    syncs.push(SyncObservation {
                        from_org: org,
                        to_org: self.sync_plan.amazon,
                        user_id,
                    });
                    // Downstream propagation: each partner forwards to a few
                    // of its downstream orgs per sync event.
                    for &to_org in downstream {
                        if rng.gen_bool(0.35) {
                            syncs.push(SyncObservation {
                                from_org: org,
                                to_org,
                                user_id,
                            });
                        }
                    }
                }
            }
        }
        record.syncs = drain_exact(&mut syncs);
        profile.sync_scratch = syncs;
        record
    }
}

/// Move a scratch buffer's contents into an exactly sized vector, keeping
/// the buffer's capacity for the next visit.
#[expect(
    clippy::drain_collect,
    reason = "`mem::take` would hand the capacity away"
)]
pub(crate) fn drain_exact<T>(scratch: &mut Vec<T>) -> Vec<T> {
    scratch.drain(..).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bidding::standard_roster;
    use crate::bidding::SeasonModel;
    use crate::website::WebEcosystem;

    fn setup() -> (Crawler, WebEcosystem) {
        let graph = SyncGraph::generate(1);
        let auction = Auction {
            bidders: standard_roster(graph.partners()),
            season: SeasonModel::default(),
        };
        (Crawler::new(auction, graph), WebEcosystem::generate(1, 700))
    }

    #[test]
    fn prebid_sites_yield_bids() {
        // A single visit can see every slot fail to load (p ≈ 0.04 for a
        // two-slot page), so aggregate over a handful of sites.
        let (crawler, web) = setup();
        let mut profile = BrowserProfile::fresh("t", 1, None);
        let user = UserState::blank("t");
        let mut bids = 0;
        let mut creatives = 0;
        for site in web.prebid_sites(5) {
            let rec = crawler.visit(site, &mut profile, &user, 10, 42);
            bids += rec.bids.len();
            creatives += rec.creatives.len();
        }
        assert!(bids > 0);
        assert!(creatives > 0);
    }

    #[test]
    fn non_prebid_sites_yield_nothing() {
        let (crawler, web) = setup();
        let site = web.all().iter().find(|w| !w.prebid).unwrap();
        let mut profile = BrowserProfile::fresh("t", 1, None);
        let user = UserState::blank("t");
        let rec = crawler.visit(site, &mut profile, &user, 10, 42);
        assert!(rec.bids.is_empty());
        assert!(rec.syncs.is_empty());
    }

    #[test]
    fn visits_are_deterministic() {
        let (crawler, web) = setup();
        let site = web.prebid_sites(1)[0];
        let user = UserState::blank("t");
        let mut p1 = BrowserProfile::fresh("t", 1, None);
        let mut p2 = BrowserProfile::fresh("t", 1, None);
        let a = crawler.visit(site, &mut p1, &user, 3, 42);
        let b = crawler.visit(site, &mut p2, &user, 3, 42);
        assert_eq!(a.bids, b.bids);
        assert_eq!(a.syncs, b.syncs);
    }

    #[test]
    fn faulted_visits_lose_bids_deterministically() {
        use alexa_fault::FaultProfile;
        let (crawler, web) = setup();
        let crawler = crawler.with_fault_plane(FaultPlane::new(7, FaultProfile::hostile()));
        let user = UserState::blank("t");
        let run = || {
            let mut profile = BrowserProfile::fresh("t", 1, None);
            let mut bids = Vec::new();
            let mut lost = 0;
            for site in web.prebid_sites(10) {
                let (rec, l) = crawler.visit_with_faults(site, &mut profile, &user, 2, 42);
                bids.extend(rec.bids);
                lost += l;
            }
            (bids, lost)
        };
        let (bids_a, lost_a) = run();
        let (bids_b, lost_b) = run();
        assert_eq!(bids_a, bids_b);
        assert_eq!(lost_a, lost_b);
        assert!(lost_a > 0, "hostile profile must lose bids");
        assert!(
            !bids_a.is_empty(),
            "hostile profile must not lose everything"
        );
    }

    #[test]
    fn inactive_fault_plane_loses_nothing() {
        let (crawler, web) = setup();
        let site = web.prebid_sites(1)[0];
        let user = UserState::blank("t");
        let mut p1 = BrowserProfile::fresh("t", 1, None);
        let mut p2 = BrowserProfile::fresh("t", 1, None);
        let plain = crawler.visit(site, &mut p1, &user, 3, 42);
        let (gated, lost) = crawler.visit_with_faults(site, &mut p2, &user, 3, 42);
        assert_eq!(plain.bids, gated.bids);
        assert_eq!(lost, 0);
    }

    #[test]
    fn syncs_go_to_amazon_one_way() {
        let (crawler, web) = setup();
        let user = UserState::blank("t");
        let mut profile = BrowserProfile::fresh("t", 1, None);
        let mut saw_amazon_sync = false;
        for site in web.prebid_sites(30) {
            let rec = crawler.visit(site, &mut profile, &user, 5, 42);
            for s in &rec.syncs {
                assert_ne!(s.from_org, AMAZON_AD_ORG, "Amazon must never sync out");
                if s.to_org == AMAZON_AD_ORG {
                    saw_amazon_sync = true;
                }
            }
        }
        assert!(saw_amazon_sync);
    }

    #[test]
    fn sync_user_ids_match_profile_cookies() {
        let (crawler, web) = setup();
        let user = UserState::blank("fashion");
        let mut profile = BrowserProfile::fresh("fashion", 1, None);
        for site in web.prebid_sites(10) {
            let rec = crawler.visit(site, &mut profile, &user, 5, 42);
            for s in &rec.syncs {
                assert_eq!(s.user_id, profile.cookie(s.from_org).value);
            }
        }
    }

    #[test]
    fn whole_partner_set_observable_over_a_crawl() {
        let (crawler, web) = setup();
        let user = UserState::blank("t");
        let mut profile = BrowserProfile::fresh("t", 1, None);
        let mut partners = std::collections::BTreeSet::new();
        for iteration in 0..8 {
            for site in web.prebid_sites(200) {
                let rec = crawler.visit(site, &mut profile, &user, iteration, 42);
                for s in rec.syncs {
                    if s.to_org == AMAZON_AD_ORG {
                        partners.insert(s.from_org);
                    }
                }
            }
        }
        assert_eq!(partners.len(), crate::sync::PARTNER_COUNT);
    }
}
