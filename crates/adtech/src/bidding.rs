//! Header bidding: slots, bidders and the CPM model.
//!
//! The paper's key inference channel: **bid values reflect advertiser
//! knowledge of the user** (established by the prior work the paper builds
//! on: Olejnik et al., Papadopoulos et al., Cook et al.). The CPM a bidder
//! quotes for an impression is modelled as
//!
//! ```text
//! cpm = base · slot_quality · season(iteration) · targeting_uplift · noise
//! ```
//!
//! * `base` — per-bidder log-normal demand (heavy-tailed, like real CPMs);
//! * `slot_quality` — per-slot multiplier (shared across personas, so
//!   common-slot filtering controls for it, §3.3);
//! * `season(iteration)` — the holiday effect the paper had to control for
//!   in Table 6 (their pre-interaction crawls ran just before Christmas);
//! * `targeting_uplift` — the causal link under audit: a bidder that *knows*
//!   the user's interest segments (because Amazon shares them with its
//!   cookie-sync partners, §5.5, or because a partner re-shared downstream)
//!   bids higher. Per-category strength is planted so that the recovered
//!   pattern matches Table 5/7 (six personas significantly above vanilla,
//!   Smart Home / Wine & Beverages / Health & Fitness not).

use alexa_fault::Fnv1a;
use alexa_net::Label;
use alexa_platform::SkillCategory;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;

/// One ad slot on a publisher page.
#[derive(Debug, Clone, PartialEq)]
pub struct AdSlot {
    /// Globally unique slot identifier (`site#position`), an interned
    /// [`Label`]: the hundreds of thousands of bids quoting the slot copy a
    /// 4-byte id, not the text.
    pub id: Label,
    /// Quality multiplier (viewability, position). Shared across personas.
    pub quality: f64,
}

/// One bid returned through the header-bidding API.
#[derive(Debug, Clone, PartialEq)]
pub struct Bid {
    /// Bidder organization (registrable domain, interned).
    pub bidder: Label,
    /// Slot the bid targets (interned).
    pub slot_id: Label,
    /// Bid value in CPM (cost per mille), USD.
    pub cpm: f64,
}

/// What the ad ecosystem knows / can learn about the crawling user.
///
/// This is **ground truth** plumbing: the audit never constructs it from
/// hidden state — the orchestrator derives it from the platform profiler and
/// passes it into the simulation, exactly as reality would.
#[derive(Debug, Clone)]
pub struct UserState {
    /// Persona name (used only to seed deterministic knowledge draws).
    pub persona: String,
    /// Logged into an Amazon account (all Echo personas and vanilla).
    pub amazon_customer: bool,
    /// Interest segments Amazon inferred from Echo interactions.
    pub echo_segments: BTreeSet<SkillCategory>,
    /// Interest topics inferred from ordinary web browsing (web personas).
    pub web_segments: BTreeSet<String>,
}

impl UserState {
    /// A user with no interest signal at all.
    pub fn blank(persona: &str) -> UserState {
        UserState {
            persona: persona.to_string(),
            amazon_customer: false,
            echo_segments: BTreeSet::new(),
            web_segments: BTreeSet::new(),
        }
    }
}

/// Seasonal demand multiplier per crawl iteration.
///
/// The paper's six pre-interaction crawls ran just before Christmas 2021;
/// bid values were elevated for *every* persona (Table 6). The model is
/// anchored to the interaction `boundary` (the first post-interaction
/// iteration): the last three pre-interaction crawls hit the holiday peak,
/// the first three post-interaction crawls catch the fading tail.
#[derive(Debug, Clone, Copy)]
pub struct SeasonModel {
    /// Index of the first post-interaction iteration (paper: 6).
    pub boundary: usize,
}

impl SeasonModel {
    /// Season anchored at the given pre/post boundary.
    pub fn new(boundary: usize) -> SeasonModel {
        SeasonModel { boundary }
    }

    /// Demand multiplier for a crawl iteration.
    pub fn factor(self, iteration: usize) -> f64 {
        let b = self.boundary;
        if iteration < b.saturating_sub(3) {
            1.9 // early holiday ramp
        } else if iteration < b {
            3.1 // peak (the last pre-interaction crawls)
        } else if iteration < b + 3 {
            1.6 // first post-interaction crawls, season fading
        } else {
            1.0 // steady state
        }
    }
}

impl Default for SeasonModel {
    fn default() -> SeasonModel {
        SeasonModel::new(6)
    }
}

/// Per-category targeting-uplift parameters
/// `(median multiplier, contextual σ)`.
///
/// The *median multiplier* is the direct (partner) bid uplift when the
/// segment is known; the *contextual σ* is slot-level heterogeneity — how
/// much the segment's value varies with page context. It is drawn once per
/// (slot, persona), so it does **not** average out over crawl iterations.
///
/// Calibrated so the audit's Table 5/7 reproduction matches the paper's
/// pattern: six categories with strong, consistent uplift (statistically
/// significant vs vanilla at the paper's common-slot sample size); Smart
/// Home, Wine & Beverages and Health & Fitness with weaker, much noisier
/// uplift — elevated medians but no significance, and (for Health &
/// Fitness) the occasional enormous bid: the paper saw a 30× outlier there
/// while its median stayed lowest.
pub(crate) fn category_targeting(cat: SkillCategory) -> (f64, f64) {
    match cat {
        SkillCategory::ConnectedCar => (3.2, 0.25),
        SkillCategory::Dating => (3.5, 0.25),
        SkillCategory::FashionStyle => (3.2, 0.35),
        SkillCategory::PetsAnimals => (4.6, 0.20),
        SkillCategory::ReligionSpirituality => (3.8, 0.30),
        SkillCategory::SmartHome => (1.45, 0.25),
        SkillCategory::WineBeverages => (1.50, 0.35),
        SkillCategory::HealthFitness => (1.35, 0.40),
        SkillCategory::NavigationTripPlanners => (3.3, 0.25),
    }
}

/// A header-bidding participant.
#[derive(Debug, Clone)]
pub struct Bidder {
    /// Bidder organization (registrable domain, interned).
    pub org: Label,
    /// Whether the org cookie-syncs with Amazon (receives Echo segments).
    pub is_partner: bool,
    /// Probability a non-partner learned the segments via downstream syncs.
    pub downstream_reach: f64,
    /// Per-bidder base demand: median CPM of its untargeted bids.
    pub base_median_cpm: f64,
    /// Probability the bidder responds to a bid request at all.
    pub participation: f64,
}

/// Log-normal sample with the given median and sigma.
fn lognormal(rng: &mut StdRng, median: f64, sigma: f64) -> f64 {
    // Box-Muller from two uniforms.
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    median * (sigma * z).exp()
}

/// Deterministic log-normal contextual factor for a (slot, persona) pair:
/// the same slot is consistently more or less valuable for a given
/// audience, across all iterations and bidders.
fn contextual_factor(slot_id: &str, persona: &str, sigma: f64) -> f64 {
    let h1 = Fnv1a::hash_parts(&["ctx1|", slot_id, "|", persona]);
    let h2 = Fnv1a::hash_parts(&["ctx2|", slot_id, "|", persona]);
    let u1 = ((h1 % 0xFFFF_FFFF) as f64 + 1.0) / (0xFFFF_FFFFu64 as f64 + 2.0);
    let u2 = (h2 % 0xFFFF_FFFF) as f64 / 0xFFFF_FFFFu64 as f64;
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (sigma * z).exp()
}

impl Bidder {
    /// Whether this bidder knows the user's Echo segments.
    ///
    /// Partners always do (Amazon shares segments with its sync partners);
    /// non-partners learn them through downstream syncs with probability
    /// `downstream_reach`, decided deterministically per (bidder, persona).
    pub fn knows_echo_segments(&self, user: &UserState) -> bool {
        if user.echo_segments.is_empty() {
            return false;
        }
        if self.is_partner {
            return true;
        }
        let h = Fnv1a::hash_parts(&[self.org.as_str(), "|", &user.persona]);
        (h % 10_000) as f64 / 10_000.0 < self.downstream_reach
    }

    /// Whether ordinary web-browsing interest data about this persona
    /// reached the bidder (standard third-party tracking; deterministic per
    /// (bidder, persona)).
    pub fn web_reached(&self, persona: &str) -> bool {
        let h = Fnv1a::hash_parts(&["web|", self.org.as_str(), "|", persona]);
        (h % 10_000) as f64 / 10_000.0 < 0.85
    }

    /// Quote a bid for a slot, or decline, given the deterministic
    /// per-(slot, user) contextual factors and the per-(bidder, user)
    /// knowledge facts. Both are RNG-free, so hoisting them out of the
    /// per-bid path (once per slot and once per user respectively) leaves
    /// the values — and every RNG draw — bit-identical to computing them
    /// per bid.
    #[expect(
        clippy::too_many_arguments,
        reason = "the hoisted per-slot and per-user factors are passed in separately"
    )]
    pub fn bid_in_context(
        &self,
        slot: &AdSlot,
        ctx: &SlotContext,
        knows_echo: bool,
        web_reached: bool,
        user: &UserState,
        iteration: usize,
        season: SeasonModel,
        rng: &mut StdRng,
    ) -> Option<Bid> {
        if !rng.gen_bool(self.participation) {
            return None;
        }
        let base = lognormal(rng, self.base_median_cpm, 1.1);
        let mut uplift = 1.0;

        if let Some(echo) = ctx.echo {
            if knows_echo {
                let strength = if self.is_partner {
                    echo.direct
                } else {
                    echo.diluted
                };
                // Knowing a segment never *lowers* a bid below the
                // untargeted level: contextual irrelevance just means no
                // premium.
                uplift *= (strength * echo.factor * lognormal(rng, 1.0, 0.3)).max(1.0);
            } else if user.amazon_customer && self.is_partner {
                // Knowing only "owns an Echo / shops at Amazon" is worth
                // little.
                uplift *= 1.15;
            }
        } else if user.amazon_customer && self.is_partner {
            uplift *= 1.15;
        }

        if let Some(web_ctx) = ctx.web {
            // Ordinary web-browsing interest data reaches effectively every
            // bidder (standard third-party tracking) — the resulting uplift
            // sits in the middle of the Echo categories' range, which is
            // what makes Echo and web interest personas statistically
            // indistinguishable (Table 11 / Figure 7).
            if web_reached {
                uplift *= (1.9 * web_ctx * lognormal(rng, 1.0, 0.3)).max(1.0);
            }
        }

        let cpm = base * slot.quality * season.factor(iteration) * uplift;
        Some(Bid {
            bidder: self.org,
            slot_id: slot.id,
            cpm,
        })
    }
}

/// Deterministic per-(slot, user) contextual factors, hoisted out of the
/// per-bidder bid path (they are RNG-free, so precomputing changes nothing).
#[derive(Debug, Clone, Copy)]
pub struct SlotContext {
    /// The user's strongest Echo segment, when any exists.
    echo: Option<EchoContext>,
    /// Contextual factor for web-browsing interest, when any exists.
    web: Option<f64>,
}

/// The uplift factors of the user's strongest Echo segment on one slot.
#[derive(Debug, Clone, Copy)]
struct EchoContext {
    /// The segment's median uplift, as a direct-sync partner prices it.
    direct: f64,
    /// `direct^0.75`: downstream knowledge is diluted relative to a direct
    /// sync.
    diluted: f64,
    /// The slot's contextual factor for the segment.
    factor: f64,
}

impl SlotContext {
    /// Precompute the slot's contextual factors for a user.
    pub fn new(slot: &AdSlot, user: &UserState) -> SlotContext {
        // The strongest segment the bidders can monetize (bidder-independent:
        // every knowing bidder picks the same maximum).
        let echo = user
            .echo_segments
            .iter()
            .map(|&c| category_targeting(c))
            .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(median_u, ctx_sigma)| EchoContext {
                direct: median_u,
                diluted: median_u.powf(0.75),
                factor: contextual_factor(slot.id.as_str(), &user.persona, ctx_sigma),
            });
        let web = if user.web_segments.is_empty() {
            None
        } else {
            Some(contextual_factor(slot.id.as_str(), &user.persona, 0.35))
        };
        SlotContext { echo, web }
    }
}

/// Per-(bidder, user) knowledge facts for a whole roster, precomputed once
/// per user instead of once per quoted bid. The facts are deterministic
/// hashes of `(bidder org, persona)` — see [`Bidder::knows_echo_segments`]
/// and [`Bidder::web_reached`] — so hoisting them is invisible to results.
#[derive(Debug, Clone)]
pub struct UserView {
    /// Per bidder, in roster order: whether it knows the Echo segments.
    knows_echo: Vec<bool>,
    /// Per bidder, in roster order: whether web interest data reached it.
    web_reached: Vec<bool>,
}

/// A header-bidding auction: the roster of bidders attached to a page.
#[derive(Debug, Clone)]
pub struct Auction {
    /// Participating bidders.
    pub bidders: Vec<Bidder>,
    /// Seasonal model applied to every bid.
    pub season: SeasonModel,
}

impl Auction {
    /// Precompute the roster's knowledge facts about one user.
    pub fn user_view(&self, user: &UserState) -> UserView {
        UserView {
            knows_echo: self
                .bidders
                .iter()
                .map(|b| b.knows_echo_segments(user))
                .collect(),
            web_reached: self
                .bidders
                .iter()
                .map(|b| b.web_reached(&user.persona))
                .collect(),
        }
    }

    /// Collect all bids for a slot (the `pbjs.requestBids` analog), with the
    /// user's knowledge facts precomputed (the crawler reuses one view
    /// across a whole crawl), appending the bids to `out` so a caller can
    /// collect a whole page's bids in one reused buffer.
    pub fn request_bids_into(
        &self,
        slot: &AdSlot,
        view: &UserView,
        user: &UserState,
        iteration: usize,
        rng: &mut StdRng,
        out: &mut Vec<Bid>,
    ) {
        let ctx = SlotContext::new(slot, user);
        out.extend(
            self.bidders
                .iter()
                .zip(view.knows_echo.iter().zip(&view.web_reached))
                .filter_map(|(b, (&knows, &web))| {
                    b.bid_in_context(slot, &ctx, knows, web, user, iteration, self.season, rng)
                }),
        );
    }
}

/// Build the standard bidder roster: partners (from the sync graph) and
/// independent non-partner bidders.
pub fn standard_roster(partners: &[String]) -> Vec<Bidder> {
    let mut out = Vec::new();
    // 15 of the sync partners actively bid; the rest are trackers/DSPs that
    // sync but do not quote client-side header bids.
    for org in partners.iter().take(15) {
        out.push(Bidder {
            org: Label::intern(org),
            is_partner: true,
            downstream_reach: 0.0,
            base_median_cpm: 0.030,
            participation: 0.72,
        });
    }
    for i in 0..15 {
        out.push(Bidder {
            org: Label::intern(&format!("indieads{:02}.com", i + 1)),
            is_partner: false,
            downstream_reach: 0.55,
            base_median_cpm: 0.030,
            participation: 0.72,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    impl Bidder {
        /// The unbatched path: the contextual factors and knowledge facts
        /// computed per bid, the reference the hoisted path must match.
        fn bid(
            &self,
            slot: &AdSlot,
            user: &UserState,
            iteration: usize,
            season: SeasonModel,
            rng: &mut StdRng,
        ) -> Option<Bid> {
            self.bid_in_context(
                slot,
                &SlotContext::new(slot, user),
                self.knows_echo_segments(user),
                self.web_reached(&user.persona),
                user,
                iteration,
                season,
                rng,
            )
        }
    }

    fn slot() -> AdSlot {
        AdSlot {
            id: Label::intern("site#1"),
            quality: 1.0,
        }
    }

    fn partner() -> Bidder {
        Bidder {
            org: Label::intern("criteo.com"),
            is_partner: true,
            downstream_reach: 0.0,
            base_median_cpm: 0.03,
            participation: 1.0,
        }
    }

    fn echo_user(cat: SkillCategory) -> UserState {
        let mut u = UserState::blank("p");
        u.amazon_customer = true;
        u.echo_segments.insert(cat);
        u
    }

    fn median_cpm(bidder: &Bidder, user: &UserState, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = slot();
        let mut cpms: Vec<f64> = (0..n)
            .filter_map(|_| bidder.bid(&s, user, 20, SeasonModel::default(), &mut rng))
            .map(|b| b.cpm)
            .collect();
        cpms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        cpms[cpms.len() / 2]
    }

    #[test]
    fn blank_user_gets_baseline_bids() {
        let m = median_cpm(&partner(), &UserState::blank("x"), 4000, 1);
        assert!((0.02..0.045).contains(&m), "median {m}");
    }

    #[test]
    fn segments_raise_partner_bids() {
        // The contextual factor is fixed per (slot, persona), so average the
        // uplift ratio across several slots.
        let mut log_ratio = 0.0;
        for i in 0..8 {
            let s = AdSlot {
                id: Label::intern(&format!("site#{i}")),
                quality: 1.0,
            };
            let b = partner();
            let mut rng = StdRng::seed_from_u64(2 + i);
            let med = |user: &UserState, rng: &mut StdRng| -> f64 {
                let mut cpms: Vec<f64> = (0..2000)
                    .filter_map(|_| b.bid(&s, user, 20, SeasonModel::default(), rng))
                    .map(|x| x.cpm)
                    .collect();
                cpms.sort_by(|a, c| a.partial_cmp(c).unwrap());
                cpms[cpms.len() / 2]
            };
            let base = med(&UserState::blank("x"), &mut rng);
            let targeted = med(&echo_user(SkillCategory::ConnectedCar), &mut rng);
            log_ratio += (targeted / base).ln();
        }
        let geo_mean = (log_ratio / 8.0).exp();
        assert!(geo_mean > 2.0, "uplift ratio {geo_mean}");
        assert!(geo_mean < 6.0, "uplift ratio {geo_mean}");
    }

    #[test]
    fn weak_categories_get_smaller_uplift() {
        let strong = median_cpm(&partner(), &echo_user(SkillCategory::PetsAnimals), 4000, 3);
        let weak = median_cpm(
            &partner(),
            &echo_user(SkillCategory::HealthFitness),
            4000,
            3,
        );
        assert!(strong > weak * 1.5, "strong {strong} weak {weak}");
    }

    #[test]
    fn nonpartner_without_reach_never_knows() {
        let b = Bidder {
            is_partner: false,
            downstream_reach: 0.0,
            ..partner()
        };
        assert!(!b.knows_echo_segments(&echo_user(SkillCategory::Dating)));
    }

    #[test]
    fn nonpartner_knowledge_is_deterministic_per_persona() {
        let b = Bidder {
            is_partner: false,
            downstream_reach: 0.5,
            ..partner()
        };
        let u = echo_user(SkillCategory::Dating);
        assert_eq!(b.knows_echo_segments(&u), b.knows_echo_segments(&u));
    }

    #[test]
    fn season_peaks_before_christmas() {
        let s = SeasonModel::default();
        assert!(s.factor(4) > s.factor(0));
        assert!(s.factor(4) > s.factor(7));
        assert!(s.factor(7) > s.factor(20));
        assert_eq!(s.factor(20), 1.0);
    }

    #[test]
    fn slot_quality_scales_bids() {
        let mut rng = StdRng::seed_from_u64(9);
        let user = UserState::blank("x");
        let cheap = AdSlot {
            id: Label::intern("a"),
            quality: 0.5,
        };
        let pricey = AdSlot {
            id: Label::intern("b"),
            quality: 2.0,
        };
        let b = partner();
        let avg = |slot: &AdSlot, rng: &mut StdRng| -> f64 {
            (0..2000)
                .filter_map(|_| b.bid(slot, &user, 20, SeasonModel::default(), rng))
                .map(|x| x.cpm)
                .sum::<f64>()
                / 2000.0
        };
        assert!(avg(&pricey, &mut rng) > 2.0 * avg(&cheap, &mut rng));
    }

    #[test]
    fn web_segments_raise_bids_for_everyone() {
        // Web knowledge reaches a bidder with p = 0.85 (deterministic per
        // (bidder, persona)), so check across several non-partner bidders.
        let mut raised = 0;
        for i in 0..6 {
            let np = Bidder {
                org: Label::intern(&format!("indieads{i:02}.com")),
                is_partner: false,
                downstream_reach: 0.0,
                ..partner()
            };
            let mut u = UserState::blank("web-health");
            u.web_segments.insert("health".into());
            let base = median_cpm(&np, &UserState::blank("web-health"), 4000, 5);
            let targeted = median_cpm(&np, &u, 4000, 5);
            if targeted > 1.8 * base {
                raised += 1;
            }
        }
        assert!(raised >= 4, "only {raised}/6 non-partner bidders raised");
    }

    #[test]
    fn participation_thins_bids() {
        let mut rng = StdRng::seed_from_u64(11);
        let b = Bidder {
            participation: 0.3,
            ..partner()
        };
        let s = slot();
        let u = UserState::blank("x");
        let n = (0..1000)
            .filter(|_| b.bid(&s, &u, 0, SeasonModel::default(), &mut rng).is_some())
            .count();
        assert!((200..400).contains(&n), "participated {n}");
    }

    #[test]
    fn standard_roster_split() {
        let g = crate::sync::SyncGraph::generate(1);
        let roster = standard_roster(g.partners());
        assert_eq!(roster.len(), 30);
        assert_eq!(roster.iter().filter(|b| b.is_partner).count(), 15);
    }
}
