//! Display-creative inventory and personalized ad selection.
//!
//! §5.3: the paper manually labels the creatives served to each persona and
//! finds (a) ads from installed skills' vendors (Microsoft, SimpliSafe,
//! Samsung, LG, Ford, Jeep) that appear broadly — *not* exclusive to the
//! persona with the skill — and (b) ads from **Amazon itself** that are
//! exclusive to single personas, some with apparent relevance (dehumidifier
//! and essential oils for Health & Fitness; Dyson vacuum ads for Smart
//! Home), some repeating without apparent relevance (Eero, Kindle,
//! Swarovski for Religion & Spirituality; a PC file-transfer tool for
//! Pets & Animals). This module plants exactly that inventory.

use crate::bidding::UserState;
use alexa_net::Label;
use alexa_platform::SkillCategory;
use rand::rngs::StdRng;
use rand::Rng;

/// One served display creative. Both fields are interned [`Label`]s from
/// the ad server's constant catalogue, so a creative is 8 bytes and `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Creative {
    /// Advertiser brand.
    pub advertiser: Label,
    /// Advertised product (the unit the paper labels).
    pub product: Label,
}

impl Creative {
    fn intern(advertiser: &str, product: &str) -> Creative {
        Creative {
            advertiser: Label::intern(advertiser),
            product: Label::intern(product),
        }
    }
}

/// Amazon's persona-exclusive creatives: (segment, product, per-iteration
/// probability calibrated to the paper's appearance counts over 25
/// iterations).
const AMAZON_EXCLUSIVES: &[(SkillCategory, &str, f64)] = &[
    (SkillCategory::HealthFitness, "Dehumidifier", 0.28), // 7 appearances / 5 iterations
    (SkillCategory::HealthFitness, "Essential oils", 0.04), // once
    (SkillCategory::SmartHome, "Dyson vacuum cleaner", 0.04),
    (SkillCategory::SmartHome, "Vacuum cleaner accessories", 0.04),
    (
        SkillCategory::ReligionSpirituality,
        "Eero WiFi router",
        0.42,
    ), // 12 / 8 iterations
    (SkillCategory::ReligionSpirituality, "Kindle", 0.5), // 14 / 4 iterations
    (
        SkillCategory::ReligionSpirituality,
        "Swarovski bracelet",
        0.08,
    ),
    (
        SkillCategory::PetsAnimals,
        "PC files copying/switching software",
        0.14,
    ),
];

/// Skill-vendor advertisers running broad (non-exclusive) campaigns, with
/// relative weights matching §5.3's counts (Microsoft 60, SimpliSafe 12, …).
const VENDOR_CAMPAIGNS: &[(&str, &str, f64)] = &[
    ("Microsoft", "Surface laptop", 0.60),
    ("SimpliSafe", "Home security system", 0.12),
    ("Samsung", "SmartThings hub", 0.01),
    ("LG", "ThinQ appliance", 0.01),
    ("Ford", "F-150 pickup", 0.03),
    ("Jeep", "Grand Cherokee", 0.02),
];

/// Background (untargeted) campaigns every persona sees.
const GENERIC_CAMPAIGNS: &[(&str, &str)] = &[
    ("Verizon", "5G plan"),
    ("Chase", "Credit card"),
    ("Progressive", "Car insurance"),
    ("HelloFresh", "Meal kit"),
    ("Wayfair", "Furniture"),
    ("Expedia", "Hotel deals"),
    ("Grammarly", "Writing assistant"),
    ("Audible", "Audiobooks"),
];

/// The ad server that fills won impressions with creatives.
///
/// It interns its whole catalogue when built, whichever creatives a seed
/// ends up serving, so the label vocabulary does not depend on the seed.
#[derive(Debug, Clone)]
pub struct AdServer {
    /// [`GENERIC_CAMPAIGNS`], interned.
    generic: Vec<Creative>,
    /// [`VENDOR_CAMPAIGNS`]: creative and weight.
    vendor: Vec<(Creative, f64)>,
    /// [`AMAZON_EXCLUSIVES`]: segment, creative and rate.
    amazon: Vec<(SkillCategory, Creative, f64)>,
}

impl Default for AdServer {
    fn default() -> AdServer {
        AdServer::new()
    }
}

impl AdServer {
    /// Create the ad server, interning its creative catalogue.
    pub fn new() -> AdServer {
        AdServer {
            generic: GENERIC_CAMPAIGNS
                .iter()
                .map(|&(adv, prod)| Creative::intern(adv, prod))
                .collect(),
            vendor: VENDOR_CAMPAIGNS
                .iter()
                .map(|&(adv, prod, weight)| (Creative::intern(adv, prod), weight))
                .collect(),
            amazon: AMAZON_EXCLUSIVES
                .iter()
                .map(|&(cat, prod, p)| (cat, Creative::intern("Amazon", prod), p))
                .collect(),
        }
    }

    /// Select the creatives shown to a user during one page visit.
    pub fn select(&self, user: &UserState, rng: &mut StdRng) -> Vec<Creative> {
        let mut out = Vec::new();
        // Generic background ads: 1–3 per page.
        let n = rng.gen_range(1..=3);
        for _ in 0..n {
            if let Some(&creative) = self.generic.get(rng.gen_range(0..self.generic.len())) {
                out.push(creative);
            }
        }
        // Vendor campaigns reach everyone (broad targeting).
        for &(creative, weight) in &self.vendor {
            if rng.gen_bool(weight / 10.0) {
                out.push(creative);
            }
        }
        // Amazon's own retargeting: exclusive to the matching Echo segment.
        for &(cat, creative, p) in &self.amazon {
            if user.echo_segments.contains(&cat) && rng.gen_bool(p / 3.0) {
                // p is a per-iteration rate; a persona visits ~hundreds of
                // pages per iteration, so the per-page rate is scaled down
                // and the crawler deduplicates per iteration.
                out.push(creative);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn user_with(cat: Option<SkillCategory>) -> UserState {
        let mut u = UserState::blank("t");
        u.amazon_customer = true;
        if let Some(c) = cat {
            u.echo_segments.insert(c);
        }
        u
    }

    fn collect_products(user: &UserState, pages: usize, seed: u64) -> BTreeSet<String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let server = AdServer::new();
        let mut set = BTreeSet::new();
        for _ in 0..pages {
            for c in server.select(user, &mut rng) {
                set.insert(format!("{}:{}", c.advertiser, c.product));
            }
        }
        set
    }

    #[test]
    fn every_page_has_some_ads() {
        let mut rng = StdRng::seed_from_u64(1);
        let server = AdServer::new();
        let ads = server.select(&user_with(None), &mut rng);
        assert!(!ads.is_empty());
    }

    #[test]
    fn amazon_exclusives_only_for_matching_segment() {
        let health = collect_products(&user_with(Some(SkillCategory::HealthFitness)), 500, 2);
        let vanilla = collect_products(&user_with(None), 500, 2);
        assert!(health.contains("Amazon:Dehumidifier"));
        assert!(!vanilla.iter().any(|p| p.starts_with("Amazon:")));
    }

    #[test]
    fn religion_gets_eero_and_kindle() {
        let rel = collect_products(
            &user_with(Some(SkillCategory::ReligionSpirituality)),
            500,
            3,
        );
        assert!(rel.contains("Amazon:Eero WiFi router"));
        assert!(rel.contains("Amazon:Kindle"));
        assert!(!rel.contains("Amazon:Dehumidifier"));
    }

    #[test]
    fn vendor_campaigns_reach_everyone() {
        let vanilla = collect_products(&user_with(None), 3000, 4);
        let smarthome = collect_products(&user_with(Some(SkillCategory::SmartHome)), 3000, 4);
        // Microsoft runs the heaviest campaign: both personas see it.
        assert!(vanilla.contains("Microsoft:Surface laptop"));
        assert!(smarthome.contains("Microsoft:Surface laptop"));
    }

    #[test]
    fn debug_prints_like_the_string_fields() {
        let c = Creative::intern("Amazon", "Kindle");
        assert_eq!(
            format!("{c:?}"),
            "Creative { advertiser: \"Amazon\", product: \"Kindle\" }"
        );
    }

    #[test]
    fn selection_is_deterministic_per_seed() {
        let a = collect_products(&user_with(Some(SkillCategory::PetsAnimals)), 100, 5);
        let b = collect_products(&user_with(Some(SkillCategory::PetsAnimals)), 100, 5);
        assert_eq!(a, b);
    }
}
