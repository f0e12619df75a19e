//! RQ2 — display-creative analysis (Table 8, §5.3).
//!
//! The paper manually labels creatives and calls an ad *personalized* when
//! (i) the advertiser is a skill vendor or Amazon itself, (ii) the ad is
//! exclusive to one persona, and (iii) the product matches the persona's
//! skill industry. This module automates the same rules over the recorded
//! creatives: it splits persona-exclusive Amazon ads from broadly-served
//! vendor ads, and counts appearances and distinct iterations like the
//! paper reports ("the dehumidifier ad appeared 7 times across 5
//! iterations").

use crate::index::AnalysisIndex;
use crate::persona::Persona;
use crate::table::TextTable;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One persona-exclusive ad from Amazon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExclusiveAd {
    /// Persona the ad is exclusive to.
    pub persona: Persona,
    /// Advertised product.
    pub product: String,
    /// Total appearances.
    pub appearances: usize,
    /// Distinct crawl iterations it appeared in.
    pub iterations: usize,
}

/// Table 8: personalized (persona-exclusive) ads from Amazon, plus the
/// broadly-served skill-vendor ads the paper found *not* to be exclusive.
#[derive(Debug, Clone)]
pub struct Table8 {
    /// Amazon ads exclusive to one persona.
    pub amazon_exclusive: Vec<ExclusiveAd>,
    /// (advertiser, count of personas seeing it) for skill-vendor campaigns.
    pub vendor_reach: Vec<(String, usize)>,
    /// Total creatives observed across all personas.
    pub total_creatives: usize,
}

/// Vendors of installed skills whose display campaigns §5.3 tracks.
const SKILL_VENDOR_ADVERTISERS: &[&str] =
    &["Microsoft", "SimpliSafe", "Samsung", "LG", "Ford", "Jeep"];

/// Compute Table 8 from the post-interaction crawl creatives.
pub fn table8(ix: &AnalysisIndex) -> Table8 {
    let obs = ix.obs;
    // (advertiser, product) → persona → (appearances, iterations); all keys
    // borrowed from the observations — no per-creative allocation.
    type PerPersona = BTreeMap<Persona, (usize, BTreeSet<usize>)>;
    let mut seen: BTreeMap<(&str, &str), PerPersona> = BTreeMap::new();
    let mut total = 0usize;
    for persona in Persona::echo_personas() {
        for visit in obs.visits_in(persona, obs.post_window()) {
            for c in &visit.creatives {
                total += 1;
                let entry = seen
                    .entry((c.advertiser.as_str(), c.product.as_str()))
                    .or_default()
                    .entry(persona)
                    .or_insert((0, BTreeSet::new()));
                entry.0 += 1;
                entry.1.insert(visit.iteration);
            }
        }
    }

    let mut amazon_exclusive: Vec<ExclusiveAd> = seen
        .iter()
        .filter_map(|((advertiser, product), per_persona)| {
            if *advertiser != "Amazon" || per_persona.len() != 1 {
                return None;
            }
            let (persona, (appearances, iters)) = per_persona.iter().next()?;
            Some(ExclusiveAd {
                persona: *persona,
                product: (*product).to_string(),
                appearances: *appearances,
                iterations: iters.len(),
            })
        })
        .collect();
    let mut vendor_personas: BTreeMap<&str, BTreeSet<Persona>> = BTreeMap::new();
    for ((advertiser, _), per_persona) in &seen {
        if SKILL_VENDOR_ADVERTISERS.contains(advertiser) {
            vendor_personas
                .entry(advertiser)
                .or_default()
                .extend(per_persona.keys().copied());
        }
    }
    amazon_exclusive.sort_by(|a, b| a.persona.cmp(&b.persona).then(a.product.cmp(&b.product)));
    let vendor_reach = vendor_personas
        .into_iter()
        .map(|(v, ps)| (v.to_string(), ps.len()))
        .collect();
    Table8 {
        amazon_exclusive,
        vendor_reach,
        total_creatives: total,
    }
}

impl Table8 {
    /// Products exclusive to a given persona.
    pub fn products_for(&self, persona: Persona) -> Vec<&str> {
        self.amazon_exclusive
            .iter()
            .filter(|a| a.persona == persona)
            .map(|a| a.product.as_str())
            .collect()
    }

    /// Stream the paper's layout into `out`; returns render work units.
    pub fn render_into(&self, out: &mut String) -> usize {
        let mut t = TextTable::new(
            "Table 8: Personalized (persona-exclusive) ads from Amazon",
            &["Persona", "Advertised product", "Appearances", "Iterations"],
        );
        for a in &self.amazon_exclusive {
            t.row()
                .cell(a.persona)
                .cell(&a.product)
                .cell(a.appearances)
                .cell(a.iterations);
        }
        let mut work = t.render_into(out);
        out.push_str("\nSkill-vendor campaigns (personas reached — none exclusive):\n");
        work += 1;
        for (v, n) in &self.vendor_reach {
            let _ = writeln!(out, "  {v}: {n} personas");
            work += 1;
        }
        let _ = writeln!(out, "Total creatives observed: {}", self.total_creatives);
        work + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::test_support::{ix, rendered};
    use alexa_platform::SkillCategory;

    #[test]
    fn amazon_exclusives_match_planted_personas() {
        let t8 = table8(ix());
        // The planted inventory keys the dehumidifier to Health & Fitness
        // and Eero/Kindle to Religion & Spirituality.
        for ad in &t8.amazon_exclusive {
            let planted = match ad.product.as_str() {
                "Dehumidifier" | "Essential oils" => SkillCategory::HealthFitness,
                "Eero WiFi router" | "Kindle" | "Swarovski bracelet" => {
                    SkillCategory::ReligionSpirituality
                }
                "Dyson vacuum cleaner" | "Vacuum cleaner accessories" => SkillCategory::SmartHome,
                "PC files copying/switching software" => SkillCategory::PetsAnimals,
                other => panic!("unexpected exclusive Amazon ad: {other}"),
            };
            assert_eq!(ad.persona, Persona::Interest(planted), "{}", ad.product);
        }
        assert!(!t8.amazon_exclusive.is_empty());
    }

    #[test]
    fn vanilla_gets_no_exclusive_amazon_ads() {
        let t8 = table8(ix());
        assert!(t8.products_for(Persona::Vanilla).is_empty());
    }

    #[test]
    fn vendor_ads_are_broad_not_exclusive() {
        let t8 = table8(ix());
        // Microsoft's heavy campaign reaches many personas.
        let microsoft = t8.vendor_reach.iter().find(|(v, _)| v == "Microsoft");
        if let Some((_, n)) = microsoft {
            assert!(*n >= 3, "Microsoft reached only {n} personas");
        }
    }

    #[test]
    fn appearances_at_least_iterations() {
        let t8 = table8(ix());
        for a in &t8.amazon_exclusive {
            assert!(a.appearances >= a.iterations);
        }
    }

    #[test]
    fn renders() {
        assert!(rendered(|out| table8(ix()).render_into(out)).contains("Total creatives"));
    }
}
