//! RQ2 — audio-ad analysis (Table 9 and Figure 5, §5.4).
//!
//! From the recorded transcripts (the only observable), the extractor
//! recovers the advertised brands per (persona, service). Table 9 reports
//! the fraction of each service's ads that went to each persona; Figure 5
//! reports the per-brand distribution, restricted — like the paper — to
//! brands heard at least twice (repetition signals advertiser interest).
//!
//! The extraction pass runs once per run inside [`AnalysisIndex::build`];
//! both artifacts here read the cached `(persona, service) → brands` map.

use crate::index::AnalysisIndex;
use crate::observations::Observations;
use crate::table::{pct, TextTable};
use alexa_adtech::{AudioAdExtractor, StreamingService};
use std::collections::BTreeMap;

/// The three audio personas in experiment order.
pub const AUDIO_PERSONAS: [&str; 3] = ["Connected Car", "Fashion & Style", "Vanilla"];

/// Extracted ads per (persona, service) — the naive per-call extraction,
/// kept as the reference the index cache is tested against.
pub fn extracted_ads(obs: &Observations) -> BTreeMap<(String, StreamingService), Vec<String>> {
    let extractor = AudioAdExtractor::new();
    obs.audio
        .iter()
        .map(|((persona, service), transcripts)| {
            ((persona.clone(), *service), extractor.extract(transcripts))
        })
        .collect()
}

/// Table 9: fraction of each service's ads per persona.
#[derive(Debug, Clone)]
pub struct Table9 {
    /// `fractions[persona][service]` = share of that service's ads.
    pub fractions: BTreeMap<String, BTreeMap<StreamingService, f64>>,
    /// Total number of extracted ads (the paper's n = 289).
    pub total_ads: usize,
}

/// Compute Table 9 from the index's cached audio-ad extraction.
pub fn table9(ix: &AnalysisIndex) -> Table9 {
    let ads = &ix.audio_ads;
    let mut per_service_total: BTreeMap<StreamingService, usize> = BTreeMap::new();
    for ((_, service), list) in ads {
        *per_service_total.entry(*service).or_insert(0) += list.len();
    }
    let total_ads = per_service_total.values().sum();
    let mut shares: BTreeMap<&str, BTreeMap<StreamingService, f64>> = BTreeMap::new();
    for ((persona, service), list) in ads {
        let denom = *per_service_total.get(service).unwrap_or(&0);
        let share = if denom == 0 {
            0.0
        } else {
            list.len() as f64 / denom as f64
        };
        shares
            .entry(persona.as_str())
            .or_default()
            .insert(*service, share);
    }
    let fractions = shares
        .into_iter()
        .map(|(persona, per)| (persona.to_string(), per))
        .collect();
    Table9 {
        fractions,
        total_ads,
    }
}

impl Table9 {
    /// Share of a service's ads a persona received.
    pub fn share(&self, persona: &str, service: StreamingService) -> f64 {
        self.fractions
            .get(persona)
            .and_then(|m| m.get(&service))
            .copied()
            .unwrap_or(0.0)
    }

    /// Stream the paper's layout into `out`; returns render work units.
    pub fn render_into(&self, out: &mut String) -> usize {
        let mut t = TextTable::new(
            &format!(
                "Table 9: Fraction of audio ads (n={}) per service per persona",
                self.total_ads
            ),
            &["Persona", "Amazon", "Spotify", "Pandora"],
        );
        for persona in AUDIO_PERSONAS {
            t.row()
                .cell(persona)
                .cell(pct(self.share(persona, StreamingService::AmazonMusic)))
                .cell(pct(self.share(persona, StreamingService::Spotify)))
                .cell(pct(self.share(persona, StreamingService::Pandora)));
        }
        t.render_into(out)
    }

    /// Render in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }
}

/// Figure 5: brand distribution per service and persona (brands heard ≥ 2
/// times, like the paper's repetition filter).
#[derive(Debug, Clone)]
pub struct Figure5 {
    /// `counts[service][brand][persona]` = times heard.
    pub counts: BTreeMap<StreamingService, BTreeMap<String, BTreeMap<String, usize>>>,
}

/// Compute Figure 5's series from the index's cached extraction.
pub fn figure5(ix: &AnalysisIndex) -> Figure5 {
    let mut counts: BTreeMap<StreamingService, BTreeMap<&str, BTreeMap<&str, usize>>> =
        BTreeMap::new();
    for ((persona, service), list) in &ix.audio_ads {
        for brand in list {
            *counts
                .entry(*service)
                .or_default()
                .entry(brand.as_str())
                .or_default()
                .entry(persona.as_str())
                .or_insert(0) += 1;
        }
    }
    // Repetition filter: drop brands with fewer than 2 total plays.
    for brands in counts.values_mut() {
        brands.retain(|_, per_persona| per_persona.values().sum::<usize>() >= 2);
    }
    let counts = counts
        .into_iter()
        .map(|(service, brands)| {
            let owned = brands
                .into_iter()
                .map(|(brand, per)| {
                    let per = per
                        .into_iter()
                        .map(|(persona, n)| (persona.to_string(), n))
                        .collect();
                    (brand.to_string(), per)
                })
                .collect();
            (service, owned)
        })
        .collect();
    Figure5 { counts }
}

impl Figure5 {
    /// Brands exclusive to one persona on a service.
    pub fn exclusive_brands(&self, service: StreamingService, persona: &str) -> Vec<&str> {
        self.counts
            .get(&service)
            .map(|brands| {
                brands
                    .iter()
                    .filter(|(_, per)| per.len() == 1 && per.contains_key(persona))
                    .map(|(b, _)| b.as_str())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Stream the per-service brand tables into `out`; returns render work
    /// units.
    pub fn render_into(&self, out: &mut String) -> usize {
        let mut work = 0;
        for (service, brands) in &self.counts {
            let mut t = TextTable::new(
                &format!("Figure 5: Audio ads on {service}"),
                &["Brand", "Connected Car", "Fashion & Style", "Vanilla"],
            );
            for (brand, per) in brands {
                t.row()
                    .cell(brand)
                    .cell(per.get("Connected Car").copied().unwrap_or(0))
                    .cell(per.get("Fashion & Style").copied().unwrap_or(0))
                    .cell(per.get("Vanilla").copied().unwrap_or(0));
            }
            work += t.render_into(out);
            out.push('\n');
        }
        work
    }

    /// Render the per-service brand tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::test_support::{ix, obs};

    #[test]
    fn cached_extraction_matches_naive_rescan() {
        assert_eq!(ix().audio_ads, extracted_ads(obs()));
    }

    #[test]
    fn table9_fractions_sum_to_one_per_service() {
        let t9 = table9(ix());
        for service in StreamingService::ALL {
            let sum: f64 = AUDIO_PERSONAS.iter().map(|p| t9.share(p, service)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{service}: {sum}");
        }
    }

    #[test]
    fn spotify_starves_connected_car() {
        let t9 = table9(ix());
        let cc = t9.share("Connected Car", StreamingService::Spotify);
        let fs = t9.share("Fashion & Style", StreamingService::Spotify);
        assert!(cc < fs / 2.0, "cc {cc} fs {fs}");
    }

    #[test]
    fn fashion_has_exclusive_brands_on_pandora() {
        // Swiffer Wet Jet is planted Fashion-exclusive; at 1-hour test
        // sessions it may fall below the repetition filter, so check the
        // exclusivity property over whatever survives.
        let f5 = figure5(ix());
        for (service, brands) in &f5.counts {
            for (brand, per) in brands {
                if brand == "Swiffer Wet Jet" || brand == "Ashley" || brand == "Ross" {
                    assert_eq!(
                        per.keys().collect::<Vec<_>>(),
                        vec!["Fashion & Style"],
                        "{service} {brand}"
                    );
                }
                if brand == "Febreeze Car" {
                    assert_eq!(per.keys().collect::<Vec<_>>(), vec!["Connected Car"]);
                }
            }
        }
    }

    #[test]
    fn repetition_filter_applies() {
        let f5 = figure5(ix());
        for brands in f5.counts.values() {
            for per in brands.values() {
                assert!(per.values().sum::<usize>() >= 2);
            }
        }
    }

    #[test]
    fn renders() {
        assert!(table9(ix()).render().contains("Pandora"));
        let _ = figure5(ix()).render();
    }
}
