//! RQ2 — statistical significance of bid differences (Tables 7 and 11).
//!
//! Table 7 runs a one-sided Mann–Whitney U test per interest persona (H1:
//! the persona's bids are stochastically greater than vanilla's), reporting
//! p and the rank-biserial effect size. Table 11 runs two-sided tests
//! between every Echo interest persona and every web interest persona (H1:
//! they differ) — the paper's finding is that they mostly do *not*.
//!
//! The sample is the per-slot mean CPM over common slots (see
//! [`crate::analysis::bids::slot_means`]): slot-to-slot heterogeneity is the
//! natural variance against which the targeting uplift is tested.

use crate::analysis::bids::{common_slots, slot_means};
use crate::index::AnalysisIndex;
use crate::persona::Persona;
use crate::table::{f3, TextTable};
use alexa_platform::SkillCategory;
use alexa_stats::{
    benjamini_hochberg, holm_bonferroni, mann_whitney_u, Alternative, EffectMagnitude,
};
use std::fmt::Write as _;

/// Minimum per-group sample size below which a significance test refuses to
/// run. Under heavy injected faults the common-slot sample can collapse; a
/// U test on a handful of slots would report noise as evidence, so the
/// tables record the refusal instead.
pub const MIN_SAMPLES: usize = 5;

/// Multiple-testing correction to apply over a table's p-value family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Correction {
    /// Family-wise error control (step-down).
    HolmBonferroni,
    /// False-discovery-rate control (step-up).
    BenjaminiHochberg,
}

/// Table 7: interest personas vs vanilla.
#[derive(Debug, Clone)]
pub struct Table7 {
    /// (persona, p-value, effect size, magnitude band).
    pub rows: Vec<(String, f64, f64, EffectMagnitude)>,
    /// Personas whose test refused to run: (persona, smaller group size).
    pub skipped: Vec<(String, usize)>,
    /// Significance threshold used (paper: 0.05).
    pub alpha: f64,
}

/// Compute Table 7.
pub fn table7(ix: &AnalysisIndex) -> Table7 {
    let personas = Persona::echo_personas();
    let window = ix.obs.post_window();
    let slots = common_slots(ix, &personas, window.clone());
    let vanilla = slot_means(ix, Persona::Vanilla, window.clone(), &slots);
    let mut rows = Vec::new();
    let mut skipped = Vec::new();
    for &cat in SkillCategory::ALL.iter() {
        let treated = slot_means(ix, Persona::Interest(cat), window.clone(), &slots);
        let n = treated.len().min(vanilla.len());
        if n < MIN_SAMPLES {
            skipped.push((cat.label().to_string(), n));
            continue;
        }
        // MIN_SAMPLES guards the happy path; a refused test still lands in
        // the skipped rows instead of unwinding the whole table.
        let Ok(r) = mann_whitney_u(&treated, &vanilla, Alternative::Greater) else {
            skipped.push((cat.label().to_string(), n));
            continue;
        };
        rows.push((
            cat.label().to_string(),
            r.p_value,
            r.effect_size,
            EffectMagnitude::classify(r.effect_size),
        ));
    }
    Table7 {
        rows,
        skipped,
        alpha: 0.05,
    }
}

impl Table7 {
    /// Personas with p below the threshold.
    pub fn significant(&self) -> Vec<&str> {
        self.rows
            .iter()
            .filter(|r| r.1 < self.alpha)
            .map(|r| r.0.as_str())
            .collect()
    }

    /// Row lookup by persona name: (p, effect size).
    pub fn get(&self, persona: &str) -> Option<(f64, f64)> {
        self.rows
            .iter()
            .find(|r| r.0 == persona)
            .map(|r| (r.1, r.2))
    }

    /// Personas still significant after correcting over the nine
    /// simultaneous tests (the paper reports raw p-values; the strong-six
    /// finding should survive correction).
    pub fn significant_corrected(&self, correction: Correction) -> Vec<&str> {
        let raw: Vec<f64> = self.rows.iter().map(|r| r.1).collect();
        let adjusted = match correction {
            Correction::HolmBonferroni => holm_bonferroni(&raw),
            Correction::BenjaminiHochberg => benjamini_hochberg(&raw),
        };
        self.rows
            .iter()
            .zip(adjusted)
            .filter(|(_, p)| *p < self.alpha)
            .map(|(r, _)| r.0.as_str())
            .collect()
    }

    /// Stream the paper's layout into `out`; returns render work units.
    pub fn render_into(&self, out: &mut String) -> usize {
        let mut t = TextTable::new(
            "Table 7: Statistical significance between vanilla (control) and interest personas",
            &["Persona", "p-value", "Effect size", "Magnitude"],
        );
        for (p, pv, es, mag) in &self.rows {
            t.row().cell(p).cell(f3(*pv)).cell(f3(*es)).cell(mag);
        }
        let mut work = t.render_into(out);
        for (persona, n) in &self.skipped {
            let _ = writeln!(
                out,
                "  {persona}: test refused — insufficient samples (n={n} < {MIN_SAMPLES})"
            );
            work += 1;
        }
        work
    }

    /// Render in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }
}

/// Table 11: Echo interest personas vs web interest personas (two-sided).
#[derive(Debug, Clone)]
pub struct Table11 {
    /// Rows: (echo persona, p vs Web Health, p vs Web Science,
    /// p vs Web Computers).
    pub rows: Vec<(String, f64, f64, f64)>,
    /// Personas whose tests refused to run: (persona, smallest group size).
    pub skipped: Vec<(String, usize)>,
    /// Significance threshold used.
    pub alpha: f64,
}

/// Compute Table 11.
pub fn table11(ix: &AnalysisIndex) -> Table11 {
    let everyone = Persona::all();
    let window = ix.obs.post_window();
    let slots = common_slots(ix, &everyone, window.clone());
    let web: Vec<Vec<f64>> = Persona::web_personas()
        .iter()
        .map(|&p| slot_means(ix, p, window.clone(), &slots))
        .collect();
    let web_min = web.iter().map(Vec::len).min().unwrap_or(0);
    let mut rows = Vec::new();
    let mut skipped = Vec::new();
    for &cat in SkillCategory::ALL.iter() {
        let echo = slot_means(ix, Persona::Interest(cat), window.clone(), &slots);
        let n = echo.len().min(web_min);
        if n < MIN_SAMPLES {
            skipped.push((cat.label().to_string(), n));
            continue;
        }
        let ps: Vec<f64> = web
            .iter()
            .filter_map(|w| {
                mann_whitney_u(&echo, w, Alternative::TwoSided)
                    .ok()
                    .map(|r| r.p_value)
            })
            .collect();
        let [h, s, c] = ps[..] else {
            // One of the three tests refused (empty web sample past the
            // MIN_SAMPLES guard) — record the persona as skipped.
            skipped.push((cat.label().to_string(), n));
            continue;
        };
        rows.push((cat.label().to_string(), h, s, c));
    }
    Table11 {
        rows,
        skipped,
        alpha: 0.05,
    }
}

impl Table11 {
    /// Number of (echo, web) pairs whose distributions differ significantly.
    pub fn significant_pairs(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|r| [r.1, r.2, r.3])
            .filter(|p| *p < self.alpha)
            .count()
    }

    /// Significant pairs after a family-wise/FDR correction over all 27
    /// simultaneous tests — the paper reports raw p-values; this is the
    /// robustness check.
    pub fn significant_pairs_corrected(&self, correction: Correction) -> usize {
        let raw: Vec<f64> = self.rows.iter().flat_map(|r| [r.1, r.2, r.3]).collect();
        let adjusted = match correction {
            Correction::HolmBonferroni => holm_bonferroni(&raw),
            Correction::BenjaminiHochberg => benjamini_hochberg(&raw),
        };
        adjusted.iter().filter(|p| **p < self.alpha).count()
    }

    /// Stream the paper's layout into `out`; returns render work units.
    pub fn render_into(&self, out: &mut String) -> usize {
        let mut t = TextTable::new(
            "Table 11: Echo interest vs web interest personas (two-sided Mann-Whitney U)",
            &["Persona", "Health", "Science", "Computers"],
        );
        for (p, h, s, c) in &self.rows {
            t.row().cell(p).cell(f3(*h)).cell(f3(*s)).cell(f3(*c));
        }
        let mut work = t.render_into(out);
        for (persona, n) in &self.skipped {
            let _ = writeln!(
                out,
                "  {persona}: tests refused — insufficient samples (n={n} < {MIN_SAMPLES})"
            );
            work += 1;
        }
        work
    }

    /// Render in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::test_support::ix;
    use crate::observations::Observations;

    #[test]
    fn table7_has_nine_rows_with_valid_stats() {
        let t7 = table7(ix());
        assert_eq!(t7.rows.len(), 9);
        for (p, pv, es, _) in &t7.rows {
            assert!((0.0..=1.0).contains(pv), "{p}: p {pv}");
            assert!((-1.0..=1.0).contains(es), "{p}: r {es}");
        }
    }

    #[test]
    fn strong_categories_are_significant() {
        // Even at the reduced test scale, the strongest uplift categories
        // must separate from vanilla.
        let t7 = table7(ix());
        let sig = t7.significant();
        assert!(sig.contains(&"Pets & Animals"), "significant: {sig:?}");
    }

    #[test]
    fn effect_sizes_positive_for_interest_personas() {
        let t7 = table7(ix());
        let positive = t7.rows.iter().filter(|r| r.2 > 0.0).count();
        assert!(positive >= 8, "{positive}/9 positive effects");
    }

    #[test]
    fn echo_vs_web_mostly_indistinguishable() {
        let t11 = table11(ix());
        assert_eq!(t11.rows.len(), 9);
        // The paper finds 1 of 27 pairs significant; allow a small count.
        assert!(
            t11.significant_pairs() <= 8,
            "pairs: {}",
            t11.significant_pairs()
        );
    }

    #[test]
    fn corrections_only_shrink_the_significant_set() {
        let t7 = table7(ix());
        let raw = t7.significant().len();
        let holm = t7.significant_corrected(Correction::HolmBonferroni).len();
        let bh = t7
            .significant_corrected(Correction::BenjaminiHochberg)
            .len();
        assert!(holm <= bh, "holm {holm} > bh {bh}");
        assert!(bh <= raw, "bh {bh} > raw {raw}");

        let t11 = table11(ix());
        assert!(
            t11.significant_pairs_corrected(Correction::HolmBonferroni) <= t11.significant_pairs()
        );
    }

    #[test]
    fn strong_findings_survive_correction() {
        // The core Table 7 result must not be a multiple-testing artifact.
        let t7 = table7(ix());
        let surviving = t7.significant_corrected(Correction::HolmBonferroni);
        assert!(
            surviving.contains(&"Pets & Animals"),
            "strongest persona lost to correction: {surviving:?}"
        );
    }

    #[test]
    fn renders() {
        assert!(table7(ix()).render().contains("p-value"));
        assert!(table11(ix()).render().contains("Computers"));
    }

    #[test]
    fn tests_refuse_below_minimum_samples() {
        // An empty observation set has no common slots at all; every test
        // must refuse (and say so) instead of running on noise or panicking.
        let empty = Observations::default();
        let empty_ix = AnalysisIndex::build(&empty);
        let t7 = table7(&empty_ix);
        assert!(t7.rows.is_empty());
        assert_eq!(t7.skipped.len(), 9);
        assert!(t7.significant().is_empty());
        assert!(t7.render().contains("insufficient samples"));
        let t11 = table11(&empty_ix);
        assert!(t11.rows.is_empty());
        assert_eq!(t11.significant_pairs(), 0);
        assert!(t11.render().contains("insufficient samples"));
    }
}
