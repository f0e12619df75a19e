//! RQ2 — cookie syncing and partner-bid analysis (§5.5, Table 10, Figure 6).
//!
//! From the crawl traffic's sync redirects, the analysis recovers which
//! advertisers sync their cookies with Amazon (the paper: **41**, one-way)
//! and how far partners propagate identifiers downstream (**247** further
//! third parties). It then splits the common-slot bids into partner vs
//! non-partner bidders (Table 10) and summarizes the partner-bid
//! distributions (Figure 6).
//!
//! The sync graph is recovered once per run by the [`AnalysisIndex`], whose
//! bid views resolve each bid's partner flag — the bid splits here are pure
//! scans of the crawl's bids.

use crate::index::AnalysisIndex;
use crate::persona::Persona;
use crate::table::{f3, TextTable};
use alexa_stats::{five_number_summary_in_place, mean, median_in_place, Summary};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Amazon's advertising endpoint observed in sync redirects.
pub const AMAZON_AD_ENDPOINT: &str = "amazon-adsystem.com";

/// Recovered cookie-sync structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncAnalysis {
    /// Advertisers observed pushing their cookie to Amazon.
    pub amazon_partners: BTreeSet<String>,
    /// Whether Amazon was ever observed pushing its own identifier out.
    pub amazon_syncs_out: bool,
    /// Third parties that received identifiers from Amazon's partners.
    pub downstream_parties: BTreeSet<String>,
}

/// The sync graph recovered from the crawl traffic of all personas
/// (computed once, by [`AnalysisIndex::build`]).
pub fn sync_analysis<'a>(ix: &'a AnalysisIndex) -> &'a SyncAnalysis {
    &ix.sync
}

impl SyncAnalysis {
    /// Stream the headline sync findings into `out`; returns render work
    /// units.
    pub fn render_into(&self, out: &mut String) -> usize {
        let _ = writeln!(
            out,
            "Cookie syncing (§5.5): {} advertisers sync their cookies with Amazon \
             (Amazon syncs out: {}); partners sync onward with {} further third parties.",
            self.amazon_partners.len(),
            if self.amazon_syncs_out { "YES" } else { "no" },
            self.downstream_parties.len(),
        );
        1
    }

    /// Render the headline sync findings.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }
}

/// Table 10: median/mean bids from Amazon's partners vs non-partners.
#[derive(Debug, Clone)]
pub struct Table10 {
    /// (persona, partner median, partner mean, non-partner median,
    /// non-partner mean).
    pub rows: Vec<(String, f64, f64, f64, f64)>,
}

/// Compute Table 10 on the post window's common slots.
pub fn table10(ix: &AnalysisIndex) -> Table10 {
    let personas = Persona::echo_personas();
    let window = ix.obs.post_window();
    let slots = ix.common_slots(&personas, &window);
    let rows = personas
        .iter()
        .map(|&p| {
            let mut partner_bids = Vec::new();
            let mut other_bids = Vec::new();
            for b in ix.bids_of(p).in_window(&window) {
                if !slots.get(b.slot).copied().unwrap_or(false) {
                    continue;
                }
                if b.partner {
                    partner_bids.push(b.cpm);
                } else {
                    other_bids.push(b.cpm);
                }
            }
            // Means sum in observation order, before the medians' selection
            // reorders the series.
            let partner_mean = mean(&partner_bids).unwrap_or(0.0);
            let other_mean = mean(&other_bids).unwrap_or(0.0);
            (
                p.name(),
                median_in_place(&mut partner_bids).unwrap_or(0.0),
                partner_mean,
                median_in_place(&mut other_bids).unwrap_or(0.0),
                other_mean,
            )
        })
        .collect();
    Table10 { rows }
}

impl Table10 {
    /// Lookup by persona: (partner median, partner mean, non-partner median,
    /// non-partner mean).
    pub fn get(&self, persona: &str) -> Option<(f64, f64, f64, f64)> {
        self.rows
            .iter()
            .find(|r| r.0 == persona)
            .map(|r| (r.1, r.2, r.3, r.4))
    }

    /// Stream the paper's layout into `out`; returns render work units.
    pub fn render_into(&self, out: &mut String) -> usize {
        let mut t = TextTable::new(
            "Table 10: Bid values from Amazon's partner vs non-partner advertisers",
            &[
                "Persona",
                "Partner median",
                "Partner mean",
                "Non-p. median",
                "Non-p. mean",
            ],
        );
        for (p, pm, pa, nm, na) in &self.rows {
            t.row()
                .cell(p)
                .cell(f3(*pm))
                .cell(f3(*pa))
                .cell(f3(*nm))
                .cell(f3(*na));
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

/// Figure 6: partner-bid distributions per persona.
#[derive(Debug, Clone)]
pub struct Figure6 {
    /// Per-persona five-number summaries of partner bids.
    pub series: Vec<(String, Summary)>,
}

/// Compute Figure 6.
pub fn figure6(ix: &AnalysisIndex) -> Figure6 {
    let personas = Persona::echo_personas();
    let window = ix.obs.post_window();
    let slots = ix.common_slots(&personas, &window);
    let mut series = Vec::new();
    for &p in &personas {
        let mut bids: Vec<f64> = ix
            .bids_of(p)
            .in_window(&window)
            .filter(|b| b.partner && slots.get(b.slot).copied().unwrap_or(false))
            .map(|b| b.cpm)
            .collect();
        if let Some(s) = five_number_summary_in_place(&mut bids) {
            series.push((p.name(), s));
        }
    }
    Figure6 { series }
}

impl Figure6 {
    /// Stream the figure series into `out`; returns render work units.
    pub fn render_into(&self, out: &mut String) -> usize {
        let mut t = TextTable::new(
            "Figure 6: Partner bid values across personas on common ad slots",
            &["Persona", "Min", "Q1", "Median", "Q3", "Max", "Mean"],
        );
        for (p, s) in &self.series {
            t.row()
                .cell(p)
                .cell(f3(s.min))
                .cell(f3(s.q1))
                .cell(f3(s.median))
                .cell(f3(s.q3))
                .cell(f3(s.max))
                .cell(f3(s.mean));
        }
        t.render_into(out)
    }

    /// Render the figure series.
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
    fn recovers_41_partners() {
        let sa = sync_analysis(ix());
        assert_eq!(sa.amazon_partners.len(), 41);
    }

    #[test]
    fn amazon_never_syncs_out() {
        let sa = sync_analysis(ix());
        assert!(!sa.amazon_syncs_out);
    }

    #[test]
    fn downstream_propagation_recovered() {
        let sa = sync_analysis(ix());
        // 247 planted; the small test run sees most of them.
        assert!(
            sa.downstream_parties.len() > 200,
            "{}",
            sa.downstream_parties.len()
        );
        assert!(sa.downstream_parties.len() <= 247);
    }

    #[test]
    fn partner_flags_match_naive_lookup() {
        // Every bid's partner flag, as the view resolves it, must agree with
        // a naive partner-set lookup over the raw crawl.
        let i = ix();
        let o = obs();
        for (persona, visits) in &o.crawl {
            let p = Persona::all()
                .into_iter()
                .find(|p| p.name() == *persona)
                .unwrap();
            let naive: Vec<bool> = visits
                .iter()
                .flat_map(|v| v.bids.iter())
                .map(|b| i.sync.amazon_partners.contains(b.bidder().as_str()))
                .collect();
            let viewed: Vec<bool> = i
                .bids_of(p)
                .in_window(&(0..usize::MAX))
                .map(|b| b.partner)
                .collect();
            assert_eq!(naive, viewed, "{persona}");
        }
    }

    #[test]
    fn partners_bid_higher_on_interest_personas() {
        let t10 = table10(ix());
        let mut wins = 0;
        for cat in alexa_platform::SkillCategory::ALL {
            if let Some((pm, _, nm, _)) = t10.get(cat.label()) {
                if pm > nm {
                    wins += 1;
                }
            }
        }
        // Paper: partners' medians beat non-partners for most personas.
        assert!(
            wins >= 5,
            "partner median higher for only {wins}/9 personas"
        );
    }

    #[test]
    fn syncing_happens_for_every_echo_persona() {
        // Per persona, the advertisers seen syncing their cookie to Amazon.
        for p in Persona::echo_personas() {
            let visits = obs().crawl.get(&p.name()).map_or(&[][..], Vec::as_slice);
            let partners: BTreeSet<&str> = visits
                .iter()
                .flat_map(|v| v.syncs.iter())
                .filter(|s| s.to_org().as_str() == AMAZON_AD_ENDPOINT)
                .map(|s| s.from_org().as_str())
                .collect();
            assert!(partners.len() > 30, "{p}");
        }
    }

    #[test]
    fn renders() {
        assert!(sync_analysis(ix()).render().contains("sync"));
        assert!(table10(ix()).render().contains("Partner median"));
        assert!(!figure6(ix()).series.is_empty());
    }
}
