//! RQ2 — header-bidding bid-value analysis.
//!
//! Reproduces Table 5 (median/mean CPM per persona with interaction),
//! Table 6 (means without vs with interaction, the holiday-season control),
//! Figure 3 (CPM box plots without/with interaction) and Figure 7 (CPM
//! across vanilla / Echo interest / web interest personas).
//!
//! Methodology mirrors §3.3's controls: bids are only compared on **common
//! ad slots** — slots that returned bids for *every* compared persona in
//! the window — because bid values vary per slot and not every slot loads
//! for every persona. Slot sets are represented as dense masks over the
//! [`AnalysisIndex`]'s interned slot table; all pooling preserves the
//! original observation order (Tables 5 and 10 take the observation-order
//! mean, so summation order fixes the output bits).

use crate::index::AnalysisIndex;
use crate::persona::Persona;
use crate::table::{f3, TextTable};
use alexa_platform::SkillCategory;
use alexa_stats::{five_number_summary_in_place, mean, median_in_place, Summary};
use std::fmt::Write as _;

/// Table 5: median and mean CPM for interest and vanilla personas with
/// interaction (post window, common slots).
#[derive(Debug, Clone)]
pub struct Table5 {
    /// (persona, median CPM, mean CPM) rows, interest personas then vanilla.
    pub rows: Vec<(Persona, f64, f64)>,
    /// Number of common ad slots the comparison ran on.
    pub common_slots: usize,
}

/// Compute Table 5.
pub fn table5(ix: &AnalysisIndex) -> Table5 {
    let personas = Persona::echo_personas();
    let slots = ix.common_slots(&personas, &ix.obs.post_window());
    let rows = personas
        .iter()
        .map(|&p| {
            let mut bids = ix.pooled_bids(p, &ix.obs.post_window(), &slots);
            // The mean sums in observation order, before the median's
            // selection reorders the series.
            let avg = mean(&bids).unwrap_or(0.0);
            (p, median_in_place(&mut bids).unwrap_or(0.0), avg)
        })
        .collect();
    Table5 {
        rows,
        common_slots: ix.slot_count(&slots),
    }
}

impl Table5 {
    /// Median/mean for a persona.
    pub fn get(&self, persona: Persona) -> Option<(f64, f64)> {
        self.rows
            .iter()
            .find(|r| r.0 == persona)
            .map(|r| (r.1, r.2))
    }

    /// Stream the paper's layout into `out`; returns render work units.
    pub fn render_into(&self, out: &mut String) -> usize {
        let mut t = TextTable::new(
            "Table 5: Median and mean bid values (CPM) for interest and vanilla personas",
            &["Persona", "Median", "Mean"],
        );
        for (p, med, avg) in &self.rows {
            t.row().cell(*p).cell(f3(*med)).cell(f3(*avg));
        }
        let work = t.render_into(out);
        let _ = writeln!(out, "(common ad slots: {})", self.common_slots);
        work + 1
    }
}

/// Table 6: mean CPM in the crawls closest to the interaction boundary —
/// last three pre-interaction vs first three post-interaction iterations —
/// ruling out the holiday season as the explanation for elevated bids.
#[derive(Debug, Clone)]
pub struct Table6 {
    /// (persona, mean without interaction, mean with interaction).
    pub rows: Vec<(Persona, f64, f64)>,
}

/// Compute Table 6.
pub fn table6(ix: &AnalysisIndex) -> Table6 {
    let obs = ix.obs;
    let personas = Persona::echo_personas();
    let pre_tail = obs.pre_iterations.saturating_sub(3)..obs.pre_iterations;
    let post_head =
        obs.pre_iterations..(obs.pre_iterations + 3).min(obs.pre_iterations + obs.post_iterations);
    let slots_pre = ix.common_slots(&personas, &pre_tail);
    let slots_post = ix.common_slots(&personas, &post_head);
    let rows = personas
        .iter()
        .map(|&p| {
            let pre = ix.pooled_bids(p, &pre_tail, &slots_pre);
            let post = ix.pooled_bids(p, &post_head, &slots_post);
            (p, mean(&pre).unwrap_or(0.0), mean(&post).unwrap_or(0.0))
        })
        .collect();
    Table6 { rows }
}

impl Table6 {
    /// Means for a persona: (no interaction, interaction).
    pub fn get(&self, persona: Persona) -> Option<(f64, f64)> {
        self.rows
            .iter()
            .find(|r| r.0 == persona)
            .map(|r| (r.1, r.2))
    }

    /// Stream the paper's layout into `out`; returns render work units.
    pub fn render_into(&self, out: &mut String) -> usize {
        let mut t = TextTable::new(
            "Table 6: Mean bid values without and with interaction (holiday-adjacent crawls)",
            &["Persona", "No Interaction", "Interaction"],
        );
        for (p, pre, post) in &self.rows {
            t.row().cell(*p).cell(f3(*pre)).cell(f3(*post));
        }
        t.render_into(out)
    }
}

/// Figure 3: per-persona CPM distributions without (a) and with (b)
/// interaction, as box-plot five-number summaries.
#[derive(Debug, Clone)]
pub struct Figure3 {
    /// Panel (a): pre-interaction summaries per persona.
    pub without_interaction: Vec<(Persona, Summary)>,
    /// Panel (b): post-interaction summaries per persona.
    pub with_interaction: Vec<(Persona, Summary)>,
}

/// Compute Figure 3's series.
pub fn figure3(ix: &AnalysisIndex) -> Figure3 {
    let personas = Persona::echo_personas();
    let mut fig = Figure3 {
        without_interaction: Vec::new(),
        with_interaction: Vec::new(),
    };
    for (window, out) in [
        (ix.obs.pre_window(), &mut fig.without_interaction),
        (ix.obs.post_window(), &mut fig.with_interaction),
    ] {
        let slots = ix.common_slots(&personas, &window);
        for &p in &personas {
            let mut bids = ix.pooled_bids(p, &window, &slots);
            if let Some(s) = five_number_summary_in_place(&mut bids) {
                out.push((p, s));
            }
        }
    }
    fig
}

/// Stream one box-plot table — a five-number-summary row per persona —
/// into `out`; returns render work units. Figures 3, 6 and 7 share it.
pub(crate) fn render_summaries(
    title: &str,
    series: &[(Persona, Summary)],
    out: &mut String,
) -> usize {
    let mut t = TextTable::new(
        title,
        &["Persona", "Min", "Q1", "Median", "Q3", "Max", "Mean"],
    );
    for (p, s) in series {
        t.row()
            .cell(*p)
            .cell(f3(s.min))
            .cell(f3(s.q1))
            .cell(f3(s.median))
            .cell(f3(s.q3))
            .cell(f3(s.max))
            .cell(f3(s.mean));
    }
    t.render_into(out)
}

impl Figure3 {
    /// Stream both panels into `out`; returns render work units.
    pub fn render_into(&self, out: &mut String) -> usize {
        let mut work = 0;
        for (title, series) in [
            (
                "Figure 3a: Bidding behavior without user interaction",
                &self.without_interaction,
            ),
            (
                "Figure 3b: Bidding behavior with user interaction",
                &self.with_interaction,
            ),
        ] {
            work += render_summaries(title, series, out);
            out.push('\n');
        }
        work
    }
}

/// Figure 7: CPM across vanilla, Echo interest and web interest personas on
/// common slots (post window).
#[derive(Debug, Clone)]
pub struct Figure7 {
    /// Per-persona five-number summaries, vanilla first, then Echo interest,
    /// then the web personas.
    pub series: Vec<(Persona, Summary)>,
}

/// Compute Figure 7's series.
pub fn figure7(ix: &AnalysisIndex) -> Figure7 {
    let personas = Persona::all();
    let slots = ix.common_slots(&personas, &ix.obs.post_window());
    let series = std::iter::once(Persona::Vanilla)
        .chain(SkillCategory::ALL.map(Persona::Interest))
        .chain(Persona::web_personas())
        .filter_map(|p| {
            let mut bids = ix.pooled_bids(p, &ix.obs.post_window(), &slots);
            five_number_summary_in_place(&mut bids).map(|s| (p, s))
        })
        .collect();
    Figure7 { series }
}

impl Figure7 {
    /// Stream the figure series into `out`; returns render work units.
    pub fn render_into(&self, out: &mut String) -> usize {
        render_summaries(
            "Figure 7: CPM across vanilla, Echo interest, and web interest personas",
            &self.series,
            out,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::test_support::{ix, obs};

    const PETS: Persona = Persona::Interest(SkillCategory::PetsAnimals);

    #[test]
    fn common_slots_nonempty() {
        let i = ix();
        let slots = i.common_slots(&Persona::echo_personas(), &i.obs.post_window());
        assert!(i.slot_count(&slots) > 0);
    }

    #[test]
    fn common_slots_match_naive_intersection() {
        // The dense mask must agree with the naive per-persona string-set
        // intersection over the raw crawl.
        let i = ix();
        let o = obs();
        let personas = Persona::echo_personas();
        let window = o.post_window();
        let mut naive: Option<std::collections::BTreeSet<String>> = None;
        for p in &personas {
            let slots: std::collections::BTreeSet<String> = o
                .visits_in(*p, window.clone())
                .iter()
                .flat_map(|v| v.bids.iter().map(|b| b.slot_id().to_string()))
                .collect();
            naive = Some(match naive {
                None => slots,
                Some(acc) => acc.intersection(&slots).cloned().collect(),
            });
        }
        let naive = naive.unwrap_or_default();
        let mask = i.common_slots(&personas, &window);
        let from_mask: std::collections::BTreeSet<String> = mask
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(s, _)| i.slots[s].to_string())
            .collect();
        assert_eq!(naive, from_mask);
    }

    #[test]
    fn pooled_bids_match_naive_scan() {
        let i = ix();
        let o = obs();
        let personas = Persona::echo_personas();
        let window = o.post_window();
        let mask = i.common_slots(&personas, &window);
        let in_mask: std::collections::BTreeSet<&str> = mask
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(s, _)| i.slots[s].as_str())
            .collect();
        for &p in &personas {
            let naive: Vec<f64> = o
                .visits_in(p, window.clone())
                .iter()
                .flat_map(|v| v.bids.iter())
                .filter(|b| in_mask.contains(b.slot_id().as_str()))
                .map(|b| b.cpm())
                .collect();
            // Bit-exact (order included): Tables 5 and 10 take the
            // observation-order mean, so summation order fixes the bits.
            assert_eq!(naive, i.pooled_bids(p, &window, &mask), "{p}");
        }
    }

    #[test]
    fn interest_personas_outbid_vanilla_with_interaction() {
        let t5 = table5(ix());
        let (van_med, _) = t5.get(Persona::Vanilla).unwrap();
        let mut higher = 0;
        for cat in SkillCategory::ALL {
            let (med, _) = t5.get(Persona::Interest(cat)).unwrap();
            if med > van_med {
                higher += 1;
            }
        }
        assert!(
            higher >= 8,
            "only {higher}/9 interest personas above vanilla"
        );
    }

    #[test]
    fn no_discernible_difference_before_interaction() {
        let f3 = figure3(ix());
        let medians: Vec<f64> = f3
            .without_interaction
            .iter()
            .map(|(_, s)| s.median)
            .collect();
        let vanilla = f3
            .without_interaction
            .iter()
            .find(|(p, _)| *p == Persona::Vanilla)
            .map(|(_, s)| s.median)
            .unwrap();
        // Pre-interaction, every persona's median is within 2× of vanilla.
        for m in &medians {
            assert!(
                *m < vanilla * 2.0 && *m > vanilla / 2.0,
                "median {m} vs vanilla {vanilla}"
            );
        }
    }

    #[test]
    fn post_interaction_difference_is_visible() {
        let fig = figure3(ix());
        let get = |series: &[(Persona, Summary)], persona: Persona| {
            series
                .iter()
                .find(|(p, _)| *p == persona)
                .map(|(_, s)| s.median)
                .unwrap()
        };
        let vanilla = get(&fig.with_interaction, Persona::Vanilla);
        let pets = get(&fig.with_interaction, PETS);
        assert!(pets > vanilla * 2.0, "pets {pets} vanilla {vanilla}");
    }

    #[test]
    fn holiday_control_shape() {
        // Table 6: without interaction (peak season) the vanilla persona's
        // mean is comparable to interest personas; with interaction the
        // interest personas keep elevated bids while vanilla falls.
        let t6 = table6(ix());
        let (van_pre, van_post) = t6.get(Persona::Vanilla).unwrap();
        assert!(van_pre > van_post, "vanilla pre {van_pre} post {van_post}");
        let (pets_pre, pets_post) = t6.get(PETS).unwrap();
        assert!(
            pets_post > van_post,
            "pets post {pets_post} vanilla post {van_post}"
        );
        let _ = pets_pre;
    }

    #[test]
    fn echo_and_web_personas_look_alike() {
        let f7 = figure7(ix());
        let get = |persona: Persona| {
            f7.series
                .iter()
                .find(|(p, _)| *p == persona)
                .map(|(_, s)| s.median)
                .unwrap()
        };
        let web = get(Persona::WebHealth);
        let echo = get(Persona::Interest(SkillCategory::Dating));
        let ratio = echo / web;
        assert!((0.4..2.5).contains(&ratio), "echo/web median ratio {ratio}");
    }

    #[test]
    fn renders_contain_all_personas() {
        let mut s = String::new();
        table5(ix()).render_into(&mut s);
        for p in Persona::echo_personas() {
            assert!(s.contains(p.name()), "{p}");
        }
    }
}
