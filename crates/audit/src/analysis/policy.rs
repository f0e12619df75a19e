//! RQ3 — privacy-policy consistency analysis (§7, Tables 13 and 14).
//!
//! Runs the adapted PoliCheck over the observed flows:
//!
//! * **Table 13** (data-type analysis): data types extracted from the AVS
//!   Echo's plaintext captures, checked against each skill's policy text;
//! * **Table 14** (endpoint analysis): organizations extracted from the
//!   Echo's encrypted captures, checked against the policy text through the
//!   entity ontology;
//! * **§7.1 statistics**: how many skills link / provide / platform-mention
//!   policies;
//! * **§7.2.2 platform-policy experiment**: re-run Table 13 with Amazon's
//!   own policy consulted;
//! * **§7.2.3 validation**: micro/macro P/R/F1 of PoliCheck against the
//!   planted ground truth (the only analysis that touches ground truth,
//!   mirroring the paper's manual labeling).
//!
//! Both extraction passes (data types from the AVS captures, endpoint
//! organizations from the router captures) are shared through the
//! [`AnalysisIndex`] — the legacy implementation cloned every router
//! capture of every persona per artifact to feed the extractor.

use crate::index::AnalysisIndex;
use crate::table::TextTable;
use alexa_net::DataType;
use alexa_policy::DisclosureClass;
use alexa_stats::PrfScores;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// §7.1 policy-availability statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyStats {
    /// Skills whose store page links a privacy policy.
    pub with_link: usize,
    /// Skills whose policy could actually be downloaded.
    pub retrievable: usize,
    /// Retrieved policies that mention Amazon or Alexa at all.
    pub mention_platform: usize,
    /// Retrieved policies that link Amazon's own policy.
    pub link_platform_policy: usize,
    /// Total skills studied.
    pub total: usize,
}

/// Compute §7.1's availability statistics.
pub fn policy_stats(ix: &AnalysisIndex) -> PolicyStats {
    let obs = ix.obs;
    let policies = || ix.policies.values();
    PolicyStats {
        with_link: obs.catalog.iter().filter(|m| m.policy_link).count(),
        retrievable: policies().count(),
        mention_platform: policies().filter(|p| p.mentions_platform).count(),
        link_platform_policy: policies().filter(|p| p.links_platform_policy).count(),
        total: obs.catalog.len(),
    }
}

impl PolicyStats {
    /// Stream the §7.1 summary into `out`; returns render work units.
    pub fn render_into(&self, out: &mut String) -> usize {
        let _ = writeln!(
            out,
            "Policy availability (§7.1): {} of {} skills link a policy; {} retrievable; \
             {} mention Amazon/Alexa; {} link Amazon's policy.",
            self.with_link,
            self.total,
            self.retrievable,
            self.mention_platform,
            self.link_platform_policy,
        );
        1
    }

    /// Render the §7.1 summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }
}

/// Table 13: disclosure classes per data type.
#[derive(Debug, Clone)]
pub struct Table13 {
    /// rows[data type] = (clear, vague, omitted, no policy) skill counts.
    pub rows: BTreeMap<DataType, (usize, usize, usize, usize)>,
    /// rows[data type] = skills whose policy *denies* the observed flow
    /// (PoliCheck's "incorrect" class; kept out of the paper-format rows).
    pub incorrect: BTreeMap<DataType, usize>,
}

/// Every skill data-type flow the AVS captures show, with its disclosure
/// class: the one classification pass behind Table 13 (with and without
/// the platform policy) and the incorrect-flow list, so they cannot
/// disagree. `DeviceMetric` is platform telemetry, not skill data, and is
/// never a skill's flow.
fn data_type_flows<'i>(
    ix: &'i AnalysisIndex,
) -> impl Iterator<Item = (&'i str, DataType, DisclosureClass)> + 'i {
    ix.types_per_skill
        .iter()
        .flat_map(move |(skill_id, types)| {
            let policy = ix.policy_of(skill_id);
            types
                .iter()
                .filter(|&&dt| dt != DataType::DeviceMetric)
                .map(move |&dt| {
                    let class = ix.policheck.classify_data_type(policy, dt);
                    (skill_id.as_str(), dt, class)
                })
        })
}

/// Compute Table 13 from the index's AVS data-type map.
///
/// `include_platform_policy` reruns the analysis with Amazon's policy
/// consulted (§7.2.2).
pub fn table13(ix: &AnalysisIndex, include_platform_policy: bool) -> Table13 {
    let mut rows: BTreeMap<DataType, (usize, usize, usize, usize)> = BTreeMap::new();
    let mut incorrect: BTreeMap<DataType, usize> = BTreeMap::new();
    for (_, dt, class) in data_type_flows(ix) {
        let class = if include_platform_policy {
            class.min(ix.policheck.platform_data_type(dt))
        } else {
            class
        };
        let row = rows.entry(dt).or_insert((0, 0, 0, 0));
        match class {
            DisclosureClass::Clear => row.0 += 1,
            DisclosureClass::Vague => row.1 += 1,
            // The paper's Table 13 uses four classes; denials are
            // tracked separately and folded into "omitted" for the
            // paper-format rendering.
            DisclosureClass::Incorrect => {
                row.2 += 1;
                *incorrect.entry(dt).or_insert(0) += 1;
            }
            DisclosureClass::Omitted => row.2 += 1,
            DisclosureClass::NoPolicy => row.3 += 1,
        }
    }
    Table13 { rows, incorrect }
}

/// Flows whose policies explicitly deny them: `(skill name, data type)`.
///
/// Not part of the paper's tables, but exactly what the original PoliCheck's
/// "incorrect" class exists for — the strongest form of policy
/// inconsistency the audit can demonstrate.
pub fn incorrect_flows(ix: &AnalysisIndex) -> Vec<(String, DataType)> {
    let mut out: Vec<(&str, DataType)> = data_type_flows(ix)
        .filter(|&(_, _, class)| class == DisclosureClass::Incorrect)
        .map(|(skill_id, dt, _)| {
            let name = ix
                .skill_meta(skill_id)
                .map_or(skill_id, |m| m.name.as_str());
            (name, dt)
        })
        .collect();
    out.sort();
    out.into_iter().map(|(n, dt)| (n.to_string(), dt)).collect()
}

impl Table13 {
    /// Counts for a data type: (clear, vague, omitted, no policy).
    pub fn get(&self, dt: DataType) -> (usize, usize, usize, usize) {
        self.rows.get(&dt).copied().unwrap_or((0, 0, 0, 0))
    }

    /// Whether every flow is clearly or vaguely disclosed (the §7.2.2
    /// platform-policy outcome).
    pub fn all_disclosed(&self) -> bool {
        self.rows
            .values()
            .all(|&(_, _, omitted, nopol)| omitted == 0 && nopol == 0)
    }

    /// Stream the paper's layout into `out`; returns render work units.
    pub fn render_into(&self, out: &mut String) -> usize {
        let mut t = TextTable::new(
            "Table 13: Data type disclosure analysis (skills per class)",
            &["Category", "Data type", "Clr.", "Vag.", "Omi.", "No Pol."],
        );
        for dt in DataType::ALL {
            let (c, v, o, n) = self.get(dt);
            if c + v + o + n == 0 {
                continue;
            }
            t.row()
                .cell(dt.category())
                .cell(dt.label())
                .cell(c)
                .cell(v)
                .cell(o)
                .cell(n);
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

/// Table 14: endpoint organizations, their ontology categories, and how the
/// skills contacting them disclose it.
#[derive(Debug, Clone)]
pub struct Table14 {
    /// `rows[org]` = (ontology category labels, skill name → disclosure).
    pub rows: BTreeMap<String, (Vec<String>, BTreeMap<String, DisclosureClass>)>,
}

/// Compute Table 14 from the index's flow table (one merged pass over the
/// router captures of all personas).
pub fn table14(ix: &AnalysisIndex) -> Table14 {
    let checker = &ix.policheck;

    // Per skill, the set of contacted endpoint organizations (the paper's
    // WHOIS fallback is pre-resolved in `HostInfo::org_or_reg`).
    let mut orgs_per_skill: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for f in &ix.flows {
        let entry = orgs_per_skill.entry(ix.str_of(f.skill)).or_default();
        for hc in ix.hosts_of(f) {
            entry.insert(ix.str_of(ix.hosts[hc.host as usize].org_or_reg));
        }
    }

    let mut per_org: BTreeMap<&str, BTreeMap<&str, DisclosureClass>> = BTreeMap::new();
    for (skill_id, orgs) in &orgs_per_skill {
        let policy = ix.policy_of(skill_id);
        let name = ix
            .skill_meta(skill_id)
            .map(|m| m.name.as_str())
            .unwrap_or(skill_id);
        for org in orgs {
            let class = checker.classify_endpoint(policy, org);
            per_org.entry(org).or_default().insert(name, class);
        }
    }
    let rows = per_org
        .into_iter()
        .map(|(org, per_skill)| {
            let cats = checker
                .entities()
                .categories_of(org)
                .into_iter()
                .map(|c| c.label().to_string())
                .collect();
            let per_skill = per_skill
                .into_iter()
                .map(|(name, class)| (name.to_string(), class))
                .collect();
            (org.to_string(), (cats, per_skill))
        })
        .collect();
    Table14 { rows }
}

impl Table14 {
    /// Number of skills contacting non-Amazon endpoint organizations.
    pub fn non_amazon_skills(&self) -> usize {
        let mut skills = BTreeSet::new();
        for (org, (_, per_skill)) in &self.rows {
            if org != alexa_net::AMAZON {
                skills.extend(per_skill.keys().cloned());
            }
        }
        skills.len()
    }

    /// Disclosure class of one (org, skill) pair.
    pub fn class_of(&self, org: &str, skill_name: &str) -> Option<DisclosureClass> {
        self.rows
            .get(org)
            .and_then(|(_, m)| m.get(skill_name))
            .copied()
    }

    /// Stream the paper's layout into `out` (counts per class instead of
    /// colors); returns render work units.
    pub fn render_into(&self, out: &mut String) -> usize {
        let mut t = TextTable::new(
            "Table 14: Endpoint organizations observed in Amazon Echo traffic",
            &[
                "Endpoint Organization",
                "Categories",
                "Clear",
                "Vague",
                "Omitted",
                "No policy",
            ],
        );
        for (org, (cats, per_skill)) in &self.rows {
            let count =
                |class: DisclosureClass| per_skill.values().filter(|&&c| c == class).count();
            t.row()
                .cell(org)
                .cell(Joined(cats))
                .cell(count(DisclosureClass::Clear))
                .cell(count(DisclosureClass::Vague))
                .cell(count(DisclosureClass::Omitted))
                .cell(count(DisclosureClass::NoPolicy));
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

/// Display adapter for a ", "-joined category list (avoids a `join`
/// allocation per rendered row).
struct Joined<'a>(&'a [String]);

impl std::fmt::Display for Joined<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, s) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(s)?;
        }
        Ok(())
    }
}

/// §7.2.3 validation scores.
#[derive(Debug, Clone)]
pub struct Validation {
    /// Micro-averaged precision/recall/F1.
    pub micro: PrfScores,
    /// Macro-averaged precision/recall/F1.
    pub macro_avg: PrfScores,
    /// Number of labeled flows compared.
    pub flows: usize,
}

/// Validate PoliCheck against planted ground truth on a 100-skill sample,
/// mirroring the paper's manual validation. This (and only this) analysis
/// regenerates the marketplace from the run's seed to obtain labels.
pub fn validation(ix: &AnalysisIndex) -> Validation {
    let market = alexa_platform::Marketplace::generate(ix.obs.seed);
    let sample: Vec<&alexa_platform::Skill> = market
        .all()
        .iter()
        .filter(|s| s.policy.has_document())
        .take(100)
        .collect();
    let matrix = alexa_policy::validate_against_ground_truth(&sample);
    Validation {
        micro: matrix.micro_scores(),
        macro_avg: matrix.macro_scores(),
        flows: matrix.total(),
    }
}

impl Validation {
    /// Stream the validation summary into `out`; returns render work units.
    pub fn render_into(&self, out: &mut String) -> usize {
        let _ = writeln!(
            out,
            "PoliCheck validation (§7.2.3, {} labeled flows): micro P/R/F1 = \
             {:.2}% / {:.2}% / {:.2}%; macro P/R/F1 = {:.2}% / {:.2}% / {:.2}%.",
            self.flows,
            100.0 * self.micro.precision,
            100.0 * self.micro.recall,
            100.0 * self.micro.f1,
            100.0 * self.macro_avg.precision,
            100.0 * self.macro_avg.recall,
            100.0 * self.macro_avg.f1,
        );
        1
    }

    /// Render the validation summary.
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
    use alexa_policy::FlowExtractor;

    #[test]
    fn stats_shape_matches_paper_proportions() {
        let s = policy_stats(ix());
        assert_eq!(s.total, 450);
        assert_eq!(s.with_link, 214);
        assert_eq!(s.retrievable, 188);
        assert_eq!(s.mention_platform, 59);
        assert_eq!(s.link_platform_policy, 10);
    }

    #[test]
    fn index_data_types_match_naive_extraction() {
        assert_eq!(
            ix().types_per_skill,
            FlowExtractor::new().data_types(&obs().avs_captures)
        );
    }

    #[test]
    fn index_endpoint_orgs_match_naive_extraction() {
        // Table 14's org-per-skill view from the flow table must agree with
        // the extractor run over a flattened clone of every router capture
        // (the legacy input), modulo skills with no traffic at all.
        let i = ix();
        let o = obs();
        let all: Vec<alexa_net::Capture> = o
            .router_captures
            .values()
            .flat_map(|caps| caps.iter().cloned())
            .collect();
        let naive = FlowExtractor::new().endpoint_orgs(&all, &o.orgs);
        let mut from_index: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for f in &i.flows {
            let entry = from_index.entry(i.str_of(f.skill)).or_default();
            for hc in i.hosts_of(f) {
                entry.insert(i.str_of(i.hosts[hc.host as usize].org_or_reg));
            }
        }
        for (skill, orgs) in &naive {
            let got: BTreeSet<&str> = from_index.remove(skill.as_str()).unwrap_or_default();
            let want: BTreeSet<&str> = orgs.iter().map(String::as_str).collect();
            assert_eq!(got, want, "{skill}");
        }
        assert!(from_index.is_empty(), "extra skills: {from_index:?}");
    }

    #[test]
    fn table13_voice_recordings_everywhere() {
        let t13 = table13(ix(), false);
        let (c, v, o, n) = t13.get(DataType::VoiceRecording);
        // Every audited AVS skill sends voice; most disclose nothing.
        assert!(c + v + o + n > 0);
        assert!(o + n > c + v, "omission should dominate: {c}/{v}/{o}/{n}");
    }

    #[test]
    fn platform_policy_makes_everything_disclosed() {
        let t13 = table13(ix(), true);
        assert!(t13.all_disclosed(), "{:?}", t13.rows);
    }

    #[test]
    fn table14_amazon_contacted_by_everyone() {
        let t14 = table14(ix());
        let amazon = t14.rows.get(alexa_net::AMAZON).expect("amazon row");
        assert!(amazon.0.contains(&"platform provider".to_string()));
        assert!(!amazon.1.is_empty());
    }

    #[test]
    fn garmin_clearly_discloses_itself() {
        let t14 = table14(ix());
        assert_eq!(
            t14.class_of("Garmin International", "Garmin"),
            Some(DisclosureClass::Clear)
        );
    }

    #[test]
    fn validation_in_paper_regime() {
        let v = validation(ix());
        assert!(
            v.micro.f1 > 0.8 && v.micro.f1 < 1.0,
            "micro F1 {}",
            v.micro.f1
        );
        assert!(v.flows > 100);
    }

    #[test]
    fn lying_policies_are_exposed() {
        // The marketplace plants up to six policies that deny collecting
        // voice recordings while the traffic shows them. The audit must
        // recover them from observables alone.
        let flows = incorrect_flows(ix());
        assert!(!flows.is_empty(), "no incorrect flows recovered");
        for (skill, dt) in &flows {
            assert_eq!(
                *dt,
                DataType::VoiceRecording,
                "{skill}: unexpected denied type {dt:?}"
            );
        }
        // Consistency with Table 13's separate incorrect tally.
        let t13 = table13(ix(), false);
        let tallied: usize = t13.incorrect.values().sum();
        assert_eq!(tallied, flows.len());
    }

    #[test]
    fn renders() {
        assert!(policy_stats(ix()).render().contains("retrievable"));
        assert!(table13(ix(), false).render().contains("voice recording"));
        assert!(table14(ix()).render().contains("Endpoint Organization"));
        assert!(validation(ix()).render().contains("micro"));
    }
}
