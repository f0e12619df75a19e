//! RQ1 — network-traffic analysis: who collects and propagates user data.
//!
//! Reproduces Table 1 (domains contacted by skills, grouped by organization
//! class), Table 2 (advertising & tracking vs functional traffic share),
//! Table 3 (third-party domain counts per persona), Table 4 (top skills by
//! contacted A&T services), and Figure 2 (the persona → domain → purpose →
//! organization flow distribution).
//!
//! Everything is computed from the **encrypted router captures** plus the
//! auditor's public databases (org map, filter lists) — exactly the paper's
//! §4 inputs. The tables read the shared [`AnalysisIndex`]: endpoint
//! classification and per-skill packet merging happen once per run, not
//! once per artifact.

use crate::index::{AnalysisIndex, HostInfo};
use crate::observations::Observations;
use crate::persona::Persona;
use crate::table::{pct, Joined, TextTable};
use alexa_net::{Domain, OrgClass, TrafficPurpose, AMAZON};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Per-skill traffic view derived from captures.
#[derive(Debug, Clone)]
pub struct SkillTraffic {
    /// Skill id (capture label).
    pub skill_id: String,
    /// Persona whose device produced the captures.
    pub persona: Persona,
    /// Distinct endpoints contacted.
    pub endpoints: BTreeSet<Domain>,
    /// Total packets observed.
    pub packets: usize,
}

/// Flatten router captures into per-skill traffic records.
///
/// This is the naive single-artifact scan the [`AnalysisIndex`] replaces;
/// it stays as the reference implementation the index-equivalence tests
/// compare against.
pub fn skill_traffic(obs: &Observations) -> Vec<SkillTraffic> {
    let mut out = Vec::new();
    for (persona, captures) in &obs.router_captures {
        let mut merged: BTreeMap<String, SkillTraffic> = BTreeMap::new();
        for cap in captures {
            let entry = merged
                .entry(cap.label.clone())
                .or_insert_with(|| SkillTraffic {
                    skill_id: cap.label.clone(),
                    persona: *persona,
                    endpoints: BTreeSet::new(),
                    packets: 0,
                });
            entry.packets += cap.packets.len();
            entry.endpoints.extend(cap.packets.iter().map(|p| p.remote));
        }
        // Capture sessions with zero packets (failed installs) carry no
        // endpoint evidence; the paper excludes the 4 failed skills from
        // the 446 active ones.
        out.extend(merged.into_values().filter(|t| t.packets > 0));
    }
    out
}

/// One Table 1 row: a domain group and how many skills contacted it.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Organization class (Amazon / skill vendor / third party).
    pub class: OrgClass,
    /// Display name: `host` or `*(n).registrable` for subdomain groups.
    pub display: String,
    /// Number of skills contacting the group.
    pub skills: usize,
    /// Whether the group is advertising/tracking (grey rows in the paper).
    pub ad_tracking: bool,
}

/// Table 1 plus its headline counts.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Domain-group rows, ordered by class then descending skill count.
    pub rows: Vec<Table1Row>,
    /// Skills contacting ≥1 Amazon endpoint.
    pub skills_amazon: usize,
    /// Skills contacting their vendor's own endpoints.
    pub skills_vendor: usize,
    /// Skills contacting third-party endpoints.
    pub skills_third_party: usize,
    /// Skills that failed to load (no traffic at all).
    pub skills_failed: usize,
    /// Total skills audited.
    pub skills_total: usize,
}

/// Per (class, registrable, A&T) group: the skills contacting the group and
/// the distinct hosts forming it.
type EndpointGroups<'a> =
    BTreeMap<(OrgClass, &'a str, bool), (BTreeSet<&'a str>, BTreeSet<Domain>)>;

/// Compute Table 1.
pub fn table1(ix: &AnalysisIndex) -> Table1 {
    let mut groups: EndpointGroups = BTreeMap::new();
    let mut amazon_skills: BTreeSet<&str> = BTreeSet::new();
    let mut vendor_skills: BTreeSet<&str> = BTreeSet::new();
    let mut third_skills: BTreeSet<&str> = BTreeSet::new();

    for f in &ix.flows {
        for (h, _) in ix.hosts_of(f) {
            let class = ix.org_class(h, f.vendor);
            match class {
                OrgClass::Amazon => amazon_skills.insert(f.skill),
                OrgClass::SkillVendor => vendor_skills.insert(f.skill),
                OrgClass::ThirdParty => third_skills.insert(f.skill),
            };
            let entry = groups
                .entry((class, h.registrable.as_str(), h.ad_tracking))
                .or_default();
            entry.0.insert(f.skill);
            entry.1.insert(h.host);
        }
    }

    let mut rows: Vec<Table1Row> = groups
        .into_iter()
        .map(|((class, reg, at), (skills, subs))| {
            let display = match (subs.len(), subs.first()) {
                (1, Some(only)) => only.as_str().to_string(),
                (n, _) => format!("*({n}).{reg}"),
            };
            Table1Row {
                class,
                display,
                skills: skills.len(),
                ad_tracking: at,
            }
        })
        .collect();
    rows.sort_by(|a, b| a.class.cmp(&b.class).then(b.skills.cmp(&a.skills)));

    // Failed skills: installed by a persona but produced no traffic.
    let skills_failed: usize = ix.obs.failed_installs.values().map(Vec::len).sum();
    let audited: BTreeSet<&str> = ix.obs.catalog.iter().map(|m| m.id.as_str()).collect();

    Table1 {
        rows,
        skills_amazon: amazon_skills.len(),
        skills_vendor: vendor_skills.len(),
        skills_third_party: third_skills.len(),
        skills_failed,
        skills_total: audited.len(),
    }
}

impl Table1 {
    /// Stream the paper's layout into `out`; returns render work units.
    pub fn render_into(&self, out: &mut String) -> usize {
        let mut t = TextTable::new(
            "Table 1: Amazon, skill vendor, and third-party domains contacted by skills",
            &["Org.", "Domains", "Skills", "A&T"],
        );
        for r in &self.rows {
            t.row()
                .cell(r.class)
                .cell(&r.display)
                .cell(r.skills)
                .cell(if r.ad_tracking { "*" } else { "" });
        }
        let work = t.render_into(out);
        out.push('\n');
        let _ = writeln!(
            out,
            "Skills contacting: Amazon {} | vendor {} | third party {} | failed {} (of {})",
            self.skills_amazon,
            self.skills_vendor,
            self.skills_third_party,
            self.skills_failed,
            self.skills_total,
        );
        work + 1
    }
}

/// Table 2: traffic share by organization class and purpose.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// (class, functional share, A&T share) — shares of all packets.
    pub rows: Vec<(OrgClass, f64, f64)>,
    /// Total A&T share.
    pub total_ad_tracking: f64,
}

/// The host filter of the report artifacts: count every host.
pub const KEEP_ALL: fn(&HostInfo) -> bool = |_| true;

/// Compute Table 2 from the packet counts of the hosts `keep` admits (the
/// defense lens drops the hosts a firewall blocks).
pub fn table2(ix: &AnalysisIndex, keep: impl Fn(&HostInfo) -> bool) -> Table2 {
    let mut counts: BTreeMap<(OrgClass, TrafficPurpose), usize> = BTreeMap::new();
    let mut total = 0usize;
    for f in &ix.flows {
        for (h, packets) in ix.hosts_of(f).filter(|(h, _)| keep(h)) {
            *counts
                .entry((ix.org_class(h, f.vendor), ix.purpose(h)))
                .or_insert(0) += packets as usize;
            total += packets as usize;
        }
    }
    let share = |class, purpose| -> f64 {
        if total == 0 {
            0.0
        } else {
            *counts.get(&(class, purpose)).unwrap_or(&0) as f64 / total as f64
        }
    };
    let rows: Vec<(OrgClass, f64, f64)> = [
        OrgClass::Amazon,
        OrgClass::SkillVendor,
        OrgClass::ThirdParty,
    ]
    .into_iter()
    .map(|c| {
        (
            c,
            share(c, TrafficPurpose::Functional),
            share(c, TrafficPurpose::AdvertisingTracking),
        )
    })
    .collect();
    let total_ad_tracking = rows.iter().map(|r| r.2).sum();
    Table2 {
        rows,
        total_ad_tracking,
    }
}

impl Table2 {
    /// Stream the paper's layout into `out`; returns render work units.
    pub fn render_into(&self, out: &mut String) -> usize {
        let mut t = TextTable::new(
            "Table 2: Distribution of advertising/tracking and functional traffic by organization",
            &[
                "Organization",
                "Functional",
                "Advertising & Tracking",
                "Total",
            ],
        );
        for (class, func, at) in &self.rows {
            t.row()
                .cell(class)
                .cell(pct(*func))
                .cell(pct(*at))
                .cell(pct(func + at));
        }
        t.row()
            .cell("Total")
            .cell(pct(1.0 - self.total_ad_tracking))
            .cell(pct(self.total_ad_tracking))
            .cell(pct(1.0));
        t.render_into(out)
    }
}

/// Table 3: per-persona third-party domain counts by purpose.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// (persona, A&T domain count, functional domain count), only personas
    /// with any third-party contact, sorted by A&T count descending.
    pub rows: Vec<(Persona, usize, usize)>,
}

/// Compute Table 3 over the hosts `keep` admits (see [`table2`]).
pub fn table3(ix: &AnalysisIndex, keep: impl Fn(&HostInfo) -> bool) -> Table3 {
    let mut rows: Vec<(Persona, usize, usize)> = ix
        .persona_flows
        .iter()
        .filter_map(|(persona, range)| {
            let mut at: BTreeSet<Domain> = BTreeSet::new();
            let mut func: BTreeSet<Domain> = BTreeSet::new();
            for f in ix.flows_in(range) {
                for (h, _) in ix.hosts_of(f).filter(|(h, _)| keep(h)) {
                    if ix.org_class(h, f.vendor) != OrgClass::ThirdParty {
                        continue;
                    }
                    if h.ad_tracking {
                        at.insert(h.host);
                    } else {
                        func.insert(h.host);
                    }
                }
            }
            if at.is_empty() && func.is_empty() {
                None
            } else {
                Some((*persona, at.len(), func.len()))
            }
        })
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    Table3 { rows }
}

impl Table3 {
    /// Stream the paper's layout into `out`; returns render work units.
    pub fn render_into(&self, out: &mut String) -> usize {
        let mut t = TextTable::new(
            "Table 3: Third-party advertising/tracking and functional domains per persona",
            &["Persona", "Advertising & Tracking", "Functional"],
        );
        for (p, at, f) in &self.rows {
            t.row().cell(*p).cell(at).cell(f);
        }
        t.render_into(out)
    }
}

/// Table 4: top skills by contacted A&T services.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// (skill name, A&T endpoints contacted), top-5 by count.
    pub rows: Vec<(String, Vec<Domain>)>,
}

/// Compute Table 4. Skills are ranked by the number of distinct A&T
/// *services* (registrable domains) they contact, as the paper groups
/// subdomains of one service into a single entry.
pub fn table4(ix: &AnalysisIndex) -> Table4 {
    // Per skill id: A&T hosts, their registrable services, display name.
    let mut per_skill: BTreeMap<&str, (BTreeSet<Domain>, BTreeSet<Domain>, &str)> = BTreeMap::new();
    for f in &ix.flows {
        for (h, _) in ix.hosts_of(f) {
            if h.ad_tracking && h.org != Some(AMAZON) {
                let entry = per_skill
                    .entry(f.skill)
                    .or_insert_with(|| (BTreeSet::new(), BTreeSet::new(), f.name));
                entry.0.insert(h.host);
                entry.1.insert(h.registrable);
            }
        }
    }
    let mut rows: Vec<(String, usize, Vec<Domain>)> = per_skill
        .into_values()
        .map(|(doms, services, name)| {
            (name.to_string(), services.len(), doms.into_iter().collect())
        })
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows.dedup_by(|a, b| a.0 == b.0); // same skill observed under several personas
    rows.truncate(5);
    Table4 {
        rows: rows.into_iter().map(|(n, _, d)| (n, d)).collect(),
    }
}

impl Table4 {
    /// Stream the paper's layout into `out`; returns render work units.
    pub fn render_into(&self, out: &mut String) -> usize {
        let mut t = TextTable::new(
            "Table 4: Top-5 skills contacting third-party advertising & tracking services",
            &["Skill name", "Advertising & Tracking"],
        );
        for (name, doms) in &self.rows {
            t.row().cell(name).cell(Joined(doms, ", "));
        }
        t.render_into(out)
    }
}

/// Figure 2: persona → registrable domain → purpose → organization flows.
#[derive(Debug, Clone)]
pub struct Figure2 {
    /// (persona, registrable domain, purpose, organization, packet count).
    pub flows: Vec<(Persona, Domain, TrafficPurpose, String, usize)>,
}

/// Compute Figure 2's flow series.
pub fn figure2(ix: &AnalysisIndex) -> Figure2 {
    let mut counts: BTreeMap<(Persona, Domain, TrafficPurpose, &str), usize> = BTreeMap::new();
    for f in &ix.flows {
        for (h, packets) in ix.hosts_of(f) {
            *counts
                .entry((f.persona, h.registrable, ix.purpose(h), h.org_or_reg))
                .or_insert(0) += packets as usize;
        }
    }
    let flows = counts
        .into_iter()
        .map(|((p, d, pu, o), n)| (p, d, pu, o.to_string(), n))
        .collect();
    Figure2 { flows }
}

impl Figure2 {
    /// Stream the flow series (sankey input data) into `out`; returns
    /// render work units.
    pub fn render_into(&self, out: &mut String) -> usize {
        let mut t = TextTable::new(
            "Figure 2: Network traffic distribution by persona, domain, purpose, organization",
            &["Persona", "Domain", "Purpose", "Organization", "Packets"],
        );
        for (p, d, pu, o, n) in &self.flows {
            t.row().cell(*p).cell(d).cell(pu).cell(o).cell(n);
        }
        t.render_into(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::test_support::{ix, obs, rendered};
    use alexa_platform::SkillCategory;

    #[test]
    fn every_active_skill_contacts_amazon() {
        let t1 = table1(ix());
        // All skills that produced traffic contacted Amazon (§4.1: Amazon
        // mediates everything).
        let traffic = skill_traffic(obs());
        let skills_with_traffic: std::collections::BTreeSet<&str> =
            traffic.iter().map(|t| t.skill_id.as_str()).collect();
        assert_eq!(t1.skills_amazon, skills_with_traffic.len());
        assert!(t1.skills_amazon > 0);
    }

    #[test]
    fn vendor_domains_are_rare() {
        let t1 = table1(ix());
        // Only Garmin / YouVersion-class skills contact vendor domains.
        assert!(t1.skills_vendor <= 3, "vendor skills: {}", t1.skills_vendor);
    }

    #[test]
    fn table1_has_amazon_subdomain_group() {
        let t1 = table1(ix());
        assert!(
            t1.rows
                .iter()
                .any(|r| r.class == OrgClass::Amazon && r.display.contains("amazon.com")),
            "rows: {:?}",
            t1.rows.iter().map(|r| &r.display).collect::<Vec<_>>()
        );
    }

    #[test]
    fn table2_shares_sum_to_one() {
        let t2 = table2(ix(), KEEP_ALL);
        let sum: f64 = t2.rows.iter().map(|r| r.1 + r.2).sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        // Amazon dominates traffic (paper: 96.84%).
        let amazon = t2.rows.iter().find(|r| r.0 == OrgClass::Amazon).unwrap();
        assert!(
            amazon.1 + amazon.2 > 0.85,
            "amazon share {}",
            amazon.1 + amazon.2
        );
    }

    #[test]
    fn table3_excludes_personas_without_third_parties() {
        let t3 = table3(ix(), KEEP_ALL);
        let silent = [
            Persona::Vanilla,
            Persona::Interest(SkillCategory::SmartHome),
            Persona::Interest(SkillCategory::WineBeverages),
            Persona::Interest(SkillCategory::NavigationTripPlanners),
        ];
        for (p, _, _) in &t3.rows {
            assert!(!silent.contains(p), "{p}");
        }
        assert!(!t3.rows.is_empty());
    }

    #[test]
    fn table4_garmin_leads() {
        // Garmin contacts 4 A&T services — the paper's Table 4 leader.
        let t4 = table4(ix());
        assert!(!t4.rows.is_empty());
        assert_eq!(t4.rows[0].0, "Garmin");
        assert_eq!(t4.rows[0].1.len(), 4);
        assert!(t4.rows.len() <= 5);
    }

    #[test]
    fn figure2_flows_nonempty_and_render() {
        let f2 = figure2(ix());
        assert!(!f2.flows.is_empty());
        assert!(rendered(|out| f2.render_into(out)).contains("amazon.com"));
    }

    #[test]
    fn index_flows_match_naive_rescan() {
        // The index's flow table must agree with the naive per-artifact
        // scan it replaced: same (persona, skill) groups, same packet
        // totals, same endpoint sets.
        let naive = skill_traffic(obs());
        let ixr = ix();
        assert_eq!(naive.len(), ixr.flows.len());
        let mut naive_sorted: Vec<&SkillTraffic> = naive.iter().collect();
        naive_sorted.sort_by_key(|t| (t.persona, t.skill_id.clone()));
        for (t, f) in naive_sorted.iter().zip(&ixr.flows) {
            assert_eq!(t.persona, f.persona);
            assert_eq!(t.skill_id, f.skill);
            assert_eq!(t.packets, f.packets as usize);
            let ix_hosts: Vec<&str> = ixr.hosts_of(f).map(|(h, _)| h.host.as_str()).collect();
            let naive_hosts: Vec<&str> = t.endpoints.iter().map(|d| d.as_str()).collect();
            assert_eq!(ix_hosts, naive_hosts);
        }
    }
}
