//! The shared analysis index: every derived view the report artifacts need,
//! computed **once** per run from [`Observations`].
//!
//! Before this module existed, each of the ~25 report artifacts rescanned
//! the raw captures packet-by-packet with per-endpoint `String` clones —
//! O(artifacts × packets) work that made rendering 82% of a paper-scale
//! run's wall time. The index performs each scan exactly once and stores
//! the results in dense, sorted tables keyed by interned `u32` symbols:
//!
//! * a label table ([`Interner`]) mapping hosts, organizations, skill ids,
//!   personas and ad-slot ids to symbols;
//! * per-host attributes ([`HostInfo`]: registrable domain, organization,
//!   traffic purpose) computed once per distinct endpoint;
//! * per-(persona, skill) flow aggregates ([`SkillFlows`]) with per-host
//!   packet counts, in the exact iteration order the legacy per-artifact
//!   scans produced;
//! * per-persona dense bid rows ([`BidRow`], 16 bytes) with slot ids and
//!   the partner-bidder classification pre-resolved, through tables
//!   indexed by crawl label id ([`alexa_adtech::Label`]) rather than hash
//!   probes;
//! * the recovered cookie-sync structure, extracted audio ads, and the
//!   AVS data-type map — each shared by several artifacts.
//!
//! Determinism: every table is built by iterating `BTreeMap`s of the
//! observations, so the index — and everything rendered from it — is a pure
//! function of the observable record, independent of thread count.

use crate::analysis::partners::{SyncAnalysis, AMAZON_AD_ENDPOINT};
use crate::observations::{Observations, SkillMeta};
use crate::persona::Persona;
use alexa_adtech::{AudioAdExtractor, Label, StreamingService, VisitRecord};
use alexa_net::{DataType, FilterList, OrgClass, TrafficPurpose};
use alexa_policy::{CompiledPolicy, FlowExtractor, PoliCheck};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Marks crawl labels in a table indexed by [`Label::id`], remembering
/// each label the first time it is marked.
struct LabelMarks {
    marked: Vec<bool>,
    labels: Vec<Label>,
}

impl LabelMarks {
    /// A table covering every label interned so far.
    fn new() -> LabelMarks {
        LabelMarks {
            marked: vec![false; Label::count()],
            labels: Vec::new(),
        }
    }

    fn mark(&mut self, l: Label) {
        if !std::mem::replace(&mut self.marked[l.id()], true) {
            self.labels.push(l);
        }
    }

    fn contains(&self, l: Label) -> bool {
        self.marked[l.id()]
    }

    /// The marked labels' texts.
    fn texts(&self) -> BTreeSet<String> {
        self.labels.iter().map(|l| l.as_str().to_string()).collect()
    }
}

/// The crawl's cookie-sync structure: Amazon's partners push to
/// [`AMAZON_AD_ENDPOINT`], and their downstream parties are every
/// non-Amazon organization a partner pushes to. Two passes over the sync
/// events mark label ids; the partner marks also classify the bidders.
fn sync_structure(crawl: &BTreeMap<String, Vec<VisitRecord>>) -> (SyncAnalysis, LabelMarks) {
    let amazon = Label::intern(AMAZON_AD_ENDPOINT);
    let syncs = || crawl.values().flatten().flat_map(|v| &v.syncs);
    let mut partners = LabelMarks::new();
    let mut amazon_syncs_out = false;
    for s in syncs() {
        if s.to_org == amazon {
            partners.mark(s.from_org);
        }
        amazon_syncs_out |= s.from_org == amazon;
    }
    let mut downstream = LabelMarks::new();
    for s in syncs() {
        if s.to_org != amazon && partners.contains(s.from_org) {
            downstream.mark(s.to_org);
        }
    }
    let sync = SyncAnalysis {
        amazon_syncs_out,
        amazon_partners: partners.texts(),
        downstream_parties: downstream.texts(),
    };
    (sync, partners)
}

/// An interned label: index into the run's [`Interner`].
pub type Sym = u32;

/// String interner: hosts, orgs, skill ids, personas and slot ids become
/// `u32` symbols compared and grouped without touching the bytes.
#[derive(Debug, Default)]
pub struct Interner {
    strings: Vec<String>,
    lookup: BTreeMap<String, Sym>,
}

impl Interner {
    /// Intern `s`, returning its stable symbol.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&id) = self.lookup.get(s) {
            return id;
        }
        let id = self.strings.len() as Sym;
        self.lookup.insert(s.to_string(), id);
        self.strings.push(s.to_string());
        id
    }

    /// Resolve a symbol back to its text.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym as usize]
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// Everything the analyses need to know about one distinct endpoint host,
/// computed once (instead of once per artifact per packet).
#[derive(Debug, Clone, Copy)]
pub struct HostInfo {
    /// Full host name.
    pub host: Sym,
    /// Registrable domain (eTLD+1), falling back to the host itself.
    pub registrable: Sym,
    /// Owning organization, when the org database knows it.
    pub org: Option<Sym>,
    /// Organization with the registrable-domain fallback (the paper's
    /// WHOIS fallback, used by Figure 2 and the endpoint-policy analysis).
    pub org_or_reg: Sym,
    /// Whether the filter list classifies the host as advertising/tracking.
    pub ad_tracking: bool,
}

/// Packet count for one host within one (persona, skill) flow group.
#[derive(Debug, Clone, Copy)]
pub struct HostCount {
    /// Index into [`AnalysisIndex::hosts`].
    pub host: u32,
    /// Packets the skill session sent to this host.
    pub packets: u32,
}

/// Merged traffic of one skill under one persona (only skills that
/// produced traffic — failed installs carry no endpoint evidence).
#[derive(Debug, Clone)]
pub struct SkillFlows {
    /// Persona name.
    pub persona: Sym,
    /// Skill id (capture label).
    pub skill: Sym,
    /// Skill display name (falls back to the id when the catalog has no
    /// entry).
    pub name: Sym,
    /// Vendor organization ("" when unknown).
    pub vendor: Sym,
    /// Total packets across the skill's sessions.
    pub packets: u32,
    /// This group's per-host packet counts: a range into
    /// [`AnalysisIndex::host_counts`], hosts in lexicographic order.
    pub hosts: Range<u32>,
}

/// One observed bid in dense form (16 bytes).
#[derive(Debug, Clone, Copy)]
pub struct BidRow {
    /// Crawl iteration the bid was observed in.
    pub iteration: u16,
    /// Index into [`AnalysisIndex::slots`].
    pub slot: u32,
    /// Whether the bidder is one of Amazon's cookie-sync partners.
    pub partner: bool,
    /// Bid value.
    pub cpm: f64,
}

/// All bids one persona received, in visit order (the order every legacy
/// scan produced — Tables 5 and 10 take the observation-order mean, so
/// summation order fixes the output bits).
#[derive(Debug, Clone)]
pub struct PersonaBids {
    /// Persona name.
    pub persona: Sym,
    /// Dense bid rows in observation order.
    pub bids: Vec<BidRow>,
}

/// The shared, deterministic analysis index. Build once per run with
/// [`AnalysisIndex::build`]; every analysis function reads it instead of
/// rescanning the captures.
#[derive(Debug)]
pub struct AnalysisIndex<'a> {
    /// The raw observable record (for the few cheap analyses — DSAR,
    /// creatives, policy documents — that read it directly).
    pub obs: &'a Observations,
    /// The run's label table.
    pub symbols: Interner,
    /// Distinct endpoint hosts in lexicographic order.
    pub hosts: Vec<HostInfo>,
    /// The endpoint behind each [`AnalysisIndex::hosts`] entry (same order),
    /// for predicates over the parsed name such as the defense lens's
    /// firewall verdict.
    pub domains: Vec<&'a alexa_net::Domain>,
    /// Per-(persona, skill) flow groups, personas then skills in
    /// lexicographic order.
    pub flows: Vec<SkillFlows>,
    /// Arena backing [`SkillFlows::hosts`].
    pub host_counts: Vec<HostCount>,
    /// Per-persona ranges into [`AnalysisIndex::flows`], personas in
    /// lexicographic order (flow groups are persona-contiguous).
    pub persona_flows: Vec<(Sym, Range<u32>)>,
    /// Distinct ad-slot ids in lexicographic order.
    pub slots: Vec<Sym>,
    /// Per-persona dense bid tables, personas in lexicographic order.
    pub persona_bids: Vec<PersonaBids>,
    /// Recovered cookie-sync structure (partners, downstream parties).
    pub sync: SyncAnalysis,
    /// Extracted audio ads per (persona, streaming service).
    pub audio_ads: BTreeMap<(String, StreamingService), Vec<String>>,
    /// Data types observed per skill in the AVS plaintext captures.
    pub types_per_skill: BTreeMap<String, BTreeSet<DataType>>,
    /// Every downloaded policy, compiled once, by skill id.
    pub policies: BTreeMap<&'a str, CompiledPolicy>,
    /// The one PoliCheck analyzer every policy artifact classifies with.
    pub policheck: PoliCheck,
    /// `Amazon Technologies, Inc.` as a symbol.
    pub amazon: Sym,
    meta_by_id: BTreeMap<&'a str, &'a SkillMeta>,
    /// Memoized [`AnalysisIndex::common_slots`] masks. About a dozen
    /// artifacts ask for the same (persona set, window) masks; the mask is
    /// a pure function of the key, so the memo is invisible to results.
    slot_masks: std::sync::Mutex<Vec<SlotMaskEntry>>,
}

/// One memoized slot mask: the (persona set, window) key and its mask.
type SlotMaskEntry = (Vec<Persona>, Range<usize>, Vec<bool>);

impl<'a> AnalysisIndex<'a> {
    /// Build the index: one pass over each observation table.
    pub fn build(obs: &'a Observations) -> AnalysisIndex<'a> {
        let fl = FilterList::new();
        let mut symbols = Interner::default();
        let amazon = symbols.intern(alexa_net::AMAZON);

        let meta_by_id: BTreeMap<&str, &SkillMeta> =
            obs.catalog.iter().map(|m| (m.id.as_str(), m)).collect();

        // Packet counts per (persona, skill label, endpoint): one pass over
        // the router captures, merging a skill's sessions.
        type PerLabel<'o> = BTreeMap<&'o str, BTreeMap<&'o alexa_net::Domain, u32>>;
        let merged: Vec<(&String, PerLabel)> = obs
            .router_captures
            .iter()
            .map(|(persona, caps)| {
                let mut per_label: PerLabel = BTreeMap::new();
                for cap in caps {
                    let entry = per_label.entry(cap.label.as_str()).or_default();
                    for p in &cap.packets {
                        *entry.entry(&p.remote).or_insert(0) += 1;
                    }
                }
                (persona, per_label)
            })
            .collect();

        // Host table: every distinct endpoint across all router captures,
        // in lexicographic order (so host-id order == host-string order).
        let host_set: BTreeSet<&alexa_net::Domain> = merged
            .iter()
            .flat_map(|(_, per_label)| per_label.values())
            .flat_map(|per_host| per_host.keys().copied())
            .collect();
        let mut hosts = Vec::with_capacity(host_set.len());
        let mut host_ids: BTreeMap<&str, u32> = BTreeMap::new();
        for d in &host_set {
            host_ids.insert(d.as_str(), hosts.len() as u32);
            let host = symbols.intern(d.as_str());
            let registrable = match d.registrable() {
                Some(r) => symbols.intern(r.as_str()),
                None => host,
            };
            let org = obs.orgs.org_of(d).map(|o| symbols.intern(o));
            hosts.push(HostInfo {
                host,
                registrable,
                org,
                org_or_reg: org.unwrap_or(registrable),
                ad_tracking: fl.is_ad_tracking(d),
            });
        }

        // Flow groups, keeping only skills that produced traffic — exactly
        // the legacy `skill_traffic` view, but with counts instead of cloned
        // strings.
        let mut flows: Vec<SkillFlows> = Vec::new();
        let mut host_counts = Vec::new();
        let mut persona_flows = Vec::new();
        for (persona, per_label) in merged {
            let persona_sym = symbols.intern(persona);
            let flows_start = flows.len() as u32;
            for (label, per_host) in per_label {
                let packets: u32 = per_host.values().sum();
                if packets == 0 {
                    continue;
                }
                let start = host_counts.len() as u32;
                host_counts.extend(per_host.into_iter().map(|(d, packets)| HostCount {
                    host: host_ids[d.as_str()],
                    packets,
                }));
                let meta = meta_by_id.get(label).copied();
                let skill = symbols.intern(label);
                flows.push(SkillFlows {
                    persona: persona_sym,
                    skill,
                    name: meta.map_or(skill, |m| symbols.intern(&m.name)),
                    vendor: match meta {
                        Some(m) => symbols.intern(&m.vendor),
                        None => symbols.intern(""),
                    },
                    packets,
                    hosts: start..host_counts.len() as u32,
                });
            }
            persona_flows.push((persona_sym, flows_start..flows.len() as u32));
        }

        let (sync, partners) = sync_structure(&obs.crawl);

        // The slot table: the distinct slot labels in text order, and each
        // slot label's rank in it, indexed by label id.
        let bids = || obs.crawl.values().flatten().flat_map(|v| &v.bids);
        let mut seen = LabelMarks::new();
        bids().for_each(|b| seen.mark(b.slot_id));
        let mut slot_labels = seen.labels;
        slot_labels.sort_unstable_by_key(|l| l.as_str());
        let mut slot_rank = vec![0u32; seen.marked.len()];
        for (rank, l) in (0..).zip(&slot_labels) {
            slot_rank[l.id()] = rank;
        }
        let slots: Vec<Sym> = slot_labels
            .iter()
            .map(|l| symbols.intern(l.as_str()))
            .collect();

        // Dense per-persona bid rows in visit order.
        let persona_bids: Vec<PersonaBids> = obs
            .crawl
            .iter()
            .map(|(persona, visits)| {
                let mut bids = Vec::with_capacity(visits.iter().map(|v| v.bids.len()).sum());
                for v in visits {
                    #[expect(
                        clippy::expect_used,
                        reason = "iterations come from AuditConfig, a few dozen per run; 65,536 would crawl every persona's sites that many times"
                    )]
                    let iteration =
                        u16::try_from(v.iteration).expect("crawl iteration fits in u16");
                    bids.extend(v.bids.iter().map(|b| BidRow {
                        iteration,
                        slot: slot_rank[b.slot_id.id()],
                        partner: partners.contains(b.bidder),
                        cpm: b.cpm,
                    }));
                }
                PersonaBids {
                    persona: symbols.intern(persona),
                    bids,
                }
            })
            .collect();

        // Shared extraction passes for the audio and policy artifacts.
        let extractor = AudioAdExtractor::new();
        let audio_ads = obs
            .audio
            .iter()
            .map(|((persona, service), transcripts)| {
                ((persona.clone(), *service), extractor.extract(transcripts))
            })
            .collect();
        let types_per_skill = FlowExtractor::new().data_types(&obs.avs_captures);
        let policies = obs
            .policies
            .iter()
            .filter_map(|(id, doc)| Some((id.as_str(), CompiledPolicy::compile(doc.as_ref()?))))
            .collect();

        AnalysisIndex {
            obs,
            symbols,
            hosts,
            domains: host_set.into_iter().collect(),
            flows,
            host_counts,
            persona_flows,
            slots,
            persona_bids,
            sync,
            audio_ads,
            types_per_skill,
            policies,
            policheck: PoliCheck::new(),
            amazon,
            meta_by_id,
            slot_masks: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Resolve a symbol to its text.
    pub fn str_of(&self, sym: Sym) -> &str {
        self.symbols.resolve(sym)
    }

    /// The per-host packet counts of one flow group.
    pub fn hosts_of(&self, flow: &SkillFlows) -> &[HostCount] {
        &self.host_counts[flow.hosts.start as usize..flow.hosts.end as usize]
    }

    /// The flow groups of one persona range from [`AnalysisIndex::persona_flows`].
    pub fn flows_in(&self, range: &Range<u32>) -> &[SkillFlows] {
        &self.flows[range.start as usize..range.end as usize]
    }

    /// Classify a host relative to a skill vendor — symbol-compare form of
    /// `OrgMap::classify`. Unknown organizations are third party.
    pub fn org_class(&self, host: &HostInfo, vendor: Sym) -> OrgClass {
        match host.org {
            Some(o) if o == self.amazon => OrgClass::Amazon,
            Some(o) if o == vendor => OrgClass::SkillVendor,
            _ => OrgClass::ThirdParty,
        }
    }

    /// A host's traffic purpose under the built-in filter list.
    pub fn purpose(&self, host: &HostInfo) -> TrafficPurpose {
        if host.ad_tracking {
            TrafficPurpose::AdvertisingTracking
        } else {
            TrafficPurpose::Functional
        }
    }

    /// Catalog metadata for a skill id (map lookup — the legacy
    /// `Observations::skill_meta` is a linear scan).
    pub fn skill_meta(&self, id: &str) -> Option<&'a SkillMeta> {
        self.meta_by_id.get(id).copied()
    }

    /// A skill's compiled policy, if one was downloaded.
    pub fn policy_of(&self, skill_id: &str) -> Option<&CompiledPolicy> {
        self.policies.get(skill_id)
    }

    /// The dense bid table of a persona, if it crawled.
    pub fn bids_of(&self, persona: Persona) -> Option<&PersonaBids> {
        let name = persona.name();
        self.persona_bids
            .binary_search_by(|pb| self.str_of(pb.persona).cmp(name.as_str()))
            .ok()
            .map(|i| &self.persona_bids[i])
    }

    /// Slot mask (indexed like [`AnalysisIndex::slots`]) of the slots that
    /// returned at least one bid for *every* given persona within the
    /// iteration window — the paper's common-slot control.
    ///
    /// Masks are memoized. A miss computes and stores its mask with the
    /// allocation meter paused, so every call charges the caller's window
    /// exactly one mask clone, whichever render shard happens to miss first.
    pub fn common_slots(&self, personas: &[Persona], window: &Range<usize>) -> Vec<bool> {
        if personas.is_empty() {
            return vec![false; self.slots.len()];
        }
        let mut memo = self.slot_masks.lock().unwrap_or_else(|p| p.into_inner());
        let hit = memo
            .iter()
            .position(|(p, w, _)| w == window && p == personas);
        let at = hit.unwrap_or_else(|| {
            let _unmetered = alexa_obs::alloc::pause();
            let mask = self.compute_common_slots(personas, window);
            memo.push((personas.to_vec(), window.clone(), mask));
            memo.len() - 1
        });
        memo[at].2.clone()
    }

    fn compute_common_slots(&self, personas: &[Persona], window: &Range<usize>) -> Vec<bool> {
        let n = self.slots.len();
        let mut common = vec![true; n];
        let mut seen = vec![false; n];
        for p in personas {
            seen.iter_mut().for_each(|s| *s = false);
            if let Some(pb) = self.bids_of(*p) {
                for b in &pb.bids {
                    if window.contains(&(b.iteration as usize)) {
                        seen[b.slot as usize] = true;
                    }
                }
            }
            common
                .iter_mut()
                .zip(&seen)
                .for_each(|(c, s)| *c = *c && *s);
        }
        common
    }

    /// Number of set slots in a mask.
    pub fn slot_count(&self, mask: &[bool]) -> usize {
        mask.iter().filter(|&&m| m).count()
    }

    /// All individual CPM values a persona received on the masked slots
    /// within the window, in observation order.
    pub fn pooled_bids(&self, persona: Persona, window: &Range<usize>, mask: &[bool]) -> Vec<f64> {
        let Some(pb) = self.bids_of(persona) else {
            return Vec::new();
        };
        let kept = || {
            pb.bids
                .iter()
                .filter(|b| window.contains(&(b.iteration as usize)) && mask[b.slot as usize])
        };
        // Counting first sizes the series exactly: these series are the
        // render pass's largest allocations, and growing one by doubling
        // allocates two to four times its size.
        let mut out = Vec::with_capacity(kept().count());
        out.extend(kept().map(|b| b.cpm));
        out
    }

    /// Per-slot mean CPM over the masked slots (slot order — the
    /// significance tests' slot-level sample).
    pub fn slot_means(&self, persona: Persona, window: &Range<usize>, mask: &[bool]) -> Vec<f64> {
        let n = self.slots.len();
        let mut sums = vec![0.0f64; n];
        let mut counts = vec![0usize; n];
        if let Some(pb) = self.bids_of(persona) {
            for b in &pb.bids {
                let s = b.slot as usize;
                if mask[s] && window.contains(&(b.iteration as usize)) {
                    sums[s] += b.cpm;
                    counts[s] += 1;
                }
            }
        }
        (0..n)
            .filter(|&s| mask[s] && counts[s] > 0)
            .map(|s| sums[s] / counts[s] as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_roundtrip_and_dedup() {
        let mut i = Interner::default();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_ne!(a, b);
        assert_eq!(i.intern("alpha"), a);
        assert_eq!(i.resolve(a), "alpha");
        assert_eq!(i.resolve(b), "beta");
        assert_eq!(i.len(), 2);
        assert!(!i.is_empty());
    }

    #[test]
    fn bid_rows_are_16_bytes() {
        assert_eq!(std::mem::size_of::<BidRow>(), 16);
    }

    #[test]
    fn slot_mask_miss_and_hit_charge_the_same_bytes() {
        use alexa_adtech::{Bid, VisitRecord};
        let bid = |slot_id| Bid {
            bidder: Label::intern("b.example"),
            slot_id: Label::intern(slot_id),
            cpm: 1.0,
        };
        let mut obs = Observations::default();
        obs.crawl.insert(
            Persona::Vanilla.name(),
            vec![VisitRecord {
                iteration: 1,
                bids: vec![bid("s#slot0"), bid("s#slot1")],
                ..VisitRecord::default()
            }],
        );
        let ix = AnalysisIndex::build(&obs);
        let charged = || {
            let before = alexa_obs::alloc::snapshot();
            let mask = ix.common_slots(&[Persona::Vanilla], &(0..5));
            let after = alexa_obs::alloc::snapshot();
            (mask, after.count - before.count, after.bytes - before.bytes)
        };
        let miss = charged();
        let hit = charged();
        assert_eq!(miss.0, vec![true, true]);
        assert_eq!(miss, hit, "a memo miss must charge exactly what a hit does");
    }

    #[test]
    fn empty_observations_build_an_empty_index() {
        let obs = Observations::default();
        let ix = AnalysisIndex::build(&obs);
        assert!(ix.hosts.is_empty());
        assert!(ix.flows.is_empty());
        assert!(ix.slots.is_empty());
        assert!(ix.persona_bids.is_empty());
        assert!(ix.sync.amazon_partners.is_empty());
        assert!(ix.common_slots(&[Persona::Vanilla], &(0..10)).is_empty());
    }
}
