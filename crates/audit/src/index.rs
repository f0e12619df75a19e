//! The shared analysis index: every derived view the report artifacts need,
//! computed **once** per run from [`Observations`].
//!
//! Before this module existed, each of the ~25 report artifacts rescanned
//! the raw captures packet-by-packet with per-endpoint `String` clones —
//! O(artifacts × packets) work that made rendering 82% of a paper-scale
//! run's wall time. The index performs each scan exactly once and stores
//! the results in dense, sorted tables. It adds no label space of its own:
//! hosts and ad slots stay the observations' interned [`alexa_net::Label`]s
//! (as [`Domain`]s and slot labels), personas stay [`Persona`]s, and every
//! other text (organizations, skill ids, names, vendors) is borrowed from
//! the observations:
//!
//! * per-host attributes ([`HostInfo`]: the endpoint, its registrable
//!   domain, organization, traffic purpose) computed once per distinct
//!   endpoint, the hosts sorted by text once;
//! * per-(persona, skill) flow aggregates ([`SkillFlows`]) with per-host
//!   packet counts, counted into a dense table indexed by each host's rank
//!   (found through its [`alexa_net::Label`] id), in the exact iteration
//!   order the legacy per-artifact scans produced;
//! * the slot table, and per-persona bid views ([`BidView`]) that read the
//!   crawl's bids in place, resolving each bid's slot rank and partner flag
//!   with one read of a dense table indexed by the bid's interned key
//!   ([`alexa_adtech::BidKey`]) rather than hash probes or a copy of the
//!   crawl;
//! * the recovered cookie-sync structure, extracted audio ads, and the
//!   AVS data-type map — each shared by several artifacts.
//!
//! Determinism: every table is built by iterating `BTreeMap`s of the
//! observations (keyed by [`Persona`], ordered by name), and every ordered
//! table is sorted by text, never by an interned id, so the index — and
//! everything rendered from it — is a pure function of the observable
//! record, independent of thread count and of the order in which the
//! process interned its labels and keys.

use crate::analysis::partners::{SyncAnalysis, AMAZON_AD_ENDPOINT};
use crate::observations::{Observations, SkillMeta};
use crate::persona::Persona;
use alexa_adtech::{
    AudioAdExtractor, BidKey, Label, StreamingService, SyncObservation, VisitRecord,
};
use alexa_net::{Capture, DataType, Domain, FilterList, OrgClass, TrafficPurpose, AMAZON};
use alexa_policy::{CompiledPolicy, FlowExtractor, PoliCheck};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Marks interned values (labels, bid keys) in a table indexed by their
/// dense id, remembering each value the first time it is marked.
#[derive(Debug)]
struct Marks<T> {
    marked: Vec<bool>,
    items: Vec<T>,
}

impl<T: Copy> Marks<T> {
    /// A table covering ids below `count`.
    fn new(count: usize) -> Marks<T> {
        Marks {
            marked: vec![false; count],
            items: Vec::new(),
        }
    }

    fn mark(&mut self, id: usize, item: T) {
        if let Some(m) = self.marked.get_mut(id) {
            if !std::mem::replace(m, true) {
                self.items.push(item);
            }
        }
    }

    fn contains(&self, id: usize) -> bool {
        self.marked.get(id).copied().unwrap_or(false)
    }
}

/// The crawl's cookie-sync structure: Amazon's partners push to
/// [`AMAZON_AD_ENDPOINT`], and their downstream parties are every
/// non-Amazon organization a partner pushes to. Two passes over the sync
/// events mark label ids; the partner marks also classify the bidders.
/// Each pass resolves each distinct triple once (5,278 of 107,556 events
/// at seed 7): the first pass flags the triples it met, the second clears
/// each flag as it goes.
fn sync_structure(crawl: &BTreeMap<Persona, Vec<VisitRecord>>) -> (SyncAnalysis, Marks<Label>) {
    let amazon = Label::intern(AMAZON_AD_ENDPOINT);
    let syncs = || crawl.values().flatten().flat_map(|v| &v.syncs);
    let mut met = vec![false; SyncObservation::count()];
    let mut partners = Marks::new(Label::count());
    let mut amazon_syncs_out = false;
    for s in syncs() {
        if let Some(m @ &mut false) = met.get_mut(s.id()) {
            *m = true;
            let (from_org, to_org, _) = s.parts();
            if to_org == amazon {
                partners.mark(from_org.id(), from_org);
            }
            amazon_syncs_out |= from_org == amazon;
        }
    }
    let mut downstream = Marks::new(Label::count());
    for s in syncs() {
        if let Some(m @ &mut true) = met.get_mut(s.id()) {
            *m = false;
            let (from_org, to_org, _) = s.parts();
            if to_org != amazon && partners.contains(from_org.id()) {
                downstream.mark(to_org.id(), to_org);
            }
        }
    }
    let sync = SyncAnalysis {
        amazon_syncs_out,
        amazon_partners: partners.items.iter().copied().collect(),
        downstream_parties: downstream.items.into_iter().collect(),
    };
    (sync, partners)
}

/// Everything the analyses need to know about one distinct endpoint host,
/// computed once (instead of once per artifact per packet).
#[derive(Debug, Clone, Copy)]
pub struct HostInfo<'a> {
    /// The endpoint.
    pub host: Domain,
    /// Registrable domain (eTLD+1), falling back to the host itself.
    pub registrable: Domain,
    /// Owning organization, when the org database knows it.
    pub org: Option<&'a str>,
    /// Organization with the registrable-domain fallback (the paper's
    /// WHOIS fallback, used by Figure 2 and the endpoint-policy analysis).
    pub org_or_reg: &'a str,
    /// Whether the filter list classifies the host as advertising/tracking.
    pub ad_tracking: bool,
}

/// Packet count for one host within one (persona, skill) flow group.
#[derive(Debug, Clone, Copy)]
struct HostCount {
    /// Index into [`AnalysisIndex::hosts`].
    host: u32,
    /// Packets the skill session sent to this host.
    packets: u32,
}

/// Merged traffic of one skill under one persona (only skills that
/// produced traffic — failed installs carry no endpoint evidence).
#[derive(Debug, Clone)]
pub struct SkillFlows<'a> {
    /// Persona whose device produced the traffic.
    pub persona: Persona,
    /// Skill id (capture label).
    pub skill: &'a str,
    /// Skill display name (falls back to the id when the catalog has no
    /// entry).
    pub name: &'a str,
    /// Vendor organization ("" when unknown).
    pub vendor: &'a str,
    /// Total packets across the skill's sessions.
    pub packets: u32,
    /// This group's per-host packet counts, hosts in lexicographic order
    /// (read through [`AnalysisIndex::hosts_of`]).
    hosts: Range<u32>,
}

/// One crawl bid as the bid analyses read it: its slot resolved to a rank
/// in [`AnalysisIndex::slots`] and its bidder to the partner flag.
#[derive(Debug, Clone, Copy)]
pub struct IndexedBid {
    /// Crawl iteration the bid was observed in.
    pub iteration: usize,
    /// Index into [`AnalysisIndex::slots`].
    pub slot: usize,
    /// Whether the bidder is one of Amazon's cookie-sync partners.
    pub partner: bool,
    /// Bid value.
    pub cpm: f64,
}

/// What the bid analyses read of one [`BidKey`]: the rank of its slot in
/// [`AnalysisIndex::slots`] and whether its bidder is one of Amazon's
/// cookie-sync partners.
#[derive(Debug, Clone, Copy, Default)]
struct KeyInfo {
    slot: u32,
    partner: bool,
}

/// One persona's crawl bids, read in place from its visit records in visit
/// order (the order every legacy scan produced — Tables 5 and 10 take the
/// observation-order mean, so summation order fixes the output bits).
#[derive(Debug, Clone, Copy)]
pub struct BidView<'i> {
    visits: &'i [VisitRecord],
    /// Slot rank and partner flag by bid key id.
    keys: &'i [KeyInfo],
}

impl<'i> BidView<'i> {
    /// The bids of the visits whose iteration lies in `window`, in
    /// observation order. The window is tested once per visit, so visits
    /// outside it are skipped whole.
    pub fn in_window(self, window: &Range<usize>) -> impl Iterator<Item = IndexedBid> + 'i {
        let window = window.clone();
        self.visits
            .iter()
            .filter(move |v| window.contains(&v.iteration))
            .flat_map(move |v| {
                v.bids.iter().filter_map(move |b| {
                    let key = self.keys.get(b.key().id())?;
                    Some(IndexedBid {
                        iteration: v.iteration,
                        slot: key.slot as usize,
                        partner: key.partner,
                        cpm: b.cpm(),
                    })
                })
            })
    }
}

/// The shared, deterministic analysis index. Build once per run with
/// [`AnalysisIndex::build`]; every analysis function reads it instead of
/// rescanning the captures.
#[derive(Debug)]
pub struct AnalysisIndex<'a> {
    /// The raw observable record (for the few cheap analyses — DSAR,
    /// creatives, policy documents — that read it directly).
    pub obs: &'a Observations,
    /// Distinct endpoint hosts in lexicographic order.
    pub hosts: Vec<HostInfo<'a>>,
    /// Per-(persona, skill) flow groups, personas then skills in
    /// lexicographic order.
    pub flows: Vec<SkillFlows<'a>>,
    /// Arena backing each flow group's `hosts` range.
    host_counts: Vec<HostCount>,
    /// Per-persona ranges into [`AnalysisIndex::flows`], personas in
    /// lexicographic order (flow groups are persona-contiguous).
    pub persona_flows: Vec<(Persona, Range<u32>)>,
    /// Distinct ad-slot ids in lexicographic order.
    pub slots: Vec<Label>,
    /// Each bid key's slot rank and partner flag, by key id.
    bid_keys: Vec<KeyInfo>,
    /// Recovered cookie-sync structure (partners, downstream parties).
    pub sync: SyncAnalysis,
    /// Extracted audio ads per (persona, streaming service).
    pub audio_ads: BTreeMap<(Persona, StreamingService), Vec<String>>,
    /// Data types observed per skill in the AVS plaintext captures.
    pub types_per_skill: BTreeMap<String, BTreeSet<DataType>>,
    /// Every downloaded policy, compiled once, by skill id.
    pub policies: BTreeMap<&'a str, CompiledPolicy>,
    /// The one PoliCheck analyzer every policy artifact classifies with.
    pub policheck: PoliCheck,
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

        let meta_by_id: BTreeMap<&str, &SkillMeta> =
            obs.catalog.iter().map(|m| (m.id.as_str(), m)).collect();

        // Host table: every distinct endpoint across all router captures,
        // sorted by text once (so host-id order == host-string order), and
        // each host's rank in it, indexed by the host's label id.
        let mut host_rank = vec![u32::MAX; Label::count()];
        let mut domains: Vec<Domain> = Vec::new();
        for p in obs
            .router_captures
            .values()
            .flatten()
            .flat_map(|c| &c.packets)
        {
            if let Some(rank @ &mut u32::MAX) = host_rank.get_mut(p.remote.name().id()) {
                *rank = 0;
                domains.push(p.remote);
            }
        }
        domains.sort_unstable();
        let mut hosts = Vec::with_capacity(domains.len());
        for (rank, &host) in (0..).zip(&domains) {
            if let Some(r) = host_rank.get_mut(host.name().id()) {
                *r = rank;
            }
            let registrable = host.registrable().unwrap_or(host);
            let org = obs.orgs.org_of(&host);
            hosts.push(HostInfo {
                host,
                registrable,
                org,
                org_or_reg: org.unwrap_or(registrable.as_str()),
                ad_tracking: fl.is_ad_tracking(&host),
            });
        }

        // Flow groups, keeping only skills that produced traffic — exactly
        // the legacy `skill_traffic` view, but with counts instead of cloned
        // strings. A persona's captures are grouped by skill label (merging
        // the skill's sessions) in label order, and each group's packets are
        // counted into a dense table indexed by host rank.
        let mut flows: Vec<SkillFlows> = Vec::new();
        let mut host_counts = Vec::new();
        let mut persona_flows = Vec::new();
        let mut counts = vec![0u32; hosts.len()];
        let mut touched: Vec<u32> = Vec::new();
        let mut by_label: Vec<&Capture> = Vec::new();
        for (&persona, caps) in &obs.router_captures {
            let flows_start = flows.len() as u32;
            by_label.clear();
            by_label.extend(caps);
            by_label.sort_by_key(|c| c.label.as_str());
            for group in by_label.chunk_by(|a, b| a.label == b.label) {
                let mut packets = 0u32;
                for p in group.iter().flat_map(|c| &c.packets) {
                    packets += 1;
                    // Every packet's host was ranked above.
                    let rank = host_rank.get(p.remote.name().id()).copied();
                    let Some((rank, count)) =
                        rank.and_then(|r| Some((r, counts.get_mut(r as usize)?)))
                    else {
                        continue;
                    };
                    if *count == 0 {
                        touched.push(rank);
                    }
                    *count += 1;
                }
                let Some(first) = group.first().filter(|_| packets > 0) else {
                    continue;
                };
                touched.sort_unstable();
                let start = host_counts.len() as u32;
                host_counts.extend(touched.drain(..).map(|host| HostCount {
                    host,
                    packets: counts.get_mut(host as usize).map_or(0, std::mem::take),
                }));
                let skill = first.label.as_str();
                let meta = meta_by_id.get(skill).copied();
                flows.push(SkillFlows {
                    persona,
                    skill,
                    name: meta.map_or(skill, |m| m.name.as_str()),
                    vendor: meta.map_or("", |m| m.vendor.as_str()),
                    packets,
                    hosts: start..host_counts.len() as u32,
                });
            }
            persona_flows.push((persona, flows_start..flows.len() as u32));
        }

        let (sync, partners) = sync_structure(&obs.crawl);

        // The bid keys the crawl quotes (840 at seed 7), the slot table (the
        // distinct slots of those keys, in text order), and for each key its
        // slot's rank and its bidder's partner flag, indexed by key id.
        let mut keys = Marks::new(BidKey::count());
        for b in obs.crawl.values().flatten().flat_map(|v| &v.bids) {
            keys.mark(b.key().id(), b.key());
        }
        let mut slot_labels = Marks::new(Label::count());
        keys.items
            .iter()
            .for_each(|k| slot_labels.mark(k.slot_id().id(), k.slot_id()));
        let mut slots = slot_labels.items;
        slots.sort_unstable();
        let mut bid_keys = vec![KeyInfo::default(); keys.marked.len()];
        for k in &keys.items {
            if let (Some(info), Ok(slot)) =
                (bid_keys.get_mut(k.id()), slots.binary_search(&k.slot_id()))
            {
                *info = KeyInfo {
                    slot: slot as u32,
                    partner: partners.contains(k.bidder().id()),
                };
            }
        }

        // Shared extraction passes for the audio and policy artifacts.
        let extractor = AudioAdExtractor::new();
        let audio_ads = obs
            .audio
            .iter()
            .map(|(&key, transcripts)| (key, extractor.extract(transcripts)))
            .collect();
        let types_per_skill = FlowExtractor::new().data_types(&obs.avs_captures);
        let policies = obs
            .policies
            .iter()
            .filter_map(|(id, doc)| Some((id.as_str(), CompiledPolicy::compile(doc.as_ref()?))))
            .collect();

        AnalysisIndex {
            obs,
            hosts,
            flows,
            host_counts,
            persona_flows,
            slots,
            bid_keys,
            sync,
            audio_ads,
            types_per_skill,
            policies,
            policheck: PoliCheck::new(),
            meta_by_id,
            slot_masks: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// The hosts one flow group contacted, in lexicographic order, each
    /// with the packets the group sent it.
    pub fn hosts_of(&self, flow: &SkillFlows) -> impl Iterator<Item = (&HostInfo<'a>, u32)> + '_ {
        let counts = flow.hosts.start as usize..flow.hosts.end as usize;
        self.host_counts
            .get(counts)
            .unwrap_or_default()
            .iter()
            .filter_map(|hc| Some((self.hosts.get(hc.host as usize)?, hc.packets)))
    }

    /// The flow groups of one persona range from [`AnalysisIndex::persona_flows`].
    pub fn flows_in(&self, range: &Range<u32>) -> &[SkillFlows<'a>] {
        let flows = range.start as usize..range.end as usize;
        self.flows.get(flows).unwrap_or_default()
    }

    /// Classify a host relative to a skill vendor — `OrgMap::classify` over
    /// the pre-resolved organization. Unknown organizations are third party.
    pub fn org_class(&self, host: &HostInfo, vendor: &str) -> OrgClass {
        match host.org {
            Some(o) if o == AMAZON => OrgClass::Amazon,
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

    /// A persona's crawl bids, read in place (empty when it did not crawl).
    pub fn bids_of(&self, persona: Persona) -> BidView<'_> {
        BidView {
            visits: self.obs.crawl.get(&persona).map_or(&[], Vec::as_slice),
            keys: &self.bid_keys,
        }
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
        memo.get(at)
            .map_or_else(Vec::new, |(_, _, mask)| mask.clone())
    }

    fn compute_common_slots(&self, personas: &[Persona], window: &Range<usize>) -> Vec<bool> {
        let n = self.slots.len();
        let mut common = vec![true; n];
        let mut seen = vec![false; n];
        for p in personas {
            seen.iter_mut().for_each(|s| *s = false);
            for b in self.bids_of(*p).in_window(window) {
                if let Some(s) = seen.get_mut(b.slot) {
                    *s = true;
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
        let bids = self.bids_of(persona);
        let kept = || {
            bids.in_window(window)
                .filter(|b| mask.get(b.slot).copied().unwrap_or(false))
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
        let mut slots = vec![(0.0f64, 0usize); self.slots.len()];
        for b in self.bids_of(persona).in_window(window) {
            if let (Some(true), Some((sum, count))) = (mask.get(b.slot), slots.get_mut(b.slot)) {
                *sum += b.cpm;
                *count += 1;
            }
        }
        mask.iter()
            .zip(&slots)
            .filter(|&(&m, &(_, count))| m && count > 0)
            .map(|(_, &(sum, count))| sum / count as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crawl_bids_are_12_bytes() {
        // The bid views scan the crawl's records in place: 12 bytes a bid.
        assert_eq!(std::mem::size_of::<alexa_adtech::Bid>(), 12);
    }

    #[test]
    fn slot_mask_miss_and_hit_charge_the_same_bytes() {
        use alexa_adtech::{Bid, VisitRecord};
        let bid = |slot_id| Bid::new(Label::intern("b.example"), Label::intern(slot_id), 1.0);
        let mut obs = Observations::default();
        obs.crawl.insert(
            Persona::Vanilla,
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
    fn build_does_not_copy_the_crawl() {
        // 1,000 visits of 100 bids each: a 12-byte row per bid would charge
        // the build 1.2 MB, twelve times this bound.
        use alexa_adtech::{Bid, VisitRecord};
        let slots: Vec<Label> = (0..40)
            .map(|s| Label::intern(&format!("site{}#slot{}", s % 8, s)))
            .collect();
        let bidders: Vec<Label> = (0..25)
            .map(|b| Label::intern(&format!("bidder{b}.example")))
            .collect();
        let visits: Vec<VisitRecord> = (0..1_000)
            .map(|v| VisitRecord {
                iteration: v / 40,
                bids: (0..100)
                    .map(|b| {
                        Bid::new(
                            bidders[(v + b) % bidders.len()],
                            slots[(v * 7 + b) % slots.len()],
                            (v * 100 + b) as f64 / 1000.0,
                        )
                    })
                    .collect(),
                ..VisitRecord::default()
            })
            .collect();
        let n_bids: u64 = visits.iter().map(|v| v.bids.len() as u64).sum();
        assert!(n_bids >= 100_000);
        let mut obs = Observations::default();
        obs.crawl.insert(Persona::Vanilla, visits);
        let before = alexa_obs::alloc::snapshot();
        let ix = AnalysisIndex::build(&obs);
        let bytes = alexa_obs::alloc::snapshot().bytes - before.bytes;
        assert_eq!(ix.slots.len(), slots.len());
        assert!(
            bytes < n_bids,
            "index.build allocated {bytes} B for {n_bids} bids ({} labels interned)",
            Label::count()
        );
    }

    #[test]
    fn host_table_is_in_text_order_whatever_the_intern_order() {
        use alexa_net::{Capture, Packet, Payload};
        // Interned in reverse text order, so label ids disagree with text
        // order.
        let names = [
            "zz.index-order.com",
            "mm.index-order.com",
            "aa.index-order.com",
        ];
        let [zz, mm, aa] = names.map(|n| Domain::parse(n).unwrap());
        assert!(zz.name().id() < aa.name().id());
        let ip = std::net::Ipv4Addr::new(10, 0, 0, 1);
        let session = |label: &str, hosts: &[Domain]| {
            let mut c = Capture::new(label);
            c.packets = hosts
                .iter()
                .map(|&d| Packet::outgoing(1, d, ip, Payload::Encrypted { len: 1 }))
                .collect();
            c
        };
        let mut obs = Observations::default();
        // Two sessions of skill-b (merged) around one of skill-a.
        obs.router_captures.insert(
            Persona::Vanilla,
            vec![
                session("skill-b", &[zz, aa, zz]),
                session("skill-a", &[mm]),
                session("skill-b", &[mm]),
            ],
        );
        let ix = AnalysisIndex::build(&obs);
        let hosts: Vec<Domain> = ix.hosts.iter().map(|h| h.host).collect();
        assert_eq!(hosts, [aa, mm, zz]);
        let flows: Vec<String> = ix
            .flows
            .iter()
            .map(|f| {
                let per_host: Vec<String> = ix
                    .hosts_of(f)
                    .map(|(h, packets)| format!("{}={packets}", h.host.as_str()))
                    .collect();
                format!("{} {}: {}", f.skill, f.packets, per_host.join(" "))
            })
            .collect();
        assert_eq!(
            flows,
            [
                "skill-a 1: mm.index-order.com=1",
                "skill-b 4: aa.index-order.com=1 mm.index-order.com=1 zz.index-order.com=2",
            ]
        );
    }

    /// Observations with `k` skills, each contacting its own host under its
    /// own registrable domain, owned by its own organization.
    fn distinct_texts(k: usize) -> Observations {
        use alexa_net::{Capture, Packet, Payload};
        let ip = std::net::Ipv4Addr::new(10, 0, 0, 1);
        let mut obs = Observations::default();
        let mut captures = Vec::new();
        for i in 0..k {
            let host = Domain::parse(&format!("api.texts{i}.com")).unwrap();
            // Intern the registrable label up front: the build only reads it.
            let registrable = host.registrable().unwrap();
            obs.orgs
                .register(registrable.as_str(), &format!("Texts {i}, Inc."));
            let mut c = Capture::new(format!("skill-{i}"));
            c.packets = vec![Packet::outgoing(1, host, ip, Payload::Encrypted { len: 1 })];
            captures.push(c);
            obs.catalog.push(SkillMeta {
                id: format!("skill-{i}"),
                name: format!("Skill {i}"),
                vendor: format!("Vendor {i}"),
                category: alexa_platform::SkillCategory::Dating,
                reviews: 1,
                streaming: false,
                policy_link: false,
            });
        }
        obs.router_captures.insert(Persona::Vanilla, captures);
        obs
    }

    #[test]
    fn build_borrows_its_texts() {
        // Each distinct skill brings six texts (host, registrable domain,
        // org, skill id, name, vendor); copying each into the index would
        // cost at least two allocations per extra skill.
        const K: usize = 400;
        let allocations = |k: usize| {
            let obs = distinct_texts(k);
            let before = alexa_obs::alloc::snapshot();
            let ix = AnalysisIndex::build(&obs);
            let count = alexa_obs::alloc::snapshot().count - before.count;
            assert_eq!((ix.hosts.len(), ix.flows.len()), (k, k));
            let first = &ix.flows[0];
            let (host, packets) = ix.hosts_of(first).next().unwrap();
            assert_eq!(
                (
                    first.skill,
                    first.name,
                    first.vendor,
                    host.org_or_reg,
                    packets
                ),
                ("skill-0", "Skill 0", "Vendor 0", "Texts 0, Inc.", 1)
            );
            count
        };
        let (one, two) = (allocations(K), allocations(2 * K));
        assert!(
            two - one < K as u64,
            "{K} more skills cost {} more allocations ({one} → {two})",
            two - one
        );
    }

    #[test]
    fn skill_meta_lookup() {
        let obs = Observations {
            catalog: vec![SkillMeta {
                id: "car-garmin".into(),
                name: "Garmin".into(),
                vendor: "Garmin International".into(),
                category: alexa_platform::SkillCategory::ConnectedCar,
                reviews: 2143,
                streaming: true,
                policy_link: false,
            }],
            ..Observations::default()
        };
        let ix = AnalysisIndex::build(&obs);
        assert_eq!(ix.skill_meta("car-garmin").unwrap().name, "Garmin");
        assert!(ix.skill_meta("nope").is_none());
    }

    #[test]
    fn empty_observations_build_an_empty_index() {
        let obs = Observations::default();
        let ix = AnalysisIndex::build(&obs);
        assert!(ix.hosts.is_empty());
        assert!(ix.flows.is_empty());
        assert!(ix.slots.is_empty());
        assert_eq!(ix.bids_of(Persona::Vanilla).in_window(&(0..10)).count(), 0);
        assert!(ix.sync.amazon_partners.is_empty());
        assert!(ix.common_slots(&[Persona::Vanilla], &(0..10)).is_empty());
    }
}
