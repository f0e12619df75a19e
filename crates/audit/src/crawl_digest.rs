//! The typed walk that hashes `Observations::crawl` for the digest.
//!
//! The digest is FNV-1a over the derived-`Debug` text of the observations.
//! `crawl` is about nine tenths of that text (31.7 MB at seed 7), and
//! pushing it through `core::fmt` costs about twice what hashing the same
//! bytes does. This walk emits exactly the bytes the derived `Debug` of
//! `BTreeMap<String, Vec<VisitRecord>>` prints, straight into the hasher:
//!
//! * constant fragments (`Bid { bidder: "`, `", slot_id: "`, …) are
//!   applied with [`Fnv1a::jump`], O(1) each;
//! * each [`Label`] (slot ids, orgs, cookie values, sites, creatives, and
//!   the captures' hosts) is a constant string too, so its quoted body is
//!   applied as a jump built on the label's first quote (from the escaped
//!   body when `Debug` escapes it). A seed-7 digest quotes 979 distinct
//!   labels 744,921 times; the tables (2 KiB each) live only as
//!   long as one digest. A bid's key and a sync event's triple resolve to
//!   their labels through a dense memo by key id, filled once per key;
//! * other strings are hashed raw, with the check for bytes `Debug` would
//!   escape fused into the hashing loop, falling back to the `{:?}` bytes
//!   for the rare string that needs escaping;
//! * `usize` is hashed as decimal and the bid CPMs through
//!   [`Fnv1a::f64_debug`], which writes core's `{:?}` bytes itself.
//!
//! What is left is the byte-serial chain over the persona names and the
//! CPM digits, plus one jump per fragment and label.
//!
//! `VisitRecord` and `Creative` are destructured exhaustively, so a field
//! added to either stops this module compiling until the walk learns it.
//! `Bid` and `SyncObservation` hold interned keys and are read through
//! their accessors (`BidKey::parts`, `Bid::cpm`, `SyncObservation::parts`),
//! and their hand-written `Debug` impls print the fields the walk emits;
//! the drift-guard tests below compare the walk with `format!("{:?}")`
//! byte for byte, so a change to either side fails them.

use alexa_adtech::{BidKey, Creative, Label, SyncObservation, VisitRecord};
use alexa_fault::{Fnv1a, FnvJump};
use std::collections::BTreeMap;

pub(crate) static LIST_SEP: FnvJump = FnvJump::new(", ");
static VISIT_SITE: FnvJump = FnvJump::new("VisitRecord { site: \"");
static VISIT_ITERATION: FnvJump = FnvJump::new("\", iteration: ");
static VISIT_BIDS: FnvJump = FnvJump::new(", bids: [");
static BID_FIRST: FnvJump = FnvJump::new("Bid { bidder: \"");
static BID_NEXT: FnvJump = FnvJump::new(", Bid { bidder: \"");
static BID_SLOT_ID: FnvJump = FnvJump::new("\", slot_id: \"");
static BID_CPM: FnvJump = FnvJump::new("\", cpm: ");
static STRUCT_CLOSE: FnvJump = FnvJump::new(" }");
static VISIT_CREATIVES: FnvJump = FnvJump::new("], creatives: [");
static CREATIVE_FIRST: FnvJump = FnvJump::new("Creative { advertiser: \"");
static CREATIVE_NEXT: FnvJump = FnvJump::new(", Creative { advertiser: \"");
static CREATIVE_PRODUCT: FnvJump = FnvJump::new("\", product: \"");
pub(crate) static QUOTED_CLOSE: FnvJump = FnvJump::new("\" }");
static VISIT_SYNCS: FnvJump = FnvJump::new("], syncs: [");
static SYNC_FIRST: FnvJump = FnvJump::new("SyncObservation { from_org: \"");
static SYNC_NEXT: FnvJump = FnvJump::new(", SyncObservation { from_org: \"");
static SYNC_TO_ORG: FnvJump = FnvJump::new("\", to_org: \"");
static SYNC_USER_ID: FnvJump = FnvJump::new("\", user_id: \"");
pub(crate) static LIST_STRUCT_CLOSE: FnvJump = FnvJump::new("] }");

/// One jump per label id, each built on the label's first quote and all
/// dropped with the digest.
pub(crate) struct LabelJumps(Vec<Option<Box<FnvJump>>>);

impl LabelJumps {
    /// A table covering every label interned so far; a later label is
    /// hashed byte by byte.
    pub(crate) fn new() -> LabelJumps {
        LabelJumps((0..Label::count()).map(|_| None).collect())
    }

    /// Append the label's text as `Debug` prints it between its quotes.
    pub(crate) fn hash(&mut self, h: &mut Fnv1a, l: Label) {
        match self.0.get_mut(l.id()) {
            Some(slot) => {
                h.jump(slot.get_or_insert_with(|| Box::new(body_jump(l.as_str()))));
            }
            None => str_body(h, l.as_str()),
        }
    }
}

/// Each interned key's parts by key id, resolved from the key's intern
/// table the first time the walk meets the key: a seed-7 crawl quotes 840
/// bid keys 195k times and 5,278 sync triples 108k times, and one dense
/// read is cheaper than a table lookup per record.
struct KeyParts<T>(Vec<Option<T>>);

impl<T: Copy> KeyParts<T> {
    /// A memo covering `count` ids; a later key is resolved every time.
    fn new(count: usize) -> KeyParts<T> {
        KeyParts(vec![None; count])
    }

    fn get(&mut self, id: usize, resolve: impl FnOnce() -> T) -> T {
        match self.0.get_mut(id) {
            Some(Some(parts)) => *parts,
            Some(slot) => *slot.insert(resolve()),
            None => resolve(),
        }
    }
}

/// The parts of the bid keys and sync triples one walk meets.
struct RecordKeys {
    bids: KeyParts<(Label, Label)>,
    syncs: KeyParts<(Label, Label, Label)>,
}

/// The jump over what `{:?}` prints for `s` between its quotes.
fn body_jump(s: &str) -> FnvJump {
    if s.bytes().all(plain) {
        FnvJump::new(s)
    } else {
        FnvJump::new(&escaped_body(s))
    }
}

/// Hash the `Debug` text of the crawl map: `{"persona": [VisitRecord { … },
/// …], …}`.
pub(crate) fn hash_crawl(
    h: &mut Fnv1a,
    labels: &mut LabelJumps,
    crawl: &BTreeMap<String, Vec<VisitRecord>>,
) {
    let mut keys = RecordKeys {
        bids: KeyParts::new(BidKey::count()),
        syncs: KeyParts::new(SyncObservation::count()),
    };
    h.byte(b'{');
    for (i, (persona, visits)) in crawl.iter().enumerate() {
        if i > 0 {
            h.jump(&LIST_SEP);
        }
        h.byte(b'"');
        str_body(h, persona);
        h.str("\": [");
        for (j, visit) in visits.iter().enumerate() {
            if j > 0 {
                h.jump(&LIST_SEP);
            }
            hash_visit(h, labels, &mut keys, visit);
        }
        h.byte(b']');
    }
    h.byte(b'}');
}

/// One visit, exactly as `{:?}` prints it.
fn hash_visit(h: &mut Fnv1a, labels: &mut LabelJumps, keys: &mut RecordKeys, visit: &VisitRecord) {
    let VisitRecord {
        site,
        iteration,
        bids,
        creatives,
        syncs,
    } = visit;
    h.jump(&VISIT_SITE);
    labels.hash(h, *site);
    h.jump(&VISIT_ITERATION);
    h.u64(*iteration as u64);
    h.jump(&VISIT_BIDS);
    for (i, bid) in bids.iter().enumerate() {
        let key = bid.key();
        let (bidder, slot_id) = keys.bids.get(key.id(), || key.parts());
        h.jump(if i == 0 { &BID_FIRST } else { &BID_NEXT });
        labels.hash(h, bidder);
        h.jump(&BID_SLOT_ID);
        labels.hash(h, slot_id);
        h.jump(&BID_CPM);
        h.f64_debug(bid.cpm());
        h.jump(&STRUCT_CLOSE);
    }
    h.jump(&VISIT_CREATIVES);
    for (i, creative) in creatives.iter().enumerate() {
        let Creative {
            advertiser,
            product,
        } = creative;
        h.jump(if i == 0 {
            &CREATIVE_FIRST
        } else {
            &CREATIVE_NEXT
        });
        labels.hash(h, *advertiser);
        h.jump(&CREATIVE_PRODUCT);
        labels.hash(h, *product);
        h.jump(&QUOTED_CLOSE);
    }
    h.jump(&VISIT_SYNCS);
    for (i, sync) in syncs.iter().enumerate() {
        let (from_org, to_org, user_id) = keys.syncs.get(sync.id(), || sync.parts());
        h.jump(if i == 0 { &SYNC_FIRST } else { &SYNC_NEXT });
        labels.hash(h, from_org);
        h.jump(&SYNC_TO_ORG);
        labels.hash(h, to_org);
        h.jump(&SYNC_USER_ID);
        labels.hash(h, user_id);
        h.jump(&QUOTED_CLOSE);
    }
    h.jump(&LIST_STRUCT_CLOSE);
}

/// Hash what `{:?}` prints for `s` between its quotes. The fast path hashes
/// the raw bytes; it bails out on the first byte `<str as Debug>` might
/// escape (the same test core's own fast path uses) and hashes core's
/// `{:?}` output instead.
pub(crate) fn str_body(h: &mut Fnv1a, s: &str) {
    let mut fast = *h;
    for &b in s.as_bytes() {
        if !plain(b) {
            h.str(&escaped_body(s));
            return;
        }
        fast.byte(b);
    }
    *h = fast;
}

/// Whether `<str as Debug>` prints `b` as itself for certain.
fn plain(b: u8) -> bool {
    (0x20..=0x7e).contains(&b) && b != b'"' && b != b'\\'
}

/// What `{:?}` prints for `s` between its quotes.
fn escaped_body(s: &str) -> String {
    let quoted = format!("{s:?}");
    match quoted.strip_prefix('"').and_then(|q| q.strip_suffix('"')) {
        Some(body) => body.to_string(),
        None => quoted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexa_adtech::Bid;

    /// The reference: FNV-1a over the `Debug` text itself.
    fn debug_hash(crawl: &BTreeMap<String, Vec<VisitRecord>>) -> u64 {
        let mut h = Fnv1a::new();
        h.str(&format!("{crawl:?}"));
        h.finish()
    }

    fn walk_hash(crawl: &BTreeMap<String, Vec<VisitRecord>>) -> u64 {
        let mut h = Fnv1a::new();
        hash_crawl(&mut h, &mut LabelJumps::new(), crawl);
        h.finish()
    }

    /// Strings that exercise every escape class `Debug` knows: quotes,
    /// backslashes, control characters, DEL, printable and non-printable
    /// non-ASCII, grapheme extenders, plus the empty string.
    const STRINGS: &[&str] = &[
        "",
        "example.com",
        "slot-3",
        "say \"hi\"",
        "back\\slash",
        "tab\there",
        "line\nbreak\r",
        "nul\u{0}byte",
        "del\u{7f}",
        "caf\u{e9}",
        "\u{6f22}\u{5b57}",
        "\u{301}leading combining mark",
        "zero\u{200b}width",
        "soft\u{ad}hyphen",
        "it's",
        "emoji \u{1f600}",
    ];

    /// `f64`s whose `Debug` switches notation or spells a special value.
    const FLOATS: &[f64] = &[
        0.0,
        -0.0,
        1.0,
        0.30000000000000004,
        2.47,
        1e-5,
        1e-4,
        1e16,
        1e15,
        5e-324,
        2.2250738585072014e-308 / 3.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
    ];

    /// A tiny deterministic generator (SplitMix64) for record shapes.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn str(&mut self) -> &'static str {
            STRINGS[self.below(STRINGS.len())]
        }

        fn label(&mut self) -> Label {
            Label::intern(self.str())
        }

        fn visit(&mut self) -> VisitRecord {
            let bids = (0..self.below(4))
                .map(|_| {
                    let (bidder, slot_id) = (self.label(), self.label());
                    Bid::new(bidder, slot_id, FLOATS[self.below(FLOATS.len())])
                })
                .collect();
            let creatives = (0..self.below(3))
                .map(|_| Creative {
                    advertiser: self.label(),
                    product: self.label(),
                })
                .collect();
            let syncs = (0..self.below(3))
                .map(|_| {
                    let (from_org, to_org) = (self.label(), self.label());
                    SyncObservation::new(from_org, to_org, self.label())
                })
                .collect();
            VisitRecord {
                site: self.label(),
                iteration: self.below(40) * self.below(1000),
                bids,
                creatives,
                syncs,
            }
        }
    }

    #[test]
    fn labels_debug_print_as_their_text() {
        for &text in STRINGS {
            let label = Label::intern(text);
            assert_eq!(format!("{label:?}"), format!("{:?}", label.as_str()));
            assert_eq!(label.as_str(), text);
            assert_eq!(Label::intern(text), label, "equal text, one id");
        }
    }

    #[test]
    fn empty_map_and_empty_lists_match_debug() {
        let mut crawl = BTreeMap::new();
        assert_eq!(walk_hash(&crawl), debug_hash(&crawl));
        crawl.insert("Vanilla".to_string(), Vec::new());
        assert_eq!(walk_hash(&crawl), debug_hash(&crawl));
        crawl.insert("Web \"Health\"".to_string(), vec![VisitRecord::default()]);
        assert_eq!(walk_hash(&crawl), debug_hash(&crawl));
    }

    #[test]
    fn every_float_and_string_matches_debug() {
        let visits: Vec<VisitRecord> = FLOATS
            .iter()
            .zip(STRINGS.iter().cycle())
            .map(|(&cpm, &s)| VisitRecord {
                site: Label::intern(s),
                iteration: usize::MAX,
                bids: vec![Bid::new(Label::intern(s), Label::intern(s), cpm)],
                ..VisitRecord::default()
            })
            .collect();
        let crawl = BTreeMap::from([("p".to_string(), visits)]);
        assert_eq!(walk_hash(&crawl), debug_hash(&crawl));
    }

    #[test]
    fn generated_crawls_match_debug() {
        for seed in 0..200 {
            let mut g = Gen(seed);
            let mut crawl = BTreeMap::new();
            for _ in 0..g.below(4) {
                let visits = (0..g.below(5)).map(|_| g.visit()).collect();
                crawl.insert(g.str().to_string(), visits);
            }
            assert_eq!(walk_hash(&crawl), debug_hash(&crawl), "seed {seed}");
        }
    }

    #[test]
    fn the_walk_is_sensitive_to_every_field() {
        let base = VisitRecord {
            site: Label::intern("a.com"),
            iteration: 3,
            bids: vec![Bid::new(Label::intern("b"), Label::intern("s"), 1.5)],
            creatives: vec![Creative {
                advertiser: Label::intern("ad"),
                product: Label::intern("p"),
            }],
            syncs: vec![SyncObservation::new(
                Label::intern("f"),
                Label::intern("t"),
                Label::intern("u"),
            )],
        };
        let hash =
            |v: &VisitRecord| walk_hash(&BTreeMap::from([("p".to_string(), vec![v.clone()])]));
        let mut seen = vec![hash(&base)];
        let mut mutants = Vec::new();
        let mut m = base.clone();
        m.site = Label::intern("a.comx");
        mutants.push(m);
        let mut m = base.clone();
        m.iteration += 1;
        mutants.push(m);
        let (b, s) = (Label::intern("b"), Label::intern("s"));
        let mut m = base.clone();
        m.bids[0] = Bid::new(Label::intern("c"), s, 1.5);
        mutants.push(m);
        let mut m = base.clone();
        m.bids[0] = Bid::new(b, Label::intern("t"), 1.5);
        mutants.push(m);
        let mut m = base.clone();
        m.bids[0] = Bid::new(b, s, 1.25);
        mutants.push(m);
        let mut m = base.clone();
        m.creatives[0].advertiser = Label::intern("adx");
        mutants.push(m);
        let mut m = base.clone();
        m.creatives[0].product = Label::intern("px");
        mutants.push(m);
        let (f, t) = (Label::intern("f"), Label::intern("t"));
        let mut m = base.clone();
        m.syncs[0] = SyncObservation::new(Label::intern("g"), t, Label::intern("u"));
        mutants.push(m);
        let mut m = base.clone();
        m.syncs[0] = SyncObservation::new(f, Label::intern("s"), Label::intern("u"));
        mutants.push(m);
        let mut m = base.clone();
        m.syncs[0] = SyncObservation::new(f, t, Label::intern("v"));
        mutants.push(m);
        let mut m = base.clone();
        m.bids.clear();
        mutants.push(m);
        for m in &mutants {
            let h = hash(m);
            assert!(!seen.contains(&h), "mutant {m:?} collides");
            seen.push(h);
        }
    }
}
