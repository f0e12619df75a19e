//! Interned ids carry no order: seed 7's report and digest do not change
//! when every label, bid key and sync triple seed 7 records gets its id in
//! reverse text order.
//!
//! Ids are handed out in first-interned order, so in an ordinary run they
//! happen to follow the order the run meets its values. A table sorted by
//! id instead of by text would then still print the golden report. Here a
//! child process (this binary, running the ignored `seed7_vocabulary`)
//! executes seed 7 and lists what it records; this process interns all of
//! it in reverse text order before anything else, then executes and renders
//! seed 7 itself, and checks the digest, the golden report and the
//! analysis index's ordered tables. This file holds one test so that the
//! tables are empty when it starts.

#![expect(
    clippy::disallowed_types,
    clippy::expect_used,
    reason = "the test runs its own binary as a child process, and test helpers fail the test by panicking"
)]

use alexa_adtech::{BidKey, Label, SyncObservation};
use alexa_audit::{AnalysisIndex, AuditConfig, AuditRun, Observations};
use alexa_bench::{render_all, ARTIFACTS};
use alexa_fault::FaultProfile;
use alexa_obs::{Json, Recorder};
use std::collections::BTreeSet;
use std::process::Command;

/// Seed 7's fault-free, undefended digest, as pinned in
/// `crates/audit/tests/determinism.rs`.
const SEED7_DIGEST: u64 = 0x94b0c84975bd88bd;

/// What a run records, as texts: the labels, the bid keys' (bidder, slot)
/// pairs and the sync triples.
#[derive(Default)]
struct Vocabulary {
    labels: BTreeSet<String>,
    bid_keys: BTreeSet<[String; 2]>,
    syncs: BTreeSet<[String; 3]>,
}

impl Vocabulary {
    fn of(obs: &Observations) -> Vocabulary {
        let mut v = Vocabulary::default();
        let text = |l: Label| l.as_str().to_string();
        let packets = obs.router_captures.values().flatten();
        for p in packets.chain(&obs.avs_captures).flat_map(|c| &c.packets) {
            v.labels.insert(text(p.remote.name()));
        }
        for visit in obs.crawl.values().flatten() {
            v.labels.insert(text(visit.site));
            for c in &visit.creatives {
                v.labels.extend([text(c.advertiser), text(c.product)]);
            }
            for b in &visit.bids {
                let (bidder, slot) = b.key().parts();
                v.bid_keys.insert([text(bidder), text(slot)]);
            }
            for s in &visit.syncs {
                let (from, to, user) = s.parts();
                v.syncs.insert([text(from), text(to), text(user)]);
            }
        }
        let tuples = v.bid_keys.iter().flatten().chain(v.syncs.iter().flatten());
        let tuple_labels: Vec<String> = tuples.cloned().collect();
        v.labels.extend(tuple_labels);
        v
    }

    /// One JSON array of strings per line, tagged `L`, `B` or `S`.
    fn lines(&self) -> Vec<String> {
        let line = |tag: &str, texts: &[String]| {
            let items = std::iter::once(tag.to_string()).chain(texts.iter().cloned());
            Json::Arr(items.map(Json::Str).collect()).render()
        };
        let labels = self
            .labels
            .iter()
            .map(|l| line("L", std::slice::from_ref(l)));
        let keys = self.bid_keys.iter().map(|k| line("B", k));
        labels
            .chain(keys)
            .chain(self.syncs.iter().map(|s| line("S", s)))
            .collect()
    }

    fn parse(stdout: &str) -> Vocabulary {
        let mut v = Vocabulary::default();
        for line in stdout.lines().filter(|l| l.starts_with('[')) {
            let json = Json::parse(line).expect("a vocabulary line");
            let texts: Vec<String> = json
                .as_arr()
                .expect("an array")
                .iter()
                .map(|t| t.as_str().expect("a string").to_string())
                .collect();
            let known = match texts.as_slice() {
                [tag, l] if tag == "L" => v.labels.insert(l.clone()),
                [tag, b, s] if tag == "B" => v.bid_keys.insert([b.clone(), s.clone()]),
                [tag, f, t, u] if tag == "S" => v.syncs.insert([f.clone(), t.clone(), u.clone()]),
                _ => false,
            };
            assert!(known, "not a new vocabulary line: {line}");
        }
        v
    }
}

/// The child half: print what seed 7 records.
#[test]
#[ignore = "run by `ids_interned_in_reverse_text_order_change_nothing` in a process of its own"]
fn seed7_vocabulary() {
    let obs = AuditRun::execute(AuditConfig::paper(7));
    for line in Vocabulary::of(&obs).lines() {
        println!("{line}");
    }
}

#[test]
fn ids_interned_in_reverse_text_order_change_nothing() {
    assert_eq!(
        BidKey::count(),
        0,
        "this process must start with empty tables"
    );
    let child = Command::new(std::env::current_exe().expect("the test binary"))
        .args(["--exact", "seed7_vocabulary", "--ignored", "--nocapture"])
        .output()
        .expect("run the vocabulary child");
    assert!(child.status.success(), "the vocabulary child failed");
    let vocab = Vocabulary::parse(&String::from_utf8_lossy(&child.stdout));
    assert!(vocab.labels.len() > 500 && vocab.bid_keys.len() > 500 && vocab.syncs.len() > 5_000);

    // Every label, then every key and triple, largest text first.
    let label = |t: &String| Label::intern(t);
    let labels: Vec<Label> = vocab.labels.iter().rev().map(label).collect();
    let keys: Vec<BidKey> = (vocab.bid_keys.iter().rev())
        .map(|[b, s]| BidKey::intern(label(b), label(s)))
        .collect();
    for [f, t, u] in vocab.syncs.iter().rev() {
        SyncObservation::new(label(f), label(t), label(u));
    }
    let rising = |ids: &[usize]| ids.windows(2).all(|w| w[0] < w[1]);
    assert!(rising(&labels.iter().map(|l| l.id()).collect::<Vec<_>>()));
    assert!(rising(&keys.iter().map(|k| k.id()).collect::<Vec<_>>()));
    assert!(labels.first() > labels.last(), "ids run against text order");

    let obs = AuditRun::execute(AuditConfig::paper(7));
    assert_eq!(
        (BidKey::count(), SyncObservation::count()),
        (vocab.bid_keys.len(), vocab.syncs.len()),
        "the run interned a tuple the child did not record"
    );
    let digest = obs.digest();
    assert_eq!(digest, SEED7_DIGEST, "digest {digest:016x}");
    // The report reads slots through order-free statistics, so check the
    // index's ordered tables directly too.
    let ix = AnalysisIndex::build(&obs);
    let in_text_order = |texts: Vec<&str>| texts.windows(2).all(|w| w[0] < w[1]);
    let slots = ix.slots.iter().map(|&s| ix.str_of(s)).collect();
    assert!(in_text_order(slots), "the slot table is not in text order");
    let hosts = ix.hosts.iter().map(|h| ix.str_of(h.host)).collect();
    assert!(in_text_order(hosts), "the host table is not in text order");
    drop(ix);
    let rec = Recorder::disabled();
    let rendered = render_all(&obs, ARTIFACTS, 7, None, &FaultProfile::none(), &rec);
    let report: String = rendered.iter().map(|a| format!("{a}\n")).collect();
    assert!(
        report == include_str!("golden/report_seed7.txt"),
        "seed 7's report depends on the order ids were handed out in"
    );
}
