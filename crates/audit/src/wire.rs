//! JSON wire codecs for the shard fan-out (DESIGN.md §15).
//!
//! When shards execute outside the parent process (`--backend process`),
//! their inputs and outputs cross a wire as the
//! run-bundle JSON dialect (`alexa_obs::Json`, the PR 5 schema). The codecs
//! here are **bit-exact**: every `f64` travels as its IEEE-754 bit pattern
//! in hex (the JSON `Float` render is lossy by design), so a decoded shard
//! is indistinguishable from one produced in-process — the foundation of
//! the cross-backend byte-identical-bundle guarantee.
//!
//! Everything is `pub(crate)`: the only consumers are the fan-out in
//! [`crate::experiment`] and the worker loop in [`crate::worker`].

use crate::experiment::{AuditConfig, AvsShard, DefenseMode, PersonaShard, ShardAlloc};
use alexa_adtech::{label, Bid, Creative, StreamingService, SyncObservation, VisitRecord};
use alexa_fault::{FaultChannel, FaultLedger, FaultProfile};
use alexa_net::{Capture, DataType, Direction, Domain, Packet, Payload, Record};
use alexa_obs::Json;
use alexa_platform::{DsarExport, DsarPhase, Interest};
use std::collections::BTreeMap;

/// Render an `f64` as its exact bit pattern.
fn f64_hex(v: f64) -> Json {
    Json::Str(format!("{:016x}", v.to_bits()))
}

/// Decode an exact-bit `f64`.
fn f64_from_hex(j: &Json) -> Option<f64> {
    let s = j.as_str()?;
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

// ---- Audit configuration ------------------------------------------------

fn defense_token(d: DefenseMode) -> &'static str {
    match d {
        DefenseMode::None => "none",
        DefenseMode::Firewall => "firewall",
        DefenseMode::TextOnly => "text-only",
    }
}

fn defense_from_token(s: &str) -> Option<DefenseMode> {
    match s {
        "none" => Some(DefenseMode::None),
        "firewall" => Some(DefenseMode::Firewall),
        "text-only" => Some(DefenseMode::TextOnly),
        _ => None,
    }
}

/// Serialize everything a worker needs to rebuild the run's world. The
/// engine knobs (`jobs`, backend selection) deliberately stay behind: a
/// worker always executes its shard sequentially in-process.
pub(crate) fn config_to_json(c: &AuditConfig) -> Json {
    obj(vec![
        ("seed", Json::Int(c.seed)),
        (
            "skills_per_category",
            Json::Int(c.skills_per_category as u64),
        ),
        ("crawl_sites", Json::Int(c.crawl_sites as u64)),
        ("web_size", Json::Int(c.web_size as u64)),
        ("pre_iterations", Json::Int(c.pre_iterations as u64)),
        ("post_iterations", Json::Int(c.post_iterations as u64)),
        ("audio_hours", f64_hex(c.audio_hours)),
        (
            "utterances_per_skill",
            Json::Int(c.utterances_per_skill as u64),
        ),
        ("defense", Json::Str(defense_token(c.defense).to_string())),
        ("fault", c.fault.to_wire_json()),
    ])
}

pub(crate) fn config_from_json(j: &Json) -> Option<AuditConfig> {
    let int = |k: &str| j.get(k).and_then(Json::as_u64);
    Some(AuditConfig {
        seed: int("seed")?,
        skills_per_category: int("skills_per_category")? as usize,
        crawl_sites: int("crawl_sites")? as usize,
        web_size: int("web_size")? as usize,
        pre_iterations: int("pre_iterations")? as usize,
        post_iterations: int("post_iterations")? as usize,
        audio_hours: f64_from_hex(j.get("audio_hours")?)?,
        utterances_per_skill: int("utterances_per_skill")? as usize,
        defense: defense_from_token(j.get("defense")?.as_str()?)?,
        fault: FaultProfile::from_wire_json(j.get("fault")?)?,
        jobs: Some(1),
        backend: alexa_exec::BackendChoice::Thread,
        worker_cmd: Vec::new(),
        worker_timeout_ms: 30_000,
    })
}

// ---- Network captures ----------------------------------------------------

fn data_type_token(t: DataType) -> &'static str {
    match t {
        DataType::VoiceRecording => "voice_recording",
        DataType::TextCommand => "text_command",
        DataType::CustomerId => "customer_id",
        DataType::SkillId => "skill_id",
        DataType::Language => "language",
        DataType::Timezone => "timezone",
        DataType::Preference => "preference",
        DataType::AudioPlayerEvent => "audio_player_event",
        DataType::DeviceMetric => "device_metric",
    }
}

fn data_type_from_token(s: &str) -> Option<DataType> {
    DataType::ALL.into_iter().find(|t| data_type_token(*t) == s)
}

fn payload_to_json(p: &Payload) -> Json {
    match p {
        Payload::Encrypted { len } => obj(vec![("enc", Json::Int(*len as u64))]),
        Payload::Plain(records) => {
            let recs = records
                .iter()
                .map(|r| {
                    obj(vec![
                        ("t", Json::Str(data_type_token(r.data_type).to_string())),
                        ("v", Json::Str(r.value.clone())),
                    ])
                })
                .collect();
            obj(vec![("plain", Json::Arr(recs))])
        }
    }
}

fn payload_from_json(j: &Json) -> Option<Payload> {
    if let Some(len) = j.get("enc").and_then(Json::as_u64) {
        return Some(Payload::Encrypted { len: len as usize });
    }
    let mut records = Vec::new();
    for r in j.get("plain")?.as_arr()? {
        records.push(Record {
            data_type: data_type_from_token(r.get("t")?.as_str()?)?,
            value: r.get("v")?.as_str()?.to_string(),
        });
    }
    Some(Payload::Plain(records))
}

fn packet_to_json(p: &Packet) -> Json {
    let dir = match p.direction {
        Direction::Outgoing => "out",
        Direction::Incoming => "in",
    };
    obj(vec![
        ("ts_ms", Json::Int(p.ts_ms)),
        ("dir", Json::Str(dir.to_string())),
        ("remote", Json::Str(p.remote.as_str().to_string())),
        ("ip", Json::Str(p.remote_ip.to_string())),
        ("payload", payload_to_json(&p.payload)),
    ])
}

fn packet_from_json(j: &Json) -> Option<Packet> {
    let direction = match j.get("dir")?.as_str()? {
        "out" => Direction::Outgoing,
        "in" => Direction::Incoming,
        _ => return None,
    };
    Some(Packet {
        ts_ms: j.get("ts_ms")?.as_u64()?,
        direction,
        remote: Domain::parse(j.get("remote")?.as_str()?).ok()?,
        remote_ip: j.get("ip")?.as_str()?.parse().ok()?,
        payload: payload_from_json(j.get("payload")?)?,
    })
}

fn capture_to_json(c: &Capture) -> Json {
    obj(vec![
        ("label", Json::Str(c.label.clone())),
        (
            "packets",
            Json::Arr(c.packets.iter().map(packet_to_json).collect()),
        ),
    ])
}

fn capture_from_json(j: &Json) -> Option<Capture> {
    let mut packets = Vec::new();
    for p in j.get("packets")?.as_arr()? {
        packets.push(packet_from_json(p)?);
    }
    Some(Capture {
        label: j.get("label")?.as_str()?.to_string(),
        packets,
    })
}

fn captures_to_json(cs: &[Capture]) -> Json {
    Json::Arr(cs.iter().map(capture_to_json).collect())
}

fn captures_from_json(j: &Json) -> Option<Vec<Capture>> {
    let mut out = Vec::new();
    for c in j.as_arr()? {
        out.push(capture_from_json(c)?);
    }
    Some(out)
}

// ---- DSAR exports ---------------------------------------------------------

fn phase_token(p: DsarPhase) -> &'static str {
    match p {
        DsarPhase::AfterInstall => "after_install",
        DsarPhase::AfterInteraction1 => "after_interaction1",
        DsarPhase::AfterInteraction2 => "after_interaction2",
    }
}

fn phase_from_token(s: &str) -> Option<DsarPhase> {
    match s {
        "after_install" => Some(DsarPhase::AfterInstall),
        "after_interaction1" => Some(DsarPhase::AfterInteraction1),
        "after_interaction2" => Some(DsarPhase::AfterInteraction2),
        _ => None,
    }
}

const INTERESTS: [Interest; 7] = [
    Interest::Electronics,
    Interest::DiyTools,
    Interest::HomeKitchen,
    Interest::BeautyPersonalCare,
    Interest::Fashion,
    Interest::VideoEntertainment,
    Interest::PetSupplies,
];

fn interest_from_label(s: &str) -> Option<Interest> {
    INTERESTS.into_iter().find(|i| i.label() == s)
}

fn strings_to_json(v: &[String]) -> Json {
    Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect())
}

fn strings_from_json(j: &Json) -> Option<Vec<String>> {
    let mut out = Vec::new();
    for s in j.as_arr()? {
        out.push(s.as_str()?.to_string());
    }
    Some(out)
}

fn dsar_to_json(e: &DsarExport) -> Json {
    let interests = match &e.advertising_interests {
        None => Json::Null,
        Some(list) => Json::Arr(
            list.iter()
                .map(|i| Json::Str(i.label().to_string()))
                .collect(),
        ),
    };
    obj(vec![
        ("account", Json::Str(e.account.clone())),
        ("interests", interests),
        ("history", strings_to_json(&e.interaction_history)),
    ])
}

fn dsar_from_json(j: &Json) -> Option<DsarExport> {
    let interests = match j.get("interests")? {
        Json::Null => None,
        Json::Arr(list) => {
            let mut out = Vec::new();
            for i in list {
                out.push(interest_from_label(i.as_str()?)?);
            }
            Some(out)
        }
        _ => return None,
    };
    Some(DsarExport {
        account: j.get("account")?.as_str()?.to_string(),
        advertising_interests: interests,
        interaction_history: strings_from_json(j.get("history")?)?,
    })
}

// ---- Crawl records --------------------------------------------------------

fn visit_to_json(v: &VisitRecord) -> Json {
    let bids = v
        .bids
        .iter()
        .map(|b| {
            obj(vec![
                ("bidder", Json::Str(b.bidder.to_string())),
                ("slot", Json::Str(b.slot_id.to_string())),
                ("cpm", f64_hex(b.cpm)),
            ])
        })
        .collect();
    let creatives = v
        .creatives
        .iter()
        .map(|c| {
            obj(vec![
                ("advertiser", Json::Str(c.advertiser.clone())),
                ("product", Json::Str(c.product.clone())),
            ])
        })
        .collect();
    let syncs = v
        .syncs
        .iter()
        .map(|s| {
            obj(vec![
                ("from", Json::Str(s.from_org.to_string())),
                ("to", Json::Str(s.to_org.to_string())),
                ("user", Json::Str(s.user_id.to_string())),
            ])
        })
        .collect();
    obj(vec![
        ("site", Json::Str(v.site.clone())),
        ("iteration", Json::Int(v.iteration as u64)),
        ("bids", Json::Arr(bids)),
        ("creatives", Json::Arr(creatives)),
        ("syncs", Json::Arr(syncs)),
    ])
}

fn visit_from_json(j: &Json) -> Option<VisitRecord> {
    // Decoded labels rejoin the process-wide interner, so a record that
    // crossed the wire shares addresses with one crawled in-process.
    let intern = |k: &str, o: &Json| o.get(k).and_then(Json::as_str).map(label::intern);
    let mut bids = Vec::new();
    for b in j.get("bids")?.as_arr()? {
        bids.push(Bid {
            bidder: intern("bidder", b)?,
            slot_id: intern("slot", b)?,
            cpm: f64_from_hex(b.get("cpm")?)?,
        });
    }
    let mut creatives = Vec::new();
    for c in j.get("creatives")?.as_arr()? {
        creatives.push(Creative {
            advertiser: c.get("advertiser")?.as_str()?.to_string(),
            product: c.get("product")?.as_str()?.to_string(),
        });
    }
    let mut syncs = Vec::new();
    for s in j.get("syncs")?.as_arr()? {
        syncs.push(SyncObservation {
            from_org: intern("from", s)?,
            to_org: intern("to", s)?,
            user_id: intern("user", s)?,
        });
    }
    Some(VisitRecord {
        site: j.get("site")?.as_str()?.to_string(),
        iteration: j.get("iteration")?.as_u64()? as usize,
        bids,
        creatives,
        syncs,
    })
}

// ---- Fault accounting ------------------------------------------------------

fn service_from_label(s: &str) -> Option<StreamingService> {
    StreamingService::ALL.into_iter().find(|v| v.label() == s)
}

fn coverage_to_json(c: &alexa_fault::Coverage) -> Json {
    obj(vec![
        ("observed", Json::Int(c.observed)),
        ("expected", Json::Int(c.expected)),
    ])
}

fn coverage_from_json(j: &Json) -> Option<alexa_fault::Coverage> {
    Some(alexa_fault::Coverage::new(
        j.get("observed")?.as_u64()?,
        j.get("expected")?.as_u64()?,
    ))
}

fn ledger_to_json(l: &FaultLedger) -> Json {
    let injected = l
        .injected
        .iter()
        .map(|(label, n)| (label.to_string(), Json::Int(*n)))
        .collect();
    obj(vec![
        ("injected", Json::Obj(injected)),
        ("retries", Json::Int(l.retries)),
        ("backoff_ms", Json::Int(l.backoff_ms)),
        ("losses", Json::Int(l.losses)),
        ("degraded", Json::Bool(l.degraded)),
    ])
}

fn ledger_from_json(j: &Json) -> Option<FaultLedger> {
    let mut injected: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (label, n) in j.get("injected")?.as_obj()? {
        // Round-trip through the channel registry to recover the 'static
        // label the ledger stores.
        let channel = FaultChannel::from_label(label)?;
        injected.insert(channel.label(), n.as_u64()?);
    }
    Some(FaultLedger {
        injected,
        retries: j.get("retries")?.as_u64()?,
        backoff_ms: j.get("backoff_ms")?.as_u64()?,
        losses: j.get("losses")?.as_u64()?,
        degraded: j.get("degraded")?.as_bool()?,
    })
}

// ---- Shard payloads ---------------------------------------------------------

pub(crate) fn persona_shard_to_json(s: &PersonaShard) -> Json {
    let router = match &s.router_captures {
        None => Json::Null,
        Some(cs) => captures_to_json(cs),
    };
    let dsar = s
        .dsar
        .iter()
        .map(|(phase, export)| {
            obj(vec![
                ("phase", Json::Str(phase_token(*phase).to_string())),
                ("export", dsar_to_json(export)),
            ])
        })
        .collect();
    let audio = s
        .audio
        .iter()
        .map(|(service, transcripts)| {
            obj(vec![
                ("service", Json::Str(service.label().to_string())),
                ("transcripts", strings_to_json(transcripts)),
            ])
        })
        .collect();
    obj(vec![
        ("router_captures", router),
        ("failed_installs", strings_to_json(&s.failed_installs)),
        ("dsar", Json::Arr(dsar)),
        (
            "crawl",
            Json::Arr(s.crawl.iter().map(visit_to_json).collect()),
        ),
        ("audio", Json::Arr(audio)),
        ("ledger", ledger_to_json(&s.ledger)),
        ("installs", coverage_to_json(&s.installs)),
        ("interactions", coverage_to_json(&s.interactions)),
        ("visits", coverage_to_json(&s.visits)),
    ])
}

pub(crate) fn persona_shard_from_json(j: &Json) -> Option<PersonaShard> {
    let router_captures = match j.get("router_captures")? {
        Json::Null => None,
        other => Some(captures_from_json(other)?),
    };
    let mut dsar = Vec::new();
    for d in j.get("dsar")?.as_arr()? {
        dsar.push((
            phase_from_token(d.get("phase")?.as_str()?)?,
            dsar_from_json(d.get("export")?)?,
        ));
    }
    let mut crawl = Vec::new();
    for v in j.get("crawl")?.as_arr()? {
        crawl.push(visit_from_json(v)?);
    }
    let mut audio = Vec::new();
    for a in j.get("audio")?.as_arr()? {
        audio.push((
            service_from_label(a.get("service")?.as_str()?)?,
            strings_from_json(a.get("transcripts")?)?,
        ));
    }
    Some(PersonaShard {
        router_captures,
        failed_installs: strings_from_json(j.get("failed_installs")?)?,
        dsar,
        crawl,
        audio,
        ledger: ledger_from_json(j.get("ledger")?)?,
        installs: coverage_from_json(j.get("installs")?)?,
        interactions: coverage_from_json(j.get("interactions")?)?,
        visits: coverage_from_json(j.get("visits")?)?,
    })
}

/// Serialize a shard's allocation window. The size histogram travels
/// sparsely — one `[bucket_lo, count]` pair per non-empty bucket — because
/// a 65-bucket log2 histogram is almost entirely zeros.
pub(crate) fn shard_alloc_to_json(a: &ShardAlloc) -> Json {
    let sizes = a
        .sizes
        .sparse()
        .into_iter()
        .map(|(lo, _hi, count)| Json::Arr(vec![Json::Int(lo), Json::Int(count)]))
        .collect();
    obj(vec![
        ("count", Json::Int(a.count)),
        ("bytes", Json::Int(a.bytes)),
        ("peak_bytes", Json::Int(a.peak_bytes)),
        ("sizes", Json::Arr(sizes)),
    ])
}

pub(crate) fn shard_alloc_from_json(j: &Json) -> Option<ShardAlloc> {
    let mut sizes = alexa_obs::Histogram::new();
    for pair in j.get("sizes")?.as_arr()? {
        let pair = pair.as_arr()?;
        if pair.len() != 2 {
            return None;
        }
        // A bucket's lower bound is itself a member of the bucket, so
        // recording it `count` times rebuilds the exact bucket array.
        sizes.record_n(pair[0].as_u64()?, pair[1].as_u64()?);
    }
    Some(ShardAlloc {
        count: j.get("count")?.as_u64()?,
        bytes: j.get("bytes")?.as_u64()?,
        peak_bytes: j.get("peak_bytes")?.as_u64()?,
        sizes,
    })
}

pub(crate) fn avs_shard_to_json(s: &AvsShard) -> Json {
    obj(vec![
        ("captures", captures_to_json(&s.captures)),
        ("ledger", ledger_to_json(&s.ledger)),
        ("skills", coverage_to_json(&s.skills)),
    ])
}

pub(crate) fn avs_shard_from_json(j: &Json) -> Option<AvsShard> {
    Some(AvsShard {
        captures: captures_from_json(j.get("captures")?)?,
        ledger: ledger_from_json(j.get("ledger")?)?,
        skills: coverage_from_json(j.get("skills")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_capture() -> Capture {
        Capture {
            label: "skill-42".into(),
            packets: vec![
                Packet::outgoing(
                    17,
                    Domain::parse("device-metrics-us-2.amazon.com").unwrap(),
                    "10.1.2.3".parse().unwrap(),
                    Payload::Encrypted { len: 512 },
                ),
                Packet::incoming(
                    18,
                    Domain::parse("avs.amazon.com").unwrap(),
                    "10.1.2.4".parse().unwrap(),
                    Payload::Plain(vec![
                        Record::new(DataType::VoiceRecording, "alexa, open garmin"),
                        Record::new(DataType::CustomerId, "A1B2\nC3"),
                    ]),
                ),
            ],
        }
    }

    fn sample_ledger() -> FaultLedger {
        let mut l = FaultLedger::new();
        l.inject(FaultChannel::InstallFailure, 3);
        l.inject(FaultChannel::BidLoss, 9);
        l.retries = 4;
        l.backoff_ms = 350;
        l.losses = 1;
        l.degraded = true;
        l
    }

    #[test]
    fn persona_shard_round_trips_bit_exactly() {
        let shard = PersonaShard {
            router_captures: Some(vec![sample_capture()]),
            failed_installs: vec!["skill-7".into()],
            dsar: vec![(
                DsarPhase::AfterInteraction2,
                DsarExport {
                    account: "acct-cc".into(),
                    advertising_interests: Some(vec![Interest::Fashion, Interest::PetSupplies]),
                    interaction_history: vec!["Alexa, open garmin".into()],
                },
            )],
            crawl: vec![VisitRecord {
                site: "news.example".into(),
                iteration: 5,
                bids: vec![Bid {
                    bidder: label::intern("adx.example"),
                    slot_id: label::intern("news.example#3"),
                    cpm: 0.123_456_789_012_345_67,
                }],
                creatives: vec![Creative {
                    advertiser: "Dyson".into(),
                    product: "Dyson vacuum cleaner".into(),
                }],
                syncs: vec![SyncObservation {
                    from_org: label::intern("a.example"),
                    to_org: label::intern("b.example"),
                    user_id: label::intern("uid-9"),
                }],
            }],
            audio: vec![(StreamingService::Pandora, vec!["ad script".into()])],
            ledger: sample_ledger(),
            installs: alexa_fault::Coverage::new(9, 10),
            interactions: alexa_fault::Coverage::new(17, 20),
            visits: alexa_fault::Coverage::new(48, 48),
        };
        // Round-trip through the rendered string (exactly what crosses the
        // worker pipe), not just the Json tree.
        let rendered = persona_shard_to_json(&shard).render();
        let decoded = persona_shard_from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(decoded.router_captures, shard.router_captures);
        assert_eq!(decoded.failed_installs, shard.failed_installs);
        assert_eq!(decoded.dsar, shard.dsar);
        assert_eq!(decoded.audio, shard.audio);
        assert_eq!(decoded.ledger, shard.ledger);
        assert_eq!(decoded.installs, shard.installs);
        assert_eq!(decoded.interactions, shard.interactions);
        assert_eq!(decoded.visits, shard.visits);
        assert_eq!(decoded.crawl.len(), 1);
        let (a, b) = (&decoded.crawl[0], &shard.crawl[0]);
        assert_eq!(a.site, b.site);
        assert_eq!(a.creatives, b.creatives);
        assert_eq!(a.syncs, b.syncs);
        assert_eq!(a.bids[0].bidder, b.bids[0].bidder);
        // The lossy part of JSON floats must NOT be lossy here.
        assert_eq!(a.bids[0].cpm.to_bits(), b.bids[0].cpm.to_bits());
        // Debug-render equality is what the digest actually hashes.
        assert_eq!(format!("{:?}", a.bids), format!("{:?}", b.bids));
    }

    #[test]
    fn crawled_visit_round_trips_to_the_same_interned_labels() {
        use alexa_adtech::bidding::{standard_roster, SeasonModel, UserState};
        use alexa_adtech::{Auction, BrowserProfile, Crawler, SyncGraph, WebEcosystem};
        let graph = SyncGraph::generate(3);
        let auction = Auction {
            bidders: standard_roster(graph.partners()),
            season: SeasonModel::default(),
        };
        let crawler = Crawler::new(auction, graph);
        let web = WebEcosystem::generate(3, 120);
        let mut profile = BrowserProfile::fresh("t", 1, None);
        let user = UserState::blank("t");
        let visits: Vec<VisitRecord> = web
            .prebid_sites(6)
            .into_iter()
            .map(|site| crawler.visit(site, &mut profile, &user, 2, 3))
            .collect();
        assert!(visits
            .iter()
            .any(|v| !v.bids.is_empty() && !v.syncs.is_empty()));
        let same = |a: &str, b: &str| std::ptr::eq(a, b);
        for v in &visits {
            let rendered = visit_to_json(v).render();
            let back = visit_from_json(&Json::parse(&rendered).unwrap()).unwrap();
            // Byte-identical where the digest looks, pointer-identical where
            // the index memo looks.
            assert_eq!(format!("{back:?}"), format!("{v:?}"));
            for (a, b) in back.bids.iter().zip(&v.bids) {
                assert!(same(a.bidder, b.bidder) && same(a.slot_id, b.slot_id));
                assert_eq!(a.cpm.to_bits(), b.cpm.to_bits());
            }
            for (a, b) in back.syncs.iter().zip(&v.syncs) {
                assert!(same(a.from_org, b.from_org) && same(a.to_org, b.to_org));
                assert!(same(a.user_id, b.user_id));
            }
        }
    }

    #[test]
    fn avs_shard_round_trips() {
        let shard = AvsShard {
            captures: vec![sample_capture()],
            ledger: sample_ledger(),
            skills: alexa_fault::Coverage::new(8, 10),
        };
        let rendered = avs_shard_to_json(&shard).render();
        let decoded = avs_shard_from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(decoded.captures, shard.captures);
        assert_eq!(decoded.ledger, shard.ledger);
        assert_eq!(decoded.skills, shard.skills);
    }

    #[test]
    fn shard_alloc_round_trips_including_sparse_histogram() {
        let mut sizes = alexa_obs::Histogram::new();
        sizes.record_n(0, 3); // bucket 0: exactly zero-sized requests
        sizes.record_n(24, 17);
        sizes.record_n(4096, 2);
        sizes.record_n(u64::MAX, 1); // top bucket round-trips via its lower bound
        let alloc = ShardAlloc {
            count: 23,
            bytes: 987_654,
            peak_bytes: 120_000,
            sizes,
        };
        let rendered = shard_alloc_to_json(&alloc).render();
        let decoded = shard_alloc_from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(decoded.count, alloc.count);
        assert_eq!(decoded.bytes, alloc.bytes);
        assert_eq!(decoded.peak_bytes, alloc.peak_bytes);
        assert_eq!(decoded.sizes, alloc.sizes);
    }

    #[test]
    fn config_round_trips_for_worker_rebuild() {
        let config = AuditConfig::small(2222)
            .with_defense(DefenseMode::Firewall)
            .with_faults(FaultProfile::flaky());
        let rendered = config_to_json(&config).render();
        let decoded = config_from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(decoded.seed, config.seed);
        assert_eq!(decoded.skills_per_category, config.skills_per_category);
        assert_eq!(decoded.crawl_sites, config.crawl_sites);
        assert_eq!(decoded.web_size, config.web_size);
        assert_eq!(decoded.pre_iterations, config.pre_iterations);
        assert_eq!(decoded.post_iterations, config.post_iterations);
        assert_eq!(decoded.audio_hours.to_bits(), config.audio_hours.to_bits());
        assert_eq!(decoded.utterances_per_skill, config.utterances_per_skill);
        assert_eq!(decoded.defense, config.defense);
        assert_eq!(decoded.fault.name(), config.fault.name());
        // Engine knobs intentionally reset to worker-side defaults.
        assert_eq!(decoded.jobs, Some(1));
    }

    #[test]
    fn malformed_documents_decode_to_none() {
        assert!(persona_shard_from_json(&Json::Null).is_none());
        assert!(avs_shard_from_json(&Json::Null).is_none());
        assert!(config_from_json(&Json::Null).is_none());
        assert!(shard_alloc_from_json(&Json::Null).is_none());
        assert!(f64_from_hex(&Json::Str("xyz".into())).is_none());
        assert!(data_type_from_token("mystery").is_none());
        assert!(phase_from_token("mystery").is_none());
        assert!(defense_from_token("mystery").is_none());
    }
}
