//! The Alexa cloud: mediator of every interaction.
//!
//! The paper's central structural finding (§4.1) is that **Amazon mediates
//! everything**: every voice input is interpreted by Amazon before any skill
//! sees it, most skills are hosted on Amazon infrastructure, and the device
//! additionally streams telemetry to Amazon endpoints. This module generates
//! the network traffic of one interaction session accordingly:
//!
//! * device → Amazon voice endpoints (one of the 11 `amazon.com` subdomains
//!   of Table 1) carrying the voice recording and identifiers;
//! * device → auxiliary Amazon endpoints (`prod.amcs-tachyon.com`,
//!   `api.amazonalexa.com`, CloudFront, AWS, the `a2z.com` ingestion
//!   endpoint, captive portals) — which subset a skill session touches is a
//!   deterministic function of the skill, calibrated to Table 1's per-domain
//!   skill counts;
//! * device → `device-metrics-us-2.amazon.com` telemetry (the most prominent
//!   tracking domain of §4.2);
//! * device → the skill's own backends (commercial Echo only) — including
//!   the advertising & tracking services embedded by the nine skills of
//!   Tables 3/4, with persistent identifiers attached when the skill
//!   collects them.
//!
//! Every interaction is also fed to the [`Profiler`].

use crate::profiler::Profiler;
use crate::skill::Skill;
use alexa_fault::Fnv1a;
use alexa_net::{DataType, DnsTable, Domain, Packet, Payload, Record};

/// The 11 `amazon.com` voice/infrastructure subdomains of Table 1.
const AMAZON_SUBDOMAINS: &[&str] = &[
    "avs-alexa-na.amazon.com",
    "api.amazon.com",
    "latinum.amazon.com",
    "dcape-na.amazon.com",
    "unagi-na.amazon.com",
    "device-artifacts-us.amazon.com",
    "todo-ta-g7g.amazon.com",
    "kindle-time.amazon.com",
    "arcus-uswest.amazon.com",
    "dp-gw-na.amazon.com",
    "msh.amazon.com",
];

/// The 7 CloudFront distribution hosts of Table 1.
const CLOUDFRONT_HOSTS: &[&str] = &[
    "d3p8zr0ffa9t17.cloudfront.net",
    "d1s31zyz7dcc2d.cloudfront.net",
    "dtjsystab.cloudfront.net",
    "d2c1wpa0t2hcer.cloudfront.net",
    "d38u2vnjldleoq.cloudfront.net",
    "d27xjbyqh4pibl.cloudfront.net",
    "d1g1zj4l2ac3sw.cloudfront.net",
];

/// The 4 AWS hosts of Table 1.
const AWS_HOSTS: &[&str] = &[
    "alexa-skill-hosted.s3.amazonaws.com",
    "lambda.us-east-1.amazonaws.com",
    "polly.us-east-1.amazonaws.com",
    "dynamodb.us-east-1.amazonaws.com",
];

/// Kind of interaction generating a session's traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum InteractionKind {
    /// Skill installation / enablement (via the web companion app).
    Install,
    /// A voice utterance delivered to the skill (already transcribed).
    Utterance(String),
    /// A voice utterance that fell through to the built-in assistant.
    BuiltInUtterance(String),
    /// Skill uninstallation.
    Uninstall,
}

/// A deterministic pseudo-Bernoulli draw from a skill id and a salt.
fn skill_chance(skill_id: &str, salt: &str, p: f64) -> bool {
    let h = Fnv1a::hash_parts(&[skill_id, ":", salt]);
    (h % 10_000) as f64 / 10_000.0 < p
}

/// The Alexa cloud simulation.
#[derive(Debug)]
pub struct AlexaCloud {
    dns: DnsTable,
    /// Amazon's profiling engine (interest inference, DSAR).
    pub profiler: Profiler,
    clock_ms: u64,
    /// Parsed-and-resolved endpoint cache: the same few dozen endpoint
    /// names are hit by every session, and `Domain::parse` re-validates
    /// the name each time. Both steps are pure functions of the name, so
    /// caching them is invisible to the generated traffic.
    #[expect(
        clippy::disallowed_types,
        reason = "lookup-only cache of a pure function; iteration order never reaches an output"
    )]
    endpoints: std::collections::HashMap<String, (Domain, std::net::Ipv4Addr)>,
}

impl AlexaCloud {
    /// Create a cloud instance.
    pub fn new() -> AlexaCloud {
        AlexaCloud {
            dns: DnsTable::new(),
            profiler: Profiler::new(),
            clock_ms: 0,
            #[expect(
                clippy::disallowed_types,
                reason = "lookup-only cache, see the field's rationale"
            )]
            endpoints: std::collections::HashMap::new(),
        }
    }

    /// Current simulation time in milliseconds.
    pub fn now(&self) -> u64 {
        self.clock_ms
    }

    /// Access the DNS table (for reverse resolution in analyses).
    pub fn dns(&self) -> &DnsTable {
        &self.dns
    }

    fn endpoint(&mut self, name: &str) -> (Domain, std::net::Ipv4Addr) {
        if let Some(cached) = self.endpoints.get(name) {
            return cached.clone();
        }
        let d = Domain::parse(name).unwrap_or_else(|_| Domain::invalid_sentinel());
        let ip = self.dns.resolve(&d);
        self.endpoints.insert(name.to_string(), (d.clone(), ip));
        (d, ip)
    }

    fn push_out(&mut self, packets: &mut Vec<Packet>, name: &str, records: Vec<Record>) {
        let (d, ip) = self.endpoint(name);
        self.clock_ms += 3;
        packets.push(Packet::outgoing(
            self.clock_ms,
            d,
            ip,
            Payload::Plain(records),
        ));
    }

    fn push_in(&mut self, packets: &mut Vec<Packet>, name: &str, bytes: usize) {
        let (d, ip) = self.endpoint(name);
        self.clock_ms += 5;
        packets.push(Packet::incoming(
            self.clock_ms,
            d,
            ip,
            Payload::Encrypted { len: bytes },
        ));
    }

    /// Generate all traffic for one interaction session.
    ///
    /// `avs` selects the AVS Echo behaviour: the device only talks to
    /// Amazon-organization endpoints, so skill backends are never contacted.
    /// Device-model constraints (streaming unsupported on AVS) are enforced
    /// by the caller in `device.rs`.
    pub(crate) fn session_traffic(
        &mut self,
        account: &str,
        customer_id: &str,
        skill: &Skill,
        kind: &InteractionKind,
        avs: bool,
    ) -> Vec<Packet> {
        let mut packets = Vec::new();
        if skill.fails_to_load {
            // The session dies before producing traffic (4 skills, Table 1).
            return packets;
        }
        let sid = skill.id.0.as_str();

        match kind {
            InteractionKind::Install => {
                self.profiler.record_install(account, skill);
                let mut records = vec![Record::new(
                    DataType::VoiceRecording,
                    format!("alexa enable {}", skill.invocation),
                )];
                if skill.collects_type(DataType::CustomerId) {
                    records.push(Record::new(DataType::CustomerId, customer_id));
                }
                if skill.collects_type(DataType::SkillId) {
                    records.push(Record::new(DataType::SkillId, sid));
                }
                if skill.collects_type(DataType::Language) {
                    records.push(Record::new(DataType::Language, "en-US"));
                }
                if skill.collects_type(DataType::Timezone) {
                    records.push(Record::new(DataType::Timezone, "America/Los_Angeles"));
                }
                if skill.collects_type(DataType::Preference) {
                    records.push(Record::new(DataType::Preference, "units=imperial"));
                }
                self.push_out(&mut packets, "api.amazon.com", records);
                self.push_in(&mut packets, "api.amazon.com", 640);
            }
            InteractionKind::Utterance(text) | InteractionKind::BuiltInUtterance(text) => {
                let to_skill = matches!(kind, InteractionKind::Utterance(_));
                if to_skill {
                    self.profiler.record_interaction(account, skill, text);
                }
                // Voice upstream: recording + identifiers to an AVS endpoint.
                let avs_host = AMAZON_SUBDOMAINS[(Fnv1a::hash_parts(&[sid, ":", text])
                    % AMAZON_SUBDOMAINS.len() as u64)
                    as usize];
                let mut records = vec![Record::new(DataType::VoiceRecording, text.clone())];
                if to_skill && skill.collects_type(DataType::CustomerId) {
                    records.push(Record::new(DataType::CustomerId, customer_id));
                }
                if to_skill && skill.collects_type(DataType::SkillId) {
                    records.push(Record::new(DataType::SkillId, sid));
                }
                if to_skill && skill.collects_type(DataType::Preference) {
                    records.push(Record::new(DataType::Preference, "interaction-settings"));
                }
                if to_skill && skill.collects_type(DataType::AudioPlayerEvent) {
                    records.push(Record::new(DataType::AudioPlayerEvent, "PlaybackStarted"));
                }
                self.push_out(&mut packets, avs_host, records);
                self.push_in(&mut packets, avs_host, 2_048);

                // Auxiliary Amazon endpoints, hash-selected per skill with
                // probabilities calibrated to Table 1's skill counts / 446.
                if skill_chance(sid, "tachyon", 305.0 / 446.0) {
                    self.push_out(
                        &mut packets,
                        "prod.amcs-tachyon.com",
                        vec![Record::new(DataType::Preference, "sync-state")],
                    );
                }
                if skill_chance(sid, "alexa-api", 173.0 / 446.0) {
                    // The Alexa API call carries the skill identifier only
                    // when the skill's session actually transmits it;
                    // otherwise it is plain session telemetry.
                    let rec = if skill.collects_type(DataType::SkillId) {
                        Record::new(DataType::SkillId, sid)
                    } else {
                        Record::new(DataType::DeviceMetric, "alexa-api-sync")
                    };
                    self.push_out(&mut packets, "api.amazonalexa.com", vec![rec]);
                }
                if skill_chance(sid, "cloudfront", 144.0 / 446.0) {
                    let host = CLOUDFRONT_HOSTS
                        [(Fnv1a::hash_parts(&[sid]) % CLOUDFRONT_HOSTS.len() as u64) as usize];
                    self.push_in(&mut packets, host, 16_384);
                }
                if skill_chance(sid, "metrics", 123.0 / 446.0) {
                    self.push_out(
                        &mut packets,
                        "device-metrics-us-2.amazon.com",
                        vec![Record::new(DataType::DeviceMetric, "session-metrics")],
                    );
                }
                if skill_chance(sid, "aws", 52.0 / 446.0) {
                    let host =
                        AWS_HOSTS[(Fnv1a::hash_parts(&[sid]) % AWS_HOSTS.len() as u64) as usize];
                    self.push_in(&mut packets, host, 4_096);
                }
                if skill_chance(sid, "arteries", 7.0 / 446.0) {
                    self.push_out(
                        &mut packets,
                        "ingestion.us-east-1.prod.arteries.alexa.a2z.com",
                        vec![Record::new(DataType::DeviceMetric, "arteries-ingest")],
                    );
                }
                if skill_chance(sid, "acs-portal", 27.0 / 446.0) {
                    self.push_in(&mut packets, "acsechocaptiveportal.com", 128);
                }
                if skill_chance(sid, "fireos-portal", 20.0 / 446.0) {
                    self.push_in(&mut packets, "fireoscaptiveportal.com", 128);
                }
                if skill_chance(sid, "dss", 2.0 / 446.0) {
                    self.push_in(&mut packets, "ffs-provisioner-config.amazon-dss.com", 256);
                }

                // Skill backends: only the commercial Echo, and only when the
                // utterance actually reached the skill.
                if !avs && to_skill {
                    for backend in &skill.backends {
                        let mut recs = Vec::new();
                        // §4.1: 8.59% of persistent-ID collectors also send
                        // data to third-party domains — modelled as the ID
                        // records accompanying the content request.
                        if skill.collects_type(DataType::SkillId) {
                            recs.push(Record::new(DataType::SkillId, sid));
                        }
                        if skill.collects_type(DataType::CustomerId) {
                            recs.push(Record::new(DataType::CustomerId, customer_id));
                        }
                        if skill.collects_type(DataType::AudioPlayerEvent) {
                            recs.push(Record::new(DataType::AudioPlayerEvent, "progress"));
                        }
                        let name = backend.as_str().to_string();
                        self.push_out(&mut packets, &name, recs);
                        self.push_in(&mut packets, &name, 8_192);
                    }
                }
            }
            InteractionKind::Uninstall => {
                let rec = if skill.collects_type(DataType::CustomerId) {
                    Record::new(DataType::CustomerId, customer_id)
                } else {
                    Record::new(DataType::DeviceMetric, "skill-disable")
                };
                self.push_out(&mut packets, "api.amazon.com", vec![rec]);
            }
        }
        packets
    }
}

impl Default for AlexaCloud {
    fn default() -> AlexaCloud {
        AlexaCloud::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::SkillCategory;
    use crate::marketplace::Marketplace;
    use crate::skill::{PolicySpec, SkillId};
    use proptest::prelude::*;

    fn skill(backends: &[&str], collects: &[DataType]) -> Skill {
        Skill {
            id: SkillId("skill-x".into()),
            name: "Skill X".into(),
            vendor: "Vendor X".into(),
            category: SkillCategory::FashionStyle,
            invocation: "skill x".into(),
            sample_utterances: vec![],
            reviews: 1,
            streaming: false,
            fails_to_load: false,
            requires_account_linking: false,
            permissions: vec![],
            backends: backends.iter().map(|b| Domain::parse(b).unwrap()).collect(),
            collects: collects.to_vec(),
            policy: PolicySpec::none(),
        }
    }

    #[test]
    fn utterance_always_reaches_amazon() {
        let mut cloud = AlexaCloud::new();
        let s = skill(&[], &[DataType::VoiceRecording]);
        let kind = InteractionKind::Utterance("what should i wear".into());
        let pkts = cloud.session_traffic("acct", "AMZN1", &s, &kind, false);
        assert!(!pkts.is_empty());
        assert!(pkts[0].remote.as_str().ends_with("amazon.com"));
        // Voice recording present in the plaintext.
        let recs = pkts[0].payload.records().unwrap();
        assert!(recs.iter().any(|r| r.data_type == DataType::VoiceRecording));
    }

    #[test]
    fn skill_backends_contacted_with_ids() {
        let mut cloud = AlexaCloud::new();
        let s = skill(
            &["play.podtrac.com"],
            &[
                DataType::VoiceRecording,
                DataType::SkillId,
                DataType::CustomerId,
            ],
        );
        let kind = InteractionKind::Utterance("tip please".into());
        let pkts = cloud.session_traffic("acct", "AMZN1", &s, &kind, false);
        let backend_pkt = pkts
            .iter()
            .find(|p| p.remote.as_str() == "play.podtrac.com" && p.payload.records().is_some())
            .expect("backend contacted");
        let recs = backend_pkt.payload.records().unwrap();
        assert!(recs.iter().any(|r| r.data_type == DataType::SkillId));
        assert!(recs.iter().any(|r| r.data_type == DataType::CustomerId));
    }

    #[test]
    fn avs_echo_never_contacts_non_amazon() {
        let mut cloud = AlexaCloud::new();
        let s = skill(&["play.podtrac.com", "chtbl.com"], &[DataType::SkillId]);
        let kind = InteractionKind::Utterance("hello".into());
        let pkts = cloud.session_traffic("acct", "AMZN1", &s, &kind, true);
        let orgs = alexa_net::OrgMap::new();
        for p in &pkts {
            assert_eq!(
                orgs.org_of(&p.remote),
                Some(alexa_net::AMAZON),
                "leaked to {}",
                p.remote
            );
        }
    }

    #[test]
    fn builtin_utterances_skip_skill_backends() {
        let mut cloud = AlexaCloud::new();
        let s = skill(&["play.podtrac.com"], &[DataType::SkillId]);
        let kind = InteractionKind::BuiltInUtterance("what time is it".into());
        let pkts = cloud.session_traffic("acct", "AMZN1", &s, &kind, false);
        assert!(pkts.iter().all(|p| p.remote.as_str() != "play.podtrac.com"));
    }

    #[test]
    fn failing_skill_produces_no_traffic() {
        let mut cloud = AlexaCloud::new();
        let mut s = skill(&[], &[]);
        s.fails_to_load = true;
        let pkts = cloud.session_traffic(
            "acct",
            "AMZN1",
            &s,
            &InteractionKind::Utterance("x".into()),
            false,
        );
        assert!(pkts.is_empty());
    }

    #[test]
    fn install_records_in_profiler_and_sends_settings() {
        let mut cloud = AlexaCloud::new();
        let s = skill(
            &[],
            &[
                DataType::Language,
                DataType::Timezone,
                DataType::Preference,
                DataType::SkillId,
            ],
        );
        let pkts = cloud.session_traffic("acct", "AMZN1", &s, &InteractionKind::Install, false);
        let recs = pkts[0].payload.records().unwrap();
        for dt in [DataType::Language, DataType::Timezone, DataType::Preference] {
            assert!(recs.iter().any(|r| r.data_type == dt), "{dt:?} missing");
        }
        assert_eq!(
            cloud.profiler.dominant_category("acct"),
            Some(SkillCategory::FashionStyle)
        );
    }

    #[test]
    fn sessions_are_deterministic() {
        let run = || {
            let mut cloud = AlexaCloud::new();
            let s = skill(&["chtbl.com"], &[DataType::SkillId]);
            cloud.session_traffic(
                "a",
                "c",
                &s,
                &InteractionKind::Utterance("hello".into()),
                false,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn timestamps_increase_monotonically() {
        let mut cloud = AlexaCloud::new();
        let s = skill(&["chtbl.com", "play.podtrac.com"], &[DataType::SkillId]);
        let pkts =
            cloud.session_traffic("a", "c", &s, &InteractionKind::Utterance("x".into()), false);
        for w in pkts.windows(2) {
            assert!(w[0].ts_ms < w[1].ts_ms);
        }
    }

    proptest! {
        // Marketplace generation is expensive; keep the case count modest.
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn session_traffic_is_deterministic_and_monotone(seed in 0u64..50_000) {
            let m = Marketplace::generate(seed);
            let skill = m.top_skills(SkillCategory::ConnectedCar, 1)[0];
            let gen = || {
                AlexaCloud::new().session_traffic(
                    "acct",
                    "cid",
                    skill,
                    &InteractionKind::Utterance("hello".into()),
                    false,
                )
            };
            let a = gen();
            let b = gen();
            prop_assert_eq!(&a, &b);
            for w in a.windows(2) {
                prop_assert!(w[0].ts_ms <= w[1].ts_ms);
            }
        }
    }
}
