//! The typed walk that hashes the router and AVS captures for the digest.
//!
//! Like the crawl walk (`crawl_digest.rs`), it emits exactly the bytes the
//! derived `Debug` of `Capture` prints, straight into the hasher: constant
//! fragments as [`Fnv1a::jump`]s (one per `Direction` and per `DataType`
//! variant, so a variant name costs nothing), each host's interned name
//! through the digest's [`LabelJumps`], other strings through
//! [`str_body`], integers as decimal, and an `Ipv4Addr` as its four
//! octets. `Capture`, `Packet` and `Record` are destructured and `Payload`,
//! `Direction` and `DataType` matched exhaustively, so a new field or
//! variant stops this module compiling until the walk learns it; the drift
//! guards below compare the walk with `format!("{:?}")` byte for byte.

use crate::crawl_digest::{str_body, LabelJumps, LIST_SEP, LIST_STRUCT_CLOSE, QUOTED_CLOSE};
use crate::persona::Persona;
use alexa_fault::{Fnv1a, FnvJump};
use alexa_net::{Capture, DataType, Direction, Packet, Payload, Record};
use std::collections::BTreeMap;

static CAPTURE_LABEL: FnvJump = FnvJump::new("Capture { label: \"");
static CAPTURE_PACKETS: FnvJump = FnvJump::new("\", packets: [");
static PACKET_TS: FnvJump = FnvJump::new("Packet { ts_ms: ");
static OUTGOING_REMOTE: FnvJump = FnvJump::new(", direction: Outgoing, remote: Domain { name: \"");
static INCOMING_REMOTE: FnvJump = FnvJump::new(", direction: Incoming, remote: Domain { name: \"");
static PACKET_REMOTE_IP: FnvJump = FnvJump::new("\" }, remote_ip: ");
static PAYLOAD_ENCRYPTED: FnvJump = FnvJump::new(", payload: Encrypted { len: ");
static ENCRYPTED_CLOSE: FnvJump = FnvJump::new(" } }");
static PAYLOAD_PLAIN: FnvJump = FnvJump::new(", payload: Plain([");
static PLAIN_CLOSE: FnvJump = FnvJump::new("]) }");
static VOICE_RECORDING: FnvJump = FnvJump::new("Record { data_type: VoiceRecording, value: \"");
static TEXT_COMMAND: FnvJump = FnvJump::new("Record { data_type: TextCommand, value: \"");
static CUSTOMER_ID: FnvJump = FnvJump::new("Record { data_type: CustomerId, value: \"");
static SKILL_ID: FnvJump = FnvJump::new("Record { data_type: SkillId, value: \"");
static LANGUAGE: FnvJump = FnvJump::new("Record { data_type: Language, value: \"");
static TIMEZONE: FnvJump = FnvJump::new("Record { data_type: Timezone, value: \"");
static PREFERENCE: FnvJump = FnvJump::new("Record { data_type: Preference, value: \"");
static AUDIO_PLAYER_EVENT: FnvJump =
    FnvJump::new("Record { data_type: AudioPlayerEvent, value: \"");
static DEVICE_METRIC: FnvJump = FnvJump::new("Record { data_type: DeviceMetric, value: \"");

/// Hash the `Debug` text of a capture map: `{"persona": [Capture { … },
/// …], …}`.
pub(crate) fn hash_capture_map(
    h: &mut Fnv1a,
    labels: &mut LabelJumps,
    captures: &BTreeMap<Persona, Vec<Capture>>,
) {
    h.byte(b'{');
    for (i, (persona, list)) in captures.iter().enumerate() {
        if i > 0 {
            h.jump(&LIST_SEP);
        }
        h.byte(b'"');
        str_body(h, persona.name());
        h.str("\": ");
        hash_captures(h, labels, list);
    }
    h.byte(b'}');
}

/// Hash the `Debug` text of a capture list: `[Capture { … }, …]`.
pub(crate) fn hash_captures(h: &mut Fnv1a, labels: &mut LabelJumps, captures: &[Capture]) {
    h.byte(b'[');
    for (i, capture) in captures.iter().enumerate() {
        if i > 0 {
            h.jump(&LIST_SEP);
        }
        let Capture { label, packets } = capture;
        h.jump(&CAPTURE_LABEL);
        str_body(h, label);
        h.jump(&CAPTURE_PACKETS);
        for (j, packet) in packets.iter().enumerate() {
            if j > 0 {
                h.jump(&LIST_SEP);
            }
            hash_packet(h, labels, packet);
        }
        h.jump(&LIST_STRUCT_CLOSE);
    }
    h.byte(b']');
}

/// One packet, exactly as `{:?}` prints it.
fn hash_packet(h: &mut Fnv1a, labels: &mut LabelJumps, packet: &Packet) {
    let Packet {
        ts_ms,
        direction,
        remote,
        remote_ip,
        payload,
    } = packet;
    h.jump(&PACKET_TS);
    h.u64(*ts_ms);
    h.jump(match direction {
        Direction::Outgoing => &OUTGOING_REMOTE,
        Direction::Incoming => &INCOMING_REMOTE,
    });
    labels.hash(h, remote.name());
    h.jump(&PACKET_REMOTE_IP);
    let [a, b, c, d] = remote_ip.octets();
    h.u64(a.into())
        .byte(b'.')
        .u64(b.into())
        .byte(b'.')
        .u64(c.into())
        .byte(b'.')
        .u64(d.into());
    match payload {
        Payload::Encrypted { len } => {
            h.jump(&PAYLOAD_ENCRYPTED);
            h.u64(*len as u64);
            h.jump(&ENCRYPTED_CLOSE);
        }
        Payload::Plain(records) => {
            h.jump(&PAYLOAD_PLAIN);
            for (i, record) in records.iter().enumerate() {
                if i > 0 {
                    h.jump(&LIST_SEP);
                }
                let Record { data_type, value } = record;
                h.jump(match data_type {
                    DataType::VoiceRecording => &VOICE_RECORDING,
                    DataType::TextCommand => &TEXT_COMMAND,
                    DataType::CustomerId => &CUSTOMER_ID,
                    DataType::SkillId => &SKILL_ID,
                    DataType::Language => &LANGUAGE,
                    DataType::Timezone => &TIMEZONE,
                    DataType::Preference => &PREFERENCE,
                    DataType::AudioPlayerEvent => &AUDIO_PLAYER_EVENT,
                    DataType::DeviceMetric => &DEVICE_METRIC,
                });
                str_body(h, value);
                h.jump(&QUOTED_CLOSE);
            }
            h.jump(&PLAIN_CLOSE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexa_net::Domain;
    use std::net::Ipv4Addr;

    fn debug_hash(captures: &BTreeMap<Persona, Vec<Capture>>) -> u64 {
        let mut h = Fnv1a::new();
        h.str(&format!("{captures:?}"));
        h.finish()
    }

    fn walk_hash(captures: &BTreeMap<Persona, Vec<Capture>>) -> u64 {
        let mut h = Fnv1a::new();
        hash_capture_map(&mut h, &mut LabelJumps::new(), captures);
        h.finish()
    }

    /// Labels, values and persona names, escaped and not.
    const STRINGS: &[&str] = &[
        "",
        "skill-12",
        "say \"hi\"",
        "back\\slash",
        "tab\there",
        "line\nbreak",
        "nul\u{0}",
        "del\u{7f}",
        "caf\u{e9}",
        "\u{301}mark",
        "emoji \u{1f600}",
    ];

    /// Domains. `Domain::parse` admits only ASCII letters, digits, `-` and
    /// `.`, so a domain never needs escaping; the escape path of
    /// `str_body` is covered through labels, values and persona names.
    const DOMAINS: &[&str] = &[
        "avs-alexa-16-na.amazon.com",
        "device-metrics-us-2.amazon.com",
        "xn--caf-dma.example.com",
        "a.co.uk",
    ];

    /// SplitMix64 for capture shapes.
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

        fn persona(&mut self) -> Persona {
            Persona::all()[self.below(13)]
        }

        fn str(&mut self) -> &'static str {
            STRINGS[self.below(STRINGS.len())]
        }

        fn packet(&mut self) -> Packet {
            let remote = Domain::parse(DOMAINS[self.below(DOMAINS.len())]).unwrap();
            let ip = Ipv4Addr::from(self.next() as u32);
            let payload = if self.below(2) == 0 {
                Payload::Encrypted {
                    len: self.below(100_000),
                }
            } else {
                let records = (0..self.below(4))
                    .map(|_| {
                        Record::new(DataType::ALL[self.below(DataType::ALL.len())], self.str())
                    })
                    .collect();
                Payload::Plain(records)
            };
            let ts = self.next() >> self.below(64);
            if self.below(2) == 0 {
                Packet::outgoing(ts, remote, ip, payload)
            } else {
                Packet::incoming(ts, remote, ip, payload)
            }
        }
    }

    #[test]
    fn empty_maps_lists_and_payloads_match_debug() {
        let mut captures = BTreeMap::new();
        assert_eq!(walk_hash(&captures), debug_hash(&captures));
        captures.insert(Persona::Vanilla, Vec::new());
        assert_eq!(walk_hash(&captures), debug_hash(&captures));
        let remote = Domain::parse("a.co.uk").unwrap();
        let ip = Ipv4Addr::new(0, 10, 100, 255);
        let mut capture = Capture::new("");
        capture.packets = vec![
            Packet::outgoing(0, remote, ip, Payload::Plain(Vec::new())),
            Packet::incoming(u64::MAX, remote, ip, Payload::Encrypted { len: 0 }),
        ];
        captures.insert(Persona::WebHealth, vec![Capture::new("x"), capture]);
        assert_eq!(walk_hash(&captures), debug_hash(&captures));
    }

    #[test]
    fn every_data_type_and_direction_matches_debug() {
        let remote = Domain::parse("device-metrics-us-2.amazon.com").unwrap();
        let records: Vec<Record> = DataType::ALL
            .iter()
            .zip(STRINGS.iter().cycle())
            .map(|(&t, &v)| Record::new(t, v))
            .collect();
        let mut capture = Capture::new("say \"hi\"");
        for direction in [Direction::Outgoing, Direction::Incoming] {
            capture.packets.push(Packet {
                ts_ms: 7,
                direction,
                remote,
                remote_ip: Ipv4Addr::new(52, 94, 236, 1),
                payload: Payload::Plain(records.clone()),
            });
        }
        let captures = BTreeMap::from([(Persona::WebScience, vec![capture])]);
        assert_eq!(walk_hash(&captures), debug_hash(&captures));
    }

    #[test]
    fn generated_captures_match_debug() {
        for seed in 0..200 {
            let mut g = Gen(seed);
            let mut captures = BTreeMap::new();
            for _ in 0..g.below(4) {
                let list = (0..g.below(4))
                    .map(|_| {
                        let mut c = Capture::new(g.str());
                        c.packets = (0..g.below(6)).map(|_| g.packet()).collect();
                        c
                    })
                    .collect();
                captures.insert(g.persona(), list);
            }
            assert_eq!(walk_hash(&captures), debug_hash(&captures), "seed {seed}");
            let avs: Vec<Capture> = captures.into_values().flatten().collect();
            let mut walked = Fnv1a::new();
            hash_captures(&mut walked, &mut LabelJumps::new(), &avs);
            let mut debug = Fnv1a::new();
            debug.str(&format!("{avs:?}"));
            assert_eq!(walked.finish(), debug.finish(), "seed {seed}, list");
        }
    }
}
