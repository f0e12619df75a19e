//! Capture taps: the two vantage points of the paper's methodology.
//!
//! * [`RouterTap`] — the RPi bridged-AP router. Sees **every** packet the
//!   device exchanges, but cannot decrypt TLS: each captured packet carries
//!   only endpoint, direction, timing and ciphertext size.
//! * [`AvsTap`] — the instrumented AVS Device SDK. Logs payloads **before**
//!   encryption, so captured packets retain their typed records. The AVS
//!   Echo's limitations are enforced by the device model in
//!   `alexa-platform` (Amazon-only endpoints, no streaming skills); this tap
//!   faithfully records whatever that device emits.
//!
//! Both taps support the paper's per-skill capture discipline: `tcpdump` was
//! enabled before each skill install and disabled after uninstall, so every
//! capture is cleanly attributable to one skill. [`Capture::label`] carries
//! that attribution.

use crate::domain::Domain;
use crate::packet::{Packet, Payload};
use alexa_fault::{FaultChannel, FaultKey, FaultPlane};

/// A labelled set of packets recorded by one tap session.
///
/// `label` identifies the workload the capture is attributed to (in the
/// paper: one skill per capture session).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Capture {
    /// Attribution label (e.g. a skill ID) for this capture session.
    pub label: String,
    /// Captured packets, in timestamp order.
    pub packets: Vec<Packet>,
}

impl Capture {
    /// Create an empty capture with an attribution label.
    pub fn new(label: impl Into<String>) -> Capture {
        Capture {
            label: label.into(),
            packets: Vec::new(),
        }
    }

    /// Distinct remote endpoints contacted, sorted.
    pub fn endpoints(&self) -> Vec<Domain> {
        let mut set: Vec<Domain> = self.packets.iter().map(|p| p.remote.clone()).collect();
        set.sort();
        set.dedup();
        set
    }
}

/// Running totals a tap accumulates across its whole life.
///
/// The observability layer reads these out once per shard — the counters are
/// plain integers updated on the capture hot path, so instrumentation costs
/// nothing beyond the additions and never touches the captured data itself.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TapStats {
    /// Capture sessions opened (`start` calls).
    pub sessions: usize,
    /// Packets observed inside a session.
    pub packets: usize,
    /// Wire bytes across all observed packets.
    pub bytes: usize,
    /// Packets lost to an injected capture fault.
    pub dropped: usize,
    /// Packets recorded with an injected flow truncation.
    pub truncated: usize,
}

impl TapStats {
    fn observe(&mut self, wire_len: usize) {
        self.packets += 1;
        self.bytes += wire_len;
    }
}

/// Per-session fault bookkeeping shared by both taps: a monotone packet
/// sequence number makes the structural key `label/seq`, so fault placement
/// depends only on what the packet *is* within its session, never on
/// scheduling. The session label is hashed into both channels' keys once,
/// at [`TapFaults::start`]; each packet appends only `/seq`.
#[derive(Debug)]
struct TapFaults {
    plane: FaultPlane,
    seq: u64,
    /// `(packet-drop, flow-truncation)` keys holding the session label,
    /// set only while the plane is active.
    session: Option<(FaultKey, FaultKey)>,
}

impl Default for TapFaults {
    fn default() -> TapFaults {
        TapFaults::new(FaultPlane::disabled())
    }
}

impl TapFaults {
    fn new(plane: FaultPlane) -> TapFaults {
        TapFaults {
            plane,
            seq: 0,
            session: None,
        }
    }

    /// Open the fault keys of the session labelled `label`.
    fn start(&mut self, label: &str) {
        self.seq = 0;
        if self.plane.is_active() {
            self.session = Some((
                self.plane.key(FaultChannel::PacketDrop).str(label),
                self.plane.key(FaultChannel::FlowTruncation).str(label),
            ));
        }
    }

    /// Decide the fate of the next packet in the session. Advances the
    /// sequence number for every offered packet, so drops keep downstream
    /// keys stable.
    fn admit(&mut self) -> PacketFate {
        let Some((drop, cut)) = self.session else {
            return PacketFate::Keep;
        };
        let seq = self.seq;
        self.seq += 1;
        if self.plane.fires_at(drop.byte(b'/').u64(seq)) {
            return PacketFate::Drop;
        }
        let cut = cut.byte(b'/').u64(seq);
        if self.plane.fires_at(cut) {
            PacketFate::Truncate(cut)
        } else {
            PacketFate::Keep
        }
    }
}

enum PacketFate {
    Keep,
    Drop,
    /// Truncated: the flow-truncation key that fired, which also samples
    /// the cut.
    Truncate(FaultKey),
}

/// The RPi router tap: records every packet, encrypted view only.
#[derive(Debug, Default)]
pub struct RouterTap {
    session: Option<Capture>,
    finished: Vec<Capture>,
    stats: TapStats,
    faults: TapFaults,
}

impl RouterTap {
    /// Create a tap with no active session.
    pub fn new() -> RouterTap {
        RouterTap::default()
    }

    /// A tap whose capture path consults `plane` for packet drops and flow
    /// truncation. With an inactive plane this is exactly [`RouterTap::new`].
    pub fn with_faults(plane: FaultPlane) -> RouterTap {
        RouterTap {
            faults: TapFaults::new(plane),
            ..RouterTap::default()
        }
    }

    /// Begin a capture session (the paper's "enable tcpdump").
    ///
    /// Any in-progress session is finalized first.
    pub fn start(&mut self, label: impl Into<String>) {
        self.stop();
        self.stats.sessions += 1;
        let capture = Capture::new(label);
        self.faults.start(&capture.label);
        self.session = Some(capture);
    }

    /// Observe one packet. No-op unless a session is active. The payload is
    /// opacified: the router sees TLS ciphertext only.
    pub fn observe(&mut self, packet: &Packet) {
        if self.session.is_some() {
            self.admit(packet.clone());
        }
    }

    /// Observe a whole packet batch in one call, taking ownership so the
    /// payloads are encrypted in place instead of cloned packet-by-packet.
    /// No-op unless a session is active.
    pub fn observe_batch(&mut self, packets: Vec<Packet>) {
        if self.session.is_some() {
            if let Some(s) = &mut self.session {
                s.packets.reserve(packets.len());
            }
            for p in packets {
                self.admit(p);
            }
        }
    }

    /// Encrypt, apply any injected capture fault, and record one packet.
    fn admit(&mut self, mut p: Packet) {
        let Some(session) = &mut self.session else {
            return;
        };
        p.payload = p.payload.encrypt();
        if self.faults.plane.is_active() {
            match self.faults.admit() {
                PacketFate::Drop => {
                    self.stats.dropped += 1;
                    return;
                }
                PacketFate::Truncate(key) => {
                    if let Payload::Encrypted { len } = p.payload {
                        p.payload = Payload::Encrypted {
                            len: self.faults.plane.truncated_len_at(key, len),
                        };
                    }
                    self.stats.truncated += 1;
                }
                PacketFate::Keep => {}
            }
        }
        self.stats.observe(p.payload.wire_len());
        session.packets.push(p);
    }

    /// Running totals across the tap's whole life.
    pub fn stats(&self) -> TapStats {
        self.stats
    }

    /// End the active session (the paper's "disable tcpdump").
    pub fn stop(&mut self) {
        if let Some(s) = self.session.take() {
            self.finished.push(s);
        }
    }

    /// All finalized captures, in session order.
    pub fn captures(&self) -> &[Capture] {
        &self.finished
    }

    /// Consume the tap, returning its captures.
    pub fn into_captures(mut self) -> Vec<Capture> {
        self.stop();
        self.finished
    }
}

/// The AVS Echo tap: records payloads before encryption.
#[derive(Debug, Default)]
pub struct AvsTap {
    session: Option<Capture>,
    finished: Vec<Capture>,
    stats: TapStats,
    faults: TapFaults,
}

impl AvsTap {
    /// Create a tap with no active session.
    pub fn new() -> AvsTap {
        AvsTap::default()
    }

    /// A tap whose capture path consults `plane` for packet drops and flow
    /// truncation. With an inactive plane this is exactly [`AvsTap::new`].
    pub fn with_faults(plane: FaultPlane) -> AvsTap {
        AvsTap {
            faults: TapFaults::new(plane),
            ..AvsTap::default()
        }
    }

    /// Begin a capture session.
    pub fn start(&mut self, label: impl Into<String>) {
        self.stop();
        self.stats.sessions += 1;
        let capture = Capture::new(label);
        self.faults.start(&capture.label);
        self.session = Some(capture);
    }

    /// Observe one packet with full plaintext visibility.
    pub fn observe(&mut self, packet: &Packet) {
        if self.session.is_some() {
            self.admit(packet.clone());
        }
    }

    /// Observe a whole packet batch in one call, taking ownership to avoid
    /// per-packet clones. No-op unless a session is active.
    pub fn observe_batch(&mut self, packets: Vec<Packet>) {
        let Some(session) = &mut self.session else {
            return;
        };
        if !self.faults.plane.is_active() {
            for p in &packets {
                self.stats.observe(p.payload.wire_len());
            }
            if session.packets.is_empty() {
                session.packets = packets;
            } else {
                session.packets.extend(packets);
            }
            return;
        }
        for p in packets {
            self.admit(p);
        }
    }

    /// Apply any injected capture fault and record one packet. The AVS view
    /// is plaintext, so truncation cuts trailing typed records rather than
    /// ciphertext bytes.
    fn admit(&mut self, mut p: Packet) {
        let Some(session) = &mut self.session else {
            return;
        };
        if self.faults.plane.is_active() {
            match self.faults.admit() {
                PacketFate::Drop => {
                    self.stats.dropped += 1;
                    return;
                }
                PacketFate::Truncate(key) => {
                    match &mut p.payload {
                        Payload::Plain(records) => {
                            let keep = self.faults.plane.truncated_len_at(key, records.len());
                            records.truncate(keep);
                        }
                        Payload::Encrypted { len } => {
                            *len = self.faults.plane.truncated_len_at(key, *len);
                        }
                    }
                    self.stats.truncated += 1;
                }
                PacketFate::Keep => {}
            }
        }
        self.stats.observe(p.payload.wire_len());
        session.packets.push(p);
    }

    /// Running totals across the tap's whole life.
    pub fn stats(&self) -> TapStats {
        self.stats
    }

    /// End the active session.
    pub fn stop(&mut self) {
        if let Some(s) = self.session.take() {
            self.finished.push(s);
        }
    }

    /// All finalized captures.
    pub fn captures(&self) -> &[Capture] {
        &self.finished
    }

    /// Consume the tap, returning its captures.
    pub fn into_captures(mut self) -> Vec<Capture> {
        self.stop();
        self.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{DataType, Payload, Record};
    use std::net::Ipv4Addr;

    impl Capture {
        /// Total bytes across all packets.
        fn total_bytes(&self) -> usize {
            self.packets.iter().map(|p| p.payload.wire_len()).sum()
        }
    }

    fn pkt(ts: u64, name: &str, records: Vec<Record>) -> Packet {
        Packet::outgoing(
            ts,
            Domain::parse(name).unwrap(),
            Ipv4Addr::new(10, 1, 2, 3),
            Payload::Plain(records),
        )
    }

    #[test]
    fn router_tap_hides_payloads() {
        let mut tap = RouterTap::new();
        tap.start("skill-a");
        tap.observe(&pkt(
            1,
            "amazon.com",
            vec![Record::new(DataType::VoiceRecording, "hello")],
        ));
        tap.stop();
        let caps = tap.captures();
        assert_eq!(caps.len(), 1);
        assert!(caps[0].packets[0].payload.records().is_none());
        // ...but preserves size.
        assert_eq!(caps[0].packets[0].payload.wire_len(), 8 + 5);
    }

    #[test]
    fn avs_tap_preserves_payloads() {
        let mut tap = AvsTap::new();
        tap.start("skill-a");
        tap.observe(&pkt(
            1,
            "amazon.com",
            vec![Record::new(DataType::CustomerId, "A1")],
        ));
        tap.stop();
        let records = tap.captures()[0].packets[0].payload.records().unwrap();
        assert_eq!(records[0].data_type, DataType::CustomerId);
    }

    #[test]
    fn observe_without_session_is_dropped() {
        let mut tap = RouterTap::new();
        tap.observe(&pkt(1, "amazon.com", vec![]));
        tap.start("s");
        tap.stop();
        assert_eq!(tap.captures().len(), 1);
        assert!(tap.captures()[0].packets.is_empty());
    }

    #[test]
    fn sessions_attribute_traffic_to_labels() {
        let mut tap = RouterTap::new();
        tap.start("garmin");
        tap.observe(&pkt(1, "static.garmincdn.com", vec![]));
        tap.start("sonos"); // implicit stop of garmin session
        tap.observe(&pkt(2, "amazon.com", vec![]));
        tap.stop();
        let caps = tap.captures();
        assert_eq!(caps.len(), 2);
        assert_eq!(caps[0].label, "garmin");
        assert_eq!(caps[1].label, "sonos");
        assert_eq!(caps[0].packets[0].remote.as_str(), "static.garmincdn.com");
    }

    #[test]
    fn capture_endpoint_dedup() {
        let mut c = Capture::new("x");
        c.packets.push(pkt(1, "amazon.com", vec![]));
        c.packets.push(pkt(2, "amazon.com", vec![]));
        c.packets.push(pkt(3, "api.amazon.com", vec![]));
        assert_eq!(c.endpoints().len(), 2);
    }

    #[test]
    fn observe_batch_matches_per_packet_observe() {
        let batch = vec![
            pkt(
                1,
                "amazon.com",
                vec![Record::new(DataType::VoiceRecording, "hi")],
            ),
            pkt(2, "chtbl.com", vec![]),
        ];
        let mut one = RouterTap::new();
        one.start("s");
        for p in &batch {
            one.observe(p);
        }
        one.stop();
        let mut many = RouterTap::new();
        many.start("s");
        many.observe_batch(batch.clone());
        many.stop();
        assert_eq!(
            format!("{:?}", one.captures()),
            format!("{:?}", many.captures())
        );

        let mut avs_one = AvsTap::new();
        avs_one.start("s");
        for p in &batch {
            avs_one.observe(p);
        }
        avs_one.stop();
        let mut avs_many = AvsTap::new();
        avs_many.start("s");
        avs_many.observe_batch(batch);
        avs_many.stop();
        assert_eq!(
            format!("{:?}", avs_one.captures()),
            format!("{:?}", avs_many.captures())
        );
    }

    #[test]
    fn observe_batch_without_session_is_dropped() {
        let mut tap = RouterTap::new();
        tap.observe_batch(vec![pkt(1, "amazon.com", vec![])]);
        tap.start("s");
        tap.stop();
        assert!(tap.captures()[0].packets.is_empty());
    }

    #[test]
    fn tap_stats_track_sessions_packets_bytes() {
        let mut tap = RouterTap::new();
        assert_eq!(tap.stats(), TapStats::default());
        tap.observe(&pkt(0, "amazon.com", vec![])); // no session: not counted
        tap.start("a");
        tap.observe(&pkt(
            1,
            "amazon.com",
            vec![Record::new(DataType::VoiceRecording, "hello")],
        ));
        tap.start("b");
        tap.observe_batch(vec![
            pkt(2, "chtbl.com", vec![]),
            pkt(3, "amazon.com", vec![]),
        ]);
        tap.stop();
        let s = tap.stats();
        assert_eq!(s.sessions, 2);
        assert_eq!(s.packets, 3);
        // Bytes are post-encryption wire lengths, so they match the capture.
        let captured: usize = tap.captures().iter().map(Capture::total_bytes).sum();
        assert_eq!(s.bytes, captured);

        let mut avs = AvsTap::new();
        avs.start("s");
        avs.observe_batch(vec![pkt(
            1,
            "amazon.com",
            vec![Record::new(DataType::CustomerId, "A1")],
        )]);
        avs.observe(&pkt(2, "amazon.com", vec![]));
        let s = avs.stats();
        assert_eq!((s.sessions, s.packets), (1, 2));
        assert_eq!(
            s.bytes,
            avs.captures()
                .iter()
                .chain(avs.session.iter())
                .map(Capture::total_bytes)
                .sum::<usize>()
        );
    }

    #[test]
    fn inactive_fault_plane_changes_nothing() {
        use alexa_fault::FaultProfile;
        let batch = vec![
            pkt(
                1,
                "amazon.com",
                vec![Record::new(DataType::VoiceRecording, "hi")],
            ),
            pkt(2, "chtbl.com", vec![]),
        ];
        let mut plain = RouterTap::new();
        let mut gated = RouterTap::with_faults(FaultPlane::new(7, FaultProfile::none()));
        for tap in [&mut plain, &mut gated] {
            tap.start("s");
            tap.observe_batch(batch.clone());
            tap.stop();
        }
        assert_eq!(
            format!("{:?}", plain.captures()),
            format!("{:?}", gated.captures())
        );
        assert_eq!(plain.stats(), gated.stats());
    }

    #[test]
    fn faulted_tap_drops_and_truncates_deterministically() {
        use alexa_fault::FaultProfile;
        let batch: Vec<Packet> = (0..200)
            .map(|i| {
                pkt(
                    i,
                    "amazon.com",
                    vec![Record::new(DataType::VoiceRecording, "hello world")],
                )
            })
            .collect();
        let run = |seed: u64| {
            let mut tap = RouterTap::with_faults(FaultPlane::new(seed, FaultProfile::hostile()));
            tap.start("skill");
            tap.observe_batch(batch.clone());
            tap.stop();
            (format!("{:?}", tap.captures()), tap.stats())
        };
        let (caps_a, stats_a) = run(7);
        let (caps_b, stats_b) = run(7);
        assert_eq!(caps_a, caps_b, "same seed, same capture");
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.dropped > 0, "hostile profile must drop packets");
        assert!(stats_a.truncated > 0, "hostile profile must truncate flows");
        assert_eq!(stats_a.packets + stats_a.dropped, batch.len());
        let (caps_c, _) = run(8);
        assert_ne!(caps_a, caps_c, "fault placement follows the seed");
    }

    #[test]
    fn avs_truncation_cuts_records_not_packets() {
        use alexa_fault::FaultProfile;
        let batch: Vec<Packet> = (0..100)
            .map(|i| {
                pkt(
                    i,
                    "avs-alexa-na.amazon.com",
                    vec![
                        Record::new(DataType::VoiceRecording, "hello"),
                        Record::new(DataType::CustomerId, "A1"),
                        Record::new(DataType::SkillId, "s"),
                        Record::new(DataType::Timezone, "tz"),
                    ],
                )
            })
            .collect();
        let mut tap = AvsTap::with_faults(FaultPlane::new(1234, FaultProfile::hostile()));
        tap.start("skill");
        tap.observe_batch(batch);
        tap.stop();
        let stats = tap.stats();
        assert!(stats.truncated > 0);
        // Truncated packets keep a non-empty record prefix.
        assert!(tap.captures()[0]
            .packets
            .iter()
            .all(|p| !p.payload.records().unwrap().is_empty()));
        assert!(tap.captures()[0]
            .packets
            .iter()
            .any(|p| p.payload.records().unwrap().len() < 4));
    }

    #[test]
    fn fault_keys_reset_per_session() {
        use alexa_fault::FaultProfile;
        // Two sessions with the same label see identical fault placement.
        let plane = FaultPlane::new(42, FaultProfile::hostile());
        let batch: Vec<Packet> = (0..50).map(|i| pkt(i, "amazon.com", vec![])).collect();
        let mut tap = RouterTap::with_faults(plane);
        tap.start("same");
        tap.observe_batch(batch.clone());
        tap.start("same");
        tap.observe_batch(batch);
        tap.stop();
        let caps = tap.captures();
        assert_eq!(
            format!("{:?}", caps[0].packets),
            format!("{:?}", caps[1].packets)
        );
    }

    #[test]
    fn into_captures_finalizes_open_session() {
        let mut tap = AvsTap::new();
        tap.start("open");
        tap.observe(&pkt(1, "amazon.com", vec![]));
        let caps = tap.into_captures();
        assert_eq!(caps.len(), 1);
    }
}
