//! The capture tap, at either vantage point of the paper's methodology.
//!
//! One [`Tap`] type serves both; its [`Vantage`] decides what it can read:
//!
//! * [`Vantage::Router`] — the RPi bridged-AP router. Sees **every** packet
//!   the device exchanges, but cannot decrypt TLS: each captured packet
//!   carries only endpoint, direction, timing and ciphertext size.
//! * [`Vantage::Avs`] — the instrumented AVS Device SDK. Logs payloads
//!   **before** encryption, so captured packets retain their typed records.
//!   The AVS Echo's limitations are enforced by the device model in
//!   `alexa-platform` (Amazon-only endpoints, no streaming skills); the tap
//!   faithfully records whatever that device emits.
//!
//! Both follow the paper's per-skill capture discipline: `tcpdump` was
//! enabled before each skill install and disabled after uninstall, so every
//! capture is cleanly attributable to one skill. [`Capture::label`] carries
//! that attribution.

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

/// Per-session fault bookkeeping: a monotone packet sequence number makes
/// the structural key `label/seq`, so fault placement depends only on what
/// the packet *is* within its session, never on scheduling. The session
/// label is hashed into both channels' keys once, at [`TapFaults::start`];
/// each packet appends only `/seq`.
#[derive(Debug)]
struct TapFaults {
    plane: FaultPlane,
    seq: u64,
    /// `(packet-drop, flow-truncation)` keys holding the session label,
    /// set only while the plane is active.
    session: Option<(FaultKey, FaultKey)>,
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

/// Where a tap sits, and so how much of each packet it can read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vantage {
    /// The RPi bridged-AP router: every packet, as TLS ciphertext.
    Router,
    /// The instrumented AVS Device SDK: payloads before encryption.
    Avs,
}

/// A capture tap at one [`Vantage`].
#[derive(Debug)]
pub struct Tap {
    vantage: Vantage,
    session: Option<Capture>,
    finished: Vec<Capture>,
    stats: TapStats,
    faults: TapFaults,
}

impl Tap {
    /// A tap at `vantage` whose capture path consults `plane` for packet
    /// drops and flow truncation. An inactive plane injects nothing.
    pub fn with_faults(vantage: Vantage, plane: FaultPlane) -> Tap {
        Tap {
            vantage,
            session: None,
            finished: Vec::new(),
            stats: TapStats::default(),
            faults: TapFaults::new(plane),
        }
    }

    /// Where this tap sits.
    pub fn vantage(&self) -> Vantage {
        self.vantage
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

    /// Observe a whole packet batch in one call, taking ownership so no
    /// packet is cloned. No-op unless a session is active.
    pub fn observe_batch(&mut self, packets: Vec<Packet>) {
        let Some(session) = &mut self.session else {
            return;
        };
        match self.vantage {
            // Nothing to encrypt and no fault to place: the batch moves in.
            Vantage::Avs if !self.faults.plane.is_active() => {
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
            // The router reserves for the batch and the faulted AVS view
            // grows as it goes: each keeps the allocation pattern that
            // `memory.json` records.
            Vantage::Router => session.packets.reserve(packets.len()),
            Vantage::Avs => {}
        }
        for p in packets {
            self.admit(p);
        }
    }

    /// Encrypt at the router, apply any injected capture fault, and record
    /// one packet. A plaintext truncation cuts trailing typed records; a
    /// ciphertext one cuts bytes.
    fn admit(&mut self, mut p: Packet) {
        let Some(session) = &mut self.session else {
            return;
        };
        if self.vantage == Vantage::Router {
            p.payload = p.payload.encrypt();
        }
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

    /// End the active session (the paper's "disable tcpdump").
    pub fn stop(&mut self) {
        if let Some(s) = self.session.take() {
            self.finished.push(s);
        }
    }

    /// Consume the tap, returning its captures in session order.
    pub fn into_captures(mut self) -> Vec<Capture> {
        self.stop();
        self.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::packet::{DataType, Payload, Record};
    use alexa_fault::FaultProfile;
    use std::net::Ipv4Addr;

    const BOTH: [Vantage; 2] = [Vantage::Router, Vantage::Avs];

    impl Capture {
        /// Total bytes across all packets.
        fn total_bytes(&self) -> usize {
            self.packets.iter().map(|p| p.payload.wire_len()).sum()
        }
    }

    fn tap(vantage: Vantage) -> Tap {
        Tap::with_faults(vantage, FaultPlane::disabled())
    }

    fn pkt(ts: u64, name: &str, records: Vec<Record>) -> Packet {
        Packet::outgoing(
            ts,
            Domain::parse(name).unwrap(),
            Ipv4Addr::new(10, 1, 2, 3),
            Payload::Plain(records),
        )
    }

    fn voice(ts: u64, name: &str) -> Packet {
        pkt(
            ts,
            name,
            vec![Record::new(DataType::VoiceRecording, "hello")],
        )
    }

    #[test]
    fn router_tap_hides_payloads() {
        let mut tap = tap(Vantage::Router);
        tap.start("skill-a");
        tap.observe_batch(vec![voice(1, "amazon.com")]);
        let caps = tap.into_captures();
        assert_eq!(caps.len(), 1);
        assert!(caps[0].packets[0].payload.records().is_none());
        // ...but preserves size.
        assert_eq!(caps[0].packets[0].payload.wire_len(), 8 + 5);
    }

    #[test]
    fn avs_tap_preserves_payloads() {
        let mut tap = tap(Vantage::Avs);
        tap.start("skill-a");
        tap.observe_batch(vec![pkt(
            1,
            "amazon.com",
            vec![Record::new(DataType::CustomerId, "A1")],
        )]);
        let caps = tap.into_captures();
        let records = caps[0].packets[0].payload.records().unwrap();
        assert_eq!(records[0].data_type, DataType::CustomerId);
    }

    #[test]
    fn observe_without_session_is_dropped() {
        for vantage in BOTH {
            let mut tap = tap(vantage);
            tap.observe_batch(vec![pkt(1, "amazon.com", vec![])]);
            tap.start("s");
            tap.stop();
            assert_eq!(tap.stats().packets, 0, "{vantage:?}");
            let caps = tap.into_captures();
            assert_eq!(caps.len(), 1, "{vantage:?}");
            assert!(caps[0].packets.is_empty(), "{vantage:?}");
        }
    }

    #[test]
    fn observe_batch_without_session_is_dropped() {
        // After a session ends, nothing is recorded until the next starts.
        for vantage in BOTH {
            let mut tap = tap(vantage);
            tap.start("s");
            tap.stop();
            tap.observe_batch(vec![pkt(1, "amazon.com", vec![])]);
            assert_eq!(tap.stats().packets, 0, "{vantage:?}");
            let caps = tap.into_captures();
            assert_eq!(caps.len(), 1, "{vantage:?}");
            assert!(caps[0].packets.is_empty(), "{vantage:?}");
        }
    }

    #[test]
    fn sessions_attribute_traffic_to_labels() {
        for vantage in BOTH {
            let mut tap = tap(vantage);
            tap.start("garmin");
            tap.observe_batch(vec![pkt(1, "static.garmincdn.com", vec![])]);
            tap.start("sonos"); // implicit stop of garmin session
            tap.observe_batch(vec![pkt(2, "amazon.com", vec![])]);
            let caps = tap.into_captures();
            assert_eq!(caps.len(), 2, "{vantage:?}");
            assert_eq!(caps[0].label, "garmin");
            assert_eq!(caps[1].label, "sonos");
            assert_eq!(caps[0].packets[0].remote.as_str(), "static.garmincdn.com");
            assert_eq!(caps[1].packets[0].remote.as_str(), "amazon.com");
        }
    }

    #[test]
    fn observe_batch_matches_per_packet_observe() {
        let batch = vec![
            voice(1, "amazon.com"),
            pkt(2, "chtbl.com", vec![]),
            voice(3, "api.amazon.com"),
        ];
        for vantage in BOTH {
            let mut one = tap(vantage);
            one.start("s");
            one.observe_batch(batch.clone());
            let mut split = tap(vantage);
            split.start("s");
            for p in &batch {
                split.observe_batch(vec![p.clone()]);
            }
            assert_eq!(one.stats(), split.stats(), "{vantage:?}");
            assert_eq!(one.into_captures(), split.into_captures(), "{vantage:?}");
        }
    }

    #[test]
    fn tap_stats_track_sessions_packets_bytes() {
        for vantage in BOTH {
            let mut tap = tap(vantage);
            assert_eq!(tap.stats(), TapStats::default());
            tap.start("a");
            tap.observe_batch(vec![voice(1, "amazon.com")]);
            tap.start("b");
            tap.observe_batch(vec![
                pkt(2, "chtbl.com", vec![]),
                pkt(3, "amazon.com", vec![]),
            ]);
            let s = tap.stats();
            assert_eq!((s.sessions, s.packets), (2, 3), "{vantage:?}");
            let captured: usize = tap.into_captures().iter().map(Capture::total_bytes).sum();
            assert_eq!(s.bytes, captured, "{vantage:?}");
        }
    }

    #[test]
    fn inactive_fault_plane_changes_nothing() {
        let batch = vec![voice(1, "amazon.com"), pkt(2, "chtbl.com", vec![])];
        for vantage in BOTH {
            let mut plain = tap(vantage);
            let mut gated = Tap::with_faults(vantage, FaultPlane::new(7, FaultProfile::none()));
            for tap in [&mut plain, &mut gated] {
                tap.start("s");
                tap.observe_batch(batch.clone());
                tap.stop();
            }
            assert_eq!(plain.stats(), gated.stats(), "{vantage:?}");
            assert_eq!(plain.into_captures(), gated.into_captures(), "{vantage:?}");
        }
    }

    #[test]
    fn faulted_tap_drops_and_truncates_deterministically() {
        let batch: Vec<Packet> = (0..200).map(|i| voice(i, "amazon.com")).collect();
        for vantage in BOTH {
            let run = |seed: u64| {
                let mut tap =
                    Tap::with_faults(vantage, FaultPlane::new(seed, FaultProfile::hostile()));
                tap.start("skill");
                tap.observe_batch(batch.clone());
                let stats = tap.stats();
                (tap.into_captures(), stats)
            };
            let (caps_a, stats_a) = run(7);
            let (caps_b, stats_b) = run(7);
            assert_eq!(caps_a, caps_b, "{vantage:?}: same seed, same capture");
            assert_eq!(stats_a, stats_b);
            assert!(stats_a.dropped > 0, "hostile profile must drop packets");
            assert!(stats_a.truncated > 0, "hostile profile must truncate flows");
            assert_eq!(stats_a.packets + stats_a.dropped, batch.len());
            let (caps_c, _) = run(8);
            assert_ne!(
                caps_a, caps_c,
                "{vantage:?}: fault placement follows the seed"
            );
        }
    }

    #[test]
    fn avs_truncation_cuts_records_not_packets() {
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
        let mut tap =
            Tap::with_faults(Vantage::Avs, FaultPlane::new(1234, FaultProfile::hostile()));
        tap.start("skill");
        tap.observe_batch(batch);
        assert!(tap.stats().truncated > 0);
        let caps = tap.into_captures();
        // Truncated packets keep a non-empty record prefix.
        assert!(caps[0]
            .packets
            .iter()
            .all(|p| !p.payload.records().unwrap().is_empty()));
        assert!(caps[0]
            .packets
            .iter()
            .any(|p| p.payload.records().unwrap().len() < 4));
    }

    #[test]
    fn fault_keys_reset_per_session() {
        // Two sessions with the same label see identical fault placement.
        let batch: Vec<Packet> = (0..50).map(|i| voice(i, "amazon.com")).collect();
        for vantage in BOTH {
            let plane = FaultPlane::new(42, FaultProfile::hostile());
            let mut tap = Tap::with_faults(vantage, plane);
            tap.start("same");
            tap.observe_batch(batch.clone());
            tap.start("same");
            tap.observe_batch(batch.clone());
            let stats = tap.stats();
            assert!(stats.dropped + stats.truncated > 0, "{vantage:?}");
            let caps = tap.into_captures();
            assert_eq!(caps[0].packets, caps[1].packets, "{vantage:?}");
        }
    }

    #[test]
    fn into_captures_finalizes_open_session() {
        for vantage in BOTH {
            let mut tap = tap(vantage);
            tap.start("open");
            tap.observe_batch(vec![pkt(1, "amazon.com", vec![])]);
            let caps = tap.into_captures();
            assert_eq!(caps.len(), 1, "{vantage:?}");
            assert_eq!(caps[0].packets.len(), 1, "{vantage:?}");
        }
    }
}
