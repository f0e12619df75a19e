//! Typed packets and payloads.
//!
//! A [`Packet`] is one application-layer message between a device and a
//! remote endpoint. Its payload is either [`Payload::Plain`] — a list of
//! typed [`Record`]s, what the instrumented AVS Echo logs before encryption —
//! or [`Payload::Encrypted`] — an opaque blob of a known size, which is all a
//! router tap ever sees from a commercial Echo.
//!
//! The [`DataType`] variants are exactly the rows of the paper's Table 13:
//! voice recordings, persistent identifiers (customer / skill IDs), user
//! preferences (language, timezone, other), and device events (audio player
//! events plus the device metrics the Echo streams to
//! `device-metrics-us-2.amazon.com`).

use crate::domain::Domain;
use std::net::Ipv4Addr;

/// Direction of a packet relative to the device under audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Device → remote endpoint.
    Outgoing,
    /// Remote endpoint → device.
    Incoming,
}

/// The categories of data the paper observes leaving the device (Table 13),
/// plus [`DataType::TextCommand`] for the §8.1 defense that offloads
/// transcription to the device and ships only text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataType {
    /// Raw voice recording (captured after the wake word).
    VoiceRecording,
    /// A locally-transcribed text command (§8.1's privacy-preserving
    /// replacement for shipping the raw recording).
    TextCommand,
    /// Persistent customer / user identifier.
    CustomerId,
    /// Persistent skill identifier.
    SkillId,
    /// Device language setting.
    Language,
    /// Device timezone setting.
    Timezone,
    /// Any other user preference.
    Preference,
    /// Audio player telemetry (play/pause/progress events).
    AudioPlayerEvent,
    /// Device health / usage metrics.
    DeviceMetric,
}

impl DataType {
    /// All variants, in Table 13 order (with the defense-only
    /// `TextCommand` after the voice input it replaces).
    pub const ALL: [DataType; 9] = [
        DataType::VoiceRecording,
        DataType::TextCommand,
        DataType::CustomerId,
        DataType::SkillId,
        DataType::Language,
        DataType::Timezone,
        DataType::Preference,
        DataType::AudioPlayerEvent,
        DataType::DeviceMetric,
    ];

    /// Human-readable name matching the paper's terminology.
    pub fn label(self) -> &'static str {
        match self {
            DataType::VoiceRecording => "voice recording",
            DataType::TextCommand => "text command",
            DataType::CustomerId => "customer / user ID",
            DataType::SkillId => "skill ID",
            DataType::Language => "language",
            DataType::Timezone => "timezone",
            DataType::Preference => "other preferences",
            DataType::AudioPlayerEvent => "audio player events",
            DataType::DeviceMetric => "device metrics",
        }
    }

    /// The Table 13 category this data type belongs to.
    pub fn category(self) -> &'static str {
        match self {
            DataType::VoiceRecording | DataType::TextCommand => "Voice inputs",
            DataType::CustomerId | DataType::SkillId => "Persistent IDs",
            DataType::Language | DataType::Timezone | DataType::Preference => "User preferences",
            DataType::AudioPlayerEvent | DataType::DeviceMetric => "Device events",
        }
    }
}

impl std::fmt::Display for DataType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One typed data item inside a plaintext payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Record {
    /// What kind of data this is.
    pub data_type: DataType,
    /// The value as transmitted (identifier, transcript, setting, …).
    pub value: String,
}

impl Record {
    /// Convenience constructor.
    pub fn new(data_type: DataType, value: impl Into<String>) -> Record {
        Record {
            data_type,
            value: value.into(),
        }
    }

    /// Approximate wire size of this record in bytes.
    pub fn wire_len(&self) -> usize {
        // Type tag + length prefix + value bytes.
        8 + self.value.len()
    }
}

/// Payload of a packet, as visible to a given vantage point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Opaque ciphertext of the given length (router view of TLS traffic).
    Encrypted {
        /// Ciphertext length in bytes.
        len: usize,
    },
    /// Structured plaintext records (AVS Echo instrumentation view).
    Plain(Vec<Record>),
}

impl Payload {
    /// Wire length in bytes regardless of visibility.
    pub fn wire_len(&self) -> usize {
        match self {
            Payload::Encrypted { len } => *len,
            Payload::Plain(records) => records.iter().map(Record::wire_len).sum(),
        }
    }

    /// Encrypt (opacify) the payload: what a router sees of plaintext.
    pub fn encrypt(&self) -> Payload {
        Payload::Encrypted {
            len: self.wire_len(),
        }
    }

    /// The plaintext records, if visible.
    pub fn records(&self) -> Option<&[Record]> {
        match self {
            Payload::Plain(r) => Some(r),
            Payload::Encrypted { .. } => None,
        }
    }
}

/// One application-layer message between the device and a remote endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Milliseconds since the start of the experiment.
    pub ts_ms: u64,
    /// Direction relative to the device.
    pub direction: Direction,
    /// Remote endpoint name.
    pub remote: Domain,
    /// Remote endpoint address (resolved via the experiment's [`crate::DnsTable`]).
    pub remote_ip: Ipv4Addr,
    /// Payload as emitted by the device (plaintext before encryption).
    pub payload: Payload,
}

impl Packet {
    /// Construct an outgoing packet.
    pub fn outgoing(ts_ms: u64, remote: Domain, remote_ip: Ipv4Addr, payload: Payload) -> Packet {
        Packet {
            ts_ms,
            direction: Direction::Outgoing,
            remote,
            remote_ip,
            payload,
        }
    }

    /// Construct an incoming packet.
    pub fn incoming(ts_ms: u64, remote: Domain, remote_ip: Ipv4Addr, payload: Payload) -> Packet {
        Packet {
            ts_ms,
            direction: Direction::Incoming,
            remote,
            remote_ip,
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom(s: &str) -> Domain {
        Domain::parse(s).unwrap()
    }

    #[test]
    fn data_type_categories_match_table13() {
        assert_eq!(DataType::VoiceRecording.category(), "Voice inputs");
        assert_eq!(DataType::CustomerId.category(), "Persistent IDs");
        assert_eq!(DataType::SkillId.category(), "Persistent IDs");
        assert_eq!(DataType::Language.category(), "User preferences");
        assert_eq!(DataType::AudioPlayerEvent.category(), "Device events");
    }

    #[test]
    fn all_lists_every_variant_once() {
        let set: std::collections::BTreeSet<_> = DataType::ALL.iter().collect();
        assert_eq!(set.len(), 9);
    }

    #[test]
    fn encryption_preserves_length_and_hides_records() {
        let plain = Payload::Plain(vec![
            Record::new(DataType::VoiceRecording, "alexa open garmin"),
            Record::new(DataType::CustomerId, "A1B2C3"),
        ]);
        let enc = plain.encrypt();
        assert_eq!(enc.wire_len(), plain.wire_len());
        assert!(enc.records().is_none());
        assert_eq!(plain.records().unwrap().len(), 2);
    }

    #[test]
    fn encrypting_twice_is_idempotent() {
        let p = Payload::Plain(vec![Record::new(DataType::SkillId, "skill-42")]);
        assert_eq!(p.encrypt().encrypt(), p.encrypt());
    }

    #[test]
    fn packet_constructors_set_direction() {
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        let out = Packet::outgoing(5, dom("amazon.com"), ip, Payload::Encrypted { len: 10 });
        let inc = Packet::incoming(6, dom("amazon.com"), ip, Payload::Encrypted { len: 10 });
        assert_eq!(out.direction, Direction::Outgoing);
        assert_eq!(inc.direction, Direction::Incoming);
    }

    #[test]
    fn wire_len_counts_value_bytes() {
        let r = Record::new(DataType::Preference, "tz=UTC");
        assert_eq!(r.wire_len(), 8 + 6);
    }
}
