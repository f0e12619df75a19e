//! Capture serialization: a line-based trace format ("pcap-lite").
//!
//! The paper commits to releasing its captures alongside the code. This
//! module gives captures a stable, diff-friendly on-disk representation so
//! audit runs can be archived and re-analyzed without re-running the
//! simulation. One line per packet:
//!
//! ```text
//! CAPTURE <label>
//! P <ts_ms> <dir> <remote> <ip> E <len>
//! P <ts_ms> <dir> <remote> <ip> R <n> <type>=<base16 value> ...
//! END
//! ```
//!
//! Values are hex-encoded so arbitrary payload bytes survive the line
//! format. Parsing is strict: any malformed line yields a [`TraceError`].

use crate::capture::Capture;
use crate::domain::Domain;
use crate::packet::{DataType, Direction, Packet, Payload, Record};
use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// Errors produced when parsing a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A line did not match the expected grammar.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The trace ended inside a capture block.
    UnexpectedEof,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Malformed { line, reason } => {
                write!(f, "malformed trace at line {line}: {reason}")
            }
            TraceError::UnexpectedEof => write!(f, "trace ended inside a capture block"),
        }
    }
}

impl std::error::Error for TraceError {}

fn type_tag(dt: DataType) -> &'static str {
    match dt {
        DataType::VoiceRecording => "voice",
        DataType::TextCommand => "text",
        DataType::CustomerId => "cid",
        DataType::SkillId => "sid",
        DataType::Language => "lang",
        DataType::Timezone => "tz",
        DataType::Preference => "pref",
        DataType::AudioPlayerEvent => "audio",
        DataType::DeviceMetric => "metric",
    }
}

fn tag_type(tag: &str) -> Option<DataType> {
    Some(match tag {
        "voice" => DataType::VoiceRecording,
        "text" => DataType::TextCommand,
        "cid" => DataType::CustomerId,
        "sid" => DataType::SkillId,
        "lang" => DataType::Language,
        "tz" => DataType::Timezone,
        "pref" => DataType::Preference,
        "audio" => DataType::AudioPlayerEvent,
        "metric" => DataType::DeviceMetric,
        _ => return None,
    })
}

fn hex_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 2);
    for b in s.bytes() {
        let _ = write!(out, "{b:02x}");
    }
    out
}

fn hex_decode(s: &str) -> Option<String> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut bytes = Vec::with_capacity(s.len() / 2);
    for pair in s.as_bytes().chunks_exact(2) {
        let [hi, lo] = pair else { return None };
        let (hi, lo) = ((*hi as char).to_digit(16)?, (*lo as char).to_digit(16)?);
        bytes.push((hi * 16 + lo) as u8);
    }
    String::from_utf8(bytes).ok()
}

/// Serialize captures into the trace format.
pub fn write_trace(captures: &[Capture]) -> String {
    let mut out = String::new();
    for cap in captures {
        let _ = writeln!(out, "CAPTURE {}", hex_encode(&cap.label));
        for p in &cap.packets {
            let dir = match p.direction {
                Direction::Outgoing => "out",
                Direction::Incoming => "in",
            };
            let _ = write!(out, "P {} {} {} {}", p.ts_ms, dir, p.remote, p.remote_ip);
            match &p.payload {
                Payload::Encrypted { len } => {
                    let _ = writeln!(out, " E {len}");
                }
                Payload::Plain(records) => {
                    let _ = write!(out, " R {}", records.len());
                    for r in records {
                        let _ = write!(out, " {}={}", type_tag(r.data_type), hex_encode(&r.value));
                    }
                    let _ = writeln!(out);
                }
            }
        }
        let _ = writeln!(out, "END");
    }
    out
}

/// Parse a trace back into captures.
pub fn read_trace(text: &str) -> Result<Vec<Capture>, TraceError> {
    let mut captures = Vec::new();
    let mut current: Option<Capture> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        let err = |reason: &str| TraceError::Malformed {
            line: line_no,
            reason: reason.into(),
        };
        if line == "CAPTURE" || line.starts_with("CAPTURE ") {
            // `line` is right-trimmed, so an empty label leaves a bare
            // "CAPTURE" keyword.
            if current.is_some() {
                return Err(err("nested CAPTURE"));
            }
            let label_hex = line.strip_prefix("CAPTURE").unwrap_or("").trim();
            let label = hex_decode(label_hex).ok_or_else(|| err("bad label encoding"))?;
            current = Some(Capture::new(label));
        } else if line == "END" {
            let cap = current.take().ok_or_else(|| err("END outside capture"))?;
            captures.push(cap);
        } else if let Some(rest) = line.strip_prefix("P ") {
            let cap = current
                .as_mut()
                .ok_or_else(|| err("packet outside capture"))?;
            let mut parts = rest.split_whitespace();
            let ts_ms: u64 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err("bad timestamp"))?;
            let direction = match parts.next() {
                Some("out") => Direction::Outgoing,
                Some("in") => Direction::Incoming,
                _ => return Err(err("bad direction")),
            };
            let remote = parts
                .next()
                .and_then(|s| Domain::parse(s).ok())
                .ok_or_else(|| err("bad domain"))?;
            let remote_ip = parts
                .next()
                .and_then(|s| Ipv4Addr::from_str(s).ok())
                .ok_or_else(|| err("bad address"))?;
            let payload = match parts.next() {
                Some("E") => {
                    let len: usize = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad length"))?;
                    Payload::Encrypted { len }
                }
                Some("R") => {
                    let n: usize = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad record count"))?;
                    let mut records = Vec::with_capacity(n);
                    for _ in 0..n {
                        let kv = parts.next().ok_or_else(|| err("missing record"))?;
                        let (tag, value_hex) =
                            kv.split_once('=').ok_or_else(|| err("bad record syntax"))?;
                        let dt = tag_type(tag).ok_or_else(|| err("unknown record type"))?;
                        let value =
                            hex_decode(value_hex).ok_or_else(|| err("bad record encoding"))?;
                        records.push(Record {
                            data_type: dt,
                            value,
                        });
                    }
                    Payload::Plain(records)
                }
                _ => return Err(err("bad payload tag")),
            };
            cap.packets.push(Packet {
                ts_ms,
                direction,
                remote,
                remote_ip,
                payload,
            });
        } else {
            return Err(err("unknown line"));
        }
    }
    if current.is_some() {
        return Err(TraceError::UnexpectedEof);
    }
    Ok(captures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_captures() -> Vec<Capture> {
        let d = |s: &str| Domain::parse(s).unwrap();
        let ip = Ipv4Addr::new(10, 3, 4, 5);
        let mut a = Capture::new("garmin skill");
        a.packets.push(Packet::outgoing(
            10,
            d("avs-alexa-na.amazon.com"),
            ip,
            Payload::Plain(vec![
                Record::new(DataType::VoiceRecording, "alexa open garmin"),
                Record::new(DataType::CustomerId, "amzn1.account.ABC=="),
            ]),
        ));
        a.packets.push(Packet::incoming(
            15,
            d("chtbl.com"),
            ip,
            Payload::Encrypted { len: 512 },
        ));
        let b = Capture::new("empty, with spaces & symbols!");
        vec![a, b]
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let caps = sample_captures();
        let text = write_trace(&caps);
        let parsed = read_trace(&text).unwrap();
        assert_eq!(parsed.len(), caps.len());
        assert_eq!(parsed[0].label, caps[0].label);
        assert_eq!(parsed[0].packets, caps[0].packets);
        assert_eq!(parsed[1].label, caps[1].label);
        assert!(parsed[1].packets.is_empty());
    }

    #[test]
    fn labels_with_spaces_survive() {
        let caps = sample_captures();
        let parsed = read_trace(&write_trace(&caps)).unwrap();
        assert_eq!(parsed[1].label, "empty, with spaces & symbols!");
    }

    #[test]
    fn values_with_spaces_survive() {
        let parsed = read_trace(&write_trace(&sample_captures())).unwrap();
        let records = parsed[0].packets[0].payload.records().unwrap();
        assert_eq!(records[0].value, "alexa open garmin");
    }

    #[test]
    fn empty_trace_is_empty() {
        assert_eq!(read_trace("").unwrap().len(), 0);
        assert_eq!(write_trace(&[]), "");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(matches!(
            read_trace("garbage"),
            Err(TraceError::Malformed { line: 1, .. })
        ));
        assert!(matches!(
            read_trace("CAPTURE 61\nP not-a-ts out a.com 10.0.0.1 E 5\nEND"),
            Err(TraceError::Malformed { line: 2, .. })
        ));
        assert!(matches!(
            read_trace("END"),
            Err(TraceError::Malformed { .. })
        ));
        assert!(matches!(
            read_trace("CAPTURE 61"),
            Err(TraceError::UnexpectedEof)
        ));
        assert!(matches!(
            read_trace("CAPTURE 61\nCAPTURE 62\nEND"),
            Err(TraceError::Malformed { line: 2, .. })
        ));
    }

    #[test]
    fn rejects_unknown_record_type() {
        let text = "CAPTURE 61\nP 1 out a.com 10.0.0.1 R 1 bogus=61\nEND";
        assert!(matches!(
            read_trace(text),
            Err(TraceError::Malformed { line: 2, .. })
        ));
    }

    #[test]
    fn hex_helpers() {
        assert_eq!(hex_encode("ab"), "6162");
        assert_eq!(hex_decode("6162"), Some("ab".to_string()));
        assert_eq!(hex_decode("616"), None);
        assert_eq!(hex_decode("zz"), None);
    }
}
