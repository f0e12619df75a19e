//! Per-endpoint flow aggregation.
//!
//! The paper's traffic tables aggregate packets into per-domain flows
//! (counts, bytes, directions, activity spans). This module provides that
//! aggregation as a reusable primitive over captures, so analyses (and
//! downstream users of archived traces) don't reimplement it.

use crate::capture::Capture;
use crate::domain::Domain;
use crate::packet::Direction;
use std::collections::BTreeMap;

/// Aggregate statistics for one endpoint across a capture set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Packets sent device → endpoint.
    pub packets_out: usize,
    /// Packets received endpoint → device.
    pub packets_in: usize,
    /// Bytes sent device → endpoint.
    pub bytes_out: usize,
    /// Bytes received endpoint → device.
    pub bytes_in: usize,
    /// Timestamp of the first packet (ms).
    pub first_seen_ms: u64,
    /// Timestamp of the last packet (ms).
    pub last_seen_ms: u64,
    /// Number of capture sessions (skills) the endpoint appeared in.
    pub sessions: usize,
}

impl FlowStats {
    /// Total packets in both directions.
    pub fn packets(&self) -> usize {
        self.packets_out + self.packets_in
    }

    /// Total bytes in both directions.
    pub fn bytes(&self) -> usize {
        self.bytes_out + self.bytes_in
    }
}

/// Per-endpoint aggregation over a capture set.
pub fn aggregate(captures: &[Capture]) -> BTreeMap<Domain, FlowStats> {
    let mut out: BTreeMap<Domain, FlowStats> = BTreeMap::new();
    for cap in captures {
        let mut seen_in_session: BTreeMap<&Domain, bool> = BTreeMap::new();
        for p in &cap.packets {
            let entry = out.entry(p.remote).or_insert(FlowStats {
                first_seen_ms: p.ts_ms,
                last_seen_ms: p.ts_ms,
                ..FlowStats::default()
            });
            match p.direction {
                Direction::Outgoing => {
                    entry.packets_out += 1;
                    entry.bytes_out += p.payload.wire_len();
                }
                Direction::Incoming => {
                    entry.packets_in += 1;
                    entry.bytes_in += p.payload.wire_len();
                }
            }
            entry.first_seen_ms = entry.first_seen_ms.min(p.ts_ms);
            entry.last_seen_ms = entry.last_seen_ms.max(p.ts_ms);
            seen_in_session.insert(&p.remote, true);
        }
        for (domain, _) in seen_in_session {
            if let Some(entry) = out.get_mut(domain) {
                entry.sessions += 1;
            }
        }
    }
    out
}

/// The top-`n` endpoints by total byte volume, descending.
pub fn top_by_bytes(stats: &BTreeMap<Domain, FlowStats>, n: usize) -> Vec<(&Domain, &FlowStats)> {
    let mut v: Vec<(&Domain, &FlowStats)> = stats.iter().collect();
    v.sort_by(|a, b| b.1.bytes().cmp(&a.1.bytes()).then(a.0.cmp(b.0)));
    v.truncate(n);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{DataType, Packet, Payload, Record};
    use std::net::Ipv4Addr;

    fn cap(label: &str, packets: Vec<Packet>) -> Capture {
        let mut c = Capture::new(label);
        c.packets = packets;
        c
    }

    fn out(ts: u64, name: &str, len: usize) -> Packet {
        Packet::outgoing(
            ts,
            Domain::parse(name).unwrap(),
            Ipv4Addr::new(10, 0, 0, 1),
            Payload::Encrypted { len },
        )
    }

    fn inc(ts: u64, name: &str, len: usize) -> Packet {
        Packet::incoming(
            ts,
            Domain::parse(name).unwrap(),
            Ipv4Addr::new(10, 0, 0, 1),
            Payload::Encrypted { len },
        )
    }

    #[test]
    fn directions_and_bytes_aggregate() {
        let captures = vec![cap(
            "a",
            vec![
                out(1, "x.amazon.com", 100),
                inc(5, "x.amazon.com", 400),
                out(9, "chtbl.com", 50),
            ],
        )];
        let stats = aggregate(&captures);
        let amazon = &stats[&Domain::parse("x.amazon.com").unwrap()];
        assert_eq!(amazon.packets_out, 1);
        assert_eq!(amazon.packets_in, 1);
        assert_eq!(amazon.bytes(), 500);
        assert_eq!(amazon.first_seen_ms, 1);
        assert_eq!(amazon.last_seen_ms, 5);
        assert_eq!(stats.len(), 2);
    }

    #[test]
    fn sessions_count_capture_blocks_not_packets() {
        let captures = vec![
            cap(
                "a",
                vec![out(1, "x.amazon.com", 10), out(2, "x.amazon.com", 10)],
            ),
            cap("b", vec![out(3, "x.amazon.com", 10)]),
        ];
        let stats = aggregate(&captures);
        assert_eq!(stats[&Domain::parse("x.amazon.com").unwrap()].sessions, 2);
    }

    #[test]
    fn plaintext_payload_bytes_counted() {
        let p = Packet::outgoing(
            1,
            Domain::parse("a.amazon.com").unwrap(),
            Ipv4Addr::new(10, 0, 0, 1),
            Payload::Plain(vec![Record::new(DataType::SkillId, "abcd")]),
        );
        let stats = aggregate(&[cap("s", vec![p])]);
        assert_eq!(stats[&Domain::parse("a.amazon.com").unwrap()].bytes_out, 12);
    }

    #[test]
    fn top_by_bytes_orders_descending() {
        let captures = vec![cap(
            "a",
            vec![
                out(1, "big.amazon.com", 1000),
                out(2, "small.amazon.com", 10),
                out(3, "mid.amazon.com", 100),
            ],
        )];
        let stats = aggregate(&captures);
        let top = top_by_bytes(&stats, 2);
        assert_eq!(top[0].0.as_str(), "big.amazon.com");
        assert_eq!(top[1].0.as_str(), "mid.amazon.com");
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn empty_captures_empty_stats() {
        assert!(aggregate(&[]).is_empty());
        assert!(aggregate(&[cap("empty", vec![])]).is_empty());
    }
}
