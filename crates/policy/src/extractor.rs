//! Flow extraction: captures → the halves of `<data type, entity>` tuples.
//!
//! PoliCheck consumes data flows. Because of the two-vantage-point setup the
//! paper extracts the two tuple halves from *different* captures (§7.2):
//! entities from the Amazon Echo's encrypted traffic (endpoints are visible,
//! payloads are not) and data types from the AVS Echo's plaintext traffic
//! (payloads visible, but endpoints Amazon-only).

use alexa_net::{Capture, DataType, OrgMap};
use std::collections::{BTreeMap, BTreeSet};

/// Extracts flows from capture sets.
#[derive(Debug, Default)]
pub struct FlowExtractor;

impl FlowExtractor {
    /// Create an extractor.
    pub fn new() -> FlowExtractor {
        FlowExtractor
    }

    /// Endpoint analysis input: per skill (capture label), the set of
    /// organizations whose endpoints were contacted. Works on encrypted
    /// captures — only `remote` is consulted.
    ///
    /// Unknown organizations fall back to the endpoint's registrable domain,
    /// mirroring the paper's WHOIS fallback.
    pub fn endpoint_orgs(
        &self,
        captures: &[Capture],
        orgs: &OrgMap,
    ) -> BTreeMap<String, BTreeSet<String>> {
        let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for cap in captures {
            let entry = out.entry(cap.label.clone()).or_default();
            for packet in &cap.packets {
                let org = orgs
                    .org_of(&packet.remote)
                    .map(str::to_string)
                    .or_else(|| packet.remote.registrable().map(|d| d.as_str().to_string()))
                    .unwrap_or_else(|| packet.remote.as_str().to_string());
                entry.insert(org);
            }
        }
        out
    }

    /// Data-type analysis input: per skill, the set of data types observed
    /// in plaintext payloads. Encrypted packets contribute nothing.
    pub fn data_types(&self, captures: &[Capture]) -> BTreeMap<String, BTreeSet<DataType>> {
        let mut out: BTreeMap<String, BTreeSet<DataType>> = BTreeMap::new();
        for cap in captures {
            let entry = out.entry(cap.label.clone()).or_default();
            for packet in &cap.packets {
                if let Some(records) = packet.payload.records() {
                    for r in records {
                        entry.insert(r.data_type);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexa_net::{Domain, Packet, Payload, Record};
    use std::net::Ipv4Addr;

    fn cap(label: &str, packets: Vec<Packet>) -> Capture {
        let mut c = Capture::new(label);
        c.packets = packets;
        c
    }

    fn plain(name: &str, dt: DataType) -> Packet {
        Packet::outgoing(
            1,
            Domain::parse(name).unwrap(),
            Ipv4Addr::new(10, 0, 0, 1),
            Payload::Plain(vec![Record::new(dt, "v")]),
        )
    }

    fn encrypted(name: &str) -> Packet {
        Packet::outgoing(
            1,
            Domain::parse(name).unwrap(),
            Ipv4Addr::new(10, 0, 0, 1),
            Payload::Encrypted { len: 100 },
        )
    }

    #[test]
    fn endpoint_orgs_resolve_through_orgmap() {
        let orgs = OrgMap::new();
        let captures = vec![cap(
            "garmin",
            vec![encrypted("api.amazon.com"), encrypted("dts.podtrac.com")],
        )];
        let map = FlowExtractor::new().endpoint_orgs(&captures, &orgs);
        let set = &map["garmin"];
        assert!(set.contains("Amazon Technologies, Inc."));
        assert!(set.contains("Podtrac Inc"));
    }

    #[test]
    fn unknown_org_falls_back_to_registrable() {
        let orgs = OrgMap::new();
        let captures = vec![cap("x", vec![encrypted("cdn.obscure-host.net")])];
        let map = FlowExtractor::new().endpoint_orgs(&captures, &orgs);
        assert!(map["x"].contains("obscure-host.net"));
    }

    #[test]
    fn data_types_only_from_plaintext() {
        let captures = vec![cap(
            "s",
            vec![
                plain("api.amazon.com", DataType::VoiceRecording),
                encrypted("api.amazon.com"),
            ],
        )];
        let map = FlowExtractor::new().data_types(&captures);
        assert_eq!(map["s"].len(), 1);
        assert!(map["s"].contains(&DataType::VoiceRecording));
    }

    #[test]
    fn encrypted_only_captures_yield_no_data_types() {
        let captures = vec![cap("s", vec![encrypted("api.amazon.com")])];
        let map = FlowExtractor::new().data_types(&captures);
        assert!(map["s"].is_empty());
    }

    #[test]
    fn flows_deduplicate() {
        let captures = vec![cap(
            "s",
            vec![
                plain("api.amazon.com", DataType::CustomerId),
                plain("api.amazon.com", DataType::CustomerId),
            ],
        )];
        assert_eq!(FlowExtractor::new().data_types(&captures)["s"].len(), 1);
    }
}
