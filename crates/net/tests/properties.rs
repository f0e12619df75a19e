//! Property-based tests for the network substrate.

use alexa_net::{
    read_trace, write_trace, Capture, DataType, DnsTable, Domain, FilterList, Packet, Payload,
    Record,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Strategy producing syntactically valid domain names under known suffixes.
fn valid_domain() -> impl Strategy<Value = String> {
    let label = "[a-z][a-z0-9]{0,10}";
    (
        prop::collection::vec(label, 1..4),
        prop::sample::select(vec!["com", "net", "org", "fm"]),
    )
        .prop_map(|(labels, tld)| format!("{}.{}", labels.join("."), tld))
}

proptest! {
    #[test]
    fn parse_accepts_valid_names(name in valid_domain()) {
        let d = Domain::parse(&name).unwrap();
        prop_assert_eq!(d.as_str(), name.as_str());
    }

    #[test]
    fn parse_is_case_insensitive(name in valid_domain()) {
        let upper = name.to_ascii_uppercase();
        prop_assert_eq!(Domain::parse(&upper).unwrap(), Domain::parse(&name).unwrap());
    }

    #[test]
    fn registrable_is_suffix_of_name(name in valid_domain()) {
        let d = Domain::parse(&name).unwrap();
        let reg = d.registrable().unwrap();
        // The registrable domain's labels end the name's labels.
        prop_assert!(reg.depth() <= d.depth());
        let tail: Vec<&str> = d.labels().skip(d.depth() - reg.depth()).collect();
        prop_assert_eq!(tail, reg.labels().collect::<Vec<_>>());
    }

    #[test]
    fn registrable_is_idempotent(name in valid_domain()) {
        let d = Domain::parse(&name).unwrap();
        let reg = d.registrable().unwrap();
        prop_assert_eq!(reg.registrable().unwrap(), reg);
    }

    #[test]
    fn dns_reverse_inverts_resolve(names in prop::collection::hash_set(valid_domain(), 1..40)) {
        let mut table = DnsTable::new();
        for name in &names {
            let d = Domain::parse(name).unwrap();
            let ip = table.resolve(&d);
            prop_assert_eq!(table.reverse(ip), Some(&d));
        }
        prop_assert_eq!(table.len(), names.len());
    }

    #[test]
    fn filterlist_subdomain_consistency(name in valid_domain(), sub in "[a-z]{1,8}") {
        // If a registrable domain is listed, every subdomain must match too.
        let mut fl = FilterList::empty();
        let d = Domain::parse(&name).unwrap();
        let reg = d.registrable().unwrap();
        fl.add_suffix(reg.as_str());
        prop_assert!(fl.is_ad_tracking(&d));
        let deeper = Domain::parse(&format!("{sub}.{name}")).unwrap();
        prop_assert!(fl.is_ad_tracking(&deeper));
    }

    #[test]
    fn encryption_always_preserves_wire_len(values in prop::collection::vec("[ -~]{0,40}", 0..10)) {
        let records: Vec<Record> = values
            .into_iter()
            .map(|v| Record::new(alexa_net::DataType::Preference, v))
            .collect();
        let plain = Payload::Plain(records);
        prop_assert_eq!(plain.encrypt().wire_len(), plain.wire_len());
    }

    #[test]
    fn trace_roundtrips_arbitrary_captures(
        label in "[ -~]{0,30}",
        packets in prop::collection::vec(
            (
                0u64..1_000_000,
                prop::bool::ANY,
                valid_domain(),
                prop::collection::vec(("[ -~]{0,24}", 0usize..9), 0..4),
                0usize..4096,
            ),
            0..8,
        ),
    ) {
        let mut cap = Capture::new(label);
        for (ts, outgoing, name, records, enc_len) in packets {
            let domain = Domain::parse(&name).unwrap();
            let ip = Ipv4Addr::new(10, 1, 2, 3);
            let payload = if records.is_empty() {
                Payload::Encrypted { len: enc_len }
            } else {
                Payload::Plain(
                    records
                        .into_iter()
                        .map(|(v, ti)| Record::new(DataType::ALL[ti % DataType::ALL.len()], v))
                        .collect(),
                )
            };
            cap.packets.push(if outgoing {
                Packet::outgoing(ts, domain, ip, payload)
            } else {
                Packet::incoming(ts, domain, ip, payload)
            });
        }
        let parsed = read_trace(&write_trace(std::slice::from_ref(&cap))).unwrap();
        prop_assert_eq!(parsed.len(), 1);
        prop_assert_eq!(&parsed[0].label, &cap.label);
        prop_assert_eq!(&parsed[0].packets, &cap.packets);
    }
}
