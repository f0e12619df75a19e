//! Deterministic DNS: name → address allocation and reverse resolution.
//!
//! The paper resolves the IP addresses seen in captures back to names using
//! the DNS packets recorded alongside them. Our simulation allocates one
//! stable IPv4 address per name (from the 10.0.0.0/8 range, derived from a
//! hash of the name) and keeps the forward table so captures can be reverse-
//! resolved exactly like the paper does.

use crate::domain::Domain;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Forward and reverse DNS table with deterministic allocation.
///
/// Both directions are `BTreeMap`s so iteration (Debug dumps, future
/// exports) is in key order, independent of insertion order — the same
/// discipline the rest of the pipeline follows so that no unordered
/// collection can ever reach an output path.
#[derive(Debug, Clone, Default)]
pub struct DnsTable {
    forward: BTreeMap<Domain, Ipv4Addr>,
    reverse: BTreeMap<Ipv4Addr, Domain>,
}

impl DnsTable {
    /// Create an empty table.
    pub fn new() -> DnsTable {
        DnsTable::default()
    }

    /// Resolve a name, allocating a deterministic address on first use.
    ///
    /// The address is a pure function of the name (FNV-1a over the labels,
    /// folded into 10.x.y.z), with linear probing on the rare collision so
    /// the reverse mapping stays injective.
    pub fn resolve(&mut self, domain: &Domain) -> Ipv4Addr {
        if let Some(&ip) = self.forward.get(domain) {
            return ip;
        }
        let mut h: u64 = 0xcbf29ce484222325;
        for b in domain.as_str().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        let mut candidate = h;
        let ip = loop {
            let ip = Ipv4Addr::new(
                10,
                (candidate >> 16) as u8,
                (candidate >> 8) as u8,
                (candidate as u8).max(1), // avoid .0 network addresses
            );
            match self.reverse.get(&ip) {
                None => break ip,
                Some(existing) if existing == domain => break ip,
                Some(_) => candidate = candidate.wrapping_add(0x9e3779b97f4a7c15),
            }
        };
        self.forward.insert(domain.clone(), ip);
        self.reverse.insert(ip, domain.clone());
        ip
    }

    /// Look up a name without allocating.
    pub fn lookup(&self, domain: &Domain) -> Option<Ipv4Addr> {
        self.forward.get(domain).copied()
    }

    /// Reverse-resolve an address to the name that allocated it.
    pub fn reverse(&self, ip: Ipv4Addr) -> Option<&Domain> {
        self.reverse.get(&ip)
    }

    /// Number of allocated names.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Domain {
        Domain::parse(s).unwrap()
    }

    #[test]
    fn allocation_is_deterministic() {
        let mut a = DnsTable::new();
        let mut b = DnsTable::new();
        assert_eq!(
            a.resolve(&d("api.amazon.com")),
            b.resolve(&d("api.amazon.com"))
        );
    }

    #[test]
    fn allocation_is_stable_across_calls() {
        let mut t = DnsTable::new();
        let first = t.resolve(&d("megaphone.fm"));
        let second = t.resolve(&d("megaphone.fm"));
        assert_eq!(first, second);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn reverse_resolution_roundtrips() {
        let mut t = DnsTable::new();
        let names = ["amazon.com", "podtrac.com", "chtbl.com", "play.podtrac.com"];
        for n in names {
            let ip = t.resolve(&d(n));
            assert_eq!(t.reverse(ip).unwrap().as_str(), n);
        }
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn distinct_names_get_distinct_ips() {
        let mut t = DnsTable::new();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..500 {
            let name = format!("host{i}.example.com");
            assert!(seen.insert(t.resolve(&d(&name))), "collision for {name}");
        }
    }

    #[test]
    fn lookup_does_not_allocate() {
        let t = DnsTable::new();
        assert_eq!(t.lookup(&d("amazon.com")), None);
        assert!(t.is_empty());
    }

    #[test]
    fn debug_dump_is_insertion_order_independent() {
        // Regression test for the HashMap → BTreeMap conversion: any
        // rendered view of the table must depend only on its contents,
        // never on the order resolutions happened in.
        let names = ["amazon.com", "podtrac.com", "chtbl.com", "megaphone.fm"];
        let mut fwd = DnsTable::new();
        for n in names {
            fwd.resolve(&d(n));
        }
        let mut rev = DnsTable::new();
        for n in names.iter().rev() {
            rev.resolve(&d(n));
        }
        assert_eq!(format!("{fwd:?}"), format!("{rev:?}"));
    }

    #[test]
    fn addresses_stay_in_ten_slash_eight() {
        let mut t = DnsTable::new();
        for i in 0..100 {
            let ip = t.resolve(&d(&format!("h{i}.test.com")));
            assert_eq!(ip.octets()[0], 10);
            assert_ne!(ip.octets()[3], 0);
        }
    }
}
