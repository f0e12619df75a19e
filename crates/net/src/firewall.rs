//! The traffic-filtering defense of §8.1.
//!
//! The paper proposes, as a user-side defense, to "selectively block
//! network traffic that is not essential for the skill to work", citing the
//! *Blocking without Breaking* approach (Mandalari et al., PETS '21). This
//! module implements that defense as a router-resident firewall:
//!
//! * advertising & tracking endpoints (per the [`FilterList`]) are
//!   **blocked**;
//! * everything else is allowed — the defense must not break functionality.
//!
//! [`FirewallStats`] records what was dropped so the audit can quantify the
//! defense: how much A&T traffic disappears, and whether any functional
//! flow was harmed.

use crate::domain::Domain;
use crate::filterlist::FilterList;
use crate::packet::Packet;

/// Per-packet decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Forwarded unchanged.
    Allow,
    /// Dropped at the router.
    Block,
}

/// Counters describing a firewall's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FirewallStats {
    /// Packets forwarded.
    pub allowed: usize,
    /// Packets dropped.
    pub blocked: usize,
}

/// A router-resident advertising & tracking firewall.
///
/// ```
/// use alexa_net::{Domain, Firewall, Packet, Payload};
/// use std::net::Ipv4Addr;
/// let mut fw = Firewall::new();
/// let tracker = Packet::outgoing(
///     0,
///     Domain::parse("dts.podtrac.com").unwrap(),
///     Ipv4Addr::new(10, 0, 0, 1),
///     Payload::Encrypted { len: 64 },
/// );
/// assert!(fw.filter(&tracker).is_none()); // dropped
/// assert_eq!(fw.stats().blocked, 1);
/// ```
#[derive(Debug)]
pub struct Firewall {
    blocklist: FilterList,
    stats: FirewallStats,
}

impl Default for Firewall {
    fn default() -> Firewall {
        Firewall::new()
    }
}

impl Firewall {
    /// Firewall with the built-in A&T blocklist.
    pub fn new() -> Firewall {
        Firewall::with_blocklist(FilterList::new())
    }

    /// Firewall over a custom blocklist.
    pub fn with_blocklist(blocklist: FilterList) -> Firewall {
        Firewall {
            blocklist,
            stats: FirewallStats::default(),
        }
    }

    /// Decide a packet's fate without forwarding it.
    pub fn judge(&self, packet: &Packet) -> Verdict {
        self.judge_remote(&packet.remote)
    }

    /// Decide the fate of every packet to `remote`: the verdict depends on
    /// the endpoint alone, so it can be evaluated once per distinct host.
    pub fn judge_remote(&self, remote: &Domain) -> Verdict {
        if self.blocklist.is_ad_tracking(remote) {
            Verdict::Block
        } else {
            Verdict::Allow
        }
    }

    /// Filter a packet, recording the decision. Returns the packet when
    /// forwarded.
    pub fn filter<'a>(&mut self, packet: &'a Packet) -> Option<&'a Packet> {
        match self.judge(packet) {
            Verdict::Allow => {
                self.stats.allowed += 1;
                Some(packet)
            }
            Verdict::Block => {
                self.stats.blocked += 1;
                None
            }
        }
    }

    /// Filter a whole batch, keeping forwarded packets.
    pub fn filter_batch(&mut self, packets: Vec<Packet>) -> Vec<Packet> {
        packets
            .into_iter()
            .filter(|p| match self.judge(p) {
                Verdict::Allow => {
                    self.stats.allowed += 1;
                    true
                }
                Verdict::Block => {
                    self.stats.blocked += 1;
                    false
                }
            })
            .collect()
    }

    /// Activity counters so far.
    pub fn stats(&self) -> FirewallStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Payload;
    use std::net::Ipv4Addr;

    fn pkt(name: &str) -> Packet {
        Packet::outgoing(
            1,
            Domain::parse(name).unwrap(),
            Ipv4Addr::new(10, 0, 0, 1),
            Payload::Encrypted { len: 64 },
        )
    }

    #[test]
    fn blocks_ad_tracking_endpoints() {
        let mut fw = Firewall::new();
        assert!(fw.filter(&pkt("dts.podtrac.com")).is_none());
        assert!(fw.filter(&pkt("dcs.megaphone.fm")).is_none());
        assert_eq!(fw.stats().blocked, 2);
    }

    #[test]
    fn allows_functional_traffic() {
        let mut fw = Firewall::new();
        assert!(fw.filter(&pkt("avs-alexa-na.amazon.com")).is_some());
        assert!(fw.filter(&pkt("dillilabs.com")).is_some());
        assert_eq!(fw.stats().allowed, 2);
        assert_eq!(fw.stats().blocked, 0);
    }

    #[test]
    fn blocks_device_metrics_exact_host() {
        let mut fw = Firewall::new();
        assert!(fw.filter(&pkt("device-metrics-us-2.amazon.com")).is_none());
        assert!(fw.filter(&pkt("api.amazon.com")).is_some());
    }

    #[test]
    fn batch_filter_partitions() {
        let mut fw = Firewall::new();
        let batch = vec![
            pkt("api.amazon.com"),
            pkt("chtbl.com"),
            pkt("dillilabs.com"),
        ];
        let kept = fw.filter_batch(batch);
        assert_eq!(kept.len(), 2);
        assert_eq!(
            fw.stats(),
            FirewallStats {
                allowed: 2,
                blocked: 1
            }
        );
    }
}
