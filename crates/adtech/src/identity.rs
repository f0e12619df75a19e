//! Browser profiles and cookies.
//!
//! Each persona gets a **fresh browser profile** logged into its own Amazon
//! account, and a **unique IP address** (§3.1.1) so personas cannot
//! contaminate each other. Cookies are the client-side identifiers the
//! cookie-syncing machinery (§5.5) exchanges.

use crate::bidding::Bid;
use crate::crawler::{KeyCache, SyncObservation};
use alexa_fault::Fnv1a;
use alexa_net::Label;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// One cookie set by an organization's domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cookie {
    /// Organization (registrable domain) owning the cookie, interned.
    pub org: Label,
    /// Opaque identifier value, interned: the same identifier appears in
    /// every sync event the cookie participates in, so copying it must not
    /// copy the string.
    pub value: Label,
}

/// A persona's browser profile: cookie jar, login state, and source IP.
#[derive(Debug, Clone)]
pub struct BrowserProfile {
    /// Persona name this profile belongs to.
    pub persona: String,
    /// Unique source address assigned to the persona.
    pub ip: Ipv4Addr,
    /// Whether the profile is logged into the persona's Amazon account
    /// (true for Echo personas; the web-control personas browse logged in
    /// too, per §3.3's crawl setup).
    pub amazon_login: Option<String>,
    jar: BTreeMap<&'static str, Cookie>,
    /// Single-entry cache of the bidder roster's knowledge facts about this
    /// profile's user, keyed on whether the user held Echo segments when it
    /// was computed. The cached value is a pure function of (persona, key),
    /// so hits and misses are indistinguishable in results — and because
    /// the cache lives on the shard-owned profile rather than the shared
    /// crawler, hit/miss patterns (and thus allocation accounting) are a
    /// deterministic function of the shard alone, not of scheduling.
    pub(crate) view_cache: Option<(bool, std::sync::Arc<crate::bidding::UserView>)>,
    /// Scratch buffers the crawler fills during a visit and drains into the
    /// visit record. Their capacity survives across visits, so each visit
    /// allocates only its exactly sized record vectors.
    pub(crate) bid_scratch: Vec<Bid>,
    /// See [`BrowserProfile::bid_scratch`].
    pub(crate) sync_scratch: Vec<SyncObservation>,
    /// The bid keys and sync triples this profile's visits record.
    pub(crate) keys: KeyCache,
}

impl BrowserProfile {
    /// Create a fresh profile for a persona, with a deterministic unique IP.
    pub fn fresh(persona: &str, index: u8, amazon_account: Option<&str>) -> BrowserProfile {
        BrowserProfile {
            persona: persona.to_string(),
            ip: Ipv4Addr::new(192, 168, 10, index.max(1)),
            amazon_login: amazon_account.map(str::to_string),
            jar: BTreeMap::new(),
            view_cache: None,
            bid_scratch: Vec::new(),
            sync_scratch: Vec::new(),
            keys: KeyCache::default(),
        }
    }

    /// Get or mint the cookie for an organization. Cookie values are a
    /// deterministic function of (persona, org) — stable across visits,
    /// distinct across personas, exactly what sync detection relies on.
    pub fn cookie(&mut self, org: &str) -> Cookie {
        if let Some(&c) = self.jar.get(org) {
            return c;
        }
        let h = Fnv1a::hash_parts(&[&self.persona, ":", org]);
        let c = Cookie {
            org: Label::intern(org),
            value: Label::intern(&format!("uid-{h:016x}")),
        };
        self.jar.insert(c.org.as_str(), c);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cookies_are_stable_within_profile() {
        let mut p = BrowserProfile::fresh("fashion", 1, Some("acct-fashion"));
        let a = p.cookie("criteo.com");
        let b = p.cookie("criteo.com");
        assert_eq!(a, b);
        assert_eq!(p.jar.len(), 1);
    }

    #[test]
    fn cookies_differ_across_personas() {
        let mut a = BrowserProfile::fresh("fashion", 1, None);
        let mut b = BrowserProfile::fresh("dating", 2, None);
        assert_ne!(a.cookie("criteo.com").value, b.cookie("criteo.com").value);
    }

    #[test]
    fn cookies_differ_across_orgs() {
        let mut p = BrowserProfile::fresh("fashion", 1, None);
        assert_ne!(p.cookie("criteo.com").value, p.cookie("pubmatic.com").value);
    }

    #[test]
    fn fresh_profiles_have_unique_ips() {
        let a = BrowserProfile::fresh("a", 1, None);
        let b = BrowserProfile::fresh("b", 2, None);
        assert_ne!(a.ip, b.ip);
    }

    #[test]
    fn login_state_recorded() {
        let p = BrowserProfile::fresh("vanilla", 3, Some("acct-vanilla"));
        assert_eq!(p.amazon_login.as_deref(), Some("acct-vanilla"));
    }
}
