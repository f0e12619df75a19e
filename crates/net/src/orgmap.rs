//! Domain → organization resolution.
//!
//! The paper maps contacted domain names to their parent organizations using
//! the DuckDuckGo Tracker Radar entity list, Crunchbase and WHOIS. We embed
//! the equivalent mapping for every organization observed in the study
//! (Tables 1 and 14) and let callers register more (the ad-tech simulation
//! adds its advertisers at setup time).

use crate::domain::Domain;
use std::collections::BTreeMap;

/// Coarse traffic-party classification relative to a given skill.
///
/// Table 1 splits contacted domains into Amazon (platform party), the skill's
/// own vendor (first party), and everyone else (third party).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OrgClass {
    /// Amazon — the platform operator.
    Amazon,
    /// The organization that publishes the skill under audit.
    SkillVendor,
    /// Any other organization.
    ThirdParty,
}

impl std::fmt::Display for OrgClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OrgClass::Amazon => "Amazon",
            OrgClass::SkillVendor => "Skill vendor",
            OrgClass::ThirdParty => "Third party",
        };
        f.write_str(s)
    }
}

/// Registrable-domain → organization lookup table.
///
/// Backed by a `BTreeMap` so every iteration is in lexicographic domain
/// order — no view of the map can leak insertion order.
#[derive(Debug, Clone)]
pub struct OrgMap {
    by_registrable: BTreeMap<String, String>,
}

/// The organization name used for Amazon throughout the workspace.
pub const AMAZON: &str = "Amazon Technologies, Inc.";

/// Built-in (registrable domain, organization) pairs covering every
/// organization the paper observed (Tables 1 and 14).
const BUILTIN: &[(&str, &str)] = &[
    // Amazon infrastructure.
    ("amazon.com", AMAZON),
    ("amcs-tachyon.com", AMAZON),
    ("amazonalexa.com", AMAZON),
    ("cloudfront.net", AMAZON),
    ("amazonaws.com", AMAZON),
    ("acsechocaptiveportal.com", AMAZON),
    ("fireoscaptiveportal.com", AMAZON),
    ("a2z.com", AMAZON),
    ("amazon-dss.com", AMAZON),
    ("amazon-adsystem.com", AMAZON),
    ("music.amazon.com", AMAZON),
    // Skill vendors with their own backends.
    ("garmincdn.com", "Garmin International"),
    ("garmin.com", "Garmin International"),
    ("youversionapi.com", "Life Covenant Church, Inc."),
    // Third parties from Table 14.
    ("chtbl.com", "Chartable Holding Inc"),
    ("cdn77.org", "DataCamp Limited"),
    ("dillilabs.com", "Dilli Labs LLC"),
    ("libsyn.com", "Liberated Syndication"),
    ("npr.org", "National Public Radio, Inc."),
    ("meethue.com", "Philips International B.V."),
    ("podtrac.com", "Podtrac Inc"),
    ("megaphone.fm", "Spotify AB"),
    ("spotify.com", "Spotify AB"),
    ("streamtheworld.com", "Triton Digital, Inc."),
    ("tritondigital.com", "Triton Digital, Inc."),
    ("omny.fm", "Triton Digital, Inc."),
    ("voiceapps.com", "Voice Apps LLC"),
    ("pandora.com", "Pandora Media, LLC"),
];

impl Default for OrgMap {
    fn default() -> OrgMap {
        OrgMap::new()
    }
}

impl OrgMap {
    /// Create a map preloaded with the paper's organization dataset.
    pub fn new() -> OrgMap {
        let mut by_registrable = BTreeMap::new();
        for &(dom, org) in BUILTIN {
            by_registrable.insert(dom.to_string(), org.to_string());
        }
        OrgMap { by_registrable }
    }

    /// Create an empty map (for tests and custom ecosystems).
    pub fn empty() -> OrgMap {
        OrgMap {
            by_registrable: BTreeMap::new(),
        }
    }

    /// Register an organization for a registrable domain.
    pub fn register(&mut self, registrable: &str, org: &str) {
        self.by_registrable
            .insert(registrable.to_ascii_lowercase(), org.to_string());
    }

    /// Resolve a (sub)domain to its organization, if known.
    ///
    /// Falls back from the full name to the registrable domain, mirroring
    /// the paper's entity matching.
    pub fn org_of(&self, domain: &Domain) -> Option<&str> {
        if let Some(org) = self.by_registrable.get(domain.as_str()) {
            return Some(org);
        }
        let reg = domain.registrable_name()?;
        self.by_registrable.get(reg).map(String::as_str)
    }

    /// Classify a domain relative to a skill vendor's organization name.
    ///
    /// Unknown domains classify as third party — the conservative choice the
    /// paper makes for unattributable endpoints.
    pub fn classify(&self, domain: &Domain, skill_vendor_org: &str) -> OrgClass {
        match self.org_of(domain) {
            Some(org) if org == AMAZON => OrgClass::Amazon,
            Some(org) if org == skill_vendor_org => OrgClass::SkillVendor,
            _ => OrgClass::ThirdParty,
        }
    }

    /// Number of registered registrable domains.
    pub fn len(&self) -> usize {
        self.by_registrable.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.by_registrable.is_empty()
    }

    /// All (registrable domain, organization) pairs in lexicographic domain
    /// order — the canonical view used for hashing and diffing (the backing
    /// `BTreeMap` already iterates in that order).
    pub fn entries_sorted(&self) -> Vec<(&str, &str)> {
        self.by_registrable
            .iter()
            .map(|(d, o)| (d.as_str(), o.as_str()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Domain {
        Domain::parse(s).unwrap()
    }

    #[test]
    fn subdomains_resolve_through_registrable() {
        let m = OrgMap::new();
        assert_eq!(m.org_of(&d("device-metrics-us-2.amazon.com")), Some(AMAZON));
        assert_eq!(m.org_of(&d("play.podtrac.com")), Some("Podtrac Inc"));
        assert_eq!(
            m.org_of(&d("turnernetworksales.mc.tritondigital.com")),
            Some("Triton Digital, Inc.")
        );
        assert_eq!(
            m.org_of(&d("ingestion.us-east-1.prod.arteries.alexa.a2z.com")),
            Some(AMAZON)
        );
    }

    #[test]
    fn unknown_domain_is_none() {
        let m = OrgMap::new();
        assert_eq!(m.org_of(&d("totally-unknown.example.com")), None);
    }

    #[test]
    fn classify_amazon_vendor_third() {
        let m = OrgMap::new();
        assert_eq!(
            m.classify(&d("api.amazon.com"), "Garmin International"),
            OrgClass::Amazon
        );
        assert_eq!(
            m.classify(&d("static.garmincdn.com"), "Garmin International"),
            OrgClass::SkillVendor
        );
        assert_eq!(
            m.classify(&d("play.podtrac.com"), "Garmin International"),
            OrgClass::ThirdParty
        );
        // Unknown endpoints conservatively classify as third party.
        assert_eq!(
            m.classify(&d("mystery.example.com"), "Garmin"),
            OrgClass::ThirdParty
        );
    }

    #[test]
    fn registration_overrides() {
        let mut m = OrgMap::empty();
        m.register("example.com", "Example Corp");
        assert_eq!(m.org_of(&d("api.example.com")), Some("Example Corp"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn exact_name_takes_priority_over_registrable() {
        let mut m = OrgMap::new();
        m.register("special.amazon.com", "Shadow Org");
        assert_eq!(m.org_of(&d("special.amazon.com")), Some("Shadow Org"));
        assert_eq!(m.org_of(&d("other.amazon.com")), Some(AMAZON));
    }

    #[test]
    fn debug_dump_is_insertion_order_independent() {
        // Regression test for the HashMap → BTreeMap conversion.
        let mut a = OrgMap::empty();
        a.register("alpha.com", "Alpha");
        a.register("beta.com", "Beta");
        let mut b = OrgMap::empty();
        b.register("beta.com", "Beta");
        b.register("alpha.com", "Alpha");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.entries_sorted(), b.entries_sorted());
    }

    #[test]
    fn builtin_covers_every_table14_org() {
        let m = OrgMap::new();
        let orgs = [
            "Chartable Holding Inc",
            "DataCamp Limited",
            "Dilli Labs LLC",
            "Garmin International",
            "Liberated Syndication",
            "National Public Radio, Inc.",
            "Philips International B.V.",
            "Podtrac Inc",
            "Spotify AB",
            "Triton Digital, Inc.",
            "Voice Apps LLC",
            "Life Covenant Church, Inc.",
        ];
        for org in orgs {
            assert!(
                BUILTIN.iter().any(|&(_, o)| o == org),
                "missing builtin org {org}"
            );
        }
        assert!(m.len() >= BUILTIN.len() - 2); // some domains share an org
    }
}
