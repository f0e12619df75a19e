//! Validated domain names and eTLD+1 extraction.
//!
//! The paper groups contacted endpoints by registrable domain (e.g. the 11
//! subdomains of `amazon.com` in Table 1 collapse to one row). We implement
//! that grouping with an embedded subset of the public-suffix list covering
//! every suffix observed in the simulated ecosystem.

use crate::label::Label;
use std::fmt;

/// Public suffixes known to the embedded list. A real deployment would load
/// the full Mozilla PSL; the simulation only ever mints names under these.
const PUBLIC_SUFFIXES: &[&str] = &[
    "com", "net", "org", "io", "fm", "us", "de", "ai", "app", "dev", "tv", "info", "biz", "co.uk",
    "org.uk", "ac.uk", "com.au", "co.jp",
];

/// Errors produced when parsing a [`Domain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomainError {
    /// The name was empty or consisted only of dots.
    Empty,
    /// A label was empty, too long, or contained an invalid character.
    BadLabel(String),
    /// The name as a whole exceeded 253 characters.
    TooLong,
    /// The name is only a public suffix (no registrable part).
    OnlySuffix,
}

impl fmt::Display for DomainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomainError::Empty => write!(f, "empty domain name"),
            DomainError::BadLabel(l) => write!(f, "invalid label {l:?}"),
            DomainError::TooLong => write!(f, "domain name exceeds 253 characters"),
            DomainError::OnlySuffix => write!(f, "name is a bare public suffix"),
        }
    }
}

impl std::error::Error for DomainError {}

/// A validated, lower-cased fully-qualified domain name.
///
/// The name is an interned [`Label`], so a domain is 4 bytes and `Copy`:
/// the tap records the same few dozen hosts in every packet. `Debug` prints
/// `Domain { name: "…" }` as the string field did, and `Ord` is the name's
/// text order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Domain {
    name: Label,
}

impl Domain {
    /// Parse and validate a domain name. Lower-cases the input and rejects
    /// empty/invalid labels, overlong names, and bare public suffixes. Only
    /// a valid name is interned, and a name that is already lower-case is
    /// validated without allocating.
    pub fn parse(s: &str) -> Result<Domain, DomainError> {
        let trimmed = s.trim().trim_end_matches('.');
        let lowered;
        let name = if trimmed.bytes().any(|b| b.is_ascii_uppercase()) {
            lowered = trimmed.to_ascii_lowercase();
            lowered.as_str()
        } else {
            trimmed
        };
        if name.is_empty() {
            return Err(DomainError::Empty);
        }
        if name.len() > 253 {
            return Err(DomainError::TooLong);
        }
        for label in name.split('.') {
            if label.is_empty()
                || label.len() > 63
                || label.starts_with('-')
                || label.ends_with('-')
                || !label.chars().all(|c| c.is_ascii_alphanumeric() || c == '-')
            {
                return Err(DomainError::BadLabel(label.to_string()));
            }
        }
        if registrable_of(name).is_none() {
            return Err(DomainError::OnlySuffix);
        }
        Ok(Domain {
            name: Label::intern(name),
        })
    }

    /// The deterministic sentinel for internal names that fail validation.
    ///
    /// Simulation-minted endpoint names are valid by construction; if one
    /// ever is not (a typo in a pinned table), callers degrade by grouping
    /// that traffic under this sentinel instead of panicking mid-run. The
    /// name is never minted by the generators, so sentinel rows are
    /// unmistakable in any analysis output.
    pub fn invalid_sentinel() -> Domain {
        Domain {
            name: Label::intern("invalid.example.com"),
        }
    }

    /// The full name, always lower-case, no trailing dot.
    pub fn as_str(&self) -> &'static str {
        self.name.as_str()
    }

    /// The interned name.
    pub fn name(&self) -> Label {
        self.name
    }

    /// Labels from leftmost (most specific) to rightmost (TLD).
    pub fn labels(&self) -> impl Iterator<Item = &'static str> {
        self.as_str().split('.')
    }

    /// The registrable domain (eTLD+1), e.g. `device-metrics-us-2.amazon.com`
    /// → `amazon.com`. `None` when the name *is* a public suffix.
    pub fn registrable(&self) -> Option<Domain> {
        Some(Domain {
            name: Label::intern(self.registrable_name()?),
        })
    }

    /// The registrable domain's text, a suffix of this name, without
    /// interning it.
    pub(crate) fn registrable_name(&self) -> Option<&'static str> {
        registrable_of(self.as_str())
    }

    /// Number of labels.
    pub fn depth(&self) -> usize {
        self.labels().count()
    }
}

/// The longest public suffix `name` ends in at a label boundary (so
/// `co.uk` beats `uk`, and `xcom` does not end in `com`).
fn suffix_of(name: &str) -> Option<&'static str> {
    PUBLIC_SUFFIXES
        .iter()
        .copied()
        .filter(|&suffix| {
            name.strip_suffix(suffix)
                .is_some_and(|rest| rest.is_empty() || rest.ends_with('.'))
        })
        .max_by_key(|suffix| suffix.len())
}

/// The registrable part (eTLD+1) of a validated name, a suffix of it.
/// `None` when the name is a bare public suffix or the list knows none.
fn registrable_of(name: &str) -> Option<&str> {
    let suffix = suffix_of(name)?;
    let prefix = name.strip_suffix(suffix)?.strip_suffix('.')?;
    let owner = prefix.rsplit('.').next()?;
    name.get(prefix.len() - owner.len()..)
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Domain {
    type Err = DomainError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Domain::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_lowercases() {
        let d = Domain::parse("Device-Metrics-US-2.Amazon.COM.").unwrap();
        assert_eq!(d.as_str(), "device-metrics-us-2.amazon.com");
    }

    #[test]
    fn rejects_bad_names() {
        assert_eq!(Domain::parse(""), Err(DomainError::Empty));
        assert!(matches!(
            Domain::parse("a..b.com"),
            Err(DomainError::BadLabel(_))
        ));
        assert!(matches!(
            Domain::parse("-bad.com"),
            Err(DomainError::BadLabel(_))
        ));
        assert!(matches!(
            Domain::parse("bad-.com"),
            Err(DomainError::BadLabel(_))
        ));
        assert!(matches!(
            Domain::parse("sp ace.com"),
            Err(DomainError::BadLabel(_))
        ));
        assert_eq!(Domain::parse("com"), Err(DomainError::OnlySuffix));
        assert_eq!(Domain::parse("co.uk"), Err(DomainError::OnlySuffix));
        assert_eq!(Domain::parse("xcom"), Err(DomainError::OnlySuffix));
    }

    #[test]
    fn rejects_overlong() {
        let long = format!("{}.com", "a".repeat(260));
        assert_eq!(Domain::parse(&long), Err(DomainError::TooLong));
        let long_label = format!("{}.com", "a".repeat(64));
        assert!(matches!(
            Domain::parse(&long_label),
            Err(DomainError::BadLabel(_))
        ));
    }

    #[test]
    fn registrable_extraction() {
        let cases = [
            ("device-metrics-us-2.amazon.com", "amazon.com"),
            ("amazon.com", "amazon.com"),
            ("ingestion.us-east-1.prod.arteries.alexa.a2z.com", "a2z.com"),
            ("play.podtrac.com", "podtrac.com"),
            ("pod.npr.org", "npr.org"),
            ("cdn2.voiceapps.com", "voiceapps.com"),
            ("bbc.co.uk", "bbc.co.uk"),
            ("news.bbc.co.uk", "bbc.co.uk"),
            ("traffic.omny.fm", "omny.fm"),
            ("a.b.example.com.au", "example.com.au"),
        ];
        for (input, want) in cases {
            assert_eq!(
                Domain::parse(input)
                    .unwrap()
                    .registrable()
                    .unwrap()
                    .as_str(),
                want
            );
        }
    }

    #[test]
    fn subdomain_relation() {
        let parent = Domain::parse("amazon.com").unwrap();
        let child = Domain::parse("api.amazon.com").unwrap();
        let other = Domain::parse("notamazon.com").unwrap();
        // A subdomain, and the domain itself, share its registrable domain.
        assert_eq!(child.registrable().as_ref(), Some(&parent));
        assert_eq!(parent.registrable().as_ref(), Some(&parent));
        assert_ne!(other.registrable().as_ref(), Some(&parent));
        // Suffix-string trap: "xamazon.com" is NOT a subdomain of "amazon.com".
        let trap = Domain::parse("xamazon.com").unwrap();
        assert_ne!(trap.registrable().as_ref(), Some(&parent));
    }

    #[test]
    fn labels_and_depth() {
        let d = Domain::parse("a.b.example.com").unwrap();
        assert_eq!(
            d.labels().collect::<Vec<_>>(),
            vec!["a", "b", "example", "com"]
        );
        assert_eq!(d.depth(), 4);
    }

    #[test]
    fn invalid_sentinel_is_itself_a_valid_domain() {
        let s = Domain::invalid_sentinel();
        assert_eq!(Domain::parse(s.as_str()), Ok(s));
        assert_eq!(s.registrable().unwrap().as_str(), "example.com");
    }

    #[test]
    fn lower_case_parse_allocates_at_most_once() {
        for name in ["api.amazon.com", "news.bbc.co.uk", "a.b.c.example.org"] {
            Domain::parse(name).unwrap();
            let before = alexa_obs::alloc::snapshot();
            let d = Domain::parse(name).unwrap();
            let allocs = alexa_obs::alloc::snapshot().count - before.count;
            assert!(allocs <= 1, "{name}: {allocs} allocations");
            assert_eq!(d.as_str(), name);
        }
    }

    #[test]
    fn debug_prints_the_name_as_a_string_field() {
        let d = Domain::parse("Device-Metrics-US-2.Amazon.COM").unwrap();
        assert_eq!(
            format!("{d:?}"),
            "Domain { name: \"device-metrics-us-2.amazon.com\" }"
        );
    }

    #[test]
    fn sets_of_domains_iterate_in_text_order() {
        // Interned in reverse text order: ids disagree with text order.
        let names = [
            "zz.order-test.com",
            "mm.order-test.com",
            "aa.order-test.com",
        ];
        let domains: Vec<Domain> = names.iter().map(|n| Domain::parse(n).unwrap()).collect();
        assert!(domains[0].name().id() < domains[2].name().id());
        let set: std::collections::BTreeSet<Domain> = domains.into_iter().collect();
        let texts: Vec<&str> = set.iter().map(Domain::as_str).collect();
        assert_eq!(
            texts,
            [
                "aa.order-test.com",
                "mm.order-test.com",
                "zz.order-test.com"
            ]
        );
    }

    #[test]
    fn display_roundtrip() {
        let d: Domain = "megaphone.fm".parse().unwrap();
        assert_eq!(d.to_string(), "megaphone.fm");
    }
}
