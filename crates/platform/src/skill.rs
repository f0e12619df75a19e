//! The skill model: behaviour and policy ground truth for one skill.
//!
//! A [`Skill`] bundles everything the simulation knows about a marketplace
//! skill: its vendor, invocation phrases, backend endpoints, collected data
//! types, and a [`PolicySpec`] describing its privacy policy's ground-truth
//! disclosure quality. The policy *text* is rendered from the spec by
//! `alexa-policy`; the PoliCheck reimplementation then analyzes only the
//! text, so the spec doubles as the validation label set.

use crate::category::SkillCategory;
use alexa_net::{DataType, Domain};
use std::collections::BTreeMap;

/// Unique skill identifier on the marketplace.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SkillId(pub String);

impl std::fmt::Display for SkillId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Permissions a skill may request at install time (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Permission {
    /// Access to the account email address.
    Email,
    /// Access to the account phone number.
    Phone,
    /// Access to the device location.
    Location,
}

/// Ground-truth disclosure quality of one fact in a privacy policy.
///
/// Matches the classification PoliCheck produces, so planted ground truth
/// and recovered classification share a vocabulary. `NoPolicy` is represented
/// structurally (a skill without a retrievable policy), not as a level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DisclosureLevel {
    /// The policy names the data type / organization exactly.
    Clear,
    /// The policy uses a category term or "third party".
    Vague,
    /// The policy explicitly **denies** the flow ("we never collect …")
    /// even though the traffic shows it — PoliCheck's *incorrect*
    /// disclosure class.
    Denied,
    /// The policy does not mention the flow at all.
    Omitted,
}

impl std::fmt::Display for DisclosureLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DisclosureLevel::Clear => "clear",
            DisclosureLevel::Vague => "vague",
            DisclosureLevel::Denied => "denied",
            DisclosureLevel::Omitted => "omitted",
        };
        f.write_str(s)
    }
}

/// Ground truth describing a skill's privacy policy.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PolicySpec {
    /// Whether the marketplace page links a privacy policy at all
    /// (214 of 450 skills in the paper).
    pub has_link: bool,
    /// Whether the linked policy can actually be downloaded
    /// (188 of the 214 in the paper).
    pub retrievable: bool,
    /// Whether the text mentions Amazon or Alexa at all (59 of 188).
    pub mentions_platform: bool,
    /// Whether the text links to Amazon's own privacy policy (10 of 59).
    pub links_platform_policy: bool,
    /// Disclosure quality for each collected data type.
    pub data_disclosures: BTreeMap<DataType, DisclosureLevel>,
    /// Disclosure quality for each contacted endpoint organization.
    pub endpoint_disclosures: BTreeMap<String, DisclosureLevel>,
}

impl PolicySpec {
    /// A skill with no policy link at all.
    pub fn none() -> PolicySpec {
        PolicySpec::default()
    }

    /// Whether a policy document exists to analyze.
    pub fn has_document(&self) -> bool {
        self.has_link && self.retrievable
    }
}

/// One skill in the marketplace, with planted behavioural ground truth.
#[derive(Debug, Clone)]
pub struct Skill {
    /// Marketplace identifier.
    pub id: SkillId,
    /// Display name.
    pub name: String,
    /// Vendor organization name (matched against `alexa-net`'s OrgMap).
    pub vendor: String,
    /// Marketplace category.
    pub category: SkillCategory,
    /// Invocation name, e.g. "garmin" in "Alexa, open Garmin".
    pub invocation: String,
    /// Sample utterances from the skill description (§3.1.1).
    pub sample_utterances: Vec<String>,
    /// Review count — the paper ranks top-50 by reviews.
    pub reviews: u32,
    /// Whether this is an audio-streaming skill (music/radio/podcast).
    /// Amazon's advertising policy only allows audio ads on streaming skills.
    pub streaming: bool,
    /// Whether the skill fails to load (4 of 450 in the paper).
    pub fails_to_load: bool,
    /// Whether the skill requires account linking (skipped by the paper).
    pub requires_account_linking: bool,
    /// Permissions requested at install time.
    pub permissions: Vec<Permission>,
    /// Non-Amazon endpoints the skill causes the device to contact.
    /// (All skills additionally talk to Amazon, which mediates everything.)
    pub backends: Vec<Domain>,
    /// Data types the skill's interactions send off-device.
    pub collects: Vec<DataType>,
    /// Privacy-policy ground truth.
    pub policy: PolicySpec,
}

impl Skill {
    /// Whether the skill collects a given data type.
    pub fn collects_type(&self, dt: DataType) -> bool {
        self.collects.contains(&dt)
    }

    /// Whether any backend is a non-Amazon endpoint.
    pub fn has_non_amazon_backend(&self) -> bool {
        !self.backends.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_skill() -> Skill {
        Skill {
            id: SkillId("skill-test".into()),
            name: "Test Skill".into(),
            vendor: "Test Vendor".into(),
            category: SkillCategory::SmartHome,
            invocation: "test skill".into(),
            sample_utterances: vec!["turn on the lights".into()],
            reviews: 42,
            streaming: false,
            fails_to_load: false,
            requires_account_linking: false,
            permissions: vec![Permission::Email],
            backends: vec![],
            collects: vec![DataType::VoiceRecording, DataType::SkillId],
            policy: PolicySpec::none(),
        }
    }

    #[test]
    fn collects_type_checks_membership() {
        let s = sample_skill();
        assert!(s.collects_type(DataType::SkillId));
        assert!(!s.collects_type(DataType::AudioPlayerEvent));
    }

    #[test]
    fn policy_document_requires_link_and_retrievability() {
        let mut p = PolicySpec::none();
        assert!(!p.has_document());
        p.has_link = true;
        assert!(!p.has_document());
        p.retrievable = true;
        assert!(p.has_document());
    }

    #[test]
    fn non_amazon_backend_detection() {
        let mut s = sample_skill();
        assert!(!s.has_non_amazon_backend());
        s.backends.push(Domain::parse("play.podtrac.com").unwrap());
        assert!(s.has_non_amazon_backend());
    }

    #[test]
    fn disclosure_levels_are_ordered() {
        assert!(DisclosureLevel::Clear < DisclosureLevel::Vague);
        assert!(DisclosureLevel::Vague < DisclosureLevel::Omitted);
    }
}
