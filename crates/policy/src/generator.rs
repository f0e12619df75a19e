//! Renders English policy text from a skill's planted
//! [`PolicySpec`](alexa_platform::PolicySpec).
//!
//! The real study downloads policies from the marketplace; our substitute
//! renders realistic text whose disclosure content is controlled by the
//! spec. Crucially, the analyzer never sees the spec — only this text — and
//! the generator injects **off-lexicon quirks** for a deterministic ~10% of
//! disclosures (unusual phrasings the analyzer's term lists do not cover),
//! so the PoliCheck validation (§7.2.3) measures genuine NLP slippage
//! rather than a tautology.

use crate::document::PolicyDoc;
use crate::ontology::{DataOntology, EntityOntology};
use alexa_fault::Fnv1a;
use alexa_net::DataType;
use alexa_platform::{DisclosureLevel, Skill};

/// Policy-text generator.
#[derive(Debug, Default)]
pub struct PolicyGenerator {
    entities: EntityOntology,
    data: DataOntology,
}

/// The per-(skill, practice) draw: FNV-1a of the key text, streamed into
/// the hasher without building a `String`.
fn draw(key: std::fmt::Arguments) -> u64 {
    let mut h = Fnv1a::new();
    // Fnv1a's fmt::Write never fails.
    let _ = std::fmt::Write::write_fmt(&mut h, key);
    h.finish()
}

/// The entry of `options` that the draw `key` selects; `None` when there
/// are no options.
fn pick<'a>(options: &[&'a str], key: u64) -> Option<&'a str> {
    let i = key.checked_rem(options.len() as u64)?;
    options.get(i as usize).copied()
}

impl PolicyGenerator {
    /// Create a generator with the built-in ontologies.
    pub fn new() -> PolicyGenerator {
        PolicyGenerator::default()
    }

    /// Render the policy document for a skill, or `None` when the skill has
    /// no retrievable policy (no link, or a dead link).
    pub fn render(&self, skill: &Skill) -> Option<PolicyDoc> {
        if !skill.policy.has_document() {
            return None;
        }
        let mut text = String::new();
        let mut push = |s: &str| {
            text.push_str(s);
            text.push(' ');
        };

        push(&format!("{} Privacy Policy.", skill.vendor));
        push("We respect your privacy and are committed to protecting it.");
        push("This policy describes how we handle information when you use our products.");
        // A negated sentence — a correct analyzer must not read this as a
        // disclosure of selling/sharing.
        push("We do not sell your personal information to anyone.");

        if skill.policy.mentions_platform {
            push("This skill works with Amazon Alexa.");
        }
        if skill.policy.links_platform_policy {
            push("For details on the platform's data practices, see the Amazon privacy notice at www.amazon.com/privacy.");
        }

        for (&dt, &level) in &skill.policy.data_disclosures {
            let key = draw(format_args!("{}|data|{dt:?}", skill.id.0));
            match level {
                DisclosureLevel::Clear => {
                    if key.is_multiple_of(13) {
                        // Off-lexicon quirk: clearly about the data type, but
                        // phrased outside the analyzer's term list.
                        push(&quirky_clear_sentence(dt));
                    } else if let Some(term) = pick(self.data.clear_terms(dt), key) {
                        push(&format!("We collect your {term} when you use the skill."));
                    }
                }
                DisclosureLevel::Vague => {
                    if key.is_multiple_of(10) {
                        push("We may gather certain information to improve our services.");
                    } else if let Some(term) = pick(self.data.vague_terms(dt), key) {
                        push(&format!("We may collect {term} to improve our services."));
                    }
                }
                DisclosureLevel::Denied => {
                    // An outright lie: the flow exists in the traffic.
                    if let Some(term) = pick(self.data.clear_terms(dt), key) {
                        push(&format!("We never collect your {term}."));
                    }
                }
                DisclosureLevel::Omitted => {}
            }
        }

        for (org, &level) in &skill.policy.endpoint_disclosures {
            let key = draw(format_args!("{}|ep|{org}", skill.id.0));
            match level {
                DisclosureLevel::Clear => {
                    push(&format!(
                        "Information from your interactions is received and processed by {org}."
                    ));
                }
                DisclosureLevel::Vague => {
                    if key.is_multiple_of(10) {
                        // Off-lexicon quirk: "trusted partners" is not in the
                        // analyzer's vague-phrase lists.
                        push("We may also share information with our trusted partners.");
                    } else if let Some(phrase) = pick(&self.entities.vague_phrases_for(org), key) {
                        push(&format!(
                            "We may share your personal information with {phrase}."
                        ));
                    }
                }
                DisclosureLevel::Denied => {
                    push(&format!("We never share information with {org}."));
                }
                DisclosureLevel::Omitted => {}
            }
        }

        push("We retain information only as long as necessary.");
        push(&format!(
            "Contact us at privacy@{}.example.com with any questions.",
            skill
                .vendor
                .to_ascii_lowercase()
                .replace([' ', ',', '.', '\''], "")
        ));
        push("We may update this policy from time to time.");

        Some(PolicyDoc::new(
            skill.id.0.clone(),
            text.trim_end().to_string(),
        ))
    }

    /// Amazon's own privacy notice, with the disclosure terms the paper's
    /// Table 13 lists in its "Amazon" column.
    pub fn amazon_policy(&self) -> PolicyDoc {
        let text = "Amazon Privacy Notice. \
            We collect your voice recordings when you speak to Alexa. \
            We receive and process the requests you make to our services. \
            We collect a unique identifier and cookie to provide our services. \
            We receive your time zone setting and settings preferences. \
            We receive your device settings, including regional and language settings. \
            We collect usage data about how you interact with our services. \
            We collect device metrics and Amazon Services metrics to improve reliability. \
            We use information to personalize your experience.";
        PolicyDoc::new("amazon", text)
    }
}

/// A clearly-intended but off-lexicon disclosure sentence per data type.
fn quirky_clear_sentence(dt: DataType) -> String {
    match dt {
        DataType::VoiceRecording => "We store what you say to the device.".to_string(),
        DataType::TextCommand => "We keep the text of your requests.".to_string(),
        DataType::CustomerId => "An account number is attached to your requests.".to_string(),
        DataType::SkillId => "Each request is tagged with the application number.".to_string(),
        DataType::Language => "We note which locale you use.".to_string(),
        DataType::Timezone => "We note where your clock is set.".to_string(),
        DataType::Preference => "Your choices in the app are remembered.".to_string(),
        DataType::AudioPlayerEvent => "We see when you press play.".to_string(),
        DataType::DeviceMetric => "We watch how the device performs.".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexa_platform::{PolicySpec, SkillCategory, SkillId};
    use std::collections::BTreeMap;

    fn skill_with_policy(spec: PolicySpec) -> Skill {
        Skill {
            id: SkillId("gen-test".into()),
            name: "Gen Test".into(),
            vendor: "Test Vendor".into(),
            category: SkillCategory::Dating,
            invocation: "gen test".into(),
            sample_utterances: vec![],
            reviews: 1,
            streaming: false,
            fails_to_load: false,
            requires_account_linking: false,
            permissions: vec![],
            backends: vec![],
            collects: vec![],
            policy: spec,
        }
    }

    fn doc_spec() -> PolicySpec {
        PolicySpec {
            has_link: true,
            retrievable: true,
            ..PolicySpec::none()
        }
    }

    #[test]
    fn no_document_renders_none() {
        let g = PolicyGenerator::new();
        assert!(g.render(&skill_with_policy(PolicySpec::none())).is_none());
        let broken = PolicySpec {
            has_link: true,
            retrievable: false,
            ..PolicySpec::none()
        };
        assert!(g.render(&skill_with_policy(broken)).is_none());
    }

    #[test]
    fn generic_policy_never_mentions_platform() {
        let g = PolicyGenerator::new();
        let doc = g.render(&skill_with_policy(doc_spec())).unwrap();
        assert!(!doc.mentions_platform());
    }

    #[test]
    fn platform_mention_and_link_render() {
        let g = PolicyGenerator::new();
        let mut spec = doc_spec();
        spec.mentions_platform = true;
        spec.links_platform_policy = true;
        let doc = g.render(&skill_with_policy(spec)).unwrap();
        assert!(doc.mentions_platform());
        assert!(doc.links_platform_policy());
    }

    #[test]
    fn clear_data_disclosure_contains_a_clear_term() {
        let g = PolicyGenerator::new();
        let mut spec = doc_spec();
        spec.data_disclosures
            .insert(DataType::VoiceRecording, DisclosureLevel::Clear);
        let doc = g.render(&skill_with_policy(spec)).unwrap();
        let lower = doc.text.to_ascii_lowercase();
        let ont = DataOntology::new();
        let hit = ont
            .clear_terms(DataType::VoiceRecording)
            .iter()
            .any(|t| lower.contains(t))
            || lower.contains("we store what you say");
        assert!(hit, "no clear voice term in: {}", doc.text);
    }

    #[test]
    fn omitted_disclosures_render_nothing() {
        let g = PolicyGenerator::new();
        let mut spec = doc_spec();
        spec.data_disclosures
            .insert(DataType::CustomerId, DisclosureLevel::Omitted);
        let mut eps = BTreeMap::new();
        eps.insert("Podtrac Inc".to_string(), DisclosureLevel::Omitted);
        spec.endpoint_disclosures = eps;
        let doc = g.render(&skill_with_policy(spec)).unwrap();
        let lower = doc.text.to_ascii_lowercase();
        assert!(!lower.contains("unique identifier"));
        assert!(!lower.contains("podtrac"));
    }

    #[test]
    fn clear_endpoint_disclosure_names_org() {
        let g = PolicyGenerator::new();
        let mut spec = doc_spec();
        spec.endpoint_disclosures.insert(
            "Amazon Technologies, Inc.".to_string(),
            DisclosureLevel::Clear,
        );
        let doc = g.render(&skill_with_policy(spec)).unwrap();
        assert!(doc.text.contains("Amazon Technologies, Inc."));
    }

    #[test]
    fn rendering_is_deterministic() {
        let g = PolicyGenerator::new();
        let mut spec = doc_spec();
        spec.data_disclosures
            .insert(DataType::Preference, DisclosureLevel::Vague);
        let a = g.render(&skill_with_policy(spec.clone())).unwrap();
        let b = g.render(&skill_with_policy(spec)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn amazon_policy_discloses_table13_terms() {
        let g = PolicyGenerator::new();
        let doc = g.amazon_policy();
        let lower = doc.text.to_ascii_lowercase();
        for term in [
            "voice recordings",
            "unique identifier",
            "time zone setting",
            "device metrics",
        ] {
            assert!(lower.contains(term), "missing {term}");
        }
    }

    #[test]
    fn every_policy_contains_the_negation_trap() {
        let g = PolicyGenerator::new();
        let doc = g.render(&skill_with_policy(doc_spec())).unwrap();
        assert!(doc
            .text
            .contains("We do not sell your personal information"));
    }
}
