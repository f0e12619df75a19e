//! The PoliCheck reimplementation: disclosure classification.
//!
//! Given a policy document and an observed flow, classify the disclosure as
//! **clear** (the policy names the exact data type / organization),
//! **vague** (a category term or "third party" subsumes it through the
//! ontologies), **omitted** (no statement covers it), or **no policy**.
//! Negated sentences ("we do *not* sell…") are never read as disclosures.
//!
//! Classification reads a [`CompiledPolicy`]: the document split into
//! sentences and lower-cased once, so checking many flows against one policy
//! never re-reads its text.
//!
//! §7.2.2's platform-policy experiment is supported: a skill's class
//! min-merged with [`PoliCheck::platform_data_type`] is its class with
//! Amazon's own privacy notice consulted as well — the paper finds this
//! turns every data-type flow into a clear or vague disclosure.

use crate::document::{self, PolicyDoc};
use crate::generator::PolicyGenerator;
use crate::ontology::{DataOntology, EntityOntology};
use alexa_net::DataType;

/// PoliCheck's disclosure classification (§7.2.1).
///
/// `Incorrect` is the original PoliCheck's contradiction class: the policy
/// *denies* a flow that the traffic demonstrates. The paper's endpoint
/// analysis drops it (contradictions need data types); the full-tuple
/// analysis here supports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DisclosureClass {
    /// The flow is disclosed with the exact organization name / data term.
    Clear,
    /// The flow is disclosed with a category term or "third party".
    Vague,
    /// The policy denies the flow that the traffic shows.
    Incorrect,
    /// No statement covers the flow.
    Omitted,
    /// The skill provides no (retrievable) policy.
    NoPolicy,
}

impl std::fmt::Display for DisclosureClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DisclosureClass::Clear => "clear",
            DisclosureClass::Vague => "vague",
            DisclosureClass::Incorrect => "incorrect",
            DisclosureClass::Omitted => "omitted",
            DisclosureClass::NoPolicy => "no policy",
        };
        f.write_str(s)
    }
}

/// Negation cues: a sentence containing one is not a disclosure.
const NEGATIONS: &[&str] = &["do not", "does not", "don't", "never", "will not", "won't"];

/// Data-practice verbs: a sentence only discloses a flow to an entity if it
/// states a practice, not if it merely mentions the entity ("this skill
/// works with Amazon Alexa" is not a collection disclosure).
const PRACTICE_VERBS: &[&str] = &[
    "collect", "share", "send", "sent", "receive", "process", "disclose", "transmit", "store",
];

fn states_practice(sentence: &str) -> bool {
    PRACTICE_VERBS.iter().any(|v| sentence.contains(v))
}

/// A policy document compiled for classification: its sentences lower-cased
/// once, sorted into statements and denials, and checked once for a stated
/// data practice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPolicy {
    /// Non-negated sentences, lower-cased, each with whether it states a
    /// data practice.
    statements: Vec<(String, bool)>,
    /// Negated sentences that state a data practice, lower-cased — the
    /// candidates for `Incorrect` classifications.
    denials: Vec<String>,
    /// [`PolicyDoc::mentions_platform`] of the source text.
    pub mentions_platform: bool,
    /// [`PolicyDoc::links_platform_policy`] of the source text.
    pub links_platform_policy: bool,
}

impl CompiledPolicy {
    /// Compile a document: one lower-cased copy of its text, split into
    /// sentences.
    pub fn compile(doc: &PolicyDoc) -> CompiledPolicy {
        let lower = doc.text.to_ascii_lowercase();
        let mut statements = Vec::new();
        let mut denials = Vec::new();
        for sentence in document::sentences(&lower) {
            let practice = states_practice(sentence);
            if !NEGATIONS.iter().any(|n| sentence.contains(n)) {
                statements.push((sentence.to_string(), practice));
            } else if practice {
                denials.push(sentence.to_string());
            }
        }
        CompiledPolicy {
            statements,
            denials,
            mentions_platform: document::mentions_platform(&lower),
            links_platform_policy: document::links_platform_policy(&lower),
        }
    }

    /// Every statement, lower-cased.
    fn statements(&self) -> impl Iterator<Item = &str> {
        self.statements.iter().map(|(s, _)| s.as_str())
    }

    /// The statements that state a data practice: only these disclose a
    /// flow to an entity.
    fn practices(&self) -> impl Iterator<Item = &str> {
        self.statements
            .iter()
            .filter(|(_, practice)| *practice)
            .map(|(s, _)| s.as_str())
    }
}

/// The adapted PoliCheck analyzer.
///
/// ```
/// use alexa_policy::{CompiledPolicy, DisclosureClass, PoliCheck, PolicyDoc};
/// let pc = PoliCheck::new();
/// let doc = PolicyDoc::new("demo", "We may share data with third parties.");
/// let policy = CompiledPolicy::compile(&doc);
/// assert_eq!(pc.classify_endpoint(Some(&policy), "Podtrac Inc"), DisclosureClass::Vague);
/// assert_eq!(pc.classify_endpoint(None, "Podtrac Inc"), DisclosureClass::NoPolicy);
/// ```
#[derive(Debug)]
pub struct PoliCheck {
    entities: EntityOntology,
    data: DataOntology,
    /// How Amazon's own privacy notice discloses each data type (§7.2.2),
    /// indexed by `DataType as usize`.
    platform: [DisclosureClass; DataType::ALL.len()],
}

impl Default for PoliCheck {
    fn default() -> PoliCheck {
        PoliCheck::new()
    }
}

impl PoliCheck {
    /// Analyzer with the built-in ontologies and Amazon's policy.
    pub fn new() -> PoliCheck {
        let mut pc = PoliCheck {
            entities: EntityOntology::new(),
            data: DataOntology::new(),
            platform: [DisclosureClass::NoPolicy; DataType::ALL.len()],
        };
        let amazon = CompiledPolicy::compile(&PolicyGenerator::new().amazon_policy());
        pc.platform = DataType::ALL.map(|dt| pc.classify_data_type(Some(&amazon), dt));
        pc
    }

    /// The entity ontology (Table 14's organization categories).
    pub fn entities(&self) -> &EntityOntology {
        &self.entities
    }

    /// Classify the disclosure of a contacted endpoint organization in a
    /// skill's policy (`None`: the skill has no retrievable policy).
    pub fn classify_endpoint(&self, policy: Option<&CompiledPolicy>, org: &str) -> DisclosureClass {
        let Some(policy) = policy else {
            return DisclosureClass::NoPolicy;
        };
        let org_lower = org.to_ascii_lowercase();
        if policy.practices().any(|s| s.contains(&org_lower)) {
            return DisclosureClass::Clear;
        }
        // Amazon is also clearly disclosed by its informal names — but only
        // in sentences stating a data practice ("works with Amazon Alexa"
        // does not disclose collection).
        if org == alexa_net::AMAZON
            && policy
                .practices()
                .any(|s| s.contains("amazon") || s.contains("alexa"))
        {
            return DisclosureClass::Clear;
        }
        let phrases = self.entities.vague_phrases_for(org);
        if policy
            .practices()
            .any(|s| phrases.iter().any(|p| s.contains(p)))
        {
            return DisclosureClass::Vague;
        }
        DisclosureClass::Omitted
    }

    /// Classify the disclosure of a collected data type in a skill's policy
    /// (`None`: the skill has no retrievable policy).
    pub fn classify_data_type(
        &self,
        policy: Option<&CompiledPolicy>,
        dt: DataType,
    ) -> DisclosureClass {
        let Some(policy) = policy else {
            return DisclosureClass::NoPolicy;
        };
        let covers = |terms: &[&str]| {
            policy
                .statements()
                .any(|s| terms.iter().any(|t| s.contains(t)))
        };
        let clear = self.data.clear_terms(dt);
        if covers(clear) {
            return DisclosureClass::Clear;
        }
        if covers(self.data.vague_terms(dt)) {
            return DisclosureClass::Vague;
        }
        // No positive statement — does the policy outright deny a flow the
        // traffic demonstrates? (PoliCheck's "incorrect" class.)
        if policy
            .denials
            .iter()
            .any(|s| clear.iter().any(|t| s.contains(t)))
        {
            return DisclosureClass::Incorrect;
        }
        DisclosureClass::Omitted
    }

    /// How Amazon's own policy discloses a data type. §7.2.2 consults it in
    /// addition to the skill's: the skill's class `.min()` this one.
    #[expect(
        clippy::indexing_slicing,
        reason = "`platform` holds one entry per `DataType::ALL`, in declaration order"
    )]
    pub fn platform_data_type(&self, dt: DataType) -> DisclosureClass {
        self.platform[dt as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> CompiledPolicy {
        CompiledPolicy::compile(&PolicyDoc::new("t", text))
    }

    #[test]
    fn no_policy_classifies_no_policy() {
        let pc = PoliCheck::new();
        assert_eq!(
            pc.classify_endpoint(None, "Podtrac Inc"),
            DisclosureClass::NoPolicy
        );
        assert_eq!(
            pc.classify_data_type(None, DataType::VoiceRecording),
            DisclosureClass::NoPolicy
        );
    }

    #[test]
    fn exact_org_name_is_clear() {
        let pc = PoliCheck::new();
        let d = doc("We share information with Podtrac Inc.");
        assert_eq!(
            pc.classify_endpoint(Some(&d), "Podtrac Inc"),
            DisclosureClass::Clear
        );
    }

    #[test]
    fn sonos_style_amazon_disclosure_is_clear() {
        // The paper's example: Sonos states voice recordings are sent to the
        // voice partner "for example, Amazon" — a clear platform disclosure.
        let pc = PoliCheck::new();
        let d = doc("The actual recording of your voice command is then sent to the voice partner you have authorized, for example Amazon.");
        assert_eq!(
            pc.classify_endpoint(Some(&d), alexa_net::AMAZON),
            DisclosureClass::Clear
        );
    }

    #[test]
    fn category_term_is_vague() {
        let pc = PoliCheck::new();
        // Harmony's wording: analytics tool → vague for Amazon (analytic provider).
        let d = doc("Products may send pseudonymous information to an analytics tool.");
        assert_eq!(
            pc.classify_endpoint(Some(&d), alexa_net::AMAZON),
            DisclosureClass::Vague
        );
        // Charles Stanley Radio's wording for third parties.
        let d2 = doc("We may also share your personal information with external service providers who help us better serve you.");
        assert_eq!(
            pc.classify_endpoint(Some(&d2), "Voice Apps LLC"),
            DisclosureClass::Vague
        );
    }

    #[test]
    fn third_party_umbrella_is_vague_for_nonplatform_only() {
        let pc = PoliCheck::new();
        let d = doc("We may share data with third parties.");
        assert_eq!(
            pc.classify_endpoint(Some(&d), "Podtrac Inc"),
            DisclosureClass::Vague
        );
        assert_eq!(
            pc.classify_endpoint(Some(&d), alexa_net::AMAZON),
            DisclosureClass::Omitted
        );
    }

    #[test]
    fn silence_is_omitted() {
        let pc = PoliCheck::new();
        let d = doc("We respect your privacy.");
        assert_eq!(
            pc.classify_endpoint(Some(&d), "Podtrac Inc"),
            DisclosureClass::Omitted
        );
        assert_eq!(
            pc.classify_data_type(Some(&d), DataType::SkillId),
            DisclosureClass::Omitted
        );
    }

    #[test]
    fn negated_statements_do_not_disclose() {
        // Endpoint analysis drops the incorrect class (a contradiction
        // cannot be determined without data types, §7.2.1): a denial reads
        // as omitted.
        let pc = PoliCheck::new();
        let d = doc("We do not share your data with third parties.");
        assert_eq!(
            pc.classify_endpoint(Some(&d), "Podtrac Inc"),
            DisclosureClass::Omitted
        );
    }

    #[test]
    fn data_type_denials_are_incorrect() {
        // classify_data_type is only called for flows the traffic shows, so
        // an explicit denial is a contradiction — PoliCheck's "incorrect".
        let pc = PoliCheck::new();
        let d = doc("We never collect your voice recordings.");
        assert_eq!(
            pc.classify_data_type(Some(&d), DataType::VoiceRecording),
            DisclosureClass::Incorrect
        );
        // A denial of something else does not contaminate other types.
        assert_eq!(
            pc.classify_data_type(Some(&d), DataType::SkillId),
            DisclosureClass::Omitted
        );
        // The generic "we do not sell personal information" boilerplate
        // names no data type and stays omitted.
        let boiler = doc("We do not sell your personal information to anyone.");
        assert_eq!(
            pc.classify_data_type(Some(&boiler), DataType::VoiceRecording),
            DisclosureClass::Omitted
        );
    }

    #[test]
    fn data_type_clear_and_vague() {
        let pc = PoliCheck::new();
        let clear = doc("We collect your voice recordings to respond to requests.");
        assert_eq!(
            pc.classify_data_type(Some(&clear), DataType::VoiceRecording),
            DisclosureClass::Clear
        );
        let vague = doc("We may collect sensory information from the device.");
        assert_eq!(
            pc.classify_data_type(Some(&vague), DataType::VoiceRecording),
            DisclosureClass::Vague
        );
    }

    #[test]
    fn platform_policy_upgrades_data_disclosures() {
        // §7.2.2: with Amazon's policy consulted, every data flow becomes
        // clear or vague.
        let pc = PoliCheck::new();
        let silent = doc("We respect your privacy.");
        for dt in DataType::ALL {
            let cls = pc
                .classify_data_type(Some(&silent), dt)
                .min(pc.platform_data_type(dt));
            assert!(
                cls == DisclosureClass::Clear || cls == DisclosureClass::Vague,
                "{dt:?} classified {cls}"
            );
        }
    }

    #[test]
    fn class_ordering_supports_min_merge() {
        assert!(DisclosureClass::Clear < DisclosureClass::Vague);
        assert!(DisclosureClass::Vague < DisclosureClass::Incorrect);
        assert!(DisclosureClass::Incorrect < DisclosureClass::Omitted);
        assert!(DisclosureClass::Omitted < DisclosureClass::NoPolicy);
    }

    #[test]
    fn matching_is_case_insensitive() {
        let pc = PoliCheck::new();
        let d = doc("WE COLLECT YOUR VOICE RECORDINGS.");
        assert_eq!(
            pc.classify_data_type(Some(&d), DataType::VoiceRecording),
            DisclosureClass::Clear
        );
    }

    /// The classification read straight off a raw document, splitting and
    /// lower-casing its text on every call: the reference the compiled path
    /// must reproduce.
    mod raw {
        use super::super::{states_practice, NEGATIONS};
        use super::*;

        fn sentences(doc: &PolicyDoc, negated: bool) -> Vec<String> {
            doc.sentences()
                .map(|s| s.to_ascii_lowercase())
                .filter(|s| NEGATIONS.iter().any(|n| s.contains(n)) == negated)
                .collect()
        }

        fn endpoint_in(pc: &PoliCheck, doc: &PolicyDoc, org: &str) -> DisclosureClass {
            let statements = sentences(doc, false);
            let org_lower = org.to_ascii_lowercase();
            let practice = |pred: &dyn Fn(&str) -> bool| {
                statements.iter().any(|s| states_practice(s) && pred(s))
            };
            if practice(&|s| s.contains(&org_lower))
                || (org == alexa_net::AMAZON
                    && practice(&|s| s.contains("amazon") || s.contains("alexa")))
            {
                return DisclosureClass::Clear;
            }
            let phrases = pc.entities.vague_phrases_for(org);
            if practice(&|s| phrases.iter().any(|p| s.contains(p))) {
                return DisclosureClass::Vague;
            }
            DisclosureClass::Omitted
        }

        fn data_type_in(pc: &PoliCheck, doc: &PolicyDoc, dt: DataType) -> DisclosureClass {
            let statements = sentences(doc, false);
            let covers = |terms: &[&str]| {
                statements
                    .iter()
                    .any(|s| terms.iter().any(|t| s.contains(t)))
            };
            let clear = pc.data.clear_terms(dt);
            if covers(clear) {
                return DisclosureClass::Clear;
            }
            if covers(pc.data.vague_terms(dt)) {
                return DisclosureClass::Vague;
            }
            if sentences(doc, true)
                .iter()
                .any(|s| states_practice(s) && clear.iter().any(|t| s.contains(t)))
            {
                return DisclosureClass::Incorrect;
            }
            DisclosureClass::Omitted
        }

        /// Endpoint class of a raw document, optionally min-merged with
        /// Amazon's raw policy.
        pub(super) fn endpoint(
            pc: &PoliCheck,
            doc: Option<&PolicyDoc>,
            org: &str,
            platform: bool,
        ) -> DisclosureClass {
            let own = doc.map_or(DisclosureClass::NoPolicy, |d| endpoint_in(pc, d, org));
            if platform {
                own.min(endpoint_in(
                    pc,
                    &PolicyGenerator::new().amazon_policy(),
                    org,
                ))
            } else {
                own
            }
        }

        /// Data-type class of a raw document, optionally min-merged with
        /// Amazon's raw policy.
        pub(super) fn data_type(
            pc: &PoliCheck,
            doc: Option<&PolicyDoc>,
            dt: DataType,
            platform: bool,
        ) -> DisclosureClass {
            let own = doc.map_or(DisclosureClass::NoPolicy, |d| data_type_in(pc, d, dt));
            if platform {
                own.min(data_type_in(
                    pc,
                    &PolicyGenerator::new().amazon_policy(),
                    dt,
                ))
            } else {
                own
            }
        }
    }

    /// Every (document, data type) and (document, org) pair classifies the
    /// same compiled as raw, with and without the platform policy.
    fn assert_compiled_matches_raw(pc: &PoliCheck, doc: Option<&PolicyDoc>, orgs: &[&str]) {
        let amazon = CompiledPolicy::compile(&PolicyGenerator::new().amazon_policy());
        let compiled = doc.map(CompiledPolicy::compile);
        let compiled = compiled.as_ref();
        for dt in DataType::ALL {
            let own = pc.classify_data_type(compiled, dt);
            assert_eq!(own, raw::data_type(pc, doc, dt, false), "{dt:?} in {doc:?}");
            assert_eq!(
                own.min(pc.platform_data_type(dt)),
                raw::data_type(pc, doc, dt, true),
                "{dt:?} with platform in {doc:?}"
            );
        }
        for &org in orgs {
            let own = pc.classify_endpoint(compiled, org);
            assert_eq!(own, raw::endpoint(pc, doc, org, false), "{org} in {doc:?}");
            assert_eq!(
                own.min(pc.classify_endpoint(Some(&amazon), org)),
                raw::endpoint(pc, doc, org, true),
                "{org} with platform in {doc:?}"
            );
        }
    }

    #[test]
    fn compiled_classification_matches_raw_on_generated_marketplaces() {
        let pc = PoliCheck::new();
        let generator = PolicyGenerator::new();
        for seed in [7, 1234] {
            let market = alexa_platform::Marketplace::generate(seed);
            let mut orgs: std::collections::BTreeSet<&str> = market
                .all()
                .iter()
                .flat_map(|s| s.policy.endpoint_disclosures.keys().map(String::as_str))
                .collect();
            orgs.extend([alexa_net::AMAZON, "Podtrac Inc", "Unlisted Org LLC"]);
            let orgs: Vec<&str> = orgs.into_iter().collect();
            let docs: Vec<PolicyDoc> = market
                .all()
                .iter()
                .filter_map(|s| generator.render(s))
                .collect();
            assert!(docs.len() > 100, "seed {seed}: {} policies", docs.len());
            assert_compiled_matches_raw(&pc, None, &orgs);
            for doc in &docs {
                assert_compiled_matches_raw(&pc, Some(doc), &orgs);
            }
        }
    }

    /// Sentence fragments mixing disclosures, denials, category terms and
    /// entity names.
    const FRAGMENTS: &[&str] = &[
        "We collect your voice recordings",
        "We do not collect audio recordings",
        "we never share data with third-parties",
        "We may share data with Third Parties",
        "Podtrac Inc receives usage data",
        "We won't sell your device information",
        "This skill works with Amazon Alexa",
        "Requests are sent to Alexa",
        "We send cookie identifiers to an analytics tool",
        "Sensory information is processed by our ad network",
        "We don't store your time zone setting",
        "Our service providers process language preference",
        "We will not disclose the skill id",
        "It does not transmit playback events",
        "We never use voice recordings",
        "Podtrac Inc is our partner",
        "Amazon Alexa works with this skill",
        "We respect your privacy",
        "",
    ];

    /// Renders a fragment as written, upper-cased, lower-cased, or with
    /// alternating case.
    fn cased(fragment: &str, mode: u8) -> String {
        match mode {
            0 => fragment.to_string(),
            1 => fragment.to_ascii_uppercase(),
            2 => fragment.to_ascii_lowercase(),
            _ => fragment
                .chars()
                .enumerate()
                .map(|(i, c)| {
                    if i % 2 == 0 {
                        c.to_ascii_uppercase()
                    } else {
                        c.to_ascii_lowercase()
                    }
                })
                .collect(),
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn compiled_classification_matches_raw_on_sentence_mixes(
            parts in prop::collection::vec(
                (
                    prop::sample::select(FRAGMENTS.to_vec()),
                    0u8..4,
                    prop::sample::select(vec![". ", "! ", "? ", ".", "!?", "  "]),
                ),
                0..8,
            ),
        ) {
            let text: String = parts
                .iter()
                .map(|(fragment, mode, brk)| cased(fragment, *mode) + brk)
                .collect();
            let orgs = [
                alexa_net::AMAZON,
                "Podtrac Inc",
                "Voice Apps LLC",
                "Unlisted Org LLC",
            ];
            let doc = PolicyDoc::new("t", text);
            assert_compiled_matches_raw(&PoliCheck::new(), Some(&doc), &orgs);
        }
    }
}
