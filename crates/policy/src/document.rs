//! Policy documents: text plus sentence access.

/// A downloaded privacy-policy document for one skill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyDoc {
    /// Skill the policy belongs to (marketplace id), or `"amazon"` for the
    /// platform's own policy.
    pub skill_id: String,
    /// Full policy text.
    pub text: String,
}

impl PolicyDoc {
    /// Create a document.
    pub fn new(skill_id: impl Into<String>, text: impl Into<String>) -> PolicyDoc {
        PolicyDoc {
            skill_id: skill_id.into(),
            text: text.into(),
        }
    }

    /// Split the text into trimmed, non-empty sentences.
    pub fn sentences(&self) -> impl Iterator<Item = &str> {
        sentences(&self.text)
    }

    /// Whether the text mentions the platform (Amazon or Alexa) at all —
    /// the §7.1 statistic (129 of 188 policies do not).
    pub fn mentions_platform(&self) -> bool {
        mentions_platform(&self.text.to_ascii_lowercase())
    }

    /// Whether the text links to Amazon's own privacy policy.
    pub fn links_platform_policy(&self) -> bool {
        links_platform_policy(&self.text.to_ascii_lowercase())
    }
}

/// Split `text` at `.`, `!` and `?` into trimmed, non-empty sentences.
pub(crate) fn sentences(text: &str) -> impl Iterator<Item = &str> {
    text.split(['.', '!', '?'])
        .map(str::trim)
        .filter(|s| !s.is_empty())
}

/// [`PolicyDoc::mentions_platform`] of already lower-cased text.
pub(crate) fn mentions_platform(lower: &str) -> bool {
    lower.contains("amazon") || lower.contains("alexa")
}

/// [`PolicyDoc::links_platform_policy`] of already lower-cased text.
pub(crate) fn links_platform_policy(lower: &str) -> bool {
    lower.contains("amazon.com/privacy")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentences_split_and_trim() {
        let d = PolicyDoc::new("s", "We respect privacy. We collect data!  Really? ");
        let sents: Vec<&str> = d.sentences().collect();
        assert_eq!(
            sents,
            vec!["We respect privacy", "We collect data", "Really"]
        );
    }

    #[test]
    fn platform_mention_detection() {
        assert!(PolicyDoc::new("s", "This skill works with Amazon Alexa.").mentions_platform());
        assert!(PolicyDoc::new("s", "alexa is used").mentions_platform());
        assert!(!PolicyDoc::new("s", "We collect data.").mentions_platform());
    }

    #[test]
    fn platform_policy_link_detection() {
        assert!(
            PolicyDoc::new("s", "See www.amazon.com/privacy for details.").links_platform_policy()
        );
        assert!(!PolicyDoc::new("s", "See Amazon for details.").links_platform_policy());
    }

    #[test]
    fn empty_text_has_no_sentences() {
        assert_eq!(PolicyDoc::new("s", "").sentences().count(), 0);
    }
}
