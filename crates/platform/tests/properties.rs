//! Property-based tests for the platform simulation.

use alexa_platform::{parse_invocation, parse_sample_utterances, render_store_page};
use alexa_platform::{Marketplace, SkillCategory};
use alexa_platform::{VoiceConfig, VoicePipeline};
use proptest::prelude::*;

proptest! {
    // Marketplace generation is expensive; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn catalog_invariants_hold_for_any_seed(seed in 0u64..1_000_000) {
        let m = Marketplace::generate(seed);
        prop_assert_eq!(m.all().len(), 450);
        // Exactly 4 failures, never a pinned (backend-carrying) skill.
        let fails: Vec<_> = m.all().iter().filter(|s| s.fails_to_load).collect();
        prop_assert_eq!(fails.len(), 4);
        prop_assert!(fails.iter().all(|s| s.backends.is_empty()));
        // Policy marginals are seed-independent.
        prop_assert_eq!(m.all().iter().filter(|s| s.policy.has_link).count(), 214);
        prop_assert_eq!(m.all().iter().filter(|s| s.policy.has_document()).count(), 188);
        // Every category is exactly 50 strong.
        for cat in SkillCategory::ALL {
            prop_assert_eq!(m.all().iter().filter(|s| s.category == cat).count(), 50);
        }
        // Ids unique.
        let mut ids: Vec<&str> = m.all().iter().map(|s| s.id.0.as_str()).collect();
        ids.sort();
        let n = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), n);
    }

    #[test]
    fn store_pages_roundtrip_for_every_skill(seed in 0u64..100_000) {
        let m = Marketplace::generate(seed);
        for s in m.all().iter().take(40) {
            let page = render_store_page(s);
            let invocation = parse_invocation(&page);
            prop_assert_eq!(invocation.as_deref(), Some(s.invocation.as_str()));
            prop_assert_eq!(&parse_sample_utterances(&page), &s.sample_utterances);
        }
    }

    #[test]
    fn wake_word_phrases_always_wake(seed in 0u64..100_000, prefix in "[a-z ]{0,20}", suffix in "[a-z ]{0,20}") {
        let mut p = VoicePipeline::new(seed);
        let phrase = format!("{prefix} alexa {suffix}");
        prop_assert!(p.wakes(&phrase));
    }

    #[test]
    fn transcription_preserves_word_count(seed in 0u64..100_000, words in prop::collection::vec("[a-z]{1,8}", 1..12)) {
        let mut p = VoicePipeline::with_config(
            seed,
            VoiceConfig { word_error_rate: 0.5, ..VoiceConfig::default() },
        );
        let utterance = words.join(" ");
        let transcript = p.transcribe(&utterance);
        prop_assert_eq!(transcript.split_whitespace().count(), words.len());
    }
}
