//! The voice pipeline: wake word, transcription, intent routing.
//!
//! Models the audible front half of every interaction. Three behaviours the
//! paper depends on are reproduced:
//!
//! * recording starts only after a wake word — but with a small
//!   **misactivation** rate (prior work the paper cites measured smart
//!   speakers waking on similar-sounding phrases);
//! * transcription is a noisy channel: occasionally a word is mangled;
//! * routing sends the utterance to the in-session skill, but a small
//!   fraction of generic utterances **fall through to the built-in
//!   assistant** (§3.1.1 observed this for a "minute chunk" of samples).

use crate::skill::{Skill, SkillId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where an utterance was routed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutedIntent {
    /// Delivered to the named skill's backend session.
    Skill(SkillId),
    /// Handled by the built-in assistant (fell through).
    BuiltIn,
}

/// Configuration of the voice pipeline's noise processes.
#[derive(Debug, Clone, Copy)]
pub struct VoiceConfig {
    /// Probability that a non-wake phrase still wakes the device.
    pub misactivation_rate: f64,
    /// Probability that a word is mis-transcribed.
    pub word_error_rate: f64,
    /// Probability that an in-session utterance falls through to the
    /// built-in assistant instead of the skill.
    pub fallthrough_rate: f64,
}

impl Default for VoiceConfig {
    fn default() -> VoiceConfig {
        VoiceConfig {
            misactivation_rate: 0.01,
            word_error_rate: 0.02,
            fallthrough_rate: 0.04,
        }
    }
}

/// The wake-word → transcript → intent pipeline.
#[derive(Debug)]
pub struct VoicePipeline {
    config: VoiceConfig,
    rng: StdRng,
}

/// The wake word recognized by the pipeline.
const WAKE_WORD: &str = "alexa";

impl VoicePipeline {
    /// Create a pipeline with the default noise configuration.
    pub fn new(seed: u64) -> VoicePipeline {
        VoicePipeline::with_config(seed, VoiceConfig::default())
    }

    /// Create a pipeline with an explicit configuration.
    pub fn with_config(seed: u64, config: VoiceConfig) -> VoicePipeline {
        VoicePipeline {
            config,
            rng: StdRng::seed_from_u64(seed ^ 0x766f696365),
        }
    }

    /// Decide whether a spoken phrase wakes the device.
    ///
    /// The phrase wakes the device if it contains the wake word, or — with
    /// the misactivation probability — even when it does not.
    pub fn wakes(&mut self, phrase: &str) -> bool {
        let spoken = phrase.to_ascii_lowercase();
        if spoken
            .split(|c: char| !c.is_ascii_alphanumeric())
            .any(|w| w == WAKE_WORD)
        {
            return true;
        }
        self.rng.gen_bool(self.config.misactivation_rate)
    }

    /// Transcribe a spoken utterance into text, with word-level noise.
    pub fn transcribe(&mut self, utterance: &str) -> String {
        let words: Vec<String> = utterance
            .split_whitespace()
            .map(|w| {
                if self.rng.gen_bool(self.config.word_error_rate) {
                    garble(w)
                } else {
                    w.to_string()
                }
            })
            .collect();
        words.join(" ")
    }

    /// Route a transcript uttered during a skill session.
    pub fn route(&mut self, transcript: &str, session_skill: &Skill) -> RoutedIntent {
        // Explicit invocations always reach the skill.
        let invoked = transcript
            .to_ascii_lowercase()
            .contains(&session_skill.invocation);
        if invoked || !self.rng.gen_bool(self.config.fallthrough_rate) {
            RoutedIntent::Skill(session_skill.id.clone())
        } else {
            RoutedIntent::BuiltIn
        }
    }
}

/// Deterministically mangle a word (vowel swap), simulating an ASR error.
fn garble(word: &str) -> String {
    let mut out = String::with_capacity(word.len());
    let mut swapped = false;
    for c in word.chars() {
        if !swapped && matches!(c, 'a' | 'e' | 'i' | 'o' | 'u') {
            out.push(match c {
                'a' => 'o',
                'e' => 'i',
                'i' => 'e',
                'o' => 'u',
                _ => 'a',
            });
            swapped = true;
        } else {
            out.push(c);
        }
    }
    if !swapped {
        out.push('s');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::SkillCategory;
    use crate::skill::PolicySpec;

    fn skill() -> Skill {
        Skill {
            id: SkillId("s1".into()),
            name: "Garmin".into(),
            vendor: "Garmin International".into(),
            category: SkillCategory::ConnectedCar,
            invocation: "garmin".into(),
            sample_utterances: vec![],
            reviews: 1,
            streaming: false,
            fails_to_load: false,
            requires_account_linking: false,
            permissions: vec![],
            backends: vec![],
            collects: vec![],
            policy: PolicySpec::none(),
        }
    }

    #[test]
    fn wake_word_always_wakes() {
        let mut p = VoicePipeline::new(1);
        assert!(p.wakes("Alexa, open Garmin"));
        assert!(p.wakes("alexa stop"));
    }

    #[test]
    fn misactivation_rate_is_low_but_nonzero() {
        let mut p = VoicePipeline::new(2);
        let wakes = (0..10_000).filter(|_| p.wakes("i like pizza")).count();
        assert!(wakes > 20, "misactivations: {wakes}");
        assert!(wakes < 300, "misactivations: {wakes}");
    }

    #[test]
    fn wake_word_must_be_its_own_word() {
        let mut p = VoicePipeline::with_config(
            3,
            VoiceConfig {
                misactivation_rate: 0.0,
                ..VoiceConfig::default()
            },
        );
        assert!(!p.wakes("alexandria is a city"));
        assert!(p.wakes("hey alexa what time is it"));
    }

    #[test]
    fn transcription_mostly_faithful() {
        let mut p = VoicePipeline::new(4);
        let exact = (0..1000)
            .filter(|_| p.transcribe("open garmin") == "open garmin")
            .count();
        assert!(exact > 900, "exact transcriptions: {exact}");
        assert!(exact < 1000, "noise never fired");
    }

    #[test]
    fn transcription_with_zero_error_is_identity() {
        let mut p = VoicePipeline::with_config(
            5,
            VoiceConfig {
                word_error_rate: 0.0,
                ..VoiceConfig::default()
            },
        );
        assert_eq!(
            p.transcribe("give me a fashion tip"),
            "give me a fashion tip"
        );
    }

    #[test]
    fn invocations_never_fall_through() {
        let mut p = VoicePipeline::new(6);
        let s = skill();
        for _ in 0..500 {
            assert_eq!(
                p.route("open garmin", &s),
                RoutedIntent::Skill(s.id.clone())
            );
        }
    }

    #[test]
    fn generic_utterances_sometimes_fall_through() {
        let mut p = VoicePipeline::new(7);
        let s = skill();
        let fallthroughs = (0..5000)
            .filter(|_| p.route("give me hosting tips", &s) == RoutedIntent::BuiltIn)
            .count();
        // fallthrough_rate = 4%: expect roughly 200 of 5000.
        assert!(fallthroughs > 100, "{fallthroughs}");
        assert!(fallthroughs < 400, "{fallthroughs}");
    }

    #[test]
    fn garble_changes_word() {
        assert_ne!(garble("garmin"), "garmin");
        assert_ne!(garble("xyz"), "xyz"); // no vowels: suffix fallback
    }

    #[test]
    fn pipeline_is_deterministic_per_seed() {
        let mut a = VoicePipeline::new(9);
        let mut b = VoicePipeline::new(9);
        for _ in 0..100 {
            assert_eq!(
                a.transcribe("alexa tell me a story"),
                b.transcribe("alexa tell me a story")
            );
        }
    }
}
