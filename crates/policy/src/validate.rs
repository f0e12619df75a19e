//! Validation of the PoliCheck reimplementation against planted ground
//! truth — the reproduction of §7.2.3.
//!
//! The paper visually inspected the flows of 100 skills and compared the
//! manual labels with PoliCheck's output as a multi-class classification,
//! reporting 87.41% micro-averaged P/R/F1 and 93.96 / 77.85 / 85.15%
//! macro-averaged. Here the ground truth is each skill's [`PolicySpec`]
//! (what the generator was told to express); the prediction is what
//! PoliCheck recovers from the rendered text. The generator's deliberate
//! off-lexicon quirks keep the agreement below 100%.

use crate::generator::PolicyGenerator;
use crate::policheck::{CompiledPolicy, DisclosureClass, PoliCheck};
use alexa_platform::{DisclosureLevel, Skill};
use alexa_stats::ConfusionMatrix;

fn level_label(level: DisclosureLevel) -> &'static str {
    match level {
        DisclosureLevel::Clear => "clear",
        DisclosureLevel::Vague => "vague",
        // Ground-truth denials correspond to PoliCheck's "incorrect" class.
        DisclosureLevel::Denied => "incorrect",
        DisclosureLevel::Omitted => "omitted",
    }
}

fn class_label(class: DisclosureClass) -> &'static str {
    match class {
        DisclosureClass::Clear => "clear",
        DisclosureClass::Vague => "vague",
        DisclosureClass::Incorrect => "incorrect",
        DisclosureClass::Omitted => "omitted",
        DisclosureClass::NoPolicy => "no policy",
    }
}

/// Run PoliCheck over `skills` (typically a 100-skill sample with policies,
/// like the paper's validation set) and score its classifications against
/// the planted ground truth. Returns the filled confusion matrix.
pub fn validate_against_ground_truth(skills: &[&Skill]) -> ConfusionMatrix {
    let generator = PolicyGenerator::new();
    let policheck = PoliCheck::new();
    let mut matrix = ConfusionMatrix::new();

    for skill in skills {
        let policy = generator
            .render(skill)
            .map(|doc| CompiledPolicy::compile(&doc));
        let policy = policy.as_ref();
        for (&dt, &truth) in &skill.policy.data_disclosures {
            let predicted = policheck.classify_data_type(policy, dt);
            matrix.record(level_label(truth), class_label(predicted));
        }
        for (org, &truth) in &skill.policy.endpoint_disclosures {
            let predicted = policheck.classify_endpoint(policy, org);
            matrix.record(level_label(truth), class_label(predicted));
        }
    }
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexa_platform::Marketplace;

    #[test]
    fn validation_on_100_skill_sample_is_strong_but_imperfect() {
        let market = Marketplace::generate(42);
        let sample: Vec<&Skill> = market
            .all()
            .iter()
            .filter(|s| s.policy.has_document())
            .take(100)
            .collect();
        assert_eq!(sample.len(), 100);
        let matrix = validate_against_ground_truth(&sample);
        assert!(
            matrix.total() > 100,
            "too few labeled flows: {}",
            matrix.total()
        );
        let micro = matrix.micro_scores();
        // The paper reports 87.41% micro F1; ours should be in the same
        // regime — high but below 1.0 thanks to the generator's quirks.
        assert!(micro.f1 > 0.80, "micro F1 {}", micro.f1);
        assert!(micro.f1 < 1.0, "suspiciously perfect micro F1");
        let macro_s = matrix.macro_scores();
        assert!(macro_s.precision > 0.7, "macro P {}", macro_s.precision);
        assert!(macro_s.recall > 0.6, "macro R {}", macro_s.recall);
    }

    #[test]
    fn validation_errors_skew_toward_omitted() {
        // The planted quirks are off-lexicon phrasings, which PoliCheck can
        // only misread as "omitted" — verify that's the dominant error mode.
        let market = Marketplace::generate(42);
        let sample: Vec<&Skill> = market
            .all()
            .iter()
            .filter(|s| s.policy.has_document())
            .collect();
        let matrix = validate_against_ground_truth(&sample);
        let (_, fp_clear, _) = matrix.class_counts("clear");
        assert_eq!(fp_clear, 0, "nothing should be over-claimed as clear");
    }
}
