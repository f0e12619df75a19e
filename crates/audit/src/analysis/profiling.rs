//! RQ2 — data-profiling analysis via DSAR (Table 12, §6.1).
//!
//! The audit requests each persona's data from Amazon three times (after
//! installation, and twice after interaction) and reads the advertising
//! interests back. Beyond reproducing Table 12's rows, the analysis
//! surfaces the transparency failure the paper emphasizes: on the second
//! post-interaction request, several personas' advertising-interest files
//! are simply **absent** from the export.

use crate::index::AnalysisIndex;
use crate::persona::Persona;
use crate::table::{Joined, TextTable};
use alexa_platform::DsarPhase;
use std::fmt::Write as _;

/// One Table 12 row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterestRow {
    /// Request phase.
    pub phase: DsarPhase,
    /// Persona whose export the row reads.
    pub persona: Persona,
    /// Inferred advertising interests, as labels.
    pub interests: Vec<String>,
}

/// Table 12 plus the missing-file observations.
#[derive(Debug, Clone)]
pub struct Table12 {
    /// Non-empty inference rows, in phase order.
    pub rows: Vec<InterestRow>,
    /// Personas whose advertising-interest file was absent on the second
    /// post-interaction request.
    pub missing_files: Vec<Persona>,
}

fn phase_label(phase: DsarPhase) -> &'static str {
    match phase {
        DsarPhase::AfterInstall => "Installation",
        DsarPhase::AfterInteraction1 => "Interaction (1)",
        DsarPhase::AfterInteraction2 => "Interaction (2)",
    }
}

/// Compute Table 12 from the DSAR exports.
pub fn table12(ix: &AnalysisIndex) -> Table12 {
    let obs = ix.obs;
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for phase in [
        DsarPhase::AfterInstall,
        DsarPhase::AfterInteraction1,
        DsarPhase::AfterInteraction2,
    ] {
        for persona in Persona::echo_personas() {
            let Some(export) = obs.dsar.get(&(persona, phase)) else {
                continue;
            };
            match &export.advertising_interests {
                Some(interests) if !interests.is_empty() => rows.push(InterestRow {
                    phase,
                    persona,
                    interests: interests.iter().map(|i| i.label().to_string()).collect(),
                }),
                Some(_) => {}
                None => {
                    if phase == DsarPhase::AfterInteraction2 {
                        missing.push(persona);
                    }
                }
            }
        }
    }
    Table12 {
        rows,
        missing_files: missing,
    }
}

impl Table12 {
    /// Interests inferred for a persona at a phase.
    pub fn interests(&self, phase: DsarPhase, persona: Persona) -> Vec<&str> {
        self.rows
            .iter()
            .filter(|r| r.phase == phase && r.persona == persona)
            .flat_map(|r| r.interests.iter().map(String::as_str))
            .collect()
    }

    /// Stream the paper's layout into `out`; returns render work units.
    pub fn render_into(&self, out: &mut String) -> usize {
        let mut t = TextTable::new(
            "Table 12: Advertising interests inferred by Amazon",
            &["Config.", "Persona", "Amazon inferred interests"],
        );
        for r in &self.rows {
            t.row()
                .cell(phase_label(r.phase))
                .cell(r.persona)
                .cell(Joined(&r.interests, "; "));
        }
        let work = t.render_into(out);
        let missing = Joined(&self.missing_files, ", ");
        let none = if self.missing_files.is_empty() {
            "none"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "\nAdvertising-interest files ABSENT on second post-interaction request: {missing}{none}"
        );
        work + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::test_support::{ix, rendered};
    use alexa_platform::SkillCategory;

    #[test]
    fn install_phase_infers_only_health() {
        let t12 = table12(ix());
        let install_rows: Vec<&InterestRow> = t12
            .rows
            .iter()
            .filter(|r| r.phase == DsarPhase::AfterInstall)
            .collect();
        assert_eq!(install_rows.len(), 1);
        assert_eq!(
            install_rows[0].persona,
            Persona::Interest(SkillCategory::HealthFitness)
        );
        assert_eq!(
            install_rows[0].interests,
            vec!["Electronics", "Home & Garden: DIY & Tools"]
        );
    }

    #[test]
    fn interaction_unlocks_fashion_and_smarthome() {
        let t12 = table12(ix());
        assert_eq!(
            t12.interests(
                DsarPhase::AfterInteraction1,
                Persona::Interest(SkillCategory::FashionStyle)
            ),
            vec!["Beauty & Personal Care", "Fashion", "Video Entertainment"]
        );
        assert_eq!(
            t12.interests(
                DsarPhase::AfterInteraction2,
                Persona::Interest(SkillCategory::SmartHome)
            ),
            vec![
                "Pet Supplies",
                "Home & Garden: DIY & Tools",
                "Home & Garden: Home & Kitchen"
            ]
        );
    }

    #[test]
    fn five_personas_lose_their_interest_files() {
        let t12 = table12(ix());
        let mut expected = vec![
            Persona::Interest(SkillCategory::Dating),
            Persona::Interest(SkillCategory::HealthFitness),
            Persona::Interest(SkillCategory::ReligionSpirituality),
            Persona::Vanilla,
            Persona::Interest(SkillCategory::WineBeverages),
        ];
        expected.sort_unstable();
        let mut got = t12.missing_files.clone();
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn renders() {
        let out = rendered(|out| table12(ix()).render_into(out));
        assert!(out.contains("Installation"));
        assert!(out.contains("ABSENT"));
    }
}
