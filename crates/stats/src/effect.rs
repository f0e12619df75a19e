//! The paper's magnitude bands for the rank-biserial effect size.
//!
//! The paper reports the rank-biserial coefficient alongside each
//! Mann–Whitney p-value in Table 7 (it is
//! [`MwuResult::effect_size`](crate::MwuResult::effect_size)) and reads
//! magnitudes with the bands 0.11–0.28 (small), 0.28–0.43 (medium),
//! ≥ 0.43 (large).

/// Magnitude bands for the rank-biserial coefficient used in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EffectMagnitude {
    /// |r| < 0.11 — effectively no stochastic difference.
    Negligible,
    /// 0.11 ≤ |r| < 0.28.
    Small,
    /// 0.28 ≤ |r| < 0.43.
    Medium,
    /// |r| ≥ 0.43.
    Large,
}

impl EffectMagnitude {
    /// Classify a rank-biserial coefficient into the paper's bands.
    pub fn classify(r: f64) -> EffectMagnitude {
        let a = r.abs();
        if a < 0.11 {
            EffectMagnitude::Negligible
        } else if a < 0.28 {
            EffectMagnitude::Small
        } else if a < 0.43 {
            EffectMagnitude::Medium
        } else {
            EffectMagnitude::Large
        }
    }
}

impl std::fmt::Display for EffectMagnitude {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EffectMagnitude::Negligible => "negligible",
            EffectMagnitude::Small => "small",
            EffectMagnitude::Medium => "medium",
            EffectMagnitude::Large => "large",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mann_whitney_u, Alternative, StatsError};

    /// The rank-biserial coefficient `2·U1/(n1·n2) − 1` the U test reports.
    fn rank_biserial(x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
        mann_whitney_u(x, y, Alternative::TwoSided).map(|r| r.effect_size)
    }

    #[test]
    fn dominance_is_plus_one() {
        assert!((rank_biserial(&[4.0, 5.0, 6.0], &[1.0, 2.0, 3.0]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn subservience_is_minus_one() {
        assert!((rank_biserial(&[1.0, 2.0], &[3.0, 4.0]).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn identical_is_zero() {
        assert!(
            rank_biserial(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0])
                .unwrap()
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn empty_is_a_typed_error() {
        assert_eq!(rank_biserial(&[], &[1.0]), Err(StatsError::EmptySample));
    }

    #[test]
    fn bands_match_paper_thresholds() {
        assert_eq!(EffectMagnitude::classify(0.05), EffectMagnitude::Negligible);
        assert_eq!(EffectMagnitude::classify(0.11), EffectMagnitude::Small);
        assert_eq!(EffectMagnitude::classify(0.2), EffectMagnitude::Small);
        assert_eq!(EffectMagnitude::classify(0.28), EffectMagnitude::Medium);
        assert_eq!(EffectMagnitude::classify(0.354), EffectMagnitude::Medium); // Connected Car, Table 7
        assert_eq!(EffectMagnitude::classify(0.43), EffectMagnitude::Large);
        assert_eq!(EffectMagnitude::classify(-0.5), EffectMagnitude::Large);
    }

    #[test]
    fn display_strings() {
        assert_eq!(EffectMagnitude::Medium.to_string(), "medium");
    }
}
