//! Skill certification: Amazon's review process, static and dynamic.
//!
//! §2.2: Amazon certifies every skill before publication, enforcing (among
//! others) the advertising policy that restricts audio ads to streaming
//! skills. §4.2 finds six *non-streaming* skills that embed advertising &
//! tracking services anyway and asks "why these skills were not flagged
//! during skill certification".
//!
//! This module reproduces the mechanism behind that finding: the
//! certification pipeline reviews **declared metadata** ([`static_review`]),
//! and a skill's runtime backends are not declared — so embedded trackers
//! pass unnoticed. A traffic-based review ([`dynamic_review`]), like the
//! paper's own audit, catches them. Prior work the paper cites (Cheng et
//! al., SkillDetective) made the same static-vs-dynamic point for policy
//! violations generally.

use crate::skill::{Permission, Skill};
use alexa_net::FilterList;

/// A certification finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Non-streaming skill embeds advertising/tracking services
    /// (the Alexa advertising policy restricts ads to streaming skills).
    AdPolicyViolation {
        /// A&T endpoints observed.
        endpoints: Vec<String>,
    },
    /// Skill requests personal-information permissions without providing a
    /// privacy policy (marketplace requirement).
    PermissionsWithoutPolicy {
        /// The permissions requested.
        permissions: Vec<Permission>,
    },
    /// Skill collects persistent identifiers but provides no privacy
    /// policy at all.
    UndisclosedIdentifierCollection,
}

/// Result of reviewing one skill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Review {
    /// Skill id reviewed.
    pub skill_id: String,
    /// Violations found.
    pub violations: Vec<Violation>,
}

/// Static review: what Amazon's certification pipeline can see — the
/// declared metadata (streaming flag, permissions, policy link). Runtime
/// backends are **not** part of a skill's submission, so tracker embedding
/// is invisible here. This is why the paper's six violators were certified.
pub fn static_review(skill: &Skill) -> Review {
    let mut violations = Vec::new();
    if !skill.permissions.is_empty() && !skill.policy.has_link {
        violations.push(Violation::PermissionsWithoutPolicy {
            permissions: skill.permissions.clone(),
        });
    }
    Review {
        skill_id: skill.id.0.clone(),
        violations,
    }
}

/// Dynamic review: certification informed by observed traffic — what the
/// paper's auditing framework enables. `observed_endpoints` is the set of
/// endpoint names captured while exercising the skill.
pub fn dynamic_review(skill: &Skill, observed_endpoints: &[alexa_net::Domain]) -> Review {
    let mut review = static_review(skill);
    let fl = FilterList::new();
    let orgs = alexa_net::OrgMap::new();
    // The advertising policy concerns third-party ad services embedded by
    // the skill; the platform's own telemetry endpoints (e.g.
    // device-metrics-us-2.amazon.com) are not the skill's doing.
    let at: Vec<String> = observed_endpoints
        .iter()
        .filter(|d| fl.is_ad_tracking(d) && orgs.org_of(d) != Some(alexa_net::AMAZON))
        .map(|d| d.as_str().to_string())
        .collect();
    if !skill.streaming && !at.is_empty() {
        review
            .violations
            .push(Violation::AdPolicyViolation { endpoints: at });
    }
    if !skill.policy.has_link
        && !observed_endpoints.is_empty()
        && skill.collects_type(alexa_net::DataType::CustomerId)
        && skill.has_non_amazon_backend()
    {
        review
            .violations
            .push(Violation::UndisclosedIdentifierCollection);
    }
    review
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marketplace::Marketplace;
    use alexa_net::Domain;

    fn market() -> Marketplace {
        Marketplace::generate(42)
    }

    #[test]
    fn static_review_misses_all_six_ad_violators() {
        // The paper's core observation: certification passed these skills.
        let m = market();
        let fl = FilterList::new();
        let violators: Vec<&crate::skill::Skill> = m
            .all()
            .iter()
            .filter(|s| !s.streaming && s.backends.iter().any(|b| fl.is_ad_tracking(b)))
            .collect();
        assert_eq!(violators.len(), 6);
        for s in &violators {
            let review = static_review(s);
            assert!(
                !review
                    .violations
                    .iter()
                    .any(|v| matches!(v, Violation::AdPolicyViolation { .. })),
                "{} should pass static review",
                s.name
            );
        }
    }

    #[test]
    fn dynamic_review_catches_all_six() {
        let m = market();
        let fl = FilterList::new();
        let mut caught = 0;
        for s in m.all() {
            let review = dynamic_review(s, &s.backends);
            let flagged = review
                .violations
                .iter()
                .any(|v| matches!(v, Violation::AdPolicyViolation { .. }));
            let truth = !s.streaming && s.backends.iter().any(|b| fl.is_ad_tracking(b));
            assert_eq!(flagged, truth, "{}", s.name);
            if flagged {
                caught += 1;
            }
        }
        assert_eq!(caught, 6);
    }

    #[test]
    fn streaming_skills_may_embed_ad_services() {
        // Garmin streams content: its A&T endpoints are policy-compliant.
        let m = market();
        let garmin = m.all().iter().find(|s| s.name == "Garmin").unwrap();
        let review = dynamic_review(garmin, &garmin.backends);
        assert!(!review
            .violations
            .iter()
            .any(|v| matches!(v, Violation::AdPolicyViolation { .. })));
    }

    #[test]
    fn permissions_require_policy_link() {
        let m = market();
        let offenders = m
            .all()
            .iter()
            .filter(|s| !s.permissions.is_empty() && !s.policy.has_link)
            .count();
        let flagged = m
            .all()
            .iter()
            .filter(|s| {
                static_review(s)
                    .violations
                    .iter()
                    .any(|v| matches!(v, Violation::PermissionsWithoutPolicy { .. }))
            })
            .count();
        assert_eq!(offenders, flagged);
    }

    #[test]
    fn clean_skill_passes_both_reviews() {
        let m = market();
        let sonos = m.all().iter().find(|s| s.name == "Sonos").unwrap();
        assert!(static_review(sonos).violations.is_empty());
        let endpoints: Vec<Domain> = vec![Domain::parse("api.amazon.com").unwrap()];
        // Sonos may carry the permissions-without-policy case only if it has
        // permissions and no link; it has a policy, so both reviews pass
        // unless it requests permissions (policy link present regardless).
        let dynamic = dynamic_review(sonos, &endpoints);
        assert!(!dynamic
            .violations
            .iter()
            .any(|v| matches!(v, Violation::AdPolicyViolation { .. })));
    }
}
