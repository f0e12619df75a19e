//! Policy download with injected faults and per-document retry.
//!
//! The paper reports that 4 of the policy pages it tried to fetch from the
//! marketplace failed outright (§7.2). [`PolicyFetcher`] models that layer:
//! it wraps [`PolicyGenerator`] behind a "download" that can time out on
//! the fault plane's [`FaultChannel::PolicyDownload`] channel and is
//! retried under the standard backoff schedule. Each document is one unit
//! of work (the policy stage shards per skill), so each fetch carries its
//! own small retry budget.

use crate::document::PolicyDoc;
use crate::generator::PolicyGenerator;
use alexa_fault::{retry, FaultChannel, FaultPlane, RetryBudget, RetryOutcome, RetryPolicy};
use alexa_platform::Skill;

/// Why a policy fetch ultimately failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchError {
    /// Every attempt timed out (injected fault survived retry).
    Timeout {
        /// Attempts made before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchError::Timeout { attempts } => {
                write!(f, "policy download timed out after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for FetchError {}

/// Downloads (renders) policy documents through the fault plane.
#[derive(Debug)]
pub struct PolicyFetcher {
    generator: PolicyGenerator,
    plane: FaultPlane,
    policy: RetryPolicy,
    seed: u64,
}

impl PolicyFetcher {
    /// A fetcher over the standard generator and retry schedule.
    pub fn new(seed: u64, plane: FaultPlane) -> PolicyFetcher {
        PolicyFetcher {
            generator: PolicyGenerator::new(),
            plane,
            policy: RetryPolicy::standard(),
            seed,
        }
    }

    /// Fetch one skill's policy document.
    ///
    /// `Ok(None)` is the modeled world's answer (no link / dead link) and is
    /// *not* a fault; `Err` means injected download faults survived the
    /// per-document retry budget. The outcome carries retry accounting for
    /// the caller's ledger.
    pub fn fetch(&self, skill: &Skill) -> RetryOutcome<Option<PolicyDoc>, FetchError> {
        if !self.plane.is_active() {
            return RetryOutcome {
                result: Ok(self.generator.render(skill)),
                attempts: 1,
                retries: 0,
                backoff_ms: 0,
                budget_denied: false,
            };
        }
        let mut budget = RetryBudget::new(self.policy.max_attempts.max(1) - 1);
        let key = format!("policy/{}", skill.id.0);
        let download = self.plane.key(FaultChannel::PolicyDownload);
        let download = download.str(&key).byte(b'#');
        let mut out = retry(
            &self.policy,
            &mut budget,
            self.seed,
            || key.clone(),
            |attempt| {
                if self.plane.fires_at(download.u64(attempt.into())) {
                    Err(FetchError::Timeout { attempts: attempt })
                } else {
                    Ok(self.generator.render(skill))
                }
            },
            |_| true,
        );
        if let Err(FetchError::Timeout { attempts }) = &mut out.result {
            *attempts = out.attempts;
        }
        out
    }

    /// Amazon's own privacy notice (never faulted: the paper always had it).
    pub fn amazon_policy(&self) -> PolicyDoc {
        self.generator.amazon_policy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexa_fault::FaultProfile;
    use alexa_platform::{PolicySpec, SkillCategory, SkillId};

    fn skill(id: &str) -> Skill {
        Skill {
            id: SkillId(id.into()),
            name: "Fetch Test".into(),
            vendor: "Vendor".into(),
            category: SkillCategory::Dating,
            invocation: "fetch test".into(),
            sample_utterances: vec![],
            reviews: 1,
            streaming: false,
            fails_to_load: false,
            requires_account_linking: false,
            permissions: vec![],
            backends: vec![],
            collects: vec![],
            policy: PolicySpec {
                has_link: true,
                retrievable: true,
                ..PolicySpec::none()
            },
        }
    }

    #[test]
    fn inactive_plane_matches_generator_exactly() {
        let fetcher = PolicyFetcher::new(7, FaultPlane::disabled());
        let s = skill("s1");
        let out = fetcher.fetch(&s);
        assert_eq!(out.result, Ok(PolicyGenerator::new().render(&s)));
        assert_eq!((out.attempts, out.retries, out.backoff_ms), (1, 0, 0));
    }

    #[test]
    fn full_fault_rate_times_out_every_fetch() {
        let fetcher = PolicyFetcher::new(7, FaultPlane::new(7, FaultProfile::uniform(1.0)));
        let out = fetcher.fetch(&skill("s2"));
        match out.result {
            Err(FetchError::Timeout { attempts }) => {
                assert_eq!(attempts, RetryPolicy::standard().max_attempts)
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(out.backoff_ms > 0, "virtual backoff must accumulate");
    }

    #[test]
    fn hostile_plane_is_deterministic_and_partial() {
        let fetcher = PolicyFetcher::new(1234, FaultPlane::new(1234, FaultProfile::hostile()));
        let verdicts: Vec<bool> = (0..60)
            .map(|i| fetcher.fetch(&skill(&format!("s{i}"))).succeeded())
            .collect();
        let again: Vec<bool> = (0..60)
            .map(|i| fetcher.fetch(&skill(&format!("s{i}"))).succeeded())
            .collect();
        assert_eq!(verdicts, again);
        assert!(verdicts.iter().any(|&v| v), "some fetches must survive");
        assert!(verdicts.iter().any(|&v| !v), "some fetches must fail");
    }
}
