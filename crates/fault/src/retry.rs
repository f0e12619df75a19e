//! Seeded-backoff retry engine with per-shard budgets.

use crate::{unit, Fnv1a};

/// Retry schedule for one class of operation.
///
/// Delays are **virtual**: they are computed, bounded and accounted for in
/// [`RetryOutcome::backoff_ms`] but never slept, so fault-heavy runs cost no
/// wall clock and timing never leaks into observables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total tries per operation, including the first (min 1).
    pub max_attempts: u32,
    /// Delay before the first retry, in virtual milliseconds.
    pub base_delay_ms: u64,
    /// Ceiling on any single delay.
    pub max_delay_ms: u64,
    /// Jitter as a fraction of the exponential delay, clamped to `[0, 1]`.
    /// Keeping it ≤ 1 is what makes the schedule monotone: the next
    /// exponential step always clears the previous step plus its jitter.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::standard()
    }
}

impl RetryPolicy {
    /// The pipeline's standard schedule: 4 tries, 50 ms base, 5 s cap,
    /// 25% jitter.
    pub fn standard() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 50,
            max_delay_ms: 5_000,
            jitter: 0.25,
        }
    }

    /// The virtual delay before retry number `attempt` (1-based: the delay
    /// after the first failed try is `backoff_ms(seed, key, 1)`).
    ///
    /// Deterministic in `(seed, key, attempt)`; monotone non-decreasing in
    /// `attempt`; bounded by `exp ≤ delay ≤ min(exp · (1 + jitter), max)`
    /// where `exp` is the capped exponential step.
    pub fn backoff_ms(&self, seed: u64, key: &str, attempt: u32) -> u64 {
        let step = attempt.max(1) - 1;
        let exp = if step >= 63 {
            self.max_delay_ms
        } else {
            (self.base_delay_ms.saturating_mul(1u64 << step)).min(self.max_delay_ms)
        };
        let j = self.jitter.clamp(0.0, 1.0);
        // The jitter sample hashes `{seed}\u{1f}backoff\u{1f}{key}\u{1f}{attempt}`.
        let mut h = Fnv1a::new();
        h.u64(seed)
            .byte(0x1f)
            .str("backoff")
            .byte(0x1f)
            .str(key)
            .byte(0x1f)
            .u64(attempt.into());
        let u = unit(h.finish());
        let jittered = exp as f64 * (1.0 + j * u);
        (jittered as u64).min(self.max_delay_ms)
    }
}

/// A per-shard allowance of retries.
///
/// When the budget runs dry the shard's circuit breaker is open: operations
/// get exactly one try and losses are recorded instead of retried, which
/// bounds the virtual (and real) cost of a hostile run. Exhaustion marks
/// the shard degraded — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryBudget {
    total: u32,
    used: u32,
}

impl RetryBudget {
    /// A budget of `total` retries.
    pub fn new(total: u32) -> RetryBudget {
        RetryBudget { total, used: 0 }
    }

    /// Take one retry from the budget; `false` when the breaker is open.
    pub fn try_consume(&mut self) -> bool {
        if self.used < self.total {
            self.used += 1;
            true
        } else {
            false
        }
    }

    /// Retries consumed so far.
    pub fn used(&self) -> u32 {
        self.used
    }

    /// Whether the breaker has opened (every retry spent).
    pub fn exhausted(&self) -> bool {
        self.total > 0 && self.used >= self.total
    }
}

/// What one retried operation came to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryOutcome<T, E> {
    /// The final result: the first success, or the last error.
    pub result: Result<T, E>,
    /// Tries actually made (≥ 1).
    pub attempts: u32,
    /// Tries beyond the first.
    pub retries: u32,
    /// Total virtual backoff accumulated across retries.
    pub backoff_ms: u64,
    /// True when a retry was wanted but the budget refused it.
    pub budget_denied: bool,
}

impl<T, E> RetryOutcome<T, E> {
    /// Whether the operation ultimately succeeded.
    pub fn succeeded(&self) -> bool {
        self.result.is_ok()
    }
}

/// Run `op` under `policy`, drawing retries from `budget`.
///
/// `op` receives the 1-based attempt number (callers fold it into their
/// structural fault keys so each attempt gets an independent fault
/// decision). `retryable` gates which errors are worth retrying —
/// permanent failures (e.g. a skill that genuinely fails to load) return
/// immediately without touching the budget. `key` names the operation for
/// the backoff jitter; it is built only if a retry happens, so an
/// operation that succeeds first time formats nothing.
pub fn retry<T, E>(
    policy: &RetryPolicy,
    budget: &mut RetryBudget,
    seed: u64,
    key: impl FnOnce() -> String,
    mut op: impl FnMut(u32) -> Result<T, E>,
    mut retryable: impl FnMut(&E) -> bool,
) -> RetryOutcome<T, E> {
    let key = std::cell::LazyCell::new(key);
    let max = policy.max_attempts.max(1);
    let mut backoff_ms = 0u64;
    let mut attempt = 1u32;
    loop {
        match op(attempt) {
            Ok(v) => {
                return RetryOutcome {
                    result: Ok(v),
                    attempts: attempt,
                    retries: attempt - 1,
                    backoff_ms,
                    budget_denied: false,
                }
            }
            Err(e) => {
                if attempt >= max || !retryable(&e) {
                    return RetryOutcome {
                        result: Err(e),
                        attempts: attempt,
                        retries: attempt - 1,
                        backoff_ms,
                        budget_denied: false,
                    };
                }
                if !budget.try_consume() {
                    return RetryOutcome {
                        result: Err(e),
                        attempts: attempt,
                        retries: attempt - 1,
                        backoff_ms,
                        budget_denied: true,
                    };
                }
                backoff_ms += policy.backoff_ms(seed, &key, attempt);
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_try_success_spends_nothing() {
        let mut budget = RetryBudget::new(4);
        let out = retry(
            &RetryPolicy::standard(),
            &mut budget,
            7,
            || "k".into(),
            |_| Ok::<_, ()>(42),
            |_| true,
        );
        assert_eq!(out.result, Ok(42));
        assert_eq!((out.attempts, out.retries, out.backoff_ms), (1, 0, 0));
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn retries_until_success_and_accumulates_backoff() {
        let mut budget = RetryBudget::new(10);
        let mut calls = 0;
        let out = retry(
            &RetryPolicy::standard(),
            &mut budget,
            7,
            || "k".into(),
            |attempt| {
                calls += 1;
                if attempt < 3 {
                    Err("transient")
                } else {
                    Ok("done")
                }
            },
            |_| true,
        );
        assert_eq!(out.result, Ok("done"));
        assert_eq!((calls, out.attempts, out.retries), (3, 3, 2));
        assert!(out.backoff_ms >= 50 + 100, "two exponential steps");
        assert_eq!(budget.used(), 2);
    }

    #[test]
    fn the_key_is_built_only_for_a_retry() {
        let built = std::cell::Cell::new(0);
        let key = || {
            built.set(built.get() + 1);
            "k".to_string()
        };
        let mut budget = RetryBudget::new(10);
        let policy = RetryPolicy::standard();
        retry(&policy, &mut budget, 7, key, |_| Ok::<_, ()>(()), |_| true);
        assert_eq!(built.get(), 0, "a first-try success formats no key");
        let out = retry(
            &policy,
            &mut budget,
            7,
            key,
            |attempt| if attempt < 4 { Err(()) } else { Ok(()) },
            |_| true,
        );
        assert_eq!(out.retries, 3);
        assert_eq!(built.get(), 1, "three retries build the key once");
        let want: u64 = (1..4).map(|a| policy.backoff_ms(7, "k", a)).sum();
        assert_eq!(out.backoff_ms, want);
    }

    #[test]
    fn permanent_errors_do_not_retry() {
        let mut budget = RetryBudget::new(10);
        let out = retry(
            &RetryPolicy::standard(),
            &mut budget,
            7,
            || "k".into(),
            |_| Err::<(), _>("permanent"),
            |_| false,
        );
        assert_eq!((out.attempts, out.retries), (1, 0));
        assert!(!out.budget_denied);
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn open_breaker_denies_retries() {
        let mut budget = RetryBudget::new(1);
        let out = retry(
            &RetryPolicy::standard(),
            &mut budget,
            7,
            || "k".into(),
            |_| Err::<(), _>("transient"),
            |_| true,
        );
        // One retry granted, second denied by the empty budget.
        assert_eq!(out.attempts, 2);
        assert!(out.budget_denied);
        assert!(budget.exhausted());

        let after = retry(
            &RetryPolicy::standard(),
            &mut budget,
            7,
            || "k2".into(),
            |_| Err::<(), _>("transient"),
            |_| true,
        );
        assert_eq!(after.attempts, 1, "open breaker means single tries");
        assert!(after.budget_denied);
    }

    #[test]
    fn zero_budget_never_exhausts_when_inactive() {
        let b = RetryBudget::new(0);
        assert!(
            !b.exhausted(),
            "a zero budget is 'no retries', not degraded"
        );
        assert!(!b.clone().try_consume(), "and no retry to take");
    }

    #[test]
    fn backoff_is_deterministic_and_seed_sensitive() {
        let p = RetryPolicy::standard();
        assert_eq!(p.backoff_ms(7, "k", 2), p.backoff_ms(7, "k", 2));
        let differs = (1..=6).any(|a| p.backoff_ms(7, "k", a) != p.backoff_ms(8, "k", a));
        assert!(differs);
    }

    #[test]
    fn backoff_caps_at_max_even_for_huge_attempts() {
        let p = RetryPolicy::standard();
        assert!(p.backoff_ms(7, "k", 200) <= p.max_delay_ms);
        assert!(p.backoff_ms(7, "k", 63) <= p.max_delay_ms);
    }
}
