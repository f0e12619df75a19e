//! Property-based tests for the fault plane's retry and decision machinery.

use alexa_fault::{
    retry, FaultChannel, FaultPlane, FaultProfile, Fnv1a, FnvJump, RetryBudget, RetryPolicy,
};
use proptest::prelude::*;

/// FNV-1a as a plain byte loop: the reference for every streamed hash.
fn fnv_loop(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The unit-interval sample decisions compare against the rate
/// (SplitMix64 finalizer, 53 high bits).
fn unit(h: u64) -> f64 {
    let mut x = h;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// The formatted-key oracle: the decision as it was computed when every
/// key was `format!`ted and hashed as one string.
fn oracle_sample(seed: u64, channel: FaultChannel, key: &str) -> f64 {
    let text = format!("{seed}\u{1f}{}\u{1f}{key}", channel.label());
    unit(fnv_loop(0xcbf29ce484222325, text.as_bytes()))
}

fn oracle_fires(seed: u64, profile: &FaultProfile, channel: FaultChannel, key: &str) -> bool {
    let rate = profile.rate(channel);
    if rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    oracle_sample(seed, channel, key) < rate
}

fn oracle_truncated_len(seed: u64, key: &str, len: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let keep =
        0.25 + 0.5 * oracle_sample(seed, FaultChannel::FlowTruncation, &format!("{key}/cut"));
    ((len as f64 * keep) as usize).max(1)
}

fn profiles() -> [FaultProfile; 5] {
    [
        FaultProfile::none(),
        FaultProfile::flaky(),
        FaultProfile::degraded(),
        FaultProfile::hostile(),
        FaultProfile::uniform(0.5),
    ]
}

fn policy() -> impl Strategy<Value = RetryPolicy> {
    (1u32..8, 1u64..500, 1000u64..20_000, 0.0..1.0f64).prop_map(
        |(max_attempts, base_delay_ms, max_delay_ms, jitter)| RetryPolicy {
            max_attempts,
            base_delay_ms,
            max_delay_ms,
            jitter,
        },
    )
}

proptest! {
    // Backoff never shrinks from one attempt to the next: even at the
    // jitter extremes, doubling the exponential step dominates.
    #[test]
    fn backoff_is_monotone_nondecreasing(
        p in policy(),
        seed in 0u64..u64::MAX,
        key in "[a-z]{1,12}",
        attempt in 1u32..20,
    ) {
        let a = p.backoff_ms(seed, &key, attempt);
        let b = p.backoff_ms(seed, &key, attempt + 1);
        prop_assert!(b >= a, "attempt {attempt}: {a} ms then {b} ms");
    }

    // Jitter stays inside its advertised envelope:
    // `exp <= delay <= min(exp * (1 + jitter), max)`.
    #[test]
    fn backoff_respects_jitter_bounds(
        p in policy(),
        seed in 0u64..u64::MAX,
        key in "[a-z]{1,12}",
        attempt in 1u32..20,
    ) {
        let step = attempt - 1;
        let exp = if step >= 63 {
            p.max_delay_ms
        } else {
            (p.base_delay_ms << step).min(p.max_delay_ms)
        };
        let hi = ((exp as f64 * (1.0 + p.jitter)) as u64).min(p.max_delay_ms);
        let d = p.backoff_ms(seed, &key, attempt);
        prop_assert!(d >= exp.min(p.max_delay_ms), "delay {d} below exponential floor {exp}");
        prop_assert!(d <= hi, "delay {d} above jitter ceiling {hi}");
    }

    // A budget hands out exactly `total` retries across any sequence of
    // failing operations, then denies; `exhausted` flips exactly then.
    #[test]
    fn budget_exhaustion_is_exact(total in 0u32..40, ops in 1usize..12) {
        let p = RetryPolicy { max_attempts: 1000, base_delay_ms: 1, max_delay_ms: 10, jitter: 0.0 };
        let mut budget = RetryBudget::new(total);
        let mut granted = 0u64;
        for op in 0..ops {
            let out = retry(
                &p,
                &mut budget,
                9,
                || format!("op{op}"),
                |_| Err::<(), ()>(()),
                |_| true,
            );
            granted += u64::from(out.retries);
        }
        prop_assert_eq!(granted, u64::from(total), "every retry must come from the budget");
        prop_assert_eq!(budget.used(), total);
        prop_assert_eq!(budget.exhausted(), total > 0);
        // Once dry, a further failing op gets no retries and is denied.
        let out = retry(&p, &mut budget, 9, || "after".into(), |_| Err::<(), ()>(()), |_| true);
        prop_assert_eq!(out.attempts, 1);
        prop_assert!(out.budget_denied);
    }

    // Fault decisions nest across severity: any site that fires under a
    // milder preset also fires under every harsher one.
    #[test]
    fn preset_decisions_nest(seed in 0u64..u64::MAX, key in "[a-z/#0-9]{1,24}") {
        let tiers = [
            FaultProfile::flaky(),
            FaultProfile::degraded(),
            FaultProfile::hostile(),
        ];
        for channel in FaultChannel::ALL {
            let mut fired_before = false;
            for profile in &tiers {
                let plane = FaultPlane::new(seed, profile.clone());
                let fires = plane.fires_at(plane.key(channel).str(&key));
                prop_assert!(
                    fires || !fired_before,
                    "{channel:?}/{key}: fired under a milder preset but not {}",
                    profile.name()
                );
                fired_before = fires;
            }
        }
    }

    // The virtual clock only accumulates when retries are granted.
    #[test]
    fn no_backoff_without_retries(seed in 0u64..u64::MAX, key in "[a-z]{1,8}") {
        let p = RetryPolicy::standard();
        let mut budget = RetryBudget::new(0);
        let out = retry(&p, &mut budget, seed, || key, |_| Err::<(), ()>(()), |_| true);
        prop_assert_eq!(out.retries, 0);
        prop_assert_eq!(out.backoff_ms, 0);
    }

    // A jump over a fragment equals hashing the fragment byte by byte, from
    // any state, for any fragment (multi-byte UTF-8 included).
    #[test]
    fn jump_equals_the_byte_loop(
        state in 0u64..u64::MAX,
        fragment in "[\u{0}-\u{ff}\u{6f22}\u{1f600}]{0,48}",
    ) {
        let mut jumped = Fnv1a::with_state(state);
        jumped.jump(&FnvJump::new(&fragment));
        prop_assert_eq!(jumped.finish(), fnv_loop(state, fragment.as_bytes()));
        let mut streamed = Fnv1a::with_state(state);
        streamed.str(&fragment);
        prop_assert_eq!(streamed.finish(), fnv_loop(state, fragment.as_bytes()));
    }

    // Streamed decisions equal the formatted-key oracle on every channel
    // and profile, for each key shape the pipeline streams.
    #[test]
    fn streamed_decisions_equal_the_formatted_oracle(
        seed in 0u64..u64::MAX,
        a in "[a-zA-Z0-9 ._\u{e9}-]{0,16}",
        b in "[a-z0-9.-]{0,20}",
        n in 0u64..u64::MAX,
        small in 0u64..40,
    ) {
        for profile in profiles() {
            let plane = FaultPlane::new(seed, profile.clone());
            for channel in FaultChannel::ALL {
                let fires = |key: &str| oracle_fires(seed, &profile, channel, key);
                // A whole key.
                prop_assert_eq!(plane.fires_at(plane.key(channel).str(&a)), fires(&a));
                // Tap packets: `{label}/{seq}`, the label hashed at session start.
                let session = plane.key(channel).str(&a);
                prop_assert_eq!(
                    plane.fires_at(session.byte(b'/').u64(n)),
                    fires(&format!("{a}/{n}"))
                );
                // Device calls: `{account}/{skill}/{op}#{n}`.
                let call = plane.key(channel).str(&a).byte(b'/').str(&b).byte(b'/');
                prop_assert_eq!(
                    plane.fires_at(call.str("install").byte(b'#').u64(small)),
                    fires(&format!("{a}/{b}/install#{small}"))
                );
                // Retried attempts: `{key}#{n}`.
                let attempt = plane.key(channel).str(&b).byte(b'#');
                prop_assert_eq!(
                    plane.fires_at(attempt.u64(small)),
                    fires(&format!("{b}#{small}"))
                );
                // Bid losses: `{persona}/{domain}/{iteration}/{idx}`.
                let visit = plane.key(channel).str(&a).byte(b'/').str(&b).byte(b'/');
                let visit = visit.u64(small).byte(b'/');
                prop_assert_eq!(
                    plane.fires_at(visit.u64(n)),
                    fires(&format!("{a}/{b}/{small}/{n}"))
                );
            }
            // Truncation cuts: `{label}/{seq}/cut`.
            let len = (n % 5000) as usize;
            let key = plane.key(FaultChannel::FlowTruncation).str(&a).byte(b'/').u64(small);
            prop_assert_eq!(
                plane.truncated_len_at(key, len),
                oracle_truncated_len(seed, &format!("{a}/{small}"), len)
            );
            let whole = plane.key(FaultChannel::FlowTruncation).str(&b);
            prop_assert_eq!(
                plane.truncated_len_at(whole, len),
                oracle_truncated_len(seed, &b, len)
            );
        }
    }

    // Backoff jitter streams `{seed}␟backoff␟{key}␟{attempt}` and keeps the
    // formatted hash's value.
    #[test]
    fn backoff_equals_the_formatted_oracle(
        seed in 0u64..u64::MAX,
        key in "[a-z/#0-9]{0,24}",
        attempt in 1u32..12,
    ) {
        let p = RetryPolicy::standard();
        let step = attempt - 1;
        let exp = (p.base_delay_ms.saturating_mul(1u64 << step)).min(p.max_delay_ms);
        let text = format!("{seed}\u{1f}backoff\u{1f}{key}\u{1f}{attempt}");
        let u = unit(fnv_loop(0xcbf29ce484222325, text.as_bytes()));
        let oracle = ((exp as f64 * (1.0 + p.jitter * u)) as u64).min(p.max_delay_ms);
        prop_assert_eq!(p.backoff_ms(seed, &key, attempt), oracle);
    }
}
