//! `alexa-fault` — the deterministic fault plane for the audit pipeline.
//!
//! The paper's measurement campaign was lossy in ways a perfect simulation
//! hides: skills failed to enable, crawled prebid sites timed out, and 4 of
//! the marketplace policy pages could not be downloaded at all (§7.2). This
//! crate injects those failure modes *deterministically* so the pipeline can
//! be exercised — and its graceful-degradation paths tested — without
//! giving up the repo's core contract that a fixed `(seed, profile)` yields
//! byte-identical output for any `--jobs` value.
//!
//! Three design rules make that possible:
//!
//! 1. **Stateless decisions.** [`FaultPlane::fires_at`] is a pure hash of
//!    `(seed, channel, structural key)` compared against the profile's rate
//!    for that channel. There is no RNG stream to advance, so consulting the
//!    plane never perturbs the simulation's own randomness, and a rate of
//!    zero is *exactly* the unfaulted pipeline.
//! 2. **Structural keys.** Callers key decisions by what the work *is*
//!    (persona/skill/attempt, site/iteration/slot), never by when or where
//!    it ran, so scheduling across worker threads cannot change outcomes.
//! 3. **Virtual time.** Retry backoff delays are computed and accounted for
//!    but never slept, so fault-heavy runs stay fast and wall-clock never
//!    leaks into observables.

#![deny(clippy::indexing_slicing)]
#![deny(unreachable_pub)]

mod coverage;
mod fnv;
mod plane;
mod profile;
mod retry;
mod shortest;

pub use coverage::{Coverage, CoverageReport, FaultLedger};
pub use fnv::{Fnv1a, FnvJump};
pub use plane::{FaultKey, FaultPlane};
pub use profile::{FaultChannel, FaultProfile, ProfileParseError};
pub use retry::{retry, RetryBudget, RetryOutcome, RetryPolicy};

/// SplitMix64 finalizer: decorrelates structurally-close keys (adjacent
/// packet indices, consecutive attempts) so per-channel rates hold locally,
/// not just in aggregate.
pub(crate) fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Map a hash to a unit-interval sample in `[0, 1)`.
pub(crate) fn unit(h: u64) -> f64 {
    // 53 high bits → f64 mantissa, the usual unbiased construction.
    (mix(h) >> 11) as f64 / (1u64 << 53) as f64
}
