//! The stateless fault oracle.

use crate::fnv::Fnv1a;
use crate::profile::{FaultChannel, FaultProfile};
use crate::unit;

/// A deterministic fault oracle: pure function of `(seed, profile, channel,
/// structural key)`.
///
/// The plane holds no mutable state and no RNG stream — every decision is
/// an independent hash — so it can be cloned freely into worker shards and
/// consulted in any order without affecting determinism. With the `none`
/// profile every query answers "no fault" and the pipeline is bit-identical
/// to one that never consulted the plane.
///
/// A decision hashes the byte stream `{seed}\u{1f}{channel label}\u{1f}{key}`
/// with FNV-1a. The stream is never materialized: the per-channel prefix is
/// hashed once when the plane is built, and callers append their key parts
/// to a [`FaultKey`].
#[derive(Debug, Clone)]
pub struct FaultPlane {
    profile: FaultProfile,
    /// `{seed}\u{1f}{label}\u{1f}` hashed, per channel in
    /// [`FaultChannel::ALL`] order.
    prefixes: [Fnv1a; 7],
}

/// A structural fault key under construction: a channel plus the hash of
/// the decision stream so far.
///
/// Keys are built by appending parts, so a site that decides many items
/// under one fixed prefix (a tap session's packets, a visit's bids) hashes
/// the prefix once and copies the state per item:
///
/// ```
/// use alexa_fault::{FaultChannel, FaultPlane, FaultProfile};
///
/// let plane = FaultPlane::new(7, FaultProfile::hostile());
/// let session = plane.key(FaultChannel::PacketDrop).str("skill-12");
/// let streamed = plane.fires_at(session.byte(b'/').u64(3));
/// let whole = plane.key(FaultChannel::PacketDrop).str("skill-12/3");
/// assert_eq!(streamed, plane.fires_at(whole));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FaultKey {
    channel: FaultChannel,
    hash: Fnv1a,
}

impl FaultKey {
    /// Append a string part.
    #[must_use]
    pub fn str(mut self, part: &str) -> FaultKey {
        self.hash.str(part);
        self
    }

    /// Append one byte (a separator such as `/` or `#`).
    #[must_use]
    pub fn byte(mut self, b: u8) -> FaultKey {
        self.hash.byte(b);
        self
    }

    /// Append an integer in decimal (the bytes `{n}` formats).
    #[must_use]
    pub fn u64(mut self, n: u64) -> FaultKey {
        self.hash.u64(n);
        self
    }
}

impl FaultPlane {
    /// A plane for one run. The seed should be derived from the audit seed
    /// so fault placement varies with it.
    pub fn new(seed: u64, profile: FaultProfile) -> FaultPlane {
        let prefixes = FaultChannel::ALL.map(|channel| {
            let mut h = Fnv1a::new();
            h.u64(seed).byte(0x1f).str(channel.label()).byte(0x1f);
            h
        });
        FaultPlane { profile, prefixes }
    }

    /// A plane that never fires (the `none` profile).
    pub fn disabled() -> FaultPlane {
        FaultPlane::new(0, FaultProfile::none())
    }

    /// The profile driving this plane.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Whether any channel can fire.
    pub fn is_active(&self) -> bool {
        self.profile.is_active()
    }

    /// An empty key on `channel`, ready for its structural parts.
    #[expect(
        clippy::indexing_slicing,
        reason = "`index()` is a position in FaultChannel::ALL, one prefix per entry"
    )]
    pub fn key(&self, channel: FaultChannel) -> FaultKey {
        FaultKey {
            channel,
            hash: self.prefixes[channel.index()],
        }
    }

    /// Does the fault on the key's channel fire for this structural key?
    ///
    /// Keys must name the work structurally (e.g. `"Fashion/skill-12#2"` for
    /// the second install attempt of a skill), never positionally, so the
    /// answer is independent of thread scheduling. Decisions are *nested in
    /// rate*: if a key fires at rate `r` it also fires at every rate above
    /// `r`, which is what makes coverage decrease monotonically across
    /// profile tiers.
    pub fn fires_at(&self, key: FaultKey) -> bool {
        let rate = self.profile.rate(key.channel);
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        unit(key.hash.finish()) < rate
    }

    /// Truncated length for a flow of `len` units when
    /// [`FaultChannel::FlowTruncation`] fires on `key` (as passed to
    /// [`FaultPlane::fires_at`]): a deterministic cut keeping 25–75% of the
    /// flow (at least one unit of a non-empty flow, so a truncated flow is
    /// still observed). The cut is sampled from the same key extended by
    /// `/cut`.
    pub fn truncated_len_at(&self, key: FaultKey, len: usize) -> usize {
        debug_assert_eq!(key.channel, FaultChannel::FlowTruncation);
        if len == 0 {
            return 0;
        }
        let keep = 0.25 + 0.5 * unit(key.str("/cut").hash.finish());
        ((len as f64 * keep) as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `plane` fires on `channel` for the whole key `key`.
    fn fires(plane: &FaultPlane, channel: FaultChannel, key: &str) -> bool {
        plane.fires_at(plane.key(channel).str(key))
    }

    #[test]
    fn disabled_plane_never_fires() {
        let plane = FaultPlane::disabled();
        for ch in FaultChannel::ALL {
            for i in 0..200 {
                assert!(!fires(&plane, ch, &format!("key-{i}")));
            }
        }
    }

    #[test]
    fn full_rate_always_fires() {
        let plane = FaultPlane::new(7, FaultProfile::uniform(1.0));
        for ch in FaultChannel::ALL {
            assert!(fires(&plane, ch, "anything"));
        }
    }

    #[test]
    fn decisions_are_stable_and_key_dependent() {
        let plane = FaultPlane::new(1234, FaultProfile::hostile());
        let a: Vec<bool> = (0..100)
            .map(|i| fires(&plane, FaultChannel::CrawlTimeout, &format!("site-{i}")))
            .collect();
        let b: Vec<bool> = (0..100)
            .map(|i| fires(&plane, FaultChannel::CrawlTimeout, &format!("site-{i}")))
            .collect();
        assert_eq!(a, b, "same key must always answer the same");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
    }

    #[test]
    fn rates_nest_across_profiles() {
        // A key that fires at a low rate must also fire at any higher rate.
        let low = FaultPlane::new(42, FaultProfile::flaky());
        let high = FaultPlane::new(42, FaultProfile::hostile());
        for i in 0..500 {
            let key = format!("k{i}");
            for ch in FaultChannel::ALL {
                if fires(&low, ch, &key) {
                    assert!(fires(&high, ch, &key));
                }
            }
        }
    }

    #[test]
    fn empirical_rate_tracks_profile() {
        let plane = FaultPlane::new(9, FaultProfile::uniform(0.3));
        let n = 4000;
        let hits = (0..n)
            .filter(|i| fires(&plane, FaultChannel::PacketDrop, &format!("p{i}")))
            .count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "observed {rate}");
    }

    #[test]
    fn truncation_keeps_a_bounded_nonzero_prefix() {
        let plane = FaultPlane::new(5, FaultProfile::hostile());
        for len in [1usize, 2, 10, 1000] {
            for i in 0..50 {
                let key = plane
                    .key(FaultChannel::FlowTruncation)
                    .str(&format!("f{i}"));
                let t = plane.truncated_len_at(key, len);
                assert!(t >= 1 && t <= (len * 3).div_ceil(4), "len {len} -> {t}");
            }
        }
        let key = plane.key(FaultChannel::FlowTruncation).str("x");
        assert_eq!(plane.truncated_len_at(key, 0), 0);
    }

    #[test]
    fn seed_moves_fault_placement() {
        let a = FaultPlane::new(7, FaultProfile::degraded());
        let b = FaultPlane::new(8, FaultProfile::degraded());
        let pattern = |p: &FaultPlane| -> Vec<bool> {
            (0..200)
                .map(|i| fires(p, FaultChannel::InstallFailure, &format!("s{i}")))
                .collect()
        };
        assert_ne!(pattern(&a), pattern(&b));
    }
}
