//! Self-contained deterministic PRNG with a `rand`-0.8-shaped surface.
//!
//! The workspace builds in fully offline environments, so instead of the
//! crates.io `rand` crate we ship this minimal substitute and alias it to the
//! `rand` dependency name in the workspace manifest. Only the surface the
//! codebase actually uses is provided:
//!
//! * [`rngs::StdRng`] — an xoshiro256++ generator seeded through SplitMix64,
//!   constructed with [`SeedableRng::seed_from_u64`];
//! * [`Rng::gen_range`] over integer and float ranges, [`Rng::gen_bool`];
//! * [`seq::SliceRandom`] — Fisher–Yates [`seq::SliceRandom::shuffle`] and
//!   [`seq::SliceRandom::choose`].
//!
//! Every draw is a pure function of the seed: two generators seeded equally
//! produce identical streams on every platform (no `getrandom`, no OS
//! entropy), which is exactly the bit-identical-seed invariant the audit
//! engine is built on.

#![deny(clippy::indexing_slicing)]

/// Construction of a generator from seed material.
pub trait SeedableRng: Sized {
    /// Build a generator whose entire stream is a function of `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// The raw output interface of a generator.
pub trait RngCore {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform draw from `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64) * (1.0 / ((1u64 << 53) as f64))
    }
}

/// High-level sampling helpers, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform draw from a range; panics on an empty range.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.next_f64() < p
    }
}

impl<T: RngCore> Rng for T {}

/// A range that knows how to draw a uniform sample of type `T` from itself.
///
/// Generic over the output (mirroring `rand`) so integer-literal ranges infer
/// their type from how the sampled value is used, not from fallback.
pub trait SampleRange<T> {
    /// Draw one uniform sample. Panics if the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),* $(,)?) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let draw = (rng.next_u64() as u128) % span;
                (self.start as i128 + draw as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range on empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let draw = (rng.next_u64() as u128) % span;
                (start as i128 + draw as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range on empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl SampleRange<f32> for core::ops::Range<f32> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "gen_range on empty range");
        self.start + (rng.next_f64() as f32) * (self.end - self.start)
    }
}

/// Generator implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ generator, seeded via SplitMix64.
    ///
    /// Named `StdRng` for drop-in compatibility with the `rand` crate's
    /// seeded-generator spelling; the algorithm differs from `rand`'s
    /// (ChaCha12) but the contract the workspace relies on — identical seed,
    /// identical stream, forever — is the same.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> StdRng {
            let mut sm = state;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let out = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }
}

/// Sequence-related sampling (shuffling, choosing).
pub mod seq {
    use super::RngCore;

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Slice element type.
        type Item;
        /// Uniform in-place Fisher–Yates shuffle.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
        /// A uniformly chosen element, or `None` for an empty slice.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get((rng.next_u64() % self.len() as u64) as usize)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let u = rng.gen_range(3..17usize);
            assert!((3..17).contains(&u));
            let i = rng.gen_range(-5..=5i32);
            assert!((-5..=5).contains(&i));
            let f = rng.gen_range(-1.0..1.0f64);
            assert!((-1.0..1.0).contains(&f));
            let r = rng.gen_range(5..400u32);
            assert!((5..400).contains(&r));
        }
    }

    #[test]
    fn unit_floats_cover_zero_one() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
            lo = lo.min(f);
            hi = hi.max(f);
        }
        assert!(lo < 0.01 && hi > 0.99);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits {hits}");
        assert_eq!((0..100).filter(|_| rng.gen_bool(0.0)).count(), 0);
        assert_eq!((0..100).filter(|_| rng.gen_bool(1.0)).count(), 100);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice in order");
    }

    #[test]
    fn choose_hits_every_element() {
        let mut rng = StdRng::seed_from_u64(3);
        let v = [1, 2, 3, 4];
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            seen.insert(*v.choose(&mut rng).unwrap());
        }
        assert_eq!(seen.len(), 4);
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }
}
