//! Streaming FNV-1a, the repo's standard structural hash.
//!
//! Fault keys, seeds derived from labels and the observation digest all hash
//! with FNV-1a (offset basis `0xcbf29ce484222325`, prime `0x100000001b3`).
//! [`Fnv1a`] appends bytes, strings and decimal integers to a running
//! state, so a key that used to be `format!`ted into a `String` and then
//! hashed can be streamed without allocating, and its fixed prefix can be
//! hashed once and copied.
//!
//! # Jumping over constant fragments
//!
//! Hashing an `n`-byte fragment costs `n` dependent multiplies. When the
//! fragment is a constant, [`FnvJump`] replaces them with one multiply, one
//! add and one lookup:
//!
//! ```text
//! FNV-1a(h, s) = h·P^n + C_s[h & 0xff]   (mod 2^64)
//! ```
//!
//! Why: one step is `(h ^ b)·P`. XOR with a byte changes only the low 8
//! bits, so `h ^ b = h + δ` where `δ = ((h & 0xff) ^ b) - (h & 0xff)`
//! depends on the low byte of `h` alone, and the step is `h·P + δ·P`.
//! The low byte of a sum or product depends only on the low bytes of its
//! operands, so the low byte after the step is again a function of the low
//! byte before it. By induction, after `n` steps the state is `h·P^n` plus
//! a term `C_s` that depends only on `h & 0xff` — 256 possible values,
//! tabulated at compile time by running the byte loop from every `h < 256`
//! (where `h·P^n` is known and can be subtracted).

use std::fmt;

const OFFSET_BASIS: u64 = 0xcbf29ce484222325;
const PRIME: u64 = 0x100000001b3;

/// A running FNV-1a state.
///
/// Every method appends to the hashed byte stream; [`Fnv1a::finish`] reads
/// the hash of everything appended so far. The state is `Copy`, so a
/// shared prefix is hashed once and each continuation starts from a copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// The empty stream (the FNV offset basis).
    pub const fn new() -> Fnv1a {
        Fnv1a(OFFSET_BASIS)
    }

    /// Continue from an arbitrary state, for hashes seeded with something
    /// other than the offset basis.
    pub const fn with_state(state: u64) -> Fnv1a {
        Fnv1a(state)
    }

    /// FNV-1a over the concatenation of `parts`: the hash of the joined
    /// string, without joining it.
    pub fn hash_parts(parts: &[&str]) -> u64 {
        let mut h = Fnv1a::new();
        for part in parts {
            h.str(part);
        }
        h.finish()
    }

    /// The hash of every byte appended so far.
    pub const fn finish(self) -> u64 {
        self.0
    }

    /// Append one byte.
    #[inline]
    pub fn byte(&mut self, b: u8) -> &mut Fnv1a {
        self.0 = (self.0 ^ b as u64).wrapping_mul(PRIME);
        self
    }

    /// Append a byte string.
    #[inline]
    fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv1a {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
        self.0 = h;
        self
    }

    /// Append a string's UTF-8 bytes.
    #[inline]
    pub fn str(&mut self, s: &str) -> &mut Fnv1a {
        self.bytes(s.as_bytes())
    }

    /// Append `n` in decimal, exactly the bytes `{n}` formats.
    pub fn u64(&mut self, mut n: u64) -> &mut Fnv1a {
        let mut digits = [0u8; 20];
        let mut len = 0;
        for slot in digits.iter_mut().rev() {
            *slot = b'0' + (n % 10) as u8;
            n /= 10;
            len += 1;
            if n == 0 {
                break;
            }
        }
        self.bytes(digits.get(digits.len() - len..).unwrap_or_default())
    }

    /// Append `x` exactly as `{x:?}` formats it.
    ///
    /// Values with `1e-4 ≤ |x| < 1e16`, the plain-decimal range, are written
    /// by an in-tree shortest round-trip writer (see `shortest.rs`) at a
    /// fraction of `core::fmt`'s cost; every other value goes through core.
    pub fn f64_debug(&mut self, x: f64) -> &mut Fnv1a {
        if !crate::shortest::write_debug(x, &mut |piece| {
            self.bytes(piece);
        }) {
            // Fnv1a's fmt::Write never fails.
            let _ = fmt::Write::write_fmt(self, format_args!("{x:?}"));
        }
        self
    }

    /// Append a constant fragment in O(1) (see the module docs).
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "`h & 0xff` < 256, the length of `add`"
    )]
    pub fn jump(&mut self, fragment: &FnvJump) -> &mut Fnv1a {
        self.0 = self
            .0
            .wrapping_mul(fragment.mul)
            .wrapping_add(fragment.add[(self.0 & 0xff) as usize]);
        self
    }
}

/// Formatted text streams straight into the hash, so a `Debug` or
/// `Display` rendering is hashed without being materialized.
impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.str(s);
        Ok(())
    }
}

/// A fragment compiled for [`Fnv1a::jump`]: `P^n` and the 256 low-byte
/// corrections `C_s`. A constant fragment belongs in a `static`, so its
/// 2 KiB table exists once. Building a table at run time costs about as
/// much as hashing the fragment a hundred times byte by byte, so it pays
/// off for a string that is hashed far more often than that.
#[derive(Debug)]
pub struct FnvJump {
    mul: u64,
    add: [u64; 256],
}

impl FnvJump {
    /// Tabulate `fragment`: run the byte loop from each of the 256 low
    /// bytes. The loops run eight at a time, side by side, so at run time
    /// they keep the multiplier busy instead of waiting on each other.
    #[expect(
        clippy::indexing_slicing,
        reason = "const fn: `j` < LANES and `base + j` < 256, the lengths of `lanes` and `add`"
    )]
    pub const fn new(fragment: &str) -> FnvJump {
        const LANES: usize = 8;
        let bytes = fragment.as_bytes();
        let mut mul = 1u64;
        let mut rest = bytes;
        while let [_, tail @ ..] = rest {
            mul = mul.wrapping_mul(PRIME);
            rest = tail;
        }
        let mut add = [0u64; 256];
        let mut base = 0;
        while base < 256 {
            let mut lanes = [0u64; LANES];
            let mut j = 0;
            while j < LANES {
                lanes[j] = (base + j) as u64;
                j += 1;
            }
            let mut rest = bytes;
            while let [b, tail @ ..] = rest {
                let mut j = 0;
                while j < LANES {
                    lanes[j] = (lanes[j] ^ *b as u64).wrapping_mul(PRIME);
                    j += 1;
                }
                rest = tail;
            }
            // `lanes[j]` is FNV-1a(low, fragment) = low·P^n + C_s[low].
            let mut j = 0;
            while j < LANES {
                let low = base + j;
                add[low] = lanes[j].wrapping_sub((low as u64).wrapping_mul(mul));
                j += 1;
            }
            base += LANES;
        }
        FnvJump { mul, add }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    /// The reference byte loop every path must agree with.
    fn loop_hash(state: u64, bytes: &[u8]) -> u64 {
        let mut h = state;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        h
    }

    #[test]
    fn known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Fnv1a::new().finish(), 0xcbf29ce484222325);
        assert_eq!(Fnv1a::new().str("a").finish(), 0xaf63dc4c8601ec8c);
        assert_eq!(Fnv1a::new().str("foobar").finish(), 0x85944171f73967e8);
    }

    #[test]
    fn decimal_matches_display() {
        for n in [0u64, 7, 10, 99, 1234, u64::MAX, 1 << 53] {
            let mut streamed = Fnv1a::new();
            streamed.u64(n);
            assert_eq!(
                streamed.finish(),
                loop_hash(OFFSET_BASIS, n.to_string().as_bytes())
            );
        }
    }

    #[test]
    fn fmt_write_hashes_the_formatted_bytes() {
        let mut h = Fnv1a::new();
        let _ = write!(h, "{:?}|{}", ("x", 1.5f64), 42);
        assert_eq!(h.finish(), loop_hash(OFFSET_BASIS, b"(\"x\", 1.5)|42"));
    }

    #[test]
    fn jump_equals_the_byte_loop() {
        static EMPTY: FnvJump = FnvJump::new("");
        static BID: FnvJump = FnvJump::new("\", slot_id: \"");
        for state in [
            0u64,
            1,
            0xff,
            0x100,
            OFFSET_BASIS,
            u64::MAX,
            0x1234_5678_9abc_def0,
        ] {
            let mut h = Fnv1a::with_state(state);
            h.jump(&BID);
            assert_eq!(h.finish(), loop_hash(state, b"\", slot_id: \""));
            let mut h = Fnv1a::with_state(state);
            h.jump(&EMPTY);
            assert_eq!(h.finish(), state);
            // Tables built at run time, as the digest builds label jumps.
            for len in [1, 7, 8, 9, 40] {
                let text = "caf\u{e9}-0123456789".repeat(3);
                let fragment = &text[..len];
                let mut h = Fnv1a::with_state(state);
                h.jump(&FnvJump::new(fragment));
                assert_eq!(h.finish(), loop_hash(state, fragment.as_bytes()));
            }
        }
    }
}
