//! Core's `{:?}` text of an `f64`, written without `core::fmt`.
//!
//! `Debug` for `f64` prints the shortest decimal that parses back to the
//! same value; values with `1e-4 ≤ |x| < 1e16` are written in plain
//! decimal notation with at least one fractional digit (`2.47`, `1.0`,
//! `0.0001`, `123456.7`). This module produces those bytes with Ryu's
//! `d2d` (Adams, "Ryū: fast float-to-string conversion", PLDI 2018): the
//! value is scaled by a power of five with 128-bit products, then decimal
//! digits are dropped while the interval of values that round to `x` still
//! holds a shorter candidate.
//!
//! One rule differs from the published algorithm: when two shortest
//! candidates are equally close to `x` (the dropped digits are exactly
//! `50…0`), Ryu takes the even one and core takes the larger one
//! (`2245283724502637.25` prints as `…637.3`). This writer follows core.
//!
//! In that range the binary exponent `e2` of `x = 4·m2·2^e2` (Ryu's
//! convention) is always negative, so only the table of
//! positive powers of five is needed, and only its first entries, which
//! fit a `u128` exactly. The table is computed at compile time. Everything
//! outside the range (zero, subnormals, NaN, the infinities and the
//! exponent notation) is left to core: [`write_debug`] returns `false`.

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Bits of every scaled power of five in [`POW5`].
const POW5_BITS: i32 = 125;
/// Powers of five the fast range reaches: `i = -e2 - q` stays below this
/// for every `x` with `1e-4 ≤ |x| < 1e16` (a test walks every exponent).
const POW5_LEN: usize = 24;

/// `5^i · 2^(125 - pow5bits(i))`, exact: `5^i` shifted to 125 bits.
static POW5: [u128; POW5_LEN] = pow5_table();

#[expect(
    clippy::indexing_slicing,
    reason = "const fn: `i < POW5_LEN`, the table's length"
)]
const fn pow5_table() -> [u128; POW5_LEN] {
    let mut table = [0u128; POW5_LEN];
    let mut power = 1u128;
    let mut i = 0;
    while i < POW5_LEN {
        table[i] = power << (POW5_BITS - pow5bits(i as i32)) as u32;
        power *= 5;
        i += 1;
    }
    table
}

/// `⌈log2 5^e⌉` (and 1 for `e = 0`): the bit length of `5^e`.
const fn pow5bits(e: i32) -> i32 {
    (((e as u32) * 1217359) >> 19) as i32 + 1
}

/// `⌊log10 5^e⌋`.
fn log10_pow5(e: i32) -> u32 {
    ((e as u32) * 732923) >> 20
}

/// `⌊m · mul / 2^j⌋` for `m < 2^64`, `mul < 2^128` and `j ≥ 64`.
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let low = (m as u128) * (mul as u64 as u128);
    let high = (m as u128) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest `(digits, exp)` with `digits · 10^exp` parsing back to the
/// positive normal `x`, the closer one of two (ties up), or `None` when
/// `x`'s binary exponent is outside the table.
fn shortest(x: f64) -> Option<(u64, i32)> {
    let bits = x.to_bits();
    let ieee_mantissa = bits & ((1u64 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as i32;
    let e2 = ieee_exponent - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2;
    if ieee_exponent == 0 || e2 >= 0 {
        return None;
    }
    let m2 = (1u64 << MANTISSA_BITS) | ieee_mantissa;
    // The interval of values that parse back to `x`, scaled by 4:
    // [mv - 1 - mm_shift, mv + 2], narrower below a power of two. Parsing
    // rounds to even, so the ends belong to `x` iff its mantissa is even.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let accept_bounds = m2.is_multiple_of(2);

    let q = log10_pow5(-e2) - u32::from(-e2 > 1);
    let e10 = q as i32 + e2;
    let i = -e2 - q as i32;
    let mul = *POW5.get(usize::try_from(i).ok()?)?;
    let j = u32::try_from(q as i32 - (pow5bits(i) - POW5_BITS)).ok()?;
    let mut vr = mul_shift(mv, mul, j);
    let mut vp = mul_shift(mv + 2, mul, j);
    let mut vm = mul_shift(mv - 1 - mm_shift, mul, j);
    // For q ≤ 1 the products are exact, so an excluded upper end must be
    // stepped off. Ryu also tracks whether the exact lower end `vm` may be
    // the answer; in this range it never is (scaled, it ends in 5, or,
    // above 2^53, is one below the even `vr`), so that bookkeeping is left
    // out and the tests pin the result.
    if q <= 1 && !accept_bounds {
        vp -= 1;
    }

    // Drop digits while the interval still holds a shorter candidate, two
    // at a time first. Only the first dropped digit decides the rounding:
    // ties round up, so the digits after it never matter.
    let mut removed = 0;
    let mut last_removed = 0;
    if vp / 100 > vm / 100 {
        last_removed = vr % 100 / 10;
        vr /= 100;
        vp /= 100;
        vm /= 100;
        removed += 2;
    }
    while vp / 10 > vm / 10 {
        last_removed = vr % 10;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    // Core rounds an exact tie up; Ryu would test `vr` for evenness here.
    // `vr` is below the interval when it equals the excluded `vm`.
    let round_up = last_removed >= 5 || vr == vm;
    Some((vr + u64::from(round_up), e10 + removed))
}

/// Zeros to pad with: at most 3 after `0.`, at most 15 before `.0`.
const ZEROS: [u8; 16] = [b'0'; 16];

/// The 17 decimal digits of `n < 10^17`, zero-padded (a larger `n`
/// yields a non-digit first byte). The digits come
/// from a tree of divisions (by 10^8, 10^4, 100, 10) rather than one chain
/// of 17, so they are computed side by side.
fn seventeen_digits(n: u64) -> [u8; 17] {
    fn eight(n: u32) -> [u32; 8] {
        let (a, b) = (n / 10_000, n % 10_000);
        let (p, q, r, s) = (a / 100, a % 100, b / 100, b % 100);
        [
            p / 10,
            p % 10,
            q / 10,
            q % 10,
            r / 10,
            r % 10,
            s / 10,
            s % 10,
        ]
    }
    let high = n / 100_000_000;
    let [h0, h1, h2, h3, h4, h5, h6, h7] = eight((high % 100_000_000) as u32);
    let [l0, l1, l2, l3, l4, l5, l6, l7] = eight((n % 100_000_000) as u32);
    let top = (high / 100_000_000) as u32;
    [
        top, h0, h1, h2, h3, h4, h5, h6, h7, l0, l1, l2, l3, l4, l5, l6, l7,
    ]
    .map(|d| b'0' + d as u8)
}

/// Pass `emit` the pieces of exactly what `format!("{x:?}")` prints, in
/// order, for finite `x` with `1e-4 ≤ |x| < 1e16`. Returns `false`, having
/// emitted nothing, for every other `x`.
pub(crate) fn write_debug(x: f64, emit: &mut impl FnMut(&[u8])) -> bool {
    if !(1e-4..1e16).contains(&x.abs()) {
        return false;
    }
    let Some((output, exp)) = shortest(x.abs()) else {
        return false;
    };
    let all = seventeen_digits(output);
    let len = output.checked_ilog10().map_or(1, |l| l as usize + 1);
    // `x = 0.d1 d2 … dn · 10^point`: zeros go after `0.` when the point
    // is left of the digits, before `.0` when it is right of them.
    let point = len as i32 + exp;
    let zeros = if point <= 0 {
        point.unsigned_abs() as usize
    } else {
        (point as usize).saturating_sub(len)
    };
    // A shortest `f64` has at most 17 digits, and the range bounds the
    // zeros; anything else is left to core rather than printed wrong.
    let (Some(digits), Some(pad)) = (all.get(all.len().wrapping_sub(len)..), ZEROS.get(..zeros))
    else {
        return false;
    };
    if x.is_sign_negative() {
        emit(b"-");
    }
    if point <= 0 {
        emit(b"0.");
        emit(pad);
        emit(digits);
    } else if let Some((int, frac)) = digits.split_at_checked(point as usize) {
        emit(int);
        if frac.is_empty() {
            emit(b".0");
        } else {
            emit(b".");
            emit(frac);
        }
    } else {
        emit(digits);
        emit(pad);
        emit(b".0");
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The writer's text for `x`, or `None` outside its range.
    fn debug_text(x: f64) -> Option<String> {
        let mut text = Vec::new();
        write_debug(x, &mut |piece| text.extend_from_slice(piece))
            .then(|| String::from_utf8(text).unwrap())
    }

    fn check(x: f64) {
        let want = format!("{x:?}");
        match debug_text(x) {
            Some(text) => assert_eq!(text, want, "bits {:#018x}", x.to_bits()),
            None => assert!(
                !(1e-4..1e16).contains(&x.abs()),
                "{want} ({:#018x}) left the fast path",
                x.to_bits()
            ),
        }
    }

    /// SplitMix64, the generator the drift guards draw from.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
    }

    /// Bit patterns whose exponent lands in the fast range.
    fn in_range_bits(r: &mut SplitMix) -> f64 {
        let exponent = 1009 + r.next() % 68;
        let sign = r.next() & (1 << 63);
        f64::from_bits(sign | exponent << MANTISSA_BITS | (r.next() & ((1u64 << 52) - 1)))
    }

    #[test]
    fn the_table_holds_exact_125_bit_powers() {
        let mut power = 1u128;
        for (i, &entry) in POW5.iter().enumerate() {
            assert_eq!(
                128 - power.leading_zeros(),
                pow5bits(i as i32) as u32,
                "5^{i}"
            );
            assert_eq!(128 - entry.leading_zeros(), POW5_BITS as u32, "5^{i}");
            assert_eq!(entry >> entry.trailing_zeros(), power, "5^{i}");
            power *= 5;
        }
    }

    #[test]
    fn every_exponent_in_range_takes_the_fast_path() {
        for exponent in 1000u64..1090 {
            for mantissa in [0, 1, (1u64 << 52) - 1, 0x8_0000_0000_0000] {
                let x = f64::from_bits(exponent << MANTISSA_BITS | mantissa);
                if (1e-4..1e16).contains(&x) {
                    assert!(debug_text(x).is_some(), "{x:?}");
                }
                check(x);
                check(-x);
            }
        }
    }

    #[test]
    fn edges_and_specials_match_debug() {
        let edges = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            0.30000000000000004,
            2.47,
            1.5,
            0.5,
            100.0,
            123456.7,
            1e15,
            9999999999999998.0,
            1e-5,
            5e-324,
            2.2250738585072014e-308,
            2.2250738585072014e-308 / 3.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
        ];
        for x in edges {
            check(x);
        }
    }

    #[test]
    fn both_sides_of_the_notation_boundaries_match_debug() {
        for edge in [1e-4f64, 1e16] {
            let mut x = edge;
            let mut y = edge;
            for _ in 0..64 {
                check(x);
                check(-x);
                check(y);
                check(-y);
                x = x.next_up();
                y = y.next_down();
            }
        }
    }

    #[test]
    fn ties_between_two_shortest_candidates_round_up() {
        // Between 2^50 and 2^53 the spacing is 1/4, 1/2 or 1, so values
        // ending in .25/.75 (and .5 between 2^51 and 2^52) are exact ties
        // for their last digit.
        assert_eq!(
            debug_text(2245283724502637.0 + 0.25).unwrap(),
            "2245283724502637.3"
        );
        let mut r = SplitMix(0x7e5);
        for scale in 50..=53 {
            let base = 2f64.powi(scale);
            for _ in 0..5_000 {
                let offset = (r.next() % (1 << 40)) as f64;
                for frac in [0.0, 0.25, 0.5, 0.75] {
                    check(base + offset + frac);
                    check(-(base + offset + frac));
                }
            }
        }
    }

    #[test]
    fn powers_of_two_and_ten_match_debug() {
        for e in -14..54 {
            check(2f64.powi(e));
            check(2f64.powi(e).next_up());
            check(2f64.powi(e).next_down());
        }
        for e in -4..16 {
            let x = 10f64.powi(e);
            check(x);
            check(x.next_up());
            check(x.next_down());
        }
    }

    #[test]
    fn splitmix_bit_patterns_match_debug() {
        let mut r = SplitMix(42);
        for _ in 0..100_000 {
            check(f64::from_bits(r.next()));
            check(in_range_bits(&mut r));
        }
    }

    #[test]
    fn cpm_range_values_match_debug() {
        // Bid CPMs: a few cents to a few dollars, products of a lognormal
        // draw, premiums and floors, so full 15–17 digit mantissas.
        let mut r = SplitMix(7);
        for _ in 0..100_000 {
            let u = (r.next() >> 11) as f64 / (1u64 << 53) as f64;
            check(0.01 + 20.0 * u);
            check((0.01 + 20.0 * u) * 1.15);
            check((u * 1000.0).round() / 100.0);
        }
    }

    /// The release sweep: 10M more bit patterns, a quarter of them
    /// anywhere in `f64`, the rest in the fast range.
    #[test]
    #[ignore = "release sweep, ~10 s: cargo test --release -p alexa-fault -- --ignored"]
    fn ten_million_values_match_debug() {
        let mut r = SplitMix(0xd1ce);
        for _ in 0..2_500_000 {
            check(f64::from_bits(r.next()));
            check(in_range_bits(&mut r));
            check(in_range_bits(&mut r));
            check(in_range_bits(&mut r));
        }
    }
}
