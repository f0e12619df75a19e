//! Property-based tests for the statistics substrate.

use alexa_stats::{
    five_number_summary_in_place, mann_whitney_u, mean, median_in_place, Alternative, StatsError,
};
use proptest::prelude::*;

fn sample(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6..1e6f64, 1..max_len)
}

/// Type-7 quantile of an ascending slice: the reference the in-place
/// summary must match bit for bit.
fn sorted_quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The rank-biserial coefficient the U test reports.
fn rank_biserial(x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
    mann_whitney_u(x, y, Alternative::TwoSided).map(|r| r.effect_size)
}

proptest! {
    #[test]
    fn mean_within_min_max(xs in sample(64)) {
        let m = mean(&xs).unwrap();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-6 && m <= hi + 1e-6);
    }

    #[test]
    fn median_within_min_max(xs in sample(64)) {
        let m = median_in_place(&mut xs.clone()).unwrap();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo && m <= hi);
    }

    #[test]
    fn summary_equals_stable_sort_reference(
        xs in prop::collection::vec(
            // -8 stands in for -0.0, so signed-zero ties occur.
            (-8i32..8).prop_map(|v| if v == -8 { -0.0 } else { f64::from(v) * 0.25 }),
            1..64,
        ),
    ) {
        // The in-place summary sorts by integer keys; it must return the
        // bits a stable `total_cmp` sort of a copy gives, ties included.
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        let q = |p| sorted_quantile(&sorted, p);
        let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
        let want = [min, q(0.25), q(0.5), q(0.75), max, mean(&sorted).unwrap()];
        let mut owned = xs.clone();
        let s = five_number_summary_in_place(&mut owned).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&owned), bits(&sorted));
        prop_assert_eq!(
            [s.min, s.q1, s.median, s.q3, s.max, s.mean].map(f64::to_bits),
            want.map(f64::to_bits)
        );
    }

    #[test]
    fn summary_is_ordered(xs in sample(64)) {
        let s = five_number_summary_in_place(&mut xs.clone()).unwrap();
        prop_assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.max);
        prop_assert!(s.mean >= s.min && s.mean <= s.max);
    }

    #[test]
    fn shifting_up_never_decreases_effect_size(
        xs in sample(32),
        ys in sample(32),
        shift in 0.0..1e6f64,
    ) {
        let base = rank_biserial(&xs, &ys).unwrap();
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        let after = rank_biserial(&shifted, &ys).unwrap();
        prop_assert!(after >= base - 1e-12);
    }

    #[test]
    fn effect_size_is_antisymmetric(xs in sample(32), ys in sample(32)) {
        let fwd = rank_biserial(&xs, &ys).unwrap();
        let rev = rank_biserial(&ys, &xs).unwrap();
        prop_assert!((fwd + rev).abs() < 1e-9);
    }

    #[test]
    fn p_values_are_probabilities(xs in sample(32), ys in sample(32)) {
        for alt in [Alternative::Greater, Alternative::Less, Alternative::TwoSided] {
            let r = mann_whitney_u(&xs, &ys, alt).unwrap();
            prop_assert!((0.0..=1.0).contains(&r.p_value), "p = {}", r.p_value);
            prop_assert!((-1.0..=1.0).contains(&r.effect_size));
        }
    }

    #[test]
    fn one_sided_tails_cover_everything(xs in sample(24), ys in sample(24)) {
        // P(U ≥ u) + P(U ≤ u) = 1 + P(U = u) ≥ 1; the continuity correction
        // keeps the approximation on the same side.
        let g = mann_whitney_u(&xs, &ys, Alternative::Greater).unwrap();
        let l = mann_whitney_u(&xs, &ys, Alternative::Less).unwrap();
        prop_assert!(g.p_value + l.p_value >= 0.999);
    }

    #[test]
    fn u_statistics_partition_pairs(xs in sample(32), ys in sample(32)) {
        let r = mann_whitney_u(&xs, &ys, Alternative::TwoSided).unwrap();
        let expected = (xs.len() * ys.len()) as f64;
        prop_assert!((r.u1 + r.u2 - expected).abs() < 1e-6);
    }
}
