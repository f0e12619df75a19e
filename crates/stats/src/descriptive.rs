//! Descriptive statistics: means, medians, quantiles and summaries.
//!
//! These are the primitives behind the bid-value tables (Tables 5, 6, 10)
//! and the box-plot figures (Figures 3, 6, 7). All quantiles use linear
//! interpolation between order statistics (the "type 7" estimator, matching
//! NumPy's default, which the paper's analysis scripts used).

/// Arithmetic mean of a sample. Returns `None` for an empty sample.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Sample median (the 0.5 quantile) of a sample the caller owns, selected
/// in place: no copy, but `xs` is left reordered. Returns `None` for an
/// empty sample.
pub fn median_in_place(xs: &mut [f64]) -> Option<f64> {
    quantile_in_place(xs, 0.5)
}

/// Linear-interpolation quantile (type 7), selected in place: no copy, but
/// `xs` is left reordered. Returns `None` if the sample is empty or `q` is
/// outside `[0, 1]` or not finite.
fn quantile_in_place(xs: &mut [f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    // Type 7 needs at most two adjacent order statistics, so select them in
    // O(n) instead of sorting: the values (and thus the result bits) are the
    // ones a full sort would put at those positions.
    let n = xs.len();
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let (_, &mut at_lo, above) = xs.select_nth_unstable_by(lo, f64::total_cmp);
    if pos == lo as f64 {
        return Some(at_lo);
    }
    let at_hi = above
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .unwrap_or(at_lo);
    let frac = pos - lo as f64;
    Some(at_lo * (1.0 - frac) + at_hi * frac)
}

/// Quantile of an already ascending-sorted slice. An empty slice yields
/// `NaN` (every caller guards for non-emptiness first).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let last = sorted.len().saturating_sub(1);
    let pos = q * last as f64;
    let lo = pos.floor() as usize;
    let hi = (pos.ceil() as usize).min(last);
    match (sorted.get(lo), sorted.get(hi)) {
        (Some(&at_lo), Some(_)) if lo == hi => at_lo,
        (Some(&at_lo), Some(&at_hi)) => {
            let frac = pos - lo as f64;
            at_lo * (1.0 - frac) + at_hi * frac
        }
        _ => f64::NAN,
    }
}

/// Sort ascending in [`f64::total_cmp`] order, in place and unstably.
///
/// Flipping every bit but the sign of a negative float turns its bits, read
/// as an `i64`, into `total_cmp`'s sort key. Sorting those keys by integer
/// comparison takes about half the time of calling `total_cmp` per
/// comparison; the flip is its own inverse, and the sort only moves values,
/// so every bit comes back.
fn sort_total(xs: &mut [f64]) {
    fn flip(x: &mut f64) {
        let bits = x.to_bits() as i64;
        *x = f64::from_bits((bits ^ (((bits >> 63) as u64) >> 1) as i64) as u64);
    }
    xs.iter_mut().for_each(flip);
    xs.sort_unstable_by_key(|x| x.to_bits() as i64);
    xs.iter_mut().for_each(flip);
}

/// A five-number summary plus mean — everything a box plot needs.
///
/// The paper's Figures 3, 6 and 7 are CPM box plots whose boxes span the
/// interquartile range with the median as a solid line and the mean as a
/// dotted line; this struct carries exactly that data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Smallest observation.
    pub min: f64,
    /// First quartile (0.25 quantile).
    pub q1: f64,
    /// Median (0.5 quantile).
    pub median: f64,
    /// Third quartile (0.75 quantile).
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Compute a [`Summary`] of a sample the caller owns, sorted in place: no
/// copy, but `xs` is left sorted. Values `total_cmp` calls equal have equal
/// bits, so an unstable sort yields the same sequence as a stable one, and
/// the mean is summed in that same sorted order. Returns `None` for an
/// empty sample.
pub fn five_number_summary_in_place(xs: &mut [f64]) -> Option<Summary> {
    if xs.is_empty() {
        return None;
    }
    sort_total(xs);
    let sorted = &*xs;
    let (&min, &max) = (sorted.first()?, sorted.last()?);
    Some(Summary {
        n: sorted.len(),
        min,
        q1: quantile_sorted(sorted, 0.25),
        median: quantile_sorted(sorted, 0.5),
        q3: quantile_sorted(sorted, 0.75),
        max,
        mean: mean(sorted)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_of_empty_is_none() {
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn mean_of_constants() {
        assert_eq!(mean(&[3.0, 3.0, 3.0]), Some(3.0));
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median_in_place(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_in_place(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn quantile_bounds() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_in_place(&mut xs.clone(), 0.0), Some(1.0));
        assert_eq!(quantile_in_place(&mut xs.clone(), 1.0), Some(4.0));
        assert_eq!(quantile_in_place(&mut xs.clone(), 1.5), None);
        assert_eq!(quantile_in_place(&mut xs.clone(), -0.1), None);
    }

    #[test]
    fn quantile_interpolates() {
        // numpy.quantile([1,2,3,4], 0.25) == 1.75 with the type-7 estimator.
        let q = quantile_in_place(&mut [1.0, 2.0, 3.0, 4.0], 0.25).unwrap();
        assert!((q - 1.75).abs() < 1e-12);
    }

    #[test]
    fn summary_matches_parts() {
        let s = five_number_summary_in_place(&mut [5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
    }

    #[test]
    fn summary_single_element() {
        let s = five_number_summary_in_place(&mut [7.5]).unwrap();
        assert_eq!(s.min, 7.5);
        assert_eq!(s.q1, 7.5);
        assert_eq!(s.median, 7.5);
        assert_eq!(s.q3, 7.5);
        assert_eq!(s.max, 7.5);
    }

    /// The reference the in-place variants must match bit for bit: a stable
    /// `total_cmp` sort of a copy, its type-7 quantiles and its mean.
    fn reference(xs: &[f64]) -> (Vec<f64>, [u64; 6]) {
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        let q = |p| quantile_sorted(&sorted, p);
        let want = [
            sorted[0],
            q(0.25),
            q(0.5),
            q(0.75),
            sorted[sorted.len() - 1],
            mean(&sorted).unwrap(),
        ];
        (sorted, want.map(f64::to_bits))
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn summary_bits(s: &Summary) -> [u64; 6] {
        [s.min, s.q1, s.median, s.q3, s.max, s.mean].map(f64::to_bits)
    }

    /// The in-place variants return exactly the bits of the sorted-copy
    /// reference, and leave the sample sorted.
    fn assert_in_place_matches(xs: &[f64]) {
        let (sorted, want) = reference(xs);
        let mut owned = xs.to_vec();
        let in_place = five_number_summary_in_place(&mut owned).unwrap();
        assert_eq!(in_place.n, xs.len(), "{xs:?}");
        assert_eq!(summary_bits(&in_place), want, "{xs:?}");
        assert_eq!(bits(&owned), bits(&sorted), "{xs:?}");
        assert_eq!(
            median_in_place(&mut xs.to_vec()).map(f64::to_bits),
            Some(quantile_sorted(&sorted, 0.5).to_bits()),
            "{xs:?}"
        );
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(
                quantile_in_place(&mut xs.to_vec(), q).map(f64::to_bits),
                Some(quantile_sorted(&sorted, q).to_bits()),
                "{xs:?} q={q}"
            );
        }
    }

    #[test]
    fn in_place_variants_match_copies_on_tiny_samples() {
        assert_in_place_matches(&[2.5]);
        assert_in_place_matches(&[3.0, -1.0]);
        assert_in_place_matches(&[-1.0, 3.0]);
    }

    #[test]
    fn in_place_variants_match_copies_with_duplicates() {
        assert_in_place_matches(&[2.0, 2.0, 2.0]);
        assert_in_place_matches(&[1.0, 3.0, 1.0, 3.0, 2.0, 1.0]);
        assert_in_place_matches(&[0.1, 0.2, 0.1, 0.30000000000000004, 0.3]);
    }

    #[test]
    fn in_place_variants_match_copies_with_signed_zero_ties() {
        // total_cmp orders -0.0 before +0.0, so the sorted bits are fixed
        // even though the two compare equal as numbers.
        assert_in_place_matches(&[0.0, -0.0]);
        assert_in_place_matches(&[-0.0, 0.0, -0.0, 0.0, 1.0]);
        let mut xs = [0.0, -0.0, 0.0];
        let s = five_number_summary_in_place(&mut xs).unwrap();
        assert_eq!(s.min.to_bits(), (-0.0f64).to_bits());
        assert_eq!(s.max.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn sort_total_matches_total_cmp_on_special_values() {
        let mut xs = [
            f64::NAN,
            1.5,
            -0.0,
            f64::INFINITY,
            -f64::NAN,
            0.0,
            -1.5,
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE / 2.0,
            f64::NEG_INFINITY,
            1.5,
        ];
        let mut want = xs;
        want.sort_by(f64::total_cmp);
        sort_total(&mut xs);
        assert_eq!(xs.map(f64::to_bits), want.map(f64::to_bits));
    }

    #[test]
    fn in_place_variants_of_empty_samples_are_none() {
        assert_eq!(five_number_summary_in_place(&mut []), None);
        assert_eq!(median_in_place(&mut []), None);
        assert_eq!(quantile_in_place(&mut [1.0], 1.5), None);
    }

    fn sample(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec(-1e6..1e6f64, 1..max_len)
    }

    proptest! {
        #[test]
        fn quantiles_are_monotone(xs in sample(64), q1 in 0.0..1.0f64, q2 in 0.0..1.0f64) {
            let (lo_q, hi_q) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let lo = quantile_in_place(&mut xs.clone(), lo_q).unwrap();
            let hi = quantile_in_place(&mut xs.clone(), hi_q).unwrap();
            prop_assert!(lo <= hi + 1e-9);
        }

        #[test]
        fn selected_quantile_equals_sorted_quantile(
            xs in prop::collection::vec((-8i32..8).prop_map(|v| f64::from(v) * 0.5), 1..64),
            q in (0u32..101).prop_map(|k| f64::from(k) / 100.0),
        ) {
            // quantile_in_place() selects order statistics instead of
            // sorting; ties included, it must return the exact bits a full
            // sort gives.
            let mut sorted = xs.clone();
            sorted.sort_by(f64::total_cmp);
            prop_assert_eq!(
                quantile_in_place(&mut xs.clone(), q).unwrap().to_bits(),
                quantile_sorted(&sorted, q).to_bits()
            );
        }
    }
}
