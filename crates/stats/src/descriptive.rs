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

/// Sample median (the 0.5 quantile). Returns `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile (type 7). `q` must be within `[0, 1]`.
///
/// Returns `None` if the sample is empty or `q` is out of range / not finite.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    // Type 7 needs at most two adjacent order statistics, so select them in
    // O(n) instead of sorting: the values (and thus the result bits) are the
    // ones a full sort would put at those positions.
    let mut xs: Vec<f64> = xs.to_vec();
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
/// `NaN` (every in-crate caller guards for non-emptiness first).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let Some(&first) = sorted.first() else {
        return f64::NAN;
    };
    if n == 1 {
        return first;
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (pos.ceil() as usize).min(n - 1);
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Unbiased (n−1 denominator) sample variance. `None` if fewer than 2 points.
pub fn variance(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    let ss: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    Some(ss / (xs.len() - 1) as f64)
}

/// Sample standard deviation. `None` if fewer than 2 points.
pub fn stddev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
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

impl Summary {
    /// Interquartile range (`q3 − q1`).
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Compute a [`Summary`] for a sample. Returns `None` for an empty sample.
pub fn five_number_summary(xs: &[f64]) -> Option<Summary> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let (&min, &max) = (sorted.first()?, sorted.last()?);
    Some(Summary {
        n: sorted.len(),
        min,
        q1: quantile_sorted(&sorted, 0.25),
        median: quantile_sorted(&sorted, 0.5),
        q3: quantile_sorted(&sorted, 0.75),
        max,
        mean: mean(&sorted)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn quantile_bounds() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&xs, 1.5), None);
        assert_eq!(quantile(&xs, -0.1), None);
    }

    #[test]
    fn quantile_interpolates() {
        // numpy.quantile([1,2,3,4], 0.25) == 1.75 with the type-7 estimator.
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0], 0.25).unwrap() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn variance_and_stddev() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        // Known example: population variance 4, sample variance 32/7.
        assert!((variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!((stddev(&xs).unwrap() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(variance(&[1.0]), None);
    }

    #[test]
    fn summary_matches_parts() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        let s = five_number_summary(&xs).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.iqr(), 2.0);
    }

    #[test]
    fn summary_single_element() {
        let s = five_number_summary(&[7.5]).unwrap();
        assert_eq!(s.min, 7.5);
        assert_eq!(s.q1, 7.5);
        assert_eq!(s.median, 7.5);
        assert_eq!(s.q3, 7.5);
        assert_eq!(s.max, 7.5);
    }
}
