//! Order statistics and span arithmetic.

/// The nearest-rank `p`-th percentile of `samples` (unsorted, non-empty):
/// the smallest sample with at least `p`% of all samples at or below it.
pub fn nearest_rank(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond the nearest-rank `p`-th percentile.
/// A tail percentile is only worth reporting when this is at least ten.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(samples, n=4)` (the "exclusive" method).
/// A single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n == 1 {
        return (data[0], data[0], data[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The mean of the middle half of the samples (the whole sample when there
/// are fewer than four): as robust to a cold first item as the median, but
/// it keeps the resolution of every sample it averages, where a median of
/// microsecond-rounded times is itself a rounded time.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let cut = data.len() / 4;
    let middle = &data[cut..data.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(samples: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// A span's self time: its duration minus the part of `[start, end)` that
/// the union of its children's intervals covers. Children may nest or
/// overlap each other; parts outside the span are ignored.
pub fn self_time(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = start;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&samples, 50.0), 50.0);
        assert_eq!(nearest_rank(&samples, 90.0), 90.0);
        assert_eq!(nearest_rank(&samples, 100.0), 100.0);
        assert_eq!(nearest_rank(&[3.0], 90.0), 3.0);
        // 11 samples: ceil(0.9 * 11) = 10th smallest.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(nearest_rank(&eleven, 90.0), 10.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond_it() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(120, 90.0), 12);
        assert_eq!(samples_beyond(18, 90.0), 1);
        assert_eq!(samples_beyond(20, 50.0), 10);
        assert_eq!(samples_beyond(0, 90.0), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((relative_spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[5.0]), 5.0);
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0]), 2.0);
        // 8 samples: drop two at each end.
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 3.0, 4.0, 5.0, 6.0, 2.0, -50.0]),
            3.5
        );
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: all self.
        assert_eq!(self_time(0.0, 10.0, &[]), 10.0);
        // Disjoint children.
        assert_eq!(self_time(0.0, 10.0, &[(1.0, 3.0), (5.0, 6.0)]), 7.0);
        // Overlapping children count once.
        assert_eq!(self_time(0.0, 10.0, &[(1.0, 4.0), (3.0, 6.0)]), 5.0);
        // A nested child adds nothing beyond its container.
        assert_eq!(self_time(0.0, 10.0, &[(2.0, 8.0), (3.0, 4.0)]), 4.0);
        // Children sticking out of the span are clipped to it.
        assert_eq!(self_time(0.0, 10.0, &[(-5.0, 2.0), (9.0, 20.0)]), 7.0);
        // A child entirely outside is ignored.
        assert_eq!(self_time(0.0, 10.0, &[(11.0, 12.0)]), 10.0);
    }
}
