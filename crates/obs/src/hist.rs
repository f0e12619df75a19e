//! Deterministic log2-bucketed histograms and nearest-rank percentile
//! summaries over work-unit durations.
//!
//! Bucket edges are **fixed** powers of two (bucket 0 holds exactly the
//! value 0; bucket `i > 0` holds `[2^(i-1), 2^i)`), so two runs that perform
//! the same structural work produce byte-identical histograms regardless of
//! worker count, machine, or schedule. Percentiles use the nearest-rank
//! method on exact integers — no interpolation, no floating point — for the
//! same reason.

use crate::json::Json;

/// Number of log2 buckets: bucket 0 plus one per bit of a `u64`.
pub(crate) const BUCKETS: usize = 65;

/// A fixed-edge log2 histogram of `u64` work-unit values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: [0; BUCKETS],
        }
    }

    /// The bucket index of a value: 0 for 0, else `floor(log2(v)) + 1`.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// The `[lo, hi)` range covered by bucket `i`.
    ///
    /// Bucket 0 is `[0, 1)`; bucket `i > 0` is `[2^(i-1), 2^i)`. The final
    /// bucket's exclusive upper bound saturates at `u64::MAX`.
    pub fn bounds(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 1)
        } else {
            let lo = 1u64 << (i - 1);
            let hi = if i >= 64 { u64::MAX } else { 1u64 << i };
            (lo, hi)
        }
    }

    /// A histogram over pre-counted buckets (the allocation meter's copy).
    pub(crate) fn from_counts(counts: [u64; BUCKETS]) -> Histogram {
        Histogram { counts }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        if let Some(c) = self.counts.get_mut(Self::bucket_of(v)) {
            *c += 1;
        }
    }

    /// Add another histogram's counts into this one, bucket by bucket.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// The per-bucket growth since `earlier` (saturating, bucket by
    /// bucket) — the delta a monotone meter accumulated over a window.
    pub fn since(&self, earlier: &Histogram) -> Histogram {
        let mut counts = [0u64; BUCKETS];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        Histogram { counts }
    }

    /// Total number of recorded values.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Non-empty buckets as `(lo, hi, count)`, in ascending value order.
    pub fn sparse(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| {
                let (lo, hi) = Self::bounds(i);
                (lo, hi, *c)
            })
            .collect()
    }

    /// JSON export: an array of `{lo, hi, count}` objects (sparse).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.sparse()
                .into_iter()
                .map(|(lo, hi, count)| {
                    Json::Obj(vec![
                        ("lo".into(), Json::Int(lo)),
                        ("hi".into(), Json::Int(hi)),
                        ("count".into(), Json::Int(count)),
                    ])
                })
                .collect(),
        )
    }
}

/// Nearest-rank percentile of a **sorted** slice: the smallest value whose
/// rank covers `p` percent of the population. Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // rank = ceil(p/100 * n), clamped to [1, n]; index = rank - 1.
    let n = sorted.len() as u64;
    let rank = (p * n).div_ceil(100).clamp(1, n);
    sorted.get((rank - 1) as usize).copied().unwrap_or(0)
}

/// A deterministic five-figure summary of a value population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Summary {
    /// Population size.
    pub count: u64,
    /// Smallest value.
    pub min: u64,
    /// 50th percentile (nearest rank).
    pub p50: u64,
    /// 90th percentile (nearest rank).
    pub p90: u64,
    /// 99th percentile (nearest rank).
    pub p99: u64,
    /// Largest value.
    pub max: u64,
    /// Sum of all values.
    pub sum: u64,
}

impl Summary {
    /// Summarize a population (order of `values` does not matter).
    pub fn of(values: &[u64]) -> Summary {
        let mut sorted: Vec<u64> = values.to_vec();
        sorted.sort_unstable();
        Summary {
            count: sorted.len() as u64,
            min: sorted.first().copied().unwrap_or(0),
            p50: percentile(&sorted, 50),
            p90: percentile(&sorted, 90),
            p99: percentile(&sorted, 99),
            max: sorted.last().copied().unwrap_or(0),
            sum: sorted.iter().sum(),
        }
    }

    /// JSON export: `{count, min, p50, p90, p99, max, sum}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::Int(self.count)),
            ("min".into(), Json::Int(self.min)),
            ("p50".into(), Json::Int(self.p50)),
            ("p90".into(), Json::Int(self.p90)),
            ("p99".into(), Json::Int(self.p99)),
            ("max".into(), Json::Int(self.max)),
            ("sum".into(), Json::Int(self.sum)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_fixed_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bounds(0), (0, 1));
        assert_eq!(Histogram::bounds(1), (1, 2));
        assert_eq!(Histogram::bounds(4), (8, 16));
        assert_eq!(Histogram::bounds(64), (1 << 63, u64::MAX));
    }

    #[test]
    fn histogram_records_and_sparsifies() {
        let mut h = Histogram::new();
        for v in [0, 1, 1, 3, 8, 9, 15, 1024] {
            h.record(v);
        }
        assert_eq!(h.total(), 8);
        assert_eq!(
            h.sparse(),
            vec![(0, 1, 1), (1, 2, 2), (2, 4, 1), (8, 16, 3), (1024, 2048, 1)]
        );
        let json = h.to_json().render();
        assert!(json.contains("{\"lo\": 8, \"hi\": 16, \"count\": 3}"));
    }

    #[test]
    fn histograms_are_insertion_order_independent() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [5, 900, 0, 33] {
            a.record(v);
        }
        for v in [33, 0, 900, 5] {
            b.record(v);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn merge_and_since_are_bucket_wise() {
        let mut base = Histogram::new();
        for v in [1, 8, 9, 300] {
            base.record(v);
        }
        let mut grown = base.clone();
        for v in [8, 4000] {
            grown.record(v);
        }
        let delta = grown.since(&base);
        assert_eq!(delta.sparse(), vec![(8, 16, 1), (2048, 4096, 1)]);
        // since() saturates instead of underflowing.
        assert_eq!(base.since(&grown).total(), 0);
        // merge adds bucket-wise.
        let mut merged = base.clone();
        merged.merge(&delta);
        assert_eq!(merged, grown);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=13).collect();
        assert_eq!(percentile(&sorted, 50), 7);
        assert_eq!(percentile(&sorted, 90), 12);
        assert_eq!(percentile(&sorted, 99), 13);
        assert_eq!(percentile(&sorted, 100), 13);
        assert_eq!(percentile(&sorted, 0), 1);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[42], 99), 42);
    }

    #[test]
    fn summary_is_order_independent_and_exact() {
        let s = Summary::of(&[30, 10, 20]);
        assert_eq!(s, Summary::of(&[10, 20, 30]));
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 10);
        assert_eq!(s.p50, 20);
        assert_eq!(s.p90, 30);
        assert_eq!(s.max, 30);
        assert_eq!(s.sum, 60);
        let json = s.to_json().render();
        assert!(json.contains("\"p50\": 20"));
    }
}
