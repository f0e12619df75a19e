//! Rank assignment with tie handling (midranks).
//!
//! Midranks are the foundation of the Mann–Whitney U test: tied observations
//! each receive the average of the ranks they jointly occupy. Bid values in
//! header-bidding logs are heavily tied (many bidders quote round CPMs), so
//! correct tie handling materially changes the test statistics in Tables 7
//! and 11.

/// Assign midranks (1-based) to a sample.
///
/// Ties receive the average of the ranks they occupy. The returned vector is
/// index-aligned with the input: `midranks(xs)[i]` is the rank of `xs[i]`.
/// NaN values sort last under IEEE total order.
pub(crate) fn midranks(xs: &[f64]) -> Vec<f64> {
    let mut order: Vec<(usize, f64)> = xs.iter().copied().enumerate().collect();
    order.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut ranks = vec![0.0; xs.len()];
    // `start` is the 0-based sorted position where the tie group begins.
    let mut start = 0;
    for group in order.chunk_by(|a, b| a.1 == b.1) {
        // Ranks are 1-based: the group holds ranks start+1 ..= start+len.
        let avg = (2 * start + 1 + group.len()) as f64 / 2.0;
        for &(idx, _) in group {
            if let Some(rank) = ranks.get_mut(idx) {
                *rank = avg;
            }
        }
        start += group.len();
    }
    ranks
}

/// Sizes of tie groups in a sample (groups of size 1 included).
///
/// Used for the tie correction term of the Mann–Whitney normal
/// approximation: `Σ (t³ − t)` over tie group sizes `t`.
pub(crate) fn tie_group_sizes(xs: &[f64]) -> Vec<usize> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.chunk_by(|a, b| a == b).map(<[f64]>::len).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn no_ties_is_permutation_of_1_to_n() {
        let xs = [30.0, 10.0, 20.0];
        assert_eq!(midranks(&xs), vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn ties_get_average_rank() {
        let xs = [1.0, 2.0, 2.0, 3.0];
        assert_eq!(midranks(&xs), vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn all_equal() {
        let xs = [5.0; 4];
        assert_eq!(midranks(&xs), vec![2.5; 4]);
    }

    #[test]
    fn empty_is_empty() {
        assert!(midranks(&[]).is_empty());
    }

    #[test]
    fn rank_sum_invariant() {
        // Sum of midranks must always be n(n+1)/2 regardless of ties.
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
        let total: f64 = midranks(&xs).iter().sum();
        let n = xs.len() as f64;
        assert!((total - n * (n + 1.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn tie_groups() {
        let xs = [2.0, 1.0, 2.0, 2.0, 3.0];
        assert_eq!(tie_group_sizes(&xs), vec![1, 3, 1]);
    }

    proptest! {
        #[test]
        fn midranks_sum_invariant(xs in prop::collection::vec(-1e6..1e6f64, 1..64)) {
            let total: f64 = midranks(&xs).iter().sum();
            let n = xs.len() as f64;
            prop_assert!((total - n * (n + 1.0) / 2.0).abs() < 1e-6 * n.max(1.0));
        }
    }
}
