//! Mann–Whitney U test (a.k.a. Wilcoxon rank-sum test).
//!
//! This is the significance test the paper uses throughout Section 5:
//! Table 7 tests whether each interest persona receives *higher* bids than
//! the vanilla persona (one-sided, `Alternative::Greater`), Table 11 tests
//! whether Echo interest personas differ from web interest personas
//! (two-sided). The p-value is the tie-corrected normal approximation with
//! continuity correction, matching SciPy's
//! `mannwhitneyu(..., method="asymptotic")`; it is the only method. The
//! exact null distribution (tie-free samples only) and a seeded permutation
//! test are the oracles this module's unit tests check it against.

use crate::error::StatsError;
use crate::normal::phi_complement;
use crate::rank::{midranks, tie_group_sizes};

/// Which tail(s) the alternative hypothesis covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alternative {
    /// H1: distribution of `x` is stochastically **greater** than `y`.
    Greater,
    /// H1: distribution of `x` is stochastically **less** than `y`.
    Less,
    /// H1: the distributions differ (two-sided).
    TwoSided,
}

/// Result of a Mann–Whitney U test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MwuResult {
    /// U statistic for the first sample (`x`).
    pub u1: f64,
    /// U statistic for the second sample (`y`); `u1 + u2 = n1 · n2`.
    pub u2: f64,
    /// The p-value under the requested alternative.
    pub p_value: f64,
    /// Rank-biserial effect size, `2·u1/(n1·n2) − 1` ∈ [−1, 1].
    ///
    /// −1, 0, 1 mean stochastic subservience, equality and dominance of `x`
    /// over `y` — the paper's reading in Table 7.
    pub effect_size: f64,
    /// The continuity-corrected standard score behind the p-value.
    pub z: f64,
}

/// Perform a Mann–Whitney U test of `x` against `y`.
///
/// Returns [`StatsError::EmptySample`] if either sample is empty.
///
/// ```
/// use alexa_stats::{mann_whitney_u, Alternative};
/// let treated = [0.30, 0.45, 0.50, 0.61, 0.72];
/// let control = [0.05, 0.08, 0.11, 0.12, 0.20];
/// let r = mann_whitney_u(&treated, &control, Alternative::Greater).unwrap();
/// assert!(r.p_value < 0.05);
/// assert!(r.effect_size > 0.9);
/// ```
pub fn mann_whitney_u(
    x: &[f64],
    y: &[f64],
    alternative: Alternative,
) -> Result<MwuResult, StatsError> {
    if x.is_empty() || y.is_empty() {
        return Err(StatsError::EmptySample);
    }
    Ok(alexa_obs::agg_time("stats.mann_whitney_u", || {
        mwu_uninstrumented(x, y, alternative)
    }))
}

/// The test itself; timing happens in [`mann_whitney_u`].
fn mwu_uninstrumented(x: &[f64], y: &[f64], alternative: Alternative) -> MwuResult {
    let n1 = x.len();
    let n2 = y.len();
    let mut pooled: Vec<f64> = Vec::with_capacity(n1 + n2);
    pooled.extend_from_slice(x);
    pooled.extend_from_slice(y);
    let u1 = u_statistic(&pooled, n1);
    let (p_value, z) = asymptotic_p(u1, n1, n2, &tie_group_sizes(&pooled), alternative);
    MwuResult {
        u1,
        u2: (n1 * n2) as f64 - u1,
        p_value: p_value.min(1.0),
        effect_size: 2.0 * u1 / (n1 * n2) as f64 - 1.0,
        z,
    }
}

/// The U statistic of the first `n1` values of `pooled` against the rest,
/// from the midranks of the pooled sample.
fn u_statistic(pooled: &[f64], n1: usize) -> f64 {
    let r1: f64 = midranks(pooled).iter().take(n1).sum();
    r1 - (n1 * (n1 + 1)) as f64 / 2.0
}

/// Tie-corrected normal approximation with continuity correction.
fn asymptotic_p(
    u1: f64,
    n1: usize,
    n2: usize,
    ties: &[usize],
    alternative: Alternative,
) -> (f64, f64) {
    let n1f = n1 as f64;
    let n2f = n2 as f64;
    let n = n1f + n2f;
    let mu = n1f * n2f / 2.0;
    let tie_term: f64 = ties
        .iter()
        .map(|&t| {
            let t = t as f64;
            t * t * t - t
        })
        .sum();
    let sigma2 = n1f * n2f / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
    if sigma2 <= 0.0 {
        // All observations identical: no evidence against H0 in any direction.
        return (1.0, 0.0);
    }
    let sigma = sigma2.sqrt();
    // Continuity correction: shrink the deviation by 0.5 toward the mean.
    match alternative {
        Alternative::Greater => {
            let z = (u1 - mu - 0.5) / sigma;
            (phi_complement(z), z)
        }
        Alternative::Less => {
            let z = (mu - u1 - 0.5) / sigma;
            (phi_complement(z), z)
        }
        Alternative::TwoSided => {
            let z = ((u1 - mu).abs() - 0.5).max(0.0) / sigma;
            ((2.0 * phi_complement(z)).min(1.0), z)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact p-value by enumerating the tie-free null distribution of U.
    ///
    /// `count[u]` after the DP equals the number of arrangements of ranks giving
    /// statistic `u`; the recurrence is the classic
    /// `N(n1, n2, u) = N(n1−1, n2, u−n2) + N(n1, n2−1, u)`.
    fn exact_p(u1: f64, n1: usize, n2: usize, alternative: Alternative) -> f64 {
        let max_u = n1 * n2;
        // N(m, n, u): arrangements of m x's and n y's with statistic u. Condition
        // on the largest pooled value: if it is an x it exceeds all n y's
        // (contributing n), otherwise it contributes nothing:
        //   N(m, n, u) = N(m−1, n, u−n) + N(m, n−1, u)
        // dp[n][u] holds N(m, n, u) for the current m.
        let mut dp = vec![vec![0.0f64; max_u + 1]; n2 + 1];
        for row in dp.iter_mut() {
            row[0] = 1.0; // m = 0: only u = 0 is possible.
        }
        for _m in 1..=n1 {
            let mut next = vec![vec![0.0f64; max_u + 1]; n2 + 1];
            next[0][0] = 1.0; // no y's: u must be 0.
            for n in 1..=n2 {
                for u in 0..=max_u {
                    let from_x = if u >= n { dp[n][u - n] } else { 0.0 };
                    next[n][u] = from_x + next[n - 1][u];
                }
            }
            dp = next;
        }
        let counts = &dp[n2];
        let total: f64 = counts.iter().sum();
        let u_obs = u1.round() as usize; // tie-free U is integral
        let p_ge: f64 = counts[u_obs..].iter().sum::<f64>() / total;
        let p_le: f64 = counts[..=u_obs].iter().sum::<f64>() / total;
        match alternative {
            Alternative::Greater => p_ge,
            Alternative::Less => p_le,
            Alternative::TwoSided => (2.0 * p_ge.min(p_le)).min(1.0),
        }
    }

    /// Monte-Carlo permutation p-value for the U statistic, with the
    /// observed U: the reference for the tie-corrected asymptotic path.
    ///
    /// Shuffles the pooled sample `permutations` times under the null and
    /// counts permuted U statistics at least as extreme as the observed
    /// one, with the standard `+1` correction so the p-value is never
    /// exactly zero. Ties are handled naturally (ranks are recomputed per
    /// shuffle). Permutations run in fixed-size chunks, each with an RNG
    /// derived from `(seed, chunk index)`.
    fn permutation_p(
        x: &[f64],
        y: &[f64],
        alternative: Alternative,
        permutations: usize,
        seed: u64,
    ) -> (f64, f64) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        const CHUNK: usize = 512;

        let n1 = x.len();
        let mut pooled = x.to_vec();
        pooled.extend_from_slice(y);
        let u1 = u_statistic(&pooled, n1);
        let mu = (n1 * y.len()) as f64 / 2.0;
        let mut extreme = 0usize;
        for c in 0..permutations.div_ceil(CHUNK) {
            let mut rng =
                rand::rngs::StdRng::seed_from_u64(seed ^ 0x6d77755f ^ ((c as u64 + 1) << 24));
            let mut shuffled = pooled.clone();
            for _ in 0..CHUNK.min(permutations - c * CHUNK) {
                shuffled.shuffle(&mut rng);
                let u = u_statistic(&shuffled, n1);
                extreme += usize::from(match alternative {
                    Alternative::Greater => u >= u1,
                    Alternative::Less => u <= u1,
                    Alternative::TwoSided => (u - mu).abs() >= (u1 - mu).abs(),
                });
            }
        }
        (u1, (extreme + 1) as f64 / (permutations + 1) as f64)
    }

    #[test]
    fn empty_samples_are_typed_errors() {
        assert_eq!(
            mann_whitney_u(&[], &[1.0], Alternative::TwoSided),
            Err(crate::StatsError::EmptySample)
        );
        assert_eq!(
            mann_whitney_u(&[1.0], &[], Alternative::TwoSided),
            Err(crate::StatsError::EmptySample)
        );
    }

    #[test]
    fn u_statistics_sum_to_n1_n2() {
        let x = [1.0, 5.0, 7.0, 3.0];
        let y = [2.0, 6.0, 4.0];
        let r = mann_whitney_u(&x, &y, Alternative::TwoSided).unwrap();
        assert!((r.u1 + r.u2 - 12.0).abs() < 1e-9);
    }

    #[test]
    fn clear_separation_is_significant_one_sided() {
        let x = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0];
        let y = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let r = mann_whitney_u(&x, &y, Alternative::Greater).unwrap();
        assert!(r.p_value < 0.001, "p = {}", r.p_value);
        assert!(exact_p(r.u1, 8, 8, Alternative::Greater) < 0.001);
        assert!((r.effect_size - 1.0).abs() < 1e-9);
        // Full dominance: u1 = n1*n2.
        assert_eq!(r.u1, 64.0);
    }

    #[test]
    fn identical_samples_not_significant() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let r = mann_whitney_u(&x, &x, Alternative::TwoSided).unwrap();
        assert!(r.p_value > 0.9, "p = {}", r.p_value);
        assert!(r.effect_size.abs() < 1e-9);
    }

    #[test]
    fn exact_matches_scipy_reference() {
        // scipy.stats.mannwhitneyu([19,22,16,29,24], [20,11,17,12], alternative="greater")
        // => U = 17, p = 0.05555...
        let x = [19.0, 22.0, 16.0, 29.0, 24.0];
        let y = [20.0, 11.0, 17.0, 12.0];
        let r = mann_whitney_u(&x, &y, Alternative::Greater).unwrap();
        assert_eq!(r.u1, 17.0);
        let p = exact_p(r.u1, 5, 4, Alternative::Greater);
        assert!((p - 0.055555555).abs() < 1e-6, "p = {p}");
    }

    #[test]
    fn exact_two_sided_matches_reference() {
        // scipy: mannwhitneyu([1,2,3], [4,5,6], alternative="two-sided") => U=0, p=0.1
        let r = mann_whitney_u(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], Alternative::TwoSided).unwrap();
        assert_eq!(r.u1, 0.0);
        let p = exact_p(r.u1, 3, 3, Alternative::TwoSided);
        assert!((p - 0.1).abs() < 1e-9, "p = {p}");
    }

    #[test]
    fn asymptotic_close_to_exact_moderate_n() {
        let x: Vec<f64> = (0..20).map(|i| (i as f64) * 1.7 + 3.0).collect();
        let y: Vec<f64> = (0..20).map(|i| (i as f64) * 1.3).collect();
        let a = mann_whitney_u(&x, &y, Alternative::Greater).unwrap();
        let e = exact_p(a.u1, 20, 20, Alternative::Greater);
        assert!(
            (e - a.p_value).abs() < 0.01,
            "exact {e} vs asymptotic {}",
            a.p_value
        );
    }

    #[test]
    fn ties_force_asymptotic() {
        // Pooled: 1, 2×4, 3, 4 → midranks 1, 3.5, 6, 7; U1 = 4 of 12, and
        // the one four-way tie shrinks the variance by (4³ − 4)/(7·6).
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [2.0, 2.0, 4.0];
        let r = mann_whitney_u(&x, &y, Alternative::TwoSided).unwrap();
        assert_eq!(r.u1, 4.0);
        let sigma = (12.0 / 12.0 * (8.0 - 60.0 / 42.0f64)).sqrt();
        assert!((r.z - 1.5 / sigma).abs() < 1e-12, "z = {}", r.z);
    }

    #[test]
    fn all_constant_degenerate() {
        let x = [2.0; 5];
        let y = [2.0; 6];
        let r = mann_whitney_u(&x, &y, Alternative::Greater).unwrap();
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn less_is_mirror_of_greater() {
        let x = [5.0, 6.0, 7.0, 8.0];
        let y = [1.0, 2.0, 3.0, 4.0];
        let g = mann_whitney_u(&x, &y, Alternative::Greater).unwrap();
        let l = mann_whitney_u(&y, &x, Alternative::Less).unwrap();
        assert!((g.p_value - l.p_value).abs() < 1e-12);
        let (ge, le) = (
            exact_p(g.u1, 4, 4, Alternative::Greater),
            exact_p(l.u1, 4, 4, Alternative::Less),
        );
        assert!((ge - le).abs() < 1e-12);
    }

    #[test]
    fn permutation_close_to_exact() {
        let x = [19.0, 22.0, 16.0, 29.0, 24.0];
        let y = [20.0, 11.0, 17.0, 12.0];
        let a = mann_whitney_u(&x, &y, Alternative::Greater).unwrap();
        let e = exact_p(a.u1, 5, 4, Alternative::Greater);
        let (u1, p) = permutation_p(&x, &y, Alternative::Greater, 20_000, 5);
        assert_eq!(u1, a.u1);
        assert!((p - e).abs() < 0.01, "exact {e} vs permutation {p}");
    }

    #[test]
    fn permutation_deterministic_per_seed_and_handles_ties() {
        let x = [1.0, 2.0, 2.0, 3.0, 5.0, 5.0];
        let y = [2.0, 2.0, 4.0, 5.0];
        let a = permutation_p(&x, &y, Alternative::TwoSided, 3_000, 11);
        let b = permutation_p(&x, &y, Alternative::TwoSided, 3_000, 11);
        assert_eq!(a, b);
        let p = a.1;
        assert!(p > 0.0 && p <= 1.0);
        // The tie-corrected asymptotic path lands in the permutation
        // distribution's neighbourhood.
        let asym = mann_whitney_u(&x, &y, Alternative::TwoSided).unwrap();
        assert!((p - asym.p_value).abs() < 0.1, "{p} vs {}", asym.p_value);
    }

    #[test]
    fn effect_size_sign_tracks_direction() {
        let hi = [10.0, 12.0, 14.0];
        let lo = [1.0, 2.0, 3.0];
        let up = mann_whitney_u(&hi, &lo, Alternative::TwoSided).unwrap();
        let down = mann_whitney_u(&lo, &hi, Alternative::TwoSided).unwrap();
        assert!(up.effect_size > 0.0);
        assert!(down.effect_size < 0.0);
        assert!((up.effect_size + down.effect_size).abs() < 1e-12);
    }
}
