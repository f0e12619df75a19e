//! Mann–Whitney U test (a.k.a. Wilcoxon rank-sum test).
//!
//! This is the significance test the paper uses throughout Section 5:
//! Table 7 tests whether each interest persona receives *higher* bids than
//! the vanilla persona (one-sided, `Alternative::Greater`), Table 11 tests
//! whether Echo interest personas differ from web interest personas
//! (two-sided). Both an exact permutation distribution (for small samples
//! without ties) and the tie-corrected normal approximation (the default,
//! matching SciPy's `mannwhitneyu(..., method="asymptotic")`) are provided.

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

/// How the p-value is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MwuMethod {
    /// Exact enumeration of the null distribution of U.
    ///
    /// Only valid without ties; cost is `O(n1 · n2 · (n1·n2))` so use for
    /// small samples. [`mann_whitney_u`] falls back to the asymptotic method
    /// if ties are present.
    Exact,
    /// Normal approximation with tie correction and continuity correction.
    Asymptotic,
    /// Exact when both samples are small (≤ 25) and tie-free, otherwise
    /// asymptotic — mirroring SciPy's `method="auto"`.
    Auto,
    /// Seeded Monte-Carlo permutation distribution.
    ///
    /// Only produced by [`mann_whitney_permutation`] (which needs a seed and
    /// a permutation count); [`mann_whitney_u`] resolves it to `Asymptotic`.
    Permutation,
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
    /// The standard score actually used, when the asymptotic path ran.
    pub z: Option<f64>,
    /// Which method produced the p-value (after `Auto` resolution and any
    /// tie-forced fallback).
    pub method_used: MwuMethod,
}

/// Perform a Mann–Whitney U test of `x` against `y`.
///
/// Returns [`StatsError::EmptySample`] if either sample is empty.
///
/// ```
/// use alexa_stats::{mann_whitney_u, Alternative, MwuMethod};
/// let treated = [0.30, 0.45, 0.50, 0.61, 0.72];
/// let control = [0.05, 0.08, 0.11, 0.12, 0.20];
/// let r = mann_whitney_u(&treated, &control, Alternative::Greater, MwuMethod::Auto).unwrap();
/// assert!(r.p_value < 0.05);
/// assert!(r.effect_size > 0.9);
/// ```
pub fn mann_whitney_u(
    x: &[f64],
    y: &[f64],
    alternative: Alternative,
    method: MwuMethod,
) -> Result<MwuResult, StatsError> {
    let n1 = x.len();
    let n2 = y.len();
    if n1 == 0 || n2 == 0 {
        return Err(StatsError::EmptySample);
    }
    Ok(alexa_obs::agg_time("stats.mann_whitney_u", || {
        mwu_uninstrumented(x, y, alternative, method)
    }))
}

/// The test itself; timing happens in [`mann_whitney_u`].
fn mwu_uninstrumented(
    x: &[f64],
    y: &[f64],
    alternative: Alternative,
    method: MwuMethod,
) -> MwuResult {
    let n1 = x.len();
    let n2 = y.len();

    // Rank the pooled sample.
    let mut pooled: Vec<f64> = Vec::with_capacity(n1 + n2);
    pooled.extend_from_slice(x);
    pooled.extend_from_slice(y);
    let ranks = midranks(&pooled);
    let r1: f64 = ranks[..n1].iter().sum();
    let u1 = r1 - (n1 * (n1 + 1)) as f64 / 2.0;
    let u2 = (n1 * n2) as f64 - u1;
    let effect_size = 2.0 * u1 / (n1 * n2) as f64 - 1.0;

    let ties = tie_group_sizes(&pooled);
    let has_ties = ties.iter().any(|&t| t > 1);

    let resolved = match method {
        MwuMethod::Auto => {
            if !has_ties && n1 <= 25 && n2 <= 25 {
                MwuMethod::Exact
            } else {
                MwuMethod::Asymptotic
            }
        }
        MwuMethod::Exact if has_ties => MwuMethod::Asymptotic,
        MwuMethod::Permutation => MwuMethod::Asymptotic,
        m => m,
    };

    let (p_value, z) = match resolved {
        MwuMethod::Exact => (exact_p(u1, n1, n2, alternative), None),
        _ => {
            let (p, z) = asymptotic_p(u1, n1, n2, &ties, alternative);
            (p, Some(z))
        } // `Auto` cannot survive resolution.
    };

    MwuResult {
        u1,
        u2,
        p_value: p_value.min(1.0),
        effect_size,
        z,
        method_used: resolved,
    }
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

/// Monte-Carlo permutation p-value for the Mann–Whitney U statistic.
///
/// Shuffles the pooled sample `permutations` times under the null and counts
/// permuted U statistics at least as extreme as the observed one, with the
/// standard `+1` correction so the p-value is never exactly zero. Handles
/// ties naturally (ranks are recomputed per shuffle), making it the
/// reference check for both the exact DP and the tie-corrected asymptotic
/// path.
///
/// Permutations run in fixed-size chunks with per-chunk RNGs derived from
/// `(seed, chunk index)`, distributed over all cores; the p-value is
/// identical for any worker count. Returns [`StatsError::EmptySample`] if
/// either sample is empty and [`StatsError::ZeroPermutations`] for a zero
/// permutation count.
pub fn mann_whitney_permutation(
    x: &[f64],
    y: &[f64],
    alternative: Alternative,
    permutations: usize,
    seed: u64,
) -> Result<MwuResult, StatsError> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    const CHUNK: usize = 512;

    let n1 = x.len();
    let n2 = y.len();
    if n1 == 0 || n2 == 0 {
        return Err(StatsError::EmptySample);
    }
    if permutations == 0 {
        return Err(StatsError::ZeroPermutations);
    }
    let mut pooled: Vec<f64> = Vec::with_capacity(n1 + n2);
    pooled.extend_from_slice(x);
    pooled.extend_from_slice(y);
    let u_of = |sample: &[f64]| {
        let ranks = midranks(sample);
        let r1: f64 = ranks[..n1].iter().sum();
        r1 - (n1 * (n1 + 1)) as f64 / 2.0
    };
    let u1 = u_of(&pooled);
    let u2 = (n1 * n2) as f64 - u1;
    let mu = (n1 * n2) as f64 / 2.0;

    let chunks: Vec<usize> = (0..permutations.div_ceil(CHUNK)).collect();
    let extreme_counts = alexa_exec::par_map(None, chunks, |c, _| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x6d77755f ^ ((c as u64 + 1) << 24));
        let count = CHUNK.min(permutations - c * CHUNK);
        let mut shuffled = pooled.clone();
        let mut extreme = 0usize;
        for _ in 0..count {
            shuffled.shuffle(&mut rng);
            let u = u_of(&shuffled);
            let hit = match alternative {
                Alternative::Greater => u >= u1,
                Alternative::Less => u <= u1,
                Alternative::TwoSided => (u - mu).abs() >= (u1 - mu).abs(),
            };
            if hit {
                extreme += 1;
            }
        }
        extreme
    });
    let extreme: usize = extreme_counts.into_iter().sum();
    let p_value = (extreme + 1) as f64 / (permutations + 1) as f64;

    Ok(MwuResult {
        u1,
        u2,
        p_value: p_value.min(1.0),
        effect_size: 2.0 * u1 / (n1 * n2) as f64 - 1.0,
        z: None,
        method_used: MwuMethod::Permutation,
    })
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_are_typed_errors() {
        assert_eq!(
            mann_whitney_u(&[], &[1.0], Alternative::TwoSided, MwuMethod::Auto),
            Err(crate::StatsError::EmptySample)
        );
        assert_eq!(
            mann_whitney_u(&[1.0], &[], Alternative::TwoSided, MwuMethod::Auto),
            Err(crate::StatsError::EmptySample)
        );
    }

    #[test]
    fn u_statistics_sum_to_n1_n2() {
        let x = [1.0, 5.0, 7.0, 3.0];
        let y = [2.0, 6.0, 4.0];
        let r = mann_whitney_u(&x, &y, Alternative::TwoSided, MwuMethod::Auto).unwrap();
        assert!((r.u1 + r.u2 - 12.0).abs() < 1e-9);
    }

    #[test]
    fn clear_separation_is_significant_one_sided() {
        let x = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0];
        let y = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let r = mann_whitney_u(&x, &y, Alternative::Greater, MwuMethod::Exact).unwrap();
        assert!(r.p_value < 0.001, "p = {}", r.p_value);
        assert!((r.effect_size - 1.0).abs() < 1e-9);
        // Full dominance: u1 = n1*n2.
        assert_eq!(r.u1, 64.0);
    }

    #[test]
    fn identical_samples_not_significant() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let r = mann_whitney_u(&x, &x, Alternative::TwoSided, MwuMethod::Asymptotic).unwrap();
        assert!(r.p_value > 0.9, "p = {}", r.p_value);
        assert!(r.effect_size.abs() < 1e-9);
    }

    #[test]
    fn exact_matches_scipy_reference() {
        // scipy.stats.mannwhitneyu([19,22,16,29,24], [20,11,17,12], alternative="greater")
        // => U = 17, p = 0.05555...
        let x = [19.0, 22.0, 16.0, 29.0, 24.0];
        let y = [20.0, 11.0, 17.0, 12.0];
        let r = mann_whitney_u(&x, &y, Alternative::Greater, MwuMethod::Exact).unwrap();
        assert_eq!(r.u1, 17.0);
        assert!((r.p_value - 0.055555555).abs() < 1e-6, "p = {}", r.p_value);
    }

    #[test]
    fn exact_two_sided_matches_reference() {
        // scipy: mannwhitneyu([1,2,3], [4,5,6], alternative="two-sided") => U=0, p=0.1
        let r = mann_whitney_u(
            &[1.0, 2.0, 3.0],
            &[4.0, 5.0, 6.0],
            Alternative::TwoSided,
            MwuMethod::Exact,
        )
        .unwrap();
        assert_eq!(r.u1, 0.0);
        assert!((r.p_value - 0.1).abs() < 1e-9, "p = {}", r.p_value);
    }

    #[test]
    fn asymptotic_close_to_exact_moderate_n() {
        let x: Vec<f64> = (0..20).map(|i| (i as f64) * 1.7 + 3.0).collect();
        let y: Vec<f64> = (0..20).map(|i| (i as f64) * 1.3).collect();
        let e = mann_whitney_u(&x, &y, Alternative::Greater, MwuMethod::Exact).unwrap();
        let a = mann_whitney_u(&x, &y, Alternative::Greater, MwuMethod::Asymptotic).unwrap();
        assert!(
            (e.p_value - a.p_value).abs() < 0.01,
            "exact {} vs asymptotic {}",
            e.p_value,
            a.p_value
        );
    }

    #[test]
    fn ties_force_asymptotic() {
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [2.0, 2.0, 4.0];
        let r = mann_whitney_u(&x, &y, Alternative::TwoSided, MwuMethod::Exact).unwrap();
        assert_eq!(r.method_used, MwuMethod::Asymptotic);
    }

    #[test]
    fn all_constant_degenerate() {
        let x = [2.0; 5];
        let y = [2.0; 6];
        let r = mann_whitney_u(&x, &y, Alternative::Greater, MwuMethod::Asymptotic).unwrap();
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn less_is_mirror_of_greater() {
        let x = [5.0, 6.0, 7.0, 8.0];
        let y = [1.0, 2.0, 3.0, 4.0];
        let g = mann_whitney_u(&x, &y, Alternative::Greater, MwuMethod::Exact).unwrap();
        let l = mann_whitney_u(&y, &x, Alternative::Less, MwuMethod::Exact).unwrap();
        assert!((g.p_value - l.p_value).abs() < 1e-12);
    }

    #[test]
    fn permutation_close_to_exact() {
        let x = [19.0, 22.0, 16.0, 29.0, 24.0];
        let y = [20.0, 11.0, 17.0, 12.0];
        let e = mann_whitney_u(&x, &y, Alternative::Greater, MwuMethod::Exact).unwrap();
        let p = mann_whitney_permutation(&x, &y, Alternative::Greater, 20_000, 5).unwrap();
        assert_eq!(p.method_used, MwuMethod::Permutation);
        assert_eq!(p.u1, e.u1);
        assert!(
            (p.p_value - e.p_value).abs() < 0.01,
            "exact {} vs permutation {}",
            e.p_value,
            p.p_value
        );
    }

    #[test]
    fn permutation_deterministic_per_seed_and_handles_ties() {
        let x = [1.0, 2.0, 2.0, 3.0, 5.0, 5.0];
        let y = [2.0, 2.0, 4.0, 5.0];
        let a = mann_whitney_permutation(&x, &y, Alternative::TwoSided, 3_000, 11).unwrap();
        let b = mann_whitney_permutation(&x, &y, Alternative::TwoSided, 3_000, 11).unwrap();
        assert_eq!(a, b);
        let c = mann_whitney_permutation(&x, &y, Alternative::TwoSided, 3_000, 12).unwrap();
        assert!(a.p_value > 0.0 && a.p_value <= 1.0);
        // Different seeds may agree by chance on p, but the asymptotic path
        // should be in the same neighbourhood.
        let asym = mann_whitney_u(&x, &y, Alternative::TwoSided, MwuMethod::Asymptotic).unwrap();
        assert!(
            (a.p_value - asym.p_value).abs() < 0.1,
            "{} vs {}",
            a.p_value,
            asym.p_value
        );
        let _ = c;
    }

    #[test]
    fn permutation_degenerate_inputs_are_typed_errors() {
        assert_eq!(
            mann_whitney_permutation(&[], &[1.0], Alternative::Greater, 100, 1),
            Err(crate::StatsError::EmptySample)
        );
        assert_eq!(
            mann_whitney_permutation(&[1.0], &[], Alternative::Greater, 100, 1),
            Err(crate::StatsError::EmptySample)
        );
        assert_eq!(
            mann_whitney_permutation(&[1.0], &[2.0], Alternative::Greater, 0, 1),
            Err(crate::StatsError::ZeroPermutations)
        );
    }

    #[test]
    fn effect_size_sign_tracks_direction() {
        let hi = [10.0, 12.0, 14.0];
        let lo = [1.0, 2.0, 3.0];
        let up = mann_whitney_u(&hi, &lo, Alternative::TwoSided, MwuMethod::Auto).unwrap();
        let down = mann_whitney_u(&lo, &hi, Alternative::TwoSided, MwuMethod::Auto).unwrap();
        assert!(up.effect_size > 0.0);
        assert!(down.effect_size < 0.0);
        assert!((up.effect_size + down.effect_size).abs() < 1e-12);
    }
}
