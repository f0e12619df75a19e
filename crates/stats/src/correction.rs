//! Multiple-testing corrections.
//!
//! Table 11 runs 27 simultaneous Mann–Whitney tests and Table 7 runs nine;
//! the paper reports raw p-values. These corrections let the audit check
//! whether its conclusions survive family-wise (Holm–Bonferroni) or
//! false-discovery-rate (Benjamini–Hochberg) control — one of the
//! DESIGN.md ablations.

/// Holm–Bonferroni step-down adjusted p-values, index-aligned with the
/// input. Adjusted values are clamped to [0, 1] and made monotone.
pub fn holm_bonferroni(p_values: &[f64]) -> Vec<f64> {
    let m = p_values.len();
    let mut adjusted = vec![0.0; m];
    let mut running_max = 0.0f64;
    for (rank, (idx, p)) in ascending(p_values).into_iter().enumerate() {
        running_max = running_max.max(((m - rank) as f64 * p).min(1.0));
        if let Some(slot) = adjusted.get_mut(idx) {
            *slot = running_max;
        }
    }
    adjusted
}

/// Benjamini–Hochberg step-up adjusted p-values (FDR), index-aligned.
pub fn benjamini_hochberg(p_values: &[f64]) -> Vec<f64> {
    let m = p_values.len();
    let mut adjusted = vec![0.0; m];
    let mut running_min = 1.0f64;
    for (rank, (idx, p)) in ascending(p_values).into_iter().enumerate().rev() {
        running_min = running_min.min((m as f64 / (rank + 1) as f64 * p).min(1.0));
        if let Some(slot) = adjusted.get_mut(idx) {
            *slot = running_min;
        }
    }
    adjusted
}

/// `(index, p)` pairs in ascending `p` order; equal p-values keep their
/// input order.
fn ascending(p_values: &[f64]) -> Vec<(usize, f64)> {
    let mut order: Vec<(usize, f64)> = p_values.iter().copied().enumerate().collect();
    order.sort_by(|a, b| a.1.total_cmp(&b.1));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        assert!(holm_bonferroni(&[]).is_empty());
        assert!(benjamini_hochberg(&[]).is_empty());
    }

    #[test]
    fn single_p_unchanged() {
        assert_eq!(holm_bonferroni(&[0.03]), vec![0.03]);
        assert_eq!(benjamini_hochberg(&[0.03]), vec![0.03]);
    }

    #[test]
    fn holm_known_example() {
        // Classic example: p = [0.01, 0.04, 0.03, 0.005], m = 4.
        // Sorted: 0.005*4=0.02, 0.01*3=0.03, 0.03*2=0.06, 0.04*1=0.04→max 0.06.
        let adj = holm_bonferroni(&[0.01, 0.04, 0.03, 0.005]);
        assert!((adj[3] - 0.02).abs() < 1e-12);
        assert!((adj[0] - 0.03).abs() < 1e-12);
        assert!((adj[2] - 0.06).abs() < 1e-12);
        assert!((adj[1] - 0.06).abs() < 1e-12); // monotone enforcement
    }

    #[test]
    fn bh_known_example() {
        // p = [0.01, 0.02, 0.03, 0.04], m = 4:
        // adj = [0.04, 0.04, 0.04, 0.04].
        let adj = benjamini_hochberg(&[0.01, 0.02, 0.03, 0.04]);
        for a in adj {
            assert!((a - 0.04).abs() < 1e-12);
        }
    }

    #[test]
    fn corrections_never_decrease_p() {
        let ps = [0.001, 0.2, 0.04, 0.6, 0.013];
        for adj in [holm_bonferroni(&ps), benjamini_hochberg(&ps)] {
            for (raw, a) in ps.iter().zip(adj) {
                assert!(a >= *raw - 1e-15);
                assert!(a <= 1.0);
            }
        }
    }

    #[test]
    fn holm_is_at_least_as_strict_as_bh() {
        let ps = [0.001, 0.2, 0.04, 0.6, 0.013, 0.05, 0.07];
        let h = holm_bonferroni(&ps);
        let b = benjamini_hochberg(&ps);
        for (hh, bb) in h.iter().zip(&b) {
            assert!(hh >= bb, "holm {hh} < bh {bb}");
        }
    }
}
