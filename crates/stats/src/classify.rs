//! Multi-class classification metrics.
//!
//! Used to validate the PoliCheck reimplementation the way the paper does in
//! §7.2.3: visually label a subset of data flows, compare against the
//! automated classification, and report micro- and macro-averaged precision,
//! recall and F1 (the paper reports 87.41% micro-averaged and
//! 93.96 / 77.85 / 85.15% macro-averaged P/R/F1).

use std::collections::BTreeMap;

/// Precision / recall / F1 triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrfScores {
    /// Precision: TP / (TP + FP).
    pub precision: f64,
    /// Recall: TP / (TP + FN).
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

impl PrfScores {
    fn from_counts(tp: f64, fp: f64, fne: f64) -> PrfScores {
        let precision = if tp + fp > 0.0 { tp / (tp + fp) } else { 0.0 };
        let recall = if tp + fne > 0.0 { tp / (tp + fne) } else { 0.0 };
        let f1 = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        PrfScores {
            precision,
            recall,
            f1,
        }
    }
}

/// A multi-class confusion matrix over string-labelled classes.
///
/// Rows are ground-truth labels, columns are predicted labels. Classes are
/// discovered dynamically; iteration order is deterministic (BTreeMap).
#[derive(Debug, Clone, Default)]
pub struct ConfusionMatrix {
    cells: BTreeMap<(String, String), usize>,
    classes: std::collections::BTreeSet<String>,
}

impl ConfusionMatrix {
    /// Create an empty matrix.
    pub fn new() -> ConfusionMatrix {
        ConfusionMatrix::default()
    }

    /// Record one observation with ground truth `actual` and prediction
    /// `predicted`.
    pub fn record(&mut self, actual: &str, predicted: &str) {
        self.classes.insert(actual.to_string());
        self.classes.insert(predicted.to_string());
        *self
            .cells
            .entry((actual.to_string(), predicted.to_string()))
            .or_insert(0) += 1;
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> usize {
        self.cells.values().sum()
    }

    /// Per-class one-vs-rest counts: (TP, FP, FN).
    pub fn class_counts(&self, class: &str) -> (usize, usize, usize) {
        let mut tp = 0;
        let mut fp = 0;
        let mut fne = 0;
        for ((actual, predicted), &count) in &self.cells {
            let a = actual == class;
            let p = predicted == class;
            match (a, p) {
                (true, true) => tp += count,
                (false, true) => fp += count,
                (true, false) => fne += count,
                (false, false) => {}
            }
        }
        (tp, fp, fne)
    }

    /// Precision/recall/F1 for a single class (one-vs-rest).
    pub fn class_scores(&self, class: &str) -> PrfScores {
        let (tp, fp, fne) = self.class_counts(class);
        PrfScores::from_counts(tp as f64, fp as f64, fne as f64)
    }

    /// Micro-averaged P/R/F1: pool TP/FP/FN over all classes.
    ///
    /// For single-label classification all three equal accuracy, the share
    /// of observations whose prediction matched the ground truth.
    pub fn micro_scores(&self) -> PrfScores {
        let mut tp = 0.0;
        let mut fp = 0.0;
        let mut fne = 0.0;
        for c in self.classes.iter() {
            let (t, f, n) = self.class_counts(c);
            tp += t as f64;
            fp += f as f64;
            fne += n as f64;
        }
        PrfScores::from_counts(tp, fp, fne)
    }

    /// Macro-averaged P/R/F1: unweighted mean of per-class scores.
    pub fn macro_scores(&self) -> PrfScores {
        let k = self.classes.len();
        if k == 0 {
            return PrfScores {
                precision: 0.0,
                recall: 0.0,
                f1: 0.0,
            };
        }
        let mut precision = 0.0;
        let mut recall = 0.0;
        let mut f1 = 0.0;
        for c in self.classes.iter() {
            let s = self.class_scores(c);
            precision += s.precision;
            recall += s.recall;
            f1 += s.f1;
        }
        let kf = k as f64;
        PrfScores {
            precision: precision / kf,
            recall: recall / kf,
            f1: f1 / kf,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix() -> ConfusionMatrix {
        let mut m = ConfusionMatrix::new();
        // 3 classes; deliberately imbalanced.
        for _ in 0..8 {
            m.record("clear", "clear");
        }
        for _ in 0..2 {
            m.record("clear", "vague");
        }
        for _ in 0..5 {
            m.record("vague", "vague");
        }
        m.record("vague", "omitted");
        for _ in 0..4 {
            m.record("omitted", "omitted");
        }
        m
    }

    const CLASSES: [&str; 3] = ["clear", "omitted", "vague"];

    #[test]
    fn totals() {
        let m = sample_matrix();
        assert_eq!(m.total(), 20);
        // 17 of 20 on the diagonal: each class's true positives.
        let correct: usize = CLASSES.iter().map(|c| m.class_counts(c).0).sum();
        assert_eq!(correct, 17);
    }

    #[test]
    fn micro_equals_accuracy_for_single_label() {
        let m = sample_matrix();
        let accuracy = 17.0 / 20.0;
        let micro = m.micro_scores();
        assert!((micro.precision - accuracy).abs() < 1e-12);
        assert!((micro.recall - accuracy).abs() < 1e-12);
        assert!((micro.f1 - accuracy).abs() < 1e-12);
    }

    #[test]
    fn per_class_counts() {
        let m = sample_matrix();
        // "vague": TP=5, FP=2 (clear→vague), FN=1 (vague→omitted).
        assert_eq!(m.class_counts("vague"), (5, 2, 1));
        let s = m.class_scores("vague");
        assert!((s.precision - 5.0 / 7.0).abs() < 1e-12);
        assert!((s.recall - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn macro_is_mean_of_classes() {
        let m = sample_matrix();
        let macro_s = m.macro_scores();
        let mean_p: f64 = CLASSES
            .iter()
            .map(|c| m.class_scores(c).precision)
            .sum::<f64>()
            / 3.0;
        assert!((macro_s.precision - mean_p).abs() < 1e-12);
    }

    #[test]
    fn perfect_classifier() {
        let mut m = ConfusionMatrix::new();
        m.record("a", "a");
        m.record("b", "b");
        let s = m.macro_scores();
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        assert_eq!(s.f1, 1.0);
    }

    #[test]
    fn empty_matrix_is_zeroes() {
        let m = ConfusionMatrix::new();
        assert_eq!(m.total(), 0);
        assert_eq!(m.micro_scores().f1, 0.0);
        assert_eq!(m.macro_scores().f1, 0.0);
    }

    #[test]
    fn unseen_predicted_class_still_counted() {
        let mut m = ConfusionMatrix::new();
        m.record("a", "b"); // class "b" never appears as ground truth
        assert_eq!(m.class_counts("b"), (0, 1, 0));
        assert_eq!(m.class_scores("b").precision, 0.0);
    }
}
