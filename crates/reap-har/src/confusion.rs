//! Confusion-matrix evaluation.

use std::fmt;

use reap_data::Activity;

/// A confusion matrix over the activity classes.
///
/// Rows are ground truth, columns are predictions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    counts: [[usize; Activity::COUNT]; Activity::COUNT],
}

impl ConfusionMatrix {
    /// An empty matrix.
    #[must_use]
    pub fn new() -> ConfusionMatrix {
        ConfusionMatrix {
            counts: [[0; Activity::COUNT]; Activity::COUNT],
        }
    }

    /// Records one `(truth, prediction)` pair.
    pub fn record(&mut self, truth: Activity, prediction: Activity) {
        self.counts[truth.index()][prediction.index()] += 1;
    }

    /// Raw count for a `(truth, prediction)` cell.
    #[must_use]
    pub fn count(&self, truth: Activity, prediction: Activity) -> usize {
        self.counts[truth.index()][prediction.index()]
    }

    /// Total number of recorded samples.
    #[must_use]
    pub fn total(&self) -> usize {
        self.counts.iter().flatten().sum()
    }

    /// Overall accuracy in `[0, 1]`; 0 when empty.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: usize = (0..Activity::COUNT).map(|i| self.counts[i][i]).sum();
        correct as f64 / total as f64
    }

    /// The most confused off-diagonal pair `(truth, predicted, count)`, if
    /// any misclassification occurred.
    #[must_use]
    pub fn worst_confusion(&self) -> Option<(Activity, Activity, usize)> {
        let mut best: Option<(Activity, Activity, usize)> = None;
        for t in Activity::ALL {
            for p in Activity::ALL {
                if t != p {
                    let c = self.count(t, p);
                    if c > 0 && best.is_none_or(|(_, _, bc)| c > bc) {
                        best = Some((t, p, c));
                    }
                }
            }
        }
        best
    }
}

impl Default for ConfusionMatrix {
    fn default() -> Self {
        ConfusionMatrix::new()
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>12}", "truth\\pred")?;
        for p in Activity::ALL {
            write!(f, "{:>7}", truncate(p.label(), 6))?;
        }
        writeln!(f)?;
        for t in Activity::ALL {
            write!(f, "{:>12}", truncate(t.label(), 11))?;
            for p in Activity::ALL {
                write!(f, "{:>7}", self.count(t, p))?;
            }
            writeln!(f)?;
        }
        write!(f, "accuracy {:.2}%", self.accuracy() * 100.0)
    }
}

fn truncate(s: &str, n: usize) -> &str {
    &s[..s.len().min(n)]
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ConfusionMatrix {
        /// Recall of one class (correct / ground-truth count); `None` when the
        /// class never appeared as ground truth.
        fn recall(&self, class: Activity) -> Option<f64> {
            let i = class.index();
            let row: usize = self.counts[i].iter().sum();
            if row == 0 {
                None
            } else {
                Some(self.counts[i][i] as f64 / row as f64)
            }
        }

        /// Precision of one class (correct / predicted count); `None` when the
        /// class was never predicted.
        fn precision(&self, class: Activity) -> Option<f64> {
            let j = class.index();
            let col: usize = (0..Activity::COUNT).map(|i| self.counts[i][j]).sum();
            if col == 0 {
                None
            } else {
                Some(self.counts[j][j] as f64 / col as f64)
            }
        }
    }

    impl ConfusionMatrix {
        /// Macro-averaged F1 score over classes that appeared in the ground
        /// truth. Classes with undefined precision contribute an F1 of 0.
        fn macro_f1(&self) -> f64 {
            let mut sum = 0.0;
            let mut n = 0usize;
            for class in Activity::ALL {
                if let Some(r) = self.recall(class) {
                    n += 1;
                    let p = self.precision(class).unwrap_or(0.0);
                    if p + r > 0.0 {
                        sum += 2.0 * p * r / (p + r);
                    }
                }
            }
            if n == 0 {
                0.0
            } else {
                sum / n as f64
            }
        }
    }

    #[test]
    fn empty_matrix() {
        let m = ConfusionMatrix::new();
        assert_eq!(m.total(), 0);
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.recall(Activity::Sit), None);
        assert_eq!(m.worst_confusion(), None);
        assert_eq!(m, ConfusionMatrix::default());
    }

    #[test]
    fn accuracy_and_recall() {
        let mut m = ConfusionMatrix::new();
        m.record(Activity::Sit, Activity::Sit);
        m.record(Activity::Sit, Activity::Sit);
        m.record(Activity::Sit, Activity::Drive);
        m.record(Activity::Walk, Activity::Walk);
        assert_eq!(m.total(), 4);
        assert!((m.accuracy() - 0.75).abs() < 1e-12);
        assert!((m.recall(Activity::Sit).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.recall(Activity::Walk), Some(1.0));
        assert_eq!(m.precision(Activity::Walk), Some(1.0));
        // Drive was predicted once, never correctly.
        assert_eq!(m.precision(Activity::Drive), Some(0.0));
        assert_eq!(
            m.worst_confusion(),
            Some((Activity::Sit, Activity::Drive, 1))
        );
    }

    #[test]
    fn macro_f1_perfect_classifier() {
        let mut m = ConfusionMatrix::new();
        for a in Activity::ALL {
            m.record(a, a);
        }
        assert!((m.macro_f1() - 1.0).abs() < 1e-12);
        assert!((m.accuracy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_contains_labels_and_accuracy() {
        let mut m = ConfusionMatrix::new();
        m.record(Activity::Walk, Activity::Walk);
        let s = m.to_string();
        assert!(s.contains("walk"));
        assert!(s.contains("accuracy 100.00%"));
    }
}
