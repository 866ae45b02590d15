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

    #[test]
    fn empty_matrix() {
        let m = ConfusionMatrix::new();
        assert_eq!(m.total(), 0);
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.worst_confusion(), None);
        assert_eq!(m, ConfusionMatrix::default());
    }

    #[test]
    fn accuracy_and_worst_confusion() {
        let mut m = ConfusionMatrix::new();
        m.record(Activity::Sit, Activity::Sit);
        m.record(Activity::Sit, Activity::Sit);
        m.record(Activity::Sit, Activity::Drive);
        m.record(Activity::Walk, Activity::Walk);
        assert_eq!(m.total(), 4);
        assert!((m.accuracy() - 0.75).abs() < 1e-12);
        assert_eq!(
            m.worst_confusion(),
            Some((Activity::Sit, Activity::Drive, 1))
        );
    }

    #[test]
    fn perfect_classifier_is_fully_accurate() {
        let mut m = ConfusionMatrix::new();
        for a in Activity::ALL {
            m.record(a, a);
        }
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
