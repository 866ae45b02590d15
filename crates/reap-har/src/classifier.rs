//! End-to-end training of a design point's classifier.

use reap_data::{Activity, ActivityWindow, Dataset};

use crate::config::NUM_CLASSES;
use crate::features::extract_features;
use crate::nn::{Mlp, TrainConfig};
use crate::normalize::Standardizer;
use crate::{ConfusionMatrix, DpConfig, HarError};

/// A trained, ready-to-run classifier for one design point.
///
/// Produced by [`train_classifier`]; bundles the feature standardizer, the
/// network, and the accuracies measured on the validation and held-out test
/// partitions. The `test_accuracy` is the number that plays the role of
/// `a_i` in the REAP optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedClassifier {
    /// The design-point configuration this classifier implements.
    pub config: DpConfig,
    /// Accuracy on the validation partition (used for model selection).
    pub validation_accuracy: f64,
    /// Accuracy on the held-out test partition (the paper's reported
    /// accuracy).
    pub test_accuracy: f64,
    /// Confusion matrix on the test partition.
    pub confusion: ConfusionMatrix,
    standardizer: Standardizer,
    network: Mlp,
}

impl TrainedClassifier {
    /// Classifies one sensor window.
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction errors ([`HarError::Dsp`]).
    pub fn classify(&self, window: &ActivityWindow) -> Result<Activity, HarError> {
        let features = extract_features(&self.config, window)?;
        let normed = self.standardizer.apply(&features)?;
        let class = self.network.predict(&normed);
        Ok(Activity::from_index(class).expect("network outputs one of the 7 classes"))
    }

    /// The underlying network (e.g. to inspect parameter counts).
    #[must_use]
    pub fn network(&self) -> &Mlp {
        &self.network
    }
}

/// Trains a classifier for `config` on `dataset` using the paper's
/// 60/20/20 train/validation/test protocol.
///
/// The split and the network initialization both derive from
/// `train_config.seed`, so results are fully reproducible.
///
/// # Errors
///
/// * [`HarError::InvalidConfig`] for inconsistent design points.
/// * [`HarError::EmptyTrainingSet`] for datasets too small to split.
/// * Any feature-extraction error.
pub fn train_classifier(
    dataset: &Dataset,
    config: &DpConfig,
    train_config: &TrainConfig,
) -> Result<TrainedClassifier, HarError> {
    config.validate()?;
    let split = dataset.split(train_config.seed);
    if split.train.is_empty() {
        return Err(HarError::EmptyTrainingSet);
    }

    let featurize = |windows: &[&ActivityWindow]| -> Result<(Vec<Vec<f64>>, Vec<usize>), HarError> {
        let mut xs = Vec::with_capacity(windows.len());
        let mut ys = Vec::with_capacity(windows.len());
        for w in windows {
            xs.push(extract_features(config, w)?);
            ys.push(w.label.index());
        }
        Ok((xs, ys))
    };

    let (train_x_raw, train_y) = featurize(&split.train)?;
    let standardizer = Standardizer::fit(&train_x_raw)?;
    let train_x = standardizer.apply_all(&train_x_raw)?;

    let sizes = config.nn.layer_sizes(config.feature_dim(), NUM_CLASSES);
    let mut network = Mlp::new(&sizes, train_config.seed)?;
    network.train(&train_x, &train_y, train_config)?;

    let (val_x_raw, val_y) = featurize(&split.validation)?;
    let val_x = standardizer.apply_all(&val_x_raw)?;
    let validation_accuracy = network.accuracy(&val_x, &val_y);

    let (test_x_raw, test_y) = featurize(&split.test)?;
    let test_x = standardizer.apply_all(&test_x_raw)?;
    let mut confusion = ConfusionMatrix::new();
    for (x, &y) in test_x.iter().zip(&test_y) {
        let pred = network.predict(x);
        confusion.record(
            Activity::from_index(y).expect("valid label"),
            Activity::from_index(pred).expect("valid prediction"),
        );
    }

    Ok(TrainedClassifier {
        config: config.clone(),
        validation_accuracy,
        test_accuracy: confusion.accuracy(),
        confusion,
        standardizer,
        network,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reap_data::Dataset;

    impl TrainedClassifier {
        /// Class-probability vector for one window (softmax outputs indexed by
        /// [`Activity::index`]).
        ///
        /// # Errors
        ///
        /// Propagates feature-extraction errors.
        fn probabilities(&self, window: &ActivityWindow) -> Result<Vec<f64>, HarError> {
            let features = extract_features(&self.config, window)?;
            let normed = self.standardizer.apply(&features)?;
            Ok(self.network.forward(&normed))
        }
    }

    fn small_dataset() -> Dataset {
        Dataset::generate(4, 350, 42)
    }

    #[test]
    fn dp1_learns_far_better_than_chance() {
        let classifier = train_classifier(
            &small_dataset(),
            &DpConfig::paper_pareto_5()[0],
            &TrainConfig::fast(1),
        )
        .unwrap();
        assert!(
            classifier.test_accuracy > 0.6,
            "DP1 test accuracy = {}",
            classifier.test_accuracy
        );
        // ~20% of 350; per-class rounding can shift the total by a couple.
        let total = classifier.confusion.total() as i64;
        assert!((total - 70).abs() <= 3, "test partition size {total}");
    }

    #[test]
    fn stretch_only_is_worse_than_full_sensing() {
        let d = small_dataset();
        let dp1 =
            train_classifier(&d, &DpConfig::paper_pareto_5()[0], &TrainConfig::fast(1)).unwrap();
        let dp5 =
            train_classifier(&d, &DpConfig::paper_pareto_5()[4], &TrainConfig::fast(1)).unwrap();
        assert!(
            dp1.test_accuracy > dp5.test_accuracy,
            "dp1 {} <= dp5 {}",
            dp1.test_accuracy,
            dp5.test_accuracy
        );
    }

    #[test]
    fn classify_returns_plausible_labels() {
        let d = small_dataset();
        let classifier =
            train_classifier(&d, &DpConfig::paper_pareto_5()[0], &TrainConfig::fast(1)).unwrap();
        let mut correct = 0;
        let sample = &d.windows()[..50];
        for w in sample {
            if classifier.classify(w).unwrap() == w.label {
                correct += 1;
            }
        }
        assert!(correct > 25, "only {correct}/50 correct");
    }

    #[test]
    fn probabilities_form_a_distribution() {
        let d = small_dataset();
        let classifier =
            train_classifier(&d, &DpConfig::paper_pareto_5()[4], &TrainConfig::fast(1)).unwrap();
        let p = classifier.probabilities(&d.windows()[0]).unwrap();
        assert_eq!(p.len(), Activity::COUNT);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn training_is_deterministic() {
        let d = small_dataset();
        let a =
            train_classifier(&d, &DpConfig::paper_pareto_5()[4], &TrainConfig::fast(3)).unwrap();
        let b =
            train_classifier(&d, &DpConfig::paper_pareto_5()[4], &TrainConfig::fast(3)).unwrap();
        assert_eq!(a.test_accuracy, b.test_accuracy);
        assert_eq!(a.confusion, b.confusion);
    }
}
