//! Classifier-in-the-loop execution.
//!
//! The statistical machinery elsewhere in this crate treats a design
//! point's accuracy as a fixed number `a_i`. This module closes the last
//! gap to a real deployment: it *executes* a planned schedule by
//! synthesizing fresh sensor windows from an activity stream, running the
//! actual trained classifiers of each design point, and scoring the
//! predictions against ground truth. Slower than Bernoulli sampling but
//! makes no assumptions — it is how the reproduction validates that the
//! accuracies fed to the optimizer are achievable on signal data the
//! classifiers have never seen.

use rand::rngs::StdRng;
use rand::SeedableRng;
use reap_core::Schedule;
use reap_data::{ActivityWindow, UserProfile};
use reap_har::{HarError, TrainedClassifier};

use crate::ActivityStream;

/// Outcome of executing one schedule with real classifiers.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionOutcome {
    /// Windows classified per design point id, in schedule order.
    pub per_point: Vec<PointOutcome>,
}

/// Recognition statistics of one design point during the execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointOutcome {
    /// The design point's id.
    pub point_id: u8,
    /// Windows this point classified.
    pub classified: u64,
    /// Windows classified correctly.
    pub correct: u64,
}

impl ExecutionOutcome {
    /// Overall realized accuracy; `None` when nothing was classified.
    #[must_use]
    pub fn accuracy(&self) -> Option<f64> {
        let classified: u64 = self.per_point.iter().map(|p| p.classified).sum();
        if classified == 0 {
            return None;
        }
        let correct: u64 = self.per_point.iter().map(|p| p.correct).sum();
        Some(correct as f64 / classified as f64)
    }

    /// Realized accuracy of one point; `None` if it classified nothing.
    #[must_use]
    pub fn point_accuracy(&self, point_id: u8) -> Option<f64> {
        self.per_point
            .iter()
            .find(|p| p.point_id == point_id)
            .and_then(|p| {
                if p.classified == 0 {
                    None
                } else {
                    Some(p.correct as f64 / p.classified as f64)
                }
            })
    }
}

/// Executes `schedule` with real classifiers against freshly synthesized
/// windows from `stream`, worn by `profile`.
///
/// `classifiers` maps a design point id to its trained classifier; every
/// allocation in the schedule must have one. `subsample` classifies every
/// `subsample`-th window to bound runtime (1 = every window).
///
/// # Errors
///
/// * [`HarError::InvalidConfig`] when a scheduled point has no classifier
///   or `subsample == 0`.
/// * Propagates feature-extraction errors.
pub fn execute_schedule(
    schedule: &Schedule,
    classifiers: &[(u8, &TrainedClassifier)],
    profile: &UserProfile,
    stream: &mut ActivityStream,
    seed: u64,
    subsample: u32,
) -> Result<ExecutionOutcome, HarError> {
    if subsample == 0 {
        return Err(HarError::InvalidConfig("subsample must be >= 1".into()));
    }
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA24B_AED4_963E_E407));
    let window_s = reap_data::WINDOW_SECONDS;
    let mut per_point = Vec::with_capacity(schedule.shares().len());
    for share in schedule.shares() {
        let id = share.id;
        let classifier = classifiers
            .iter()
            .find(|(cid, _)| *cid == id)
            .map(|(_, c)| *c)
            .ok_or_else(|| {
                HarError::InvalidConfig(format!("no classifier for scheduled point {id}"))
            })?;
        let windows = (share.seconds / window_s).floor() as u64;
        let mut outcome = PointOutcome {
            point_id: id,
            classified: 0,
            correct: 0,
        };
        for w in 0..windows {
            let label = stream.next_window();
            if w % u64::from(subsample) != 0 {
                continue; // the wearer still moves; we just skip scoring
            }
            let window = ActivityWindow::synthesize(profile, label, &mut rng);
            let predicted = classifier.classify(&window)?;
            outcome.classified += 1;
            if predicted == label {
                outcome.correct += 1;
            }
        }
        per_point.push(outcome);
    }
    Ok(ExecutionOutcome { per_point })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reap_core::{OperatingPoint, ReapProblem};
    use reap_data::Dataset;
    use reap_har::{train_classifier, DpConfig, TrainConfig};
    use reap_units::{Energy, Power};

    fn trained_pair() -> (TrainedClassifier, TrainedClassifier) {
        let dataset = Dataset::generate(4, 420, 21);
        let configs = DpConfig::paper_pareto_5();
        let dp1 = train_classifier(&dataset, &configs[0], &TrainConfig::fast(21)).unwrap();
        let dp5 = train_classifier(&dataset, &configs[4], &TrainConfig::fast(21)).unwrap();
        (dp1, dp5)
    }

    fn schedule(dp1_acc: f64, dp5_acc: f64) -> Schedule {
        let problem = ReapProblem::builder()
            .points(vec![
                OperatingPoint::new(1, "DP1", dp1_acc, Power::from_milliwatts(2.76)).unwrap(),
                OperatingPoint::new(5, "DP5", dp5_acc, Power::from_milliwatts(1.20)).unwrap(),
            ])
            .build()
            .unwrap();
        problem.solve(Energy::from_joules(6.0)).unwrap()
    }

    #[test]
    fn execution_scores_real_predictions() {
        let (dp1, dp5) = trained_pair();
        let s = schedule(dp1.test_accuracy, dp5.test_accuracy);
        let profile = UserProfile::generate(1, 21);
        let mut stream = ActivityStream::new(33);
        let outcome = execute_schedule(
            &s,
            &[(1, &dp1), (5, &dp5)],
            &profile,
            &mut stream,
            9,
            25, // score every 25th window to keep the test fast
        )
        .unwrap();
        let acc = outcome.accuracy().expect("device ran");
        assert!(acc > 0.5, "realized accuracy {acc}");
        // Per-point stats exist for each scheduled point.
        for share in s.shares() {
            assert!(outcome.point_accuracy(share.id).is_some());
        }
    }

    #[test]
    fn missing_classifier_is_an_error() {
        let (dp1, _) = trained_pair();
        let s = schedule(0.9, 0.7);
        let profile = UserProfile::generate(1, 21);
        let mut stream = ActivityStream::new(1);
        let err = execute_schedule(&s, &[(1, &dp1)], &profile, &mut stream, 0, 50);
        assert!(matches!(err, Err(HarError::InvalidConfig(_))));
    }

    #[test]
    fn zero_subsample_is_rejected() {
        let (dp1, dp5) = trained_pair();
        let s = schedule(0.9, 0.7);
        let profile = UserProfile::generate(1, 21);
        let mut stream = ActivityStream::new(1);
        let err = execute_schedule(&s, &[(1, &dp1), (5, &dp5)], &profile, &mut stream, 0, 0);
        assert!(matches!(err, Err(HarError::InvalidConfig(_))));
    }

    #[test]
    fn execution_is_deterministic() {
        let (dp1, dp5) = trained_pair();
        let s = schedule(dp1.test_accuracy, dp5.test_accuracy);
        let profile = UserProfile::generate(2, 21);
        let run = || {
            let mut stream = ActivityStream::new(5);
            execute_schedule(&s, &[(1, &dp1), (5, &dp5)], &profile, &mut stream, 4, 40).unwrap()
        };
        assert_eq!(run(), run());
    }
}
