//! Empirical recognition sampling.
//!
//! [`SimReport`](crate::SimReport) metrics are *expected* values: an hour
//! planned at design points with accuracies `a_i` contributes
//! `sum a_i t_i / TP`. A real device classifies a finite number of windows
//! and gets each one right or wrong; this module samples that process
//! (one Bernoulli draw per classified window) so the dispersion of
//! realized accuracy around its expectation can be studied without running
//! the full classifier in the loop.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{HourRecord, SimReport};

/// Result of sampling one hour's recognitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HourRecognitions {
    /// Windows the device classified during the hour.
    pub classified: u64,
    /// Windows classified correctly.
    pub correct: u64,
}

impl HourRecognitions {
    /// Empirical accuracy over the classified windows; `None` when the
    /// device was off all hour (no windows to classify).
    #[must_use]
    pub fn accuracy(&self) -> Option<f64> {
        if self.classified == 0 {
            None
        } else {
            Some(self.correct as f64 / self.classified as f64)
        }
    }
}

/// Samples the recognitions of one simulated hour: each design point
/// classifies `floor(t_i / window)` windows, each correct with
/// probability `a_i`, scaled by the hour's realized fraction.
pub fn sample_hour<R: Rng + ?Sized>(record: &HourRecord, rng: &mut R) -> HourRecognitions {
    let window_s = reap_data::WINDOW_SECONDS;
    let mut classified = 0u64;
    let mut correct = 0u64;
    for share in record.planned.shares() {
        let realized_seconds = share.seconds * record.realized_fraction;
        let windows = (realized_seconds / window_s).floor() as u64;
        for _ in 0..windows {
            classified += 1;
            if rng.gen::<f64>() < share.accuracy {
                correct += 1;
            }
        }
    }
    HourRecognitions {
        classified,
        correct,
    }
}

/// Samples a whole report, returning the aggregate empirical accuracy
/// (`None` if the device never classified a window).
#[must_use]
pub fn sample_report(report: &SimReport, seed: u64) -> Option<f64> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut classified = 0u64;
    let mut correct = 0u64;
    for record in report.hours() {
        let h = sample_hour(record, &mut rng);
        classified += h.classified;
        correct += h.correct;
    }
    if classified == 0 {
        None
    } else {
        Some(correct as f64 / classified as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Policy, Scenario};
    use reap_harvest::HarvestTrace;

    fn report() -> SimReport {
        Scenario::builder(HarvestTrace::september_like(4))
            .points(reap_device::paper_table2_operating_points())
            .build()
            .expect("valid")
            .run(Policy::Reap)
            .expect("runs")
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let r = report();
        assert_eq!(sample_report(&r, 1), sample_report(&r, 1));
        assert_ne!(sample_report(&r, 1), sample_report(&r, 2));
    }

    #[test]
    fn empirical_accuracy_tracks_expected_accuracy() {
        // Over a month (hundreds of thousands of windows) the Bernoulli
        // mean must sit very close to the schedule-weighted accuracy of
        // the classified windows.
        let r = report();
        let sampled = sample_report(&r, 7).expect("device ran");
        // Expected accuracy over *classified* windows: weight each hour's
        // point accuracies by realized classified time.
        let mut num = 0.0;
        let mut den = 0.0;
        for h in r.hours() {
            for s in h.planned.shares() {
                let t = s.seconds * h.realized_fraction;
                num += s.accuracy * t;
                den += t;
            }
        }
        let expected = num / den;
        assert!(
            (sampled - expected).abs() < 0.01,
            "sampled {sampled} vs expected {expected}"
        );
    }

    #[test]
    fn off_hours_classify_nothing() {
        let r = report();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        for h in r.hours() {
            let rec = sample_hour(h, &mut rng);
            if h.planned.shares().is_empty() {
                assert_eq!(rec.classified, 0);
                assert_eq!(rec.accuracy(), None);
            } else {
                assert!(rec.correct <= rec.classified);
            }
        }
    }

    #[test]
    fn window_counts_match_active_time() {
        let r = report();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for h in r.hours().iter().take(100) {
            let rec = sample_hour(h, &mut rng);
            let max_windows = (h.planned.active_time().seconds() * h.realized_fraction
                / reap_data::WINDOW_SECONDS) as u64;
            assert!(rec.classified <= max_windows + 2);
        }
    }
}
