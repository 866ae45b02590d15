//! Simulation reports and cross-policy comparisons.

use std::borrow::Cow;
use std::fmt;

use reap_core::Schedule;
use reap_units::{Energy, TimeSpan};

use crate::Policy;

/// Everything that happened in one simulated hour.
#[derive(Debug, Clone, PartialEq)]
pub struct HourRecord {
    /// Day index within the trace (0-based).
    pub day: u32,
    /// Hour of day (0-23).
    pub hour: u32,
    /// Energy actually harvested during the hour.
    pub harvested: Energy,
    /// Budget the allocation layer granted the planner.
    pub budget: Energy,
    /// The schedule the policy planned.
    pub planned: Schedule,
    /// Fraction of the plan that actually executed (1.0 unless the supply
    /// browned out mid-hour).
    pub realized_fraction: f64,
    /// Battery level at the end of the hour.
    pub battery_level: Energy,
}

impl HourRecord {
    /// Realized objective of the hour: planned `J(t)` scaled by the
    /// realized fraction.
    #[must_use]
    pub fn realized_objective(&self, alpha: f64) -> f64 {
        self.planned.objective(alpha) * self.realized_fraction
    }

    /// Realized expected accuracy of the hour.
    #[must_use]
    pub fn realized_accuracy(&self) -> f64 {
        self.planned.expected_accuracy() * self.realized_fraction
    }

    /// Realized active time of the hour.
    #[must_use]
    pub fn realized_active_time(&self) -> TimeSpan {
        self.planned.active_time() * self.realized_fraction
    }

    /// `true` if the supply failed to cover the plan.
    #[must_use]
    pub fn browned_out(&self) -> bool {
        self.realized_fraction < 1.0
    }
}

/// The result of simulating one policy over a whole trace.
///
/// Stores the [`Policy`] value itself (`Copy`) and the allocator's
/// `&'static str` name rather than owned strings — a matrix run produces
/// one report per (scenario, policy) pair and should not allocate names.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    policy: Policy,
    allocator: &'static str,
    alpha: f64,
    hours: Vec<HourRecord>,
}

impl SimReport {
    pub(crate) fn new(
        policy: Policy,
        allocator: &'static str,
        alpha: f64,
        hours: Vec<HourRecord>,
    ) -> SimReport {
        SimReport {
            policy,
            allocator,
            alpha,
            hours,
        }
    }

    /// The simulated policy.
    #[must_use]
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Name of the simulated policy (`"REAP"` or `"DPk"`).
    #[must_use]
    pub fn policy_name(&self) -> Cow<'static, str> {
        self.policy.name()
    }

    /// Name of the energy layer that drove the run: the budget allocator
    /// for the myopic policies (e.g. `"ewma"`), or the harvest
    /// forecaster for [`Policy::Horizon`] (e.g. `"oracle-forecast"`),
    /// which bypasses the allocator.
    #[must_use]
    // reap-lint: allow(api) -- engine_golden's canonical encoder digests it
    pub fn allocator_name(&self) -> &'static str {
        self.allocator
    }

    /// The `alpha` the planner optimized for.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Hour-by-hour records.
    #[must_use]
    pub fn hours(&self) -> &[HourRecord] {
        &self.hours
    }

    /// Number of simulated days.
    #[must_use]
    pub fn days(&self) -> u32 {
        (self.hours.len() / 24) as u32
    }

    /// Sum of realized objectives over all hours.
    #[must_use]
    pub fn total_objective(&self, alpha: f64) -> f64 {
        self.hours.iter().map(|h| h.realized_objective(alpha)).sum()
    }

    /// Mean realized expected accuracy per hour.
    #[must_use]
    pub fn mean_accuracy(&self) -> f64 {
        if self.hours.is_empty() {
            return 0.0;
        }
        self.hours
            .iter()
            .map(HourRecord::realized_accuracy)
            .sum::<f64>()
            / self.hours.len() as f64
    }

    /// Total realized active time.
    #[must_use]
    pub fn total_active_time(&self) -> TimeSpan {
        self.hours
            .iter()
            .map(HourRecord::realized_active_time)
            .sum()
    }

    /// Hours in which the plan browned out.
    #[must_use]
    pub fn brownout_hours(&self) -> usize {
        self.hours.iter().filter(|h| h.browned_out()).count()
    }

    /// Total energy harvested over the trace.
    #[must_use]
    pub fn total_harvested(&self) -> Energy {
        self.hours.iter().map(|h| h.harvested).sum()
    }

    /// Realized objective summed per day.
    #[must_use]
    pub fn daily_objective(&self, alpha: f64) -> Vec<f64> {
        let days = self.days() as usize;
        let mut out = vec![0.0; days];
        for h in &self.hours {
            out[h.day as usize] += h.realized_objective(alpha);
        }
        out
    }

    /// Per-day ratio of this report's objective to `baseline`'s, as
    /// `(min, mean, max)` over days where the baseline is positive — the
    /// statistics behind the paper's Fig. 7 error bars. `None` when the
    /// baseline never scores.
    #[must_use]
    pub fn normalized_daily(&self, baseline: &SimReport, alpha: f64) -> Option<(f64, f64, f64)> {
        let ours = self.daily_objective(alpha);
        let theirs = baseline.daily_objective(alpha);
        let ratios: Vec<f64> = ours
            .iter()
            .zip(&theirs)
            .filter(|(_, &b)| b > 1e-12)
            .map(|(&a, &b)| a / b)
            .collect();
        if ratios.is_empty() {
            return None;
        }
        let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
        let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        Some((min, mean, max))
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} allocator, alpha {}): {} days, J = {:.1}, mean accuracy {:.1}%, active {:.1} h, {} brownouts",
            self.policy,
            self.allocator,
            self.alpha,
            self.days(),
            self.total_objective(self.alpha),
            self.mean_accuracy() * 100.0,
            self.total_active_time().hours(),
            self.brownout_hours(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reap_core::{OperatingPoint, ReapProblem};
    use reap_units::Power;

    impl SimReport {
        /// Serializes the hour-by-hour record as CSV
        /// (`day,hour,harvested_j,budget_j,expected_accuracy,active_s,realized_fraction,battery_j`),
        /// for plotting outside Rust.
        fn to_csv(&self) -> String {
            let mut out = String::from(
                "day,hour,harvested_j,budget_j,expected_accuracy,active_s,realized_fraction,battery_j\n",
            );
            for h in &self.hours {
                out.push_str(&format!(
                    "{},{},{:.6},{:.6},{:.6},{:.3},{:.6},{:.6}\n",
                    h.day,
                    h.hour,
                    h.harvested.joules(),
                    h.budget.joules(),
                    h.planned.expected_accuracy(),
                    h.planned.active_time().seconds(),
                    h.realized_fraction,
                    h.battery_level.joules(),
                ));
            }
            out
        }
    }

    fn hour_record(day: u32, accuracy_weight: f64) -> HourRecord {
        let problem = ReapProblem::builder()
            .point(OperatingPoint::new(1, "DP1", 0.9, Power::from_milliwatts(2.0)).unwrap())
            .build()
            .unwrap();
        let planned = problem.solve(Energy::from_joules(7.2)).unwrap();
        HourRecord {
            day,
            hour: 12,
            harvested: Energy::from_joules(5.0),
            budget: Energy::from_joules(7.2),
            planned,
            realized_fraction: accuracy_weight,
            battery_level: Energy::from_joules(10.0),
        }
    }

    #[test]
    fn hour_record_metrics_scale_with_realized_fraction() {
        let full = hour_record(0, 1.0);
        let half = hour_record(0, 0.5);
        assert!(!full.browned_out());
        assert!(half.browned_out());
        assert!((full.realized_accuracy() - 0.9).abs() < 1e-9);
        assert!((half.realized_accuracy() - 0.45).abs() < 1e-9);
        assert!((half.realized_active_time().seconds() - 1800.0).abs() < 1e-6);
    }

    #[test]
    fn report_aggregates() {
        let hours: Vec<HourRecord> = (0..48).map(|i| hour_record(i / 24, 1.0)).collect();
        let r = SimReport::new(Policy::Reap, "ewma", 1.0, hours);
        assert_eq!(r.days(), 2);
        assert!((r.total_objective(1.0) - 48.0 * 0.9).abs() < 1e-9);
        assert!((r.mean_accuracy() - 0.9).abs() < 1e-9);
        assert_eq!(r.brownout_hours(), 0);
        let daily = r.daily_objective(1.0);
        assert_eq!(daily.len(), 2);
        assert!((daily[0] - 24.0 * 0.9).abs() < 1e-9);
    }

    #[test]
    fn normalized_daily_ratios() {
        let ours = SimReport::new(
            Policy::Reap,
            "ewma",
            1.0,
            (0..24).map(|_| hour_record(0, 1.0)).collect(),
        );
        let theirs = SimReport::new(
            Policy::Static(1),
            "ewma",
            1.0,
            (0..24).map(|_| hour_record(0, 0.5)).collect(),
        );
        let (min, mean, max) = ours.normalized_daily(&theirs, 1.0).unwrap();
        assert!((min - 2.0).abs() < 1e-9);
        assert!((mean - 2.0).abs() < 1e-9);
        assert!((max - 2.0).abs() < 1e-9);
        // Zero baseline -> None.
        let dead = SimReport::new(
            Policy::Static(1),
            "ewma",
            1.0,
            (0..24).map(|_| hour_record(0, 0.0)).collect(),
        );
        assert!(ours.normalized_daily(&dead, 1.0).is_none());
    }

    #[test]
    fn csv_has_header_and_one_row_per_hour() {
        let r = SimReport::new(
            Policy::Reap,
            "ewma",
            1.0,
            (0..24).map(|_| hour_record(0, 1.0)).collect(),
        );
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 25);
        assert!(lines[0].starts_with("day,hour,"));
        assert_eq!(lines[1].split(',').count(), 8);
    }

    #[test]
    fn display_summarizes() {
        let r = SimReport::new(
            Policy::Reap,
            "ewma",
            1.0,
            (0..24).map(|_| hour_record(0, 1.0)).collect(),
        );
        let s = r.to_string();
        assert!(s.contains("REAP"));
        assert!(s.contains("1 days"));
    }
}
