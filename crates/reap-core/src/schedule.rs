//! Schedules: the optimizer's output.

use std::fmt;
use std::sync::Arc;

use reap_units::{Energy, Power, TimeSpan};

use crate::OperatingPoint;

/// Allocations of at most this many seconds are numerical noise: every
/// plan (schedules, frontier tables, the fleet kernels) drops them.
pub const DROP_S: f64 = 1e-6;

/// Time allocated to one operating point within an activity period.
///
/// The point is held behind an [`Arc`] shared with the owning
/// [`ReapProblem`](crate::ReapProblem), so building a schedule never deep-
/// copies point labels — planning loops construct thousands of schedules
/// per simulated month.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// The operating point being used.
    pub point: Arc<OperatingPoint>,
    /// How long it runs during the period.
    pub duration: TimeSpan,
}

/// A complete plan for one activity period `TP`: how long to run each
/// operating point and how long to stay off.
///
/// Produced by [`ReapProblem::solve`](crate::ReapProblem::solve) (the REAP
/// policy) or [`static_schedule`](crate::static_schedule) (the single-DP
/// duty-cycling baselines).
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    allocations: Vec<Allocation>,
    off_time: TimeSpan,
    period: TimeSpan,
    off_power: Power,
}

impl Schedule {
    /// Assembles a schedule. Allocations of at most [`DROP_S`] are
    /// dropped as numerical noise.
    pub(crate) fn new(
        mut allocations: Vec<Allocation>,
        off_time: TimeSpan,
        period: TimeSpan,
        off_power: Power,
    ) -> Schedule {
        allocations.retain(|a| a.duration.seconds() > DROP_S);
        allocations.sort_by_key(|a| a.point.id());
        Schedule {
            allocations,
            off_time: TimeSpan::from_seconds(off_time.seconds().max(0.0)),
            period,
            off_power,
        }
    }

    /// The non-zero allocations, sorted by operating-point id.
    #[must_use]
    pub fn allocations(&self) -> &[Allocation] {
        &self.allocations
    }

    /// Time spent in the off state.
    #[must_use]
    pub fn off_time(&self) -> TimeSpan {
        self.off_time
    }

    /// The activity period `TP` this schedule plans.
    #[must_use]
    pub fn period(&self) -> TimeSpan {
        self.period
    }

    /// Total active time `sum_i t_i`.
    #[must_use]
    pub fn active_time(&self) -> TimeSpan {
        self.allocations.iter().map(|a| a.duration).sum()
    }

    /// Active time as a fraction of the period, in `[0, 1]`.
    #[must_use]
    pub fn active_fraction(&self) -> f64 {
        self.active_time() / self.period
    }

    /// Expected accuracy over the period: `(1/TP) sum_i a_i t_i`
    /// (Sec. 3.2 of the paper). Off time contributes zero.
    #[must_use]
    pub fn expected_accuracy(&self) -> f64 {
        // `+ 0.0` normalizes the -0.0 that summing an empty iterator
        // produces.
        self.allocations
            .iter()
            .map(|a| a.point.accuracy() * (a.duration / self.period))
            .sum::<f64>()
            + 0.0
    }

    /// The generalized objective `J(t) = (1/TP) sum_i a_i^alpha t_i`
    /// (Eq. 1).
    #[must_use]
    pub fn objective(&self, alpha: f64) -> f64 {
        self.allocations
            .iter()
            .map(|a| a.point.weight(alpha) * (a.duration / self.period))
            .sum::<f64>()
            + 0.0
    }

    /// Total energy the schedule consumes, including the off-state power.
    #[must_use]
    pub fn energy(&self) -> Energy {
        let active: Energy = self
            .allocations
            .iter()
            .map(|a| a.point.power() * a.duration)
            .sum();
        active + self.off_power * self.off_time
    }

    /// Fraction of the period allocated to the point with `id` (0 when the
    /// point is unused).
    #[must_use]
    pub fn fraction_for(&self, id: u8) -> f64 {
        self.allocations
            .iter()
            .filter(|a| a.point.id() == id)
            .map(|a| a.duration / self.period)
            .sum::<f64>()
            + 0.0
    }

    /// `true` when time accounting is consistent (allocations plus off time
    /// equal the period) and the energy fits within `budget`, both within
    /// tolerance `tol_seconds` / `tol` relative energy.
    #[must_use]
    pub fn is_feasible(&self, budget: Energy, tol: f64) -> bool {
        let total_time = self.active_time() + self.off_time;
        let time_ok = (total_time.seconds() - self.period.seconds()).abs()
            <= tol * self.period.seconds().max(1.0);
        let energy_ok = self.energy().joules() <= budget.joules() * (1.0 + tol) + tol;
        time_ok && energy_ok
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule over {} (expected accuracy {:.1}%, active {:.1}%):",
            self.period,
            self.expected_accuracy() * 100.0,
            self.active_fraction() * 100.0
        )?;
        for a in &self.allocations {
            writeln!(
                f,
                "  {:<18} {:>10}  ({:.1}% of period)",
                a.point.label(),
                a.duration.to_string(),
                (a.duration / self.period) * 100.0
            )?;
        }
        write!(f, "  {:<18} {:>10}", "off", self.off_time.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(id: u8, acc: f64, mw: f64) -> Arc<OperatingPoint> {
        Arc::new(
            OperatingPoint::new(id, format!("DP{id}"), acc, Power::from_milliwatts(mw)).unwrap(),
        )
    }

    fn hour() -> TimeSpan {
        TimeSpan::from_hours(1.0)
    }

    fn p_off() -> Power {
        Power::from_microwatts(50.0)
    }

    fn example() -> Schedule {
        Schedule::new(
            vec![
                Allocation {
                    point: point(4, 0.90, 1.64),
                    duration: TimeSpan::from_seconds(1512.0),
                },
                Allocation {
                    point: point(5, 0.76, 1.20),
                    duration: TimeSpan::from_seconds(2088.0),
                },
            ],
            TimeSpan::ZERO,
            hour(),
            p_off(),
        )
    }

    #[test]
    fn accounting_is_consistent() {
        let s = example();
        assert!((s.active_time().seconds() - 3600.0).abs() < 1e-9);
        assert!((s.active_fraction() - 1.0).abs() < 1e-12);
        let expected_acc = (0.90 * 1512.0 + 0.76 * 2088.0) / 3600.0;
        assert!((s.expected_accuracy() - expected_acc).abs() < 1e-12);
        // alpha = 0 objective is the active fraction.
        assert!((s.objective(0.0) - 1.0).abs() < 1e-12);
        // alpha = 1 objective is the expected accuracy.
        assert!((s.objective(1.0) - expected_acc).abs() < 1e-12);
    }

    #[test]
    fn energy_includes_off_state() {
        let s = Schedule::new(
            vec![Allocation {
                point: point(1, 0.94, 2.76),
                duration: TimeSpan::from_seconds(1800.0),
            }],
            TimeSpan::from_seconds(1800.0),
            hour(),
            p_off(),
        );
        let expect = 2.76e-3 * 1800.0 + 50e-6 * 1800.0;
        assert!((s.energy().joules() - expect).abs() < 1e-9);
    }

    #[test]
    fn tiny_allocations_are_dropped() {
        let s = Schedule::new(
            vec![Allocation {
                point: point(1, 0.9, 1.0),
                duration: TimeSpan::from_seconds(1e-9),
            }],
            hour(),
            hour(),
            p_off(),
        );
        assert!(s.allocations().is_empty());
        assert_eq!(s.fraction_for(1), 0.0);
    }

    #[test]
    fn fraction_for_unknown_point_is_zero() {
        assert_eq!(example().fraction_for(99), 0.0);
    }

    #[test]
    fn feasibility_check() {
        let s = example();
        let used = s.energy();
        assert!(s.is_feasible(used, 1e-9));
        assert!(s.is_feasible(used + Energy::from_joules(1.0), 1e-9));
        assert!(!s.is_feasible(used - Energy::from_joules(1.0), 1e-9));
    }

    #[test]
    fn display_lists_points_and_off() {
        let text = example().to_string();
        assert!(text.contains("DP4"));
        assert!(text.contains("DP5"));
        assert!(text.contains("off"));
    }

    #[test]
    fn negative_off_time_is_clamped() {
        let s = Schedule::new(vec![], TimeSpan::from_seconds(-1e-9), hour(), p_off());
        assert!(s.off_time().seconds() >= 0.0);
    }

    #[test]
    fn empty_schedule_metrics_are_positive_zero() {
        let s = Schedule::new(vec![], hour(), hour(), p_off());
        assert!(s.expected_accuracy().is_sign_positive());
        assert_eq!(s.expected_accuracy(), 0.0);
        assert!(s.objective(1.0).is_sign_positive());
        assert!(s.fraction_for(1).is_sign_positive());
    }
}
