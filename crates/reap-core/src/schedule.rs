//! Schedules: the optimizer's output.

use std::fmt;

use reap_units::{Energy, Power, TimeSpan};

use crate::operating_point::weight;
use crate::{OperatingPoint, ReapError};

/// Allocations of at most this many seconds are numerical noise: every
/// plan (schedules, frontier tables, the fleet kernels) drops them.
pub const DROP_S: f64 = 1e-6;

/// The aggregates of a plan: its expected accuracy, active time and
/// energy, computed once when the [`Schedule`] is built.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanEval {
    /// Expected accuracy over the period: `(1/TP) sum_i a_i t_i`
    /// (Sec. 3.2 of the paper). Off time contributes zero.
    pub accuracy: f64,
    /// Active time `sum_i t_i`, in seconds.
    pub active_s: f64,
    /// Total energy (active plus off-state), in joules.
    pub energy_j: f64,
}

/// One operating point's share of a plan: run point `id`, of accuracy
/// `accuracy`, for `seconds` of the period.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanShare {
    /// The operating point's id.
    pub id: u8,
    /// The operating point's accuracy.
    pub accuracy: f64,
    /// Seconds of the period spent at this point.
    pub seconds: f64,
}

/// One point's run in a plan under construction: the point's id,
/// accuracy and power draw, and the seconds it runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    pub(crate) id: u8,
    pub(crate) accuracy: f64,
    pub(crate) power_w: f64,
    pub(crate) seconds: f64,
}

/// A complete plan for one activity period `TP`: how long to run each
/// operating point and how long to stay off.
///
/// The REAP LP has two constraints (Eqs. 2–3), so an optimal plan runs
/// at most two points; a static duty cycle runs one. A schedule is
/// therefore a plain `Copy` value: at most two [`PlanShare`]s in
/// ascending point id, the off time, the period and the off power, plus
/// its [`PlanEval`] aggregates. Every planner builds it the same way —
/// [`ReapProblem::solve`](crate::ReapProblem::solve) and
/// [`plan_horizon`](crate::plan_horizon) from LP values,
/// [`decide_vertices`](crate::decide_vertices) (behind
/// [`PlanFrontier`](crate::PlanFrontier) and
/// [`FrontierTable`](crate::FrontierTable)) from a frontier, and
/// [`static_schedule`](crate::static_schedule) for the single-DP
/// duty-cycling baselines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    /// The aggregates: expected accuracy, active seconds and energy.
    pub eval: PlanEval,
    /// Seconds of the period spent in the off state.
    pub off_s: f64,
    shares: [PlanShare; 2],
    n_shares: u8,
    period_s: f64,
    off_w: f64,
}

impl Schedule {
    /// The one way to build a plan. Runs of at most [`DROP_S`] are
    /// dropped as numerical noise, the rest are ordered by point id, and
    /// the aggregates are summed from zero in that order:
    /// `sum a (t / TP)`, `sum t` and `sum P t + P_off t_off`. A negative
    /// off time clamps to zero.
    #[inline]
    pub(crate) fn new(runs: [Option<Run>; 2], off_s: f64, period_s: f64, off_w: f64) -> Schedule {
        let [a, b] = runs.map(|r| r.filter(|r| r.seconds > DROP_S));
        let (first, second) = match (a, b) {
            (Some(a), Some(b)) if b.id < a.id => (Some(b), Some(a)),
            (None, b) => (b, None),
            kept => kept,
        };
        let off_s = off_s.max(0.0);
        let (mut accuracy, mut active_s, mut active_j) = (0.0, 0.0, 0.0);
        for run in [first, second].into_iter().flatten() {
            accuracy += run.accuracy * (run.seconds / period_s);
            active_s += run.seconds;
            active_j += run.power_w * run.seconds;
        }
        let share = |r: Option<Run>| {
            r.map_or(PlanShare::default(), |r| PlanShare {
                id: r.id,
                accuracy: r.accuracy,
                seconds: r.seconds,
            })
        };
        Schedule {
            eval: PlanEval {
                accuracy,
                active_s,
                energy_j: active_j + off_w * off_s,
            },
            off_s,
            shares: [share(first), share(second)],
            n_shares: u8::from(first.is_some()) + u8::from(second.is_some()),
            period_s,
            off_w,
        }
    }

    /// Builds a plan from an LP optimum: `times[i]` seconds at
    /// `points[i]` and `off_s` seconds off.
    ///
    /// # Errors
    ///
    /// [`ReapError::SolverInconsistency`] when more than two points run
    /// longer than [`DROP_S`]: a period's time variables appear in only
    /// two rows, so a basic optimum never runs three.
    pub(crate) fn from_lp(
        points: &[OperatingPoint],
        times: &[f64],
        off_s: f64,
        period_s: f64,
        off_w: f64,
    ) -> Result<Schedule, ReapError> {
        let mut runs = [None; 2];
        let mut n = 0;
        for (p, &seconds) in points.iter().zip(times) {
            if seconds > DROP_S {
                let slot = runs.get_mut(n).ok_or_else(|| {
                    ReapError::SolverInconsistency(
                        "lp optimum runs more than two points in one period".into(),
                    )
                })?;
                *slot = Some(Run {
                    id: p.id(),
                    accuracy: p.accuracy(),
                    power_w: p.power().watts(),
                    seconds,
                });
                n += 1;
            }
        }
        Ok(Schedule::new(runs, off_s, period_s, off_w))
    }

    /// The point shares (ascending point id, 0–2 of them).
    #[must_use]
    pub fn shares(&self) -> &[PlanShare] {
        &self.shares[..usize::from(self.n_shares)]
    }

    /// Time spent in the off state.
    #[must_use]
    pub fn off_time(&self) -> TimeSpan {
        TimeSpan::from_seconds(self.off_s)
    }

    /// The activity period `TP` this schedule plans.
    #[must_use]
    pub fn period(&self) -> TimeSpan {
        TimeSpan::from_seconds(self.period_s)
    }

    /// The off-state power `P_off` the schedule's energy includes.
    #[must_use]
    pub fn off_power(&self) -> Power {
        Power::from_watts(self.off_w)
    }

    /// Total active time `sum_i t_i`.
    #[must_use]
    pub fn active_time(&self) -> TimeSpan {
        TimeSpan::from_seconds(self.eval.active_s)
    }

    /// Active time as a fraction of the period, in `[0, 1]`.
    #[must_use]
    pub fn active_fraction(&self) -> f64 {
        self.eval.active_s / self.period_s
    }

    /// Expected accuracy over the period: `(1/TP) sum_i a_i t_i`
    /// (Sec. 3.2 of the paper). Off time contributes zero.
    #[must_use]
    pub fn expected_accuracy(&self) -> f64 {
        self.eval.accuracy
    }

    /// The generalized objective `J(t) = (1/TP) sum_i a_i^alpha t_i`
    /// (Eq. 1).
    #[must_use]
    pub fn objective(&self, alpha: f64) -> f64 {
        self.shares().iter().fold(0.0, |sum, s| {
            sum + weight(s.accuracy, alpha) * (s.seconds / self.period_s)
        })
    }

    /// Total energy the schedule consumes, including the off-state power.
    #[must_use]
    pub fn energy(&self) -> Energy {
        Energy::from_joules(self.eval.energy_j)
    }

    /// Fraction of the period allocated to the point with `id` (0 when the
    /// point is unused).
    #[must_use]
    pub fn fraction_for(&self, id: u8) -> f64 {
        self.shares()
            .iter()
            .find(|s| s.id == id)
            .map_or(0.0, |s| s.seconds / self.period_s)
    }

    /// `true` when time accounting is consistent (allocations plus off time
    /// equal the period) and the energy fits within `budget`, both within
    /// tolerance `tol_seconds` / `tol` relative energy.
    #[must_use]
    pub fn is_feasible(&self, budget: Energy, tol: f64) -> bool {
        let total_time = self.eval.active_s + self.off_s;
        let time_ok = (total_time - self.period_s).abs() <= tol * self.period_s.max(1.0);
        let energy_ok = self.eval.energy_j <= budget.joules() * (1.0 + tol) + tol;
        time_ok && energy_ok
    }
}

/// Points print as `DP{id}`, as an [`OperatingPoint`] does: a point has
/// no label, only its id.
impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule over {} (expected accuracy {:.1}%, active {:.1}%):",
            self.period(),
            self.expected_accuracy() * 100.0,
            self.active_fraction() * 100.0
        )?;
        for s in self.shares() {
            writeln!(
                f,
                "  {:<18} {:>10}  ({:.1}% of period)",
                format!("DP{}", s.id),
                TimeSpan::from_seconds(s.seconds).to_string(),
                (s.seconds / self.period_s) * 100.0
            )?;
        }
        write!(f, "  {:<18} {:>10}", "off", self.off_time().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(id: u8, acc: f64, mw: f64, seconds: f64) -> Option<Run> {
        Some(Run {
            id,
            accuracy: acc,
            power_w: mw * 1e-3,
            seconds,
        })
    }

    const HOUR: f64 = 3600.0;
    const P_OFF_W: f64 = 50e-6;

    fn example() -> Schedule {
        Schedule::new(
            [run(5, 0.76, 1.20, 2088.0), run(4, 0.90, 1.64, 1512.0)],
            0.0,
            HOUR,
            P_OFF_W,
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
        // Shares come out in ascending point id.
        let ids: Vec<u8> = s.shares().iter().map(|s| s.id).collect();
        assert_eq!(ids, [4, 5]);
    }

    #[test]
    fn energy_includes_off_state() {
        let s = Schedule::new([run(1, 0.94, 2.76, 1800.0), None], 1800.0, HOUR, P_OFF_W);
        let expect = 2.76e-3 * 1800.0 + 50e-6 * 1800.0;
        assert!((s.energy().joules() - expect).abs() < 1e-9);
        assert_eq!(s.off_power(), Power::from_watts(P_OFF_W));
    }

    #[test]
    fn tiny_allocations_are_dropped() {
        let s = Schedule::new([run(1, 0.9, 1.0, 1e-9), None], HOUR, HOUR, P_OFF_W);
        assert!(s.shares().is_empty());
        assert_eq!(s.fraction_for(1), 0.0);
        assert_eq!(s.energy().joules(), P_OFF_W * HOUR);
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
        let s = Schedule::new([None, None], -1e-9, HOUR, P_OFF_W);
        assert!(s.off_time().seconds() >= 0.0);
    }

    #[test]
    fn empty_schedule_metrics_are_positive_zero() {
        let s = Schedule::new([None, None], HOUR, HOUR, P_OFF_W);
        assert!(s.expected_accuracy().is_sign_positive());
        assert_eq!(s.expected_accuracy(), 0.0);
        assert!(s.objective(1.0).is_sign_positive());
        assert!(s.fraction_for(1).is_sign_positive());
    }

    #[test]
    fn lp_values_with_a_third_point_are_an_inconsistency() {
        let points: Vec<OperatingPoint> = [(1u8, 0.94, 2.76), (2, 0.93, 2.30), (3, 0.92, 1.82)]
            .iter()
            .map(|&(id, a, mw)| OperatingPoint::new(id, a, Power::from_milliwatts(mw)))
            .collect();
        // Two runs (and one below the drop rule) make a plan.
        let s = Schedule::from_lp(&points, &[1000.0, 1e-9, 2600.0], 0.0, HOUR, P_OFF_W).unwrap();
        assert_eq!(s.shares().len(), 2);
        // A third run cannot come from a basic optimum.
        assert!(matches!(
            Schedule::from_lp(&points, &[1000.0, 1000.0, 1600.0], 0.0, HOUR, P_OFF_W),
            Err(ReapError::SolverInconsistency(_))
        ));
    }
}
