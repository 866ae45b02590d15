//! The receding-horizon (MPC) runtime controller.
//!
//! [`plan_horizon`] solves the joint multi-period LP — the offline upper
//! bound. This module promotes it into a **runtime policy**: each period
//! the controller receives a harvest *forecast* window and the current
//! battery state, solves the joint LP over the window, executes only the
//! first period's schedule, and re-plans next period with the window slid
//! forward (receding horizon / model-predictive control).
//!
//! Two practicalities separate this from naively calling [`plan_horizon`]
//! in a loop:
//!
//! * **Warm starting.** After each solve the controller keeps the
//!   not-yet-executed tail of the plan together with the forecast it was
//!   solved against and the predicted battery trajectory. When the next
//!   call brings *no new information* — the window shrank by exactly the
//!   executed period (the shrinking-horizon endgame near the end of a
//!   trace), the remaining forecast is unchanged, the battery landed
//!   where the plan predicted and its capacity is the one planned for —
//!   the cached tail is provably still optimal and is executed without
//!   re-solving. Any deviation (new forecast entries, forecast revisions,
//!   brownouts) triggers a fresh solve. Inputs are validated before the
//!   cache is consulted, so a reused tail answers only valid calls.
//! * **Starvation fallback.** The joint LP forces every period to pay the
//!   off-state floor `P_off * TP`; a dark window with a dead battery
//!   makes it infeasible. [`plan_horizon`] spots such a window before it
//!   builds the LP, by walking the highest battery path any plan can
//!   reach. A real device cannot throw an error at midnight, so the
//!   controller falls back to the all-off schedule (the engine's brownout
//!   accounting then records the shortfall honestly). That schedule is a
//!   constant of the problem — the simplex's optimum at the floor — so it
//!   is solved once, when the controller is built.

use std::collections::VecDeque;

use reap_units::Energy;

use crate::horizon::{plan_horizon, validate_window};
use crate::schedule::Schedule;
use crate::{ReapError, ReapProblem};

/// Absolute tolerance (J) for "the world evolved exactly as planned"
/// checks guarding tail reuse. Anything coarser risks executing a stale
/// plan; anything finer defeats reuse through harmless float noise.
const REUSE_TOLERANCE_J: f64 = 1e-9;

/// The cached remainder of the last solve: schedules not yet executed,
/// the forecast entries they were solved against, the battery level
/// each of them expects to start from, and the battery capacity they
/// were planned for.
#[derive(Debug, Clone, PartialEq)]
struct PendingPlan {
    schedules: VecDeque<Schedule>,
    forecast_tail: Vec<Energy>,
    start_levels: VecDeque<Energy>,
    battery_capacity: Energy,
}

/// Receding-horizon runtime controller (see module docs).
///
/// # Examples
///
/// ```
/// use reap_core::{OperatingPoint, ReapProblem, RecedingHorizonController};
/// use reap_units::{Energy, Power};
///
/// # fn main() -> Result<(), reap_core::ReapError> {
/// let problem = ReapProblem::builder()
///     .point(OperatingPoint::new(1, 0.94, Power::from_milliwatts(2.76)))
///     .build()?;
/// let mut mpc = RecedingHorizonController::new(problem, 4)?;
/// // Bright now, dark later: the controller banks for the dark hours.
/// let forecast = [8.0, 0.0, 0.0, 0.0].map(Energy::from_joules);
/// let schedule = mpc.plan(&forecast, Energy::ZERO, Energy::from_joules(60.0))?;
/// assert!(schedule.energy().joules() < 8.0, "must bank for the night");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RecedingHorizonController {
    problem: ReapProblem,
    lookahead: usize,
    /// The all-off plan served for starved windows.
    fallback: Schedule,
    pending: Option<PendingPlan>,
    solves: u64,
    reuses: u64,
    fallbacks: u64,
}

impl RecedingHorizonController {
    /// Creates a controller that plans at most `lookahead` periods ahead.
    ///
    /// # Errors
    ///
    /// [`ReapError::InvalidParameter`] when `lookahead` is zero;
    /// [`ReapError::Lp`] / [`ReapError::SolverInconsistency`] if the
    /// simplex fails on the all-off plan at the floor (pathological
    /// inputs only).
    pub fn new(
        problem: ReapProblem,
        lookahead: usize,
    ) -> Result<RecedingHorizonController, ReapError> {
        if lookahead == 0 {
            return Err(ReapError::InvalidParameter(
                "lookahead must be at least one period".into(),
            ));
        }
        let fallback = problem.solve(problem.min_budget())?;
        Ok(RecedingHorizonController {
            problem,
            lookahead,
            fallback,
            pending: None,
            solves: 0,
            reuses: 0,
            fallbacks: 0,
        })
    }

    /// The underlying problem definition.
    #[must_use]
    pub fn problem(&self) -> &ReapProblem {
        &self.problem
    }

    /// The configured lookahead window length, in periods.
    #[must_use]
    pub fn lookahead(&self) -> usize {
        self.lookahead
    }

    /// How many joint LPs have been solved so far.
    #[must_use]
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// How many periods were served from a cached plan tail without
    /// re-solving.
    #[must_use]
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// How many periods fell back to the all-off schedule because the
    /// window was infeasible (dark forecast, dead battery).
    #[must_use]
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Plans the next period against `forecast` (hour-by-hour expected
    /// harvests, starting with the period about to run; truncated to the
    /// configured lookahead) and the physical battery state.
    ///
    /// # Errors
    ///
    /// * [`ReapError::InvalidParameter`] for an empty forecast, negative
    ///   or non-finite forecast energies, or a battery state outside
    ///   `[0, capacity]`.
    /// * [`ReapError::Lp`] / [`ReapError::SolverInconsistency`] only on
    ///   numerical failure; infeasible (starved) windows are handled by
    ///   the all-off fallback, not an error.
    pub fn plan(
        &mut self,
        forecast: &[Energy],
        battery_level: Energy,
        battery_capacity: Energy,
    ) -> Result<Schedule, ReapError> {
        let window = &forecast[..forecast.len().min(self.lookahead)];
        validate_window(window, battery_level, battery_capacity)?;

        if let Some(schedule) = self.try_reuse(window, battery_level, battery_capacity) {
            self.reuses += 1;
            return Ok(schedule);
        }

        match plan_horizon(&self.problem, window, battery_level, battery_capacity) {
            Ok(plan) => {
                self.solves += 1;
                let mut schedules: VecDeque<Schedule> = plan.schedules.into();
                let first = schedules.pop_front().expect("window is non-empty");
                // The tail starts from the trajectory's planned levels:
                // entry h of the trajectory is the level *after* period h,
                // i.e. the level the (h+1)-th schedule expects to inherit.
                let mut start_levels: VecDeque<Energy> = plan.battery_trajectory.into();
                start_levels.pop_back();
                self.pending = Some(PendingPlan {
                    schedules,
                    forecast_tail: window[1..].to_vec(),
                    start_levels,
                    battery_capacity,
                });
                Ok(first)
            }
            Err(ReapError::InfeasibleHorizon) => {
                // Starved window: the device cannot even pay the
                // off-state floor everywhere. Go dark this period and
                // re-plan next period with whatever has been harvested.
                self.fallbacks += 1;
                self.pending = None;
                Ok(self.fallback)
            }
            // Invalid inputs are caller bugs and anything else is
            // genuine numerical trouble; both must surface, not be
            // papered over with a dark device.
            Err(e) => Err(e),
        }
    }

    /// Pops the cached tail if — and only if — the new window carries no
    /// information the cached plan did not already account for.
    fn try_reuse(
        &mut self,
        window: &[Energy],
        battery_level: Energy,
        battery_capacity: Energy,
    ) -> Option<Schedule> {
        let pending = self.pending.as_mut()?;
        let matches = !pending.schedules.is_empty()
            && battery_capacity == pending.battery_capacity
            && window.len() == pending.forecast_tail.len()
            && window
                .iter()
                .zip(&pending.forecast_tail)
                .all(|(a, b)| (a.joules() - b.joules()).abs() <= REUSE_TOLERANCE_J)
            && pending.start_levels.front().is_some_and(|&expected| {
                (expected.joules() - battery_level.joules()).abs() <= REUSE_TOLERANCE_J
            });
        if !matches {
            self.pending = None;
            return None;
        }
        pending.forecast_tail.remove(0);
        pending.start_levels.pop_front();
        pending.schedules.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::horizon::HorizonPlan;
    use crate::OperatingPoint;
    use reap_units::Power;

    fn paper_problem() -> ReapProblem {
        let specs = [
            (1u8, 0.94, 2.76),
            (2, 0.93, 2.30),
            (3, 0.92, 1.82),
            (4, 0.90, 1.64),
            (5, 0.76, 1.20),
        ];
        ReapProblem::builder()
            .points(
                specs
                    .iter()
                    .map(|&(id, a, mw)| OperatingPoint::new(id, a, Power::from_milliwatts(mw)))
                    .collect(),
            )
            .build()
            .unwrap()
    }

    fn joules(j: f64) -> Energy {
        Energy::from_joules(j)
    }

    #[test]
    fn rejects_degenerate_configuration_and_inputs() {
        assert!(RecedingHorizonController::new(paper_problem(), 0).is_err());
        let mut c = RecedingHorizonController::new(paper_problem(), 4).unwrap();
        assert!(c.plan(&[], joules(0.0), joules(60.0)).is_err());
        assert!(c.plan(&[joules(-1.0)], joules(0.0), joules(60.0)).is_err());
        assert!(c.plan(&[joules(1.0)], joules(99.0), joules(60.0)).is_err());
        assert_eq!(c.lookahead(), 4);
    }

    #[test]
    fn first_period_matches_the_joint_plan() {
        let mut c = RecedingHorizonController::new(paper_problem(), 24).unwrap();
        let forecast: Vec<Energy> = (0..24)
            .map(|h| joules(if (8..16).contains(&h) { 4.0 } else { 0.0 }))
            .collect();
        let joint = plan_horizon(&paper_problem(), &forecast, joules(10.0), joules(60.0)).unwrap();
        let first = c.plan(&forecast, joules(10.0), joules(60.0)).unwrap();
        assert_eq!(first, joint.schedules[0]);
        assert_eq!(c.solves(), 1);
    }

    #[test]
    fn forecast_is_truncated_to_the_lookahead() {
        let mut short = RecedingHorizonController::new(paper_problem(), 2).unwrap();
        let forecast = vec![joules(2.0), joules(2.0), joules(50.0), joules(50.0)];
        let a = short.plan(&forecast, joules(0.0), joules(60.0)).unwrap();
        let joint2 =
            plan_horizon(&paper_problem(), &forecast[..2], joules(0.0), joules(60.0)).unwrap();
        assert_eq!(a, joint2.schedules[0], "hours beyond lookahead ignored");
    }

    #[test]
    fn shrinking_window_reuses_the_tail_without_resolving() {
        // End-of-trace endgame: the window shrinks by one period per call
        // and the battery follows the plan exactly, so after the first
        // solve every period pops from the cached tail.
        let mut c = RecedingHorizonController::new(paper_problem(), 8).unwrap();
        let forecast: Vec<Energy> = vec![3.0, 1.0, 0.5, 0.0].into_iter().map(joules).collect();
        let cap = joules(60.0);
        let joint: HorizonPlan =
            plan_horizon(&paper_problem(), &forecast, joules(5.0), cap).unwrap();
        let mut level = joules(5.0);
        for h in 0..forecast.len() {
            let s = c.plan(&forecast[h..], level, cap).unwrap();
            assert_eq!(s, joint.schedules[h], "period {h} diverged from joint");
            // Ideal execution: level follows the planned trajectory.
            level = joint.battery_trajectory[h];
        }
        assert_eq!(c.solves(), 1, "only the first period should solve");
        assert_eq!(c.reuses(), 3, "the remaining periods pop the tail");
    }

    #[test]
    fn deviation_from_the_plan_forces_a_resolve() {
        let mut c = RecedingHorizonController::new(paper_problem(), 8).unwrap();
        let forecast: Vec<Energy> = vec![3.0, 1.0, 0.5].into_iter().map(joules).collect();
        let cap = joules(60.0);
        let _ = c.plan(&forecast, joules(5.0), cap).unwrap();
        // The battery did NOT land where the plan predicted (brownout,
        // efficiency losses, surprise clouds...): the tail is stale.
        let _ = c.plan(&forecast[1..], joules(0.3), cap).unwrap();
        assert_eq!(c.solves(), 2);
        assert_eq!(c.reuses(), 0);
    }

    #[test]
    fn reuse_validates_inputs_and_requires_the_planned_capacity() {
        let mut c = RecedingHorizonController::new(paper_problem(), 8).unwrap();
        let forecast: Vec<Energy> = vec![3.0, 1.0, 0.5, 0.0].into_iter().map(joules).collect();
        let cap = joules(60.0);
        let joint = plan_horizon(&paper_problem(), &forecast, joules(5.0), cap).unwrap();
        let _ = c.plan(&forecast, joules(5.0), cap).unwrap();
        // The battery landed where the plan said, but above the capacity
        // this call reports: invalid, cached tail or not.
        let level = joint.battery_trajectory[0];
        let below_level = joules(level.joules() / 2.0);
        assert!(matches!(
            c.plan(&forecast[1..], level, below_level),
            Err(ReapError::InvalidParameter(_))
        ));
        // A valid but different capacity is new information: re-solve.
        let _ = c.plan(&forecast[1..], level, joules(50.0)).unwrap();
        assert_eq!(c.solves(), 2);
        assert_eq!(c.reuses(), 0);
    }

    #[test]
    fn sliding_window_always_resolves() {
        // A fixed-length window slid forward brings one new forecast hour
        // per period — new information, so no reuse is allowed.
        let mut c = RecedingHorizonController::new(paper_problem(), 3).unwrap();
        let forecast: Vec<Energy> = vec![2.0, 2.0, 2.0, 2.0, 2.0, 2.0]
            .into_iter()
            .map(joules)
            .collect();
        let cap = joules(60.0);
        let mut level = joules(10.0);
        for h in 0..3 {
            let s = c.plan(&forecast[h..h + 3], level, cap).unwrap();
            // Ideal execution.
            level = (level + forecast[h] - s.energy()).min(cap);
        }
        assert_eq!(c.solves(), 3);
        assert_eq!(c.reuses(), 0);
    }

    #[test]
    fn starved_window_falls_back_to_all_off() {
        let mut c = RecedingHorizonController::new(paper_problem(), 4).unwrap();
        // Pitch dark, dead battery: the joint LP is infeasible (the
        // off-state floor cannot be paid), but the controller must still
        // answer.
        let s = c
            .plan(&[Energy::ZERO; 4], Energy::ZERO, joules(60.0))
            .unwrap();
        assert!(s.shares().is_empty());
        assert!((s.off_time().seconds() - 3600.0).abs() < 1e-6);
        assert_eq!(c.fallbacks(), 1);
        assert_eq!(c.solves(), 0);
        // Recovery: once energy returns, planning resumes normally.
        let s = c
            .plan(&[joules(5.0); 4], joules(1.0), joules(60.0))
            .unwrap();
        assert!(s.active_time().seconds() > 0.0);
        assert_eq!(c.solves(), 1);
    }

    #[test]
    fn starved_plan_is_the_simplex_optimum_at_the_floor() {
        // The fallback is solved once, at construction, and served as
        // is: bit for bit the simplex's answer at the floor.
        let p = paper_problem();
        let expected = p.solve(p.min_budget()).unwrap();
        let mut c = RecedingHorizonController::new(p, 4).unwrap();
        for _ in 0..3 {
            let s = c
                .plan(&[Energy::ZERO; 4], Energy::ZERO, joules(60.0))
                .unwrap();
            assert_eq!(s, expected);
            assert_eq!(s.off_s.to_bits(), expected.off_s.to_bits());
            assert_eq!(s.eval.energy_j.to_bits(), expected.eval.energy_j.to_bits());
        }
        assert_eq!(c.fallbacks(), 3);
        assert_eq!(c.solves(), 0);
    }

    #[test]
    fn banks_bright_hours_for_dark_ones() {
        let mut c = RecedingHorizonController::new(paper_problem(), 12).unwrap();
        let mut forecast = vec![joules(6.0); 4];
        forecast.extend(vec![Energy::ZERO; 8]);
        let s = c.plan(&forecast, joules(0.0), joules(60.0)).unwrap();
        // Myopically the first hour could spend all 6 J; lookahead must
        // leave most of it banked for the 8 dark hours.
        assert!(
            s.energy().joules() < 4.0,
            "first hour spent {} of the 6 J",
            s.energy()
        );
    }
}
