//! Static single-design-point baselines.
//!
//! The paper compares REAP against "static design points": the device runs
//! one fixed DP, duty-cycling between that DP and the off state so the
//! period's energy budget is respected. This module computes that optimal
//! duty cycle, which is the strongest possible version of the baseline.

use reap_units::Energy;

use crate::schedule::Run;
use crate::{ReapError, ReapProblem, Schedule};

/// The schedule a *static* policy produces: run the point with `point_id`
/// for as long as the budget allows (up to the whole period), then turn
/// off — [`static_plan`] for a validated budget.
///
/// # Errors
///
/// * [`ReapError::UnknownPoint`] if `point_id` is not in the problem.
/// * [`ReapError::BudgetTooSmall`] when `budget < P_off * TP`.
/// * [`ReapError::InvalidParameter`] for a non-finite budget.
pub fn static_schedule(
    problem: &ReapProblem,
    point_id: u8,
    budget: Energy,
) -> Result<Schedule, ReapError> {
    let point = problem.point(point_id)?;
    if !budget.is_finite() {
        return Err(ReapError::InvalidParameter(format!(
            "budget {budget} is not finite"
        )));
    }
    let minimum = problem.min_budget();
    if budget.joules() < minimum.joules() * (1.0 - 1e-12) {
        return Err(ReapError::BudgetTooSmall { budget, minimum });
    }
    Ok(static_plan(
        point.id(),
        point.accuracy(),
        point.power().watts(),
        problem.period().seconds(),
        problem.off_power().watts(),
        budget.joules(),
    ))
}

/// The static duty-cycle plan, without allocating: run the point `id`
/// (of `accuracy`, drawing `power_w`) for as long as `budget_j` allows
/// over a period of `period_s` seconds with off-state power `off_w`,
/// then turn off.
///
/// The on-time solves `P_i*t + P_off*(TP - t) = Eb`, i.e.
/// `t = (Eb - P_off*TP) / (P_i - P_off)`, clamped to `[0, TP]`.
/// Sub-floor (and NaN) budgets clamp up to the floor `P_off * TP`, like
/// [`decide_vertices`](crate::decide_vertices). The point must draw more
/// than `off_w`, as every [`ReapProblem`] point does. [`static_schedule`]
/// builds through it.
#[inline]
#[must_use]
pub fn static_plan(
    id: u8,
    accuracy: f64,
    power_w: f64,
    period_s: f64,
    off_w: f64,
    budget_j: f64,
) -> Schedule {
    debug_assert!(power_w > off_w, "points draw more than the off power");
    let floor_j = off_w * period_s;
    let t_on = ((budget_j.max(floor_j) - floor_j) / (power_w - off_w)).clamp(0.0, period_s);
    let run = Run {
        id,
        accuracy,
        power_w,
        seconds: t_on,
    };
    Schedule::new([Some(run), None], period_s - t_on, period_s, off_w)
}

#[cfg(test)]
mod tests {
    use super::*;
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
                    .map(|&(id, a, mw)| {
                        OperatingPoint::new(id, format!("DP{id}"), a, Power::from_milliwatts(mw))
                            .unwrap()
                    })
                    .collect(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn duty_cycle_matches_hand_calculation() {
        let p = paper_problem();
        // DP1 at 3 J: t = (3 - 0.18) / (2.76e-3 - 50e-6) = 1040.6 s.
        let s = static_schedule(&p, 1, Energy::from_joules(3.0)).unwrap();
        assert!((s.active_time().seconds() - 1040.6).abs() < 1.0);
        assert!(s.is_feasible(Energy::from_joules(3.0), 1e-6));
        // Uses the full budget (the baseline is not wasteful).
        assert!((s.energy().joules() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn saturates_at_full_period() {
        let p = paper_problem();
        let s = static_schedule(&p, 5, Energy::from_joules(8.0)).unwrap();
        assert!((s.active_fraction() - 1.0).abs() < 1e-12);
        // DP5 all hour = 4.32 J, below the 8 J budget.
        assert!(s.energy().joules() < 8.0);
    }

    #[test]
    fn dp5_knee_is_at_4_32_joules() {
        // Fig. 5a: DP5 saturates when the budget reaches P5 * TP = 4.32 J.
        let p = paper_problem();
        let just_below = static_schedule(&p, 5, Energy::from_joules(4.25)).unwrap();
        let at_knee = static_schedule(&p, 5, Energy::from_joules(4.32)).unwrap();
        assert!(just_below.active_fraction() < 1.0);
        assert!((at_knee.active_fraction() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn static_plan_is_the_validated_schedule_and_clamps_sub_floor_budgets() {
        let p = paper_problem();
        let dp4 = p.point(4).unwrap();
        let (tp, off_w) = (p.period().seconds(), p.off_power().watts());
        let plan = |b: f64| static_plan(4, dp4.accuracy(), dp4.power().watts(), tp, off_w, b);
        for b in [0.18, 2.0, 5.0, 9.0] {
            assert_eq!(
                plan(b),
                static_schedule(&p, 4, Energy::from_joules(b)).unwrap()
            );
        }
        let floor = plan(p.min_budget().joules());
        assert!(floor.shares().is_empty());
        assert_eq!(plan(0.0), floor);
        assert_eq!(plan(f64::NAN), floor);
    }

    #[test]
    fn errors_on_unknown_point_and_small_budget() {
        let p = paper_problem();
        assert!(matches!(
            static_schedule(&p, 42, Energy::from_joules(3.0)),
            Err(ReapError::UnknownPoint { id: 42 })
        ));
        assert!(matches!(
            static_schedule(&p, 1, Energy::from_joules(0.05)),
            Err(ReapError::BudgetTooSmall { .. })
        ));
    }

    #[test]
    fn reap_never_loses_to_any_static_point() {
        let p = paper_problem();
        for b in [
            0.2, 0.5, 1.0, 2.0, 3.5, 4.32, 5.0, 6.0, 7.5, 9.0, 9.936, 11.0,
        ] {
            let budget = Energy::from_joules(b);
            let reap = p.solve(budget).unwrap();
            for point in p.points() {
                let stat = static_schedule(&p, point.id(), budget).unwrap();
                assert!(
                    reap.objective(1.0) >= stat.objective(1.0) - 1e-9,
                    "REAP lost to DP{} at {b} J: {} < {}",
                    point.id(),
                    reap.objective(1.0),
                    stat.objective(1.0)
                );
            }
        }
    }
}
