//! Static single-design-point baselines.
//!
//! The paper compares REAP against "static design points": the device runs
//! one fixed DP, duty-cycling between that DP and the off state so the
//! period's energy budget is respected. This module computes that optimal
//! duty cycle, which is the strongest possible version of the baseline.

use reap_units::Energy;

use crate::problem::check_budget;
use crate::schedule::Run;
use crate::{ReapError, ReapProblem, Schedule};

/// The schedule a *static* policy produces: run the point with `point_id`
/// for as long as the budget allows (up to the whole period), then turn
/// off.
///
/// The on-time solves `P_i*t + P_off*(TP - t) = Eb`, i.e.
/// `t = (Eb - P_off*TP) / (P_i - P_off)`, clamped to `[0, TP]`. A budget
/// within float dust below the floor `P_off * TP` clamps up to it, so it
/// plans all-off like the floor itself.
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
    check_budget(budget, problem.min_budget())?;
    let period_s = problem.period().seconds();
    let off_w = problem.off_power().watts();
    let power_w = point.power().watts();
    let floor_j = off_w * period_s;
    let t_on = ((budget.joules().max(floor_j) - floor_j) / (power_w - off_w)).clamp(0.0, period_s);
    let run = Run {
        id: point.id(),
        accuracy: point.accuracy(),
        power_w,
        seconds: t_on,
    };
    Ok(Schedule::new(
        [Some(run), None],
        period_s - t_on,
        period_s,
        off_w,
    ))
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
                    .map(|&(id, a, mw)| OperatingPoint::new(id, a, Power::from_milliwatts(mw)))
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
    fn floor_budget_plans_all_off_and_dust_below_it_clamps_up() {
        let p = paper_problem();
        let floor = p.min_budget().joules();
        let at_floor = static_schedule(&p, 4, Energy::from_joules(floor)).unwrap();
        assert!(at_floor.shares().is_empty());
        assert_eq!(at_floor.off_s, p.period().seconds());
        assert_eq!(
            static_schedule(&p, 4, Energy::from_joules(floor - 1e-13)).unwrap(),
            at_floor
        );
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
