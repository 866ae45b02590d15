//! The paper's REAP solver: the tableau simplex of Algorithm 1.

// Index-based loops below mirror the textbook linear-algebra notation;
// iterator rewrites would obscure the row/column structure.
#![allow(clippy::needless_range_loop)]

use reap_lp::{LpProblem, LpStatus, Relation};
use reap_units::Energy;

use crate::problem::check_budget;
use crate::{ReapError, ReapProblem, Schedule};

/// Solves the REAP LP with the tableau simplex, mirroring the paper's
/// Algorithm 1 (build tableau, add slacks, pivot until the cost row has no
/// positive entry).
pub(crate) fn solve_simplex(problem: &ReapProblem, budget: Energy) -> Result<Schedule, ReapError> {
    check_budget(budget, problem.min_budget())?;
    let n = problem.points().len();
    let tp = problem.period().seconds();
    let alpha = problem.alpha();

    // Variables: [t_1 .. t_N, t_off] in seconds.
    // Objective (Eq. 1): maximize (1/TP) sum a_i^alpha t_i, with t_off at
    // zero weight. The coefficients are normalized by the largest weight:
    // large alpha can push a^alpha below the simplex tolerance, and a
    // uniform positive rescaling never changes the argmax.
    let weights: Vec<f64> = problem.points().iter().map(|p| p.weight(alpha)).collect();
    let w_max = weights.iter().cloned().fold(0.0f64, f64::max);
    let scale = if w_max > 0.0 { 1.0 / (w_max * tp) } else { 1.0 };
    let mut objective: Vec<f64> = weights.iter().map(|w| w * scale).collect();
    objective.push(0.0);

    let mut lp = LpProblem::try_new_maximize(&objective)?;

    // Eq. 2: sum t_i + t_off = TP.
    let ones = vec![1.0; n + 1];
    lp.subject_to(&ones, Relation::Eq, tp)?;

    // Eq. 3: sum P_i t_i + P_off t_off <= Eb (watts * seconds = joules).
    let mut powers: Vec<f64> = problem.points().iter().map(|p| p.power().watts()).collect();
    powers.push(problem.off_power().watts());
    lp.subject_to(&powers, Relation::Le, budget.joules())?;

    let solution = lp.solve()?;
    match solution.status() {
        LpStatus::Optimal => {}
        other => {
            // A REAP instance with Eb >= P_off*TP always has the feasible
            // point "all off", and the objective is bounded by max a^alpha.
            return Err(ReapError::SolverInconsistency(format!(
                "lp reported {other} for a well-formed REAP instance"
            )));
        }
    }

    let values = solution.values();
    Schedule::from_lp(
        problem.points(),
        &values[..n],
        values[n],
        tp,
        problem.off_power().watts(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OperatingPoint;
    use reap_units::Power;

    fn point(id: u8, acc: f64, mw: f64) -> OperatingPoint {
        OperatingPoint::new(id, acc, Power::from_milliwatts(mw))
    }

    fn paper_problem(alpha: f64) -> ReapProblem {
        ReapProblem::builder()
            .alpha(alpha)
            .points(vec![
                point(1, 0.94, 2.76),
                point(2, 0.93, 2.30),
                point(3, 0.92, 1.82),
                point(4, 0.90, 1.64),
                point(5, 0.76, 1.20),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn budget_floor_is_enforced() {
        let p = paper_problem(1.0);
        let err = p.solve(Energy::from_joules(0.1)).unwrap_err();
        assert!(matches!(err, ReapError::BudgetTooSmall { .. }));
        // Exactly at the floor: a valid all-off schedule.
        let s = p.solve(Energy::from_joules(0.18)).unwrap();
        assert!(s.shares().is_empty());
        assert!((s.off_time().seconds() - 3600.0).abs() < 1e-6);
    }

    #[test]
    fn paper_checkpoint_5j_splits_dp4_dp5() {
        let p = paper_problem(1.0);
        for schedule in [
            p.solve(Energy::from_joules(5.0)).unwrap(),
            p.frontier().solve(Energy::from_joules(5.0)).unwrap(),
        ] {
            assert!(
                (schedule.fraction_for(4) - 0.42).abs() < 0.02,
                "DP4 fraction {}",
                schedule.fraction_for(4)
            );
            assert!(
                (schedule.fraction_for(5) - 0.58).abs() < 0.02,
                "DP5 fraction {}",
                schedule.fraction_for(5)
            );
            assert!(schedule.is_feasible(Energy::from_joules(5.0), 1e-6));
        }
    }

    #[test]
    fn saturation_reduces_to_dp1() {
        // Beyond 9.9 J there is enough energy to run DP1 all period; with
        // alpha = 1 the optimizer should do exactly that (Sec. 5.2).
        let p = paper_problem(1.0);
        let s = p.solve(Energy::from_joules(10.5)).unwrap();
        assert!((s.fraction_for(1) - 1.0).abs() < 1e-6);
        assert!((s.expected_accuracy() - 0.94).abs() < 1e-9);
    }

    #[test]
    fn region1_uses_lowest_energy_point() {
        // At 3 J the time constraint is slack; everything goes to the
        // point with the best accuracy-per-joule (DP5), giving REAP its
        // 2.3x active-time advantage over DP1 (Fig. 5b).
        let p = paper_problem(1.0);
        let s = p.solve(Energy::from_joules(3.0)).unwrap();
        assert_eq!(s.shares().len(), 1);
        assert_eq!(s.shares()[0].id, 5);
        let expected_active = (3.0 - 0.18) / (1.20e-3 - 50e-6);
        assert!((s.active_time().seconds() - expected_active).abs() < 1.0);
    }

    #[test]
    fn alpha2_matches_dp4_below_6j() {
        // Fig. 6: with alpha = 2 and Eb < 6 J, DP4 is the best static DP
        // and REAP matches it by running DP4 alone.
        let p = paper_problem(2.0);
        let s = p.solve(Energy::from_joules(5.0)).unwrap();
        assert_eq!(s.shares().len(), 1);
        assert_eq!(s.shares()[0].id, 4);
    }

    #[test]
    fn alpha_zero_maximizes_active_time() {
        // With alpha = 0 every point weighs 1, so the cheapest point wins
        // and active time is maximized.
        let p = paper_problem(0.0);
        let s = p.solve(Energy::from_joules(3.0)).unwrap();
        assert_eq!(s.shares()[0].id, 5);
        let s_rich = p.solve(Energy::from_joules(6.0)).unwrap();
        assert!((s_rich.active_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn both_solvers_agree_across_budgets_and_alphas() {
        for alpha in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0] {
            let p = paper_problem(alpha);
            for b in [0.18, 0.5, 1.0, 2.0, 3.0, 4.3, 5.0, 6.5, 8.0, 9.936, 12.0] {
                let budget = Energy::from_joules(b);
                let simplex = p.solve(budget).unwrap();
                let frontier = p.frontier().solve(budget).unwrap();
                assert!(
                    (simplex.objective(alpha) - frontier.objective(alpha)).abs() < 1e-9,
                    "alpha {alpha} budget {b}: simplex {} vs frontier {}",
                    simplex.objective(alpha),
                    frontier.objective(alpha)
                );
                assert!(simplex.is_feasible(budget, 1e-6));
                assert!(frontier.is_feasible(budget, 1e-6));
            }
        }
    }

    #[test]
    fn non_finite_budget_is_rejected() {
        let p = paper_problem(1.0);
        assert!(matches!(
            p.solve(Energy::from_joules(f64::NAN)),
            Err(ReapError::InvalidParameter(_))
        ));
    }
}
