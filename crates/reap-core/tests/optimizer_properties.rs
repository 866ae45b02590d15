//! Property tests for the REAP optimizer: dominance over static policies,
//! solver agreement, feasibility, and structural facts about optima.

use proptest::prelude::*;
use reap_core::{static_schedule, OperatingPoint, ReapProblem};
use reap_units::{Energy, Power, TimeSpan};

/// Strategy: a REAP problem with 1..8 random operating points plus a
/// budget fraction in [0, 1.2] of the saturation budget and a random alpha.
fn arb_instance() -> impl Strategy<Value = (ReapProblem, Energy)> {
    let point = (10u32..=99, 2u32..=60).prop_map(|(acc, dmw)| (acc as f64 / 100.0, dmw));
    (
        proptest::collection::vec(point, 1..8),
        0.0f64..=1.2,
        prop_oneof![
            Just(0.0),
            Just(0.5),
            Just(1.0),
            Just(2.0),
            Just(4.0),
            Just(8.0)
        ],
    )
        .prop_map(|(specs, budget_frac, alpha)| {
            let p_off = Power::from_microwatts(50.0);
            let points: Vec<OperatingPoint> = specs
                .iter()
                .enumerate()
                .map(|(i, &(acc, dmw))| {
                    // Powers strictly above P_off by construction.
                    let power = Power::from_microwatts(50.0 + f64::from(dmw) * 100.0);
                    OperatingPoint::new(i as u8 + 1, format!("P{i}"), acc, power)
                        .expect("valid point")
                })
                .collect();
            let problem = ReapProblem::builder()
                .period(TimeSpan::from_hours(1.0))
                .off_power(p_off)
                .alpha(alpha)
                .points(points)
                .build()
                .expect("valid problem");
            let min = problem.min_budget().joules();
            let sat = problem.saturation_budget().joules();
            let budget = Energy::from_joules(min + budget_frac * (sat - min).max(0.0));
            (problem, budget)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reap_dominates_every_static_policy((problem, budget) in arb_instance()) {
        let alpha = problem.alpha();
        let reap = problem.solve(budget).expect("solvable");
        for point in problem.points() {
            let stat = static_schedule(&problem, point.id(), budget).expect("solvable");
            prop_assert!(
                reap.objective(alpha) >= stat.objective(alpha) - 1e-9,
                "REAP {} < static DP{} {}",
                reap.objective(alpha), point.id(), stat.objective(alpha)
            );
        }
    }

    #[test]
    fn frontier_matches_simplex_at_random_budgets_breakpoints_and_floor(
        (problem, budget) in arb_instance()
    ) {
        let alpha = problem.alpha();
        let frontier = problem.frontier();
        // The random budget, every breakpoint (where the optimal basis
        // changes and interpolation degenerates to a vertex), and the
        // exact floor.
        let mut budgets = vec![budget, problem.min_budget()];
        budgets.extend(
            problem.frontier().table().vertices().iter().map(|v| Energy::from_joules(v.budget_j)),
        );
        for b in budgets {
            let simplex = problem.solve(b).expect("solvable");
            let fast = frontier.solve(b).expect("solvable");
            prop_assert!(
                (simplex.objective(alpha) - fast.objective(alpha)).abs()
                    <= 1e-9 * (1.0 + simplex.objective(alpha).abs()),
                "at {b}: simplex {} vs frontier {}",
                simplex.objective(alpha), fast.objective(alpha)
            );
            prop_assert!(fast.is_feasible(b, 1e-6), "frontier infeasible at {b}: {fast}");
            prop_assert!(fast.shares().len() <= 2);
            let total = fast.active_time() + fast.off_time();
            prop_assert!((total.seconds() - problem.period().seconds()).abs() < 1e-3);
        }
    }

    #[test]
    fn schedules_are_always_feasible((problem, budget) in arb_instance()) {
        let reap = problem.solve(budget).expect("solvable");
        prop_assert!(reap.is_feasible(budget, 1e-6), "infeasible: {reap}");
        // Time accounting closes exactly.
        let total = reap.active_time() + reap.off_time();
        prop_assert!((total.seconds() - problem.period().seconds()).abs() < 1e-3);
    }

    #[test]
    fn optimum_mixes_at_most_two_points((problem, budget) in arb_instance()) {
        let reap = problem.solve(budget).expect("solvable");
        prop_assert!(
            reap.shares().len() <= 2,
            "{} active points", reap.shares().len()
        );
    }

    #[test]
    fn objective_is_monotone_in_budget((problem, budget) in arb_instance()) {
        let alpha = problem.alpha();
        let lo = problem.solve(budget).expect("solvable");
        let richer = Energy::from_joules(budget.joules() * 1.1 + 0.1);
        let hi = problem.solve(richer).expect("solvable");
        prop_assert!(
            hi.objective(alpha) >= lo.objective(alpha) - 1e-9,
            "more energy made things worse: {} -> {}",
            lo.objective(alpha), hi.objective(alpha)
        );
    }

    #[test]
    fn saturated_budget_picks_best_weight((problem, _b) in arb_instance()) {
        // Beyond saturation the best point (by weight) runs all period.
        let alpha = problem.alpha();
        let budget = Energy::from_joules(problem.saturation_budget().joules() + 1.0);
        let s = problem.solve(budget).expect("solvable");
        let best_weight = problem
            .points()
            .iter()
            .map(|p| p.weight(alpha))
            .fold(f64::MIN, f64::max);
        prop_assert!((s.objective(alpha) - best_weight).abs() < 1e-9);
        prop_assert!((s.active_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn expected_accuracy_never_exceeds_best_point((problem, budget) in arb_instance()) {
        let s = problem.solve(budget).expect("solvable");
        let best_acc = problem
            .points()
            .iter()
            .map(|p| p.accuracy())
            .fold(0.0f64, f64::max);
        prop_assert!(s.expected_accuracy() <= best_acc + 1e-9);
    }
}
