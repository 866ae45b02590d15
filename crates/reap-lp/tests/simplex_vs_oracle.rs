//! Property tests: the simplex solver must agree with the brute-force
//! vertex-enumeration oracle on small random problems, and its solutions
//! must always be feasible for the original constraints.

use proptest::prelude::*;
use reap_lp::oracle::{best_vertex, OracleResult};
use reap_lp::{LpProblem, LpStatus, PivotRule, Relation, SimplexOptions};

/// Strategy: a small random maximization LP, boxed so it is always bounded.
///
/// Coefficients are drawn from a modest range and rounded to two decimals to
/// keep the vertex systems well-conditioned (ill-conditioned bases make the
/// oracle and the simplex legitimately disagree inside float noise, which is
/// not the property under test).
fn arb_boxed_lp() -> impl Strategy<Value = LpProblem> {
    let coeff = (-400i32..=400).prop_map(|c| f64::from(c) / 100.0);
    let rhs = (0i32..=500).prop_map(|c| f64::from(c) / 10.0);
    (2usize..=4, 1usize..=3).prop_flat_map(move |(n, m)| {
        let objective = proptest::collection::vec(coeff.clone(), n);
        let rows = proptest::collection::vec(
            (proptest::collection::vec(coeff.clone(), n), rhs.clone()),
            m,
        );
        (objective, rows).prop_map(move |(obj, rows)| {
            let mut p = LpProblem::maximize(&obj);
            for (coeffs, r) in rows {
                p.subject_to(&coeffs, Relation::Le, r).expect("same dim");
            }
            // Box every variable so the problem is bounded and the oracle's
            // vertex enumeration is exhaustive.
            for i in 0..obj.len() {
                let mut bound = vec![0.0; obj.len()];
                bound[i] = 1.0;
                p.subject_to(&bound, Relation::Le, 50.0).expect("same dim");
            }
            p
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn simplex_matches_oracle_on_boxed_problems(p in arb_boxed_lp()) {
        let s = p.solve().expect("solver converges");
        // Boxed problems with rhs >= 0 always contain the origin, so they
        // are feasible and bounded.
        prop_assert_eq!(s.status(), LpStatus::Optimal);
        prop_assert!(p.is_feasible(s.values(), 1e-6));
        match best_vertex(&p, 1e-7) {
            OracleResult::Optimal { objective, .. } => {
                prop_assert!(
                    (objective - s.objective()).abs() <= 1e-6 * (1.0 + objective.abs()),
                    "simplex {} vs oracle {}", s.objective(), objective
                );
            }
            OracleResult::NoVertex => prop_assert!(false, "oracle found no vertex"),
        }
    }

    #[test]
    fn dantzig_and_bland_agree(p in arb_boxed_lp()) {
        let dantzig = p.solve().expect("converges");
        let bland = p
            .solve_with(&SimplexOptions { pivot_rule: PivotRule::Bland, ..Default::default() })
            .expect("converges");
        prop_assert_eq!(dantzig.status(), LpStatus::Optimal);
        prop_assert_eq!(bland.status(), LpStatus::Optimal);
        prop_assert!(
            (dantzig.objective() - bland.objective()).abs()
                <= 1e-6 * (1.0 + dantzig.objective().abs()),
            "dantzig {} vs bland {}", dantzig.objective(), bland.objective()
        );
    }

    #[test]
    fn objective_reported_matches_point(p in arb_boxed_lp()) {
        let s = p.solve().expect("converges");
        prop_assert_eq!(s.status(), LpStatus::Optimal);
        let recomputed = p.objective_value(s.values());
        prop_assert!(
            (recomputed - s.objective()).abs() <= 1e-6 * (1.0 + recomputed.abs()),
            "tableau objective {} vs dot product {}", s.objective(), recomputed
        );
    }
}

/// REAP-shaped random instances: equality on total time plus an energy
/// budget inequality, which exercises the phase-1 (artificial variable)
/// path on every run.
fn arb_reap_like() -> impl Strategy<Value = LpProblem> {
    (2usize..=6, 0.0f64..=1.0).prop_flat_map(|(n, budget_frac)| {
        let acc = proptest::collection::vec(50.0f64..=99.0, n);
        let pow = proptest::collection::vec(0.5f64..=3.0, n);
        (acc, pow, Just(budget_frac)).prop_map(move |(acc, pow, budget_frac)| {
            let tp = 3600.0;
            let p_off = 0.05;
            let p_max = pow.iter().cloned().fold(f64::MIN, f64::max);
            // Budget between the all-off minimum and the all-max-DP cost.
            let eb = p_off * tp + budget_frac * (p_max - p_off) * tp;
            let mut obj: Vec<f64> = acc.iter().map(|a| a / tp).collect();
            obj.push(0.0);
            let mut prob = LpProblem::maximize(&obj);
            let ones = vec![1.0; n + 1];
            prob.subject_to(&ones, Relation::Eq, tp).expect("dim");
            let mut prow = pow.clone();
            prow.push(p_off);
            prob.subject_to(&prow, Relation::Le, eb).expect("dim");
            prob
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reap_shaped_lps_are_solved_optimally_and_feasibly(p in arb_reap_like()) {
        let s = p.solve().expect("converges");
        prop_assert_eq!(s.status(), LpStatus::Optimal);
        prop_assert!(p.is_feasible(s.values(), 1e-5));
        match best_vertex(&p, 1e-6) {
            OracleResult::Optimal { objective, .. } => {
                prop_assert!(
                    (objective - s.objective()).abs() <= 1e-5 * (1.0 + objective.abs()),
                    "simplex {} vs oracle {}", s.objective(), objective
                );
            }
            OracleResult::NoVertex => prop_assert!(false, "oracle found no vertex"),
        }
    }

    #[test]
    fn reap_solution_uses_at_most_two_design_points(p in arb_reap_like()) {
        // With one equality and one inequality constraint, any basic optimal
        // solution has at most two strictly positive allocations besides
        // t_off. This structural fact is what reap-core's precomputed
        // frontier relies on.
        let s = p.solve().expect("converges");
        prop_assert_eq!(s.status(), LpStatus::Optimal);
        let n = p.num_vars() - 1;
        let active = s.values()[..n].iter().filter(|&&t| t > 1e-6).count();
        prop_assert!(active <= 2, "{} active DPs (> 2)", active);
    }
}
