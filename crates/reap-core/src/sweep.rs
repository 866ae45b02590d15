//! Parameter sweeps over energy budgets.
//!
//! These drive the evaluation figures Fig. 5 (expected accuracy and
//! active time vs budget) and Fig. 6 (normalized objective at
//! `alpha = 2`).

use reap_units::Energy;

use crate::{static_schedule, ReapError, ReapProblem, Schedule};

/// One row of an energy sweep: the REAP schedule and every static-DP
/// schedule at the same budget.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The budget of this row.
    pub budget: Energy,
    /// REAP's schedule.
    pub reap: Schedule,
    /// One schedule per operating point, in problem order.
    pub statics: Vec<Schedule>,
}

/// `n` evenly spaced values covering `[lo, hi]` inclusive.
///
/// # Panics
///
/// Panics if `n < 2` or `lo > hi`.
#[must_use]
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "need at least two samples");
    assert!(lo <= hi, "inverted range");
    let step = (hi - lo) / (n - 1) as f64;
    (0..n).map(|i| lo + step * i as f64).collect()
}

/// Solves REAP and all static baselines at each budget.
///
/// The REAP schedules come from one precomputed [`PlanFrontier`] via
/// [`ReapProblem::solve_many`] — one `O(N log N)` frontier build plus an
/// `O(log K)` lookup per budget instead of a fresh LP per row.
///
/// # Errors
///
/// Propagates solver errors; budgets below the floor are invalid here
/// (sweeps should start at [`ReapProblem::min_budget`]).
///
/// [`PlanFrontier`]: crate::PlanFrontier
pub fn energy_sweep(
    problem: &ReapProblem,
    budgets: &[Energy],
) -> Result<Vec<SweepPoint>, ReapError> {
    let reaps = problem.solve_many(budgets)?;
    budgets
        .iter()
        .zip(reaps)
        .map(|(&budget, reap)| {
            let statics = problem
                .points()
                .iter()
                .map(|p| static_schedule(problem, p.id(), budget))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(SweepPoint {
                budget,
                reap,
                statics,
            })
        })
        .collect()
}

/// The *shadow price of energy*: the marginal objective gain per extra
/// joule of budget, estimated by central finite difference.
///
/// REAP's objective is piecewise-linear and concave in the budget, so the
/// shadow price is non-increasing: large when the device is starved
/// (every joule buys active time at the best accuracy-per-joule point),
/// zero beyond the saturation budget. Useful for deciding whether to
/// spend battery now or bank it. Near the floor the low probe stops at
/// [`ReapProblem::min_budget`], and the difference spans the probed
/// width only.
///
/// # Errors
///
/// Propagates solver errors; the budget must be at least
/// [`ReapProblem::min_budget`].
pub fn energy_shadow_price(problem: &ReapProblem, budget: Energy) -> Result<f64, ReapError> {
    let h = Energy::from_millijoules(
        (budget.millijoules() * 1e-4).max(1.0), // >= 1 mJ probe
    );
    // The low probe never goes below the floor, nor below a budget that
    // is already there (a sub-floor budget then fails as itself).
    let lo_budget = (budget - h).max(budget.min(problem.min_budget()));
    let hi_budget = budget + h;
    // One frontier serves both probes.
    let frontier = problem.frontier();
    let lo = frontier.objective_at(lo_budget)?;
    let hi = frontier.objective_at(hi_budget)?;
    Ok((hi - lo) / (hi_budget - lo_budget).joules())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OperatingPoint;
    use reap_units::Power;

    impl SweepPoint {
        /// REAP's objective divided by the static schedule's objective for
        /// the point at `index` (problem order). `None` when the static
        /// objective is zero (both off) — the ratio is undefined there.
        fn normalized_vs_static(&self, index: usize, alpha: f64) -> Option<f64> {
            let s = self.statics.get(index)?.objective(alpha);
            if s <= 0.0 {
                None
            } else {
                Some(self.reap.objective(alpha) / s)
            }
        }
    }

    fn paper_problem(alpha: f64) -> ReapProblem {
        let specs = [
            (1u8, 0.94, 2.76),
            (2, 0.93, 2.30),
            (3, 0.92, 1.82),
            (4, 0.90, 1.64),
            (5, 0.76, 1.20),
        ];
        ReapProblem::builder()
            .alpha(alpha)
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
    fn linspace_covers_endpoints() {
        let v = linspace(0.18, 10.0, 5);
        assert_eq!(v.len(), 5);
        assert!((v[0] - 0.18).abs() < 1e-12);
        assert!((v[4] - 10.0).abs() < 1e-12);
        assert!(v.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn linspace_rejects_tiny_n() {
        let _ = linspace(0.0, 1.0, 1);
    }

    #[test]
    fn sweep_reproduces_fig5_monotonicity() {
        let p = paper_problem(1.0);
        let budgets: Vec<Energy> = linspace(0.18, 10.5, 40)
            .into_iter()
            .map(Energy::from_joules)
            .collect();
        let rows = energy_sweep(&p, &budgets).unwrap();
        assert_eq!(rows.len(), 40);
        // Expected accuracy grows (weakly) with budget for REAP.
        for w in rows.windows(2) {
            assert!(
                w[1].reap.expected_accuracy() >= w[0].reap.expected_accuracy() - 1e-9,
                "accuracy decreased between {} and {}",
                w[0].budget,
                w[1].budget
            );
        }
        // REAP dominates every static at every budget.
        for row in &rows {
            for s in &row.statics {
                assert!(row.reap.objective(1.0) >= s.objective(1.0) - 1e-9);
            }
        }
        // The last row saturates at DP1 accuracy.
        assert!((rows.last().unwrap().reap.expected_accuracy() - 0.94).abs() < 1e-6);
    }

    #[test]
    fn region1_active_time_advantage_over_dp1_is_2_3x() {
        // Fig. 5b annotation: in Region 1 REAP has about 2.3x the active
        // time of static DP1.
        let p = paper_problem(1.0);
        let rows = energy_sweep(&p, &[Energy::from_joules(3.0)]).unwrap();
        let row = &rows[0];
        let ratio = row.reap.active_time() / row.statics[0].active_time();
        assert!((ratio - 2.3).abs() < 0.1, "ratio = {ratio}");
    }

    #[test]
    fn normalized_vs_static_handles_zero() {
        let p = paper_problem(1.0);
        // At the floor, statics are all off: objective 0 -> None.
        let rows = energy_sweep(&p, &[Energy::from_joules(0.18)]).unwrap();
        assert_eq!(rows[0].normalized_vs_static(0, 1.0), None);
        assert_eq!(rows[0].normalized_vs_static(99, 1.0), None);
        // At a healthy budget the ratio is >= 1.
        let rows = energy_sweep(&p, &[Energy::from_joules(5.0)]).unwrap();
        let r = rows[0].normalized_vs_static(0, 1.0).unwrap();
        assert!(r >= 1.0);
    }

    #[test]
    fn fig6_crossover_dp3_near_6_5j() {
        // Fig. 6: at alpha = 2, DP3's static objective matches REAP's near
        // 6.5 J and falls behind beyond it.
        let p = paper_problem(2.0);
        let near = energy_sweep(&p, &[Energy::from_joules(6.5)]).unwrap();
        let ratio_at_65 = near[0].normalized_vs_static(2, 2.0).unwrap();
        assert!(
            (ratio_at_65 - 1.0).abs() < 0.02,
            "REAP/DP3 at 6.5 J = {ratio_at_65}"
        );
        let beyond = energy_sweep(&p, &[Energy::from_joules(8.5)]).unwrap();
        let ratio_at_85 = beyond[0].normalized_vs_static(2, 2.0).unwrap();
        assert!(ratio_at_85 > 1.005, "REAP/DP3 at 8.5 J = {ratio_at_85}");
    }

    #[test]
    fn shadow_price_is_nonincreasing_and_vanishes_at_saturation() {
        let p = paper_problem(1.0);
        let prices: Vec<f64> = [1.0, 2.0, 3.0, 4.5, 6.0, 8.0, 9.5]
            .iter()
            .map(|&j| energy_shadow_price(&p, Energy::from_joules(j)).unwrap())
            .collect();
        for w in prices.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "shadow price increased: {prices:?}");
        }
        assert!(prices[0] > 0.1, "starved shadow price {}", prices[0]);
        // Beyond saturation an extra joule buys nothing.
        let sat = energy_shadow_price(&p, Energy::from_joules(11.0)).unwrap();
        assert!(sat.abs() < 1e-9, "saturated shadow price {sat}");
    }
}
