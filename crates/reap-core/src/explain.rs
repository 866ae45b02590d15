//! Schedule explanation: *why* the optimizer chose what it chose.
//!
//! The LP's decisions have a crisp economic reading — points are ranked by
//! objective-weight per marginal watt, the budget either runs out before
//! the period fills (energy-bound) or the period fills first
//! (time-bound) — and surfacing it makes the controller auditable on a
//! deployed device.

use reap_units::Energy;

use crate::sweep::energy_shadow_price;
use crate::{ReapError, ReapProblem, Schedule};

/// Which constraint binds the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BindingConstraint {
    /// The energy budget runs out while off-time remains: Region 1.
    Energy,
    /// The whole period is active and energy remains unspent; only the
    /// best-weight point matters: Region 3.
    Time,
    /// Both bind: the two-point mixing regime of Region 2.
    Both,
}

/// A structured explanation of one solve.
#[derive(Debug, Clone, PartialEq)]
struct Explanation {
    /// Which constraint(s) bind.
    binding: BindingConstraint,
    /// Points ranked by `weight / (P_i - P_off)` — the greedy order the
    /// optimum follows in the energy-bound regime.
    value_per_watt_ranking: Vec<(u8, f64)>,
    /// The marginal value of one more joule at this budget.
    shadow_price: f64,
}

impl std::fmt::Display for Explanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let regime = match self.binding {
            BindingConstraint::Energy => "energy-bound (device must sleep part of the period)",
            BindingConstraint::Time => "time-bound (energy to spare; best point runs all period)",
            BindingConstraint::Both => "mixed regime (period full, budget exactly spent)",
        };
        writeln!(f, "regime: {regime}")?;
        writeln!(f, "value per marginal milliwatt (weight / (P - P_off)):")?;
        for (id, v) in &self.value_per_watt_ranking {
            writeln!(f, "  DP{id}: {v:.4}")?;
        }
        write!(
            f,
            "shadow price of energy: {:.4} objective/J",
            self.shadow_price
        )
    }
}

/// Explains a schedule produced by [`ReapProblem::solve`] at `budget`.
///
/// # Errors
///
/// Propagates solver errors from the shadow-price probe.
fn explain(
    problem: &ReapProblem,
    budget: Energy,
    schedule: &Schedule,
) -> Result<Explanation, ReapError> {
    let alpha = problem.alpha();
    let p_off = problem.off_power();
    let mut ranking: Vec<(u8, f64)> = problem
        .points()
        .iter()
        .map(|p| {
            let marginal_mw = (p.power() - p_off).milliwatts();
            (p.id(), p.weight(alpha) / marginal_mw)
        })
        .collect();
    ranking.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));

    let fully_active = schedule.active_fraction() > 1.0 - 1e-6;
    let energy_exhausted = schedule.energy().joules() >= budget.joules() * (1.0 - 1e-6) - 1e-9;
    let binding = match (fully_active, energy_exhausted) {
        (true, true) => BindingConstraint::Both,
        (true, false) => BindingConstraint::Time,
        _ => BindingConstraint::Energy,
    };
    let shadow_price = energy_shadow_price(problem, budget)?;
    Ok(Explanation {
        binding,
        value_per_watt_ranking: ranking,
        shadow_price,
    })
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
    fn region1_is_energy_bound_with_dp5_on_top() {
        let p = paper_problem();
        let budget = Energy::from_joules(3.0);
        let s = p.solve(budget).unwrap();
        let e = explain(&p, budget, &s).unwrap();
        assert_eq!(e.binding, BindingConstraint::Energy);
        // DP5 has the best accuracy per marginal watt at alpha = 1.
        assert_eq!(e.value_per_watt_ranking[0].0, 5);
        assert!(e.shadow_price > 0.0);
    }

    #[test]
    fn region2_binds_both_constraints() {
        let p = paper_problem();
        let budget = Energy::from_joules(5.0);
        let s = p.solve(budget).unwrap();
        let e = explain(&p, budget, &s).unwrap();
        assert_eq!(e.binding, BindingConstraint::Both);
    }

    #[test]
    fn saturation_is_time_bound_with_zero_shadow_price() {
        let p = paper_problem();
        let budget = Energy::from_joules(11.0);
        let s = p.solve(budget).unwrap();
        let e = explain(&p, budget, &s).unwrap();
        assert_eq!(e.binding, BindingConstraint::Time);
        assert!(e.shadow_price.abs() < 1e-9);
    }

    #[test]
    fn ranking_is_sorted_and_complete() {
        let p = paper_problem();
        let budget = Energy::from_joules(4.0);
        let s = p.solve(budget).unwrap();
        let e = explain(&p, budget, &s).unwrap();
        assert_eq!(e.value_per_watt_ranking.len(), 5);
        for w in e.value_per_watt_ranking.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn budgets_at_a_low_floor_are_explained() {
        // A 1 uW off state puts the floor at 3.6 mJ, within the 1 mJ
        // probe step of every budget below 4.6 mJ: the low probe stops
        // at the floor instead of failing below it.
        let p = ReapProblem::builder()
            .off_power(Power::from_microwatts(1.0))
            .points(paper_problem().points().to_vec())
            .build()
            .unwrap();
        assert!((p.min_budget().millijoules() - 3.6).abs() < 1e-12);
        // Both probes stay on the first segment, where DP5 buys its
        // weight per marginal joule.
        let dp5 = p.point(5).unwrap();
        let slope = dp5.weight(1.0) / ((dp5.power() - p.off_power()) * p.period()).joules();
        for mj in [3.6, 4.0] {
            let budget = Energy::from_millijoules(mj);
            let s = p.solve(budget).unwrap();
            let e = explain(&p, budget, &s).unwrap();
            assert_eq!(e.binding, BindingConstraint::Energy);
            assert!(
                (e.shadow_price - slope).abs() < 1e-9,
                "{mj} mJ: shadow price {} vs slope {slope}",
                e.shadow_price
            );
        }
    }

    #[test]
    fn display_is_informative() {
        let p = paper_problem();
        let budget = Energy::from_joules(3.0);
        let s = p.solve(budget).unwrap();
        let text = explain(&p, budget, &s).unwrap().to_string();
        assert!(text.contains("energy-bound"));
        assert!(text.contains("DP5"));
        assert!(text.contains("shadow price"));
    }
}
