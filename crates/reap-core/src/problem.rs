//! The REAP optimization problem.

use reap_units::{Energy, Power, TimeSpan};

use crate::frontier::PlanFrontier;
use crate::solver;
use crate::{OperatingPoint, ReapError, Schedule};

/// A fully specified instance of the REAP optimization problem
/// (Sec. 3.2 of the paper): operating points, activity period `TP`,
/// off-state power `P_off`, and trade-off exponent `alpha`.
///
/// The *energy budget* `Eb` is deliberately **not** part of the problem: it
/// changes every period as harvesting conditions change, and is passed to
/// [`ReapProblem::solve`] at runtime — exactly the paper's usage model.
#[derive(Debug, Clone, PartialEq)]
pub struct ReapProblem {
    points: Vec<OperatingPoint>,
    period: TimeSpan,
    off_power: Power,
    alpha: f64,
}

/// Builder for [`ReapProblem`]. Defaults: one-hour period, 50 µW off-state
/// power, `alpha = 1` (expected accuracy).
#[derive(Debug, Clone)]
pub struct ReapProblemBuilder {
    points: Vec<OperatingPoint>,
    period: TimeSpan,
    off_power: Power,
    alpha: f64,
}

impl Default for ReapProblemBuilder {
    fn default() -> Self {
        ReapProblemBuilder {
            points: Vec::new(),
            period: TimeSpan::from_hours(1.0),
            off_power: Power::from_microwatts(50.0),
            alpha: 1.0,
        }
    }
}

impl ReapProblemBuilder {
    /// Sets the activity period `TP` (default: one hour).
    #[must_use]
    pub fn period(mut self, period: TimeSpan) -> Self {
        self.period = period;
        self
    }

    /// Sets the off-state power `P_off` (default: 50 µW, the paper's
    /// 0.18 J per hour).
    #[must_use]
    pub fn off_power(mut self, off_power: Power) -> Self {
        self.off_power = off_power;
        self
    }

    /// Sets the accuracy/active-time trade-off exponent `alpha`
    /// (default: 1).
    #[must_use]
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Replaces the operating-point set.
    #[must_use]
    pub fn points(mut self, points: Vec<OperatingPoint>) -> Self {
        self.points = points;
        self
    }

    /// Adds one operating point.
    #[must_use]
    pub fn point(mut self, point: OperatingPoint) -> Self {
        self.points.push(point);
        self
    }

    /// Validates and builds the problem.
    ///
    /// # Errors
    ///
    /// * [`ReapError::NoPoints`] without at least one operating point.
    /// * [`ReapError::InvalidParameter`] for a non-positive period, a
    ///   negative or non-finite off power, a negative or non-finite
    ///   `alpha`, duplicate point ids, or a point whose power does not
    ///   exceed `P_off` (such a point would make "off" pointless and
    ///   signals a modelling error).
    pub fn build(self) -> Result<ReapProblem, ReapError> {
        if self.points.is_empty() {
            return Err(ReapError::NoPoints);
        }
        if !self.period.is_finite() || self.period.seconds() <= 0.0 {
            return Err(ReapError::InvalidParameter(format!(
                "period {} must be positive",
                self.period
            )));
        }
        if !self.off_power.is_finite() || self.off_power.is_negative() {
            return Err(ReapError::InvalidParameter(format!(
                "off power {} must be non-negative",
                self.off_power
            )));
        }
        check_alpha(self.alpha)?;
        for (i, a) in self.points.iter().enumerate() {
            for b in &self.points[i + 1..] {
                if a.id() == b.id() {
                    return Err(ReapError::InvalidParameter(format!(
                        "duplicate operating point id {}",
                        a.id()
                    )));
                }
            }
            if a.power() <= self.off_power {
                return Err(ReapError::InvalidParameter(format!(
                    "operating point {} draws {} which does not exceed the off power {}",
                    a.id(),
                    a.power(),
                    self.off_power
                )));
            }
        }
        Ok(ReapProblem {
            points: self.points,
            period: self.period,
            off_power: self.off_power,
            alpha: self.alpha,
        })
    }
}

/// Rejects a negative or non-finite trade-off exponent.
fn check_alpha(alpha: f64) -> Result<(), ReapError> {
    if alpha.is_finite() && alpha >= 0.0 {
        Ok(())
    } else {
        Err(ReapError::InvalidParameter(format!(
            "alpha {alpha} must be finite and non-negative"
        )))
    }
}

impl ReapProblem {
    /// Starts building a problem.
    #[must_use]
    pub fn builder() -> ReapProblemBuilder {
        ReapProblemBuilder::default()
    }

    /// The operating points.
    #[must_use]
    pub fn points(&self) -> &[OperatingPoint] {
        &self.points
    }

    /// Looks up a point by id.
    ///
    /// # Errors
    ///
    /// [`ReapError::UnknownPoint`] when no point has this id.
    pub fn point(&self, id: u8) -> Result<&OperatingPoint, ReapError> {
        self.points
            .iter()
            .find(|p| p.id() == id)
            .ok_or(ReapError::UnknownPoint { id })
    }

    /// The activity period `TP`.
    #[must_use]
    pub fn period(&self) -> TimeSpan {
        self.period
    }

    /// The off-state power `P_off`.
    #[must_use]
    pub fn off_power(&self) -> Power {
        self.off_power
    }

    /// The trade-off exponent `alpha`.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Returns a copy of the problem with a different `alpha` (the paper
    /// notes user preferences may change `alpha` at runtime).
    ///
    /// # Errors
    ///
    /// [`ReapError::InvalidParameter`] for a negative or non-finite
    /// `alpha`, as in [`ReapProblemBuilder::build`].
    pub fn with_alpha(&self, alpha: f64) -> Result<ReapProblem, ReapError> {
        check_alpha(alpha)?;
        Ok(ReapProblem {
            alpha,
            ..self.clone()
        })
    }

    /// The minimum budget that keeps the device alive for the whole
    /// period: `P_off * TP` (0.18 J in the paper's setup).
    #[must_use]
    pub fn min_budget(&self) -> Energy {
        self.off_power * self.period
    }

    /// The budget beyond which the highest-power point can run all period
    /// long (9.9 J in the paper's setup); larger budgets change nothing.
    #[must_use]
    pub fn saturation_budget(&self) -> Energy {
        let p_max = self
            .points
            .iter()
            .map(|p| p.power())
            .fold(Power::ZERO, Power::max);
        p_max * self.period
    }

    /// Solves the problem for a given budget with the paper's Algorithm 1
    /// (tableau simplex).
    ///
    /// # Errors
    ///
    /// * [`ReapError::BudgetTooSmall`] when `budget < P_off * TP`.
    /// * [`ReapError::Lp`] / [`ReapError::SolverInconsistency`] on solver
    ///   failure (pathological inputs only).
    pub fn solve(&self, budget: Energy) -> Result<Schedule, ReapError> {
        solver::solve_simplex(self, budget)
    }

    /// Precomputes the full budget→schedule frontier for this problem's
    /// `(points, alpha)`, after which every solve is an `O(log K)` lookup
    /// (see [`PlanFrontier`]).
    #[must_use]
    pub fn frontier(&self) -> PlanFrontier {
        PlanFrontier::new(self)
    }

    /// Solves the problem at each budget via a single precomputed
    /// [`PlanFrontier`] — the batch API the sweeps, region detection, and
    /// figure binaries use instead of `budgets.len()` independent LP
    /// solves.
    ///
    /// # Errors
    ///
    /// [`ReapError::BudgetTooSmall`] for any budget below `P_off * TP`;
    /// [`ReapError::InvalidParameter`] for non-finite budgets.
    pub fn solve_many(&self, budgets: &[Energy]) -> Result<Vec<Schedule>, ReapError> {
        let frontier = self.frontier();
        budgets.iter().map(|&b| frontier.solve(b)).collect()
    }
}

/// The one budget check every validating planner applies: `budget` must
/// be finite and at least the off-state floor `minimum` (`P_off * TP`),
/// up to float dust of 1e-12 (the paper sweeps from exactly 0.18 J).
///
/// # Errors
///
/// [`ReapError::InvalidParameter`] for a non-finite budget;
/// [`ReapError::BudgetTooSmall`] below the floor.
pub(crate) fn check_budget(budget: Energy, minimum: Energy) -> Result<(), ReapError> {
    if !budget.is_finite() {
        return Err(ReapError::InvalidParameter(format!(
            "budget {budget} is not finite"
        )));
    }
    if budget.joules() < minimum.joules() * (1.0 - 1e-12) {
        return Err(ReapError::BudgetTooSmall { budget, minimum });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(id: u8, acc: f64, mw: f64) -> OperatingPoint {
        OperatingPoint::new(id, format!("DP{id}"), acc, Power::from_milliwatts(mw)).unwrap()
    }

    fn paper_problem() -> ReapProblem {
        ReapProblem::builder()
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
    fn builder_defaults_match_paper() {
        let p = paper_problem();
        assert_eq!(p.period().seconds(), 3600.0);
        assert!((p.off_power().microwatts() - 50.0).abs() < 1e-9);
        assert_eq!(p.alpha(), 1.0);
        assert!((p.min_budget().joules() - 0.18).abs() < 1e-12);
        assert!((p.saturation_budget().joules() - 9.936).abs() < 1e-9);
    }

    #[test]
    fn builder_validation() {
        assert_eq!(
            ReapProblem::builder().build().unwrap_err(),
            ReapError::NoPoints
        );
        let dup = ReapProblem::builder()
            .point(point(1, 0.9, 1.0))
            .point(point(1, 0.8, 2.0))
            .build();
        assert!(matches!(dup, Err(ReapError::InvalidParameter(_))));
        let weak = ReapProblem::builder()
            .off_power(Power::from_milliwatts(5.0))
            .point(point(1, 0.9, 1.0))
            .build();
        assert!(matches!(weak, Err(ReapError::InvalidParameter(_))));
        let bad_alpha = ReapProblem::builder()
            .alpha(-1.0)
            .point(point(1, 0.9, 1.0))
            .build();
        assert!(matches!(bad_alpha, Err(ReapError::InvalidParameter(_))));
        let bad_period = ReapProblem::builder()
            .period(TimeSpan::ZERO)
            .point(point(1, 0.9, 1.0))
            .build();
        assert!(matches!(bad_period, Err(ReapError::InvalidParameter(_))));
    }

    #[test]
    fn point_lookup() {
        let p = paper_problem();
        assert_eq!(p.point(4).unwrap().id(), 4);
        assert_eq!(p.point(9).unwrap_err(), ReapError::UnknownPoint { id: 9 });
    }

    #[test]
    fn with_alpha_changes_only_alpha() {
        let p = paper_problem();
        let q = p.with_alpha(2.0).unwrap();
        assert_eq!(q.alpha(), 2.0);
        assert_eq!(q.points(), p.points());
        assert_eq!(q.period(), p.period());
    }

    #[test]
    fn with_alpha_rejects_what_the_builder_rejects() {
        let p = paper_problem();
        for alpha in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            assert!(
                matches!(p.with_alpha(alpha), Err(ReapError::InvalidParameter(_))),
                "alpha {alpha} accepted"
            );
            let built = ReapProblem::builder()
                .points(p.points().to_vec())
                .alpha(alpha)
                .build();
            assert!(matches!(built, Err(ReapError::InvalidParameter(_))));
        }
        assert_eq!(p.with_alpha(0.0).unwrap().alpha(), 0.0);
    }
}
