//! Solver output types.

use std::fmt;

/// Termination status of a simplex solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LpStatus {
    /// An optimal basic feasible solution was found.
    Optimal,
    /// The constraint set admits no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

impl fmt::Display for LpStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LpStatus::Optimal => "optimal",
            LpStatus::Infeasible => "infeasible",
            LpStatus::Unbounded => "unbounded",
        };
        f.write_str(s)
    }
}

/// The result of solving an [`LpProblem`](crate::LpProblem).
///
/// `objective` and `values` are only meaningful when
/// [`status`](LpSolution::status) is [`LpStatus::Optimal`].
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    status: LpStatus,
    objective: f64,
    values: Vec<f64>,
    iterations: usize,
}

impl LpSolution {
    pub(crate) fn optimal(objective: f64, values: Vec<f64>, iterations: usize) -> Self {
        LpSolution {
            status: LpStatus::Optimal,
            objective,
            values,
            iterations,
        }
    }

    pub(crate) fn infeasible(iterations: usize) -> Self {
        LpSolution {
            status: LpStatus::Infeasible,
            objective: f64::NAN,
            values: Vec::new(),
            iterations,
        }
    }

    pub(crate) fn unbounded(iterations: usize) -> Self {
        LpSolution {
            status: LpStatus::Unbounded,
            objective: f64::NAN,
            values: Vec::new(),
            iterations,
        }
    }

    /// Termination status.
    #[must_use]
    pub fn status(&self) -> LpStatus {
        self.status
    }

    /// Optimal objective value.
    ///
    /// NaN when the problem was infeasible or unbounded.
    #[must_use]
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Values of the decision variables at the optimum.
    ///
    /// Empty when the problem was infeasible or unbounded.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Total simplex pivots performed (both phases).
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

impl fmt::Display for LpSolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.status {
            LpStatus::Optimal => write!(
                f,
                "optimal: objective {:.6} after {} pivots",
                self.objective, self.iterations
            ),
            other => write!(f, "{other} after {} pivots", self.iterations),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_accessors() {
        let s = LpSolution::optimal(3.5, vec![1.0, 2.5], 4);
        assert_eq!(s.status(), LpStatus::Optimal);
        assert_eq!(s.objective(), 3.5);
        assert_eq!(s.values(), &[1.0, 2.5]);
        assert_eq!(s.iterations(), 4);
    }

    #[test]
    fn non_optimal_accessors() {
        let s = LpSolution::infeasible(2);
        assert_eq!(s.status(), LpStatus::Infeasible);
        assert!(s.objective().is_nan());
        assert!(s.values().is_empty());

        let u = LpSolution::unbounded(0);
        assert_eq!(u.status(), LpStatus::Unbounded);
    }

    #[test]
    fn display_is_never_empty() {
        assert!(!LpSolution::optimal(1.0, vec![1.0], 1)
            .to_string()
            .is_empty());
        assert!(LpSolution::infeasible(0).to_string().contains("infeasible"));
        assert!(LpSolution::unbounded(0).to_string().contains("unbounded"));
        assert_eq!(LpStatus::Optimal.to_string(), "optimal");
    }
}
