//! LP problem construction.

use crate::error::LpError;
use crate::simplex::{self, SimplexOptions};
use crate::solution::LpSolution;

/// The sense of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `coeffs · x <= rhs`
    Le,
    /// `coeffs · x == rhs`
    Eq,
    /// `coeffs · x >= rhs`
    Ge,
}

impl Relation {
    /// Returns the relation with its comparison direction flipped
    /// (`Le <-> Ge`, `Eq` unchanged). Used when a row is negated to make its
    /// right-hand side non-negative.
    #[must_use]
    pub fn flipped(self) -> Relation {
        match self {
            Relation::Le => Relation::Ge,
            Relation::Ge => Relation::Le,
            Relation::Eq => Relation::Eq,
        }
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    Maximize,
    Minimize,
}

/// One linear constraint row, stored as its terms: `(column,
/// coefficient)` pairs in strictly ascending column order, every
/// coefficient whose bits are not `+0.0` (an explicit `-0.0` is kept).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ConstraintRow {
    pub terms: Vec<(usize, f64)>,
    pub relation: Relation,
    pub rhs: f64,
}

/// A linear program over non-negative decision variables.
///
/// The problem is
///
/// ```text
/// max (or min)  c · x
/// subject to    A x {<=, =, >=} b
///               x >= 0
/// ```
///
/// Build with [`LpProblem::maximize`] or [`LpProblem::minimize`], add rows
/// with [`LpProblem::subject_to`] (dense) or [`LpProblem::subject_to_terms`]
/// (a row's non-zero terms), then call [`LpProblem::solve`].
///
/// # Examples
///
/// ```
/// use reap_lp::{LpProblem, Relation};
///
/// # fn main() -> Result<(), reap_lp::LpError> {
/// // Minimize x + y with x + y >= 2.
/// let mut p = LpProblem::minimize(&[1.0, 1.0]);
/// p.subject_to(&[1.0, 1.0], Relation::Ge, 2.0)?;
/// let s = p.solve()?;
/// assert!((s.objective() - 2.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LpProblem {
    pub(crate) direction: Direction,
    pub(crate) objective: Vec<f64>,
    pub(crate) constraints: Vec<ConstraintRow>,
}

impl LpProblem {
    /// Creates a maximization problem with the given objective coefficients.
    ///
    /// The number of decision variables is fixed to `objective.len()` from
    /// this point on.
    ///
    /// # Panics
    ///
    /// Panics if `objective` is empty or contains a non-finite value; use
    /// [`LpProblem::try_new_maximize`] for a fallible version.
    #[must_use]
    // reap-lint: allow(api) -- simplex_golden pins the textbook pivot paths built with it
    pub fn maximize(objective: &[f64]) -> Self {
        Self::try_new_maximize(objective).expect("invalid objective")
    }

    /// Creates a minimization problem with the given objective coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `objective` is empty or contains a non-finite value; use
    /// [`LpProblem::try_new_minimize`] for a fallible version.
    #[must_use]
    // reap-lint: allow(api) -- simplex_golden pins the textbook pivot paths built with it
    pub fn minimize(objective: &[f64]) -> Self {
        Self::try_new_minimize(objective).expect("invalid objective")
    }

    /// Fallible constructor for a maximization problem.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::EmptyObjective`] for an empty coefficient slice and
    /// [`LpError::NonFiniteInput`] if any coefficient is NaN or infinite.
    pub fn try_new_maximize(objective: &[f64]) -> Result<Self, LpError> {
        Self::try_new(Direction::Maximize, objective)
    }

    /// Fallible constructor for a minimization problem.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LpProblem::try_new_maximize`].
    pub fn try_new_minimize(objective: &[f64]) -> Result<Self, LpError> {
        Self::try_new(Direction::Minimize, objective)
    }

    fn try_new(direction: Direction, objective: &[f64]) -> Result<Self, LpError> {
        if objective.is_empty() {
            return Err(LpError::EmptyObjective);
        }
        if objective.iter().any(|c| !c.is_finite()) {
            return Err(LpError::NonFiniteInput);
        }
        Ok(LpProblem {
            direction,
            objective: objective.to_vec(),
            constraints: Vec::new(),
        })
    }

    /// Adds the constraint `coeffs · x  rel  rhs`.
    ///
    /// Returns `&mut self` so constraints can be chained.
    ///
    /// # Errors
    ///
    /// * [`LpError::DimensionMismatch`] if `coeffs.len()` differs from the
    ///   number of decision variables.
    /// * [`LpError::NonFiniteInput`] if any coefficient or `rhs` is NaN or
    ///   infinite.
    pub fn subject_to(
        &mut self,
        coeffs: &[f64],
        relation: Relation,
        rhs: f64,
    ) -> Result<&mut Self, LpError> {
        if coeffs.len() != self.objective.len() {
            return Err(LpError::DimensionMismatch {
                expected: self.objective.len(),
                got: coeffs.len(),
            });
        }
        self.push_row(coeffs.iter().copied().enumerate(), relation, rhs)
    }

    /// Adds the constraint `sum a_j x_j  rel  rhs` over its terms
    /// `(j, a_j)`; a column the terms leave out has coefficient zero.
    ///
    /// Returns `&mut self` so constraints can be chained.
    ///
    /// # Errors
    ///
    /// * [`LpError::InvalidColumn`] if a column is not below the number of
    ///   decision variables or the columns are not strictly ascending.
    /// * [`LpError::NonFiniteInput`] if any coefficient or `rhs` is NaN or
    ///   infinite.
    pub fn subject_to_terms(
        &mut self,
        terms: &[(usize, f64)],
        relation: Relation,
        rhs: f64,
    ) -> Result<&mut Self, LpError> {
        let mut next = 0;
        for &(column, _) in terms {
            if column < next || column >= self.num_vars() {
                return Err(LpError::InvalidColumn { column });
            }
            next = column + 1;
        }
        self.push_row(terms.iter().copied(), relation, rhs)
    }

    /// Appends a row of ascending in-range terms once its coefficients and
    /// `rhs` are finite. Only terms whose bits are `+0.0` are dropped, so
    /// the stored terms scatter back into exactly the dense row.
    fn push_row(
        &mut self,
        terms: impl ExactSizeIterator<Item = (usize, f64)> + Clone,
        relation: Relation,
        rhs: f64,
    ) -> Result<&mut Self, LpError> {
        if terms.clone().any(|(_, a)| !a.is_finite()) || !rhs.is_finite() {
            return Err(LpError::NonFiniteInput);
        }
        let mut terms: Vec<(usize, f64)> = terms.collect();
        terms.retain(|&(_, a)| a.to_bits() != 0.0f64.to_bits());
        self.constraints.push(ConstraintRow {
            terms,
            relation,
            rhs,
        });
        Ok(self)
    }

    /// Number of decision variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraint rows added so far.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// `true` if this is a maximization problem.
    #[must_use]
    pub fn is_maximization(&self) -> bool {
        self.direction == Direction::Maximize
    }

    /// Solves the program with default [`SimplexOptions`].
    ///
    /// # Errors
    ///
    /// Returns [`LpError::IterationLimit`] if the simplex fails to converge.
    /// Infeasibility and unboundedness are *not* errors: they are reported
    /// through [`LpSolution::status`].
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        self.solve_with(&SimplexOptions::default())
    }

    /// Solves the program with explicit solver options.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::IterationLimit`] if the simplex fails to converge
    /// within `options.max_iterations`.
    pub fn solve_with(&self, options: &SimplexOptions) -> Result<LpSolution, LpError> {
        simplex::solve(self, options)
    }

    /// Checks whether a candidate point satisfies every constraint and the
    /// non-negativity bounds within tolerance `tol`.
    ///
    /// This is the verification hook used by downstream property tests: any
    /// schedule produced by the REAP controller must pass this check on its
    /// originating LP.
    #[must_use]
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars() {
            return false;
        }
        if x.iter().any(|&v| v < -tol || !v.is_finite()) {
            return false;
        }
        self.constraints.iter().all(|c| {
            let lhs: f64 = c.terms.iter().map(|&(j, a)| a * x[j]).sum();
            match c.relation {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
    }

    /// Evaluates the objective `c · x` at a point.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the number of decision variables.
    #[must_use]
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        assert_eq!(
            x.len(),
            self.num_vars(),
            "point dimension {} does not match problem dimension {}",
            x.len(),
            self.num_vars()
        );
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }
}

impl std::fmt::Display for LpProblem {
    /// Writes the program in a conventional algebraic form, e.g.
    /// `maximize 3 x0 + 2 x1` followed by one constraint per line.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verb = if self.is_maximization() {
            "maximize"
        } else {
            "minimize"
        };
        fn lhs(terms: impl Iterator<Item = (usize, f64)>) -> String {
            let terms: Vec<String> = terms
                .filter(|&(_, c)| c != 0.0)
                .map(|(j, c)| format!("{c} x{j}"))
                .collect();
            if terms.is_empty() {
                "0".to_string()
            } else {
                terms.join(" + ")
            }
        }
        writeln!(
            f,
            "{verb} {}",
            lhs(self.objective.iter().copied().enumerate())
        )?;
        writeln!(f, "subject to")?;
        for c in &self.constraints {
            let rel = match c.relation {
                Relation::Le => "<=",
                Relation::Eq => "==",
                Relation::Ge => ">=",
            };
            writeln!(f, "  {} {rel} {}", lhs(c.terms.iter().copied()), c.rhs)?;
        }
        write!(f, "  x >= 0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_writes_algebraic_form() {
        let mut p = LpProblem::maximize(&[3.0, 0.0, 2.0]);
        p.subject_to(&[1.0, 1.0, 0.0], Relation::Le, 4.0).unwrap();
        p.subject_to(&[0.0, 0.0, 0.0], Relation::Eq, 0.0).unwrap();
        let text = p.to_string();
        assert!(text.contains("maximize 3 x0 + 2 x2"));
        assert!(text.contains("1 x0 + 1 x1 <= 4"));
        assert!(text.contains("0 == 0"));
        assert!(text.contains("x >= 0"));
        let q = LpProblem::minimize(&[1.0]);
        assert!(q.to_string().starts_with("minimize"));
    }

    #[test]
    fn builder_tracks_dimensions() {
        let mut p = LpProblem::maximize(&[1.0, 2.0, 3.0]);
        assert_eq!(p.num_vars(), 3);
        assert_eq!(p.num_constraints(), 0);
        p.subject_to(&[1.0, 1.0, 1.0], Relation::Le, 10.0).unwrap();
        assert_eq!(p.num_constraints(), 1);
        assert!(p.is_maximization());
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let mut p = LpProblem::maximize(&[1.0, 2.0]);
        let err = p.subject_to(&[1.0], Relation::Le, 1.0).unwrap_err();
        assert_eq!(
            err,
            LpError::DimensionMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn non_finite_inputs_are_rejected() {
        assert_eq!(
            LpProblem::try_new_maximize(&[f64::NAN]).unwrap_err(),
            LpError::NonFiniteInput
        );
        let mut p = LpProblem::maximize(&[1.0]);
        assert_eq!(
            p.subject_to(&[f64::INFINITY], Relation::Le, 1.0)
                .unwrap_err(),
            LpError::NonFiniteInput
        );
        let mut p = LpProblem::maximize(&[1.0]);
        assert_eq!(
            p.subject_to(&[1.0], Relation::Le, f64::NAN).unwrap_err(),
            LpError::NonFiniteInput
        );
    }

    #[test]
    fn terms_constructor_refuses_bad_columns_and_non_finite_input() {
        let mut p = LpProblem::maximize(&[1.0, 2.0, 3.0]);
        let refused = [
            (vec![(3, 1.0)], 1.0, LpError::InvalidColumn { column: 3 }),
            (
                vec![(1, 1.0), (1, 2.0)],
                1.0,
                LpError::InvalidColumn { column: 1 },
            ),
            (
                vec![(2, 1.0), (0, 2.0)],
                1.0,
                LpError::InvalidColumn { column: 0 },
            ),
            (vec![(0, 1.0), (1, f64::NAN)], 1.0, LpError::NonFiniteInput),
            (vec![(2, f64::NEG_INFINITY)], 1.0, LpError::NonFiniteInput),
            (vec![(0, 1.0)], f64::INFINITY, LpError::NonFiniteInput),
        ];
        for (terms, rhs, err) in refused {
            assert_eq!(
                p.subject_to_terms(&terms, Relation::Le, rhs).unwrap_err(),
                err,
                "{terms:?} <= {rhs}"
            );
        }
        assert_eq!(p.num_constraints(), 0);
        p.subject_to_terms(&[], Relation::Eq, 0.0).unwrap();
        p.subject_to_terms(&[(0, 1.0), (2, 5.0)], Relation::Le, 4.0)
            .unwrap();
        assert_eq!(p.num_constraints(), 2);
    }

    #[test]
    fn rows_store_every_term_but_positive_zeros() {
        let bits = |p: &LpProblem| -> Vec<Vec<(usize, u64)>> {
            p.constraints
                .iter()
                .map(|r| r.terms.iter().map(|&(j, a)| (j, a.to_bits())).collect())
                .collect()
        };
        let mut dense = LpProblem::maximize(&[1.0, 1.0, 1.0, 1.0]);
        dense
            .subject_to(&[0.0, -0.0, 2.0, 0.0], Relation::Le, 1.0)
            .unwrap();
        let mut sparse = LpProblem::maximize(&[1.0, 1.0, 1.0, 1.0]);
        sparse
            .subject_to_terms(&[(0, 0.0), (1, -0.0), (2, 2.0)], Relation::Le, 1.0)
            .unwrap();
        let expected = vec![vec![(1, (-0.0f64).to_bits()), (2, 2.0f64.to_bits())]];
        assert_eq!(bits(&dense), expected);
        assert_eq!(bits(&sparse), expected);
        assert!(dense.to_string().contains("2 x2 <= 1"));
    }

    #[test]
    fn empty_objective_is_rejected() {
        assert_eq!(
            LpProblem::try_new_maximize(&[]).unwrap_err(),
            LpError::EmptyObjective
        );
    }

    #[test]
    fn relation_flip() {
        assert_eq!(Relation::Le.flipped(), Relation::Ge);
        assert_eq!(Relation::Ge.flipped(), Relation::Le);
        assert_eq!(Relation::Eq.flipped(), Relation::Eq);
    }

    #[test]
    fn feasibility_check() {
        let mut p = LpProblem::maximize(&[1.0, 1.0]);
        p.subject_to(&[1.0, 1.0], Relation::Le, 4.0).unwrap();
        p.subject_to(&[1.0, 0.0], Relation::Ge, 1.0).unwrap();
        assert!(p.is_feasible(&[1.0, 1.0], 1e-9));
        assert!(p.is_feasible(&[4.0, 0.0], 1e-9));
        assert!(!p.is_feasible(&[0.0, 0.0], 1e-9)); // violates x >= 1
        assert!(!p.is_feasible(&[5.0, 0.0], 1e-9)); // violates sum <= 4
        assert!(!p.is_feasible(&[-0.1, 0.0], 1e-9)); // negative variable
        assert!(!p.is_feasible(&[1.0], 1e-9)); // wrong dimension
    }

    #[test]
    fn objective_value_evaluates_dot_product() {
        let p = LpProblem::maximize(&[2.0, -1.0]);
        assert_eq!(p.objective_value(&[3.0, 4.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn objective_value_panics_on_bad_dim() {
        let p = LpProblem::maximize(&[2.0, -1.0]);
        let _ = p.objective_value(&[3.0]);
    }
}
