//! Brute-force vertex-enumeration LP oracle.
//!
//! For a bounded LP over `x >= 0`, some optimal solution lies at a vertex of
//! the feasible polytope, i.e. at the intersection of `n` linearly
//! independent active constraints drawn from the constraint rows and the
//! non-negativity bounds. This module enumerates **every** such candidate
//! basis, solves the resulting `n × n` linear system by Gaussian
//! elimination, filters for feasibility, and returns the best vertex.
//!
//! The cost is `C(m + n, n)` system solves, which is hopeless in general but
//! perfectly fine for the tiny randomized problems used to property-test the
//! simplex in [`crate::LpProblem::solve`]. Keep `n + m` below ~16.

// Index-based loops below mirror the textbook linear-algebra notation;
// iterator rewrites would obscure the row/column structure.
#![allow(clippy::needless_range_loop)]

use crate::problem::{LpProblem, Relation};

/// Outcome of the enumeration oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleResult {
    /// Best feasible vertex found: `(objective, point)`.
    Optimal {
        /// Objective value at the best vertex.
        objective: f64,
        /// Coordinates of the best vertex.
        point: Vec<f64>,
    },
    /// No candidate vertex satisfied every constraint. For a bounded
    /// problem this means the feasible set is empty.
    NoVertex,
}

/// Solves a tiny `n x n` dense linear system with partial pivoting.
///
/// Returns `None` when the matrix is (numerically) singular.
fn solve_dense(mut a: Vec<Vec<f64>>, mut b: Vec<f64>, tol: f64) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Partial pivot.
        let pivot_row =
            (col..n).max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap())?;
        if a[pivot_row][col].abs() <= tol {
            return None;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        for row in (col + 1)..n {
            let f = a[row][col] / a[col][col];
            if f != 0.0 {
                for k in col..n {
                    a[row][k] -= f * a[col][k];
                }
                b[row] -= f * b[col];
            }
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for col in (row + 1)..n {
            acc -= a[row][col] * x[col];
        }
        x[row] = acc / a[row][row];
    }
    if x.iter().all(|v| v.is_finite()) {
        Some(x)
    } else {
        None
    }
}

/// Visits every `k`-combination of `0..n`, invoking `f` with each index set.
fn for_each_combination(n: usize, k: usize, f: &mut impl FnMut(&[usize])) {
    if k > n {
        return;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        f(&idx);
        // Advance to the next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
            if i == 0 {
                return;
            }
        }
        idx[i] += 1;
        for j in (i + 1)..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// Exhaustively enumerates candidate vertices of `problem` and returns the
/// best feasible one.
///
/// Equality constraints are always treated as active; the remaining active
/// set is chosen from inequality rows and the bounds `x_i = 0`.
///
/// This oracle **assumes the problem is bounded** (callers add box
/// constraints when generating random instances). For unbounded problems the
/// returned vertex is merely the best *vertex*, not a certificate of
/// optimality.
///
/// # Panics
///
/// Panics if the problem has more equality constraints than variables in a
/// way that over-determines the system (malformed test input).
#[must_use]
// reap-lint: allow(api) -- reap-lp's oracle: simplex_vs_oracle and stress check the simplex against it
pub fn best_vertex(problem: &LpProblem, tol: f64) -> OracleResult {
    let n = problem.num_vars();
    // Candidate active hyperplanes: every constraint row (as equality) and
    // every bound x_i = 0.
    struct Plane {
        coeffs: Vec<f64>,
        rhs: f64,
        mandatory: bool,
    }
    let mut planes: Vec<Plane> = Vec::new();
    for c in &problem.constraints {
        planes.push(Plane {
            coeffs: c.coeffs.clone(),
            rhs: c.rhs,
            mandatory: c.relation == Relation::Eq,
        });
    }
    for i in 0..n {
        let mut coeffs = vec![0.0; n];
        coeffs[i] = 1.0;
        planes.push(Plane {
            coeffs,
            rhs: 0.0,
            mandatory: false,
        });
    }

    let mandatory: Vec<usize> = planes
        .iter()
        .enumerate()
        .filter(|(_, p)| p.mandatory)
        .map(|(i, _)| i)
        .collect();
    assert!(
        mandatory.len() <= n,
        "more equality constraints ({}) than variables ({})",
        mandatory.len(),
        n
    );
    let optional: Vec<usize> = planes
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.mandatory)
        .map(|(i, _)| i)
        .collect();
    let need = n - mandatory.len();

    let mut best: Option<(f64, Vec<f64>)> = None;
    let maximizing = problem.is_maximization();

    for_each_combination(optional.len(), need, &mut |chosen| {
        let mut active: Vec<usize> = mandatory.clone();
        active.extend(chosen.iter().map(|&k| optional[k]));
        let a: Vec<Vec<f64>> = active.iter().map(|&i| planes[i].coeffs.clone()).collect();
        let b: Vec<f64> = active.iter().map(|&i| planes[i].rhs).collect();
        let Some(x) = solve_dense(a, b, 1e-10) else {
            return;
        };
        if !problem.is_feasible(&x, tol) {
            return;
        }
        let obj = problem.objective_value(&x);
        let better = match &best {
            None => true,
            Some((bobj, _)) => {
                if maximizing {
                    obj > *bobj
                } else {
                    obj < *bobj
                }
            }
        };
        if better {
            best = Some((obj, x));
        }
    });

    match best {
        Some((objective, point)) => OracleResult::Optimal { objective, point },
        None => OracleResult::NoVertex,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LpProblem, Relation};

    #[test]
    fn dense_solver_inverts_simple_system() {
        // x + y = 3, x - y = 1 -> (2, 1)
        let a = vec![vec![1.0, 1.0], vec![1.0, -1.0]];
        let x = solve_dense(a, vec![3.0, 1.0], 1e-12).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dense_solver_rejects_singular() {
        let a = vec![vec![1.0, 1.0], vec![2.0, 2.0]];
        assert!(solve_dense(a, vec![1.0, 2.0], 1e-12).is_none());
    }

    #[test]
    fn combination_count_is_binomial() {
        let mut count = 0usize;
        for_each_combination(5, 3, &mut |_| count += 1);
        assert_eq!(count, 10);
        count = 0;
        for_each_combination(4, 0, &mut |c| {
            assert!(c.is_empty());
            count += 1
        });
        assert_eq!(count, 1);
        count = 0;
        for_each_combination(3, 4, &mut |_| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn oracle_matches_textbook_optimum() {
        let mut p = LpProblem::maximize(&[3.0, 5.0]);
        p.subject_to(&[1.0, 0.0], Relation::Le, 4.0).unwrap();
        p.subject_to(&[0.0, 2.0], Relation::Le, 12.0).unwrap();
        p.subject_to(&[3.0, 2.0], Relation::Le, 18.0).unwrap();
        match best_vertex(&p, 1e-9) {
            OracleResult::Optimal { objective, point } => {
                assert!((objective - 36.0).abs() < 1e-9);
                assert!((point[0] - 2.0).abs() < 1e-9);
                assert!((point[1] - 6.0).abs() < 1e-9);
            }
            OracleResult::NoVertex => panic!("oracle found no vertex"),
        }
    }

    #[test]
    fn oracle_reports_infeasible_as_no_vertex() {
        let mut p = LpProblem::maximize(&[1.0]);
        p.subject_to(&[1.0], Relation::Le, 1.0).unwrap();
        p.subject_to(&[1.0], Relation::Ge, 2.0).unwrap();
        assert_eq!(best_vertex(&p, 1e-9), OracleResult::NoVertex);
    }

    #[test]
    fn oracle_handles_equalities() {
        let mut p = LpProblem::maximize(&[1.0, 2.0]);
        p.subject_to(&[1.0, 1.0], Relation::Eq, 5.0).unwrap();
        p.subject_to(&[1.0, 0.0], Relation::Le, 3.0).unwrap();
        match best_vertex(&p, 1e-9) {
            OracleResult::Optimal { objective, .. } => assert!((objective - 10.0).abs() < 1e-9),
            OracleResult::NoVertex => panic!("no vertex"),
        }
    }
}
