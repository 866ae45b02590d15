//! Error type for LP construction and solving.

use std::error::Error;
use std::fmt;

/// Errors produced while building or solving a linear program.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LpError {
    /// A constraint's coefficient vector length differs from the number of
    /// decision variables in the objective.
    DimensionMismatch {
        /// Number of decision variables the problem was created with.
        expected: usize,
        /// Length of the offending coefficient slice.
        got: usize,
    },
    /// A constraint term's column was not below the number of decision
    /// variables, or did not come after the previous term's column.
    InvalidColumn {
        /// The offending column index.
        column: usize,
    },
    /// The objective vector was empty: a problem needs at least one variable.
    EmptyObjective,
    /// A coefficient, bound, or right-hand side was NaN or infinite.
    NonFiniteInput,
    /// The simplex iteration limit was reached before convergence.
    IterationLimit {
        /// The limit that was hit.
        limit: usize,
    },
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::DimensionMismatch { expected, got } => write!(
                f,
                "constraint has {got} coefficients but the problem has {expected} variables"
            ),
            LpError::InvalidColumn { column } => write!(
                f,
                "constraint term column {column} is out of range or not strictly ascending"
            ),
            LpError::EmptyObjective => write!(f, "objective must have at least one variable"),
            LpError::NonFiniteInput => write!(f, "input contained a NaN or infinite value"),
            LpError::IterationLimit { limit } => {
                write!(f, "simplex did not converge within {limit} iterations")
            }
        }
    }
}

impl Error for LpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = LpError::DimensionMismatch {
            expected: 3,
            got: 2,
        };
        assert_eq!(
            e.to_string(),
            "constraint has 2 coefficients but the problem has 3 variables"
        );
        assert!(LpError::InvalidColumn { column: 9 }
            .to_string()
            .contains("column 9"));
        assert!(LpError::EmptyObjective.to_string().contains("objective"));
        assert!(LpError::NonFiniteInput.to_string().contains("NaN"));
        assert!(LpError::IterationLimit { limit: 7 }
            .to_string()
            .contains('7'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LpError>();
    }
}
