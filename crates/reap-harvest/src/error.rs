//! Error type for the harvesting substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by the harvesting substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HarvestError {
    /// A parameter was out of range (message explains which).
    InvalidParameter(String),
}

impl fmt::Display for HarvestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarvestError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl Error for HarvestError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(HarvestError::InvalidParameter("x".into())
            .to_string()
            .contains('x'));
    }
}
