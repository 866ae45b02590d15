//! Error type for the simulator.

use std::error::Error;
use std::fmt;

use reap_core::ReapError;
use reap_harvest::HarvestError;

/// Errors produced while configuring or running a simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A scenario parameter was invalid.
    InvalidParameter(String),
    /// The optimizer failed.
    Core(ReapError),
    /// The harvesting substrate rejected its inputs.
    Harvest(HarvestError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidParameter(msg) => write!(f, "invalid scenario parameter: {msg}"),
            SimError::Core(e) => write!(f, "optimizer failed: {e}"),
            SimError::Harvest(e) => write!(f, "harvesting substrate failed: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Core(e) => Some(e),
            SimError::Harvest(e) => Some(e),
            SimError::InvalidParameter(_) => None,
        }
    }
}

#[doc(hidden)]
impl From<ReapError> for SimError {
    fn from(e: ReapError) -> Self {
        SimError::Core(e)
    }
}

#[doc(hidden)]
impl From<HarvestError> for SimError {
    fn from(e: HarvestError) -> Self {
        SimError::Harvest(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SimError::from(ReapError::NoPoints);
        assert!(e.to_string().contains("optimizer"));
        assert!(Error::source(&e).is_some());
        let h = SimError::from(HarvestError::InvalidParameter("x".into()));
        assert!(Error::source(&h).is_some());
        assert!(SimError::InvalidParameter("p".into())
            .to_string()
            .contains('p'));
    }
}
