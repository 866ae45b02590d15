//! Operating points: the optimizer's view of a design point.

use std::fmt;

use reap_units::Power;

/// One design point as seen by the optimizer: an id, an accuracy and a
/// power draw.
///
/// The full pipeline configuration behind a point lives in the `reap-har`
/// and `reap-device` crates; the optimizer deliberately depends only on the
/// `(a_i, P_i)` pair (plus an id for reporting), mirroring the paper's
/// formulation. A point is plain data: [`ReapProblemBuilder::build`]
/// validates it, as it validates every other input of a problem.
///
/// [`ReapProblemBuilder::build`]: crate::ReapProblemBuilder::build
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    id: u8,
    accuracy: f64,
    power: Power,
}

impl OperatingPoint {
    /// The point `id` with `accuracy` (in `[0, 1]`) drawing `power`
    /// (positive and finite) while active. Unchecked:
    /// [`ReapProblemBuilder::build`](crate::ReapProblemBuilder::build)
    /// rejects a point outside those ranges.
    #[must_use]
    pub fn new(id: u8, accuracy: f64, power: Power) -> OperatingPoint {
        OperatingPoint {
            id,
            accuracy,
            power,
        }
    }

    /// Identifier (e.g. `1` for DP1).
    #[must_use]
    pub fn id(&self) -> u8 {
        self.id
    }

    /// Recognition accuracy in `[0, 1]`.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        self.accuracy
    }

    /// Average power draw while this point is active.
    #[must_use]
    pub fn power(&self) -> Power {
        self.power
    }

    /// The objective weight `a^alpha` of this point (Eq. 1 of the paper).
    ///
    /// By convention `0^0 = 1` so that `alpha = 0` turns the objective into
    /// pure active time for every point.
    #[must_use]
    pub fn weight(&self, alpha: f64) -> f64 {
        weight(self.accuracy, alpha)
    }
}

/// The objective weight `a^alpha` of a point with `accuracy`, with
/// `0^0 = 1` (see [`OperatingPoint::weight`]).
pub(crate) fn weight(accuracy: f64, alpha: f64) -> f64 {
    if alpha == 0.0 {
        1.0
    } else {
        accuracy.powf(alpha)
    }
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DP{}: {:.1}% @ {}",
            self.id,
            self.accuracy * 100.0,
            self.power
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_honours_alpha_conventions() {
        let p = OperatingPoint::new(1, 0.9, Power::from_milliwatts(1.0));
        assert_eq!(p.weight(0.0), 1.0);
        assert!((p.weight(1.0) - 0.9).abs() < 1e-12);
        assert!((p.weight(2.0) - 0.81).abs() < 1e-12);
        // Zero accuracy with alpha = 0 still counts as active time.
        let z = OperatingPoint::new(2, 0.0, Power::from_milliwatts(1.0));
        assert_eq!(z.weight(0.0), 1.0);
        assert_eq!(z.weight(2.0), 0.0);
    }

    #[test]
    fn accessors_and_display() {
        let p = OperatingPoint::new(3, 0.92, Power::from_milliwatts(1.82));
        assert_eq!(p.id(), 3);
        assert!((p.accuracy() - 0.92).abs() < 1e-12);
        assert!(p.to_string().contains("DP3"));
        assert!(p.to_string().contains("92.0%"));
    }
}
