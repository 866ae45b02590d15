//! Operating points: the optimizer's view of a design point.

use std::fmt;

use reap_units::Power;

use crate::ReapError;

/// One design point as seen by the optimizer: an accuracy and a power draw.
///
/// The full pipeline configuration behind a point lives in the `reap-har`
/// and `reap-device` crates; the optimizer deliberately depends only on the
/// `(a_i, P_i)` pair (plus an id and label for reporting), mirroring the
/// paper's formulation.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    id: u8,
    label: String,
    accuracy: f64,
    power: Power,
}

impl OperatingPoint {
    /// Creates an operating point.
    ///
    /// # Errors
    ///
    /// [`ReapError::InvalidParameter`] when the accuracy is outside
    /// `[0, 1]` or the power is non-positive or non-finite.
    pub fn new(
        id: u8,
        label: impl Into<String>,
        accuracy: f64,
        power: Power,
    ) -> Result<OperatingPoint, ReapError> {
        if !accuracy.is_finite() || !(0.0..=1.0).contains(&accuracy) {
            return Err(ReapError::InvalidParameter(format!(
                "accuracy {accuracy} outside [0, 1]"
            )));
        }
        if !power.is_finite() || power.watts() <= 0.0 {
            return Err(ReapError::InvalidParameter(format!(
                "power {power} must be positive"
            )));
        }
        Ok(OperatingPoint {
            id,
            label: label.into(),
            accuracy,
            power,
        })
    }

    /// Identifier (e.g. `1` for DP1).
    #[must_use]
    pub fn id(&self) -> u8 {
        self.id
    }

    /// Human-readable name.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
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
            "{} (id {}): {:.1}% @ {}",
            self.label,
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
    fn construction_validates() {
        assert!(OperatingPoint::new(1, "DP1", 0.94, Power::from_milliwatts(2.76)).is_ok());
        assert!(OperatingPoint::new(1, "bad", 1.1, Power::from_milliwatts(1.0)).is_err());
        assert!(OperatingPoint::new(1, "bad", -0.1, Power::from_milliwatts(1.0)).is_err());
        assert!(OperatingPoint::new(1, "bad", f64::NAN, Power::from_milliwatts(1.0)).is_err());
        assert!(OperatingPoint::new(1, "bad", 0.5, Power::ZERO).is_err());
        assert!(OperatingPoint::new(1, "bad", 0.5, Power::from_watts(-1.0)).is_err());
    }

    #[test]
    fn weight_honours_alpha_conventions() {
        let p = OperatingPoint::new(1, "DP", 0.9, Power::from_milliwatts(1.0)).unwrap();
        assert_eq!(p.weight(0.0), 1.0);
        assert!((p.weight(1.0) - 0.9).abs() < 1e-12);
        assert!((p.weight(2.0) - 0.81).abs() < 1e-12);
        // Zero accuracy with alpha = 0 still counts as active time.
        let z = OperatingPoint::new(2, "Z", 0.0, Power::from_milliwatts(1.0)).unwrap();
        assert_eq!(z.weight(0.0), 1.0);
        assert_eq!(z.weight(2.0), 0.0);
    }

    #[test]
    fn accessors_and_display() {
        let p = OperatingPoint::new(3, "DP3", 0.92, Power::from_milliwatts(1.82)).unwrap();
        assert_eq!(p.id(), 3);
        assert_eq!(p.label(), "DP3");
        assert!((p.accuracy() - 0.92).abs() < 1e-12);
        assert!(p.to_string().contains("DP3"));
        assert!(p.to_string().contains("92.0%"));
    }
}
