//! The [`Energy`] quantity (stored internally in joules).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::{Power, TimeSpan};

/// An amount of energy, stored in joules.
///
/// `Energy` is a thin `f64` newtype: `Copy`, totally ordered on finite
/// values, and supporting the usual dimensional algebra (see the
/// [crate-level docs](crate)).
///
/// # Examples
///
/// ```
/// use reap_units::Energy;
///
/// let per_activity = Energy::from_millijoules(4.48);
/// let per_hour = per_activity * (3600.0 / 1.6);
/// assert!((per_hour.joules() - 10.08).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from joules.
    #[must_use]
    pub fn from_joules(joules: f64) -> Self {
        Energy(joules)
    }

    /// Creates an energy from millijoules.
    #[must_use]
    pub fn from_millijoules(mj: f64) -> Self {
        Energy(mj * 1e-3)
    }

    /// The value in joules.
    #[must_use]
    pub fn joules(self) -> f64 {
        self.0
    }

    /// The value in millijoules.
    #[must_use]
    pub fn millijoules(self) -> f64 {
        self.0 * 1e3
    }

    /// The value in microjoules.
    #[must_use]
    pub fn microjoules(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the smaller of `self` and `other`.
    #[must_use]
    pub fn min(self, other: Energy) -> Energy {
        Energy(self.0.min(other.0))
    }

    /// Returns the larger of `self` and `other`.
    #[must_use]
    pub fn max(self, other: Energy) -> Energy {
        Energy(self.0.max(other.0))
    }

    /// Clamps `self` into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn clamp(self, lo: Energy, hi: Energy) -> Energy {
        assert!(lo.0 <= hi.0, "clamp bounds inverted: {lo} > {hi}");
        Energy(self.0.clamp(lo.0, hi.0))
    }

    /// `true` if the underlying value is finite (not NaN or infinite).
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// `true` if the value is negative.
    #[must_use]
    pub fn is_negative(self) -> bool {
        self.0 < 0.0
    }

    /// Absolute value.
    #[must_use]
    pub fn abs(self) -> Energy {
        Energy(self.0.abs())
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let abs = self.0.abs();
        if abs == 0.0 || (1e-1..1e4).contains(&abs) {
            write!(f, "{:.4} J", self.0)
        } else if abs >= 1e-4 {
            write!(f, "{:.4} mJ", self.millijoules())
        } else {
            write!(f, "{:.4} uJ", self.microjoules())
        }
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl SubAssign for Energy {
    fn sub_assign(&mut self, rhs: Energy) {
        self.0 -= rhs.0;
    }
}

impl Neg for Energy {
    type Output = Energy;
    fn neg(self) -> Energy {
        Energy(-self.0)
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Mul<Energy> for f64 {
    type Output = Energy;
    fn mul(self, rhs: Energy) -> Energy {
        Energy(self * rhs.0)
    }
}

impl Div<f64> for Energy {
    type Output = Energy;
    fn div(self, rhs: f64) -> Energy {
        Energy(self.0 / rhs)
    }
}

/// Dimensionless ratio of two energies.
impl Div<Energy> for Energy {
    type Output = f64;
    fn div(self, rhs: Energy) -> f64 {
        self.0 / rhs.0
    }
}

/// Energy spread over a time span is a power.
impl Div<TimeSpan> for Energy {
    type Output = Power;
    fn div(self, rhs: TimeSpan) -> Power {
        Power::from_watts(self.0 / rhs.seconds())
    }
}

/// How long a power draw can be sustained by this energy.
impl Div<Power> for Energy {
    type Output = TimeSpan;
    fn div(self, rhs: Power) -> TimeSpan {
        TimeSpan::from_seconds(self.0 / rhs.watts())
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Energy> for Energy {
    fn sum<I: Iterator<Item = &'a Energy>>(iter: I) -> Energy {
        iter.copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_getters_are_consistent() {
        let e = Energy::from_millijoules(1500.0);
        assert!((e.joules() - 1.5).abs() < 1e-12);
        assert!((e.microjoules() - 1.5e6).abs() < 1e-3);
        assert_eq!(Energy::from_joules(0.0), Energy::ZERO);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Energy::from_joules(2.0);
        let b = Energy::from_joules(0.5);
        assert_eq!((a + b).joules(), 2.5);
        assert_eq!((a - b).joules(), 1.5);
        assert_eq!((a * 2.0).joules(), 4.0);
        assert_eq!((2.0 * a).joules(), 4.0);
        assert_eq!((a / 4.0).joules(), 0.5);
        assert_eq!(a / b, 4.0);
        assert_eq!((-a).joules(), -2.0);
    }

    #[test]
    fn add_assign_and_sum() {
        let mut acc = Energy::ZERO;
        acc += Energy::from_joules(1.0);
        acc += Energy::from_joules(2.0);
        assert_eq!(acc.joules(), 3.0);
        let total: Energy = [Energy::from_joules(1.0); 5].iter().sum();
        assert_eq!(total.joules(), 5.0);
    }

    #[test]
    fn division_by_time_gives_power() {
        let p = Energy::from_joules(3.6) / TimeSpan::from_hours(1.0);
        assert!((p.milliwatts() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn division_by_power_gives_time() {
        let t = Energy::from_joules(9.936) / Power::from_milliwatts(2.76);
        assert!((t.seconds() - 3600.0).abs() < 1e-9);
    }

    #[test]
    fn min_max_clamp() {
        let a = Energy::from_joules(1.0);
        let b = Energy::from_joules(2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Energy::from_joules(5.0).clamp(a, b), b);
        assert_eq!(Energy::from_joules(-5.0).clamp(a, b), a);
    }

    #[test]
    #[should_panic(expected = "clamp bounds inverted")]
    fn clamp_panics_on_inverted_bounds() {
        let _ = Energy::ZERO.clamp(Energy::from_joules(2.0), Energy::from_joules(1.0));
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", Energy::from_joules(5.0)), "5.0000 J");
        assert_eq!(format!("{}", Energy::from_millijoules(4.48)), "4.4800 mJ");
        assert_eq!(format!("{}", Energy::from_joules(12e-6)), "12.0000 uJ");
    }

    #[test]
    fn predicates() {
        assert!(Energy::from_joules(-1.0).is_negative());
        assert!(!Energy::ZERO.is_negative());
        assert!(Energy::from_joules(1.0).is_finite());
        assert!(!Energy::from_joules(f64::NAN).is_finite());
        assert_eq!(Energy::from_joules(-2.0).abs().joules(), 2.0);
    }
}
