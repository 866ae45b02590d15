//! The [`TimeSpan`] quantity (stored internally in seconds).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::{Energy, Power};

/// A span of time, stored in seconds.
///
/// REAP plans allocations over an *activity period* `TP` of one hour and
/// activity windows of 1.6 s, so both hour- and millisecond-level
/// constructors are provided.
///
/// # Examples
///
/// ```
/// use reap_units::TimeSpan;
///
/// let tp = TimeSpan::from_hours(1.0);
/// let window = TimeSpan::from_seconds(1.6);
/// let windows_per_period = tp / window;
/// assert_eq!(windows_per_period, 2250.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct TimeSpan(f64);

impl TimeSpan {
    /// Zero duration.
    pub const ZERO: TimeSpan = TimeSpan(0.0);

    /// Creates a time span from seconds.
    #[must_use]
    pub fn from_seconds(seconds: f64) -> Self {
        TimeSpan(seconds)
    }

    /// Creates a time span from milliseconds.
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        TimeSpan(ms * 1e-3)
    }

    /// Creates a time span from hours.
    #[must_use]
    pub fn from_hours(hours: f64) -> Self {
        TimeSpan(hours * 3600.0)
    }

    /// The value in seconds.
    #[must_use]
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// The value in milliseconds.
    #[must_use]
    pub fn millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The value in minutes.
    #[must_use]
    pub fn minutes(self) -> f64 {
        self.0 / 60.0
    }

    /// The value in hours.
    #[must_use]
    pub fn hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// Returns the smaller of `self` and `other`.
    #[must_use]
    pub fn min(self, other: TimeSpan) -> TimeSpan {
        TimeSpan(self.0.min(other.0))
    }

    /// Returns the larger of `self` and `other`.
    #[must_use]
    pub fn max(self, other: TimeSpan) -> TimeSpan {
        TimeSpan(self.0.max(other.0))
    }

    /// Clamps `self` into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn clamp(self, lo: TimeSpan, hi: TimeSpan) -> TimeSpan {
        assert!(lo.0 <= hi.0, "clamp bounds inverted: {lo} > {hi}");
        TimeSpan(self.0.clamp(lo.0, hi.0))
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
}

impl fmt::Display for TimeSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let abs = self.0.abs();
        if abs >= 3600.0 {
            write!(f, "{:.3} h", self.hours())
        } else if abs >= 60.0 {
            write!(f, "{:.3} min", self.minutes())
        } else if abs == 0.0 || abs >= 1.0 {
            write!(f, "{:.3} s", self.0)
        } else {
            write!(f, "{:.3} ms", self.millis())
        }
    }
}

impl Add for TimeSpan {
    type Output = TimeSpan;
    fn add(self, rhs: TimeSpan) -> TimeSpan {
        TimeSpan(self.0 + rhs.0)
    }
}

impl AddAssign for TimeSpan {
    fn add_assign(&mut self, rhs: TimeSpan) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeSpan {
    type Output = TimeSpan;
    fn sub(self, rhs: TimeSpan) -> TimeSpan {
        TimeSpan(self.0 - rhs.0)
    }
}

impl SubAssign for TimeSpan {
    fn sub_assign(&mut self, rhs: TimeSpan) {
        self.0 -= rhs.0;
    }
}

impl Neg for TimeSpan {
    type Output = TimeSpan;
    fn neg(self) -> TimeSpan {
        TimeSpan(-self.0)
    }
}

impl Mul<f64> for TimeSpan {
    type Output = TimeSpan;
    fn mul(self, rhs: f64) -> TimeSpan {
        TimeSpan(self.0 * rhs)
    }
}

impl Mul<TimeSpan> for f64 {
    type Output = TimeSpan;
    fn mul(self, rhs: TimeSpan) -> TimeSpan {
        TimeSpan(self * rhs.0)
    }
}

impl Div<f64> for TimeSpan {
    type Output = TimeSpan;
    fn div(self, rhs: f64) -> TimeSpan {
        TimeSpan(self.0 / rhs)
    }
}

/// Dimensionless ratio of two time spans.
impl Div<TimeSpan> for TimeSpan {
    type Output = f64;
    fn div(self, rhs: TimeSpan) -> f64 {
        self.0 / rhs.0
    }
}

/// Time sustained at a power yields an energy.
impl Mul<Power> for TimeSpan {
    type Output = Energy;
    fn mul(self, rhs: Power) -> Energy {
        Energy::from_joules(self.0 * rhs.watts())
    }
}

impl Sum for TimeSpan {
    fn sum<I: Iterator<Item = TimeSpan>>(iter: I) -> TimeSpan {
        iter.fold(TimeSpan::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a TimeSpan> for TimeSpan {
    fn sum<I: Iterator<Item = &'a TimeSpan>>(iter: I) -> TimeSpan {
        iter.copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_getters_are_consistent() {
        assert_eq!(TimeSpan::from_hours(1.0).seconds(), 3600.0);
        assert_eq!(TimeSpan::from_millis(1600.0).seconds(), 1.6);
        assert_eq!(TimeSpan::from_seconds(7200.0).hours(), 2.0);
        assert_eq!(TimeSpan::from_seconds(90.0).minutes(), 1.5);
        assert_eq!(TimeSpan::from_seconds(0.25).millis(), 250.0);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = TimeSpan::from_seconds(10.0);
        let b = TimeSpan::from_seconds(4.0);
        assert_eq!((a + b).seconds(), 14.0);
        assert_eq!((a - b).seconds(), 6.0);
        assert_eq!((a * 0.5).seconds(), 5.0);
        assert_eq!((0.5 * a).seconds(), 5.0);
        assert_eq!((a / 2.0).seconds(), 5.0);
        assert_eq!(a / b, 2.5);
        assert_eq!((-b).seconds(), -4.0);
    }

    #[test]
    fn time_times_power_is_energy() {
        let e = TimeSpan::from_hours(1.0) * Power::from_microwatts(50.0);
        assert!((e.joules() - 0.18).abs() < 1e-12);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", TimeSpan::from_hours(1.5)), "1.500 h");
        assert_eq!(format!("{}", TimeSpan::from_seconds(90.0)), "1.500 min");
        assert_eq!(format!("{}", TimeSpan::from_seconds(1.6)), "1.600 s");
        assert_eq!(format!("{}", TimeSpan::from_millis(5.71)), "5.710 ms");
    }

    #[test]
    fn min_max_clamp_sum() {
        let a = TimeSpan::from_seconds(1.0);
        let b = TimeSpan::from_seconds(2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(TimeSpan::from_seconds(9.0).clamp(a, b), b);
        let total: TimeSpan = [a, b].iter().sum();
        assert_eq!(total.seconds(), 3.0);
    }
}
