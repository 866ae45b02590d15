//! Statistical signal features.
//!
//! The low-energy design points of the REAP paper replace spectral features
//! with "statistics of the acceleration" — mean, standard deviation, and
//! similar scalars that an MCU computes in a single pass. This module
//! provides those kernels plus a [`Summary`] convenience that computes all
//! of them at once (single pass where possible).

use crate::DspError;

/// Arithmetic mean.
///
/// # Errors
///
/// [`DspError::EmptyInput`] if the slice is empty.
pub fn mean(x: &[f64]) -> Result<f64, DspError> {
    if x.is_empty() {
        return Err(DspError::EmptyInput);
    }
    Ok(x.iter().sum::<f64>() / x.len() as f64)
}

/// Population variance (divides by `n`), computed with Welford's
/// numerically stable one-pass update.
///
/// # Errors
///
/// [`DspError::EmptyInput`] if the slice is empty.
pub fn variance(x: &[f64]) -> Result<f64, DspError> {
    if x.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let mut m = 0.0;
    let mut m2 = 0.0;
    for (i, &v) in x.iter().enumerate() {
        let delta = v - m;
        m += delta / (i + 1) as f64;
        m2 += delta * (v - m);
    }
    Ok(m2 / x.len() as f64)
}

/// Population standard deviation.
///
/// # Errors
///
/// [`DspError::EmptyInput`] if the slice is empty.
pub fn std_dev(x: &[f64]) -> Result<f64, DspError> {
    variance(x).map(f64::sqrt)
}

/// Root-mean-square value.
///
/// # Errors
///
/// [`DspError::EmptyInput`] if the slice is empty.
pub fn rms(x: &[f64]) -> Result<f64, DspError> {
    if x.is_empty() {
        return Err(DspError::EmptyInput);
    }
    Ok((x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt())
}

/// Minimum value.
///
/// # Errors
///
/// [`DspError::EmptyInput`] if the slice is empty.
pub fn min(x: &[f64]) -> Result<f64, DspError> {
    if x.is_empty() {
        return Err(DspError::EmptyInput);
    }
    Ok(x.iter().copied().fold(f64::INFINITY, f64::min))
}

/// Maximum value.
///
/// # Errors
///
/// [`DspError::EmptyInput`] if the slice is empty.
pub fn max(x: &[f64]) -> Result<f64, DspError> {
    if x.is_empty() {
        return Err(DspError::EmptyInput);
    }
    Ok(x.iter().copied().fold(f64::NEG_INFINITY, f64::max))
}

/// Number of crossings of the signal's mean.
///
/// A cheap proxy for dominant frequency: a periodic signal of `f` Hz
/// sampled for `T` seconds crosses its mean about `2 f T` times.
///
/// # Errors
///
/// [`DspError::TooShort`] if the slice has fewer than 2 samples.
pub fn mean_crossings(x: &[f64]) -> Result<usize, DspError> {
    if x.len() < 2 {
        return Err(DspError::TooShort {
            len: x.len(),
            min: 2,
        });
    }
    let m = mean(x)?;
    let mut count = 0;
    for w in x.windows(2) {
        if (w[0] - m) * (w[1] - m) < 0.0 {
            count += 1;
        }
    }
    Ok(count)
}

/// A bundle of the statistical features used by the HAR design points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// Root-mean-square value.
    pub rms: f64,
    /// Crossings of the mean (cadence proxy).
    pub mean_crossings: usize,
}

impl Summary {
    /// Computes all summary statistics of a window.
    ///
    /// # Errors
    ///
    /// [`DspError::TooShort`] if the window has fewer than 2 samples.
    pub fn of(x: &[f64]) -> Result<Summary, DspError> {
        if x.len() < 2 {
            return Err(DspError::TooShort {
                len: x.len(),
                min: 2,
            });
        }
        Ok(Summary {
            mean: mean(x)?,
            std_dev: std_dev(x)?,
            min: min(x)?,
            max: max(x)?,
            rms: rms(x)?,
            mean_crossings: mean_crossings(x)?,
        })
    }

    /// The summary as a fixed-order feature slice
    /// `[mean, std, min, max, rms, crossings]`.
    #[must_use]
    pub fn to_features(&self) -> [f64; 6] {
        [
            self.mean,
            self.std_dev,
            self.min,
            self.max,
            self.rms,
            self.mean_crossings as f64,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-10, "{a} != {b}");
    }

    #[test]
    fn empty_inputs_are_rejected() {
        assert_eq!(mean(&[]), Err(DspError::EmptyInput));
        assert_eq!(variance(&[]), Err(DspError::EmptyInput));
        assert_eq!(rms(&[]), Err(DspError::EmptyInput));
        assert_eq!(min(&[]), Err(DspError::EmptyInput));
        assert_eq!(max(&[]), Err(DspError::EmptyInput));
    }

    #[test]
    fn mean_and_variance_of_known_data() {
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_close(mean(&x).unwrap(), 5.0);
        assert_close(variance(&x).unwrap(), 4.0);
        assert_close(std_dev(&x).unwrap(), 2.0);
    }

    #[test]
    fn welford_matches_two_pass_on_offset_data() {
        // Large offset stresses the naive formula; Welford must stay exact.
        let x: Vec<f64> = (0..1000).map(|i| 1e9 + (i % 7) as f64).collect();
        let m = mean(&x).unwrap();
        let two_pass = x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64;
        assert!((variance(&x).unwrap() - two_pass).abs() < 1e-6);
    }

    #[test]
    fn minmax_range() {
        let x = [3.0, -1.0, 4.0, 1.0, 5.0];
        assert_close(min(&x).unwrap(), -1.0);
        assert_close(max(&x).unwrap(), 5.0);
    }

    #[test]
    fn rms_of_sine_is_amplitude_over_sqrt2() {
        let x: Vec<f64> = (0..1000)
            .map(|i| 3.0 * (2.0 * std::f64::consts::PI * i as f64 / 100.0).sin())
            .collect();
        assert!((rms(&x).unwrap() - 3.0 / std::f64::consts::SQRT_2).abs() < 1e-3);
    }

    #[test]
    fn crossings_count_cadence() {
        // 2 Hz sine sampled at 100 Hz for 1.6 s -> about 2*2*1.6 ≈ 6 crossings.
        let x: Vec<f64> = (0..160)
            .map(|i| (2.0 * std::f64::consts::PI * 2.0 * i as f64 / 100.0).sin())
            .collect();
        let c = mean_crossings(&x).unwrap();
        assert!((5..=7).contains(&c), "crossings = {c}");
    }

    #[test]
    fn summary_bundles_features() {
        let x = [0.0, 2.0, 0.0, 2.0];
        let s = Summary::of(&x).unwrap();
        assert_close(s.mean, 1.0);
        assert_close(s.std_dev, 1.0);
        assert_close(s.min, 0.0);
        assert_close(s.max, 2.0);
        assert_eq!(s.mean_crossings, 3);
        let f = s.to_features();
        assert_eq!(f.len(), 6);
        assert_close(f[0], 1.0);
        assert_close(f[5], 3.0);
    }

    #[test]
    fn summary_rejects_single_sample() {
        assert!(Summary::of(&[1.0]).is_err());
    }
}
