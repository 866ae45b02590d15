//! Radix-2 iterative fast Fourier transform.
//!
//! The stretch-sensor feature in every REAP design point is a 16-point FFT,
//! so this module provides a general power-of-two FFT plus convenience
//! helpers for real inputs and magnitude spectra.

use crate::DspError;

/// A complex number with `f64` parts.
///
/// Deliberately minimal: just what the FFT butterfly needs. Implements the
/// usual component-wise arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Complex zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// Creates a complex number from real and imaginary parts.
    #[must_use]
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a complex number from a real value.
    #[must_use]
    pub fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// `e^{i theta}` on the unit circle.
    #[must_use]
    pub fn from_polar_unit(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Magnitude `sqrt(re^2 + im^2)`.
    #[must_use]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl std::ops::Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

/// In-place iterative radix-2 decimation-in-time FFT.
///
/// `inverse = false` computes the forward DFT
/// `X[k] = sum_n x[n] e^{-2 pi i k n / N}`; `inverse = true` computes the
/// inverse including the `1/N` normalization.
///
/// # Errors
///
/// Returns [`DspError::NotPowerOfTwo`] unless `buf.len()` is a power of two,
/// and [`DspError::EmptyInput`] for an empty buffer.
pub fn fft_in_place(buf: &mut [Complex], inverse: bool) -> Result<(), DspError> {
    let n = buf.len();
    if n == 0 {
        return Err(DspError::EmptyInput);
    }
    if !n.is_power_of_two() {
        return Err(DspError::NotPowerOfTwo { len: n });
    }
    if n == 1 {
        return Ok(());
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if j > i {
            buf.swap(i, j);
        }
    }

    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::from_polar_unit(ang);
        let mut start = 0;
        while start < n {
            let mut w = Complex::from_real(1.0);
            for k in 0..len / 2 {
                let a = buf[start + k];
                let b = buf[start + k + len / 2] * w;
                buf[start + k] = a + b;
                buf[start + k + len / 2] = a - b;
                w = w * wlen;
            }
            start += len;
        }
        len <<= 1;
    }

    if inverse {
        let scale = 1.0 / n as f64;
        for v in buf.iter_mut() {
            *v = *v * scale;
        }
    }
    Ok(())
}

/// Forward FFT of a real signal.
///
/// # Errors
///
/// Same conditions as [`fft_in_place`].
pub fn fft_real(signal: &[f64]) -> Result<Vec<Complex>, DspError> {
    let mut buf: Vec<Complex> = signal.iter().map(|&x| Complex::from_real(x)).collect();
    fft_in_place(&mut buf, false)?;
    Ok(buf)
}

/// Magnitude spectrum of a real signal: `|X[k]|` for the `N/2 + 1`
/// non-redundant bins (DC through Nyquist).
///
/// This is the feature vector the REAP design points compute from the
/// stretch sensor (a 16-point FFT yields 9 magnitudes).
///
/// # Errors
///
/// Same conditions as [`fft_in_place`].
pub fn fft_magnitudes(signal: &[f64]) -> Result<Vec<f64>, DspError> {
    let spectrum = fft_real(signal)?;
    let n = spectrum.len();
    Ok(spectrum[..=n / 2].iter().map(|c| c.abs()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Index of the dominant non-DC bin of a real signal's spectrum.
    ///
    /// Useful for locating the cadence peak of gait signals.
    ///
    /// # Errors
    ///
    /// Same conditions as [`fft_in_place`], plus [`DspError::TooShort`] when the
    /// signal has fewer than 4 samples (no non-DC bin to speak of).
    fn dominant_bin(signal: &[f64]) -> Result<usize, DspError> {
        if signal.len() < 4 {
            return Err(DspError::TooShort {
                len: signal.len(),
                min: 4,
            });
        }
        let mags = fft_magnitudes(signal)?;
        let mut best = 1;
        for (k, &m) in mags.iter().enumerate().skip(1) {
            if m > mags[best] {
                best = k;
            }
        }
        Ok(best)
    }

    const TAU: f64 = 2.0 * std::f64::consts::PI;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn rejects_bad_lengths() {
        let mut empty: Vec<Complex> = vec![];
        assert_eq!(fft_in_place(&mut empty, false), Err(DspError::EmptyInput));
        let mut three = vec![Complex::ZERO; 3];
        assert_eq!(
            fft_in_place(&mut three, false),
            Err(DspError::NotPowerOfTwo { len: 3 })
        );
    }

    #[test]
    fn single_sample_is_identity() {
        let mut one = vec![Complex::new(2.5, -1.0)];
        fft_in_place(&mut one, false).unwrap();
        assert_eq!(one[0], Complex::new(2.5, -1.0));
    }

    #[test]
    fn dc_signal_concentrates_in_bin_zero() {
        let x = vec![3.0; 16];
        let spec = fft_real(&x).unwrap();
        assert_close(spec[0].re, 48.0, 1e-9);
        for c in &spec[1..] {
            assert_close(c.abs(), 0.0, 1e-9);
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![0.0; 8];
        x[0] = 1.0;
        let spec = fft_real(&x).unwrap();
        for c in &spec {
            assert_close(c.abs(), 1.0, 1e-12);
        }
    }

    #[test]
    fn pure_tone_lands_in_its_bin() {
        let n = 16;
        let k = 3;
        let x: Vec<f64> = (0..n)
            .map(|i| (TAU * k as f64 * i as f64 / n as f64).sin())
            .collect();
        let mags = fft_magnitudes(&x).unwrap();
        assert_eq!(mags.len(), 9);
        // sin tone of amplitude 1 -> |X[k]| = N/2.
        assert_close(mags[k], n as f64 / 2.0, 1e-9);
        for (i, &m) in mags.iter().enumerate() {
            if i != k {
                assert_close(m, 0.0, 1e-9);
            }
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let x: Vec<f64> = (0..64).map(|i| ((i * 7 + 3) % 13) as f64 - 6.0).collect();
        let mut buf: Vec<Complex> = x.iter().map(|&v| Complex::from_real(v)).collect();
        fft_in_place(&mut buf, false).unwrap();
        fft_in_place(&mut buf, true).unwrap();
        for (orig, c) in x.iter().zip(&buf) {
            assert_close(c.re, *orig, 1e-9);
            assert_close(c.im, 0.0, 1e-9);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let x: Vec<f64> = (0..32)
            .map(|i| (i as f64 * 0.37).sin() * 2.0 + 0.5)
            .collect();
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        let spec = fft_real(&x).unwrap();
        let freq_energy: f64 =
            spec.iter().map(|c| c.re * c.re + c.im * c.im).sum::<f64>() / x.len() as f64;
        assert_close(time_energy, freq_energy, 1e-9);
    }

    #[test]
    fn linearity_of_the_transform() {
        let a: Vec<f64> = (0..16).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..16).map(|i| (i as f64 * 0.5).cos()).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| 2.0 * x + 3.0 * y).collect();
        let fa = fft_real(&a).unwrap();
        let fb = fft_real(&b).unwrap();
        let fsum = fft_real(&sum).unwrap();
        for k in 0..16 {
            let expect = fa[k] * 2.0 + fb[k] * 3.0;
            assert_close(fsum[k].re, expect.re, 1e-9);
            assert_close(fsum[k].im, expect.im, 1e-9);
        }
    }

    #[test]
    fn dominant_bin_finds_cadence() {
        // 2 Hz walking cadence sampled at 10 Hz over 1.6 s (16 samples):
        // bin = 2 Hz * 16 / 10 Hz = 3.2 -> nearest bin 3.
        let n = 16;
        let fs = 10.0;
        let x: Vec<f64> = (0..n).map(|i| (TAU * 2.0 * i as f64 / fs).sin()).collect();
        let bin = dominant_bin(&x).unwrap();
        assert_eq!(bin, 3);
    }

    #[test]
    fn dominant_bin_rejects_short_input() {
        assert_eq!(
            dominant_bin(&[1.0, 2.0]),
            Err(DspError::TooShort { len: 2, min: 4 })
        );
    }

    #[test]
    fn complex_helpers() {
        let c = Complex::new(3.0, 4.0);
        assert_close(c.abs(), 5.0, 1e-12);
        let u = Complex::from_polar_unit(std::f64::consts::FRAC_PI_2);
        assert_close(u.re, 0.0, 1e-12);
        assert_close(u.im, 1.0, 1e-12);
    }
}
