//! Window functions and spectral-shape features.
//!
//! Rectangular windows leak badly when a gait tone falls between FFT bins;
//! a Hann window trades a little resolution for much lower sidelobes. The
//! spectral centroid/entropy summarize where a window's energy lives — the
//! kind of one-number features an MCU design point can afford.

use crate::fft;
use crate::DspError;

/// Multiplies `signal` by a Hann window in place.
fn hann_in_place(signal: &mut [f64]) {
    let n = signal.len();
    if n <= 1 {
        return;
    }
    for (i, x) in signal.iter_mut().enumerate() {
        let w = 0.5 - 0.5 * (2.0 * std::f64::consts::PI * i as f64 / (n - 1) as f64).cos();
        *x *= w;
    }
}

/// Returns a Hann-windowed copy of `signal`.
#[must_use]
fn hann(signal: &[f64]) -> Vec<f64> {
    let mut out = signal.to_vec();
    hann_in_place(&mut out);
    out
}

/// Spectral centroid of a real signal in *bin* units (0 = DC,
/// `n/2` = Nyquist), excluding the DC bin so constant offsets do not
/// dominate.
///
/// # Errors
///
/// Propagates FFT errors; additionally [`DspError::TooShort`] for signals
/// with fewer than 4 samples.
fn spectral_centroid(signal: &[f64]) -> Result<f64, DspError> {
    if signal.len() < 4 {
        return Err(DspError::TooShort {
            len: signal.len(),
            min: 4,
        });
    }
    let mags = fft::fft_magnitudes(signal)?;
    let mut num = 0.0;
    let mut den = 0.0;
    for (k, &m) in mags.iter().enumerate().skip(1) {
        num += k as f64 * m;
        den += m;
    }
    if den <= 0.0 {
        // A perfectly DC signal has no AC centroid; report the lowest bin.
        return Ok(1.0);
    }
    Ok(num / den)
}

/// Normalized spectral entropy in `[0, 1]` over the non-DC bins: 0 for a
/// pure tone, 1 for a flat (white) spectrum.
///
/// # Errors
///
/// Same conditions as [`spectral_centroid`].
fn spectral_entropy(signal: &[f64]) -> Result<f64, DspError> {
    if signal.len() < 4 {
        return Err(DspError::TooShort {
            len: signal.len(),
            min: 4,
        });
    }
    let mags = fft::fft_magnitudes(signal)?;
    let powers: Vec<f64> = mags.iter().skip(1).map(|m| m * m).collect();
    let total: f64 = powers.iter().sum();
    if total <= 0.0 {
        return Ok(0.0);
    }
    let mut entropy = 0.0;
    for p in &powers {
        let q = p / total;
        if q > 0.0 {
            entropy -= q * q.ln();
        }
    }
    Ok(entropy / (powers.len() as f64).ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAU: f64 = 2.0 * std::f64::consts::PI;

    #[test]
    fn hann_endpoints_are_zero_and_peak_is_centered() {
        let w = hann(&vec![1.0; 33]);
        assert!(w[0].abs() < 1e-12);
        assert!(w[32].abs() < 1e-12);
        assert!((w[16] - 1.0).abs() < 1e-12);
        // Symmetric.
        for i in 0..16 {
            assert!((w[i] - w[32 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn hann_of_short_signals_is_identity() {
        let mut one = [2.0];
        hann_in_place(&mut one);
        assert_eq!(one, [2.0]);
    }

    #[test]
    fn hann_reduces_leakage_for_off_bin_tones() {
        // A tone at bin 4.5 leaks everywhere with a rectangular window;
        // Hann concentrates it.
        let n = 64;
        let signal: Vec<f64> = (0..n)
            .map(|i| (TAU * 4.5 * i as f64 / n as f64).sin())
            .collect();
        let rect = fft::fft_magnitudes(&signal).unwrap();
        let windowed = fft::fft_magnitudes(&hann(&signal)).unwrap();
        // Compare energy far from the tone (bins 12..) relative to peak.
        let far =
            |m: &[f64]| m[12..].iter().sum::<f64>() / m.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            far(&windowed) < 0.3 * far(&rect),
            "hann {} vs rect {}",
            far(&windowed),
            far(&rect)
        );
    }

    #[test]
    fn centroid_tracks_tone_position() {
        let n = 64;
        let low: Vec<f64> = (0..n)
            .map(|i| (TAU * 3.0 * i as f64 / n as f64).sin())
            .collect();
        let high: Vec<f64> = (0..n)
            .map(|i| (TAU * 20.0 * i as f64 / n as f64).sin())
            .collect();
        let cl = spectral_centroid(&low).unwrap();
        let ch = spectral_centroid(&high).unwrap();
        assert!((cl - 3.0).abs() < 0.5, "low centroid {cl}");
        assert!((ch - 20.0).abs() < 0.5, "high centroid {ch}");
    }

    #[test]
    fn entropy_separates_tone_from_noise() {
        let n = 128;
        let tone: Vec<f64> = (0..n)
            .map(|i| (TAU * 5.0 * i as f64 / n as f64).sin())
            .collect();
        // Deterministic pseudo-noise.
        let noise: Vec<f64> = (0..n)
            .map(|i| ((i * 2654435761_usize) % 1000) as f64 / 500.0 - 1.0)
            .collect();
        let et = spectral_entropy(&tone).unwrap();
        let en = spectral_entropy(&noise).unwrap();
        assert!(et < 0.2, "tone entropy {et}");
        assert!(en > 0.5, "noise entropy {en}");
        assert!((0.0..=1.0).contains(&et));
        assert!((0.0..=1.0).contains(&en));
    }

    #[test]
    fn degenerate_inputs() {
        assert!(spectral_centroid(&[1.0, 2.0]).is_err());
        assert!(spectral_entropy(&[1.0, 2.0]).is_err());
        // Constant signal: centroid falls back to bin 1, entropy 0.
        let flat = vec![3.0; 16];
        assert_eq!(spectral_centroid(&flat).unwrap(), 1.0);
        assert_eq!(spectral_entropy(&flat).unwrap(), 0.0);
    }
}
