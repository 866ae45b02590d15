//! Goertzel single-bin DFT.
//!
//! The Goertzel algorithm computes one DFT bin with a two-multiply
//! recurrence, independently of the radix-2 butterflies in
//! [`crate::fft`]. No design point runs it; it is the FFT's test oracle.

// Index-based loops below mirror the textbook linear-algebra notation;
// iterator rewrites would obscure the row/column structure.
#![allow(clippy::needless_range_loop)]

use crate::DspError;

/// Squared magnitude of DFT bin `k` of `signal` (same normalization as
/// [`crate::fft::fft_real`]: `|X[k]|^2`).
///
/// # Errors
///
/// * [`DspError::EmptyInput`] for an empty signal.
/// * [`DspError::TooShort`] when `k >= signal.len()` (no such bin).
pub fn goertzel_power(signal: &[f64], k: usize) -> Result<f64, DspError> {
    let n = signal.len();
    if n == 0 {
        return Err(DspError::EmptyInput);
    }
    if k >= n {
        return Err(DspError::TooShort { len: n, min: k + 1 });
    }
    let w = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
    let coeff = 2.0 * w.cos();
    let mut s_prev = 0.0;
    let mut s_prev2 = 0.0;
    for &x in signal {
        let s = x + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    Ok(s_prev * s_prev + s_prev2 * s_prev2 - coeff * s_prev * s_prev2)
}

/// Magnitude of DFT bin `k` (`|X[k]|`).
///
/// # Errors
///
/// Same conditions as [`goertzel_power`].
// reap-lint: allow(api) -- dsp_properties::goertzel_matches_fft_on_every_bin checks the FFT against this oracle
pub fn goertzel_magnitude(signal: &[f64], k: usize) -> Result<f64, DspError> {
    goertzel_power(signal, k).map(|p| p.max(0.0).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft;

    const TAU: f64 = 2.0 * std::f64::consts::PI;

    #[test]
    fn matches_fft_magnitudes_exactly() {
        let signal: Vec<f64> = (0..64)
            .map(|i| {
                (TAU * 3.0 * i as f64 / 64.0).sin() + 0.5 * (TAU * 9.0 * i as f64 / 64.0).cos()
            })
            .collect();
        let spectrum = fft::fft_real(&signal).unwrap();
        for k in 0..32 {
            let g = goertzel_magnitude(&signal, k).unwrap();
            let f = spectrum[k].abs();
            // Goertzel's recurrence accumulates O(N) round-off, so compare
            // with a tolerance scaled to the signal energy.
            assert!((g - f).abs() < 1e-5, "bin {k}: goertzel {g} vs fft {f}");
        }
    }

    #[test]
    fn works_on_non_power_of_two_lengths() {
        // Goertzel has no power-of-two restriction — its raison d'etre on
        // a 160-sample window.
        let signal: Vec<f64> = (0..160)
            .map(|i| (TAU * 5.0 * i as f64 / 160.0).sin())
            .collect();
        let mag = goertzel_magnitude(&signal, 5).unwrap();
        assert!((mag - 80.0).abs() < 1e-8); // N/2 for a unit sine
        let off = goertzel_magnitude(&signal, 11).unwrap();
        assert!(off < 1e-8);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(goertzel_power(&[], 0), Err(DspError::EmptyInput));
        assert_eq!(
            goertzel_power(&[1.0, 2.0], 2),
            Err(DspError::TooShort { len: 2, min: 3 })
        );
    }

    #[test]
    fn dc_bin_equals_sum() {
        let signal = [1.5, 2.5, -1.0, 3.0];
        let mag = goertzel_magnitude(&signal, 0).unwrap();
        assert!((mag - 6.0).abs() < 1e-12);
    }
}
