//! Discrete wavelet transforms (Haar and Daubechies-4).
//!
//! The highest-accuracy candidate design points in the REAP paper's Fig. 2
//! use a DWT of the accelerometer signal as a feature. The MCU-friendly
//! choice is a few levels of an orthogonal wavelet; we implement the Haar
//! and DB4 filter banks with periodic boundary handling.

use crate::DspError;

/// Wavelet family for [`dwt_forward`] / [`idwt_level`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Wavelet {
    /// Haar (2-tap) wavelet: cheapest, what a Cortex-M class MCU would run.
    #[default]
    Haar,
    /// Daubechies-4 (4-tap) wavelet: smoother subbands, slightly costlier.
    Db4,
}

impl Wavelet {
    /// Low-pass analysis filter taps (orthonormal).
    #[must_use]
    pub fn low_pass(self) -> &'static [f64] {
        const SQRT2_INV: f64 = std::f64::consts::FRAC_1_SQRT_2;
        // DB4 taps: (1±sqrt(3)) family normalized by 4*sqrt(2).
        const DB4: [f64; 4] = [
            0.482_962_913_144_690_2,
            0.836_516_303_737_469,
            0.224_143_868_041_857_36,
            -0.129_409_522_550_921_44,
        ];
        match self {
            Wavelet::Haar => {
                const HAAR: [f64; 2] = [SQRT2_INV, SQRT2_INV];
                &HAAR
            }
            Wavelet::Db4 => &DB4,
        }
    }

    /// Number of filter taps.
    #[must_use]
    pub fn taps(self) -> usize {
        self.low_pass().len()
    }
}

/// One analysis level: splits `signal` into `(approximation, detail)`
/// halves using the wavelet's quadrature-mirror filter pair with periodic
/// extension.
///
/// # Errors
///
/// * [`DspError::NotPowerOfTwo`] if the length is not a power of two.
/// * [`DspError::TooShort`] if the length is smaller than the filter.
pub fn dwt_level(signal: &[f64], wavelet: Wavelet) -> Result<(Vec<f64>, Vec<f64>), DspError> {
    let n = signal.len();
    if !n.is_power_of_two() || n == 0 {
        return Err(DspError::NotPowerOfTwo { len: n });
    }
    let taps = wavelet.taps();
    if n < taps {
        return Err(DspError::TooShort { len: n, min: taps });
    }
    let low = wavelet.low_pass();
    let half = n / 2;
    let mut approx = vec![0.0; half];
    let mut detail = vec![0.0; half];
    for i in 0..half {
        let mut a = 0.0;
        let mut d = 0.0;
        for (k, &h) in low.iter().enumerate() {
            let idx = (2 * i + k) % n;
            a += h * signal[idx];
            // High-pass taps: g[k] = (-1)^k * h[taps-1-k].
            let g = if k % 2 == 0 { 1.0 } else { -1.0 } * low[taps - 1 - k];
            d += g * signal[idx];
        }
        approx[i] = a;
        detail[i] = d;
    }
    Ok((approx, detail))
}

/// Multi-level DWT decomposition.
///
/// Returns `[detail_1, detail_2, ..., detail_L, approx_L]` — the detail
/// coefficients of each level (finest first) followed by the final
/// approximation. The concatenated coefficient count equals the input
/// length.
///
/// # Errors
///
/// Propagates [`dwt_level`] errors; additionally [`DspError::TooShort`] if
/// `levels` would shrink the signal below the filter length.
pub fn dwt_forward(
    signal: &[f64],
    wavelet: Wavelet,
    levels: usize,
) -> Result<Vec<Vec<f64>>, DspError> {
    let mut out = Vec::with_capacity(levels + 1);
    let mut current = signal.to_vec();
    for _ in 0..levels {
        let (approx, detail) = dwt_level(&current, wavelet)?;
        out.push(detail);
        current = approx;
    }
    out.push(current);
    Ok(out)
}

/// One synthesis level: reconstructs a signal from `(approximation,
/// detail)` halves. Inverse of [`dwt_level`].
///
/// # Errors
///
/// [`DspError::EmptyInput`] if the halves are empty.
///
/// # Panics
///
/// Panics if the two halves have different lengths (caller bug).
// reap-lint: allow(api) -- dsp_properties::dwt_level_preserves_energy_and_inverts inverts dwt_level with it
pub fn idwt_level(approx: &[f64], detail: &[f64], wavelet: Wavelet) -> Result<Vec<f64>, DspError> {
    assert_eq!(
        approx.len(),
        detail.len(),
        "approximation and detail lengths differ"
    );
    let half = approx.len();
    if half == 0 {
        return Err(DspError::EmptyInput);
    }
    let n = half * 2;
    let low = wavelet.low_pass();
    let taps = wavelet.taps();
    let mut out = vec![0.0; n];
    for i in 0..half {
        for (k, &h) in low.iter().enumerate() {
            let idx = (2 * i + k) % n;
            let g = if k % 2 == 0 { 1.0 } else { -1.0 } * low[taps - 1 - k];
            out[idx] += h * approx[i] + g * detail[i];
        }
    }
    Ok(out)
}

/// Per-subband energies of a multi-level decomposition, normalized by the
/// subband length. This is the compact DWT feature vector used by the HAR
/// pipeline: `levels + 1` numbers summarizing how signal energy distributes
/// across scales.
///
/// # Errors
///
/// Propagates [`dwt_forward`] errors.
pub fn subband_energies(
    signal: &[f64],
    wavelet: Wavelet,
    levels: usize,
) -> Result<Vec<f64>, DspError> {
    let bands = dwt_forward(signal, wavelet, levels)?;
    Ok(bands
        .iter()
        .map(|band| band.iter().map(|c| c * c).sum::<f64>() / band.len() as f64)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b}");
    }

    #[test]
    fn haar_level_of_constant_signal() {
        // A constant signal is pure approximation; details vanish.
        let x = vec![2.0; 8];
        let (a, d) = dwt_level(&x, Wavelet::Haar).unwrap();
        for v in &a {
            assert_close(*v, 2.0 * std::f64::consts::SQRT_2, 1e-12);
        }
        for v in &d {
            assert_close(*v, 0.0, 1e-12);
        }
    }

    #[test]
    fn db4_kills_constant_details_too() {
        let x = vec![1.5; 16];
        let (_, d) = dwt_level(&x, Wavelet::Db4).unwrap();
        for v in &d {
            assert_close(*v, 0.0, 1e-9);
        }
    }

    #[test]
    fn energy_is_preserved_by_one_level() {
        let x: Vec<f64> = (0..32).map(|i| ((i * 13 + 5) % 9) as f64 - 4.0).collect();
        for w in [Wavelet::Haar, Wavelet::Db4] {
            let (a, d) = dwt_level(&x, w).unwrap();
            let e_in: f64 = x.iter().map(|v| v * v).sum();
            let e_out: f64 =
                a.iter().map(|v| v * v).sum::<f64>() + d.iter().map(|v| v * v).sum::<f64>();
            assert_close(e_in, e_out, 1e-9);
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.7).sin()).collect();
        for w in [Wavelet::Haar, Wavelet::Db4] {
            let (a, d) = dwt_level(&x, w).unwrap();
            let back = idwt_level(&a, &d, w).unwrap();
            for (orig, rec) in x.iter().zip(&back) {
                assert_close(*orig, *rec, 1e-9);
            }
        }
    }

    #[test]
    fn multi_level_structure() {
        let x = vec![1.0; 16];
        let bands = dwt_forward(&x, Wavelet::Haar, 3).unwrap();
        assert_eq!(bands.len(), 4); // 3 details + 1 approx
        assert_eq!(bands[0].len(), 8);
        assert_eq!(bands[1].len(), 4);
        assert_eq!(bands[2].len(), 2);
        assert_eq!(bands[3].len(), 2);
        let total: usize = bands.iter().map(Vec::len).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn subband_energy_separates_scales() {
        // A fast alternating signal puts its energy in the finest detail
        // band; a slow signal puts it in the approximation band.
        let fast: Vec<f64> = (0..32)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let e_fast = subband_energies(&fast, Wavelet::Haar, 2).unwrap();
        assert!(e_fast[0] > 10.0 * e_fast[2], "fast: {e_fast:?}");

        let slow = vec![1.0; 32];
        let e_slow = subband_energies(&slow, Wavelet::Haar, 2).unwrap();
        assert!(
            e_slow[2] > 10.0 * (e_slow[0] + e_slow[1]).max(1e-30),
            "slow: {e_slow:?}"
        );
    }

    #[test]
    fn rejects_bad_lengths() {
        assert_eq!(
            dwt_level(&[1.0, 2.0, 3.0], Wavelet::Haar),
            Err(DspError::NotPowerOfTwo { len: 3 })
        );
        assert_eq!(
            dwt_level(&[1.0, 2.0], Wavelet::Db4),
            Err(DspError::TooShort { len: 2, min: 4 })
        );
        assert_eq!(
            idwt_level(&[], &[], Wavelet::Haar),
            Err(DspError::EmptyInput)
        );
    }

    #[test]
    fn too_many_levels_is_an_error() {
        // 8 samples can take at most 2 DB4 levels (8 -> 4 -> 2 < 4 taps).
        let x = vec![0.0; 8];
        assert!(dwt_forward(&x, Wavelet::Db4, 3).is_err());
        assert!(dwt_forward(&x, Wavelet::Db4, 2).is_ok());
    }
}
