//! Decimation (sample-rate reduction) helpers.
//!
//! The stretch sensor is sampled at 100 Hz, giving 160 samples per 1.6 s
//! activity window, but the paper's design points feed a **16-point** FFT.
//! The MCU implementation averages blocks of 10 samples (a cheap anti-alias
//! low-pass) before the FFT; [`decimate_to`] reproduces that behaviour.

use crate::DspError;

/// Reduces `signal` to exactly `target_len` samples by averaging equal
/// blocks of consecutive samples.
///
/// When `signal.len()` is not a multiple of `target_len`, block boundaries
/// are distributed as evenly as possible (the first `len % target`
/// blocks get one extra sample).
///
/// # Errors
///
/// * [`DspError::EmptyInput`] if the signal is empty or `target_len == 0`.
/// * [`DspError::TooShort`] if `signal.len() < target_len`.
pub fn decimate_to(signal: &[f64], target_len: usize) -> Result<Vec<f64>, DspError> {
    if signal.is_empty() || target_len == 0 {
        return Err(DspError::EmptyInput);
    }
    if signal.len() < target_len {
        return Err(DspError::TooShort {
            len: signal.len(),
            min: target_len,
        });
    }
    let n = signal.len();
    let base = n / target_len;
    let extra = n % target_len;
    let mut out = Vec::with_capacity(target_len);
    let mut start = 0;
    for block in 0..target_len {
        let len = base + usize::from(block < extra);
        let sum: f64 = signal[start..start + len].iter().sum();
        out.push(sum / len as f64);
        start += len;
    }
    debug_assert_eq!(start, n);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_to_fft16_is_block_mean() {
        // 160 -> 16 with blocks of 10.
        let signal: Vec<f64> = (0..160).map(|i| (i / 10) as f64).collect();
        let out = decimate_to(&signal, 16).unwrap();
        assert_eq!(out.len(), 16);
        for (k, v) in out.iter().enumerate() {
            assert!((v - k as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn uneven_lengths_distribute_blocks() {
        let signal: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let out = decimate_to(&signal, 3).unwrap();
        assert_eq!(out.len(), 3);
        // Blocks: [0,1,2,3], [4,5,6], [7,8,9].
        assert!((out[0] - 1.5).abs() < 1e-12);
        assert!((out[1] - 5.0).abs() < 1e-12);
        assert!((out[2] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn identity_when_lengths_match() {
        let signal = [1.0, 2.0, 3.0];
        assert_eq!(decimate_to(&signal, 3).unwrap(), signal.to_vec());
    }

    #[test]
    fn preserves_dc_level() {
        let signal = vec![0.7; 123];
        let out = decimate_to(&signal, 16).unwrap();
        for v in out {
            assert!((v - 0.7).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(decimate_to(&[], 4), Err(DspError::EmptyInput));
        assert_eq!(decimate_to(&[1.0], 0), Err(DspError::EmptyInput));
        assert_eq!(
            decimate_to(&[1.0, 2.0], 4),
            Err(DspError::TooShort { len: 2, min: 4 })
        );
    }
}
