//! DSP kernels for wearable human-activity recognition.
//!
//! The REAP paper's design points compute three families of signal features
//! on the TI CC2650 MCU (Fig. 2 of the paper):
//!
//! * **statistical features** of accelerometer axes ([`stats`]),
//! * a **16-point FFT** of the stretch-sensor signal ([`fft`]),
//! * a **discrete wavelet transform** of the accelerometer ([`dwt`]).
//!
//! This crate implements those kernels from scratch (no external DSP
//! dependencies) together with the decimation helper used to map a
//! 160-sample activity window onto a 16-point FFT input.
//!
//! # Examples
//!
//! ```
//! use reap_dsp::fft::fft_magnitudes;
//!
//! // A pure tone in bin 2 of a 16-point window.
//! let signal: Vec<f64> = (0..16)
//!     .map(|n| (2.0 * std::f64::consts::PI * 2.0 * n as f64 / 16.0).cos())
//!     .collect();
//! let mags = fft_magnitudes(&signal).unwrap();
//! let peak = mags
//!     .iter()
//!     .enumerate()
//!     .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
//!     .unwrap()
//!     .0;
//! assert_eq!(peak, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decimate;
pub mod dwt;
pub mod fft;
pub mod goertzel;
pub mod stats;
// Window functions and spectral shape: no design point uses them; they
// run only under their own tests.
#[cfg(test)]
mod window_fn;

mod error;

pub use error::DspError;
