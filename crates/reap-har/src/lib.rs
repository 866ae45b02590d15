//! Human activity recognition (HAR) pipeline with configurable
//! energy-accuracy design points.
//!
//! This crate implements the driver application of the REAP paper (Sec. 4):
//! sensor windows are turned into feature vectors (statistics, a 16-point
//! FFT of the stretch sensor, or wavelet subband energies), classified by a
//! small neural network, and evaluated against ground truth. Every stage is
//! parameterized by the **design-point knobs** of the paper's Fig. 2:
//!
//! | knob | choices |
//! |------|---------|
//! | accelerometer axes | x+y+z, x+y, x, y, none |
//! | sensing period | 100%, 75%, 50%, 40% of the window |
//! | accel features | statistical, DWT subband energies, none |
//! | stretch features | 16-point FFT magnitudes, statistical, none |
//! | NN structure | one hidden layer of 12 or 8 units, or direct softmax |
//!
//! [`DpConfig::standard_24`] enumerates the 24 candidate design points the
//! paper implemented; [`DpConfig::paper_pareto_5`] returns the five
//! Pareto-optimal ones (DP1–DP5 of Table 2).
//!
//! # Examples
//!
//! Train the stretch-only design point (DP5) on a small synthetic dataset:
//!
//! ```
//! use reap_data::Dataset;
//! use reap_har::{train_classifier, DpConfig, TrainConfig};
//!
//! # fn main() -> Result<(), reap_har::HarError> {
//! let dataset = Dataset::generate(4, 280, 42);
//! let dp5 = DpConfig::paper_pareto_5()[4].clone();
//! let classifier = train_classifier(&dataset, &dp5, &TrainConfig::fast(7))?;
//! assert!(classifier.test_accuracy > 1.0 / 7.0); // far better than chance
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classifier;
mod config;
mod confusion;
mod design_point;
mod error;
// Feature names serve no caller; they run only under their own tests.
#[cfg(test)]
mod feature_names;
mod features;
mod louo;
mod nn;
mod normalize;
mod pareto;
mod quantized;

pub use classifier::{train_classifier, TrainedClassifier};
pub use config::{AccelAxes, AccelFeatures, DpConfig, NnStructure, SensingPeriod, StretchFeatures};
pub use confusion::ConfusionMatrix;
pub use design_point::DesignPoint;
pub use error::HarError;
pub use features::extract_features;
pub use louo::{leave_one_user_out, pooled_accuracy, LouoFold, LouoResult};
pub use nn::{Mlp, TrainConfig, TrainStats};
pub use normalize::Standardizer;
pub use pareto::pareto_front;
pub use quantized::QuantizedMlp;
