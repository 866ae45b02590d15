//! Synthetic user-study data for human activity recognition.
//!
//! The REAP paper evaluates its design points on 3553 labeled activity
//! windows collected from 14 users wearing a TI-Sensortag prototype with a
//! 3-axis accelerometer and a passive stretch sensor. That dataset was
//! never released, so this crate generates a **synthetic substitute**: a
//! deterministic, seeded cohort of 14 parameterized user profiles whose
//! biomechanical waveform models produce accelerometer and stretch-sensor
//! windows with the same shape (1.6 s at 100 Hz), label set (six activities
//! plus transitions), and cohort-level statistics.
//!
//! The generator is engineered so the *relative* classification difficulty
//! matches the paper's findings: the stretch sensor alone cannot reliably
//! separate sitting from driving or standing from lying down (which is why
//! the stretch-only design point DP5 drops to ~76% accuracy), while adding
//! accelerometer axes and longer sensing windows recovers the difference.
//!
//! # Examples
//!
//! ```
//! use reap_data::{Activity, Dataset};
//!
//! let dataset = Dataset::user_study(42);
//! assert_eq!(dataset.len(), 3553);
//! assert_eq!(dataset.num_users(), 14);
//!
//! let split = dataset.split(7);
//! // The paper's 60/20/20 train/validation/test protocol.
//! assert!(split.train.len() > split.validation.len());
//! assert!(split.train.len() > split.test.len());
//! # let _ = Activity::Walk;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
mod dataset;
// Pins the generator's separability structure; used only by its tests.
#[cfg(test)]
mod diagnostics;
mod noise;
mod routine;
mod stretch;
mod user;
mod waveform;
mod window;

pub use activity::Activity;
pub use dataset::{Dataset, Split};
pub use routine::{ActivityMix, DailyRoutine};
pub use user::UserProfile;
pub use window::{ActivityWindow, SAMPLE_RATE_HZ, WINDOW_SAMPLES, WINDOW_SECONDS};
