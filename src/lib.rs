//! # REAP — Runtime Energy-Accuracy Optimization for Energy-Harvesting IoT
//!
//! This crate is the facade of a full reproduction of *REAP: Runtime
//! Energy-Accuracy Optimization for Energy Harvesting IoT Devices* (Bhat,
//! Bagewadi, Lee, Ogras — DAC 2019). It re-exports every subsystem crate so
//! applications can depend on a single package.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Quickstart
//!
//! ```
//! use reap::core::{ReapProblem, OperatingPoint};
//! use reap::units::{Energy, Power, TimeSpan};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The five Pareto-optimal design points of the paper's Table 2.
//! let points = reap::device::paper_table2_operating_points();
//!
//! // Plan one hour under a 5 J harvested-energy budget (alpha = 1:
//! // maximize expected accuracy).
//! let problem = ReapProblem::builder()
//!     .period(TimeSpan::from_hours(1.0))
//!     .off_power(Power::from_microwatts(50.0))
//!     .alpha(1.0)
//!     .points(points)
//!     .build()?;
//! let schedule = problem.solve(Energy::from_joules(5.0))?;
//!
//! // The paper reports the optimizer splits the hour between DP4 (42%)
//! // and DP5 (58%) at this budget.
//! assert!(schedule.expected_accuracy() > 0.80);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Physical-quantity newtypes (energy, power, time). Re-export of [`reap_units`].
pub mod units {
    pub use reap_units::*;
}

/// Simplex LP solver substrate. Re-export of [`reap_lp`].
pub mod lp {
    pub use reap_lp::*;
}

/// DSP kernels (FFT, DWT, statistics). Re-export of [`reap_dsp`].
pub mod dsp {
    pub use reap_dsp::*;
}

/// Synthetic user-study data generation. Re-export of [`reap_data`].
pub mod data {
    pub use reap_data::*;
}

/// Human activity recognition pipeline. Re-export of [`reap_har`].
pub mod har {
    pub use reap_har::*;
}

/// Device energy/timing model. Re-export of [`reap_device`].
pub mod device {
    pub use reap_device::*;
}

/// Energy-harvesting substrate. Re-export of [`reap_harvest`].
pub mod harvest {
    pub use reap_harvest::*;
}

/// The REAP optimizer and runtime controller. Re-export of [`reap_core`].
pub mod core {
    pub use reap_core::*;
}

/// Full-system simulator. Re-export of [`reap_sim`].
pub mod sim {
    pub use reap_sim::*;
}

/// Resident fleet-as-a-service policy daemon. Re-export of [`reap_serve`].
pub mod serve {
    pub use reap_serve::*;
}

/// The types most applications need, in one import.
///
/// ```
/// use reap::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let problem = ReapProblem::builder()
///     .points(reap::device::paper_table2_operating_points())
///     .build()?;
/// let schedule = problem.solve(Energy::from_joules(5.0))?;
/// assert!(schedule.expected_accuracy() > 0.8);
/// # Ok(())
/// # }
/// ```
pub mod prelude {
    pub use reap_core::{static_schedule, OperatingPoint, ReapError, ReapProblem, Schedule};
    pub use reap_harvest::HarvestTrace;
    pub use reap_sim::{Policy, Scenario};
    pub use reap_units::{Energy, Power, TimeSpan};
}
