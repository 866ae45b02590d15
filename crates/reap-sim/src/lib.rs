//! Full-system simulation of an energy-harvesting HAR node.
//!
//! Ties the other crates together into the evaluation loop of the paper's
//! Sec. 5.4: every hour, energy arrives from the harvesting substrate, an
//! allocator turns it into a budget, the policy under test (REAP or a
//! static design point) plans the hour, and the engine executes the plan
//! against the physical energy supply (incoming harvest first, then the
//! battery) — browning out early when supply falls short of the plan.
//!
//! A [`Scenario`] accepts a trace from any
//! [`HarvestSource`](reap_harvest::HarvestSource) — outdoor solar (the
//! paper's setting), indoor photovoltaic, body-heat thermoelectric, or
//! kinetic — and the [`Fleet`] layer scales the same loop to thousands of
//! seeded synthetic users sharded over all cores, reduced on the fly to
//! population percentiles ([`FleetReport`]).
//!
//! # Examples
//!
//! ```
//! use reap_harvest::HarvestTrace;
//! use reap_sim::{AllocatorKind, Policy, Scenario};
//!
//! # fn main() -> Result<(), reap_sim::SimError> {
//! let scenario = Scenario::builder(HarvestTrace::september_like(42))
//!     .points(reap_device::paper_table2_operating_points())
//!     .alpha(1.0)
//!     .allocator(AllocatorKind::Ewma)
//!     .build()?;
//!
//! let reap = scenario.run(Policy::Reap)?;
//! let dp1 = scenario.run(Policy::Static(1))?;
//! // Over a month REAP beats the always-highest-accuracy design point.
//! assert!(reap.total_objective(1.0) > dp1.total_objective(1.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity_stream;
pub mod clock;
mod engine;
mod error;
mod fleet;
mod matrix;
// Bernoulli sampling of recognitions; it runs only under its own tests.
#[cfg(test)]
mod recognition;
mod report;
mod scenario;
pub mod soa;

pub use activity_stream::ActivityStream;
pub use clock::{ClockStats, EventRecord, IntermittentConfig, VdtRun};
pub use engine::Policy;
pub use error::SimError;
pub use fleet::{Fleet, FleetBuilder, FleetReport, Percentiles, SourceSlice, UserParams};
pub use matrix::{run_matrix, run_matrix_with_threads};
pub use report::{HourRecord, SimReport};
pub use scenario::{AllocatorKind, BudgetMode, ForecasterKind, Scenario, ScenarioBuilder};
pub use soa::{SoaFleet, UserOutcome};
