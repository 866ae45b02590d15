//! Energy-harvesting substrate: multi-source harvest models, battery, and
//! hourly budget allocation.
//!
//! The paper evaluates REAP with solar-radiation measurements from the
//! NREL Solar Radiation Research Laboratory (Golden, Colorado) converted
//! into hourly energy budgets for a flexible solar cell on the wearable
//! prototype. Those traces are not bundled here, so this crate provides
//! **synthetic substitutes** — and goes beyond the paper's single solar
//! trace: every transducer model implements the [`HarvestSource`] trait,
//! and four calibrated sources ship in the box ([`SourceKind`]):
//!
//! * [`SolarSource`] — outdoor solar: clear-sky global horizontal
//!   irradiance from solar geometry ([`SolarModel`]) attenuated by a
//!   seeded per-day Markov weather chain ([`WeatherModel`]) and converted
//!   by an SP3-37-class flexible panel ([`SolarPanel`]) — the paper's
//!   Fig. 7 setting;
//! * [`IndoorPhotovoltaic`] — an indoor cell under an office-lighting
//!   duty cycle (weekday lights-on hours, occupancy jitter, dark nights);
//! * [`BodyHeatTeg`] — a thermoelectric generator against body heat,
//!   coupled to the wearer's activity routine (higher ΔT when walking or
//!   driving) and to the season;
//! * [`KineticHarvester`] — a piezo/electromagnetic motion harvester
//!   whose output scales with the mean-square motion intensity of the
//!   activity stream.
//!
//! Every source yields [`HarvestTrace`]s — e.g.
//! [`HarvestTrace::september_like`] for the solar month Fig. 7 uses — and
//! each is calibrated so its useful hours land inside the paper's
//! 0.18–10 J evaluation regime. [`Battery`] and [`BudgetAllocator`]
//! implementations turn harvests into per-period energy budgets
//! (Kansal-style EWMA, greedy, and uniform-daily policies) through the
//! shared hour-step arithmetic in [`step`], and
//! [`HarvestForecaster`] implementations produce the multi-hour
//! forecast windows lookahead (receding-horizon) policies consume —
//! a causal per-slot EWMA projection and a seeded noisy oracle.
//!
//! # Examples
//!
//! ```
//! use reap_harvest::{HarvestSource, HarvestTrace, SourceKind};
//!
//! // The paper's solar month…
//! let solar = HarvestTrace::september_like(7);
//! assert_eq!(solar.days(), 30);
//! // Nights harvest nothing; clear noons harvest several joules.
//! assert_eq!(solar.energy(0, 0).joules(), 0.0);
//! assert!(solar.peak().joules() > 5.0);
//!
//! // …and the same month on a body-heat TEG: a fraction of the energy,
//! // but it never goes fully dark.
//! let teg = SourceKind::BodyHeat.instantiate(7).generate(244, 30).unwrap();
//! assert!(teg.total() < solar.total());
//! assert!(teg.iter().all(|e| e.joules() > 0.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocator;
mod battery;
mod blackout;
mod capacitor;
mod error;
mod forecast;
mod indoor;
mod kinetic;
mod panel;
mod perturb;
mod solar;
mod source;
pub mod step;
mod thermoelectric;
mod trace;

pub use allocator::{BudgetAllocator, EwmaAllocator, GreedyAllocator, UniformDailyAllocator};
pub use battery::Battery;
pub use blackout::BlackoutOverlay;
pub use capacitor::Capacitor;
pub use error::HarvestError;
pub use forecast::{DiurnalEwma, EwmaForecaster, HarvestForecaster, OracleForecaster};
pub use indoor::IndoorPhotovoltaic;
pub use kinetic::KineticHarvester;
pub use panel::SolarPanel;
pub use perturb::{splitmix64, TracePerturbation};
pub use solar::{SkyCondition, SolarModel, SolarSource, WeatherModel};
pub use source::{HarvestSource, SourceKind};
pub use thermoelectric::BodyHeatTeg;
pub use trace::HarvestTrace;
