//! The REAP runtime energy-accuracy optimizer.
//!
//! This crate implements the primary contribution of *REAP: Runtime
//! Energy-Accuracy Optimization for Energy Harvesting IoT Devices* (Bhat et
//! al., DAC 2019): given `N` design points with accuracies `a_i` and power
//! draws `P_i`, an off-state power `P_off`, an activity period `TP`, and an
//! energy budget `Eb`, find the time allocations `t_i` (and off time
//! `t_off`) that maximize the generalized objective
//!
//! ```text
//! J(t) = (1/TP) * sum_i a_i^alpha * t_i
//! s.t.  t_off + sum_i t_i = TP                (Eq. 2)
//!       P_off*t_off + sum_i P_i*t_i <= Eb     (Eq. 3)
//!       t_i >= 0                              (Eq. 4)
//! ```
//!
//! `alpha = 1` maximizes *expected accuracy*; `alpha = 0` maximizes *active
//! time*; larger `alpha` increasingly favours high-accuracy design points.
//!
//! Two solvers are provided and cross-checked against each other:
//!
//! * [`ReapProblem::solve`] — the paper's Algorithm 1, a tableau simplex
//!   (via the `reap-lp` crate), kept as the test oracle;
//! * [`PlanFrontier`] — the precomputed budget→schedule frontier, the
//!   fast path: with two constraints an optimal basic solution mixes at
//!   most **two** design points, so the optimum is an interpolation
//!   between adjacent vertices of a concave hull. Its
//!   [`FrontierTable::decide`] is the runtime planner: one lookup per
//!   period, budget in, schedule out.
//!
//! Every planner returns the same plan record, a `Copy` [`Schedule`] of
//! at most two [`PlanShare`]s with its [`PlanEval`] aggregates.
//!
//! # Examples
//!
//! ```
//! use reap_core::{OperatingPoint, ReapProblem};
//! use reap_units::{Energy, Power, TimeSpan};
//!
//! # fn main() -> Result<(), reap_core::ReapError> {
//! // Table 2 of the paper: (accuracy, power) of the five Pareto DPs.
//! let table2 = [(0.94, 2.76), (0.93, 2.30), (0.92, 1.82), (0.90, 1.64), (0.76, 1.20)];
//! let points: Vec<OperatingPoint> = table2
//!     .iter()
//!     .enumerate()
//!     .map(|(i, &(a, mw))| OperatingPoint::new(i as u8 + 1, a, Power::from_milliwatts(mw)))
//!     .collect();
//!
//! // The builder validates the points with the rest of the problem.
//! let problem = ReapProblem::builder()
//!     .period(TimeSpan::from_hours(1.0))
//!     .off_power(Power::from_microwatts(50.0))
//!     .alpha(1.0)
//!     .points(points)
//!     .build()?;
//!
//! // At a 5 J budget the optimizer splits the hour between DP4 and DP5,
//! // exactly as reported in Sec. 5.2 of the paper (42% / 58%).
//! let schedule = problem.solve(Energy::from_joules(5.0))?;
//! assert!((schedule.fraction_for(4) - 0.42).abs() < 0.02);
//! assert!((schedule.fraction_for(5) - 0.58).abs() < 0.02);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod frontier;
mod horizon;
mod mpc;
mod operating_point;
mod problem;
mod regions;
mod schedule;
mod solver;
mod static_policy;
mod sweep;

pub use error::ReapError;
pub use frontier::{
    decide_vertices, first_segment, push_frontier, FrontierTable, PlanFrontier, Vertex,
};
pub use horizon::{plan_horizon, HorizonPlan};
pub use mpc::RecedingHorizonController;
pub use operating_point::OperatingPoint;
pub use problem::{ReapProblem, ReapProblemBuilder};
pub use regions::{detect_regions, Region, RegionMap};
pub use schedule::{PlanEval, PlanShare, Schedule, DROP_S};
pub use static_policy::static_schedule;
pub use sweep::{energy_shadow_price, energy_sweep, linspace, SweepPoint};
