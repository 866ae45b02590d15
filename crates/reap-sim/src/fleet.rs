//! Fleet-scale simulation: thousands of seeded synthetic users, each with
//! their own harvest source, operating points, and preference.
//!
//! The paper evaluates REAP on a single solar trace and a single user.
//! The [`Fleet`] stress-tests the same policies across a *population*:
//! every user gets a harvest trace from one of the bundled
//! [`SourceKind`]s (outdoor solar, indoor photovoltaic, thermoelectric,
//! kinetic), a LOUO-style perturbation of the base operating points
//! (mirroring the per-wearer accuracy spread that leave-one-user-out
//! cross-validation measures), and their own energy/accuracy preference
//! `alpha` — all derived deterministically from one master seed.
//!
//! Users run in parallel and are reduced to per-user scalars as they
//! finish, so memory stays `O(users)` instead of `O(users × hours)`: no
//! per-user [`SimReport`](crate::SimReport) survives the run. The
//! resulting [`FleetReport`] carries population percentiles
//! (p5/p50/p95) of accuracy and active time, plus per-source means — and
//! is **bit-identical for every worker-thread count**, because
//! parallelism only changes which core runs a user, never the arithmetic
//! or the aggregation order.
//!
//! Every user plans on a frontier of their own, derived from their
//! draws ([`Fleet::user_draws`]); users are not deduplicated into
//! cohorts. [`FleetReport::cohorts`] therefore equals the user count and
//! stays only because `BENCH_fleet.json` and perfbench's report digests
//! pin it.

use std::fmt;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reap_core::{OperatingPoint, ReapProblem};
use reap_harvest::{HarvestTrace, SourceKind, TracePerturbation};

use crate::engine::{run_hours, Policy};
use crate::matrix::parallel_map;
use crate::report::HourTotals;
use crate::soa::{SoaFleet, UserOutcome};
use crate::{ForecasterKind, Scenario, SimError};

/// The calendar day every trace starts on: day 244, the paper's
/// September.
const START_DAY_OF_YEAR: u32 = 244;

/// The half-open range per-user `alpha`s are drawn from.
const ALPHA_RANGE: Range<f64> = 0.5..2.0;

/// Half-width of the LOUO-style per-user accuracy perturbation, in
/// accuracy units (±3 percentage points).
const ACCURACY_SPREAD: f64 = 0.03;

/// A population of seeded synthetic users ready to simulate.
///
/// Build one with [`Fleet::builder`]; run it with [`Fleet::run`] (or
/// [`Fleet::run_with_threads`] to pin the worker count). Each user is a
/// pure function of `(master seed, user index)`, so any individual
/// scenario can be reconstructed with [`Fleet::user_scenario`] — e.g. to
/// replay the p5 straggler of a million-user run in isolation.
///
/// # Examples
///
/// ```
/// use reap_sim::Fleet;
///
/// # fn main() -> Result<(), reap_sim::SimError> {
/// let fleet = Fleet::builder(reap_device::paper_table2_operating_points())
///     .users(8)
///     .days(2)
///     .seed(42)
///     .build()?;
/// let report = fleet.run()?;
/// assert_eq!(report.users(), 8);
/// // Percentiles are ordered and accuracies are probabilities.
/// let acc = report.accuracy();
/// assert!(0.0 <= acc.p5 && acc.p5 <= acc.p50 && acc.p50 <= acc.p95 && acc.p95 <= 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Fleet {
    pub(crate) users: u32,
    pub(crate) seed: u64,
    pub(crate) days: u32,
    pub(crate) base_points: Vec<OperatingPoint>,
    pub(crate) sources: Vec<SourceKind>,
    pub(crate) policy: Policy,
    pub(crate) forecaster: ForecasterKind,
    /// Seeded blackout injection: `Some((seed, fraction))` zeroes a
    /// seeded contiguous window of `round(fraction * 24)` hours on every
    /// day of every base trace (see
    /// [`BlackoutOverlay`](reap_harvest::BlackoutOverlay)).
    pub(crate) blackout: Option<(u64, f64)>,
    /// Capacitor-scale intermittent operation: every user runs on the
    /// configured capacitor store with power-failure semantics instead of
    /// the battery (see [`IntermittentConfig`](crate::IntermittentConfig)).
    pub(crate) intermittent: Option<crate::clock::IntermittentConfig>,
    /// Engine step width in seconds (default 3600). A sub-hour battery
    /// fleet runs every user on the scalar engine, which executes each
    /// hour's plan in `3600 / dt_seconds` steps.
    pub(crate) dt_seconds: u32,
    /// The fleet flattened into SoA form, built lazily on the first run
    /// of a fleet the kernel runs and reused by every later one — a
    /// `Fleet` is immutable once built, so the flattening (base traces,
    /// the user permutation, per-user frontiers) is a pure function of
    /// this struct.
    soa_cache: OnceLock<Arc<SoaFleet>>,
}

/// Everything user-specific that is *not* the shared base trace: the
/// LOUO-perturbed operating points, the preference `alpha`, and the
/// harvest-trace perturbation. A pure function of `(master seed, user
/// index)`, built by [`Fleet::user_params`] from the one derivation of a
/// user's draws, [`Fleet::user_draws`].
#[derive(Debug, Clone)]
pub struct UserParams {
    /// The user's LOUO-perturbed operating points.
    pub points: Vec<OperatingPoint>,
    /// The user's energy/accuracy preference.
    pub alpha: f64,
    /// The user's harvest-trace perturbation (gain + phase over the
    /// shared base trace).
    pub perturbation: TracePerturbation,
}

/// Builder for [`Fleet`]; see [`Fleet::builder`].
#[derive(Debug, Clone)]
pub struct FleetBuilder {
    fleet: Fleet,
}

impl Fleet {
    /// Starts a builder from the base operating points every user's
    /// device supports (e.g.
    /// `reap_device::paper_table2_operating_points()`).
    ///
    /// Defaults: 1000 users, seed 0, 30 days, all four [`SourceKind`]s
    /// round-robined across users, the [`Policy::Reap`] planner, and the
    /// EWMA forecaster (relevant only under [`Policy::Horizon`]). Fixed
    /// for every fleet: budgets come from the EWMA allocator
    /// ([`AllocatorKind::Ewma`](crate::AllocatorKind::Ewma)), traces start
    /// on day-of-year 244 (the paper's September), per-user `alpha` is
    /// drawn from `[0.5, 2.0)`, and the LOUO-style accuracy spread is ±3
    /// percentage points.
    #[must_use]
    pub fn builder(base_points: Vec<OperatingPoint>) -> FleetBuilder {
        FleetBuilder {
            fleet: Fleet {
                users: 1000,
                seed: 0,
                days: 30,
                base_points,
                sources: SourceKind::ALL.to_vec(),
                policy: Policy::Reap,
                forecaster: ForecasterKind::Ewma,
                blackout: None,
                intermittent: None,
                dt_seconds: 3600,
                soa_cache: OnceLock::new(),
            },
        }
    }

    /// Number of users in the fleet.
    #[must_use]
    pub fn users(&self) -> u32 {
        self.users
    }

    /// Simulated days per user.
    #[must_use]
    pub fn days(&self) -> u32 {
        self.days
    }

    /// The source kinds users are round-robined across.
    #[must_use]
    pub fn sources(&self) -> &[SourceKind] {
        &self.sources
    }

    /// The harvest source powering user `user`'s device.
    #[must_use]
    pub fn user_source(&self, user: u32) -> SourceKind {
        self.sources[user as usize % self.sources.len()]
    }

    /// Reconstructs the exact scenario user `user` runs: their harvest
    /// trace, perturbed operating points, and `alpha` — a pure function
    /// of the master seed and the index, so any member of a huge fleet
    /// can be replayed alone.
    ///
    /// # Errors
    ///
    /// Propagates harvest/optimizer construction failures
    /// ([`SimError::Harvest`] / [`SimError::Core`]).
    ///
    /// # Panics
    ///
    /// Panics when `user >= self.users()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use reap_sim::{Fleet, Policy};
    ///
    /// # fn main() -> Result<(), reap_sim::SimError> {
    /// let fleet = Fleet::builder(reap_device::paper_table2_operating_points())
    ///     .users(4)
    ///     .days(1)
    ///     .build()?;
    /// // Users cycle through the bundled sources…
    /// assert_ne!(fleet.user_source(0), fleet.user_source(1));
    /// // …and any user's month is individually replayable.
    /// let report = fleet.user_scenario(2)?.run(Policy::Reap)?;
    /// assert_eq!(report.days(), 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn user_scenario(&self, user: u32) -> Result<Scenario, SimError> {
        assert!(
            user < self.users,
            "user {user} >= fleet size {}",
            self.users
        );
        self.base_problem()?;
        self.scenario_over(user, &self.base_trace(self.user_source(user))?)
    }

    /// Builds user `user`'s scenario over `base`, the shared base trace
    /// of their source: the one constructor behind both
    /// [`Fleet::user_scenario`] and the scalar fallback of [`Fleet::run`],
    /// each of which validates [`Fleet::base_problem`] first.
    fn scenario_over(&self, user: u32, base: &HarvestTrace) -> Result<Scenario, SimError> {
        let params = self.user_params(user)?;
        let trace = params.perturbation.apply(base)?;
        let mut builder = Scenario::builder(trace)
            .points(params.points)
            .alpha(params.alpha)
            .forecaster(self.forecaster)
            .dt_seconds(self.dt_seconds);
        if let Some(cfg) = &self.intermittent {
            builder = builder.intermittent(cfg.clone());
        }
        builder.build()
    }

    /// The seed the shared base trace of `kind` derives from: one weather
    /// stream per source kind, shared (copy-on-perturb) by every user on
    /// that source.
    fn base_trace_seed(&self, kind: SourceKind) -> u64 {
        let ordinal = SourceKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("SourceKind::ALL is exhaustive") as u64;
        self.seed ^ (ordinal + 1).wrapping_mul(0xA076_1D64_78BD_642F)
    }

    /// Generates the shared base trace for `kind` — the one month every
    /// user on that source perturbs. `O(hours)` once per kind, not per
    /// user.
    pub(crate) fn base_trace(&self, kind: SourceKind) -> Result<HarvestTrace, SimError> {
        let source = kind.instantiate(self.base_trace_seed(kind));
        // The blackout overlay wraps here — the single trace hook both
        // the scalar replay path and the SoA engine route through — so
        // every engine sees bit-identical blacked-out traces.
        let source: Box<dyn reap_harvest::HarvestSource> = match self.blackout {
            Some((seed, fraction)) => {
                Box::new(reap_harvest::BlackoutOverlay::new(source, seed, fraction)?)
            }
            None => source,
        };
        Ok(source.generate(START_DAY_OF_YEAR, self.days)?)
    }

    /// The base operating points as one validated problem, with the
    /// period and off power every user's problem shares. A user's draws
    /// move only accuracies, clamped into `[0.02, 0.995]`, and draw
    /// `alpha` from the non-negative `[0.5, 2.0)`, so every user's
    /// problem is valid when this one is. Drawn points are not checked,
    /// and the clamp would hide a base accuracy out of range, so every
    /// fleet build checks this once instead.
    ///
    /// # Errors
    ///
    /// [`SimError::Core`] for a point whose accuracy is not in `[0, 1]`
    /// or whose power is not positive and finite, duplicate point ids, or
    /// a point that does not draw more than the off power.
    pub fn base_problem(&self) -> Result<ReapProblem, SimError> {
        Ok(ReapProblem::builder()
            .alpha(ALPHA_RANGE.start)
            .points(self.base_points.clone())
            .build()?)
    }

    /// User `user`'s harvest-trace perturbation: the first of their
    /// draws, and the only one the SoA user permutation needs.
    pub(crate) fn user_perturbation(&self, user: u32) -> TracePerturbation {
        // Perturbation seed: user-distinct but stable under fleet
        // resizing.
        let trace_seed = self
            .seed
            .wrapping_add(u64::from(user).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        TracePerturbation::from_seed(trace_seed)
    }

    /// Derives user `user`'s draws without allocating: writes their
    /// operating points into `points` (replacing its contents), the base
    /// points with perturbed accuracies, and returns their trace
    /// perturbation and `alpha`. The single definition every user is
    /// built from: [`Fleet::user_params`] collects it for
    /// [`Fleet::user_scenario`], and the SoA core and resident serving
    /// state (the `reap-serve` daemon) feed its points straight to
    /// [`reap_core::push_frontier`]. `O(points)`; the points are not
    /// checked, and are valid when [`Fleet::base_problem`] is.
    pub fn user_draws(
        &self,
        user: u32,
        points: &mut Vec<OperatingPoint>,
    ) -> (TracePerturbation, f64) {
        let perturbation = self.user_perturbation(user);

        // LOUO-style perturbation: shift every point's accuracy by a
        // per-user offset pattern, mimicking the spread leave-one-user-out
        // folds show around the pooled accuracy (see `ablation_louo`).
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0xD6E8_FEB8_6659_FD93)
                .wrapping_add(u64::from(user)),
        );
        points.clear();
        points.extend(self.base_points.iter().map(|p| {
            let delta = rng.gen_range(-ACCURACY_SPREAD..ACCURACY_SPREAD);
            let accuracy = (p.accuracy() + delta).clamp(0.02, 0.995);
            OperatingPoint::new(p.id(), accuracy, p.power())
        }));

        (perturbation, rng.gen_range(ALPHA_RANGE))
    }

    /// Derives user `user`'s parameters (perturbed points, `alpha`, trace
    /// perturbation): [`Fleet::user_draws`] into a fresh `Vec`.
    ///
    /// # Errors
    ///
    /// Never: drawn points are not checked (see [`Fleet::base_problem`]).
    pub fn user_params(&self, user: u32) -> Result<UserParams, SimError> {
        let mut points = Vec::with_capacity(self.base_points.len());
        let (perturbation, alpha) = self.user_draws(user, &mut points);
        Ok(UserParams {
            points,
            alpha,
            perturbation,
        })
    }

    /// `true` for the one configuration the SoA kernel runs:
    /// [`Policy::Reap`] on an hourly battery (every fleet budgets with
    /// the EWMA allocator).
    pub(crate) fn runs_on_kernel(&self) -> bool {
        self.policy == Policy::Reap && self.intermittent.is_none() && self.dt_seconds == 3600
    }

    /// Simulates the whole fleet under the configured policy
    /// ([`Policy::Reap`] by default), spreading users over all available
    /// cores.
    ///
    /// The default configuration, [`Policy::Reap`] planning EWMA budgets
    /// on an hourly battery, runs on the data-oriented SoA kernel
    /// ([`crate::soa`]): the whole population steps through each
    /// simulated hour over per-user plan frontiers in one arena and
    /// copy-on-perturb traces, several times faster than per-user scalar
    /// simulation and agreeing with it bit for bit on every per-user
    /// scalar (pinned by property tests). Every other fleet (static
    /// policies, [`Policy::Horizon`], batteryless and sub-hour fleets)
    /// takes the scalar engine, one user per worker at a time.
    ///
    /// # Errors
    ///
    /// Propagates the first per-user construction or engine failure, in
    /// user order.
    pub fn run(&self) -> Result<FleetReport, SimError> {
        self.run_with_threads(None)
    }

    /// [`Fleet::run`] with an explicit worker-thread cap (`None` = the
    /// machine's available parallelism). The report is **bit-identical
    /// for every thread count** — the property the fleet determinism
    /// tests pin down.
    ///
    /// # Errors
    ///
    /// Same as [`Fleet::run`].
    pub fn run_with_threads(
        &self,
        max_threads: Option<NonZeroUsize>,
    ) -> Result<FleetReport, SimError> {
        let mut acc = FleetAccumulator::new(self);
        let mut soa_bytes_per_user = 0;
        if self.runs_on_kernel() {
            let soa = match self.soa_cache.get() {
                Some(soa) => Arc::clone(soa),
                None => {
                    let built = Arc::new(SoaFleet::build(self, max_threads)?);
                    Arc::clone(self.soa_cache.get_or_init(|| built))
                }
            };
            for (user, outcome) in soa.run(max_threads).iter().enumerate() {
                acc.absorb_outcome(user as u32, outcome);
            }
            soa_bytes_per_user = soa.bytes_per_user();
        } else {
            for (user, outcome) in self.scalar_outcomes(max_threads)?.iter().enumerate() {
                acc.absorb_outcome(user as u32, outcome);
            }
        }
        let mut report = acc.finish();
        report.soa_bytes_per_user = soa_bytes_per_user;
        Ok(report)
    }

    /// The scalar fallback's per-user outcomes, in user order: workers
    /// build and run one user at a time, folding each closed hour
    /// straight into the user's totals with no report built, whatever
    /// the engine (the battery hour loop or the batteryless event core).
    fn scalar_outcomes(
        &self,
        max_threads: Option<NonZeroUsize>,
    ) -> Result<Vec<UserOutcome>, SimError> {
        self.base_problem()?;
        let bases = self
            .sources
            .iter()
            .map(|&kind| self.base_trace(kind))
            .collect::<Result<Vec<_>, _>>()?;
        parallel_map(self.users as usize, max_threads, |u| {
            let scenario = self.scenario_over(u as u32, &bases[u % bases.len()])?;
            let mut totals = HourTotals::default();
            run_hours(&scenario, self.policy, |hour| totals.add(&hour))?;
            Ok(outcome(&totals, self.days))
        })
        .into_iter()
        .collect()
    }
}

impl FleetBuilder {
    /// Sets the number of users (default 1000).
    #[must_use]
    pub fn users(mut self, users: u32) -> Self {
        self.fleet.users = users;
        self
    }

    /// Sets the master seed every per-user stream derives from
    /// (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.fleet.seed = seed;
        self
    }

    /// Sets the simulated days per user (default 30).
    #[must_use]
    pub fn days(mut self, days: u32) -> Self {
        self.fleet.days = days;
        self
    }

    /// Sets the harvest sources users are round-robined across (default:
    /// all of [`SourceKind::ALL`]).
    #[must_use]
    pub fn sources(mut self, sources: Vec<SourceKind>) -> Self {
        self.fleet.sources = sources;
        self
    }

    /// Sets the planning policy every user runs (default:
    /// [`Policy::Reap`]).
    #[must_use]
    pub fn policy(mut self, policy: Policy) -> Self {
        self.fleet.policy = policy;
        self
    }

    /// Sets the harvest forecaster users' [`Policy::Horizon`] runs use
    /// (default: the causal EWMA forecaster). Ignored by myopic policies.
    #[must_use]
    pub fn forecaster(mut self, forecaster: ForecasterKind) -> Self {
        self.fleet.forecaster = forecaster;
        self
    }

    /// Injects seeded harvest blackouts: a contiguous window of
    /// `round(fraction * 24)` hours on every day of every base trace
    /// harvests exactly zero, with per-day window starts drawn from
    /// `seed` (default: no blackouts). Models fleet-wide outage stress —
    /// wearables in drawers, shadowed panels — reproducibly; see
    /// [`BlackoutOverlay`](reap_harvest::BlackoutOverlay).
    #[must_use]
    pub fn blackout(mut self, seed: u64, fraction: f64) -> Self {
        self.fleet.blackout = Some((seed, fraction));
        self
    }

    /// Puts every user on a capacitor-scale intermittent energy store:
    /// harvest charges the configured capacitor, brownouts kill the node
    /// and lose volatile state, and turn-on pays the restore tax (default:
    /// battery operation). Required by [`Policy::Intermittent`]; the
    /// event-driven core runs every user when set.
    #[must_use]
    pub fn intermittent(mut self, config: crate::clock::IntermittentConfig) -> Self {
        self.fleet.intermittent = Some(config);
        self
    }

    /// Sets the engine step width in seconds (default 3600). Must divide
    /// the hour evenly. A sub-hour battery fleet runs every user on the
    /// scalar engine, which executes each hour's plan in `3600 / dt`
    /// steps; a batteryless fleet runs the event core at this grid.
    #[must_use]
    pub fn dt_seconds(mut self, dt_seconds: u32) -> Self {
        self.fleet.dt_seconds = dt_seconds;
        self
    }

    /// Validates and builds the fleet.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] when the fleet is empty (no users,
    /// no days, no sources, no operating points) or a numeric parameter
    /// is out of range.
    pub fn build(self) -> Result<Fleet, SimError> {
        let f = &self.fleet;
        if f.users == 0 {
            return Err(SimError::InvalidParameter("zero users".into()));
        }
        if f.days == 0 {
            return Err(SimError::InvalidParameter("zero days".into()));
        }
        if f.sources.is_empty() {
            return Err(SimError::InvalidParameter("no harvest sources".into()));
        }
        if f.base_points.is_empty() {
            return Err(SimError::InvalidParameter("no operating points".into()));
        }
        match f.policy {
            Policy::Horizon { lookahead: 0 } => {
                return Err(SimError::InvalidParameter(
                    "horizon policy needs a lookahead of at least one hour".into(),
                ));
            }
            Policy::Static(id) if !f.base_points.iter().any(|p| p.id() == id) => {
                return Err(SimError::InvalidParameter(format!(
                    "static policy references unknown operating point {id}"
                )));
            }
            Policy::Intermittent if f.intermittent.is_none() => {
                return Err(SimError::InvalidParameter(
                    "the intermittent policy needs an intermittent energy store; \
                     configure one with FleetBuilder::intermittent"
                        .into(),
                ));
            }
            _ => {}
        }
        if f.dt_seconds == 0 || 3600 % f.dt_seconds != 0 {
            return Err(SimError::InvalidParameter(format!(
                "dt of {} s does not divide the hour evenly",
                f.dt_seconds
            )));
        }
        if let Some((_, fraction)) = f.blackout {
            if !fraction.is_finite() || !(0.0..=1.0).contains(&fraction) {
                return Err(SimError::InvalidParameter(format!(
                    "blackout fraction {fraction} outside [0, 1]"
                )));
            }
        }
        if let ForecasterKind::Oracle { rel_error, .. } = f.forecaster {
            if !rel_error.is_finite() || rel_error < 0.0 {
                return Err(SimError::InvalidParameter(format!(
                    "oracle forecast error {rel_error} must be finite and non-negative"
                )));
            }
        }
        Ok(self.fleet)
    }
}

/// p5/p50/p95 of one per-user metric across the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// 5th percentile — the stragglers.
    pub p5: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile — the best-served users.
    pub p95: f64,
}

impl Percentiles {
    /// Linear-interpolation percentiles of `values` (need not be sorted).
    ///
    /// # Panics
    ///
    /// Panics when `values` is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use reap_sim::Percentiles;
    ///
    /// let p = Percentiles::of(vec![4.0, 1.0, 2.0, 3.0, 0.0]);
    /// assert_eq!(p.p50, 2.0);
    /// assert!((p.p95 - 3.8).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn of(mut values: Vec<f64>) -> Percentiles {
        assert!(!values.is_empty(), "percentiles of an empty population");
        values.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let rank = q * (values.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
        };
        Percentiles {
            p5: at(0.05),
            p50: at(0.50),
            p95: at(0.95),
        }
    }
}

impl fmt::Display for Percentiles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p5 {:.3} / p50 {:.3} / p95 {:.3}",
            self.p5, self.p50, self.p95
        )
    }
}

/// Aggregate outcome for the users of one [`SourceKind`].
#[derive(Debug, Clone, PartialEq)]
pub struct SourceSlice {
    /// The harvest source these users carry.
    pub kind: SourceKind,
    /// How many fleet users run on this source.
    pub users: u32,
    /// Mean per-user realized accuracy.
    pub mean_accuracy: f64,
    /// Mean per-user active-time fraction (realized active time over the
    /// whole trace duration).
    pub mean_active_fraction: f64,
    /// Mean per-user total harvested energy over the trace, in joules.
    pub mean_harvested_j: f64,
}

/// Population-level outcome of a [`Fleet::run`].
///
/// Holds only aggregates — percentiles over per-user scalars and
/// per-source means — never the per-user
/// [`SimReport`](crate::SimReport)s, so a million-user report is as small
/// as a ten-user one.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    users: u32,
    days: u32,
    accuracy: Percentiles,
    active_fraction: Percentiles,
    mean_accuracy: f64,
    mean_active_fraction: f64,
    brownout_hours: u64,
    per_source: Vec<SourceSlice>,
    cohorts: u32,
    soa_bytes_per_user: u32,
}

impl FleetReport {
    /// Number of users simulated.
    #[must_use]
    pub fn users(&self) -> u32 {
        self.users
    }

    /// Simulated days per user.
    #[must_use]
    pub fn days(&self) -> u32 {
        self.days
    }

    /// Percentiles of per-user mean realized accuracy.
    #[must_use]
    pub fn accuracy(&self) -> Percentiles {
        self.accuracy
    }

    /// Percentiles of per-user active-time fraction (realized active time
    /// over the whole trace duration, in `[0, 1]`).
    #[must_use]
    pub fn active_fraction(&self) -> Percentiles {
        self.active_fraction
    }

    /// Fleet-wide mean of the per-user mean accuracies.
    #[must_use]
    pub fn mean_accuracy(&self) -> f64 {
        self.mean_accuracy
    }

    /// Fleet-wide mean of the per-user active-time fractions.
    #[must_use]
    pub fn mean_active_fraction(&self) -> f64 {
        self.mean_active_fraction
    }

    /// Total brownout hours across every user.
    #[must_use]
    pub fn brownout_hours(&self) -> u64 {
        self.brownout_hours
    }

    /// Per-source aggregates, in the fleet's source order.
    #[must_use]
    pub fn per_source(&self) -> &[SourceSlice] {
        &self.per_source
    }

    /// The user count: every user plans on a frontier of their own.
    /// Kept only because `BENCH_fleet.json`'s outcome block and
    /// perfbench's report digests pin it.
    #[must_use]
    pub fn cohorts(&self) -> u32 {
        self.cohorts
    }

    /// Resident SoA state per user in bytes (per-user arrays and frontier
    /// tables plus the amortized base traces), rounded up; `0`
    /// when the fleet ran on the scalar engine (any configuration but
    /// [`Policy::Reap`] on an hourly battery).
    #[must_use]
    pub fn soa_bytes_per_user(&self) -> u32 {
        self.soa_bytes_per_user
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fleet of {} users x {} days: accuracy {}, active fraction {}, {} brownout hours",
            self.users, self.days, self.accuracy, self.active_fraction, self.brownout_hours,
        )
    }
}

/// The per-user scalars of a `days`-long trace's folded hours: what the
/// SoA core computes inline.
fn outcome(totals: &HourTotals, days: u32) -> UserOutcome {
    UserOutcome {
        accuracy: totals.mean_accuracy(),
        active_fraction: totals.active_time().hours() / (f64::from(days) * 24.0),
        brownout_hours: totals.brownout_hours() as u32,
        harvested_j: totals.harvested().joules(),
    }
}

/// Streaming reducer from per-user [`UserOutcome`]s to the [`FleetReport`]
/// aggregates. Users are absorbed in index order whatever the thread
/// count, so the output is deterministic.
struct FleetAccumulator {
    days: u32,
    sources: Vec<SourceKind>,
    accuracies: Vec<f64>,
    active_fractions: Vec<f64>,
    brownout_hours: u64,
    // Per source-slot: (users, accuracy sum, active-fraction sum, harvested J sum).
    source_sums: Vec<(u32, f64, f64, f64)>,
}

impl FleetAccumulator {
    fn new(fleet: &Fleet) -> FleetAccumulator {
        FleetAccumulator {
            days: fleet.days,
            sources: fleet.sources.clone(),
            accuracies: Vec::with_capacity(fleet.users as usize),
            active_fractions: Vec::with_capacity(fleet.users as usize),
            brownout_hours: 0,
            source_sums: vec![(0, 0.0, 0.0, 0.0); fleet.sources.len()],
        }
    }

    fn absorb_outcome(&mut self, user: u32, outcome: &UserOutcome) {
        self.accuracies.push(outcome.accuracy);
        self.active_fractions.push(outcome.active_fraction);
        self.brownout_hours += u64::from(outcome.brownout_hours);
        let slot = &mut self.source_sums[user as usize % self.sources.len()];
        slot.0 += 1;
        slot.1 += outcome.accuracy;
        slot.2 += outcome.active_fraction;
        slot.3 += outcome.harvested_j;
    }

    fn finish(self) -> FleetReport {
        let users = self.accuracies.len() as u32;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let per_source = self
            .sources
            .iter()
            .zip(&self.source_sums)
            .map(|(&kind, &(n, acc, active, harvested))| {
                let d = f64::from(n.max(1));
                SourceSlice {
                    kind,
                    users: n,
                    mean_accuracy: acc / d,
                    mean_active_fraction: active / d,
                    mean_harvested_j: harvested / d,
                }
            })
            .collect();
        FleetReport {
            users,
            days: self.days,
            mean_accuracy: mean(&self.accuracies),
            mean_active_fraction: mean(&self.active_fractions),
            accuracy: Percentiles::of(self.accuracies),
            active_fraction: Percentiles::of(self.active_fractions),
            brownout_hours: self.brownout_hours,
            per_source,
            cohorts: users,
            // Filled in by `Fleet::run_with_threads` from the SoA build.
            soa_bytes_per_user: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reap_units::Power;

    fn base_points() -> Vec<OperatingPoint> {
        vec![
            OperatingPoint::new(1, 0.94, Power::from_milliwatts(2.76)),
            OperatingPoint::new(5, 0.76, Power::from_milliwatts(1.20)),
        ]
    }

    fn small_fleet(users: u32, days: u32) -> Fleet {
        Fleet::builder(base_points())
            .users(users)
            .days(days)
            .seed(7)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_degenerate_fleets() {
        assert!(Fleet::builder(base_points()).users(0).build().is_err());
        assert!(Fleet::builder(base_points()).days(0).build().is_err());
        assert!(Fleet::builder(base_points())
            .sources(Vec::new())
            .build()
            .is_err());
        assert!(Fleet::builder(Vec::new()).build().is_err());
    }

    #[test]
    fn users_round_robin_across_all_sources() {
        let fleet = small_fleet(9, 1);
        for (user, kind) in SourceKind::ALL.iter().enumerate() {
            assert_eq!(fleet.user_source(user as u32), *kind);
            assert_eq!(fleet.user_source(user as u32 + 4), *kind);
        }
    }

    #[test]
    fn user_scenarios_are_deterministic_and_personalized() {
        let fleet = small_fleet(8, 1);
        let a = fleet.user_scenario(5).unwrap();
        let b = fleet.user_scenario(5).unwrap();
        assert_eq!(a.problem().alpha(), b.problem().alpha());
        assert_eq!(a.trace(), b.trace());
        assert_eq!(a.problem().points(), b.problem().points());
        // Different users get different alphas and perturbed accuracies.
        let c = fleet.user_scenario(1).unwrap();
        assert_ne!(a.problem().alpha(), c.problem().alpha());
        assert_ne!(
            a.problem().points()[0].accuracy(),
            c.problem().points()[0].accuracy()
        );
        // The perturbation stays within the configured spread.
        for user in 0..8 {
            let s = fleet.user_scenario(user).unwrap();
            for (p, base) in s.problem().points().iter().zip(base_points()) {
                assert!((p.accuracy() - base.accuracy()).abs() <= 0.03 + 1e-12);
                assert_eq!(p.power(), base.power());
            }
        }
    }

    #[test]
    #[should_panic(expected = ">= fleet size")]
    fn user_index_out_of_range_panics() {
        let _ = small_fleet(2, 1).user_scenario(2);
    }

    #[test]
    fn report_aggregates_are_consistent() {
        let fleet = small_fleet(10, 2);
        let report = fleet.run().unwrap();
        assert_eq!(report.users(), 10);
        assert_eq!(report.days(), 2);
        let acc = report.accuracy();
        assert!(acc.p5 <= acc.p50 && acc.p50 <= acc.p95);
        assert!(acc.p5 >= 0.0 && acc.p95 <= 1.0);
        let active = report.active_fraction();
        assert!(active.p5 <= active.p50 && active.p50 <= active.p95);
        assert!(active.p5 >= 0.0 && active.p95 <= 1.0);
        assert!(acc.p5 <= report.mean_accuracy() && report.mean_accuracy() <= acc.p95);
        let per_source_users: u32 = report.per_source().iter().map(|s| s.users).sum();
        assert_eq!(per_source_users, 10);
        for slice in report.per_source() {
            assert!(slice.users > 0, "{} unused", slice.kind);
            assert!(
                slice.mean_harvested_j > 0.0,
                "{} harvested nothing",
                slice.kind
            );
        }
    }

    #[test]
    fn builder_validates_policy_and_forecaster() {
        assert!(Fleet::builder(base_points())
            .policy(Policy::Horizon { lookahead: 0 })
            .build()
            .is_err());
        assert!(Fleet::builder(base_points())
            .policy(Policy::Static(9))
            .build()
            .is_err());
        assert!(Fleet::builder(base_points())
            .forecaster(ForecasterKind::Oracle {
                rel_error: f64::NAN,
                seed: 0,
            })
            .build()
            .is_err());
        let fleet = Fleet::builder(base_points())
            .policy(Policy::Horizon { lookahead: 6 })
            .build()
            .unwrap();
        assert_eq!(fleet.policy, Policy::Horizon { lookahead: 6 });
    }

    #[test]
    fn fleet_runs_the_horizon_policy_at_population_scale() {
        // A small fleet on the receding-horizon policy with the causal
        // EWMA forecaster: every user plans lookahead windows, and the
        // aggregate stays deterministic across thread counts.
        let fleet = Fleet::builder(base_points())
            .users(6)
            .days(2)
            .seed(3)
            .policy(Policy::Horizon { lookahead: 12 })
            .build()
            .unwrap();
        let report = fleet.run().unwrap();
        assert_eq!(report.users(), 6);
        assert!(report.mean_active_fraction() > 0.0);
        let single = fleet.run_with_threads(Some(NonZeroUsize::MIN)).unwrap();
        assert_eq!(single, report, "horizon fleet diverged across threads");
    }

    #[test]
    fn fleet_report_is_bit_identical_across_thread_counts() {
        // Mirrors the `run_matrix` guarantee one level up: sharding users
        // over 1, 2, or many workers must not change a single bit of the
        // aggregate percentiles.
        let fleet = small_fleet(13, 2);
        let unbounded = fleet.run().unwrap();
        for threads in [1usize, 2, 5] {
            let capped = fleet
                .run_with_threads(Some(NonZeroUsize::new(threads).unwrap()))
                .unwrap();
            assert_eq!(capped, unbounded, "{threads}-thread fleet run diverged");
        }
    }

    #[test]
    fn fallback_users_fold_to_their_reduced_reports_bit_for_bit() {
        let bits = |o: &UserOutcome| {
            (
                o.accuracy.to_bits(),
                o.active_fraction.to_bits(),
                o.brownout_hours,
                o.harvested_j.to_bits(),
            )
        };
        let builder = || Fleet::builder(base_points()).users(6).days(2).seed(5);
        let batteryless = |policy| {
            builder()
                .sources(vec![SourceKind::BodyHeat, SourceKind::Kinetic])
                .blackout(21, 0.3)
                .policy(policy)
                .intermittent(crate::IntermittentConfig::wearable_default())
                .dt_seconds(300)
        };
        let fleets = [
            batteryless(Policy::Intermittent),
            batteryless(Policy::Reap),
            builder().policy(Policy::Horizon { lookahead: 4 }),
            builder().policy(Policy::Static(5)),
            builder().dt_seconds(900),
        ];
        for fleet in fleets {
            let fleet = fleet.build().unwrap();
            let policy = fleet.policy;
            let case = format!("{policy} at dt {} s", fleet.dt_seconds);
            assert!(!fleet.runs_on_kernel(), "{case}");
            let reduced: Vec<_> = (0..fleet.users())
                .map(|u| {
                    let report = fleet.user_scenario(u).unwrap().run(policy).unwrap();
                    bits(&outcome(&report.totals(), fleet.days()))
                })
                .collect();
            assert!(
                reduced.iter().any(|&(acc, ..)| f64::from_bits(acc) > 0.0),
                "{case}: no user committed any work"
            );
            for threads in [1, 2] {
                let folded: Vec<_> = fleet
                    .scalar_outcomes(NonZeroUsize::new(threads))
                    .unwrap()
                    .iter()
                    .map(bits)
                    .collect();
                assert_eq!(folded, reduced, "{case} on {threads} threads");
            }
        }
    }

    #[test]
    fn percentiles_interpolate() {
        let p = Percentiles::of(vec![4.0, 1.0, 2.0, 3.0, 0.0]);
        assert!((p.p50 - 2.0).abs() < 1e-12);
        assert!((p.p5 - 0.2).abs() < 1e-12);
        assert!((p.p95 - 3.8).abs() < 1e-12);
        let single = Percentiles::of(vec![1.5]);
        assert_eq!((single.p5, single.p50, single.p95), (1.5, 1.5, 1.5));
    }

    #[test]
    #[should_panic(expected = "empty population")]
    fn percentiles_of_empty_panic() {
        let _ = Percentiles::of(Vec::new());
    }
}
