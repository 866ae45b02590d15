//! Scenario configuration.

use reap_core::{OperatingPoint, ReapProblem};
use reap_harvest::{
    Battery, BudgetAllocator, EwmaAllocator, EwmaForecaster, GreedyAllocator, HarvestForecaster,
    HarvestTrace, OracleForecaster, UniformDailyAllocator,
};

use crate::clock::IntermittentConfig;
use crate::engine::{self, Policy};
use crate::{SimError, SimReport};

/// How the hourly budgets are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetMode {
    /// Budgets are stepped hour by hour against a per-run virtual
    /// battery that assumes each budget is fully spent, so they depend
    /// only on the harvest trace and every policy sees the **same**
    /// budget sequence. This is the paper's evaluation protocol: "these
    /// energy budgets are then used to evaluate REAP and the static
    /// design points".
    #[default]
    OpenLoop,
    /// Budgets react to the policy's own battery trajectory. More
    /// realistic, but policies diverge; provided as an ablation.
    ClosedLoop,
}

/// Which budget-allocation policy the scenario uses (see
/// [`reap_harvest::BudgetAllocator`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocatorKind {
    /// Kansal-style per-slot EWMA (the default).
    #[default]
    Ewma,
    /// Spend-as-you-go.
    Greedy,
    /// Trailing daily harvest split uniformly.
    UniformDaily,
}

impl AllocatorKind {
    pub(crate) fn instantiate(self) -> Box<dyn BudgetAllocator> {
        match self {
            AllocatorKind::Ewma => Box::new(EwmaAllocator::new()),
            AllocatorKind::Greedy => Box::new(GreedyAllocator),
            AllocatorKind::UniformDaily => Box::new(UniformDailyAllocator::new()),
        }
    }
}

/// Which harvest forecaster feeds [`Policy::Horizon`]'s lookahead window
/// (see [`reap_harvest::HarvestForecaster`]). Ignored by the myopic
/// policies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ForecasterKind {
    /// Causal per-hour-of-day EWMA projection (the default): the
    /// deployable forecaster, sharing the allocator's diurnal estimator.
    #[default]
    Ewma,
    /// Seeded noisy oracle over the scenario's own trace: the true future
    /// perturbed hour-by-hour by up to `rel_error` (e.g. `0.2` = ±20%).
    /// `rel_error = 0` is the perfect-information upper bound.
    Oracle {
        /// Relative forecast error in `[0, 1]`.
        rel_error: f64,
        /// Seed of the deterministic per-hour perturbation.
        seed: u64,
    },
}

impl ForecasterKind {
    pub(crate) fn instantiate(self, trace: &HarvestTrace) -> Box<dyn HarvestForecaster> {
        match self {
            ForecasterKind::Ewma => Box::new(EwmaForecaster::new()),
            ForecasterKind::Oracle { rel_error, seed } => Box::new(OracleForecaster::new(
                trace.iter().collect(),
                rel_error,
                seed,
            )),
        }
    }
}

/// A complete simulation scenario: harvest trace, device operating points,
/// battery, allocator policy, and the optimizer's `alpha`.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub(crate) trace: HarvestTrace,
    pub(crate) problem: ReapProblem,
    pub(crate) battery: Battery,
    pub(crate) allocator: AllocatorKind,
    pub(crate) budget_mode: BudgetMode,
    pub(crate) forecaster: ForecasterKind,
    /// Execution step length in seconds (3600, the default, is one step
    /// per hour): the hour loop's step and the event core's epoch.
    pub(crate) dt_seconds: u32,
    /// Capacitor-scale intermittent operation, when configured.
    pub(crate) intermittent: Option<IntermittentConfig>,
    /// Record the event core's event stream (crash-point harnesses).
    pub(crate) trace_events: bool,
}

/// Builder for [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    trace: HarvestTrace,
    points: Vec<OperatingPoint>,
    alpha: f64,
    battery: Battery,
    allocator: AllocatorKind,
    budget_mode: BudgetMode,
    forecaster: ForecasterKind,
    dt_seconds: u32,
    intermittent: Option<IntermittentConfig>,
    trace_events: bool,
}

impl Scenario {
    /// Starts a builder from a harvest trace — from *any*
    /// [`HarvestSource`](reap_harvest::HarvestSource), not just the
    /// paper's outdoor solar panel: [`HarvestTrace::september_like`]
    /// reproduces the Fig. 7 solar month, while
    /// [`SourceKind::instantiate`](reap_harvest::SourceKind::instantiate)
    /// yields indoor-photovoltaic, body-heat, and kinetic months with the
    /// same shape.
    ///
    /// # Examples
    ///
    /// ```
    /// use reap_harvest::{HarvestSource, SourceKind};
    /// use reap_sim::{Policy, Scenario};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// // A September month on a body-heat TEG instead of the solar panel.
    /// let trace = SourceKind::BodyHeat.instantiate(7).generate(244, 30)?;
    /// let report = Scenario::builder(trace)
    ///     .points(reap_device::paper_table2_operating_points())
    ///     .build()?
    ///     .run(Policy::Reap)?;
    /// assert_eq!(report.days(), 30);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn builder(trace: HarvestTrace) -> ScenarioBuilder {
        ScenarioBuilder {
            trace,
            points: Vec::new(),
            alpha: 1.0,
            battery: Battery::small_wearable(),
            allocator: AllocatorKind::default(),
            budget_mode: BudgetMode::default(),
            forecaster: ForecasterKind::default(),
            dt_seconds: 3600,
            intermittent: None,
            trace_events: false,
        }
    }

    /// The optimization problem the policies solve each hour.
    #[must_use]
    pub fn problem(&self) -> &ReapProblem {
        &self.problem
    }

    /// The harvest trace driving the scenario.
    #[must_use]
    pub fn trace(&self) -> &HarvestTrace {
        &self.trace
    }

    /// Runs a batteryless scenario like [`Scenario::run`], returning the
    /// report *plus* the event core's statistics and energy ledger
    /// ([`crate::ClockStats`]).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] on a battery scenario (one without
    /// an [`IntermittentConfig`]), and otherwise the same as
    /// [`Scenario::run`].
    pub fn run_event_driven(&self, policy: Policy) -> Result<crate::VdtRun, SimError> {
        match &self.intermittent {
            Some(config) => crate::clock::run_intermittent_mode(self, policy, config),
            None => Err(SimError::InvalidParameter(
                "the event core runs only batteryless scenarios; configure one with \
                 ScenarioBuilder::intermittent"
                    .to_owned(),
            )),
        }
    }

    /// Runs the scenario under a policy, returning the hour-by-hour
    /// report.
    ///
    /// # Errors
    ///
    /// Propagates optimizer failures ([`SimError::Core`]) and rejects
    /// static policies that reference unknown point ids.
    pub fn run(&self, policy: Policy) -> Result<SimReport, SimError> {
        engine::run(self, policy)
    }

    /// Runs REAP and every static point, returning
    /// `(reap, statics-in-problem-order)`. Convenience for comparison
    /// figures; delegates to [`run_matrix`](crate::run_matrix), so the
    /// policies run in parallel. In open loop every policy sees the same
    /// budget sequence, because each run steps its allocator against a
    /// virtual battery that depends only on the trace.
    ///
    /// # Errors
    ///
    /// Same as [`Scenario::run`].
    pub fn run_all(&self) -> Result<(SimReport, Vec<SimReport>), SimError> {
        let mut policies = vec![Policy::Reap];
        policies.extend(self.problem.points().iter().map(|p| Policy::Static(p.id())));
        let mut row = crate::run_matrix(std::slice::from_ref(self), &policies)?
            .pop()
            .expect("one scenario in, one row out");
        let statics = row.split_off(1);
        let reap = row.pop().expect("REAP report");
        Ok((reap, statics))
    }
}

impl ScenarioBuilder {
    /// Sets the operating points (e.g.
    /// `reap_device::paper_table2_operating_points()`).
    #[must_use]
    pub fn points(mut self, points: Vec<OperatingPoint>) -> Self {
        self.points = points;
        self
    }

    /// Sets the optimizer's accuracy/active-time exponent (default 1).
    #[must_use]
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the battery (default: [`Battery::small_wearable`]).
    #[must_use]
    pub fn battery(mut self, battery: Battery) -> Self {
        self.battery = battery;
        self
    }

    /// Sets the budget allocator policy (default: EWMA).
    #[must_use]
    pub fn allocator(mut self, allocator: AllocatorKind) -> Self {
        self.allocator = allocator;
        self
    }

    /// Sets the budget mode (default: open-loop, the paper's protocol).
    /// A batteryless scenario ([`ScenarioBuilder::intermittent`]) always
    /// budgets closed-loop.
    #[must_use]
    pub fn budget_mode(mut self, budget_mode: BudgetMode) -> Self {
        self.budget_mode = budget_mode;
        self
    }

    /// Sets the harvest forecaster feeding [`Policy::Horizon`] (default:
    /// the causal EWMA forecaster). Myopic policies ignore it.
    #[must_use]
    pub fn forecaster(mut self, forecaster: ForecasterKind) -> Self {
        self.forecaster = forecaster;
        self
    }

    /// Sets the execution step length in seconds (default 3600 = one
    /// hour). Must divide an hour evenly. The hour loop then executes
    /// each hour's plan in `3600 / dt` equal steps; a batteryless
    /// scenario's event core runs epochs of this length.
    #[must_use]
    pub fn dt_seconds(mut self, dt_seconds: u32) -> Self {
        self.dt_seconds = dt_seconds;
        self
    }

    /// Configures batteryless intermittent operation: the scenario runs
    /// on the event core against `config`'s capacitor instead of the
    /// battery, with power-failure + checkpoint/restore semantics. Its
    /// hourly budgets run closed-loop against the live store: the
    /// open-loop protocol steps them against a virtual copy of a battery
    /// the scenario does not have.
    #[must_use]
    pub fn intermittent(mut self, config: IntermittentConfig) -> Self {
        self.intermittent = Some(config);
        self
    }

    /// Records the event core's event stream in
    /// [`VdtRun::events`](crate::VdtRun::events) (default off — the log
    /// exists for crash-point harnesses, not production runs).
    #[must_use]
    pub fn trace_events(mut self, trace_events: bool) -> Self {
        self.trace_events = trace_events;
        self
    }

    /// Validates and builds the scenario.
    ///
    /// # Errors
    ///
    /// [`SimError::Core`] when the operating-point set is invalid (empty,
    /// duplicate ids, bad alpha, ...); [`SimError::InvalidParameter`] for
    /// a non-finite or negative oracle forecast error, or a `dt_seconds`
    /// that does not divide an hour evenly.
    pub fn build(self) -> Result<Scenario, SimError> {
        if let ForecasterKind::Oracle { rel_error, .. } = self.forecaster {
            if !rel_error.is_finite() || rel_error < 0.0 {
                return Err(SimError::InvalidParameter(format!(
                    "oracle forecast error {rel_error} must be finite and non-negative"
                )));
            }
        }
        if self.dt_seconds == 0 || 3600 % self.dt_seconds != 0 {
            return Err(SimError::InvalidParameter(format!(
                "dt_seconds {} must divide an hour (3600) evenly",
                self.dt_seconds
            )));
        }
        let problem = ReapProblem::builder()
            .alpha(self.alpha)
            .points(self.points)
            .build()?;
        let budget_mode = if self.intermittent.is_some() {
            BudgetMode::ClosedLoop
        } else {
            self.budget_mode
        };
        Ok(Scenario {
            trace: self.trace,
            problem,
            battery: self.battery,
            allocator: self.allocator,
            budget_mode,
            forecaster: self.forecaster,
            dt_seconds: self.dt_seconds,
            intermittent: self.intermittent,
            trace_events: self.trace_events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reap_harvest::HarvestTrace;
    use reap_units::Power;

    fn points() -> Vec<OperatingPoint> {
        vec![
            OperatingPoint::new(1, 0.94, Power::from_milliwatts(2.76)),
            OperatingPoint::new(5, 0.76, Power::from_milliwatts(1.20)),
        ]
    }

    #[test]
    fn builder_produces_runnable_scenario() {
        let s = Scenario::builder(HarvestTrace::september_like(1))
            .points(points())
            .alpha(2.0)
            .allocator(AllocatorKind::Greedy)
            .build()
            .unwrap();
        assert_eq!(s.problem().alpha(), 2.0);
        assert_eq!(s.trace().days(), 30);
    }

    #[test]
    fn empty_points_fail_at_build() {
        let err = Scenario::builder(HarvestTrace::september_like(1))
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::Core(_)));
    }

    #[test]
    fn forecaster_kinds_instantiate_and_validate() {
        let trace = HarvestTrace::september_like(1);
        for kind in [
            ForecasterKind::Ewma,
            ForecasterKind::Oracle {
                rel_error: 0.2,
                seed: 7,
            },
        ] {
            assert!(!kind.instantiate(&trace).name().is_empty());
        }
        // The perfect oracle reproduces the trace it wraps.
        let oracle = ForecasterKind::Oracle {
            rel_error: 0.0,
            seed: 0,
        }
        .instantiate(&trace);
        let window = oracle.forecast(0, trace.len_hours());
        assert_eq!(window, trace.iter().collect::<Vec<_>>());
        // Degenerate error levels are rejected at build time.
        let err = Scenario::builder(HarvestTrace::september_like(1))
            .points(points())
            .forecaster(ForecasterKind::Oracle {
                rel_error: -0.5,
                seed: 0,
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidParameter(_)));
    }

    #[test]
    fn allocator_kinds_instantiate() {
        for kind in [
            AllocatorKind::Ewma,
            AllocatorKind::Greedy,
            AllocatorKind::UniformDaily,
        ] {
            assert!(!kind.instantiate().name().is_empty());
        }
    }
}
