//! The hour-by-hour simulation loop.

use std::fmt;

use reap_core::{static_schedule, FrontierTable, RecedingHorizonController, Schedule};
use reap_harvest::{step, Battery, BudgetAllocator, HarvestForecaster};
use reap_units::Energy;

use crate::report::{HourRecord, SimReport};
use crate::{BudgetMode, Scenario, SimError};

/// The planning policy under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// The REAP optimizer (mixes design points each hour).
    Reap,
    /// A single static design point, duty-cycled against the budget.
    Static(u8),
    /// The receding-horizon (MPC) policy: each hour, plan a joint LP over
    /// a `lookahead`-hour harvest forecast (from the scenario's
    /// [`ForecasterKind`](crate::ForecasterKind)), execute only the first
    /// hour, re-plan next hour. Bypasses the budget-allocation layer —
    /// the joint LP *is* the allocation.
    Horizon {
        /// Forecast window length, in hours (must be at least 1).
        lookahead: usize,
    },
    /// The intermittency-aware burst policy (Approxify-style): at every
    /// execution epoch pick the operating point that maximizes the
    /// expected completed work of the *remaining charge burst* — epochs
    /// until the capacitor hits the brownout threshold, each taxed with
    /// the checkpoint cost. Only meaningful on scenarios with an
    /// [`IntermittentConfig`](crate::IntermittentConfig); the scalar
    /// hourly engine rejects it.
    Intermittent,
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Reap => f.write_str("REAP"),
            Policy::Static(id) => write!(f, "DP{id}"),
            Policy::Horizon { lookahead } => write!(f, "MPC{lookahead}"),
            Policy::Intermittent => f.write_str("INT"),
        }
    }
}

/// The per-hour planning pipeline: budget grant, floor clamp, and the
/// policy's plan. The battery loop below and the event core's non-burst
/// policies ([`crate::clock`]) both plan through it, calling
/// [`HourPlanner::plan_hour`] then [`HourPlanner::end_hour`] once per
/// hour, in order.
pub(crate) struct HourPlanner<'s> {
    scenario: &'s Scenario,
    plan: HourPlan,
}

/// Each policy's planning state, and nothing else.
enum HourPlan {
    /// REAP plans each granted budget with one lookup on the run's
    /// frontier table, built once like the SoA kernel's and the
    /// daemon's.
    Reap(FrontierTable, BudgetLayer),
    /// A static point duty-cycles each granted budget.
    Static(u8, BudgetLayer),
    /// The receding-horizon controller plans its forecast window
    /// jointly: the joint LP is the allocation, so MPC has no budget
    /// layer.
    Horizon {
        controller: RecedingHorizonController,
        forecaster: Box<dyn HarvestForecaster>,
    },
}

/// The budgeted policies' allocation layer: the allocator and, in open
/// loop, the virtual battery it budgets against.
struct BudgetLayer {
    allocator: Box<dyn BudgetAllocator>,
    /// The open-loop protocol's *virtual* battery, which assumes every
    /// granted budget is fully spent: the allocator budgets against it
    /// instead of the real battery, so the budget sequence depends only
    /// on the harvest trace. `None` in closed loop.
    virtual_battery: Option<Battery>,
    floor: Energy,
    /// The most the virtual battery pays per hour: the saturation
    /// budget, beyond which no plan draws more.
    max_spend: Energy,
    harvested_last_hour: Energy,
}

impl BudgetLayer {
    fn new(scenario: &Scenario) -> BudgetLayer {
        BudgetLayer {
            allocator: scenario.allocator.instantiate(),
            virtual_battery: (scenario.budget_mode == BudgetMode::OpenLoop)
                .then(|| scenario.battery.clone()),
            floor: scenario.problem.min_budget(),
            max_spend: scenario.problem.saturation_budget(),
            harvested_last_hour: Energy::ZERO,
        }
    }

    /// The budget for hour-of-day `hour`, proposed by the allocator —
    /// open-loop against the virtual battery, closed-loop against the
    /// run's own `battery`. Optimistic proposals are fine (execution
    /// browns out when the actual supply falls short), but the floor
    /// must stay reachable whenever the battery, or the hour's own
    /// harvest, which execution draws first, can still provide it, so
    /// the monitoring circuitry is kept alive through dark hours.
    fn grant(&mut self, hour: u32, harvested: Energy, battery: &Battery) -> Energy {
        let proposed = self.allocator.allocate(
            hour,
            self.harvested_last_hour,
            self.virtual_battery.as_ref().unwrap_or(battery),
        );
        match &mut self.virtual_battery {
            // The grant counts the hour's own harvest toward the floor:
            // execution banks the incoming harvest before (virtually)
            // spending the budget, so a dark battery must not deny the
            // floor in a bright hour.
            Some(virtual_battery) => {
                virtual_battery.open_loop(proposed, self.floor, self.max_spend, harvested)
            }
            None => Energy::from_joules(step::floor_clamp(
                proposed.joules(),
                self.floor.joules(),
                (battery.deliverable() + harvested).joules(),
            )),
        }
    }
}

impl<'s> HourPlanner<'s> {
    /// Builds the planning pipeline for one `(scenario, policy)` run.
    ///
    /// Rejects unknown static ids up front, even if the run never plans,
    /// and [`Policy::Intermittent`]: burst planning has no hourly budget
    /// layer — the event core handles it directly.
    pub(crate) fn new(scenario: &'s Scenario, policy: Policy) -> Result<Self, SimError> {
        let plan = match policy {
            Policy::Reap => HourPlan::Reap(
                scenario.problem.frontier().table(),
                BudgetLayer::new(scenario),
            ),
            Policy::Static(id) => {
                scenario.problem.point(id)?;
                HourPlan::Static(id, BudgetLayer::new(scenario))
            }
            Policy::Horizon { lookahead } => HourPlan::Horizon {
                controller: RecedingHorizonController::new(scenario.problem.clone(), lookahead)?,
                forecaster: scenario.forecaster.instantiate(&scenario.trace),
            },
            Policy::Intermittent => {
                return Err(SimError::InvalidParameter(
                    "Policy::Intermittent has no hourly budget pipeline; it requires a \
                     scenario with an IntermittentConfig (Scenario::builder().intermittent(..))"
                        .to_owned(),
                ))
            }
        };
        Ok(HourPlanner { scenario, plan })
    }

    /// Budget-and-plan for trace hour `i`: the budgeted policies plan
    /// the hour's grant (see [`BudgetLayer::grant`]); the MPC policy
    /// plans its whole forecast window jointly and reports the planned
    /// energy as the budget.
    pub(crate) fn plan_hour(
        &mut self,
        i: usize,
        harvested: Energy,
        battery: &Battery,
    ) -> Result<(Energy, Schedule), SimError> {
        let hour = (i % 24) as u32;
        match &mut self.plan {
            HourPlan::Reap(table, layer) => {
                let budget = layer.grant(hour, harvested, battery);
                Ok((budget, table.decide(budget.joules())))
            }
            HourPlan::Static(id, layer) => {
                let budget = layer.grant(hour, harvested, battery);
                let planned =
                    static_schedule(&self.scenario.problem, *id, budget.max(layer.floor))?;
                Ok((budget, planned))
            }
            HourPlan::Horizon {
                controller,
                forecaster,
            } => {
                let window = controller
                    .lookahead()
                    .min(self.scenario.trace.len_hours() - i);
                let forecast = forecaster.forecast(i, window);
                let planned = controller.plan(&forecast, battery.level(), battery.capacity())?;
                Ok((planned.energy(), planned))
            }
        }
    }

    /// Closes trace hour `i`: the forecaster observes the realized
    /// harvest, or the allocator's last-hour memory advances. Call after
    /// the hour's record is final, exactly once per completed hour.
    pub(crate) fn end_hour(&mut self, i: usize, harvested: Energy) {
        match &mut self.plan {
            HourPlan::Reap(_, layer) | HourPlan::Static(_, layer) => {
                layer.harvested_last_hour = harvested;
            }
            HourPlan::Horizon { forecaster, .. } => forecaster.observe(i, harvested),
        }
    }

    /// The name of the energy layer that actually drove the run: the
    /// budget allocator for the myopic policies, the forecaster for the
    /// MPC.
    pub(crate) fn energy_layer(&self) -> &'static str {
        match &self.plan {
            HourPlan::Reap(_, layer) | HourPlan::Static(_, layer) => layer.allocator.name(),
            HourPlan::Horizon { forecaster, .. } => forecaster.name(),
        }
    }
}

/// Runs `scenario` under `policy`, with budgets derived from the
/// scenario's own mode, and collects its hours into a report.
pub(crate) fn run(scenario: &Scenario, policy: Policy) -> Result<SimReport, SimError> {
    let mut hours = Vec::with_capacity(scenario.trace.len_hours());
    let energy_layer = run_hours(scenario, policy, |hour| hours.push(hour))?;
    Ok(SimReport::new(
        policy,
        energy_layer,
        scenario.problem.alpha(),
        hours,
    ))
}

/// Runs `scenario` under `policy`, handing every closed hour's record to
/// `close_hour`, in order (a report keeps them; a fleet folds them into
/// a user's totals), and returns the name of the energy layer that drove
/// the run.
///
/// Batteryless scenarios (an [`IntermittentConfig`](crate::IntermittentConfig))
/// take the event core in [`crate::clock`]. Everything else runs the hour
/// loop: each trace hour is planned once, then executed in `3600 / dt`
/// equal steps, each spreading the hour's harvest and planned energy
/// evenly and going through [`Battery::execute`](reap_harvest::Battery::execute).
/// At one step per hour the step's realized fraction is the hour's; at
/// sub-hour steps the hour realizes the supplied share of its plan.
pub(crate) fn run_hours(
    scenario: &Scenario,
    policy: Policy,
    mut close_hour: impl FnMut(HourRecord),
) -> Result<&'static str, SimError> {
    if let Some(config) = &scenario.intermittent {
        return crate::clock::run_intermittent(scenario, policy, config, close_hour)
            .map(|(_, _, energy_layer)| energy_layer);
    }
    let mut planner = HourPlanner::new(scenario, policy)?;
    let mut battery = scenario.battery.clone();
    let steps = 3600 / scenario.dt_seconds;
    let step_frac = 1.0 / f64::from(steps);

    for (i, harvested) in scenario.trace.iter().enumerate() {
        let (budget, planned) = planner.plan_hour(i, harvested, &battery)?;
        let needed = planned.energy();
        let realized_fraction = if steps == 1 {
            battery.execute(harvested, needed)
        } else {
            let (step_harvest, step_needed) = (harvested * step_frac, needed * step_frac);
            let mut supplied = 0.0;
            for _ in 0..steps {
                supplied += step_needed.joules() * battery.execute(step_harvest, step_needed);
            }
            if needed.joules() > 0.0 {
                (supplied / needed.joules()).clamp(0.0, 1.0)
            } else {
                1.0
            }
        };
        close_hour(HourRecord {
            day: (i / 24) as u32,
            hour: (i % 24) as u32,
            harvested,
            budget,
            planned,
            realized_fraction,
            battery_level: battery.level(),
        });
        planner.end_hour(i, harvested);
    }
    Ok(planner.energy_layer())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AllocatorKind, Scenario};
    use reap_core::OperatingPoint;
    use reap_harvest::HarvestTrace;
    use reap_units::Power;

    fn paper_points() -> Vec<OperatingPoint> {
        let specs = [
            (1u8, 0.94, 2.76),
            (2, 0.93, 2.30),
            (3, 0.92, 1.82),
            (4, 0.90, 1.64),
            (5, 0.76, 1.20),
        ];
        specs
            .iter()
            .map(|&(id, a, mw)| OperatingPoint::new(id, a, Power::from_milliwatts(mw)))
            .collect()
    }

    fn scenario(seed: u64) -> Scenario {
        Scenario::builder(HarvestTrace::september_like(seed))
            .points(paper_points())
            .build()
            .unwrap()
    }

    #[test]
    fn policy_names() {
        assert_eq!(Policy::Reap.to_string(), "REAP");
        assert_eq!(Policy::Static(3).to_string(), "DP3");
        assert_eq!(Policy::Horizon { lookahead: 24 }.to_string(), "MPC24");
        assert_eq!(Policy::Horizon { lookahead: 4 }.to_string(), "MPC4");
        assert_eq!(Policy::Intermittent.to_string(), "INT");
    }

    /// A 3-day periodic trace (2 J for hours 6..=17, dark otherwise) on a
    /// loss-free battery: the setting where MPC-with-perfect-forecast
    /// must reproduce the joint-LP optimum exactly.
    fn periodic_72h() -> HarvestTrace {
        let hourly: Vec<reap_units::Energy> = (0..72)
            .map(|t| {
                let h = t % 24;
                reap_units::Energy::from_joules(if (6..=17).contains(&h) { 2.0 } else { 0.0 })
            })
            .collect();
        HarvestTrace::new(244, hourly).unwrap()
    }

    fn lossless_battery() -> Battery {
        Battery::new(
            reap_units::Energy::from_joules(60.0),
            reap_units::Energy::from_joules(30.0),
            1.0,
            1.0,
        )
        .unwrap()
    }

    #[test]
    fn mpc_with_perfect_forecast_matches_the_joint_lp_optimum() {
        // The tentpole acceptance bar: Policy::Horizon { lookahead: 24 }
        // driven by the zero-error oracle realizes, hour by hour, the
        // same total objective as the offline joint LP over the whole
        // 72-hour trace — receding-horizon execution loses nothing when
        // the forecast is exact.
        let trace = periodic_72h();
        let scenario = Scenario::builder(trace.clone())
            .points(paper_points())
            .battery(lossless_battery())
            .forecaster(crate::ForecasterKind::Oracle {
                rel_error: 0.0,
                seed: 0,
            })
            .build()
            .unwrap();
        let report = scenario.run(Policy::Horizon { lookahead: 24 }).unwrap();
        // Perfect forecast + loss-free battery: every plan executes.
        assert_eq!(report.brownout_hours(), 0);

        let forecast: Vec<reap_units::Energy> = trace.iter().collect();
        let joint = reap_core::plan_horizon(
            scenario.problem(),
            &forecast,
            reap_units::Energy::from_joules(30.0),
            reap_units::Energy::from_joules(60.0),
        )
        .unwrap();
        let mpc_total = report.total_objective(1.0);
        let joint_total = joint.total_objective(1.0);
        assert!(
            (mpc_total - joint_total).abs() < 1e-6,
            "MPC realized {mpc_total} vs joint optimum {joint_total}"
        );
    }

    #[test]
    fn mpc_beats_the_myopic_policies_on_the_solar_month() {
        // Even against REAP with the shared open-loop budget protocol,
        // lookahead over a perfect forecast banks noon surpluses for the
        // night and wins on total objective.
        let trace = HarvestTrace::september_like(31);
        let build = |forecaster| {
            Scenario::builder(trace.clone())
                .points(paper_points())
                .forecaster(forecaster)
                .build()
                .unwrap()
        };
        let oracle = crate::ForecasterKind::Oracle {
            rel_error: 0.0,
            seed: 0,
        };
        let mpc = build(oracle)
            .run(Policy::Horizon { lookahead: 24 })
            .unwrap();
        let reap = build(oracle).run(Policy::Reap).unwrap();
        assert!(
            mpc.total_objective(1.0) > reap.total_objective(1.0),
            "MPC24 {} vs REAP {}",
            mpc.total_objective(1.0),
            reap.total_objective(1.0)
        );
    }

    #[test]
    fn noisy_mpc_still_beats_closed_loop_reap_on_indoor_pv() {
        // Forecast-error robustness acceptance bar: at ±20% hourly
        // forecast error the receding-horizon policy still beats REAP's
        // closed-loop mean accuracy on the indoor-photovoltaic scenario.
        use reap_harvest::SourceKind;
        let trace = SourceKind::IndoorPhotovoltaic
            .instantiate(7)
            .generate(244, 10)
            .unwrap();
        let mpc = Scenario::builder(trace.clone())
            .points(paper_points())
            .forecaster(crate::ForecasterKind::Oracle {
                rel_error: 0.2,
                seed: 11,
            })
            .build()
            .unwrap()
            .run(Policy::Horizon { lookahead: 24 })
            .unwrap();
        let reap = Scenario::builder(trace)
            .points(paper_points())
            .budget_mode(crate::BudgetMode::ClosedLoop)
            .build()
            .unwrap()
            .run(Policy::Reap)
            .unwrap();
        assert!(
            mpc.mean_accuracy() > reap.mean_accuracy(),
            "noisy MPC24 accuracy {} vs closed-loop REAP {}",
            mpc.mean_accuracy(),
            reap.mean_accuracy()
        );
    }

    #[test]
    fn mpc_with_ewma_forecaster_runs_and_stays_sane() {
        // The deployable configuration: causal EWMA forecasts only.
        let report = Scenario::builder(HarvestTrace::september_like(17))
            .points(paper_points())
            .build()
            .unwrap()
            .run(Policy::Horizon { lookahead: 12 })
            .unwrap();
        assert_eq!(report.hours().len(), 720);
        assert_eq!(report.policy_name(), "MPC12");
        for h in report.hours() {
            assert!((0.0..=1.0).contains(&h.realized_fraction));
            assert!(!h.battery_level.is_negative());
        }
        // It must actually do work, not hide behind the fallback.
        assert!(report.total_active_time().hours() > 24.0);
    }

    #[test]
    fn mpc_lookahead_one_degenerates_gracefully() {
        let report = Scenario::builder(HarvestTrace::september_like(19))
            .points(paper_points())
            .forecaster(crate::ForecasterKind::Oracle {
                rel_error: 0.0,
                seed: 0,
            })
            .build()
            .unwrap()
            .run(Policy::Horizon { lookahead: 1 })
            .unwrap();
        assert_eq!(report.hours().len(), 720);
        assert_eq!(report.policy_name(), "MPC1");
    }

    #[test]
    fn mpc_rejects_zero_lookahead() {
        let err = scenario(23)
            .run(Policy::Horizon { lookahead: 0 })
            .unwrap_err();
        assert!(matches!(err, SimError::Core(_)));
    }

    #[test]
    fn floor_stays_reachable_on_dark_battery_bright_harvest() {
        // Regression for the open-loop floor clamp: an empty battery in a
        // bright hour must not deny the monitoring floor — the hour's own
        // harvest is banked before the budget is (virtually) spent.
        let hourly: Vec<reap_units::Energy> = (0..24)
            .map(|h| reap_units::Energy::from_joules(if h >= 6 { 5.0 } else { 0.0 }))
            .collect();
        let trace = HarvestTrace::new(244, hourly).unwrap();
        let dead_battery = Battery::new(
            reap_units::Energy::from_joules(60.0),
            reap_units::Energy::ZERO,
            0.95,
            0.95,
        )
        .unwrap();
        let scenario = Scenario::builder(trace)
            .points(paper_points())
            .battery(dead_battery)
            .build()
            .unwrap();
        let floor = scenario.problem().min_budget();
        let open = scenario.run(Policy::Reap).unwrap();
        for h in open.hours().iter().skip(6) {
            assert!(
                h.budget >= floor,
                "hour {}: budget {} denies the floor {floor} despite 5 J harvest",
                h.hour,
                h.budget
            );
        }
        // Closed loop honors the same reachability rule.
        let closed = Scenario::builder(scenario.trace().clone())
            .points(paper_points())
            .battery(
                Battery::new(
                    reap_units::Energy::from_joules(60.0),
                    reap_units::Energy::ZERO,
                    0.95,
                    0.95,
                )
                .unwrap(),
            )
            .budget_mode(crate::BudgetMode::ClosedLoop)
            .build()
            .unwrap()
            .run(Policy::Reap)
            .unwrap();
        for h in closed.hours().iter().skip(6) {
            assert!(
                h.budget >= floor,
                "closed-loop hour {}: budget {} denies the floor",
                h.hour,
                h.budget
            );
        }
    }

    #[test]
    fn unknown_static_id_fails_fast() {
        let err = scenario(1).run(Policy::Static(77)).unwrap_err();
        assert!(matches!(err, SimError::Core(_)));
    }

    #[test]
    fn month_simulation_produces_720_hours() {
        let report = scenario(1).run(Policy::Reap).unwrap();
        assert_eq!(report.hours().len(), 720);
        assert_eq!(report.policy_name(), "REAP");
        assert_eq!(report.allocator_name(), "ewma");
    }

    #[test]
    fn energy_is_conserved_every_hour() {
        // battery(t) <= battery(t-1) + harvested (charging can only come
        // from harvest; consumption only lowers it).
        let report = scenario(2).run(Policy::Reap).unwrap();
        let initial = Battery::small_wearable().level();
        let mut prev = initial;
        for h in report.hours() {
            assert!(
                h.battery_level.joules() <= prev.joules() + h.harvested.joules() + 1e-9,
                "battery grew out of thin air on day {} hour {}",
                h.day,
                h.hour
            );
            prev = h.battery_level;
        }
    }

    #[test]
    fn realized_fraction_is_sane() {
        let report = scenario(3).run(Policy::Static(1)).unwrap();
        for h in report.hours() {
            assert!((0.0..=1.0).contains(&h.realized_fraction));
        }
    }

    #[test]
    fn reap_beats_static_dp1_over_a_month() {
        let s = scenario(4);
        let reap = s.run(Policy::Reap).unwrap();
        let dp1 = s.run(Policy::Static(1)).unwrap();
        assert!(
            reap.total_objective(1.0) > dp1.total_objective(1.0),
            "REAP {} vs DP1 {}",
            reap.total_objective(1.0),
            dp1.total_objective(1.0)
        );
        // And REAP's active time beats DP1's substantially (paper: +66%).
        assert!(
            reap.total_active_time().hours() > 1.2 * dp1.total_active_time().hours(),
            "active {} vs {}",
            reap.total_active_time(),
            dp1.total_active_time()
        );
    }

    #[test]
    fn allocator_choice_changes_the_outcome() {
        let base = scenario(5);
        let greedy = Scenario::builder(HarvestTrace::september_like(5))
            .points(paper_points())
            .allocator(AllocatorKind::Greedy)
            .build()
            .unwrap();
        let a = base.run(Policy::Reap).unwrap();
        let b = greedy.run(Policy::Reap).unwrap();
        assert_ne!(
            a.total_objective(1.0),
            b.total_objective(1.0),
            "allocators should not behave identically"
        );
    }

    #[test]
    fn determinism() {
        let a = scenario(6).run(Policy::Reap).unwrap();
        let b = scenario(6).run(Policy::Reap).unwrap();
        assert_eq!(a.total_objective(1.0), b.total_objective(1.0));
        assert_eq!(a.hours().len(), b.hours().len());
    }

    #[test]
    fn open_loop_budgets_are_policy_independent() {
        let s = scenario(7);
        let reap = s.run(Policy::Reap).unwrap();
        let dp5 = s.run(Policy::Static(5)).unwrap();
        for (a, b) in reap.hours().iter().zip(dp5.hours()) {
            assert_eq!(a.budget, b.budget, "day {} hour {}", a.day, a.hour);
        }
    }

    #[test]
    fn open_loop_reap_dominates_statics_every_hour() {
        // With identical budgets, LP optimality makes REAP's planned
        // objective at least every static's, hour by hour (the paper's
        // "consistently outperforms or matches").
        let s = scenario(8);
        let reap = s.run(Policy::Reap).unwrap();
        for id in [1u8, 3, 5] {
            let stat = s.run(Policy::Static(id)).unwrap();
            for (a, b) in reap.hours().iter().zip(stat.hours()) {
                assert!(
                    a.planned.objective(1.0) >= b.planned.objective(1.0) - 1e-9,
                    "REAP lost to DP{id} on day {} hour {}",
                    a.day,
                    a.hour
                );
            }
        }
    }

    #[test]
    fn open_loop_keeps_the_floor_through_nights_after_bright_days() {
        // Four days of 12 bright hours at 60 J/h. No plan draws more than
        // the saturation budget (9.936 J), so the virtual battery pays no
        // more than that per hour: the excess of a bright day's grants
        // used to drain it, and every night hour of the last day was
        // granted below the floor while the real battery stayed near full.
        let hourly = (0..96)
            .map(|i| {
                reap_units::Energy::from_joules(if (6..18).contains(&(i % 24)) {
                    60.0
                } else {
                    0.0
                })
            })
            .collect();
        let scenario = Scenario::builder(HarvestTrace::new(244, hourly).unwrap())
            .points(paper_points())
            .build()
            .unwrap();
        let floor = scenario.problem().min_budget();
        let report = scenario.run(Policy::Reap).unwrap();
        let nights: Vec<_> = report.hours()[72..]
            .iter()
            .filter(|h| !(6..18).contains(&h.hour))
            .collect();
        assert_eq!(nights.len(), 12);
        for h in &nights {
            assert!(
                h.budget >= floor,
                "hour {}: budget {} below the floor",
                h.hour,
                h.budget
            );
            assert!(
                h.battery_level.joules() > 30.0,
                "hour {}: {}",
                h.hour,
                h.battery_level
            );
        }
        let accuracy = nights.iter().map(|h| h.planned.eval.accuracy).sum::<f64>() / 12.0;
        assert!(
            accuracy > 0.1,
            "last night's mean planned accuracy {accuracy}"
        );
    }

    #[test]
    fn closed_loop_mode_differs_from_open_loop() {
        use crate::BudgetMode;
        let open = scenario(9);
        let closed = Scenario::builder(HarvestTrace::september_like(9))
            .points(paper_points())
            .budget_mode(BudgetMode::ClosedLoop)
            .build()
            .unwrap();
        let a = open.run(Policy::Reap).unwrap();
        let b = closed.run(Policy::Reap).unwrap();
        assert_ne!(a.total_objective(1.0), b.total_objective(1.0));
    }
}
