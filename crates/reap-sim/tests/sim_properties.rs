//! Property tests for the simulation engine: hourly energy conservation
//! under arbitrary traces, batteries, and policies — including the
//! receding-horizon [`Policy::Horizon`].
//!
//! The accounting identity under test: per hour,
//! `harvested + discharged - charged - spill` equals the realized
//! consumption, the battery level never goes negative, and it never
//! exceeds capacity. The engine does not expose its internal
//! charge/discharge amounts, so the test replays the battery model from
//! each hour's public record (`harvested`, planned schedule, realized
//! fraction) and demands the recorded end-of-hour level match to 1e-9.

use proptest::prelude::*;
use reap_core::OperatingPoint;
use reap_harvest::{Battery, HarvestTrace};
use reap_sim::{AllocatorKind, BudgetMode, ForecasterKind, Policy, Scenario, SimReport};
use reap_units::{Energy, Power};

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

#[derive(Debug, Clone)]
struct Setup {
    hourly_j: Vec<f64>,
    policy: Policy,
    budget_mode: BudgetMode,
    allocator: AllocatorKind,
    forecaster: ForecasterKind,
    initial_j: f64,
    efficiency: f64,
}

fn arb_setup() -> impl Strategy<Value = Setup> {
    let policy = prop_oneof![
        Just(Policy::Reap),
        (1u8..=5).prop_map(Policy::Static),
        prop_oneof![Just(1usize), Just(4), Just(12), Just(24)]
            .prop_map(|lookahead| Policy::Horizon { lookahead }),
    ];
    let budget_mode = prop_oneof![Just(BudgetMode::OpenLoop), Just(BudgetMode::ClosedLoop)];
    let allocator = prop_oneof![
        Just(AllocatorKind::Ewma),
        Just(AllocatorKind::Greedy),
        Just(AllocatorKind::UniformDaily),
    ];
    let forecaster = prop_oneof![
        Just(ForecasterKind::Ewma),
        (0.0f64..0.5, 0u64..100)
            .prop_map(|(rel_error, seed)| ForecasterKind::Oracle { rel_error, seed }),
    ];
    (
        (
            proptest::collection::vec(0.0f64..8.0, 48..=48),
            policy,
            budget_mode,
        ),
        (allocator, forecaster, 0.0f64..60.0, 0.7f64..=1.0),
    )
        .prop_map(
            |((hourly_j, policy, budget_mode), (allocator, forecaster, initial_j, efficiency))| {
                Setup {
                    hourly_j,
                    policy,
                    budget_mode,
                    allocator,
                    forecaster,
                    initial_j,
                    efficiency,
                }
            },
        )
}

/// Replays the battery model from the public hour records and checks the
/// conservation identity against the recorded levels.
fn assert_energy_conserved(report: &SimReport, initial: Energy, capacity: Energy, eff: f64) {
    let mut level = initial.joules();
    let cap = capacity.joules();
    for h in report.hours() {
        assert!(
            (0.0..=1.0).contains(&h.realized_fraction),
            "day {} hour {}: realized fraction {}",
            h.day,
            h.hour,
            h.realized_fraction
        );
        // Realized consumption: the engine browns the plan out
        // proportionally, so consumed = planned * fraction.
        let consumed = h.planned.energy().joules() * h.realized_fraction;
        let harvested = h.harvested.joules();
        let (charged, discharged, spill);
        if harvested >= consumed {
            // Surplus hour: the excess charges the battery; whatever the
            // full battery cannot hold spills.
            let storable = (harvested - consumed) * eff;
            charged = storable.min(cap - level);
            discharged = 0.0;
            spill = (storable - charged) / eff;
        } else {
            // Deficit hour: the battery covers the difference (it always
            // can — a deeper shortfall would have browned out further).
            charged = 0.0;
            discharged = (consumed - harvested) / eff;
            spill = 0.0;
        }
        level = level + charged - discharged;
        // The identity from the issue: harvested + discharged*eff
        // (delivered) - charged/eff (stored input) - spill = consumption
        // is equivalent to the level replay matching; assert both ends.
        let delivered = discharged * eff;
        let stored_input = if eff > 0.0 { charged / eff } else { 0.0 };
        let balance = harvested + delivered - stored_input - spill;
        assert!(
            (balance - consumed).abs() < 1e-9,
            "day {} hour {}: energy balance {balance} vs consumption {consumed}",
            h.day,
            h.hour
        );
        assert!(
            (level - h.battery_level.joules()).abs() < 1e-9,
            "day {} hour {}: replayed level {level} vs recorded {}",
            h.day,
            h.hour,
            h.battery_level.joules()
        );
        assert!(level >= -1e-9, "battery went negative: {level}");
        assert!(level <= cap + 1e-9, "battery above capacity: {level}");
        level = h.battery_level.joules();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_policy_conserves_energy_hour_by_hour(setup in arb_setup()) {
        let capacity = Energy::from_joules(60.0);
        let initial = Energy::from_joules(setup.initial_j);
        let battery = Battery::new(capacity, initial, setup.efficiency, setup.efficiency)
            .expect("valid battery");
        let trace = HarvestTrace::new(
            244,
            setup.hourly_j.iter().map(|&j| Energy::from_joules(j)).collect(),
        )
        .expect("valid trace");
        let scenario = Scenario::builder(trace)
            .points(paper_points())
            .allocator(setup.allocator)
            .budget_mode(setup.budget_mode)
            .forecaster(setup.forecaster)
            .battery(battery)
            .build()
            .expect("valid scenario");
        let report = scenario.run(setup.policy).expect("engine runs");
        prop_assert_eq!(report.hours().len(), 48);
        assert_energy_conserved(&report, initial, capacity, setup.efficiency);
    }
}
