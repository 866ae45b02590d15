//! Property tests for the harvesting substrate: battery conservation
//! under arbitrary operation sequences, trace invariants across seeds and
//! seasons, source-trait contracts, and allocator sanity.

use proptest::prelude::*;
use reap_harvest::{
    Battery, BudgetAllocator, EwmaAllocator, GreedyAllocator, HarvestTrace, SolarModel, SolarPanel,
    SourceKind, UniformDailyAllocator, WeatherModel,
};
use reap_units::Energy;

/// One step against a battery, in joules.
#[derive(Debug, Clone)]
enum Op {
    /// `Battery::execute(harvested, needed)`.
    Execute(f64, f64),
    /// `Battery::open_loop(proposed, floor, harvested)`.
    OpenLoop(f64, f64, f64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0.0f64..20.0, 0.0f64..20.0).prop_map(|(h, n)| Op::Execute(h, n)),
            (0.0f64..20.0, 0.0f64..1.0, 0.0f64..20.0).prop_map(|(p, f, h)| Op::OpenLoop(p, f, h)),
        ],
        1..50,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn battery_never_leaves_bounds_and_conserves_energy(ops in arb_ops()) {
        let mut battery = Battery::new(
            Energy::from_joules(60.0),
            Energy::from_joules(30.0),
            0.9,
            0.9,
        ).expect("valid");
        let j = Energy::from_joules;
        for op in &ops {
            let before = battery.level().joules();
            let harvested = match *op {
                Op::Execute(h, n) => {
                    let fraction = battery.execute(j(h), j(n));
                    prop_assert!((0.0..=1.0).contains(&fraction));
                    // What ran came from the harvest or from the store,
                    // which delivers 90% of what it gives up.
                    let drawn = (before - battery.level().joules()).max(0.0);
                    prop_assert!(fraction * n <= h + drawn * 0.9 + 1e-9);
                    h
                }
                Op::OpenLoop(p, f, h) => {
                    let supply = battery.deliverable().joules() + h;
                    let grant = battery.open_loop(j(p), j(f), j(9.936), j(h)).joules();
                    prop_assert!(grant >= 0.0);
                    prop_assert!(grant <= supply + 1e-9);
                    h
                }
            };
            // The store gains at most the harvest it banks (efficiency
            // <= 1).
            prop_assert!(battery.level().joules() - before <= harvested * 0.9 + 1e-9);
            prop_assert!(battery.level().joules() >= 0.0);
            prop_assert!(battery.level() <= battery.capacity());
        }
    }

    #[test]
    fn traces_are_nonnegative_and_dark_at_night(seed in 0u64..500, start_day in 1u32..330) {
        let trace = HarvestTrace::generate(
            &SolarModel::golden_colorado(),
            &WeatherModel::new(seed),
            &SolarPanel::sp3_37_wearable(),
            start_day,
            5,
        ).expect("valid");
        for e in trace.iter() {
            prop_assert!(!e.is_negative());
            prop_assert!(e.joules() < 20.0, "implausible hourly harvest {e}");
        }
        for day in 0..trace.days() {
            // Solar midnight and 3am are always dark at mid-latitudes.
            prop_assert_eq!(trace.energy(day, 0), Energy::ZERO);
            prop_assert_eq!(trace.energy(day, 3), Energy::ZERO);
        }
    }

    #[test]
    fn summer_months_out_harvest_winter_months(seed in 0u64..100) {
        let gen = |start: u32| {
            HarvestTrace::generate(
                &SolarModel::golden_colorado(),
                &WeatherModel::new(seed),
                &SolarPanel::sp3_37_wearable(),
                start,
                10,
            ).expect("valid").total().joules()
        };
        let june = gen(160);
        let december = gen(340);
        // Same weather stream; the solar geometry alone must separate the
        // seasons.
        prop_assert!(june > december, "june {june} <= december {december}");
    }

    #[test]
    fn every_source_is_nonnegative_deterministic_and_pv_dark_at_night(
        seed in 0u64..300,
        start_day in 1u32..330,
    ) {
        for kind in SourceKind::ALL {
            let source = kind.instantiate(seed);
            let trace = source.generate(start_day, 4).expect("valid");
            // Non-negative, finite, plausible hourly energies everywhere.
            for e in trace.iter() {
                prop_assert!(!e.is_negative(), "{} went negative", kind);
                prop_assert!(e.is_finite(), "{} not finite", kind);
                prop_assert!(
                    e.joules() < 20.0,
                    "{} implausible hourly harvest {e}",
                    kind
                );
            }
            // Photovoltaic sources are exactly dark in the dead of night
            // (light off whatever the season, latitude, or schedule).
            if source.is_photovoltaic() {
                for day in 0..trace.days() {
                    for hour in [0u32, 1, 2, 3, 23] {
                        prop_assert_eq!(
                            trace.energy(day, hour),
                            Energy::ZERO,
                            "{} harvested at night (day {}, hour {})",
                            kind,
                            day,
                            hour
                        );
                    }
                }
            }
            // Same seed, same trace — bit-identical.
            let again = kind.instantiate(seed).generate(start_day, 4).expect("valid");
            prop_assert_eq!(&trace, &again, "{} not deterministic", kind);
        }
    }

    #[test]
    fn allocators_never_go_negative_and_stay_bounded(
        harvests in proptest::collection::vec(0.0f64..12.0, 48),
    ) {
        let battery = Battery::small_wearable();
        let mut allocators: Vec<Box<dyn BudgetAllocator>> = vec![
            Box::new(GreedyAllocator),
            Box::new(EwmaAllocator::new()),
            Box::new(UniformDailyAllocator::new()),
        ];
        for allocator in &mut allocators {
            for (i, &h) in harvests.iter().enumerate() {
                let budget = allocator.allocate(
                    (i % 24) as u32,
                    Energy::from_joules(h),
                    &battery,
                );
                prop_assert!(!budget.is_negative(), "{} went negative", allocator.name());
                prop_assert!(
                    budget.joules() <= 12.0 + battery.capacity().joules(),
                    "{} budget {budget} is implausible",
                    allocator.name()
                );
            }
        }
    }
}
