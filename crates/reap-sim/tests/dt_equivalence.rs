//! Sub-hour steps against the hourly run: the hour loop executes each
//! hour's plan in `3600 / dt` equal steps, so at `dt < 3600` budgets stay
//! those of the hourly run and execution converges on it.
//! `tests/engine_golden.rs` pins the loop's output at both step widths.

use reap_core::OperatingPoint;
use reap_harvest::SourceKind;
use reap_sim::{Policy, Scenario};
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

#[test]
fn sub_hour_dt_keeps_open_loop_budgets_and_converges_on_the_scalar_run() {
    // At dt < 3600 the hour loop splits each hour's plan into equal
    // steps. Open-loop budgets depend only on the trace, so they must
    // stay bitwise equal to the hourly run's; execution differs only by
    // when within the hour the battery clamps, which is float noise
    // whenever the store never pins — so levels track to 1e-9 J.
    for dt in [1800u32, 900, 600, 60] {
        for source in SourceKind::ALL {
            let trace = source.instantiate(7).generate(244, 3).unwrap();
            let hourly = Scenario::builder(trace.clone())
                .points(paper_points())
                .alpha(1.0)
                .build()
                .unwrap();
            let scalar = hourly.run(Policy::Reap).unwrap();
            let sub = Scenario::builder(trace)
                .points(paper_points())
                .alpha(1.0)
                .dt_seconds(dt)
                .build()
                .unwrap();
            let run = sub.run(Policy::Reap).unwrap();
            assert_eq!(run.hours().len(), scalar.hours().len());
            for (e, s) in run.hours().iter().zip(scalar.hours()) {
                assert_eq!(e.harvested, s.harvested, "{source:?} dt={dt}");
                assert_eq!(e.budget, s.budget, "{source:?} dt={dt}");
                assert!(
                    (e.realized_fraction - s.realized_fraction).abs() <= 1e-9,
                    "{source:?} dt={dt} day {} hour {}: fraction {} vs {}",
                    e.day,
                    e.hour,
                    e.realized_fraction,
                    s.realized_fraction
                );
                assert!(
                    (e.battery_level.joules() - s.battery_level.joules()).abs() <= 1e-9,
                    "{source:?} dt={dt} day {} hour {}: level {} vs {}",
                    e.day,
                    e.hour,
                    e.battery_level.joules(),
                    s.battery_level.joules()
                );
            }
        }
    }
}

#[test]
fn intermittent_policy_is_rejected_without_an_intermittent_store() {
    let trace = SourceKind::BodyHeat
        .instantiate(1)
        .generate(244, 1)
        .unwrap();
    let scenario = Scenario::builder(trace)
        .points(paper_points())
        .build()
        .unwrap();
    assert!(scenario.run(Policy::Intermittent).is_err());
    assert!(scenario.run_event_driven(Policy::Intermittent).is_err());
}
