//! Batteryless intermittent operation semantics, pinned three ways:
//!
//! 1. **Energy conservation** — a proptest over random traces, failure
//!    schedules, leakages, and taxes: the event core's ledger must
//!    balance to 1e-9 J (power failures, checkpoint/restore taxes and
//!    leakage never *create* energy), and a node whose store can never
//!    reach the turn-on threshold provably does zero work.
//! 2. **Checkpoint/restore crash semantics** — a SIGKILL-style power
//!    failure injected at every event-loop timestamp of a baseline run
//!    loses at most the volatile window since the last checkpoint:
//!    every fully-elapsed hour before the kill stays bitwise identical,
//!    the kill costs at most one in-flight epoch, and the ledger still
//!    balances at every crash point.
//! 3. **Fleet integration** — a 30%-blackout body-heat-TEG fleet on
//!    [`Policy::Intermittent`] completes through the scalar-fallback
//!    path with a sane, thread-count-independent report.
//!
//! Every traced run also executes each epoch at most once: no two
//! `epoch` records share a timestamp.

use proptest::prelude::*;
use reap_core::OperatingPoint;
use reap_harvest::{Capacitor, HarvestTrace, SourceKind};
use reap_sim::{Fleet, IntermittentConfig, Policy, Scenario, SimError, VdtRun};
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

fn intermittent_scenario(
    source: SourceKind,
    seed: u64,
    days: u32,
    dt: u32,
    config: IntermittentConfig,
    trace_events: bool,
) -> Scenario {
    let trace = source
        .instantiate(seed)
        .generate(244, days)
        .expect("bundled sources generate");
    Scenario::builder(trace)
        .points(paper_points())
        .alpha(1.0)
        .dt_seconds(dt)
        .intermittent(config)
        .trace_events(trace_events)
        .build()
        .expect("valid scenario")
}

/// The conservation obligations every intermittent run carries,
/// whatever the policy, failure schedule, or capacitor.
fn assert_ledger_sane(run: &VdtRun, label: &str) {
    let s = &run.stats;
    assert!(
        s.ledger_drift().abs() <= 1e-9,
        "{label}: ledger drift {} J",
        s.ledger_drift()
    );
    let eta_in = s.harvest_offered_j; // η <= 1, so this over-bounds
    assert!(
        s.stored_j <= eta_in + 1e-9,
        "{label}: stored {} J exceeds harvest offered {} J",
        s.stored_j,
        eta_in
    );
    assert!(
        s.spilled_j <= s.harvest_offered_j + 1e-9,
        "{label}: spilled {} J exceeds harvest offered {} J",
        s.spilled_j,
        s.harvest_offered_j
    );
    // Nothing in the pipeline creates energy.
    assert!(
        s.final_store_j <= s.initial_store_j + s.stored_j + 1e-9,
        "{label}: final level {} J above initial {} + stored {}",
        s.final_store_j,
        s.initial_store_j,
        s.stored_j
    );
    for field in [
        s.stored_j,
        s.spilled_j,
        s.consumed_j,
        s.leaked_j,
        s.checkpoint_j,
        s.restore_j,
        s.final_store_j,
    ] {
        assert!(
            field >= 0.0 && field.is_finite(),
            "{label}: ledger field {field}"
        );
    }
    for h in run.report.hours() {
        assert!(
            (0.0..=1.0).contains(&h.realized_fraction),
            "{label}: realized fraction {} out of range",
            h.realized_fraction
        );
    }
}

/// Each epoch `[t, t + dt)` runs at most once: the (time-ordered) log
/// holds no two `epoch` records at one timestamp.
fn assert_one_epoch_per_timestamp(run: &VdtRun, label: &str) {
    let epochs: Vec<u64> = run
        .events
        .iter()
        .filter(|e| e.kind == "epoch")
        .map(|e| e.at_s)
        .collect();
    for pair in epochs.windows(2) {
        assert!(pair[0] < pair[1], "{label}: two epochs at {} s", pair[1]);
    }
}

#[derive(Debug, Clone)]
struct ConservationSetup {
    source: SourceKind,
    seed: u64,
    days: u32,
    dt: u32,
    policy: Policy,
    leakage_uw: f64,
    checkpoint_mj: f64,
    restore_mj: f64,
    failures: Vec<(u64, u64)>,
}

fn arb_conservation() -> impl Strategy<Value = ConservationSetup> {
    let policy = prop_oneof![
        Just(Policy::Intermittent),
        Just(Policy::Reap),
        (1u8..=5).prop_map(Policy::Static),
        Just(Policy::Horizon { lookahead: 6 }),
    ];
    // Random failure schedule: gaps + durations prefix-summed into
    // sorted, non-overlapping [start, end) windows. Durations start at
    // 1 s so a window can sit inside a single epoch.
    let failures =
        proptest::collection::vec((0u64..40_000, 1u64..30_000), 0..5).prop_map(|segments| {
            let mut windows = Vec::with_capacity(segments.len());
            let mut t = 0u64;
            for (gap, dur) in segments {
                let start = t + gap;
                windows.push((start, start + dur));
                t = start + dur;
            }
            windows
        });
    (
        proptest::sample::select(SourceKind::ALL.to_vec()),
        0u64..=u64::MAX,
        1u32..=3,
        prop_oneof![Just(3600u32), Just(900), Just(300)],
        policy,
        prop_oneof![Just(0.0), Just(20.0), Just(400.0)],
        prop_oneof![Just(0.0), Just(2.0), Just(8.0)],
        prop_oneof![Just(0.0), Just(5.0), Just(20.0)],
        failures,
    )
        .prop_map(
            |(source, seed, days, dt, policy, leakage_uw, checkpoint_mj, restore_mj, failures)| {
                ConservationSetup {
                    source,
                    seed,
                    days,
                    dt,
                    policy,
                    leakage_uw,
                    checkpoint_mj,
                    restore_mj,
                    failures,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn the_energy_ledger_balances_under_random_failures_and_taxes(
        setup in arb_conservation()
    ) {
        let cap = Capacitor::new(
            0.100,
            3.3,
            2.8,
            1.8,
            Power::from_microwatts(setup.leakage_uw),
            0.90,
            1.8,
        )
        .expect("valid capacitor");
        let config = IntermittentConfig::new(
            cap,
            Energy::from_joules(setup.checkpoint_mj * 1e-3),
            Energy::from_joules(setup.restore_mj * 1e-3),
        )
        .expect("taxes fit the hysteresis band")
        .with_failures(setup.failures.clone())
        .expect("windows are sorted and non-overlapping");
        let scenario = intermittent_scenario(
            setup.source,
            setup.seed,
            setup.days,
            setup.dt,
            config,
            true,
        );
        let run = scenario
            .run_event_driven(setup.policy)
            .expect("intermittent run completes");
        prop_assert_eq!(
            run.report.hours().len(),
            setup.days as usize * 24,
            "one record per trace hour, dead or alive"
        );
        let label = format!("{:?}/{}", setup.source, setup.policy);
        assert_ledger_sane(&run, &label);
        assert_one_epoch_per_timestamp(&run, &label);
        // `Scenario::run` routes through the same core: identical report.
        let dispatched = scenario.run(setup.policy).expect("dispatch runs");
        prop_assert_eq!(&dispatched, &run.report);
    }
}

#[test]
fn a_store_that_cannot_reach_turn_on_provably_does_zero_work() {
    // Leakage far above the strongest possible charge rate: the store
    // never reaches the turn-on threshold, so the node must never boot,
    // never draw, and never commit — wasting away below v_on is *off*,
    // not degraded operation.
    for policy in [Policy::Intermittent, Policy::Reap] {
        let trace = SourceKind::BodyHeat
            .instantiate(9)
            .generate(244, 2)
            .unwrap();
        let peak_w = trace.peak().joules() / 3600.0;
        let leakage = Power::from_microwatts(peak_w * 1e6 * 2.0);
        let cap =
            Capacitor::new(0.100, 3.3, 2.8, 1.8, leakage, 0.90, 2.0).expect("valid capacitor");
        assert!(
            !cap.can_turn_on(),
            "2.0 V start sits below the 2.8 V turn-on"
        );
        let config =
            IntermittentConfig::new(cap, Energy::from_joules(0.002), Energy::from_joules(0.005))
                .unwrap();
        let scenario = Scenario::builder(trace)
            .points(paper_points())
            .dt_seconds(600)
            .intermittent(config)
            .build()
            .unwrap();
        let run = scenario.run_event_driven(policy).unwrap();
        assert_eq!(run.stats.bursts, 0, "{policy}: booted below turn-on");
        assert_eq!(run.stats.epochs_committed, 0, "{policy}");
        assert_eq!(run.stats.committed_objective, 0.0, "{policy}");
        assert_eq!(run.stats.consumed_j, 0.0, "{policy}");
        assert_eq!(run.stats.restore_j, 0.0, "{policy}");
        assert_eq!(run.stats.checkpoint_j, 0.0, "{policy}");
        assert!(
            run.report
                .hours()
                .iter()
                .all(|h| h.realized_fraction == 0.0),
            "{policy}: a dead node did work"
        );
        assert_ledger_sane(&run, "below-turn-on");
    }
}

#[test]
fn a_failure_inside_an_executed_epoch_does_not_run_later_epochs_twice() {
    // A constant 20 J/h day keeps the wearable capacitor at or above
    // turn-on, so the node runs an epoch every 300 s. Each window starts
    // inside the executed epoch [300, 600) and ends by 600: the failure
    // leaves the epoch at 600 armed, and the restore's wake turns the
    // node on at 600 too. That epoch must run once, and so must every
    // epoch after it.
    let trace = HarvestTrace::new(244, vec![Energy::from_joules(20.0); 24]).unwrap();
    for window in [(450, 550), (450, 600)] {
        for policy in [Policy::Intermittent, Policy::Reap, Policy::Static(5)] {
            let config = IntermittentConfig::wearable_default()
                .with_failures(vec![window])
                .unwrap();
            let run = Scenario::builder(trace.clone())
                .points(paper_points())
                .dt_seconds(300)
                .intermittent(config)
                .trace_events(true)
                .build()
                .unwrap()
                .run_event_driven(policy)
                .unwrap();
            let label = format!("{policy}, failure window {window:?}");
            assert_eq!(run.stats.forced_failures, 1, "{label}");
            assert_one_epoch_per_timestamp(&run, &label);
            assert!(
                run.stats.epochs_committed <= 288,
                "{label}: {} epochs committed in a day of 288",
                run.stats.epochs_committed
            );
            assert_ledger_sane(&run, &label);
        }
    }
}

/// Runs the crash-point drill for one (policy, dt) cell: SIGKILL (a
/// permanent forced failure) at every event timestamp of the traced
/// baseline run.
fn crash_at_every_event(policy: Policy, dt: u32) {
    let config = IntermittentConfig::wearable_default();
    let scenario = intermittent_scenario(SourceKind::BodyHeat, 2019, 1, dt, config.clone(), true);
    let baseline = scenario.run_event_driven(policy).expect("baseline runs");
    assert!(
        baseline.stats.epochs_committed > 0,
        "the drill needs a baseline that commits work"
    );
    let end_s = baseline.report.hours().len() as u64 * 3600;
    let mut kill_times: Vec<u64> = baseline.events.iter().map(|e| e.at_s).collect();
    kill_times.dedup();
    assert!(kill_times.len() > 30, "event log too sparse to drill");
    for &t in &kill_times {
        if t >= end_s {
            continue;
        }
        // The power fails at t and never comes back.
        let killed_config = config
            .clone()
            .with_failures(vec![(t, end_s + 1)])
            .expect("single window is valid");
        let killed = intermittent_scenario(SourceKind::BodyHeat, 2019, 1, dt, killed_config, false)
            .run_event_driven(policy)
            .unwrap_or_else(|e| panic!("kill at {t}s: {e}"));
        assert_ledger_sane(&killed, &format!("kill at {t}s"));
        // Persistent state is never corrupted and nothing before the
        // volatile window is lost: every fully-elapsed hour before the
        // kill is bitwise identical to the uninterrupted run.
        let full_hours_before = (t / 3600) as usize;
        for (h, (k, b)) in killed
            .report
            .hours()
            .iter()
            .zip(baseline.report.hours())
            .enumerate()
            .take(full_hours_before)
        {
            assert_eq!(k, b, "kill at {t}s: prefix hour {h} diverged");
        }
        // The kill costs at most the one in-flight epoch. The killed
        // run's losses are the (identical) prefix losses plus at most
        // one, and the prefix can't have lost more than the whole
        // baseline did.
        assert!(
            killed.stats.epochs_lost <= baseline.stats.epochs_lost + 1,
            "kill at {t}s: lost {} epochs vs baseline {} + 1",
            killed.stats.epochs_lost,
            baseline.stats.epochs_lost
        );
        // Work only shrinks when the plug is pulled for good.
        assert!(
            killed.stats.committed_objective <= baseline.stats.committed_objective + 1e-12,
            "kill at {t}s: committed objective grew"
        );
        assert!(
            killed.stats.committed_active_s <= baseline.stats.committed_active_s + 1e-9,
            "kill at {t}s: committed active time grew"
        );
        // And the node stays provably dead afterwards.
        let first_dead_hour = (t / 3600) as usize + 1;
        for h in killed.report.hours().iter().skip(first_dead_hour) {
            assert_eq!(
                h.realized_fraction, 0.0,
                "kill at {t}s: work after a permanent outage"
            );
        }
    }
}

#[test]
fn sigkill_at_every_event_point_loses_at_most_the_volatile_window_intermittent() {
    // dt = 300 s: the wearable capacitor's usable burst (~0.23 J) fits
    // several 300 s epochs but not one 900 s epoch, so this is the
    // finest granularity at which the baseline actually commits work.
    crash_at_every_event(Policy::Intermittent, 300);
}

#[test]
fn sigkill_at_every_event_point_loses_at_most_the_volatile_window_hourly() {
    // The hourly policies run on the capacitor too; their crash
    // semantics are identical (the budget layer's memory is part of the
    // volatile window).
    crash_at_every_event(Policy::Reap, 300);
}

#[test]
fn intermittent_fleet_under_blackout_completes_with_a_sane_report() {
    // The acceptance scenario: a body-heat-TEG fleet with 30% of every
    // day blacked out, every user on the wearable capacitor under the
    // burst policy. Routes through the scalar fallback (the SoA kernels
    // are hourly-battery only) and must stay thread-count deterministic.
    let fleet = Fleet::builder(paper_points())
        .users(12)
        .days(2)
        .seed(2019)
        .sources(vec![SourceKind::BodyHeat])
        .blackout(21, 0.30)
        .policy(Policy::Intermittent)
        .intermittent(IntermittentConfig::wearable_default())
        .build()
        .expect("valid intermittent fleet");
    let report = fleet.run().expect("fleet completes");
    assert_eq!(report.users(), 12);
    assert_eq!(report.soa_bytes_per_user(), 0, "scalar fallback expected");
    let acc = report.accuracy();
    assert!(0.0 <= acc.p5 && acc.p5 <= acc.p50 && acc.p50 <= acc.p95 && acc.p95 <= 1.0);
    assert!((0.0..=1.0).contains(&report.mean_active_fraction()));
    let single = fleet
        .run_with_threads(Some(std::num::NonZeroUsize::MIN))
        .expect("single-threaded run");
    assert_eq!(single, report, "intermittent fleet diverged across threads");
    // Any user replays individually on the event core with a balanced
    // ledger.
    let run = fleet
        .user_scenario(3)
        .expect("replayable user")
        .run_event_driven(Policy::Intermittent)
        .expect("replay runs");
    assert_ledger_sane(&run, "fleet user 3");
}

#[test]
fn fleet_builder_rejects_intermittent_policy_without_a_store() {
    let err = Fleet::builder(paper_points())
        .policy(Policy::Intermittent)
        .build();
    assert!(matches!(err, Err(SimError::InvalidParameter(_))));
    let err = Fleet::builder(paper_points()).dt_seconds(7).build();
    assert!(matches!(err, Err(SimError::InvalidParameter(_))));
}
