//! Golden runs for the event-driven batteryless core.
//!
//! Every policy can run on a capacitor store through the event core:
//! the burst policy (INT) re-chooses its operating point every epoch,
//! and the hourly policies (REAP, a static point, MPC) plan once per
//! trace hour against the live store. This suite pins the core's output
//! bit for bit. Each case digests one [`VdtRun`] with FNV-1a: the
//! hour-by-hour report in a canonical byte encoding
//! (`canonical::encode_report`: its values alone, independent of how the
//! report types print), then the `{:?}` formatting of the counters and
//! energy ledger and of the full event log (`trace_events(true)`). A
//! second table pins the [`FleetReport`]s of fleets that run per user on
//! the scalar fallback, at one and at two worker threads.
//!
//! The run matrix covers INT, REAP, DP5 and 4-hour MPC (MPC4) on
//! the wearable capacitor, body-heat and kinetic harvest, 300 s and
//! 900 s epochs, with and without forced power-failure windows. A digest
//! changes only when the core's arithmetic or event order does;
//! regenerate one by copying the table the failing test prints, and only
//! when a change is meant to alter the simulation's output.

mod canonical;

use std::num::NonZeroUsize;

use canonical::{encode_report, fnv1a};
use reap_harvest::SourceKind;
use reap_sim::{Fleet, IntermittentConfig, Policy, Scenario, VdtRun};

/// Trace length of every run case, in days.
const DAYS: u32 = 3;
/// Weather seed of every source.
const SEED: u64 = 2019;
/// Forced outages: one on an hour edge, one starting mid-epoch, one
/// running past the end of the trace.
const FAILURES: [(u64, u64); 3] = [(7_200, 10_800), (40_000, 50_000), (250_000, 300_000)];

/// `(fleet, digest)` for every fleet case, in the order [`fleets`]
/// yields them; each must match at one and at two worker threads.
const FLEET_GOLDEN: [(&str, u64); 4] = [
    ("int/blackout-30/dt-300", 0xe19e_b61a_ec01_b38d),
    ("mpc6", 0x5a18_04a7_10c4_10ad),
    ("reap/dt-900", 0xb28b_8d0a_5e44_0e8a),
    ("reap/cap/blackout-30/dt-300", 0xd42d_f62b_2d65_a80e),
];

/// `(case, digest)` over the canonical encoding of every run case, in
/// the order [`run_cases`] yields them.
const RUN_CANONICAL: [(&str, u64); 32] = [
    ("300/body-heat-teg/clean/INT", 0xf0ea_4b69_cc97_cbca),
    ("300/body-heat-teg/clean/REAP", 0xbf09_0896_32fb_438d),
    ("300/body-heat-teg/clean/DP5", 0x6a3b_428c_cfc5_a133),
    ("300/body-heat-teg/clean/MPC4", 0xbc03_fb61_ff8f_6dee),
    ("300/body-heat-teg/failures/INT", 0x2d10_1c93_23d7_4c3e),
    ("300/body-heat-teg/failures/REAP", 0x2751_f199_1720_0241),
    ("300/body-heat-teg/failures/DP5", 0x7a99_803b_283d_0b99),
    ("300/body-heat-teg/failures/MPC4", 0xd552_3e6a_e50f_d0ad),
    ("300/kinetic/clean/INT", 0xcf18_48d8_a1fe_b907),
    ("300/kinetic/clean/REAP", 0x18ac_066a_05a4_f5f8),
    ("300/kinetic/clean/DP5", 0xf971_fb81_c2de_6858),
    ("300/kinetic/clean/MPC4", 0x0b8d_76ef_b9c3_f09f),
    ("300/kinetic/failures/INT", 0x074e_260e_8ed8_37c5),
    ("300/kinetic/failures/REAP", 0x018d_3b16_ecde_2424),
    ("300/kinetic/failures/DP5", 0xc769_9313_e783_7246),
    ("300/kinetic/failures/MPC4", 0xbce6_b2b6_b6e9_5bd2),
    ("900/body-heat-teg/clean/INT", 0x648c_cc63_e4a4_2c07),
    ("900/body-heat-teg/clean/REAP", 0xd761_cb9e_262d_6da9),
    ("900/body-heat-teg/clean/DP5", 0x2ffe_052a_021d_3514),
    ("900/body-heat-teg/clean/MPC4", 0x9235_ac5d_ae2d_e990),
    ("900/body-heat-teg/failures/INT", 0xaf7b_9e51_cb73_1075),
    ("900/body-heat-teg/failures/REAP", 0x93a0_526c_04c2_ea1e),
    ("900/body-heat-teg/failures/DP5", 0xedfb_d46c_d372_f05f),
    ("900/body-heat-teg/failures/MPC4", 0x6b65_305f_f53c_42e2),
    ("900/kinetic/clean/INT", 0x127d_09f2_e287_e5a9),
    ("900/kinetic/clean/REAP", 0x8d00_e388_96bd_49a7),
    ("900/kinetic/clean/DP5", 0x1f92_0a80_fe35_024e),
    ("900/kinetic/clean/MPC4", 0x5591_059b_47f8_c43b),
    ("900/kinetic/failures/INT", 0x0a48_0381_975b_22e2),
    ("900/kinetic/failures/REAP", 0x9a06_8625_8bea_b44a),
    ("900/kinetic/failures/DP5", 0x0d39_270d_8957_afb6),
    ("900/kinetic/failures/MPC4", 0x9087_8497_53f2_f558),
];

fn scenario(source: SourceKind, dt: u32, failures: bool) -> Scenario {
    let trace = source
        .instantiate(SEED)
        .generate(244, DAYS)
        .expect("bundled sources generate");
    let mut config = IntermittentConfig::wearable_default();
    if failures {
        config = config
            .with_failures(FAILURES.to_vec())
            .expect("sorted, disjoint windows");
    }
    Scenario::builder(trace)
        .points(reap_device::paper_table2_operating_points())
        .dt_seconds(dt)
        .intermittent(config)
        .trace_events(true)
        .build()
        .expect("valid scenario")
}

/// The runs of every case at epoch width `dt`, as `(case, run)`.
fn run_cases(dt: u32) -> Vec<(String, VdtRun)> {
    let policies = [
        Policy::Intermittent,
        Policy::Reap,
        Policy::Static(5),
        Policy::Horizon { lookahead: 4 },
    ];
    let mut out = Vec::new();
    for source in [SourceKind::BodyHeat, SourceKind::Kinetic] {
        for failures in [false, true] {
            let s = scenario(source, dt, failures);
            let outages = if failures { "failures" } else { "clean" };
            for policy in policies {
                let run = s.run_event_driven(policy).expect("every policy runs");
                let name = format!("{dt}/{}/{outages}/{policy}", source.label());
                out.push((name, run));
            }
        }
    }
    out
}

/// The fleets whose every user runs on the scalar fallback.
fn fleets() -> Vec<(&'static str, Fleet)> {
    let points = reap_device::paper_table2_operating_points;
    vec![
        (
            "int/blackout-30/dt-300",
            Fleet::builder(points())
                .users(12)
                .days(2)
                .seed(SEED)
                .blackout(21, 0.30)
                .policy(Policy::Intermittent)
                .intermittent(IntermittentConfig::wearable_default())
                .dt_seconds(300)
                .build(),
        ),
        (
            "mpc6",
            Fleet::builder(points())
                .users(6)
                .days(2)
                .seed(SEED)
                .policy(Policy::Horizon { lookahead: 6 })
                .build(),
        ),
        (
            "reap/dt-900",
            Fleet::builder(points())
                .users(12)
                .days(2)
                .seed(SEED)
                .dt_seconds(900)
                .build(),
        ),
        (
            "reap/cap/blackout-30/dt-300",
            Fleet::builder(points())
                .users(12)
                .days(2)
                .seed(SEED)
                .blackout(21, 0.30)
                .intermittent(IntermittentConfig::wearable_default())
                .dt_seconds(300)
                .build(),
        ),
    ]
    .into_iter()
    .map(|(name, fleet)| (name, fleet.expect("valid fleet")))
    .collect()
}

/// Compares `computed` with the golden table, printing the computed
/// table on any mismatch.
fn check(what: &str, computed: &[(String, u64)], golden: &[(&str, u64)]) {
    let matches = computed.len() == golden.len()
        && computed
            .iter()
            .zip(golden)
            .all(|((name, d), (golden_name, g))| name == golden_name && d == g);
    if !matches {
        for (name, d) in computed {
            eprintln!("    (\"{name}\", 0x{d:016x}),");
        }
        panic!("{what} differ from the golden digests (computed table above)");
    }
}

/// The canonical bytes of one run: its report's canonical encoding,
/// then the `{:?}` text of its counters and of its event log.
fn encode_run(run: &VdtRun) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_report(&mut bytes, &run.report);
    bytes.extend_from_slice(format!("{:?}", run.stats).as_bytes());
    bytes.extend_from_slice(format!("{:?}", run.events).as_bytes());
    bytes
}

fn check_runs(dt: u32) {
    let computed: Vec<(String, u64)> = run_cases(dt)
        .into_iter()
        .map(|(name, run)| (name, fnv1a(&encode_run(&run))))
        .collect();
    let prefix = format!("{dt}/");
    let golden: Vec<(&str, u64)> = RUN_CANONICAL
        .iter()
        .copied()
        .filter(|(name, _)| name.starts_with(&prefix))
        .collect();
    check(&format!("dt = {dt}: event-core runs"), &computed, &golden);
}

#[test]
fn five_minute_epochs_reproduce_the_golden_runs() {
    check_runs(300);
}

#[test]
fn quarter_hour_epochs_reproduce_the_golden_runs() {
    check_runs(900);
}

#[test]
fn fallback_fleets_reproduce_the_golden_reports_at_one_and_two_threads() {
    for threads in [1, 2] {
        let threads = NonZeroUsize::new(threads);
        let computed: Vec<(String, u64)> = fleets()
            .into_iter()
            .map(|(name, fleet)| {
                let report = fleet.run_with_threads(threads).expect("fleet runs");
                (name.to_owned(), fnv1a(format!("{report:?}").as_bytes()))
            })
            .collect();
        check(
            &format!("{threads:?}-thread fleet reports"),
            &computed,
            &FLEET_GOLDEN,
        );
    }
}
