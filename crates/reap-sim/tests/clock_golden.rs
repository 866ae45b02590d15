//! Golden runs for the event-driven batteryless core.
//!
//! Every policy can run on a capacitor store through the event core:
//! the burst policy (INT) re-chooses its operating point every epoch,
//! and the hourly policies (REAP, a static point, MPC) plan once per
//! trace hour against the live store. This suite pins the core's output
//! bit for bit. Each case digests the `{:?}` formatting of one
//! [`VdtRun`] with FNV-1a: the hour-by-hour report, the counters and
//! energy ledger, and the full event log (`trace_events(true)`). A
//! second table pins the [`FleetReport`]s of fleets that run per user on
//! the scalar fallback, at one and at two worker threads.
//!
//! The run matrix covers INT, REAP, DP5 and 4-hour MPC (MPC4) on
//! the wearable capacitor, body-heat and kinetic harvest, 300 s and
//! 900 s epochs, with and without forced power-failure windows. A digest
//! changes only when the core's arithmetic or event order does;
//! regenerate one by copying the table the failing test prints, and only
//! when a change is meant to alter the simulation's output.

use std::num::NonZeroUsize;

use reap_harvest::SourceKind;
use reap_sim::{Fleet, IntermittentConfig, Policy, Scenario, VdtRun};

/// Trace length of every run case, in days.
const DAYS: u32 = 3;
/// Weather seed of every source.
const SEED: u64 = 2019;
/// Forced outages: one on an hour edge, one starting mid-epoch, one
/// running past the end of the trace.
const FAILURES: [(u64, u64); 3] = [(7_200, 10_800), (40_000, 50_000), (250_000, 300_000)];

/// `(case, digest)` for every run case, in the order [`run_cases`]
/// yields them.
const RUN_GOLDEN: [(&str, u64); 32] = [
    ("300/body-heat-teg/clean/INT", 0x2e80_e223_bd58_42b8),
    ("300/body-heat-teg/clean/REAP", 0xb356_7e51_3310_dbd1),
    ("300/body-heat-teg/clean/DP5", 0x29a1_f902_df13_1096),
    ("300/body-heat-teg/clean/MPC4", 0xdf82_a571_efb2_507d),
    ("300/body-heat-teg/failures/INT", 0x79c0_a1af_b14f_a237),
    ("300/body-heat-teg/failures/REAP", 0x1aaf_28a1_619d_ec2a),
    ("300/body-heat-teg/failures/DP5", 0x1b90_e471_71b9_e8dc),
    ("300/body-heat-teg/failures/MPC4", 0x6772_96f3_8dbb_5830),
    ("300/kinetic/clean/INT", 0xc7b0_52dd_7eb8_b061),
    ("300/kinetic/clean/REAP", 0xf115_5f7c_1f3c_c7af),
    ("300/kinetic/clean/DP5", 0xd9fb_eca1_18ba_54fa),
    ("300/kinetic/clean/MPC4", 0xd0c0_47b2_c692_36bd),
    ("300/kinetic/failures/INT", 0x7a10_d6b9_114b_8eff),
    ("300/kinetic/failures/REAP", 0xbd5a_b434_89a0_a51b),
    ("300/kinetic/failures/DP5", 0x92ab_8c74_42ab_61c2),
    ("300/kinetic/failures/MPC4", 0xaa75_778b_a059_377d),
    ("900/body-heat-teg/clean/INT", 0x292f_7234_d2b2_b09b),
    ("900/body-heat-teg/clean/REAP", 0x7680_957d_f1c6_cd10),
    ("900/body-heat-teg/clean/DP5", 0x3f15_1883_1ae3_94d1),
    ("900/body-heat-teg/clean/MPC4", 0xf041_ef69_f928_21b1),
    ("900/body-heat-teg/failures/INT", 0x8783_3238_f90f_f9ad),
    ("900/body-heat-teg/failures/REAP", 0xab33_d487_30ff_f001),
    ("900/body-heat-teg/failures/DP5", 0xcee0_7e8a_effe_5044),
    ("900/body-heat-teg/failures/MPC4", 0x9c16_a5a0_554a_819d),
    ("900/kinetic/clean/INT", 0xbf94_d040_8cdf_875b),
    ("900/kinetic/clean/REAP", 0xb489_4a17_534b_b969),
    ("900/kinetic/clean/DP5", 0x1ee8_fb72_33f5_f01d),
    ("900/kinetic/clean/MPC4", 0x79eb_836a_f983_5dd3),
    ("900/kinetic/failures/INT", 0xd7c4_d43e_36df_985a),
    ("900/kinetic/failures/REAP", 0x37c6_2b4b_46a0_dfcc),
    ("900/kinetic/failures/DP5", 0xc5ad_0414_8711_d0fe),
    ("900/kinetic/failures/MPC4", 0x8116_4cca_5461_7fc5),
];

/// `(fleet, digest)` for every fleet case, in the order [`fleets`]
/// yields them; each must match at one and at two worker threads.
const FLEET_GOLDEN: [(&str, u64); 3] = [
    ("int/blackout-30/dt-300", 0xe19e_b61a_ec01_b38d),
    ("mpc6", 0x5a18_04a7_10c4_10ad),
    ("reap/dt-900", 0xb28b_8d0a_5e44_0e8a),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

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

fn check_runs(dt: u32) {
    let computed: Vec<(String, u64)> = run_cases(dt)
        .into_iter()
        .map(|(name, run)| (name, fnv1a(format!("{run:?}").as_bytes())))
        .collect();
    let prefix = format!("{dt}/");
    let golden: Vec<(&str, u64)> = RUN_GOLDEN
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
