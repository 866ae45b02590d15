//! Golden reports for the hour-step engine.
//!
//! Every hourly policy runs through one loop: allocate, floor clamp,
//! plan, then execute in `3600 / dt` steps with proportional brownout.
//! This suite pins that loop's output bit for bit. Each case digests a
//! canonical byte encoding of its [`SimReport`]s
//! (`canonical::encode_report`: their values alone, independent of how
//! the report types print) with FNV-1a, the same digest the perfbench
//! goldens use, and compares it with the committed value.
//!
//! The matrix covers every bundled source, every allocator, both budget
//! modes, REAP and two static points, and 12-hour MPC, each at one step
//! per hour (`dt = 3600`) and at quarter-hour steps (`dt = 900`). A
//! digest changes only when the engine's arithmetic does; regenerate one
//! by copying the table the failing test prints, and only when a change
//! is meant to alter the simulation's output.

mod canonical;

use canonical::{encode_report, fnv1a};
use reap_harvest::SourceKind;
use reap_sim::{AllocatorKind, BudgetMode, Policy, Scenario, SimReport};

/// Trace length of every case, in days.
const DAYS: u32 = 4;
/// Weather seed of every source.
const SEED: u64 = 2019;

/// `(case, digest)` over the canonical encoding of every case's
/// reports, in the order [`cases`] yields them.
const CANONICAL: [(&str, u64); 32] = [
    ("3600/outdoor-solar/ewma", 0x2c7d_59c6_da9a_f071),
    ("3600/outdoor-solar/greedy", 0xe5ac_275b_8a56_6fbe),
    ("3600/outdoor-solar/uniform-daily", 0x472d_beef_edd8_34b7),
    ("3600/outdoor-solar/mpc12", 0xe0be_7c38_024e_a7df),
    ("3600/indoor-pv/ewma", 0x2b02_a513_dbf1_6ff0),
    ("3600/indoor-pv/greedy", 0x3929_976b_8528_0559),
    ("3600/indoor-pv/uniform-daily", 0x392c_8797_2bdb_26c0),
    ("3600/indoor-pv/mpc12", 0xcfe2_3cd2_7ef1_3e50),
    ("3600/body-heat-teg/ewma", 0x2183_8856_5ca3_e70e),
    ("3600/body-heat-teg/greedy", 0xcc73_878b_387d_aaca),
    ("3600/body-heat-teg/uniform-daily", 0x7ee2_8df2_e86a_f779),
    ("3600/body-heat-teg/mpc12", 0xd0e7_0b40_48c7_9c7e),
    ("3600/kinetic/ewma", 0x0917_2002_ff80_1142),
    ("3600/kinetic/greedy", 0x90c7_a7fb_36c7_0cac),
    ("3600/kinetic/uniform-daily", 0x2887_25a8_fe4b_eddc),
    ("3600/kinetic/mpc12", 0xfba9_92ec_8001_f94b),
    ("900/outdoor-solar/ewma", 0xbfd1_99db_51b6_107f),
    ("900/outdoor-solar/greedy", 0x0ab7_dda3_c747_662f),
    ("900/outdoor-solar/uniform-daily", 0xf51a_9727_dfe1_24b5),
    ("900/outdoor-solar/mpc12", 0x4787_77cb_1ba0_7f3f),
    ("900/indoor-pv/ewma", 0xf765_0a29_72b8_84b6),
    ("900/indoor-pv/greedy", 0x5922_6e4a_41fd_9a15),
    ("900/indoor-pv/uniform-daily", 0xf0ee_55f1_c5c5_6011),
    ("900/indoor-pv/mpc12", 0x4261_f753_bee2_3c19),
    ("900/body-heat-teg/ewma", 0x75ff_df98_3f37_b190),
    ("900/body-heat-teg/greedy", 0xfb7e_7a90_fbab_312f),
    ("900/body-heat-teg/uniform-daily", 0xbc12_1e06_825b_1fdb),
    ("900/body-heat-teg/mpc12", 0x09c0_8c23_0afe_925c),
    ("900/kinetic/ewma", 0x158c_f1af_9e8c_4f8c),
    ("900/kinetic/greedy", 0xa551_d838_bbc2_764a),
    ("900/kinetic/uniform-daily", 0x66f6_f0c2_23dd_36cd),
    ("900/kinetic/mpc12", 0x7eb9_32a7_0615_9be1),
];

fn scenario(source: SourceKind, dt: u32, allocator: AllocatorKind, mode: BudgetMode) -> Scenario {
    let trace = source
        .instantiate(SEED)
        .generate(244, DAYS)
        .expect("bundled sources generate");
    Scenario::builder(trace)
        .points(reap_device::paper_table2_operating_points())
        .allocator(allocator)
        .budget_mode(mode)
        .dt_seconds(dt)
        .build()
        .expect("valid scenario")
}

fn allocator_name(allocator: AllocatorKind) -> &'static str {
    match allocator {
        AllocatorKind::Ewma => "ewma",
        AllocatorKind::Greedy => "greedy",
        AllocatorKind::UniformDaily => "uniform-daily",
    }
}

/// The reports of every case at step width `dt`, as `(case, reports)`.
fn cases(dt: u32) -> Vec<(String, Vec<SimReport>)> {
    let myopic = [Policy::Reap, Policy::Static(1), Policy::Static(5)];
    let mut out = Vec::new();
    for source in SourceKind::ALL {
        for allocator in [
            AllocatorKind::Ewma,
            AllocatorKind::Greedy,
            AllocatorKind::UniformDaily,
        ] {
            let mut reports = Vec::new();
            for mode in [BudgetMode::OpenLoop, BudgetMode::ClosedLoop] {
                let s = scenario(source, dt, allocator, mode);
                for policy in myopic {
                    reports.push(s.run(policy).expect("myopic policies run"));
                }
            }
            let name = format!("{dt}/{}/{}", source.label(), allocator_name(allocator));
            out.push((name, reports));
        }
        let s = scenario(source, dt, AllocatorKind::Ewma, BudgetMode::OpenLoop);
        let mpc = s.run(Policy::Horizon { lookahead: 12 }).expect("MPC runs");
        out.push((format!("{dt}/{}/mpc12", source.label()), vec![mpc]));
    }
    out
}

/// Compares the `computed` digests of step width `dt` with the
/// `golden` table's rows for that width, printing the computed table on
/// any mismatch.
fn compare(what: &str, dt: u32, computed: &[(String, u64)], golden: &[(&str, u64)]) {
    let prefix = format!("{dt}/");
    let expected: Vec<(&str, u64)> = golden
        .iter()
        .copied()
        .filter(|(name, _)| name.starts_with(&prefix))
        .collect();
    let matches = computed.len() == expected.len()
        && computed
            .iter()
            .zip(&expected)
            .all(|((name, d), (golden_name, golden))| name == golden_name && d == golden);
    if !matches {
        for (name, d) in computed {
            eprintln!("    (\"{name}\", 0x{d:016x}),");
        }
        panic!("dt = {dt}: engine reports differ from the {what} digests (computed table above)");
    }
}

fn check(dt: u32) {
    let computed: Vec<(String, u64)> = cases(dt)
        .into_iter()
        .map(|(name, reports)| {
            let mut bytes = Vec::new();
            for report in &reports {
                encode_report(&mut bytes, report);
            }
            (name, fnv1a(&bytes))
        })
        .collect();
    compare("canonical", dt, &computed, &CANONICAL);
}

#[test]
fn hourly_steps_reproduce_the_golden_reports() {
    check(3600);
}

#[test]
fn quarter_hour_steps_reproduce_the_golden_reports() {
    check(900);
}
