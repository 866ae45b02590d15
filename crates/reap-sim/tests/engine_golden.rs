//! Golden reports for the hour-step engine.
//!
//! Every hourly policy runs through one loop: allocate, floor clamp,
//! plan, then execute in `3600 / dt` steps with proportional brownout.
//! This suite pins that loop's output bit for bit. Each case digests the
//! `{:?}` formatting of its [`SimReport`]s with FNV-1a, the same digest
//! the perfbench goldens use, and compares it with the committed value.
//!
//! The matrix covers every bundled source, every allocator, both budget
//! modes, REAP and two static points, and 12-hour MPC, each at one step
//! per hour (`dt = 3600`) and at quarter-hour steps (`dt = 900`). A
//! digest changes only when the engine's arithmetic does; regenerate one
//! by copying the table the failing test prints, and only when a change
//! is meant to alter the simulation's output.

use reap_harvest::SourceKind;
use reap_sim::{AllocatorKind, BudgetMode, Policy, Scenario, SimReport};

/// Trace length of every case, in days.
const DAYS: u32 = 4;
/// Weather seed of every source.
const SEED: u64 = 2019;

/// `(case, digest)` for every case, in the order [`cases`] yields them.
const GOLDEN: [(&str, u64); 32] = [
    ("3600/outdoor-solar/ewma", 0xd7b6_fff2_0281_2206),
    ("3600/outdoor-solar/greedy", 0x0ac9_ffb8_2a0e_768d),
    ("3600/outdoor-solar/uniform-daily", 0xc931_a32e_b6f0_69af),
    ("3600/outdoor-solar/mpc12", 0xcf15_c94b_4e72_e274),
    ("3600/indoor-pv/ewma", 0xf7a9_bbfb_9594_cdd4),
    ("3600/indoor-pv/greedy", 0x8cf1_57ba_ec3d_00b9),
    ("3600/indoor-pv/uniform-daily", 0x2177_6ea1_e48c_a427),
    ("3600/indoor-pv/mpc12", 0xa417_b691_8b06_1de9),
    ("3600/body-heat-teg/ewma", 0x7c00_94f5_3618_e443),
    ("3600/body-heat-teg/greedy", 0x66a1_8629_4805_b7c8),
    ("3600/body-heat-teg/uniform-daily", 0x260d_23e0_f18f_871b),
    ("3600/body-heat-teg/mpc12", 0xc5aa_ef83_af60_b174),
    ("3600/kinetic/ewma", 0x94c7_2b58_74a9_abc0),
    ("3600/kinetic/greedy", 0xc0e2_fa17_43db_c1b6),
    ("3600/kinetic/uniform-daily", 0x19d4_42a2_6d0f_dd35),
    ("3600/kinetic/mpc12", 0x98e9_ee78_9999_4bab),
    ("900/outdoor-solar/ewma", 0x8f1c_292f_0faf_3766),
    ("900/outdoor-solar/greedy", 0x8191_0182_9134_4a0d),
    ("900/outdoor-solar/uniform-daily", 0x710f_3bc7_c5cd_2599),
    ("900/outdoor-solar/mpc12", 0xe7c2_1ce3_1e3f_8243),
    ("900/indoor-pv/ewma", 0x7aaf_132f_0360_b5cc),
    ("900/indoor-pv/greedy", 0x11ab_0ac9_9717_168e),
    ("900/indoor-pv/uniform-daily", 0x61b3_2365_25a1_c81b),
    ("900/indoor-pv/mpc12", 0xb440_e890_3088_5077),
    ("900/body-heat-teg/ewma", 0x82a7_8011_95ff_df07),
    ("900/body-heat-teg/greedy", 0x73bf_faa2_1c1f_b711),
    ("900/body-heat-teg/uniform-daily", 0x0b70_da6b_cf96_d4e6),
    ("900/body-heat-teg/mpc12", 0x5839_fde2_1ca6_76f4),
    ("900/kinetic/ewma", 0xe253_8f90_dd3f_b402),
    ("900/kinetic/greedy", 0x59e7_2b73_d407_7234),
    ("900/kinetic/uniform-daily", 0xc2be_63b4_9155_adbb),
    ("900/kinetic/mpc12", 0x08db_8c9d_ff59_776f),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

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

fn check(dt: u32) {
    let computed: Vec<(String, u64)> = cases(dt)
        .into_iter()
        .map(|(name, reports)| (name, fnv1a(format!("{reports:?}").as_bytes())))
        .collect();
    let expected: Vec<(&str, u64)> = GOLDEN
        .iter()
        .copied()
        .filter(|(name, _)| name.starts_with(&format!("{dt}/")))
        .collect();
    let matches = computed.len() == expected.len()
        && computed
            .iter()
            .zip(&expected)
            .all(|((name, d), (golden_name, golden))| name == golden_name && d == golden);
    if !matches {
        for (name, d) in &computed {
            eprintln!("    (\"{name}\", 0x{d:016x}),");
        }
        panic!("dt = {dt}: engine reports differ from the golden digests (computed table above)");
    }
}

#[test]
fn hourly_steps_reproduce_the_golden_reports() {
    check(3600);
}

#[test]
fn quarter_hour_steps_reproduce_the_golden_reports() {
    check(900);
}
