//! SoA-vs-scalar equivalence: the data-oriented fleet kernel
//! ([`reap_sim::SoaFleet`]) must agree with scalar per-user replay
//! ([`Fleet::user_scenario`] + the hour-by-hour engine) on every user's
//! final scalars, bit for bit.
//!
//! The kernel runs one configuration, REAP planning EWMA budgets, so its
//! random fleets draw only users, days and seed; they cover all four
//! [`SourceKind`](reap_harvest::SourceKind)s (the builder default
//! round-robins them). Every other policy takes the scalar engine inside
//! `Fleet::run`: random fallback fleets check that path aggregates what
//! per-user replay produces, and a golden digest pins the report of a
//! fleet the kernel ran before it narrowed.

use proptest::prelude::*;
use reap_core::OperatingPoint;
use reap_sim::{Fleet, Policy, SimReport, SoaFleet, UserOutcome};
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

/// Every battery policy except the kernel's REAP.
fn arb_fallback() -> impl Strategy<Value = Policy> {
    prop_oneof![
        (1u8..=5).prop_map(Policy::Static),
        prop_oneof![Just(1usize), Just(4), Just(12)]
            .prop_map(|lookahead| Policy::Horizon { lookahead }),
    ]
}

/// The scalar engine's per-user scalars, reduced exactly as
/// `Fleet::run`'s accumulator reduces them.
fn scalar_outcome(report: &SimReport, days: u32) -> UserOutcome {
    UserOutcome {
        accuracy: report.mean_accuracy(),
        active_fraction: report.total_active_time().hours() / (f64::from(days) * 24.0),
        brownout_hours: u32::try_from(report.brownout_hours()).expect("small fleet"),
        harvested_j: report.total_harvested().joules(),
    }
}

fn assert_outcomes_match(soa: &UserOutcome, scalar: &UserOutcome, user: u32) {
    let bits = |o: &UserOutcome| {
        (
            o.accuracy.to_bits(),
            o.active_fraction.to_bits(),
            o.brownout_hours,
            o.harvested_j.to_bits(),
        )
    };
    assert_eq!(
        bits(soa),
        bits(scalar),
        "user {user}: SoA {soa:?} vs scalar {scalar:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn soa_core_matches_scalar_replay_per_user(
        (users, days, seed) in (1u32..=64, 1u32..=3, 0u64..=u64::MAX)
    ) {
        let fleet = Fleet::builder(paper_points())
            .users(users)
            .days(days)
            .seed(seed)
            .build()
            .expect("valid fleet");
        let soa = SoaFleet::new(&fleet).expect("SoA build");
        prop_assert!(soa.supports_policy());
        let outcomes = soa.run(None);
        prop_assert_eq!(outcomes.len(), users as usize);
        for user in 0..users {
            let report = fleet
                .user_scenario(user)
                .expect("replayable user")
                .run(Policy::Reap)
                .expect("scalar engine runs");
            let scalar = scalar_outcome(&report, days);
            assert_outcomes_match(&outcomes[user as usize], &scalar, user);
        }
    }

    #[test]
    fn fallback_fleet_matches_scalar_replay(
        (users, days, seed, policy) in (
            1u32..=10,
            1u32..=2,
            0u64..=u64::MAX,
            arb_fallback(),
        )
    ) {
        // Every configuration but hourly REAP falls back to the scalar
        // engine inside `Fleet::run`; the property pinned here is that
        // the fleet path (shared base traces, copy-on-perturb) aggregates
        // exactly what per-user replay produces.
        let fleet = Fleet::builder(paper_points())
            .users(users)
            .days(days)
            .seed(seed)
            .policy(policy)
            .build()
            .expect("valid fleet");
        prop_assert!(!SoaFleet::new(&fleet).expect("SoA build").supports_policy());
        let report = fleet.run().expect("fleet run");
        prop_assert_eq!(report.soa_bytes_per_user(), 0);
        let mut acc_sum = 0.0f64;
        let mut act_sum = 0.0f64;
        let mut brownouts = 0u64;
        for user in 0..users {
            let scalar = scalar_outcome(
                &fleet
                    .user_scenario(user)
                    .expect("replayable user")
                    .run(policy)
                    .expect("scalar engine runs"),
                days,
            );
            acc_sum += scalar.accuracy;
            act_sum += scalar.active_fraction;
            brownouts += u64::from(scalar.brownout_hours);
        }
        let n = f64::from(users);
        prop_assert!((report.mean_accuracy() - acc_sum / n).abs() <= 1e-12);
        prop_assert!((report.mean_active_fraction() - act_sum / n).abs() <= 1e-12);
        prop_assert_eq!(report.brownout_hours(), brownouts);
    }
}

#[test]
fn p5_straggler_replays_on_the_scalar_engine() {
    // The acceptance-criteria workflow: run a fleet on the SoA core, find
    // the straggler end of the accuracy distribution, and replay that
    // individual month on the old scalar engine.
    let fleet = Fleet::builder(paper_points())
        .users(40)
        .days(2)
        .seed(1234)
        .build()
        .expect("valid fleet");
    let soa = SoaFleet::new(&fleet).expect("SoA build");
    let outcomes = soa.run(None);
    let straggler = (0..40u32)
        .min_by(|&a, &b| {
            outcomes[a as usize]
                .accuracy
                .total_cmp(&outcomes[b as usize].accuracy)
        })
        .expect("non-empty fleet");
    let report = fleet
        .user_scenario(straggler)
        .expect("straggler reconstructs")
        .run(Policy::Reap)
        .expect("scalar engine runs");
    assert_outcomes_match(
        &outcomes[straggler as usize],
        &scalar_outcome(&report, 2),
        straggler,
    );
}

#[test]
fn frontier_walk_plans_match_scalar_replay() {
    // A cheap, inaccurate point ends each frontier's first segment near
    // 0.7 J, so a fifth or more of the hourly budgets land past it, where
    // the kernel's plan pass walks the frontier instead of taking a
    // branch-free regime.
    let points = [(1u8, 0.94, 2.76), (4, 0.90, 1.64), (6, 0.50, 0.20)]
        .iter()
        .map(|&(id, a, mw)| OperatingPoint::new(id, a, Power::from_milliwatts(mw)))
        .collect();
    let (users, days) = (48u32, 2u32);
    let fleet = Fleet::builder(points)
        .users(users)
        .days(days)
        .seed(77)
        .build()
        .expect("valid fleet");
    let outcomes = SoaFleet::new(&fleet).expect("SoA build").run(None);
    let (mut walked, mut hours) = (0usize, 0usize);
    for user in 0..users {
        let scenario = fleet.user_scenario(user).expect("replayable user");
        let table = scenario.problem().frontier().table();
        let v = table.vertices();
        let report = scenario.run(Policy::Reap).expect("scalar engine runs");
        for hour in report.hours() {
            let b = hour.budget.joules();
            walked += usize::from(b >= v[1].budget_j && b < v[v.len() - 1].budget_j);
            hours += 1;
        }
        assert_outcomes_match(
            &outcomes[user as usize],
            &scalar_outcome(&report, days),
            user,
        );
    }
    assert!(
        walked * 5 >= hours,
        "only {walked} of {hours} budgets lie past the first segment"
    );
}

/// FNV-1a over every value of a fleet report except
/// `soa_bytes_per_user`: users, days and cohorts, the percentile and
/// mean bits, brownout hours, then each source slice.
fn report_digest(report: &reap_sim::FleetReport) -> u64 {
    let mut words = vec![
        u64::from(report.users()),
        u64::from(report.days()),
        u64::from(report.cohorts()),
    ];
    for p in [report.accuracy(), report.active_fraction()] {
        words.extend([p.p5.to_bits(), p.p50.to_bits(), p.p95.to_bits()]);
    }
    words.extend([
        report.mean_accuracy().to_bits(),
        report.mean_active_fraction().to_bits(),
        report.brownout_hours(),
    ]);
    let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    for s in report.per_source() {
        bytes.extend_from_slice(s.kind.label().as_bytes());
        for w in [
            u64::from(s.users),
            s.mean_accuracy.to_bits(),
            s.mean_active_fraction.to_bits(),
            s.mean_harvested_j.to_bits(),
        ] {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
    }
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A fleet the SoA kernel ran before it narrowed to REAP, with its
/// report digest ([`report_digest`]) recorded while it still ran it (on
/// EWMA budgets, the allocator every fleet now uses). The scalar engine
/// now runs this fleet and must reproduce every value.
const RETIRED: [(Policy, u64); 1] = [(Policy::Static(3), 0x3134_652e_e7b4_19f7)];

#[test]
fn retired_kernel_configurations_reproduce_the_parent_reports() {
    let mut table = String::new();
    let mut failed = false;
    for (policy, want) in RETIRED {
        let report = Fleet::builder(paper_points())
            .users(24)
            .days(3)
            .seed(2019)
            .policy(policy)
            .build()
            .expect("valid fleet")
            .run()
            .expect("fleet run");
        let got = report_digest(&report);
        table.push_str(&format!("    (Policy::{policy:?}, {got:#018x}),\n"));
        failed |= got != want;
        // The scalar engine runs these fleets: no SoA state is resident.
        assert_eq!(report.soa_bytes_per_user(), 0, "{policy}");
    }
    assert!(!failed, "report digests moved; computed:\n{table}");
}
