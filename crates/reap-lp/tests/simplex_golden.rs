//! Golden solutions for the dense simplex.
//!
//! Each case digests one [`LpSolution`] with FNV-1a: its status, its
//! pivot count, the bits of its objective and the bits of every value.
//! A digest moves when the pivot sequence or the tableau arithmetic
//! does, so any rewrite of the solver's internals must reproduce every
//! solution bit for bit. Regenerate a digest by copying the table the
//! failing test prints, and only when a change is meant to alter the
//! solver's output.
//!
//! The cases are the horizon planner's LP at 1, 4 and 24 periods (a
//! day/night window, a full battery that must spill, and a starved
//! window), plus the paths that LP never takes: `>=` rows, rows
//! normalized for a negative right-hand side, redundant equalities and
//! the phase-1 cleanup pivot, rows holding explicit -0.0 and +0.0
//! coefficients, Beale's degenerate LP under Dantzig and
//! Bland, minimization, unboundedness, infeasibility, a Klee-Minty cube
//! and seeded dense LPs with mixed relations.

use reap_lp::{LpProblem, LpSolution, LpStatus, PivotRule, Relation, SimplexOptions};

/// `(case, digest)` for every case, in the order the tests yield them.
const GOLDEN: [(&str, u64); 27] = [
    ("h1/daynight", 0xff78_180a_b069_ef24),
    ("h1/spill", 0xf7f6_079e_f601_d05f),
    ("h1/starved", 0x99d4_7f97_887d_afd7),
    ("h4/daynight", 0xd17a_b755_44a6_ef3e),
    ("h4/spill", 0xb9f9_5021_32c9_c5eb),
    ("h4/starved", 0x8717_41c6_cc5f_acf1),
    ("h24/daynight", 0x65c9_f8d0_3c77_6bba),
    ("h24/spill", 0xaf05_3876_6e2f_75d6),
    ("h24/starved", 0xcb7c_358a_f647_b329),
    ("textbook/ge-rows-minimize", 0x62f6_a904_844b_3d4c),
    ("textbook/negative-rhs", 0x188b_0e14_0d46_7b65),
    ("textbook/signed-zeros", 0xd0d3_30b7_d5b9_b5d5),
    ("textbook/signed-zeros-negated", 0xa3bb_c2aa_f2b1_1bb0),
    ("textbook/redundant-equalities", 0x9c36_bb19_fc51_2f5e),
    ("textbook/phase1-cleanup-pivot", 0x9fb0_0247_8694_0c7d),
    ("textbook/beale-dantzig", 0x7c79_f1aa_db44_6040),
    ("textbook/beale-switch-to-bland", 0x887d_4ace_818b_6beb),
    ("textbook/beale-bland", 0x887d_4ace_818b_6beb),
    ("textbook/unbounded", 0x9bb5_e628_97c2_c311),
    ("textbook/infeasible", 0x4d2c_dfcf_7765_55e8),
    ("textbook/klee-minty-6", 0xf486_84f5_d773_cd18),
    ("textbook/random-1", 0x2ae4_6575_7004_3f0c),
    ("textbook/random-2", 0x494b_c375_d3af_f869),
    ("textbook/random-3", 0xebf6_77a2_7cd2_d05e),
    ("textbook/random-4", 0x5683_a5c5_5b66_072b),
    ("textbook/random-5", 0x6883_01cb_da2e_76aa),
    ("textbook/random-6", 0xe48d_cc07_f2b0_2b1d),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest(s: &LpSolution) -> u64 {
    let status: u8 = match s.status() {
        LpStatus::Optimal => 0,
        LpStatus::Infeasible => 1,
        LpStatus::Unbounded => 2,
    };
    let iterations = u64::try_from(s.iterations()).expect("pivot count fits in u64");
    let mut bytes = vec![status];
    bytes.extend(iterations.to_le_bytes());
    bytes.extend(s.objective().to_bits().to_le_bytes());
    for v in s.values() {
        bytes.extend(v.to_bits().to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Compares every computed case with its golden digest; on a mismatch
/// prints the computed table and fails.
fn check(group: &str, cases: Vec<(String, LpSolution)>) {
    let computed: Vec<(String, u64, String)> = cases
        .into_iter()
        .map(|(name, s)| (format!("{group}/{name}"), digest(&s), s.to_string()))
        .collect();
    let expected: Vec<(&str, u64)> = GOLDEN
        .iter()
        .copied()
        .filter(|(name, _)| name.starts_with(&format!("{group}/")))
        .collect();
    let matches = computed.len() == expected.len()
        && computed
            .iter()
            .zip(&expected)
            .all(|((name, d, _), (golden_name, golden))| name == golden_name && d == golden);
    if !matches {
        for (name, d, summary) in &computed {
            eprintln!("    (\"{name}\", 0x{d:016x}), // {summary}");
        }
        panic!("{group}: solutions differ from the golden digests (computed table above)");
    }
}

fn solve(p: &LpProblem) -> LpSolution {
    p.solve()
        .expect("terminates within the default iteration cap")
}

/// The paper's five design points as `(accuracy, power in W)`.
const POINTS: [(f64, f64); 5] = [
    (0.94, 2.76e-3),
    (0.93, 2.30e-3),
    (0.92, 1.82e-3),
    (0.90, 1.64e-3),
    (0.76, 1.20e-3),
];
/// Activity period, in seconds.
const TP: f64 = 3600.0;
/// Off-state power, in watts.
const P_OFF: f64 = 50e-6;

/// The joint horizon LP with the horizon planner's layout: per period
/// `[t_1 .. t_N, t_off, b, s]`, then a time row (`=`), a battery
/// dynamics row (`=`) and a capacity row (`<=`).
fn horizon_lp(forecast: &[f64], level: f64, capacity: f64) -> LpProblem {
    let n = POINTS.len();
    let stride = n + 3;
    let total = forecast.len() * stride;
    let scale = 1.0 / (POINTS[0].0 * TP);
    let mut objective = vec![0.0; total];
    for h in 0..forecast.len() {
        for (i, &(accuracy, _)) in POINTS.iter().enumerate() {
            objective[h * stride + i] = accuracy * scale;
        }
    }
    let mut p = LpProblem::maximize(&objective);
    for (h, &harvest) in forecast.iter().enumerate() {
        let base = h * stride;
        let mut time = vec![0.0; total];
        time[base..base + n + 1].fill(1.0);
        p.subject_to(&time, Relation::Eq, TP).expect("same dim");

        let mut dynamics = vec![0.0; total];
        for (i, &(_, power)) in POINTS.iter().enumerate() {
            dynamics[base + i] = power;
        }
        dynamics[base + n] = P_OFF;
        dynamics[base + n + 1] = 1.0;
        dynamics[base + n + 2] = 1.0;
        let mut rhs = harvest;
        if h == 0 {
            rhs += level;
        } else {
            dynamics[base - stride + n + 1] = -1.0;
        }
        p.subject_to(&dynamics, Relation::Eq, rhs)
            .expect("same dim");

        let mut cap = vec![0.0; total];
        cap[base + n + 1] = 1.0;
        p.subject_to(&cap, Relation::Le, capacity)
            .expect("same dim");
    }
    p
}

/// Day/night, full-battery-with-spill and starved windows of `hours`
/// periods.
fn horizon_cases(hours: usize) -> Vec<(String, LpSolution)> {
    let daynight: Vec<f64> = (0..hours)
        .map(|h| if (h % 24) < 12 { 6.0 } else { 0.0 })
        .collect();
    let spill: Vec<f64> = (0..hours)
        .map(|h| if h % 2 == 0 { 30.0 } else { 0.5 })
        .collect();
    let starved = vec![0.0; hours];
    vec![
        ("daynight".into(), solve(&horizon_lp(&daynight, 2.0, 60.0))),
        ("spill".into(), solve(&horizon_lp(&spill, 5.0, 5.0))),
        ("starved".into(), solve(&horizon_lp(&starved, 0.0, 60.0))),
    ]
}

#[test]
fn horizon_lps_over_one_and_four_periods() {
    check("h1", horizon_cases(1));
    check("h4", horizon_cases(4));
}

#[test]
#[cfg_attr(miri, ignore)]
fn horizon_lps_over_twenty_four_periods() {
    check("h24", horizon_cases(24));
}

/// Beale's LP, on which Dantzig's rule cycles without anti-cycling.
fn beale() -> LpProblem {
    let mut p = LpProblem::maximize(&[0.75, -150.0, 0.02, -6.0]);
    p.subject_to(&[0.25, -60.0, -0.04, 9.0], Relation::Le, 0.0)
        .expect("same dim");
    p.subject_to(&[0.5, -90.0, -0.02, 3.0], Relation::Le, 0.0)
        .expect("same dim");
    p.subject_to(&[0.0, 0.0, 1.0, 0.0], Relation::Le, 1.0)
        .expect("same dim");
    p
}

/// The Klee-Minty cube in `n` dimensions.
fn klee_minty(n: i32) -> LpProblem {
    let objective: Vec<f64> = (1..=n).map(|j| 2f64.powi(n - j)).collect();
    let mut p = LpProblem::maximize(&objective);
    for i in 1..=n {
        let row: Vec<f64> = (1..=n)
            .map(|j| match j.cmp(&i) {
                std::cmp::Ordering::Less => 2.0 * 2f64.powi(i - j),
                std::cmp::Ordering::Equal => 1.0,
                std::cmp::Ordering::Greater => 0.0,
            })
            .collect();
        p.subject_to(&row, Relation::Le, 5f64.powi(i))
            .expect("same dim");
    }
    p
}

/// A linear congruential generator for the seeded LPs.
struct Lcg(u64);

impl Lcg {
    /// A uniform integer in `0..modulus`.
    fn below(&mut self, modulus: u32) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(0x5851_f42d_4c95_7f2d)
            .wrapping_add(0x1405_7b7e_f767_814f);
        u32::try_from((self.0 >> 33) % u64::from(modulus)).expect("below a u32 modulus")
    }

    /// `k / 100 - offset` for a uniform `k` in `0..modulus`.
    fn grid(&mut self, modulus: u32, offset: f64) -> f64 {
        f64::from(self.below(modulus)) / 100.0 - offset
    }
}

/// A seeded dense LP over `n` variables with `m` rows of mixed relations
/// (coefficients in `[-4, 4]` on a 0.01 grid), every variable boxed at
/// 50 so the program is bounded.
fn random_lp(seed: u64, n: usize, m: usize) -> LpProblem {
    let mut rng = Lcg(seed);
    let objective: Vec<f64> = (0..n).map(|_| rng.grid(801, 4.0)).collect();
    let mut p = LpProblem::maximize(&objective);
    for _ in 0..m {
        let coeffs: Vec<f64> = (0..n).map(|_| rng.grid(801, 4.0)).collect();
        let (relation, rhs) = match rng.below(3) {
            0 => (Relation::Le, rng.grid(5001, 0.0)),
            1 => (Relation::Ge, rng.grid(501, 0.0)),
            _ => (Relation::Eq, rng.grid(1001, 5.0)),
        };
        p.subject_to(&coeffs, relation, rhs).expect("same dim");
    }
    for j in 0..n {
        let mut bound = vec![0.0; n];
        bound[j] = 1.0;
        p.subject_to(&bound, Relation::Le, 50.0).expect("same dim");
    }
    p
}

#[test]
fn textbook_paths() {
    let mut cases: Vec<(String, LpSolution)> = Vec::new();

    // `>=` rows, minimized.
    let mut p = LpProblem::minimize(&[2.0, 3.0]);
    p.subject_to(&[1.0, 1.0], Relation::Ge, 10.0)
        .expect("same dim");
    p.subject_to(&[1.0, 0.0], Relation::Ge, 3.0)
        .expect("same dim");
    cases.push(("ge-rows-minimize".into(), solve(&p)));

    // Negative right-hand sides: `<=` becomes `>=`, `>=` becomes `<=`,
    // and a negated equality.
    let mut p = LpProblem::maximize(&[1.0, 2.0, -1.0]);
    p.subject_to(&[-1.0, -1.0, 0.0], Relation::Le, -2.0)
        .expect("same dim");
    p.subject_to(&[-1.0, -1.0, -1.0], Relation::Ge, -9.0)
        .expect("same dim");
    p.subject_to(&[0.0, -1.0, 1.0], Relation::Eq, -1.0)
        .expect("same dim");
    cases.push(("negative-rhs".into(), solve(&p)));

    // Explicit signed zeros: a `<=` row with a negative right-hand side
    // (negated into a `>=` row), a `>=` row and an `==` row with a -0.0
    // right-hand side, each holding both a -0.0 and a +0.0 coefficient.
    // A zero coefficient's sign cannot reach a solution bit (a column is
    // updated only from its own cells and the entering column's non-zero
    // factors), so the cells themselves are pinned by the simplex unit
    // test `scattered_terms_fill_the_dense_tableau_bit_for_bit`.
    let mut p = LpProblem::maximize(&[1.0, 2.0, -1.0, 0.5]);
    p.subject_to(&[-1.0, -0.0, 0.0, -1.0], Relation::Le, -2.0)
        .expect("same dim");
    p.subject_to(&[0.0, 1.0, -0.0, 1.0], Relation::Ge, 1.0)
        .expect("same dim");
    p.subject_to(&[1.0, -1.0, 0.0, -0.0], Relation::Eq, -0.0)
        .expect("same dim");
    p.subject_to(&[1.0, 1.0, 1.0, 1.0], Relation::Le, 10.0)
        .expect("same dim");
    cases.push(("signed-zeros".into(), solve(&p)));

    // The same three relations, every one negated for a negative
    // right-hand side, with signed zeros in each row; minimized.
    let mut p = LpProblem::minimize(&[2.0, 1.0, 3.0]);
    p.subject_to(&[-1.0, -0.0, 0.0], Relation::Le, -1.0)
        .expect("same dim");
    p.subject_to(&[-0.0, -1.0, -1.0], Relation::Ge, -8.0)
        .expect("same dim");
    p.subject_to(&[0.0, -1.0, -0.0], Relation::Eq, -2.0)
        .expect("same dim");
    cases.push(("signed-zeros-negated".into(), solve(&p)));

    // Duplicate equality rows leave a basic artificial at zero in a
    // redundant row.
    let mut p = LpProblem::maximize(&[1.0, 1.0]);
    p.subject_to(&[1.0, 1.0], Relation::Eq, 3.0)
        .expect("same dim");
    p.subject_to(&[2.0, 2.0], Relation::Eq, 6.0)
        .expect("same dim");
    cases.push(("redundant-equalities".into(), solve(&p)));

    // Phase 1 ends at once with its artificial basic at zero in a row
    // that still has a structural entry: the cleanup pivots it out.
    let mut p = LpProblem::maximize(&[1.0, 1.0, 1.0]);
    p.subject_to(&[-1.0, -1.0, 0.0], Relation::Eq, 0.0)
        .expect("same dim");
    p.subject_to(&[1.0, 1.0, 1.0], Relation::Le, 4.0)
        .expect("same dim");
    cases.push(("phase1-cleanup-pivot".into(), solve(&p)));

    // Beale's degenerate LP: default options, an immediate switch to
    // Bland after one degenerate pivot, and Bland throughout.
    cases.push(("beale-dantzig".into(), solve(&beale())));
    let switch_at_once = SimplexOptions {
        degenerate_switch: 1,
        ..SimplexOptions::default()
    };
    cases.push((
        "beale-switch-to-bland".into(),
        beale().solve_with(&switch_at_once).expect("terminates"),
    ));
    let bland = SimplexOptions {
        pivot_rule: PivotRule::Bland,
        ..SimplexOptions::default()
    };
    cases.push((
        "beale-bland".into(),
        beale().solve_with(&bland).expect("terminates"),
    ));

    // Unbounded above.
    let mut p = LpProblem::maximize(&[1.0, 1.0]);
    p.subject_to(&[1.0, -1.0], Relation::Ge, 1.0)
        .expect("same dim");
    cases.push(("unbounded".into(), solve(&p)));

    // x <= 1 and x >= 2 cannot both hold.
    let mut p = LpProblem::maximize(&[1.0]);
    p.subject_to(&[1.0], Relation::Le, 1.0).expect("same dim");
    p.subject_to(&[1.0], Relation::Ge, 2.0).expect("same dim");
    cases.push(("infeasible".into(), solve(&p)));

    cases.push(("klee-minty-6".into(), solve(&klee_minty(6))));
    for seed in 1..=6 {
        cases.push((format!("random-{seed}"), solve(&random_lp(seed, 8, 6))));
    }
    check("textbook", cases);
}
