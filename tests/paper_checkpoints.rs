//! Integration tests pinning every quantitative checkpoint the paper
//! states, end to end through the public facade (paper characterization).

use reap::core::{static_schedule, ReapProblem};
use reap::units::{Energy, TimeSpan};

fn paper_problem(alpha: f64) -> ReapProblem {
    ReapProblem::builder()
        .alpha(alpha)
        .points(reap::device::paper_table2_operating_points())
        .build()
        .expect("paper points are valid")
}

#[test]
fn off_state_floor_is_0_18_joules() {
    // Sec. 5.2: "the minimum energy required to run the energy harvesting
    // and monitoring circuitry is 0.18 J".
    let p = paper_problem(1.0);
    assert!((p.min_budget().joules() - 0.18).abs() < 1e-12);
}

#[test]
fn dp1_saturates_at_9_9_joules() {
    // Sec. 5.2: "9.9 J energy is sufficient to run DP1 ... throughout TP".
    let p = paper_problem(1.0);
    assert!((p.saturation_budget().joules() - 9.936).abs() < 1e-3);
    let s = p.solve(Energy::from_joules(9.94)).expect("solvable");
    assert!((s.fraction_for(1) - 1.0).abs() < 1e-6);
}

#[test]
fn five_joule_budget_mixes_dp4_and_dp5() {
    // Sec. 5.2: "At 5 J energy budget ... REAP utilizes DP4 42% of the
    // time and DP5 for 58% of the time".
    let p = paper_problem(1.0);
    let s = p.solve(Energy::from_joules(5.0)).expect("solvable");
    assert!((s.fraction_for(4) - 0.42).abs() < 0.02);
    assert!((s.fraction_for(5) - 0.58).abs() < 0.02);
}

#[test]
fn dp5_saturates_at_4_3_joules() {
    // Sec. 5.2: "When the energy budget goes over 4.3 J, DP5 can remain
    // active throughout the activity period".
    let p = paper_problem(1.0);
    let below = static_schedule(&p, 5, Energy::from_joules(4.2)).expect("solvable");
    let above = static_schedule(&p, 5, Energy::from_joules(4.4)).expect("solvable");
    assert!(below.active_fraction() < 1.0);
    assert!((above.active_fraction() - 1.0).abs() < 1e-9);
}

#[test]
fn region1_active_time_is_2_3x_dp1() {
    // Fig. 5(b): "REAP also achieves 2.3x larger active time compared to
    // DP1" in Region 1.
    let p = paper_problem(1.0);
    let budget = Energy::from_joules(3.0);
    let reap = p.solve(budget).expect("solvable");
    let dp1 = static_schedule(&p, 1, budget).expect("solvable");
    let ratio = reap.active_time() / dp1.active_time();
    assert!((2.2..2.5).contains(&ratio), "ratio = {ratio}");
}

#[test]
fn alpha2_dp4_dominates_below_6j_and_dp3_crosses_at_6_5j() {
    // Sec. 5.3 / Fig. 6.
    let p = paper_problem(2.0);
    // Below 6 J REAP runs DP4 alone and static DP4 matches it.
    let s5 = p.solve(Energy::from_joules(5.0)).expect("solvable");
    let dp4 = static_schedule(&p, 4, Energy::from_joules(5.0)).expect("solvable");
    assert!((s5.objective(2.0) - dp4.objective(2.0)).abs() < 1e-9);
    // DP3 matches REAP at ~6.5 J and falls behind at 8.5 J.
    let at = |j: f64, id: u8| {
        let reap = p.solve(Energy::from_joules(j)).expect("solvable");
        let stat = static_schedule(&p, id, Energy::from_joules(j)).expect("solvable");
        stat.objective(2.0) / reap.objective(2.0)
    };
    assert!(
        (at(6.5, 3) - 1.0).abs() < 0.02,
        "DP3/REAP at 6.5 J = {}",
        at(6.5, 3)
    );
    assert!(at(8.5, 3) < 0.99, "DP3/REAP at 8.5 J = {}", at(8.5, 3));
    // Beyond 9.9 J REAP reduces to DP1.
    assert!((at(10.0, 1) - 1.0).abs() < 1e-6);
}

#[test]
fn reap_matches_or_beats_every_static_point_across_the_sweep() {
    // The paper's core claim, for both alpha regimes it evaluates.
    for alpha in [1.0, 2.0] {
        let p = paper_problem(alpha);
        for j in [
            0.18, 0.5, 1.0, 2.0, 3.0, 4.32, 5.0, 6.0, 7.0, 8.0, 9.0, 9.94, 11.0,
        ] {
            let budget = Energy::from_joules(j);
            let reap = p.solve(budget).expect("solvable");
            for point in p.points() {
                let stat = static_schedule(&p, point.id(), budget).expect("solvable");
                assert!(
                    reap.objective(alpha) >= stat.objective(alpha) - 1e-9,
                    "alpha {alpha}, {j} J: REAP {} < DP{} {}",
                    reap.objective(alpha),
                    point.id(),
                    stat.objective(alpha)
                );
            }
        }
    }
}

#[test]
fn offloading_raw_data_is_not_energy_efficient() {
    // Sec. 4.2: 5.5 mJ raw offload vs 0.38 mJ result transmission.
    let dp1 = &reap::har::DpConfig::paper_pareto_5()[0];
    let (raw, result) = reap::device::radio::offload_comparison(dp1);
    assert!((raw.millijoules() - 5.5).abs() < 1e-9);
    assert!((result.millijoules() - 0.38).abs() < 1e-12);
}

#[test]
fn solver_is_fast_enough_for_runtime_use() {
    // Sec. 3.3: the MCU solves 5 DPs in 1.5 ms and 100 DPs in 8 ms; a
    // desktop-class host must be far under those bounds, and scaling from
    // 5 to 100 points must stay within ~10x (the paper's ratio is 5.3x).
    use reap::core::OperatingPoint;
    use reap::units::Power;
    let time_for = |n: usize| {
        let points: Vec<OperatingPoint> = (0..n)
            .map(|i| {
                let f = i as f64 / n as f64;
                OperatingPoint::new(
                    i as u8 + 1,
                    0.5 + 0.45 * f,
                    Power::from_milliwatts(1.0 + 2.0 * f),
                )
            })
            .collect();
        let p = ReapProblem::builder()
            .points(points)
            .build()
            .expect("valid");
        let start = std::time::Instant::now();
        for _ in 0..50 {
            let _ = p.solve(Energy::from_joules(5.0)).expect("solvable");
        }
        start.elapsed().as_secs_f64() / 50.0
    };
    let t5 = time_for(5);
    let t100 = time_for(100);
    assert!(t5 < 1.5e-3, "5-point solve took {t5}s");
    assert!(t100 < 8e-3, "100-point solve took {t100}s");
}

#[test]
fn month_long_case_study_matches_fig7_shape() {
    use reap::harvest::HarvestTrace;
    use reap::sim::{Policy, Scenario};
    let trace = HarvestTrace::september_like(2019);
    let run = |alpha: f64| {
        let scenario = Scenario::builder(trace.clone())
            .points(reap::device::paper_table2_operating_points())
            .alpha(alpha)
            .build()
            .expect("valid scenario");
        let reap = scenario.run(Policy::Reap).expect("runs");
        let dp1 = scenario.run(Policy::Static(1)).expect("runs");
        let dp5 = scenario.run(Policy::Static(5)).expect("runs");
        let vs1 = reap.normalized_daily(&dp1, alpha).expect("dp1 scores");
        let vs5 = reap.normalized_daily(&dp5, alpha).expect("dp5 scores");
        (vs1, vs5)
    };
    let ((_, mean1_low, _), (_, mean5_low, _)) = run(0.5);
    let ((_, mean1_high, _), (_, mean5_high, _)) = run(8.0);
    // vs DP1: large gains at alpha = 0.5, smaller but > 1.1x at alpha = 8.
    assert!(mean1_low > 1.4, "vs DP1 at alpha 0.5: {mean1_low}");
    assert!(mean1_high > 1.1, "vs DP1 at alpha 8: {mean1_high}");
    assert!(mean1_low > mean1_high, "gains must shrink with alpha");
    // vs DP5: near parity at alpha = 0.5, large gains at alpha = 8.
    assert!(mean5_low < 1.2, "vs DP5 at alpha 0.5: {mean5_low}");
    assert!(mean5_high > 1.5, "vs DP5 at alpha 8: {mean5_high}");
}

#[test]
fn window_period_arithmetic_matches_paper() {
    // 1.6 s windows, 100 Hz sampling, one-hour activity period.
    assert_eq!(reap::data::WINDOW_SAMPLES, 160);
    assert!((reap::data::WINDOW_SECONDS - 1.6).abs() < 1e-12);
    let per_hour = TimeSpan::from_hours(1.0).seconds() / reap::data::WINDOW_SECONDS;
    assert!((per_hour - 2250.0).abs() < 1e-9);
}
