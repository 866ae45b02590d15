//! Integration tests for the reproduction's extensions beyond the paper:
//! region analysis, shadow prices, lookahead planning and quantized
//! deployment, all through the public facade.

use reap::core::{detect_regions, energy_shadow_price, plan_horizon, ReapProblem};
use reap::units::Energy;

fn paper_problem() -> ReapProblem {
    ReapProblem::builder()
        .points(reap::device::paper_table2_operating_points())
        .build()
        .expect("valid")
}

#[test]
fn region_map_recovers_the_papers_figure5_structure() {
    let map = detect_regions(&paper_problem(), 1000).expect("detects");
    // At least: all-off sliver, DP5-only, one or more mixes, DP1-only.
    assert!(map.regions.len() >= 4, "{} regions", map.regions.len());
    // `regions[k]` ends at `bounds[k + 1]`; budgets past the last bound
    // belong to the last region.
    let region_at = |budget: Energy| {
        let k = map.bounds[1..].iter().position(|b| budget <= *b);
        &map.regions[k.unwrap_or(map.regions.len() - 1)]
    };
    // Region 1 of the paper: DP5 alone, not fully active.
    let r1 = region_at(Energy::from_joules(3.0));
    assert_eq!(r1.active_ids, vec![5]);
    assert!(!r1.fully_active);
    // Region 3: DP1 alone, fully active.
    let r3 = region_at(Energy::from_joules(10.0));
    assert_eq!(r3.active_ids, vec![1]);
    assert!(r3.fully_active);
}

#[test]
fn shadow_price_orders_banking_decisions() {
    let p = paper_problem();
    let starved = energy_shadow_price(&p, Energy::from_joules(1.0)).expect("solvable");
    let comfortable = energy_shadow_price(&p, Energy::from_joules(8.0)).expect("solvable");
    let saturated = energy_shadow_price(&p, Energy::from_joules(11.0)).expect("solvable");
    assert!(starved > comfortable);
    assert!(comfortable > saturated);
    assert!(saturated.abs() < 1e-9);
}

#[test]
fn lookahead_planner_banks_solar_noon_for_the_night() {
    let p = paper_problem();
    // Midnight-to-midnight day: dark, bright noon, dark again.
    let mut forecast = vec![Energy::ZERO; 8];
    forecast.extend(vec![Energy::from_joules(9.0); 8]);
    forecast.extend(vec![Energy::ZERO; 8]);
    let plan = plan_horizon(
        &p,
        &forecast,
        Energy::from_joules(5.0),
        Energy::from_joules(60.0),
    )
    .expect("plannable");
    // Evening hours still run on banked energy.
    let evening_active: f64 = plan.schedules[16..]
        .iter()
        .map(|s| s.active_time().seconds())
        .sum();
    assert!(evening_active > 3600.0, "evening active {evening_active}s");
    // And the joint plan beats spending each hour's harvest in place.
    let myopic: f64 = forecast
        .iter()
        .map(|&e| {
            if e >= p.min_budget() {
                p.solve(e).expect("solvable").objective(1.0)
            } else {
                0.0
            }
        })
        .sum();
    assert!(plan.total_objective(1.0) > myopic);
}

#[test]
fn quantized_deployment_survives_the_full_pipeline() {
    use reap::data::Dataset;
    use reap::har::{train_classifier, DpConfig, QuantizedMlp, TrainConfig};
    let dataset = Dataset::generate(4, 420, 3);
    let config = &DpConfig::paper_pareto_5()[0];
    let trained = train_classifier(&dataset, config, &TrainConfig::fast(3)).expect("trains");
    let q = QuantizedMlp::from_mlp(trained.network(), 8).expect("valid width");
    // The flash image is dramatically smaller than f64 weights and biases.
    let sizes = trained.network().sizes();
    let f64_bytes: usize = sizes.windows(2).map(|w| (w[0] + 1) * w[1] * 8).sum();
    assert!(q.storage_bytes() * 4 < f64_bytes);
}
