//! Lookahead energy allocation: jointly plan 24 hours against a harvest
//! forecast and a battery, and compare with myopic spend-as-harvested
//! planning — the extension that closes the loop the paper delegates to
//! "energy allocation techniques".
//!
//! ```text
//! cargo run --release --example horizon_planning
//! ```

use reap::core::{plan_horizon, ReapProblem};
use reap::harvest::HarvestTrace;
use reap::units::Energy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let problem = ReapProblem::builder()
        .points(reap::device::paper_table2_operating_points())
        .build()?;

    // Take day 3 of the September trace as the forecast.
    let trace = HarvestTrace::september_like(2019);
    let day = 3;
    let forecast: Vec<Energy> = (0..24).map(|h| trace.energy(day, h)).collect();
    let battery0 = Energy::from_joules(10.0);
    let capacity = Energy::from_joules(60.0);

    let plan = plan_horizon(&problem, &forecast, battery0, capacity)?;

    println!("24-hour joint plan (day {day} of the September trace):\n");
    println!(
        "{:>5} {:>9} {:>22} {:>10} {:>10}",
        "hour", "harvest", "schedule", "E[acc]", "battery"
    );
    for (h, schedule) in plan.schedules.iter().enumerate() {
        let mix: Vec<String> = schedule
            .shares()
            .iter()
            .map(|s| {
                format!(
                    "DP{}:{:.0}%",
                    s.id,
                    (s.seconds / schedule.period().seconds()) * 100.0
                )
            })
            .collect();
        println!(
            "{h:>5} {:>8.2}J {:>22} {:>9.1}% {:>9.1}J",
            forecast[h].joules(),
            if mix.is_empty() {
                "off".to_string()
            } else {
                mix.join(" ")
            },
            schedule.expected_accuracy() * 100.0,
            plan.battery_trajectory[h].joules(),
        );
    }

    // Myopic comparison: every hour spends exactly its own harvest.
    let myopic: f64 = forecast
        .iter()
        .map(|&e| {
            let budget = e.max(problem.min_budget());
            if e >= problem.min_budget() {
                problem
                    .solve(budget)
                    .map(|s| s.objective(1.0))
                    .unwrap_or(0.0)
            } else {
                0.0
            }
        })
        .sum();
    println!(
        "\ntotal J: lookahead {:.2} vs myopic spend-as-harvested {:.2} ({:+.0}%)",
        plan.total_objective(1.0),
        myopic,
        (plan.total_objective(1.0) / myopic - 1.0) * 100.0
    );
    println!(
        "active time: lookahead {:.1} h (banked noon surplus covers the night)",
        plan.total_active_time().hours()
    );
    Ok(())
}
