//! The accuracy/active-time trade-off knob: how the optimal schedule
//! shifts from low-power points toward high-accuracy points as `alpha`
//! grows (Sec. 5.3 of the paper), at a fixed 5 J budget.
//!
//! ```text
//! cargo run --release --example alpha_tradeoff
//! ```

use reap::core::ReapProblem;
use reap::units::Energy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let points = reap::device::paper_table2_operating_points();
    let base = ReapProblem::builder().points(points).build()?;
    let budget = Energy::from_joules(5.0);

    println!("budget: 5 J over one hour; schedules by alpha\n");
    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>9}",
        "alpha", "DP1 %", "DP2 %", "DP3 %", "DP4 %", "DP5 %", "off %", "E[acc] %", "active %"
    );
    for alpha in [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0, 8.0, 16.0] {
        let problem = base.with_alpha(alpha)?;
        let s = problem.solve(budget)?;
        let frac = |id: u8| s.fraction_for(id) * 100.0;
        println!(
            "{:>6} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>10.1} {:>9.1}",
            alpha,
            frac(1),
            frac(2),
            frac(3),
            frac(4),
            frac(5),
            (1.0 - s.active_fraction()) * 100.0,
            s.expected_accuracy() * 100.0,
            s.active_fraction() * 100.0,
        );
    }

    println!("\nreading: alpha = 0 maximizes active time (cheapest point wins);");
    println!("alpha = 1 maximizes expected accuracy (DP4/DP5 mix at this budget);");
    println!("large alpha sacrifices active time for the high-accuracy points.");
    Ok(())
}
