//! Runtime adaptation: the device re-plans every hour on its precomputed
//! frontier as harvesting conditions swing, and the user changes the
//! accuracy/active-time preference (`alpha`) mid-day, which swaps in the
//! frontier for the new weights — the scenario motivating Sec. 3.3's
//! "it is important to solve this problem at runtime".
//!
//! ```text
//! cargo run --release --example runtime_adaptation
//! ```

use reap::units::Energy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let problem = reap::core::ReapProblem::builder()
        .points(reap::device::paper_table2_operating_points())
        .build()?;
    let frontier = problem.frontier();

    // A stormy afternoon: budgets collapse, then the sun returns.
    let hours: [(&str, f64); 8] = [
        ("09:00 clear", 6.5),
        ("10:00 clear", 8.0),
        ("11:00 clouds roll in", 4.0),
        ("12:00 storm", 1.2),
        ("13:00 storm", 0.8),
        ("14:00 clearing", 3.0),
        ("15:00 clear", 7.0),
        ("16:00 clear", 6.0),
    ];

    println!("morning: user wants maximum expected accuracy (alpha = 1)\n");
    for (label, joules) in &hours[..4] {
        let schedule = frontier.solve(Energy::from_joules(*joules))?;
        report(label, *joules, &schedule);
    }

    println!("\n13:00: physician requests high-confidence data -> alpha = 4\n");
    let frontier = problem.with_alpha(4.0)?.frontier();
    for (label, joules) in &hours[4..] {
        let schedule = frontier.solve(Energy::from_joules(*joules))?;
        report(label, *joules, &schedule);
    }

    println!(
        "\ncontroller produced {} plans; each solve is microseconds on a host",
        hours.len()
    );
    println!("and ~1.5 ms on the paper's 47 MHz MCU — negligible against TP = 1 h.");
    Ok(())
}

fn report(label: &str, joules: f64, schedule: &reap::core::Schedule) {
    let mix: Vec<String> = schedule
        .shares()
        .iter()
        .map(|s| {
            format!(
                "DP{} {:.0}%",
                s.id,
                (s.seconds / schedule.period().seconds()) * 100.0
            )
        })
        .collect();
    println!(
        "{label:<22} {joules:>4.1} J -> [{}] E[acc] {:.1}%, active {:.0}%",
        mix.join(", "),
        schedule.expected_accuracy() * 100.0,
        schedule.active_fraction() * 100.0
    );
}
