//! Regenerates the paper's **headline claims** (abstract & Sec. 6):
//!
//! * "46% higher expected accuracy and 66% longer active time compared to
//!   the highest performance design point (DP1)",
//! * "22% to 29% higher accuracy than low-power design points without
//!   sacrificing the active time",
//! * solver runtime that stays in the milliseconds up to 100 DPs.
//!
//! ```text
//! cargo run --release -p reap-bench --bin headlines [-- --char model --quick]
//! ```

use reap_bench::{operating_points, parse_char_mode};
use reap_core::{energy_sweep, linspace, static_schedule};
use reap_units::Energy;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = parse_char_mode(&args);
    let quick = reap_bench::has_quick_flag(&args);

    println!("Headline claims");
    println!("===============");

    let points = operating_points(mode, quick);
    let problem = reap_bench::standard_problem(points, 1.0);

    // Sweep the energy-constrained regime (between the floor and DP1
    // saturation), the region where the paper's gains live.
    let budgets: Vec<Energy> = linspace(0.5, problem.saturation_budget().joules(), 80)
        .into_iter()
        .map(Energy::from_joules)
        .collect();
    let sweep = energy_sweep(&problem, &budgets).expect("solvable");

    // --- vs DP1 (highest performance point).
    let mut acc_ratio = 0.0;
    let mut time_ratio = 0.0;
    let mut n = 0usize;
    for p in &sweep {
        let dp1 = &p.statics[0];
        if dp1.expected_accuracy() > 1e-9 {
            acc_ratio += p.reap.expected_accuracy() / dp1.expected_accuracy();
            time_ratio += p.reap.active_time() / dp1.active_time();
            n += 1;
        }
    }
    acc_ratio /= n as f64;
    time_ratio /= n as f64;
    println!("\nvs DP1 (mean over the {n}-point energy sweep):");
    println!(
        "  expected accuracy: {:.0}% higher (paper: 46% higher)",
        (acc_ratio - 1.0) * 100.0
    );
    println!(
        "  active time:       {:.0}% longer (paper: 66% longer)",
        (time_ratio - 1.0) * 100.0
    );

    // --- vs the low-power points (DP4, DP5) in the regime where they are
    // fully active but accuracy-starved.
    println!("\nvs low-power design points (budgets where they saturate):");
    for id in [4u8, 5] {
        let saturation = problem.point(id).expect("exists").power() * problem.period();
        let budgets: Vec<Energy> = linspace(
            saturation.joules(),
            problem.saturation_budget().joules(),
            40,
        )
        .into_iter()
        .map(Energy::from_joules)
        .collect();
        let mut gain = Vec::new();
        let mut time_loss = Vec::new();
        let reaps = problem.solve_many(&budgets).expect("solvable");
        for (b, reap) in budgets.into_iter().zip(reaps) {
            let stat = static_schedule(&problem, id, b).expect("solvable");
            gain.push(reap.expected_accuracy() / stat.expected_accuracy() - 1.0);
            time_loss.push(reap.active_time() / stat.active_time());
        }
        let mean_gain = gain.iter().sum::<f64>() / gain.len() as f64;
        let min_time = time_loss.iter().cloned().fold(f64::MAX, f64::min);
        println!(
            "  vs DP{id}: {:.0}% higher accuracy, active-time ratio never below {:.2}",
            mean_gain * 100.0,
            min_time
        );
    }
    println!("  (paper: 22%-29% higher accuracy without sacrificing active time)");

    // --- Solver runtime scaling (Sec. 3.3: 1.5 ms at 5 DPs, 8 ms at 100
    // DPs on the MCU; we report host-side times and the scaling shape).
    println!("\nsolver runtime scaling (host, single solve, mean of 100 runs):");
    for n_points in [5usize, 10, 25, 50, 100] {
        let prob = reap_bench::synthetic_problem(n_points);
        let budget = Energy::from_joules(5.0);
        let runs = 100;
        let start = std::time::Instant::now();
        for _ in 0..runs {
            let _ = prob.solve(budget).expect("solvable");
        }
        let per_solve = start.elapsed().as_secs_f64() * 1e3 / runs as f64;
        let frontier = prob.frontier();
        let start = std::time::Instant::now();
        for _ in 0..runs {
            let _ = frontier.solve(budget).expect("solvable");
        }
        let per_frontier = start.elapsed().as_secs_f64() * 1e3 / runs as f64;
        println!("  N = {n_points:>3}: {per_solve:.3} ms/solve simplex, {per_frontier:.5} ms/solve frontier");
    }
    println!(
        "  (paper, 47 MHz MCU: 1.5 ms at N=5, 8 ms at N=100 — shape should be mildly super-linear)"
    );
}
