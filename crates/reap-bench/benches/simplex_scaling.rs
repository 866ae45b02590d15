//! Criterion bench for the Sec. 3.3 timing claim: the REAP solver takes
//! 1.5 ms at 5 design points and only 8 ms at 100 on the 47 MHz MCU —
//! i.e. runtime grows mildly with N. We verify that *shape* on the host
//! and compare the simplex against the precomputed frontier (the fast
//! path this reproduction adds).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reap_bench::synthetic_problem;
use reap_units::Energy;
use std::hint::black_box;

fn bench_simplex_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex_scaling");
    group.sample_size(30);
    let budget = Energy::from_joules(5.0);
    for n in [5usize, 10, 25, 50, 100] {
        let problem = synthetic_problem(n);
        group.bench_with_input(BenchmarkId::new("simplex", n), &problem, |b, p| {
            b.iter(|| black_box(p.solve(black_box(budget)).expect("solvable")));
        });
        // The cached-frontier path the runtime controller and sweeps use:
        // build once, then O(log K) per solve.
        let frontier = problem.frontier();
        group.bench_with_input(BenchmarkId::new("frontier", n), &frontier, |b, f| {
            b.iter(|| black_box(f.solve(black_box(budget)).expect("solvable")));
        });
        group.bench_with_input(BenchmarkId::new("frontier_build", n), &problem, |b, p| {
            b.iter(|| black_box(p.frontier()));
        });
    }
    group.finish();
}

fn bench_budget_regimes(c: &mut Criterion) {
    // Pivot counts differ by regime: energy-limited (single point),
    // mixed (two points), saturated (time-limited).
    let mut group = c.benchmark_group("simplex_budget_regimes");
    group.sample_size(30);
    let problem = synthetic_problem(5);
    for (label, joules) in [("starved", 0.5), ("mixed", 5.0), ("saturated", 12.0)] {
        group.bench_function(label, |b| {
            let budget = Energy::from_joules(joules);
            b.iter(|| black_box(problem.solve(black_box(budget)).expect("solvable")));
        });
    }
    group.finish();
}

fn bench_horizon_planning(c: &mut Criterion) {
    // The 24-hour lookahead LP (24 * (N+3) variables) from the
    // `reap-core` horizon planner: how much does joint planning cost
    // compared to 24 independent solves?
    use reap_core::plan_horizon;
    let mut group = c.benchmark_group("horizon_planning");
    group.sample_size(20);
    let problem = synthetic_problem(5);
    // A day/night forecast.
    let forecast: Vec<Energy> = (0..24)
        .map(|h| {
            if (7..19).contains(&h) {
                Energy::from_joules(6.0)
            } else {
                Energy::ZERO
            }
        })
        .collect();
    group.bench_function("joint_24h", |b| {
        b.iter(|| {
            black_box(
                plan_horizon(
                    &problem,
                    black_box(&forecast),
                    Energy::from_joules(30.0),
                    Energy::from_joules(60.0),
                )
                .expect("plannable"),
            )
        });
    });
    // A dark window with an empty battery cannot pay the off-state
    // floor: the planner answers it in closed form, without the LP.
    let dark = vec![Energy::ZERO; 24];
    group.bench_function("starved_24h", |b| {
        b.iter(|| {
            black_box(
                plan_horizon(
                    &problem,
                    black_box(&dark),
                    Energy::ZERO,
                    Energy::from_joules(60.0),
                )
                .expect_err("starved"),
            )
        });
    });
    group.bench_function("myopic_24h", |b| {
        b.iter(|| {
            for &e in &forecast {
                let budget = e.max(problem.min_budget());
                black_box(problem.solve(black_box(budget)).expect("solvable"));
            }
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_simplex_scaling,
    bench_budget_regimes,
    bench_horizon_planning
);
criterion_main!(benches);
