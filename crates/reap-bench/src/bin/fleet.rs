//! Fleet-scale simulation baseline: thousands of seeded synthetic users
//! sharded across all four harvest sources, reduced to population
//! percentiles and written as machine-readable JSON (`BENCH_fleet.json`)
//! so CI tracks both the population statistics and the fleet throughput:
//! `wall_ms` for a warm run (the SoA form cached) and `cold_ms` for a
//! freshly built fleet's first run, SoA build included.
//!
//! ```text
//! cargo run --release -p reap-bench --bin fleet [-- <output.json>] [--quick]
//! ```
//!
//! The committed `BENCH_fleet.json` at the repo root is the baseline
//! recorded when the fleet simulator landed; regenerate it with the
//! command above after any harvest-source, engine, or aggregation change.
//! `--quick` shrinks the population for smoke runs (CI still uses the
//! full 2000 users).

use reap_bench::{has_quick_flag, rounded, write_baseline, CharMode};
use reap_serve::json::Value;
use reap_sim::{Fleet, Percentiles};

/// Users in the baseline fleet. Two thousand keeps the run under a couple
/// of seconds in release while giving percentiles a stable tail.
const FLEET_USERS: u32 = 2000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = has_quick_flag(&args);
    let users = if quick { 64 } else { FLEET_USERS };
    let fleet = build(users);

    println!(
        "fleet baseline: {} users x {} days across {} harvest sources",
        fleet.users(),
        fleet.days(),
        fleet.sources().len()
    );
    println!("=============================================================");

    // Throughput is the fastest of several repetitions: the simulation
    // is deterministic, so every run does identical work and the
    // minimum wall time isolates the kernels from scheduler noise on
    // shared runners (each repetition must also reproduce the same
    // report). Nine reps span ~200 ms, long enough to straddle brief
    // frequency-throttle windows that would bias a smaller sample.
    let runs = if quick { 1 } else { 9 };
    let report = fleet.run().expect("fleet runs");
    let mut cold_ms = f64::INFINITY;
    for _ in 0..runs {
        let start = std::time::Instant::now();
        let fresh = build(users).run().expect("fleet runs");
        cold_ms = cold_ms.min(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(fresh, report, "fresh fleet run is not deterministic");
    }
    let mut wall_ms = f64::INFINITY;
    for _ in 0..runs {
        let start = std::time::Instant::now();
        let again = fleet.run().expect("fleet runs");
        wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(again, report, "fleet run is not deterministic");
    }
    let users_per_s = f64::from(report.users()) / (wall_ms / 1e3);

    // The determinism guarantee the fleet tests pin down, re-asserted on
    // the full population: a single-threaded run must reproduce the
    // parallel aggregate bit for bit.
    let single = fleet
        .run_with_threads(Some(std::num::NonZeroUsize::MIN))
        .expect("fleet runs single-threaded");
    assert_eq!(
        single, report,
        "single-threaded fleet diverged from parallel run"
    );

    println!("accuracy        : {}", report.accuracy());
    println!("active fraction : {}", report.active_fraction());
    println!(
        "cohorts         : {} ({} SoA bytes/user)",
        report.cohorts(),
        report.soa_bytes_per_user()
    );
    for slice in report.per_source() {
        println!(
            "{:>14} : {:>4} users, mean accuracy {:.3}, mean active {:.3}, {:>7.1} J harvested",
            slice.kind.label(),
            slice.users,
            slice.mean_accuracy,
            slice.mean_active_fraction,
            slice.mean_harvested_j
        );
    }
    println!(
        "wall time {wall_ms:.0} ms warm, {cold_ms:.0} ms cold ({users_per_s:.0} users/s), \
         {} brownout hours fleet-wide",
        report.brownout_hours()
    );

    let percentiles = |p: Percentiles| {
        Value::obj(vec![
            ("p5", rounded(p.p5, 4)),
            ("p50", rounded(p.p50, 4)),
            ("p95", rounded(p.p95, 4)),
        ])
    };
    let per_source = report
        .per_source()
        .iter()
        .map(|s| {
            Value::obj(vec![
                ("source", Value::Str(s.kind.label().into())),
                ("users", Value::Num(f64::from(s.users))),
                ("mean_accuracy", rounded(s.mean_accuracy, 4)),
                ("mean_active_fraction", rounded(s.mean_active_fraction, 4)),
                ("mean_harvested_j", rounded(s.mean_harvested_j, 1)),
            ])
        })
        .collect();
    let doc = Value::obj(vec![
        ("schema", Value::Str("reap-bench/fleet-v3".into())),
        ("users", Value::Num(f64::from(report.users()))),
        ("days", Value::Num(f64::from(report.days()))),
        ("cohorts", Value::Num(f64::from(report.cohorts()))),
        (
            "soa_bytes_per_user",
            Value::Num(f64::from(report.soa_bytes_per_user())),
        ),
        ("accuracy", percentiles(report.accuracy())),
        ("active_fraction", percentiles(report.active_fraction())),
        ("mean_accuracy", rounded(report.mean_accuracy(), 4)),
        (
            "mean_active_fraction",
            rounded(report.mean_active_fraction(), 4),
        ),
        ("brownout_hours", Value::Num(report.brownout_hours() as f64)),
        ("per_source", Value::Arr(per_source)),
        ("wall_ms", rounded(wall_ms, 0)),
        ("cold_ms", rounded(cold_ms, 0)),
        ("users_per_s", rounded(users_per_s, 0)),
    ]);
    write_baseline(&args, "BENCH_fleet.json", &doc);
}

/// The baseline fleet of `users` users, freshly built: its SoA form is
/// built on its first run.
fn build(users: u32) -> Fleet {
    Fleet::builder(reap_bench::operating_points(CharMode::Paper, true))
        .users(users)
        .seed(reap_bench::BENCH_SEED)
        .build()
        .expect("valid fleet")
}
