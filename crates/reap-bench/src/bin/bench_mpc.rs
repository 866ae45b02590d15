//! Receding-horizon (MPC) policy baseline: lookahead sweep and
//! forecast-error robustness across all four harvest sources, written as
//! machine-readable JSON (`BENCH_mpc.json`) so CI tracks both the policy
//! quality and the MPC simulation throughput.
//!
//! ```text
//! cargo run --release -p reap-bench --bin bench_mpc [-- <output.json>] [--quick]
//! ```
//!
//! Protocol: per source, a 14-day trace (seed [`reap_bench::BENCH_SEED`])
//! is simulated under `Policy::Horizon` with lookahead ∈ {1, 4, 12, 24}
//! against a ±20% noisy-oracle forecast, alongside three myopic
//! baselines — REAP open-loop, REAP closed-loop, and static DP1. A
//! robustness sweep re-runs lookahead 24 at forecast errors
//! {0%, 10%, 20%, 40%}. The committed `BENCH_mpc.json` at the repo root
//! is the recorded baseline; regenerate with the command above after any
//! engine, forecaster, or horizon-LP change (`--quick` shrinks the traces
//! for smoke runs; CI uses the full protocol).

use reap_bench::{has_quick_flag, rounded, write_baseline, CharMode};
use reap_harvest::SourceKind;
use reap_serve::json::Value;
use reap_sim::{ForecasterKind, Policy, Scenario, SimReport};

/// Days per trace in the full protocol.
const DAYS: u32 = 14;
/// Forecast error of the headline MPC runs.
const REL_ERROR: f64 = 0.2;
/// Lookahead window lengths swept per source.
const LOOKAHEADS: [usize; 4] = [1, 4, 12, 24];
/// Forecast errors of the robustness sweep (at lookahead 24).
const ERRORS: [f64; 4] = [0.0, 0.1, 0.2, 0.4];

struct Run {
    label: String,
    mean_accuracy: f64,
    active_fraction: f64,
    objective: f64,
    brownout_hours: usize,
}

fn run_metrics(label: String, report: &SimReport, hours: f64) -> Run {
    Run {
        label,
        mean_accuracy: report.mean_accuracy(),
        active_fraction: report.total_active_time().hours() / hours,
        objective: report.total_objective(1.0),
        brownout_hours: report.brownout_hours(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = has_quick_flag(&args);
    let days = if quick { 3 } else { DAYS };
    let hours = f64::from(days) * 24.0;
    let points = reap_bench::operating_points(CharMode::Paper, true);

    println!(
        "MPC baseline: lookahead {LOOKAHEADS:?} at ±{:.0}% forecast error, {days} days per \
         source",
        REL_ERROR * 100.0
    );
    println!("=====================================================================");

    let start = std::time::Instant::now();
    let mut mpc_hours = 0usize;
    let mut sources = Vec::new();
    for kind in SourceKind::ALL {
        let trace = kind
            .instantiate(reap_bench::BENCH_SEED)
            .generate(244, days)
            .expect("bundled sources generate");
        let noisy = ForecasterKind::Oracle {
            rel_error: REL_ERROR,
            seed: reap_bench::BENCH_SEED,
        };
        let build = |forecaster, budget_mode| {
            Scenario::builder(trace.clone())
                .points(points.clone())
                .forecaster(forecaster)
                .budget_mode(budget_mode)
                .build()
                .expect("valid scenario")
        };

        let mut runs = Vec::new();
        for lookahead in LOOKAHEADS {
            let report = build(noisy, reap_sim::BudgetMode::OpenLoop)
                .run(Policy::Horizon { lookahead })
                .expect("mpc runs");
            mpc_hours += report.hours().len();
            runs.push(run_metrics(format!("MPC{lookahead}"), &report, hours));
        }
        let open = build(noisy, reap_sim::BudgetMode::OpenLoop)
            .run(Policy::Reap)
            .expect("reap runs");
        runs.push(run_metrics("REAP-open".into(), &open, hours));
        let closed = build(noisy, reap_sim::BudgetMode::ClosedLoop)
            .run(Policy::Reap)
            .expect("reap runs");
        runs.push(run_metrics("REAP-closed".into(), &closed, hours));
        let dp1 = build(noisy, reap_sim::BudgetMode::OpenLoop)
            .run(Policy::Static(1))
            .expect("static runs");
        runs.push(run_metrics("DP1".into(), &dp1, hours));

        let mut robustness = Vec::new();
        for rel_error in ERRORS {
            let report = build(
                ForecasterKind::Oracle {
                    rel_error,
                    seed: reap_bench::BENCH_SEED,
                },
                reap_sim::BudgetMode::OpenLoop,
            )
            .run(Policy::Horizon { lookahead: 24 })
            .expect("mpc runs");
            mpc_hours += report.hours().len();
            robustness.push((rel_error, run_metrics(String::new(), &report, hours)));
        }

        println!("{}:", kind.label());
        for r in &runs {
            println!(
                "  {:>11}: accuracy {:.3}, active {:.3}, J = {:>7.1}, {} brownouts",
                r.label, r.mean_accuracy, r.active_fraction, r.objective, r.brownout_hours
            );
        }
        let rob = robustness
            .iter()
            .map(|(e, r)| format!("{:.0}%→{:.3}", e * 100.0, r.mean_accuracy))
            .collect::<Vec<_>>()
            .join(", ");
        println!("  MPC24 accuracy vs forecast error: {rob}");

        let runs = runs
            .iter()
            .map(|r| {
                Value::obj(vec![
                    ("policy", Value::Str(r.label.clone())),
                    ("mean_accuracy", rounded(r.mean_accuracy, 4)),
                    ("active_fraction", rounded(r.active_fraction, 4)),
                    ("objective", rounded(r.objective, 2)),
                    ("brownout_hours", Value::Num(r.brownout_hours as f64)),
                ])
            })
            .collect();
        let robustness = robustness
            .iter()
            .map(|(rel_error, r)| {
                Value::obj(vec![
                    ("rel_error", Value::Num(*rel_error)),
                    ("mean_accuracy", rounded(r.mean_accuracy, 4)),
                    ("objective", rounded(r.objective, 2)),
                ])
            })
            .collect();
        sources.push(Value::obj(vec![
            ("source", Value::Str(kind.label().into())),
            ("runs", Value::Arr(runs)),
            ("mpc24_robustness", Value::Arr(robustness)),
        ]));
    }

    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let hours_per_s = mpc_hours as f64 / (wall_ms / 1e3);
    println!(
        "wall time {wall_ms:.0} ms for {mpc_hours} MPC-simulated hours ({hours_per_s:.0} hours/s)"
    );

    let doc = Value::obj(vec![
        ("schema", Value::Str("reap-bench/mpc-v1".into())),
        ("days", Value::Num(f64::from(days))),
        ("rel_error", Value::Num(REL_ERROR)),
        ("sources", Value::Arr(sources)),
        ("wall_ms", rounded(wall_ms, 0)),
        ("hours_per_s", rounded(hours_per_s, 0)),
    ]);
    write_baseline(&args, "BENCH_mpc.json", &doc);
}
