//! Bench-baseline regression gate: compares freshly generated bench JSON
//! against the committed baselines and fails (exit 1) on a throughput
//! regression beyond the threshold.
//!
//! ```text
//! cargo run --release -p reap-bench --bin bench_check -- \
//!     [--threshold 0.25] --discover <dir>
//! cargo run --release -p reap-bench --bin bench_check -- \
//!     [--threshold 0.25] <baseline.json> <fresh.json> [<baseline> <fresh> ...]
//! ```
//!
//! `--discover <dir>` finds every committed `BENCH_<name>.json` baseline
//! in the directory and pairs it with its regenerated
//! `BENCH_<name>.ci.json` — a new bench joins the gate by existing, and a
//! bench whose CI step stopped producing fresh numbers fails loudly
//! instead of silently dropping out. Explicit pairs remain for local use.
//!
//! Each pair must share a known bench schema (`reap-bench/planner-v1`,
//! `reap-bench/fleet-v3`, `reap-bench/mpc-v1`, `reap-bench/serve-v2`, ...)
//! and agree on that schema's workload fields (users, days, ...), so a
//! quick run is never gated against a full one; the workload fields and
//! tracked throughput metrics per schema live in
//! [`reap_bench::regression`]. A metric a schema records without gating
//! (fleet-v3's `cold_ms`) prints with the verdict `recorded`. The default threshold tolerates a 25%
//! slowdown — wide enough for shared-runner noise, tight enough to catch
//! a hot path falling off a cliff.

use reap_bench::regression::{compare, discover_pairs};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threshold = 0.25f64;
    let mut discover: Option<String> = None;
    let mut paths = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--threshold" {
            let value = iter
                .next()
                .unwrap_or_else(|| panic!("--threshold needs a value"));
            threshold = value
                .parse()
                .unwrap_or_else(|_| panic!("--threshold expects a number, got {value:?}"));
        } else if arg == "--discover" {
            let value = iter
                .next()
                .unwrap_or_else(|| panic!("--discover needs a directory"));
            discover = Some(value.clone());
        } else {
            paths.push(arg.clone());
        }
    }
    if let Some(dir) = discover {
        assert!(
            paths.is_empty(),
            "--discover and explicit pairs are mutually exclusive"
        );
        match discover_pairs(std::path::Path::new(&dir)) {
            Ok(pairs) => {
                for (baseline, fresh) in pairs {
                    paths.push(baseline.display().to_string());
                    paths.push(fresh.display().to_string());
                }
            }
            Err(message) => {
                println!("bench discovery in {dir}: {message} .. FAILED");
                std::process::exit(1);
            }
        }
    }
    assert!(
        !paths.is_empty() && paths.len() % 2 == 0,
        "usage: bench_check [--threshold 0.25] --discover <dir> | <baseline.json> <fresh.json> ..."
    );

    println!(
        "bench regression gate: {} pair(s), threshold {:.0}%",
        paths.len() / 2,
        threshold * 100.0
    );
    let mut failed = false;
    for pair in paths.chunks(2) {
        let (base_path, fresh_path) = (&pair[0], &pair[1]);
        let baseline = std::fs::read_to_string(base_path)
            .unwrap_or_else(|e| panic!("cannot read baseline {base_path}: {e}"));
        let fresh = std::fs::read_to_string(fresh_path)
            .unwrap_or_else(|e| panic!("cannot read fresh run {fresh_path}: {e}"));
        match compare(&baseline, &fresh, threshold) {
            Ok(comparisons) => {
                for c in comparisons {
                    let verdict = if !c.gated {
                        "recorded"
                    } else if c.regressed {
                        "REGRESSED"
                    } else {
                        "ok"
                    };
                    println!("  {fresh_path} {c} .. {verdict}");
                    failed |= c.regressed;
                }
            }
            Err(message) => {
                println!("  {fresh_path}: {message} .. FAILED");
                failed = true;
            }
        }
    }
    if failed {
        println!(
            "bench regression gate FAILED (>{:.0}% slowdown)",
            threshold * 100.0
        );
        std::process::exit(1);
    }
    println!("bench regression gate passed");
}
