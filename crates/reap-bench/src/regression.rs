//! Bench-baseline regression checking.
//!
//! The repo commits machine-readable perf baselines (`BENCH_*.json`).
//! CI regenerates each on every commit; this module compares the fresh
//! numbers against the committed baseline and flags throughput
//! regressions beyond a threshold — the logic behind the `bench_check`
//! binary.
//!
//! Both documents are read with the workspace's JSON codec
//! ([`reap_serve::json`]). A pair is comparable only when it shares a
//! schema and agrees on every workload field of that schema (users,
//! days, ...): a quick run gated against a full one would pass or fail
//! on the workload, not on the code. Deterministic outcome fields must
//! match exactly: a run that moved them changed the simulation.

use reap_serve::json::{self, Value};

/// Direction of a throughput metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Larger is faster (e.g. `users_per_s`).
    HigherIsBetter,
    /// Smaller is faster (e.g. `matrix_ms`).
    LowerIsBetter,
}

/// One tracked throughput metric of a bench schema.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Where the metric sits: a top-level key, or a dotted path into a
    /// nested object (`month_sim.matrix_ms`).
    pub key: &'static str,
    /// Which way is faster.
    pub direction: Direction,
    /// Whether a slowdown beyond the threshold fails the gate; an
    /// ungated metric is only recorded beside the gated ones.
    pub gated: bool,
}

/// What `bench_check` reads from one bench schema.
#[derive(Debug)]
pub struct Schema {
    /// The fields (keys or dotted paths) that describe the workload; a
    /// baseline and a fresh run must agree on every one.
    pub workload: &'static [&'static str],
    /// Deterministic outcome fields a fresh run must reproduce exactly.
    pub outcome: &'static [&'static str],
    /// The tracked throughput metrics.
    pub metrics: &'static [Metric],
}

const fn higher(key: &'static str) -> Metric {
    Metric {
        key,
        direction: Direction::HigherIsBetter,
        gated: true,
    }
}

const fn lower(key: &'static str) -> Metric {
    Metric {
        key,
        direction: Direction::LowerIsBetter,
        gated: true,
    }
}

/// A lower-is-better metric that is compared and printed but never
/// fails the gate.
const fn recorded_lower(key: &'static str) -> Metric {
    Metric {
        gated: false,
        ..lower(key)
    }
}

static PLANNER_SCHEMA: Schema = Schema {
    workload: &["budget_j", "month_sim.hours", "month_sim.matrix_policies"],
    outcome: &[],
    metrics: &[lower("month_sim.reap_run_ms"), lower("month_sim.matrix_ms")],
};

// The fleet and MPC simulations are deterministic too: the population
// statistics and every policy's outcome are gated exactly, throughput
// with the threshold.
const FLEET_OUTCOME: &[&str] = &[
    "cohorts",
    "soa_bytes_per_user",
    "accuracy",
    "active_fraction",
    "mean_accuracy",
    "mean_active_fraction",
    "brownout_hours",
    "per_source",
];

static FLEET_SCHEMA: Schema = Schema {
    workload: &["users", "days"],
    outcome: FLEET_OUTCOME,
    metrics: &[higher("users_per_s")],
};

// fleet-v3 adds the cold first run (`cold_ms`, SoA build included). It
// is recorded, not gated: a cold run on a shared runner swings with the
// host more than the threshold allows.
static FLEET_V3_SCHEMA: Schema = Schema {
    workload: &["users", "days"],
    outcome: FLEET_OUTCOME,
    metrics: &[higher("users_per_s"), recorded_lower("cold_ms")],
};

static MPC_SCHEMA: Schema = Schema {
    workload: &["days", "rel_error"],
    outcome: &["sources"],
    metrics: &[higher("hours_per_s")],
};

// Event-core throughput is gated with the threshold; the completion
// counts and the energy ledger are gated exactly, since the event core
// is deterministic and a speedup must not move them.
static INTERMITTENT_SCHEMA: Schema = Schema {
    workload: &["users", "days", "dt_seconds", "blackout_fraction"],
    outcome: &[
        "events",
        "bursts",
        "epochs_committed",
        "epochs_lost",
        "brownouts",
        "sleeps",
        "committed_objective",
        "harvest_offered_j",
        "consumed_j",
        "spilled_j",
        "leaked_j",
        "checkpoint_j",
        "restore_j",
    ],
    metrics: &[higher("events_per_s")],
};

// The serve bench also records decide round-trip p50/p99, but only
// throughput is gated: loopback tail latency on shared CI runners is too
// noisy for a hard quantile gate.
static SERVE_SCHEMA: Schema = Schema {
    workload: &["users", "client_threads", "decisions"],
    outcome: &[],
    metrics: &[higher("decisions_per_s")],
};

/// The workload fields and tracked metrics of a bench schema, or `None`
/// for an unknown schema.
#[must_use]
pub fn schema(name: &str) -> Option<&'static Schema> {
    match name {
        "reap-bench/planner-v1" => Some(&PLANNER_SCHEMA),
        // fleet-v2 (the SoA core) added `cohorts` and `soa_bytes_per_user`
        // and serve-v2 (the RetryClient workload) the resilience counters,
        // each alongside the same throughput metric. The v1 entries stay
        // so a stale committed baseline produces a clear schema-mismatch
        // error instead of an unknown-schema one.
        "reap-bench/fleet-v1" | "reap-bench/fleet-v2" => Some(&FLEET_SCHEMA),
        "reap-bench/fleet-v3" => Some(&FLEET_V3_SCHEMA),
        "reap-bench/mpc-v1" => Some(&MPC_SCHEMA),
        "reap-bench/intermittent-v1" => Some(&INTERMITTENT_SCHEMA),
        "reap-bench/serve-v1" | "reap-bench/serve-v2" => Some(&SERVE_SCHEMA),
        _ => None,
    }
}

/// Discovers baseline/fresh bench pairs in `dir` by glob instead of a
/// hard-coded list: every committed `BENCH_<name>.json` baseline pairs
/// with a freshly regenerated `BENCH_<name>.ci.json` next to it.
///
/// Returns `(baseline, fresh)` path pairs sorted by file name.
///
/// # Errors
///
/// Returns a message when the directory cannot be read, when no baseline
/// matches the pattern (an empty gate would pass vacuously), or when a
/// baseline lacks its fresh counterpart — a bench that stopped running in
/// CI must fail the gate, not silently drop out of it.
pub fn discover_pairs(
    dir: &std::path::Path,
) -> Result<Vec<(std::path::PathBuf, std::path::PathBuf)>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut names: Vec<String> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot scan {}: {e}", dir.display()))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("BENCH_") && name.ends_with(".json") && !name.ends_with(".ci.json") {
            names.push(name.to_string());
        }
    }
    if names.is_empty() {
        return Err(format!(
            "no BENCH_*.json baselines found in {}",
            dir.display()
        ));
    }
    names.sort();
    let mut pairs = Vec::with_capacity(names.len());
    for name in names {
        let baseline = dir.join(&name);
        let fresh_name = format!("{}.ci.json", name.trim_end_matches(".json"));
        let fresh = dir.join(&fresh_name);
        if !fresh.is_file() {
            return Err(format!(
                "baseline {name} has no fresh run {fresh_name} — did its bench step run?"
            ));
        }
        pairs.push((baseline, fresh));
    }
    Ok(pairs)
}

/// The value at `path` in `doc`: a top-level key, or a dotted path
/// into nested objects. Never a key found anywhere else in the document.
fn lookup<'a>(doc: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('.').try_fold(doc, |v, key| v.get(key))
}

/// The first place where `want` and `got` differ, as its path below
/// `path` (`sources[0].runs[3].objective`) with both values there;
/// `None` when they are equal. Arrays of equal length and objects with
/// the same keys in the same order are compared member by member.
fn first_difference<'a>(
    path: &str,
    want: &'a Value,
    got: &'a Value,
) -> Option<(String, &'a Value, &'a Value)> {
    match (want, got) {
        (Value::Arr(w), Value::Arr(g)) if w.len() == g.len() => w
            .iter()
            .zip(g)
            .enumerate()
            .find_map(|(i, (w, g))| first_difference(&format!("{path}[{i}]"), w, g)),
        (Value::Obj(w), Value::Obj(g))
            if w.len() == g.len() && w.iter().zip(g).all(|((a, _), (b, _))| a == b) =>
        {
            w.iter()
                .zip(g)
                .find_map(|((key, w), (_, g))| first_difference(&format!("{path}.{key}"), w, g))
        }
        _ => (want != got).then(|| (path.to_string(), want, got)),
    }
}

/// Outcome of comparing one metric between baseline and fresh runs.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The metric's JSON key.
    pub key: &'static str,
    /// The committed baseline value.
    pub baseline: f64,
    /// The freshly measured value.
    pub fresh: f64,
    /// Slowdown factor: `> 1` means the fresh run is slower, whatever the
    /// metric's direction (a 1.30 entry reads "30% slower than baseline").
    pub slowdown: f64,
    /// Whether the metric is gated ([`Metric::gated`]).
    pub gated: bool,
    /// `true` when the metric is gated and `slowdown` exceeds
    /// `1 + threshold`.
    pub regressed: bool,
}

impl std::fmt::Display for Comparison {
    /// `key: baseline B, fresh F (N% slower)`: both values to four
    /// significant digits, and the change as a share of the baseline's
    /// time per unit of work, so it reads the same for either direction.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (percent, way) = if self.slowdown >= 1.0 {
            ((self.slowdown - 1.0) * 100.0, "slower")
        } else {
            ((1.0 - self.slowdown) * 100.0, "faster")
        };
        write!(
            f,
            "{}: baseline {}, fresh {} ({percent:.0}% {way})",
            self.key,
            significant(self.baseline),
            significant(self.fresh)
        )
    }
}

/// `x` to four significant digits, in plain notation.
fn significant(x: f64) -> String {
    let magnitude = if x == 0.0 {
        0
    } else {
        x.abs().log10().floor() as i32
    };
    let decimals = (3 - magnitude).clamp(0, 12) as usize;
    format!("{x:.decimals$}")
}

/// Compares every tracked metric of a bench JSON pair.
///
/// `threshold` is the tolerated fractional slowdown (0.25 = fail beyond
/// 25% slower than the committed baseline).
///
/// # Errors
///
/// Returns a message when either document is not JSON or lacks a known
/// `schema`, the schemas disagree, the workload or outcome fields differ
/// or are missing, or a tracked metric is missing or non-positive.
pub fn compare(
    baseline_json: &str,
    fresh_json: &str,
    threshold: f64,
) -> Result<Vec<Comparison>, String> {
    let baseline =
        json::parse(baseline_json).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let fresh = json::parse(fresh_json).map_err(|e| format!("fresh run is not valid JSON: {e}"))?;
    let name = lookup(&baseline, "schema")
        .and_then(Value::as_str)
        .ok_or("baseline has no schema field")?;
    let fresh_name = lookup(&fresh, "schema")
        .and_then(Value::as_str)
        .ok_or("fresh run has no schema field")?;
    if name != fresh_name {
        return Err(format!(
            "schema mismatch: baseline {name} vs fresh {fresh_name}"
        ));
    }
    let schema = schema(name).ok_or_else(|| format!("unknown bench schema {name}"))?;
    for (what, keys) in [("workload", schema.workload), ("outcome", schema.outcome)] {
        for key in keys {
            let Some(want) = lookup(&baseline, key) else {
                return Err(format!("baseline lacks {what} field {key}"));
            };
            let Some(got) = lookup(&fresh, key) else {
                return Err(format!("fresh run lacks {what} field {key}"));
            };
            if let Some((at, want, got)) = first_difference(key, want, got) {
                return Err(format!(
                    "{what} mismatch: {at} is {} in the baseline but {} in the fresh run",
                    want.encode(),
                    got.encode()
                ));
            }
        }
    }
    let number = |doc: &Value, key: &str| lookup(doc, key).and_then(Value::as_f64);
    let mut out = Vec::with_capacity(schema.metrics.len());
    for metric in schema.metrics {
        let baseline = number(&baseline, metric.key)
            .ok_or_else(|| format!("baseline lacks metric {}", metric.key))?;
        let fresh = number(&fresh, metric.key)
            .ok_or_else(|| format!("fresh run lacks metric {}", metric.key))?;
        if baseline <= 0.0 || fresh <= 0.0 {
            return Err(format!(
                "metric {} must be positive (baseline {baseline}, fresh {fresh})",
                metric.key
            ));
        }
        let slowdown = match metric.direction {
            Direction::LowerIsBetter => fresh / baseline,
            Direction::HigherIsBetter => baseline / fresh,
        };
        out.push(Comparison {
            key: metric.key,
            baseline,
            fresh,
            slowdown,
            gated: metric.gated,
            regressed: metric.gated && slowdown > 1.0 + threshold,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLEET: &str = r#"{
  "schema": "reap-bench/fleet-v1",
  "users": 2000,
  "days": 30,
  "cohorts": 2000,
  "soa_bytes_per_user": 300,
  "accuracy": {"p5": 0.0055, "p50": 0.0733, "p95": 0.2579},
  "active_fraction": {"p5": 0.0069, "p50": 0.0945, "p95": 0.3129},
  "mean_accuracy": 0.0995,
  "mean_active_fraction": 0.1239,
  "brownout_hours": 0,
  "per_source": [],
  "users_per_s": 6000
}"#;

    #[test]
    fn extracts_numbers_and_strings() {
        let doc = json::parse(FLEET).unwrap();
        let text = |key| lookup(&doc, key).and_then(Value::as_str);
        let number = |key| lookup(&doc, key).and_then(Value::as_f64);
        assert_eq!(text("schema"), Some("reap-bench/fleet-v1"));
        assert_eq!(number("users_per_s"), Some(6000.0));
        assert_eq!(number("users"), Some(2000.0));
        assert_eq!(number("absent"), None);
        let doc = json::parse(r#"{"x": -3.5e2, "month_sim": {"hours": 720}}"#).unwrap();
        assert_eq!(lookup(&doc, "x").and_then(Value::as_f64), Some(-350.0));
        assert_eq!(
            lookup(&doc, "month_sim.hours").and_then(Value::as_f64),
            Some(720.0)
        );
        // Only the named path counts, never the key found elsewhere.
        assert_eq!(lookup(&doc, "hours"), None);
    }

    #[test]
    fn schemas_map_to_metrics() {
        assert_eq!(schema("reap-bench/planner-v1").unwrap().metrics.len(), 2);
        assert_eq!(schema("reap-bench/fleet-v1").unwrap().metrics.len(), 1);
        assert_eq!(schema("reap-bench/mpc-v1").unwrap().metrics.len(), 1);
        assert!(schema("nope").is_none());
        let intermittent = schema("reap-bench/intermittent-v1").unwrap().metrics;
        assert_eq!(intermittent.len(), 1);
        assert_eq!(intermittent[0].key, "events_per_s");
        assert_eq!(intermittent[0].direction, Direction::HigherIsBetter);
        let serve = schema("reap-bench/serve-v1").unwrap();
        assert_eq!(serve.metrics.len(), 1);
        assert_eq!(serve.metrics[0].key, "decisions_per_s");
        assert_eq!(serve.metrics[0].direction, Direction::HigherIsBetter);
        assert_eq!(serve.workload, ["users", "client_threads", "decisions"]);
    }

    #[test]
    fn committed_baselines_carry_their_workload_and_metrics() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut baselines = 0;
        for entry in std::fs::read_dir(&root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            if !name.starts_with("BENCH_") || !name.ends_with(".json") || name.ends_with(".ci.json")
            {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let cmp = compare(&text, &text, 0.25).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!cmp.is_empty(), "{name}");
            baselines += 1;
        }
        assert_eq!(baselines, 5);
    }

    /// A committed baseline at the repository root.
    fn committed(name: &str) -> String {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        std::fs::read_to_string(root.join(name)).unwrap()
    }

    #[test]
    fn intermittent_outcome_must_match_exactly() {
        let base = committed("BENCH_intermittent.json");
        let doc = json::parse(&base).unwrap();
        let bursts = lookup(&doc, "bursts").and_then(Value::as_f64).unwrap();
        let fresh = base.replace(
            &format!("\"bursts\": {bursts}"),
            &format!("\"bursts\": {}", bursts + 1.0),
        );
        assert_ne!(fresh, base, "the fixture must change bursts");
        let err = compare(&base, &fresh, 0.25).unwrap_err();
        assert!(err.contains("outcome mismatch"), "got: {err}");
        assert!(err.contains("bursts"), "got: {err}");
        // The throughput metric alone may move.
        let faster = base.replace("\"events_per_s\": ", "\"events_per_s\": 9");
        assert!(compare(&base, &faster, 0.25).is_ok());
    }

    #[test]
    fn mpc_outcome_must_match_exactly() {
        let base = committed("BENCH_mpc.json");
        // One run's objective moves (MPC24 on the first source).
        let fresh = base.replacen("\"objective\": 114.33", "\"objective\": 114.34", 1);
        assert_ne!(fresh, base, "the fixture must change one objective");
        let err = compare(&base, &fresh, 0.25).unwrap_err();
        assert!(err.contains("outcome mismatch"), "got: {err}");
        assert!(
            err.contains("sources[0].runs[3].objective is 114.33"),
            "got: {err}"
        );
        // The throughput metric alone may move.
        let faster = base.replace("\"hours_per_s\": ", "\"hours_per_s\": 9");
        assert!(compare(&base, &faster, 0.25).is_ok());
    }

    #[test]
    fn fleet_outcome_must_match_exactly() {
        let base = committed("BENCH_fleet.json");
        // One source's mean accuracy moves.
        let fresh = base.replacen("\"mean_accuracy\": 0.0844", "\"mean_accuracy\": 0.0845", 1);
        assert_ne!(fresh, base, "the fixture must change one per-source mean");
        let err = compare(&base, &fresh, 0.25).unwrap_err();
        assert!(err.contains("outcome mismatch"), "got: {err}");
        assert!(
            err.contains("per_source[1].mean_accuracy is 0.0844"),
            "got: {err}"
        );
        // The throughput metric alone may move.
        let faster = base.replace("\"users_per_s\": ", "\"users_per_s\": 9");
        assert!(compare(&base, &faster, 0.25).is_ok());
    }

    #[test]
    fn fleet_v3_records_cold_ms_without_gating_it() {
        let base = committed("BENCH_fleet.json");
        assert!(base.contains("\"schema\": \"reap-bench/fleet-v3\""));
        let doc = json::parse(&base).unwrap();
        let cold = lookup(&doc, "cold_ms").and_then(Value::as_f64).unwrap();
        // A tenfold slower cold run is recorded, never a regression.
        let slower = base.replace(
            &format!("\"cold_ms\": {cold}"),
            &format!("\"cold_ms\": {}", cold * 10.0),
        );
        assert_ne!(slower, base, "the fixture must change cold_ms");
        let cmp = compare(&base, &slower, 0.25).unwrap();
        let keys: Vec<_> = cmp.iter().map(|c| (c.key, c.gated, c.regressed)).collect();
        assert_eq!(
            keys,
            [("users_per_s", true, false), ("cold_ms", false, false)]
        );
        assert!((cmp[1].slowdown - 10.0).abs() < 1e-9);
        // A fleet-v3 run without it is refused.
        let missing = base.replace(&format!("\"cold_ms\": {cold},"), "");
        let err = compare(&base, &missing, 0.25).unwrap_err();
        assert!(err.contains("fresh run lacks metric cold_ms"), "got: {err}");
    }

    #[test]
    fn quick_serve_run_is_not_compared_with_a_full_one() {
        let quick = r#"{"schema": "reap-bench/serve-v2", "users": 64, "client_threads": 8,
            "decisions": 4000, "decisions_per_s": 50987}"#;
        let full = r#"{"schema": "reap-bench/serve-v2", "users": 2000, "client_threads": 8,
            "decisions": 200000, "decisions_per_s": 133000}"#;
        let err = compare(quick, full, 0.25).unwrap_err();
        assert!(err.contains("workload mismatch"), "got: {err}");
        assert!(err.contains("users") && err.contains("64") && err.contains("2000"));
        // A workload block without one of its fields is refused too.
        let partial = full.replace("\"client_threads\": 8,", "");
        let err = compare(full, &partial, 0.25).unwrap_err();
        assert!(
            err.contains("lacks workload field client_threads"),
            "got: {err}"
        );
    }

    #[test]
    fn metrics_are_read_at_their_path_only() {
        // A metric that appears only inside a nested object is missing,
        // not silently taken from wherever the key first occurs.
        let base = r#"{"schema": "reap-bench/serve-v2", "users": 2000, "client_threads": 8,
            "decisions": 200000, "decisions_per_s": 133000}"#;
        let nested = r#"{"schema": "reap-bench/serve-v2", "users": 2000, "client_threads": 8,
            "decisions": 200000, "rounds": [{"decisions_per_s": 133000}]}"#;
        let err = compare(base, nested, 0.25).unwrap_err();
        assert!(
            err.contains("fresh run lacks metric decisions_per_s"),
            "got: {err}"
        );
    }

    #[test]
    fn discovery_pairs_baselines_with_fresh_runs() {
        let dir = std::env::temp_dir().join(format!("reap_bench_discover_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // An empty directory is an error, not a vacuous pass.
        let err = discover_pairs(&dir).unwrap_err();
        assert!(err.contains("no BENCH_"), "got: {err}");

        // A baseline without its fresh counterpart fails loudly.
        std::fs::write(dir.join("BENCH_fleet.json"), "{}").unwrap();
        std::fs::write(dir.join("unrelated.json"), "{}").unwrap();
        let err = discover_pairs(&dir).unwrap_err();
        assert!(err.contains("BENCH_fleet.ci.json"), "got: {err}");

        // Complete pairs come back sorted; `.ci.json` files are never
        // themselves treated as baselines.
        std::fs::write(dir.join("BENCH_fleet.ci.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_serve.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_serve.ci.json"), "{}").unwrap();
        let pairs = discover_pairs(&dir).unwrap();
        let names: Vec<String> = pairs
            .iter()
            .map(|(b, f)| {
                format!(
                    "{}:{}",
                    b.file_name().unwrap().to_str().unwrap(),
                    f.file_name().unwrap().to_str().unwrap()
                )
            })
            .collect();
        assert_eq!(
            names,
            vec![
                "BENCH_fleet.json:BENCH_fleet.ci.json",
                "BENCH_serve.json:BENCH_serve.ci.json"
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn within_threshold_passes() {
        let fresh = FLEET.replace("6000", "5000");
        let cmp = compare(FLEET, &fresh, 0.25).unwrap();
        assert_eq!(cmp.len(), 1);
        assert!(!cmp[0].regressed, "20% slower is inside a 25% budget");
        assert!((cmp[0].slowdown - 1.2).abs() < 1e-12);
    }

    #[test]
    fn beyond_threshold_regresses() {
        let fresh = FLEET.replace("6000", "4000");
        let cmp = compare(FLEET, &fresh, 0.25).unwrap();
        assert!(cmp[0].regressed, "33% slower must trip a 25% budget");
    }

    #[test]
    fn lower_is_better_direction() {
        let planner = |reap_run_ms, matrix_ms| {
            format!(
                r#"{{"schema": "reap-bench/planner-v1", "budget_j": 5.0, "month_sim": {{"hours": 720,
                "reap_run_ms": {reap_run_ms}, "matrix_policies": 6, "matrix_ms": {matrix_ms}}}}}"#
            )
        };
        let (base, fast) = (planner(10.0, 20.0), planner(9.0, 30.0));
        let cmp = compare(&base, &fast, 0.25).unwrap();
        assert!(!cmp[0].regressed, "faster run must pass");
        assert!(cmp[1].regressed, "50% slower matrix must fail");
    }

    #[test]
    fn comparisons_read_in_significant_digits_and_plain_words() {
        let cmp = |key, baseline, fresh, slowdown| Comparison {
            key,
            baseline,
            fresh,
            slowdown,
            gated: true,
            regressed: false,
        };
        // A 26% drop in a lower-is-better run time is a speedup, and
        // sub-0.1 values keep their digits.
        let run = cmp("month_sim.reap_run_ms", 0.05, 0.037, 0.037 / 0.05);
        assert_eq!(
            run.to_string(),
            "month_sim.reap_run_ms: baseline 0.05000, fresh 0.03700 (26% faster)"
        );
        // Throughput falling to 80% takes 25% longer per unit of work.
        let rate = cmp("users_per_s", 134_000.0, 107_200.0, 134_000.0 / 107_200.0);
        assert_eq!(
            rate.to_string(),
            "users_per_s: baseline 134000, fresh 107200 (25% slower)"
        );
        assert_eq!(significant(0.0), "0.000");
        assert_eq!(significant(1.5), "1.500");
    }

    #[test]
    fn speedups_never_regress() {
        let fresh = FLEET.replace("6000", "9000");
        let cmp = compare(FLEET, &fresh, 0.25).unwrap();
        assert!(!cmp[0].regressed);
        assert!(cmp[0].slowdown < 1.0);
    }

    #[test]
    fn stale_fleet_baseline_schema_fails_loudly() {
        // The fleet bench now emits fleet-v2; a committed fleet-v1
        // baseline must produce a hard error (bench_check exits 1 on it),
        // not a silent pass.
        let fresh_v2 = r#"{
  "schema": "reap-bench/fleet-v2",
  "users": 2000,
  "days": 30,
  "users_per_s": 150000,
  "cohorts": 2000,
  "soa_bytes_per_user": 300,
  "accuracy": {"p5": 0.0055, "p50": 0.0733, "p95": 0.2579},
  "active_fraction": {"p5": 0.0069, "p50": 0.0945, "p95": 0.3129},
  "mean_accuracy": 0.0995,
  "mean_active_fraction": 0.1239,
  "brownout_hours": 0,
  "per_source": []
}"#;
        let err = compare(FLEET, fresh_v2, 0.25).unwrap_err();
        assert!(
            err.contains("schema mismatch"),
            "want a schema-mismatch error, got: {err}"
        );
        assert!(err.contains("fleet-v1") && err.contains("fleet-v2"));
        // Both schema generations resolve to tracked metrics on their own.
        assert!(schema("reap-bench/fleet-v2").is_some());
        let cmp = compare(fresh_v2, fresh_v2, 0.25).unwrap();
        assert!(!cmp[0].regressed);
    }

    #[test]
    fn stale_serve_baseline_schema_fails_loudly() {
        // Same protection for the serve bench: serve-v2 (RetryClient
        // workload + resilience counters) vs a stale committed serve-v1
        // baseline must be a hard schema-mismatch error.
        let stale_v1 = r#"{
  "schema": "reap-bench/serve-v1",
  "decisions": 200000,
  "decisions_per_s": 90000
}"#;
        let fresh_v2 = r#"{
  "schema": "reap-bench/serve-v2",
  "users": 2000,
  "client_threads": 8,
  "decisions": 200000,
  "decisions_per_s": 90000,
  "retries": 0,
  "reconnects": 0,
  "server_errors": 0,
  "evicted": 0,
  "shed": 0
}"#;
        let err = compare(stale_v1, fresh_v2, 0.25).unwrap_err();
        assert!(
            err.contains("schema mismatch"),
            "want a schema-mismatch error, got: {err}"
        );
        assert!(err.contains("serve-v1") && err.contains("serve-v2"));
        // The new schema resolves and self-compares cleanly.
        let cmp = compare(fresh_v2, fresh_v2, 0.25).unwrap();
        assert_eq!(cmp[0].key, "decisions_per_s");
        assert!(!cmp[0].regressed);
    }

    #[test]
    fn mismatched_or_missing_schemas_error() {
        assert!(compare(FLEET, r#"{"schema": "reap-bench/mpc-v1"}"#, 0.25).is_err());
        assert!(compare("{}", FLEET, 0.25).is_err());
        assert!(compare(FLEET, "{}", 0.25).is_err());
        let broken = FLEET.replace("users_per_s", "users_per_x");
        assert!(compare(FLEET, &broken, 0.25).is_err());
    }
}
