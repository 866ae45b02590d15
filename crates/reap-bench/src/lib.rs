//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Every evaluation artifact of the paper has a binary in `src/bin/`:
//!
//! | artifact | binary | what it prints |
//! |----------|--------|----------------|
//! | Table 2  | `table2` | per-DP accuracy, timing split, energies, power |
//! | Fig. 3   | `fig3` | energy/accuracy of all 24 DPs + Pareto front |
//! | Fig. 4   | `fig4` | DP1 hourly energy breakdown |
//! | Fig. 5   | `fig5` | expected accuracy + normalized active time sweep |
//! | Fig. 6   | `fig6` | normalized J(t) at alpha = 2 |
//! | Fig. 7   | `fig7` | month-long solar case study vs alpha |
//! | Sec. 4.2 | `offload` | BLE raw offload vs on-device result TX |
//! | headlines | `headlines` | the abstract's 46% / 66% claims |
//!
//! Binaries accept `--char paper` (default: published Table 2 numbers) or
//! `--char model` (device model + classifiers trained on the synthetic
//! user study), plus `--quick` to shrink training for smoke runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod regression;

use reap_core::{OperatingPoint, ReapProblem};
use reap_device::{characterize, CharacterizedDp};
use reap_har::{train_classifier, DesignPoint, DpConfig, TrainConfig};
use reap_serve::json::Value;

/// Which characterization backs the operating points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CharMode {
    /// The paper's published Table 2 rows, verbatim.
    #[default]
    Paper,
    /// The calibrated device model plus classifiers trained on the
    /// synthetic user study.
    Model,
}

/// Parses `--char {paper|model}` from CLI args (defaults to paper).
///
/// # Panics
///
/// Panics with a usage message on an unknown mode string.
#[must_use]
pub fn parse_char_mode(args: &[String]) -> CharMode {
    match args.iter().position(|a| a == "--char") {
        None => CharMode::default(),
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("paper") => CharMode::Paper,
            Some("model") => CharMode::Model,
            other => panic!("--char expects 'paper' or 'model', got {other:?}"),
        },
    }
}

/// `true` when `--quick` was passed (smaller dataset, fewer epochs).
#[must_use]
pub fn has_quick_flag(args: &[String]) -> bool {
    args.iter().any(|a| a == "--quick")
}

/// Deterministic seed shared by every binary so results are reproducible
/// run to run.
pub const BENCH_SEED: u64 = 2019;

/// The dataset used for model-mode accuracy measurement.
#[must_use]
pub fn bench_dataset(quick: bool) -> reap_data::Dataset {
    if quick {
        reap_data::Dataset::generate(6, 700, BENCH_SEED)
    } else {
        reap_data::Dataset::user_study(BENCH_SEED)
    }
}

/// The training configuration used for model-mode accuracy measurement.
#[must_use]
pub fn bench_train_config(quick: bool) -> TrainConfig {
    if quick {
        TrainConfig::fast(BENCH_SEED)
    } else {
        TrainConfig {
            seed: BENCH_SEED,
            ..TrainConfig::default()
        }
    }
}

/// Characterizes the five Pareto design points under a mode.
///
/// # Panics
///
/// Panics if model-mode training fails (cannot happen for the bundled
/// dataset generator).
#[must_use]
pub fn pareto_characterization(mode: CharMode, quick: bool) -> Vec<CharacterizedDp> {
    match mode {
        CharMode::Paper => reap_device::paper_table2(),
        CharMode::Model => characterize_trained(DpConfig::paper_pareto_5(), quick),
    }
}

/// The five Pareto operating points under a mode.
#[must_use]
pub fn operating_points(mode: CharMode, quick: bool) -> Vec<OperatingPoint> {
    pareto_characterization(mode, quick)
        .iter()
        .map(CharacterizedDp::operating_point)
        .collect()
}

/// Characterizes (accuracy via training + energy via the device model)
/// all 24 candidate design points — the data behind Fig. 3.
///
/// # Panics
///
/// Panics if training fails (cannot happen for the bundled generator).
#[must_use]
pub fn characterize_all_24(quick: bool) -> Vec<CharacterizedDp> {
    characterize_trained(DpConfig::standard_24(), quick)
}

/// Trains a classifier for each config on the bench dataset and
/// characterizes the resulting design points, numbered from 1.
fn characterize_trained(
    configs: impl IntoIterator<Item = DpConfig>,
    quick: bool,
) -> Vec<CharacterizedDp> {
    let dataset = bench_dataset(quick);
    let config = bench_train_config(quick);
    configs
        .into_iter()
        .enumerate()
        .map(|(i, dp_config)| {
            let trained = train_classifier(&dataset, &dp_config, &config)
                .expect("training the bundled configs succeeds");
            let point = DesignPoint::new(i as u8 + 1, dp_config, trained.test_accuracy)
                .expect("accuracy is in [0,1]");
            characterize(&point)
        })
        .collect()
}

/// Builds the standard one-hour, 50 µW-off problem over `points`.
///
/// # Panics
///
/// Panics if `points` is invalid (the bundled sets never are).
#[must_use]
pub fn standard_problem(points: Vec<OperatingPoint>, alpha: f64) -> ReapProblem {
    ReapProblem::builder()
        .alpha(alpha)
        .points(points)
        .build()
        .expect("bundled operating points are valid")
}

/// The synthetic `n`-point solver-scaling workload shared by the
/// `simplex_scaling` bench, the `headlines` runtime section, and
/// `bench_planner`: accuracies `0.5 + 0.45*i/n`, powers
/// `1 + 2*i/n` mW, standard period and off power, `alpha = 1`.
///
/// # Panics
///
/// Panics if `n` is 0 or exceeds 255 (point ids are `u8`).
#[must_use]
pub fn synthetic_problem(n: usize) -> ReapProblem {
    let points: Vec<OperatingPoint> = (0..n)
        .map(|i| {
            let frac = i as f64 / n as f64;
            OperatingPoint::new(
                u8::try_from(i + 1).expect("at most 255 points"),
                0.5 + 0.45 * frac,
                reap_units::Power::from_milliwatts(1.0 + 2.0 * frac),
            )
        })
        .collect();
    standard_problem(points, 1.0)
}

/// `v` as the number `format!("{v:.decimals$}")` prints, parsed back: a
/// baseline field keeps the decimals it has always been recorded with, so
/// a fresh run's outcome block equals the committed one.
#[must_use]
pub fn rounded(v: f64, decimals: usize) -> Value {
    Value::Num(format!("{v:.decimals$}").parse().unwrap_or(v))
}

/// Writes a bench bin's baseline document through
/// [`Value::encode_pretty`] to the first non-flag argument in `args`, or
/// to `default` when there is none, and says where it went.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_baseline(args: &[String], default: &str, doc: &Value) {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map_or(default, String::as_str);
    std::fs::write(path, doc.encode_pretty())
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
}

/// Formats one fixed-width table row.
#[must_use]
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Prints a rule line matching `widths`.
#[must_use]
pub fn rule(widths: &[usize]) -> String {
    widths
        .iter()
        .map(|w| "-".repeat(*w))
        .collect::<Vec<_>>()
        .join("--")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn char_mode_parsing() {
        let none: Vec<String> = vec![];
        assert_eq!(parse_char_mode(&none), CharMode::Paper);
        let paper = vec!["--char".to_string(), "paper".to_string()];
        assert_eq!(parse_char_mode(&paper), CharMode::Paper);
        let model = vec!["--char".to_string(), "model".to_string()];
        assert_eq!(parse_char_mode(&model), CharMode::Model);
    }

    #[test]
    #[should_panic(expected = "--char expects")]
    fn bad_char_mode_panics() {
        let bad = vec!["--char".to_string(), "nope".to_string()];
        let _ = parse_char_mode(&bad);
    }

    #[test]
    fn quick_flag() {
        assert!(has_quick_flag(&["--quick".to_string()]));
        assert!(!has_quick_flag(&[]));
    }

    #[test]
    fn paper_points_are_the_table2_five() {
        let pts = operating_points(CharMode::Paper, true);
        assert_eq!(pts.len(), 5);
        assert!((pts[0].accuracy() - 0.94).abs() < 1e-12);
        assert!((pts[4].power().milliwatts() - 1.20).abs() < 1e-12);
    }

    #[test]
    fn rounded_keeps_the_printed_decimals() {
        assert_eq!(rounded(0.352_04, 4), Value::Num(0.352));
        assert_eq!(rounded(114_491.4, 0), Value::Num(114_491.0));
        assert_eq!(rounded(3617.24, 1), Value::Num(3617.2));
        assert_eq!(rounded(f64::NAN, 2).encode(), "null");
    }

    #[test]
    fn committed_baselines_rewrite_through_the_pretty_writer() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for name in [
            "BENCH_fleet.json",
            "BENCH_intermittent.json",
            "BENCH_mpc.json",
            "BENCH_planner.json",
            "BENCH_serve.json",
        ] {
            let text = std::fs::read_to_string(root.join(name)).unwrap();
            let doc = reap_serve::json::parse(&text).unwrap();
            let rewritten = doc.encode_pretty();
            assert_eq!(reap_serve::json::parse(&rewritten).unwrap(), doc, "{name}");
            assert_eq!(rewritten.lines().count(), text.lines().count(), "{name}");
            if matches!(name, "BENCH_fleet.json" | "BENCH_serve.json") {
                assert_eq!(rewritten, text, "{name}");
            }
        }
    }

    #[test]
    fn row_formatting() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
        assert_eq!(rule(&[2, 3]), "-------");
    }
}
