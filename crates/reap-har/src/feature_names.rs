//! Human-readable names for a design point's feature vector.
//!
//! Useful for debugging classifiers and reporting feature importance: the
//! name at index `i` describes `extract_features(config, w)[i]`.

use crate::config::{AccelFeatures, DpConfig, StretchFeatures};

const AXIS_NAMES: [&str; 3] = ["x", "y", "z"];
const STAT_NAMES: [&str; 6] = ["mean", "std", "min", "max", "rms", "crossings"];

/// Names of the features `config` produces, in extraction order. The
/// length always equals [`DpConfig::feature_dim`].
#[must_use]
fn feature_names(config: &DpConfig) -> Vec<String> {
    let mut names = Vec::with_capacity(config.feature_dim());
    match config.accel_features {
        AccelFeatures::Statistical => {
            for &axis in config.axes.indices() {
                for stat in STAT_NAMES {
                    names.push(format!("accel {} {stat}", AXIS_NAMES[axis]));
                }
            }
        }
        AccelFeatures::Dwt => {
            for &axis in config.axes.indices() {
                for level in 1..=3 {
                    names.push(format!("accel {} dwt detail {level}", AXIS_NAMES[axis]));
                }
                names.push(format!("accel {} dwt approx", AXIS_NAMES[axis]));
            }
        }
        AccelFeatures::Off => {}
    }
    match config.stretch_features {
        StretchFeatures::Fft16 => {
            for bin in 0..9 {
                names.push(format!("stretch fft bin {bin}"));
            }
        }
        StretchFeatures::Statistical => {
            for stat in STAT_NAMES {
                names.push(format!("stretch {stat}"));
            }
        }
        StretchFeatures::Off => {}
    }
    debug_assert_eq!(names.len(), config.feature_dim());
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_dimensions_for_all_24_configs() {
        for config in DpConfig::standard_24() {
            let names = feature_names(&config);
            assert_eq!(names.len(), config.feature_dim(), "{config}");
            // All names unique within a config.
            for (i, a) in names.iter().enumerate() {
                for b in &names[i + 1..] {
                    assert_ne!(a, b, "{config}");
                }
            }
        }
    }

    #[test]
    fn dp1_names_are_ordered_axes_then_stretch() {
        let dp1 = &DpConfig::paper_pareto_5()[0];
        let names = feature_names(dp1);
        assert_eq!(names[0], "accel x mean");
        assert_eq!(names[6], "accel y mean");
        assert_eq!(names[12], "accel z mean");
        assert_eq!(names[18], "stretch fft bin 0");
        assert_eq!(names[26], "stretch fft bin 8");
    }

    #[test]
    fn dwt_names_describe_subbands() {
        let config = DpConfig {
            axes: crate::AccelAxes::Y,
            sensing: crate::SensingPeriod::Full,
            accel_features: AccelFeatures::Dwt,
            stretch_features: StretchFeatures::Off,
            nn: crate::NnStructure::Hidden8,
        };
        let names = feature_names(&config);
        assert_eq!(
            names,
            vec![
                "accel y dwt detail 1",
                "accel y dwt detail 2",
                "accel y dwt detail 3",
                "accel y dwt approx",
            ]
        );
    }
}
