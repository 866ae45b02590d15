//! Full design-point characterization: the model-based equivalent of the
//! paper's Table 2.

use std::fmt;

use reap_core::OperatingPoint;
use reap_har::DesignPoint;
use reap_units::{Energy, Power, TimeSpan};

use crate::{energy, timing};

/// Per-stage MCU execution times of one design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecTimes {
    /// Accelerometer feature generation.
    pub accel_features: TimeSpan,
    /// Stretch feature generation.
    pub stretch_features: TimeSpan,
    /// Neural-network inference.
    pub nn: TimeSpan,
}

impl ExecTimes {
    /// Total execution time per activity window.
    #[must_use]
    pub fn total(&self) -> TimeSpan {
        self.accel_features + self.stretch_features + self.nn
    }
}

/// A design point with its complete energy/timing characterization — one
/// row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizedDp {
    /// The design point (configuration + accuracy).
    pub point: DesignPoint,
    /// MCU execution-time breakdown.
    pub times: ExecTimes,
    /// MCU energy per activity window.
    pub mcu_energy: Energy,
    /// Sensor energy per activity window.
    pub sensor_energy: Energy,
    /// Average power while this design point is active.
    pub average_power: Power,
}

impl CharacterizedDp {
    /// Total energy per activity window (MCU + sensors).
    #[must_use]
    pub fn total_energy(&self) -> Energy {
        self.mcu_energy + self.sensor_energy
    }

    /// Converts to the optimizer's [`OperatingPoint`] view: the design
    /// point's id and accuracy at its average power.
    #[must_use]
    pub fn operating_point(&self) -> OperatingPoint {
        OperatingPoint::new(self.point.id, self.point.accuracy, self.average_power)
    }
}

impl fmt::Display for CharacterizedDp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DP{}: {:.0}% | exec {:.2} ms | mcu {:.2} mJ | sensor {:.2} mJ | {:.2} mJ total | {:.2} mW",
            self.point.id,
            self.point.accuracy * 100.0,
            self.times.total().millis(),
            self.mcu_energy.millijoules(),
            self.sensor_energy.millijoules(),
            self.total_energy().millijoules(),
            self.average_power.milliwatts(),
        )
    }
}

/// Characterizes one design point with the calibrated device model.
#[must_use]
pub fn characterize(point: &DesignPoint) -> CharacterizedDp {
    let config = &point.config;
    let times = ExecTimes {
        accel_features: timing::accel_feature_time(config),
        stretch_features: timing::stretch_feature_time(config),
        nn: timing::nn_time(config),
    };
    let mcu = energy::mcu_energy(config);
    let sensor = energy::sensor_energy(config);
    let window = crate::constants::window();
    CharacterizedDp {
        point: point.clone(),
        times,
        mcu_energy: mcu,
        sensor_energy: sensor,
        average_power: (mcu + sensor) / window,
    }
}

/// Characterizes a whole design-point set.
#[must_use]
pub fn characterize_all(points: &[DesignPoint]) -> Vec<CharacterizedDp> {
    points.iter().map(characterize).collect()
}

/// The five Pareto-optimal design points with the paper's **published**
/// Table 2 numbers, verbatim (times in ms, energies in mJ, power in mW).
///
/// Use this for exact figure reproduction; use [`characterize`] for the
/// model-based (endogenous) characterization.
#[must_use]
pub fn paper_table2() -> Vec<CharacterizedDp> {
    // (accel ms, stretch ms, nn ms, mcu mJ, sensor mJ, power mW)
    const ROWS: [(f64, f64, f64, f64, f64, f64); 5] = [
        (0.83, 3.83, 1.05, 2.38, 2.10, 2.76),
        (0.27, 3.83, 1.00, 2.29, 1.43, 2.30),
        (0.27, 3.83, 0.90, 2.10, 0.84, 1.82),
        (0.14, 3.83, 1.00, 2.09, 0.57, 1.64),
        (0.00, 3.83, 0.88, 1.85, 0.08, 1.20),
    ];
    DesignPoint::paper_five()
        .into_iter()
        .zip(ROWS)
        .map(
            |(point, (accel, stretch, nn, mcu, sensor, power))| CharacterizedDp {
                point,
                times: ExecTimes {
                    accel_features: TimeSpan::from_millis(accel),
                    stretch_features: TimeSpan::from_millis(stretch),
                    nn: TimeSpan::from_millis(nn),
                },
                mcu_energy: Energy::from_millijoules(mcu),
                sensor_energy: Energy::from_millijoules(sensor),
                average_power: Power::from_milliwatts(power),
            },
        )
        .collect()
}

/// The paper's five design points as ready-to-optimize
/// [`OperatingPoint`]s (published accuracies and powers).
#[must_use]
pub fn paper_table2_operating_points() -> Vec<OperatingPoint> {
    paper_table2()
        .iter()
        .map(CharacterizedDp::operating_point)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table2_is_verbatim() {
        let rows = paper_table2();
        assert_eq!(rows.len(), 5);
        assert!((rows[0].total_energy().millijoules() - 4.48).abs() < 1e-12);
        assert!((rows[0].average_power.milliwatts() - 2.76).abs() < 1e-12);
        assert!((rows[4].total_energy().millijoules() - 1.93).abs() < 1e-12);
        assert!((rows[0].times.total().millis() - 5.71).abs() < 1e-12);
        assert!((rows[3].times.total().millis() - 4.97).abs() < 1e-12);
    }

    #[test]
    fn model_power_tracks_paper_power_within_8_percent() {
        let modeled = characterize_all(&DesignPoint::paper_five());
        let paper = paper_table2();
        for (m, p) in modeled.iter().zip(&paper) {
            let err = (m.average_power.milliwatts() - p.average_power.milliwatts()).abs()
                / p.average_power.milliwatts();
            assert!(
                err < 0.08,
                "DP{}: model {:.2} mW vs paper {:.2} mW",
                m.point.id,
                m.average_power.milliwatts(),
                p.average_power.milliwatts()
            );
        }
    }

    #[test]
    fn operating_points_preserve_identity() {
        let ops = paper_table2_operating_points();
        assert_eq!(ops.len(), 5);
        assert_eq!(ops[0].id(), 1);
        assert!((ops[0].accuracy() - 0.94).abs() < 1e-12);
        assert!((ops[0].power().milliwatts() - 2.76).abs() < 1e-12);
        assert_eq!(ops[4].id(), 5);
    }

    #[test]
    fn dp1_hourly_energy_is_9_9_joules() {
        // Sec. 5.2: "9.9 J energy is sufficient to run DP1 throughout TP".
        let dp1 = &paper_table2()[0];
        let hourly = dp1.average_power * TimeSpan::from_hours(1.0);
        assert!((hourly.joules() - 9.936).abs() < 0.01);
    }

    #[test]
    fn display_shows_all_columns() {
        let row = &paper_table2()[0];
        let s = row.to_string();
        assert!(s.contains("DP1"));
        assert!(s.contains("94%"));
        assert!(s.contains("4.48"));
        assert!(s.contains("2.76"));
    }

    #[test]
    fn characterize_all_covers_the_24_point_set() {
        use reap_har::DpConfig;
        let points: Vec<DesignPoint> = DpConfig::standard_24()
            .into_iter()
            .enumerate()
            .map(|(i, c)| DesignPoint::new(i as u8 + 1, c, 0.5).unwrap())
            .collect();
        let chars = characterize_all(&points);
        assert_eq!(chars.len(), 24);
        for c in &chars {
            assert!(c.average_power.milliwatts() > 0.3);
            assert!(c.average_power.milliwatts() < 4.0);
        }
    }
}
