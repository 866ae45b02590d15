//! Calibrated model constants.
//!
//! Every constant in this module was fitted against the five Pareto
//! design-point rows of the paper's Table 2 (see `DESIGN.md` for the
//! fitting procedure and residuals). They are *effective* quantities — the
//! paper's measurements fold peripheral rails, interrupt handling, and the
//! radio core into its "MCU energy" column, so the effective compute power
//! here is far above a bare Cortex-M3's datasheet number. That is
//! intentional: the model must reproduce the measurements, not the
//! datasheet.

use reap_units::{Power, TimeSpan};

/// Off-state power of the harvesting and battery-charging circuitry:
/// 0.18 J per hour = 50 µW (Sec. 5.2).
#[must_use]
pub fn off_power() -> Power {
    Power::from_microwatts(50.0)
}

/// Activity window length (1.6 s).
#[must_use]
pub fn window() -> TimeSpan {
    TimeSpan::from_seconds(reap_data::WINDOW_SECONDS)
}

/// Activity windows per one-hour activity period (2250).
#[must_use]
pub fn windows_per_hour() -> f64 {
    3600.0 / reap_data::WINDOW_SECONDS
}

// ---------------------------------------------------------------------
// Execution-time model (milliseconds), fitted to Table 2's "MCU exec.
// time distribution" columns.
// ---------------------------------------------------------------------

/// Fixed cost of statistical features, per axis (ms).
pub const STAT_FEATURE_BASE_MS: f64 = 0.062;

/// Per-sample cost of statistical features (ms/sample).
pub const STAT_FEATURE_PER_SAMPLE_MS: f64 = 0.0013;

/// Fixed cost of the 16-point stretch FFT feature (ms). Constant across
/// all five Table 2 rows (3.83 ms): decimation of 160 samples plus the
/// FFT and magnitudes in software floating point.
pub const STRETCH_FFT_MS: f64 = 3.83;

/// Fixed cost of DWT features, per axis (ms).
pub const DWT_FEATURE_BASE_MS: f64 = 0.10;

/// Per-sample cost of DWT features (ms/sample).
pub const DWT_FEATURE_PER_SAMPLE_MS: f64 = 0.004;

/// Fixed cost of one NN inference (ms): activation functions and softmax
/// in software floating point dominate the tiny matrix products.
pub const NN_BASE_MS: f64 = 0.80;

/// Per-multiply-accumulate cost of one NN inference (ms/MAC).
pub const NN_PER_MAC_MS: f64 = 0.0006;

// ---------------------------------------------------------------------
// MCU energy model, fitted to Table 2's "MCU energy" column.
// ---------------------------------------------------------------------

/// Effective MCU power while executing the pipeline (mW). Includes the
/// peripheral and radio rails the paper's measurement captured.
pub const MCU_COMPUTE_MW: f64 = 380.0;

/// Per-sample energy of sampling interrupt handling (mJ/sample).
pub const MCU_SAMPLE_HANDLING_MJ: f64 = 0.000_376;

// ---------------------------------------------------------------------
// Sensor energy model, fitted to Table 2's "Sensor energy" column.
// ---------------------------------------------------------------------

/// Base power of the powered accelerometer (mW), independent of the
/// number of enabled axes.
pub const ACCEL_BASE_MW: f64 = 0.634;

/// Additional power per enabled accelerometer axis (mW).
pub const ACCEL_PER_AXIS_MW: f64 = 0.209;

/// Power of the passive stretch sensor's ADC chain (mW): 0.08 mJ per
/// 1.6 s window.
pub const STRETCH_MW: f64 = 0.05;

// ---------------------------------------------------------------------
// Radio model (Sec. 4.2's offloading comparison).
// ---------------------------------------------------------------------

/// BLE energy for transmitting one recognized activity (mJ).
pub const BLE_RESULT_TX_MJ: f64 = 0.38;

/// BLE connection-event overhead for a raw-data offload burst (mJ):
/// radio wakeup, advertising/connection events, and protocol headers for
/// a multi-packet burst.
pub const BLE_OFFLOAD_OVERHEAD_MJ: f64 = 1.50;

/// BLE energy per raw payload byte (mJ/byte), calibrated so a full
/// 4-channel window (1280 bytes) costs the paper's 5.5 mJ.
pub const BLE_PER_BYTE_MJ: f64 = (5.5 - BLE_OFFLOAD_OVERHEAD_MJ) / 1280.0;

/// Bytes per raw sensor sample (16-bit ADC words).
pub const BYTES_PER_SAMPLE: f64 = 2.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_state_floor_is_0_18_joules_per_hour() {
        let hourly = off_power() * TimeSpan::from_hours(1.0);
        assert!((hourly.joules() - 0.18).abs() < 1e-12);
    }

    #[test]
    fn window_counts() {
        assert!((window().seconds() - 1.6).abs() < 1e-12);
        assert!((windows_per_hour() - 2250.0).abs() < 1e-9);
    }

    #[test]
    fn ble_per_byte_reproduces_5_5_mj_offload() {
        let full_bytes = 4.0 * 160.0 * BYTES_PER_SAMPLE;
        let total = BLE_OFFLOAD_OVERHEAD_MJ + BLE_PER_BYTE_MJ * full_bytes;
        assert!((total - 5.5).abs() < 1e-12);
    }
}
