//! A capacitor-scale energy store for batteryless intermittent operation.
//!
//! Where [`Battery`](crate::Battery) holds tens of joules and carries a
//! node through whole nights, a supercapacitor holds *fractions* of a
//! joule: the node lives in charge bursts, browning out whenever the
//! capacitor voltage falls below the regulator's drop-out threshold and
//! rebooting once harvest has charged it back above the turn-on
//! threshold. The stored energy is quadratic in voltage
//! (`E = ½·C·V²`), so the voltage thresholds the hardware actually
//! switches on translate into the energy thresholds the simulator's
//! event core works in.

use reap_units::{Energy, Power};

use crate::HarvestError;

/// A small capacitor with voltage thresholds, leakage, and a charge
/// efficiency — the energy store of a batteryless node.
///
/// Invariants: `0 <= v_off < v_on <= v_rated`, so the usable burst
/// energy (turn-on minus brownout energy) is strictly positive and the
/// on/off hysteresis band is non-degenerate.
///
/// ```
/// use reap_harvest::Capacitor;
///
/// let cap = Capacitor::supercap_wearable();
/// // ½·C·V² of the 100 mF store at the rated 3.3 V.
/// let e = 0.5 * 0.100 * 3.3 * 3.3;
/// assert!((cap.capacity().joules() - e).abs() < 1e-12);
/// // The turn-on threshold sits above the brownout threshold.
/// assert!(cap.turn_on_energy() > cap.brownout_energy());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Capacitor {
    capacitance: f64,
    v_rated: f64,
    v_on: f64,
    v_off: f64,
    leakage: Power,
    charge_efficiency: f64,
    energy: Energy,
}

impl Capacitor {
    /// A 100 mF / 3.3 V supercapacitor as found on batteryless wearable
    /// motes: turn-on at 2.8 V, brownout at 1.8 V, 20 µW leakage, 90%
    /// charging efficiency, starting exactly at the brownout threshold
    /// (the node must harvest before it can boot).
    #[must_use]
    pub fn supercap_wearable() -> Capacitor {
        Capacitor::new(
            0.100,
            3.3,
            2.8,
            1.8,
            Power::from_microwatts(20.0),
            0.90,
            1.8,
        )
        .expect("constants are valid")
    }

    /// Creates a capacitor.
    ///
    /// `initial_voltage` sets the starting charge (clamped nowhere — it
    /// must already be within `[0, v_rated]`).
    ///
    /// # Errors
    ///
    /// [`HarvestError::InvalidParameter`] when the capacitance is not
    /// positive, the thresholds violate `0 <= v_off < v_on <= v_rated`,
    /// the leakage is negative or non-finite, the charge efficiency is
    /// outside `(0, 1]`, or the initial voltage is outside
    /// `[0, v_rated]`.
    pub fn new(
        capacitance_farads: f64,
        v_rated: f64,
        v_on: f64,
        v_off: f64,
        leakage: Power,
        charge_efficiency: f64,
        initial_voltage: f64,
    ) -> Result<Capacitor, HarvestError> {
        if !capacitance_farads.is_finite() || capacitance_farads <= 0.0 {
            return Err(HarvestError::InvalidParameter(format!(
                "capacitance {capacitance_farads} F must be positive"
            )));
        }
        let thresholds_ok = v_off.is_finite()
            && v_on.is_finite()
            && v_rated.is_finite()
            && 0.0 <= v_off
            && v_off < v_on
            && v_on <= v_rated;
        if !thresholds_ok {
            return Err(HarvestError::InvalidParameter(format!(
                "voltage thresholds must satisfy 0 <= v_off ({v_off}) < v_on ({v_on}) \
                 <= v_rated ({v_rated})"
            )));
        }
        if !leakage.is_finite() || leakage.is_negative() {
            return Err(HarvestError::InvalidParameter(format!(
                "leakage {leakage} must be finite and non-negative"
            )));
        }
        if !charge_efficiency.is_finite() || charge_efficiency <= 0.0 || charge_efficiency > 1.0 {
            return Err(HarvestError::InvalidParameter(format!(
                "charge efficiency {charge_efficiency} outside (0, 1]"
            )));
        }
        if !initial_voltage.is_finite() || !(0.0..=v_rated).contains(&initial_voltage) {
            return Err(HarvestError::InvalidParameter(format!(
                "initial voltage {initial_voltage} outside [0, {v_rated}]"
            )));
        }
        let energy = Energy::from_joules(0.5 * capacitance_farads * initial_voltage.powi(2));
        Ok(Capacitor {
            capacitance: capacitance_farads,
            v_rated,
            v_on,
            v_off,
            leakage,
            charge_efficiency,
            energy,
        })
    }

    /// Leakage power continuously drained from the store.
    #[must_use]
    pub fn leakage(&self) -> Power {
        self.leakage
    }

    /// Fraction of incoming harvest energy actually stored, in `(0, 1]`.
    #[must_use]
    pub fn charge_efficiency(&self) -> f64 {
        self.charge_efficiency
    }

    /// Energy stored at voltage `v`: `½·C·V²`.
    #[must_use]
    pub fn energy_at_voltage(&self, v: f64) -> Energy {
        Energy::from_joules(0.5 * self.capacitance * v * v)
    }

    /// Maximum storable energy (at the rated voltage).
    #[must_use]
    pub fn capacity(&self) -> Energy {
        self.energy_at_voltage(self.v_rated)
    }

    /// Stored energy at the turn-on threshold.
    #[must_use]
    pub fn turn_on_energy(&self) -> Energy {
        self.energy_at_voltage(self.v_on)
    }

    /// Stored energy at the brownout threshold.
    #[must_use]
    pub fn brownout_energy(&self) -> Energy {
        self.energy_at_voltage(self.v_off)
    }

    /// Current stored energy.
    #[must_use]
    pub fn energy(&self) -> Energy {
        self.energy
    }

    /// `true` when the stored energy has reached the turn-on threshold.
    #[must_use]
    pub fn can_turn_on(&self) -> bool {
        self.energy >= self.turn_on_energy()
    }

    /// Draws up to `energy` from the store (down to zero — the *caller*
    /// enforces the brownout floor, because crossing it is an event, not
    /// a silent clamp). Returns the energy actually delivered.
    ///
    /// # Panics
    ///
    /// Panics if `energy` is negative.
    pub fn draw(&mut self, energy: Energy) -> Energy {
        assert!(!energy.is_negative(), "cannot draw negative energy");
        let drawn = energy.min(self.energy);
        self.energy -= drawn;
        drawn
    }

    /// Overwrites the stored energy — state reinjection for the event
    /// core's closed-form off-state advancement.
    ///
    /// # Errors
    ///
    /// [`HarvestError::InvalidParameter`] when `energy` is not finite or
    /// outside `[0, capacity]`.
    pub fn set_energy(&mut self, energy: Energy) -> Result<(), HarvestError> {
        if !energy.is_finite() || energy.is_negative() || energy > self.capacity() {
            return Err(HarvestError::InvalidParameter(format!(
                "energy {energy} outside [0, {}]",
                self.capacity()
            )));
        }
        self.energy = energy;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn joules(j: f64) -> Energy {
        Energy::from_joules(j)
    }

    #[test]
    fn validation() {
        let leak = Power::from_microwatts(20.0);
        assert!(Capacitor::new(0.0, 3.3, 2.8, 1.8, leak, 0.9, 1.8).is_err());
        assert!(Capacitor::new(0.1, 3.3, 1.8, 2.8, leak, 0.9, 1.8).is_err());
        assert!(Capacitor::new(0.1, 3.3, 2.8, 2.8, leak, 0.9, 1.8).is_err());
        assert!(Capacitor::new(0.1, 2.0, 2.8, 1.8, leak, 0.9, 1.8).is_err());
        assert!(Capacitor::new(0.1, 3.3, 2.8, -0.1, leak, 0.9, 1.8).is_err());
        assert!(Capacitor::new(0.1, 3.3, 2.8, 1.8, Power::from_watts(-1.0), 0.9, 1.8).is_err());
        assert!(Capacitor::new(0.1, 3.3, 2.8, 1.8, leak, 0.0, 1.8).is_err());
        assert!(Capacitor::new(0.1, 3.3, 2.8, 1.8, leak, 1.1, 1.8).is_err());
        assert!(Capacitor::new(0.1, 3.3, 2.8, 1.8, leak, 0.9, 3.4).is_err());
        assert!(Capacitor::new(0.1, 3.3, 2.8, 1.8, leak, 0.9, 0.0).is_ok());
    }

    #[test]
    fn energy_is_quadratic_in_voltage() {
        let cap = Capacitor::supercap_wearable();
        assert!((cap.capacity().joules() - 0.5445).abs() < 1e-12);
        assert!((cap.turn_on_energy().joules() - 0.392).abs() < 1e-12);
        assert!((cap.brownout_energy().joules() - 0.162).abs() < 1e-12);
        let burst = cap.turn_on_energy() - cap.brownout_energy();
        assert!((burst.joules() - 0.23).abs() < 1e-12);
        // Starts at the brownout threshold: cannot boot yet.
        assert!(!cap.can_turn_on());
        let volts = (2.0 * cap.energy().joules() / cap.capacitance).sqrt();
        assert!((volts - 1.8).abs() < 1e-12);
    }

    #[test]
    fn draw_goes_down_to_zero_not_the_brownout_floor() {
        let mut cap = Capacitor::supercap_wearable();
        let got = cap.draw(joules(1.0));
        assert!((got.joules() - 0.162).abs() < 1e-12);
        assert_eq!(cap.energy(), Energy::ZERO);
    }

    #[test]
    fn set_energy_reinjects_exact_state() {
        let mut cap = Capacitor::supercap_wearable();
        let exact = joules(0.123456789012345);
        cap.set_energy(exact).unwrap();
        assert_eq!(cap.energy(), exact);
        assert!(cap.set_energy(joules(-0.1)).is_err());
        assert!(cap.set_energy(joules(1.0)).is_err());
        assert!(cap.set_energy(joules(f64::NAN)).is_err());
        assert_eq!(cap.energy(), exact);
    }

    #[test]
    fn turn_on_hysteresis() {
        let mut cap = Capacitor::supercap_wearable();
        cap.set_energy(cap.turn_on_energy()).unwrap();
        assert!(cap.can_turn_on());
        cap.set_energy(cap.turn_on_energy() - joules(1e-6)).unwrap();
        assert!(!cap.can_turn_on());
    }
}
