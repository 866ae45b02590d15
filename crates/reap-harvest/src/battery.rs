//! A small backup battery / supercapacitor model.

use reap_units::Energy;

use crate::{step, HarvestError};

/// A small energy buffer with charge/discharge efficiencies.
///
/// The paper's second device class "uses a small battery as a backup to
/// extend the active time"; the allocator policies lean on this buffer to
/// smooth day/night harvesting.
#[derive(Debug, Clone, PartialEq)]
pub struct Battery {
    capacity: Energy,
    level: Energy,
    charge_efficiency: f64,
    discharge_efficiency: f64,
}

impl Battery {
    /// A 60 J buffer starting half full — enough to carry roughly a night
    /// of low-power operation.
    #[must_use]
    pub fn small_wearable() -> Battery {
        Battery::new(
            Energy::from_joules(60.0),
            Energy::from_joules(30.0),
            0.95,
            0.95,
        )
        .expect("constants are valid")
    }

    /// Creates a battery.
    ///
    /// # Errors
    ///
    /// [`HarvestError::InvalidParameter`] when the capacity is
    /// non-positive, the initial level is outside `[0, capacity]`, or an
    /// efficiency is outside `(0, 1]`.
    pub fn new(
        capacity: Energy,
        initial_level: Energy,
        charge_efficiency: f64,
        discharge_efficiency: f64,
    ) -> Result<Battery, HarvestError> {
        if !capacity.is_finite() || capacity.joules() <= 0.0 {
            return Err(HarvestError::InvalidParameter(format!(
                "capacity {capacity} must be positive"
            )));
        }
        if !initial_level.is_finite() || initial_level.is_negative() || initial_level > capacity {
            return Err(HarvestError::InvalidParameter(format!(
                "initial level {initial_level} outside [0, {capacity}]"
            )));
        }
        for (name, v) in [
            ("charge efficiency", charge_efficiency),
            ("discharge efficiency", discharge_efficiency),
        ] {
            if !v.is_finite() || v <= 0.0 || v > 1.0 {
                return Err(HarvestError::InvalidParameter(format!(
                    "{name} {v} outside (0, 1]"
                )));
            }
        }
        Ok(Battery {
            capacity,
            level: initial_level,
            charge_efficiency,
            discharge_efficiency,
        })
    }

    /// Current stored energy.
    #[must_use]
    pub fn level(&self) -> Energy {
        self.level
    }

    /// Maximum stored energy.
    #[must_use]
    pub fn capacity(&self) -> Energy {
        self.capacity
    }

    /// Fraction of incoming energy actually stored, in `(0, 1]`.
    #[must_use]
    pub fn charge_efficiency(&self) -> f64 {
        self.charge_efficiency
    }

    /// Fraction of drawn energy actually delivered, in `(0, 1]`.
    #[must_use]
    pub fn discharge_efficiency(&self) -> f64 {
        self.discharge_efficiency
    }

    /// Grants `proposed` against this battery as a virtual store
    /// ([`step::open_loop`]): capped at what it and the step's
    /// `harvested` energy can deliver and floor-clamped, after which the
    /// battery banks the harvest and pays the grant, at most
    /// `max_spend`. Returns the grant.
    pub fn open_loop(
        &mut self,
        proposed: Energy,
        floor: Energy,
        max_spend: Energy,
        harvested: Energy,
    ) -> Energy {
        let (budget, level) = step::open_loop(
            self.level.joules(),
            self.capacity.joules(),
            self.charge_efficiency,
            self.discharge_efficiency,
            proposed.joules(),
            floor.joules(),
            max_spend.joules(),
            harvested.joules(),
        );
        self.level = Energy::from_joules(level);
        Energy::from_joules(budget)
    }

    /// Runs one step of a plan needing `needed` against this battery
    /// with `harvested` arriving during the step ([`step::execute`]):
    /// harvest first, then the battery, browning out proportionally when
    /// both fall short. Returns the realized fraction of `needed`.
    pub fn execute(&mut self, harvested: Energy, needed: Energy) -> f64 {
        let (level, fraction) = step::execute(
            self.level.joules(),
            self.capacity.joules(),
            self.charge_efficiency,
            self.discharge_efficiency,
            harvested.joules(),
            needed.joules(),
        );
        self.level = Energy::from_joules(level);
        fraction
    }

    /// How much energy a load could draw right now (post-efficiency).
    #[must_use]
    pub fn deliverable(&self) -> Energy {
        self.level * self.discharge_efficiency
    }

    /// Overwrites the stored level — state reinjection for
    /// checkpoint/restore of a resident battery. The exact value is kept
    /// (no rounding), so a restored battery behaves bit-identically.
    ///
    /// # Errors
    ///
    /// [`HarvestError::InvalidParameter`] when `level` is not finite or
    /// outside `[0, capacity]`.
    pub fn set_level(&mut self, level: Energy) -> Result<(), HarvestError> {
        if !level.is_finite() || level.is_negative() || level > self.capacity {
            return Err(HarvestError::InvalidParameter(format!(
                "level {level} outside [0, {}]",
                self.capacity
            )));
        }
        self.level = level;
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
        assert!(Battery::new(joules(0.0), joules(0.0), 0.9, 0.9).is_err());
        assert!(Battery::new(joules(10.0), joules(11.0), 0.9, 0.9).is_err());
        assert!(Battery::new(joules(10.0), joules(5.0), 0.0, 0.9).is_err());
        assert!(Battery::new(joules(10.0), joules(5.0), 0.9, 1.1).is_err());
    }

    #[test]
    fn charge_respects_capacity_and_reports_spill() {
        // A 3 J surplus into 1 J of headroom: the battery fills and the
        // other 2 J spill.
        let mut b = Battery::new(joules(10.0), joules(9.0), 1.0, 1.0).unwrap();
        assert_eq!(b.execute(joules(3.0), Energy::ZERO), 1.0);
        assert!((b.level().joules() - 10.0).abs() < 1e-12);
        let spill = 3.0 - (b.level().joules() - 9.0);
        assert!((spill - 2.0).abs() < 1e-12);
    }

    #[test]
    fn charge_efficiency_loses_energy() {
        // 10 J of surplus harvest at 80% banks 8 J.
        let mut b = Battery::new(joules(100.0), joules(0.0), 0.8, 1.0).unwrap();
        assert_eq!(b.execute(joules(12.0), joules(2.0)), 1.0);
        assert!((b.level().joules() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn discharge_delivers_up_to_level() {
        // A 6 J plan with no harvest against 4 J stored: the battery
        // empties and the plan realizes 4 / 6 of its energy.
        let mut b = Battery::new(joules(10.0), joules(4.0), 1.0, 1.0).unwrap();
        let fraction = b.execute(Energy::ZERO, joules(6.0));
        assert!((fraction - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(b.level(), Energy::ZERO);
    }

    #[test]
    fn discharge_efficiency_costs_extra() {
        let mut b = Battery::new(joules(10.0), joules(10.0), 1.0, 0.5).unwrap();
        assert!((b.deliverable().joules() - 5.0).abs() < 1e-12);
        assert_eq!(b.execute(Energy::ZERO, joules(2.0)), 1.0);
        // Delivering 2 J at 50% efficiency drained 4 J.
        assert!((b.level().joules() - 6.0).abs() < 1e-12);
        assert!((b.deliverable().joules() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn state_of_charge() {
        let b = Battery::new(joules(60.0), joules(30.0), 0.95, 0.95).unwrap();
        assert!((b.level() / b.capacity() - 0.5).abs() < 1e-12);
        assert_eq!(Battery::small_wearable(), b);
    }

    #[test]
    fn set_level_reinjects_exact_state() {
        let mut b = Battery::small_wearable();
        let exact = joules(17.123456789012345);
        b.set_level(exact).unwrap();
        assert_eq!(b.level(), exact);
        assert!(b.set_level(joules(-0.1)).is_err());
        assert!(b.set_level(joules(60.1)).is_err());
        assert!(b.set_level(joules(f64::NAN)).is_err());
        // A rejected set leaves the level untouched.
        assert_eq!(b.level(), exact);
    }
}
