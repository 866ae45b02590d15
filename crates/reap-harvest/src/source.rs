//! The [`HarvestSource`] abstraction: anything that turns the physical
//! world into hourly joules.
//!
//! The paper evaluates REAP against a single outdoor-solar trace, but its
//! premise — runtime adaptation under *unpredictable* harvested energy —
//! only gets stress-tested across diverse energy sources. This module
//! defines the common interface every source model implements, plus
//! [`SourceKind`], a value-level enumeration of the bundled sources used
//! by the fleet simulator to shard user populations across them.

use reap_units::Energy;

use crate::{HarvestError, HarvestTrace};

/// An energy-harvesting transducer model, queried one hour at a time.
///
/// Implementations must be **deterministic pure functions of their
/// construction parameters**: the same source must return the same energy
/// for the same `(day_of_year, day_index, hour)` cell, so that any cell
/// can be queried independently (the weather and routine models underneath
/// derive every cell from a seed rather than from iteration state).
/// Returned energies must be finite and non-negative; photovoltaic
/// sources ([`is_photovoltaic`](HarvestSource::is_photovoltaic)) must
/// return zero whenever their light source is off — in particular during
/// the dead of night.
///
/// # Examples
///
/// ```
/// use reap_harvest::{HarvestSource, SourceKind};
///
/// // Every bundled source yields a month-long trace from one seed.
/// for kind in SourceKind::ALL {
///     let source = kind.instantiate(42);
///     let trace = source.generate(244, 30).unwrap();
///     assert_eq!(trace.days(), 30);
///     assert!(trace.total().joules() > 0.0, "{kind} harvested nothing");
/// }
/// ```
pub trait HarvestSource {
    /// Energy harvested during hour `hour` (0-23) of trace day
    /// `day_index` (0-based), whose calendar day is `day_of_year`
    /// (1-based, wrapped into `1..=365`).
    ///
    /// Both day coordinates are provided because sources couple to
    /// different clocks: solar geometry and seasonal ambient temperature
    /// follow the calendar (`day_of_year`), while weather streams and
    /// weekday/weekend activity routines follow the trace-relative index
    /// (`day_index`).
    fn hourly_energy(&self, day_of_year: u32, day_index: u32, hour: u32) -> Energy;

    /// `true` when the source harvests light and therefore goes fully
    /// dark when its light source is off. Used by budget-allocation
    /// heuristics and by the substrate's property tests (photovoltaic
    /// sources must yield exactly zero in the dead of night).
    fn is_photovoltaic(&self) -> bool {
        false
    }

    /// Generates an hourly [`HarvestTrace`] of `days` days starting at
    /// `start_day_of_year` (1-based).
    ///
    /// # Errors
    ///
    /// [`HarvestError::InvalidParameter`] when `days == 0`,
    /// `start_day_of_year` is outside `1..=365`, or the model produced an
    /// invalid (negative / non-finite) energy.
    fn generate(&self, start_day_of_year: u32, days: u32) -> Result<HarvestTrace, HarvestError> {
        if days == 0 {
            return Err(HarvestError::InvalidParameter("zero days".into()));
        }
        if !(1..=365).contains(&start_day_of_year) {
            return Err(HarvestError::InvalidParameter(format!(
                "start day of year {start_day_of_year} outside 1..=365"
            )));
        }
        let mut hourly = Vec::with_capacity(days as usize * 24);
        for day in 0..days {
            let doy = (start_day_of_year + day - 1) % 365 + 1;
            for hour in 0..24 {
                hourly.push(self.hourly_energy(doy, day, hour));
            }
        }
        HarvestTrace::new(start_day_of_year, hourly)
    }
}

/// The bundled source models, as values.
///
/// The fleet simulator shards synthetic users across these kinds; each
/// [`instantiate`](SourceKind::instantiate)d source is calibrated so its
/// useful hours land inside the paper's 0.18–10 J evaluation regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// Outdoor flexible solar panel under real-sky irradiance
    /// ([`SolarSource`](crate::SolarSource)).
    OutdoorSolar,
    /// Indoor photovoltaic cell under office lighting
    /// ([`IndoorPhotovoltaic`](crate::IndoorPhotovoltaic)).
    IndoorPhotovoltaic,
    /// Thermoelectric generator against body heat
    /// ([`BodyHeatTeg`](crate::BodyHeatTeg)).
    BodyHeat,
    /// Kinetic/piezoelectric motion harvester
    /// ([`KineticHarvester`](crate::KineticHarvester)).
    Kinetic,
}

impl SourceKind {
    /// All bundled kinds, in the fleet's sharding order.
    pub const ALL: [SourceKind; 4] = [
        SourceKind::OutdoorSolar,
        SourceKind::IndoorPhotovoltaic,
        SourceKind::BodyHeat,
        SourceKind::Kinetic,
    ];

    /// Stable label for reports (e.g. `"outdoor-solar"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SourceKind::OutdoorSolar => "outdoor-solar",
            SourceKind::IndoorPhotovoltaic => "indoor-pv",
            SourceKind::BodyHeat => "body-heat-teg",
            SourceKind::Kinetic => "kinetic",
        }
    }

    /// Builds the calibrated wearable instance of this kind for a seed.
    ///
    /// # Examples
    ///
    /// ```
    /// use reap_harvest::{HarvestSource, SourceKind};
    ///
    /// let teg = SourceKind::BodyHeat.instantiate(1);
    /// // Body heat never stops flowing: even 3 am harvests something.
    /// assert!(teg.hourly_energy(244, 0, 3).joules() > 0.0);
    /// ```
    #[must_use]
    pub fn instantiate(self, seed: u64) -> Box<dyn HarvestSource> {
        match self {
            SourceKind::OutdoorSolar => Box::new(crate::SolarSource::september_wearable(seed)),
            SourceKind::IndoorPhotovoltaic => {
                Box::new(crate::IndoorPhotovoltaic::office_badge(seed))
            }
            SourceKind::BodyHeat => Box::new(crate::BodyHeatTeg::wrist_wearable(seed)),
            SourceKind::Kinetic => Box::new(crate::KineticHarvester::shoe_piezo(seed)),
        }
    }
}

impl std::fmt::Display for SourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_label() {
        for kind in SourceKind::ALL {
            assert_eq!(kind.to_string(), kind.label());
        }
    }

    #[test]
    fn all_kinds_are_distinct() {
        for (i, a) in SourceKind::ALL.iter().enumerate() {
            for b in &SourceKind::ALL[i + 1..] {
                assert_ne!(a, b);
                assert_ne!(a.label(), b.label());
            }
        }
    }

    #[test]
    fn generate_rejects_zero_days() {
        for kind in SourceKind::ALL {
            assert!(kind.instantiate(0).generate(1, 0).is_err());
        }
    }

    #[test]
    fn generate_rejects_out_of_range_start_day() {
        for kind in SourceKind::ALL {
            assert!(kind.instantiate(0).generate(0, 1).is_err());
            assert!(kind.instantiate(0).generate(366, 1).is_err());
        }
    }

    #[test]
    fn generate_wraps_the_calendar() {
        // Starting in late December must wrap into January, not panic.
        for kind in SourceKind::ALL {
            let trace = kind.instantiate(1).generate(360, 10).unwrap();
            assert_eq!(trace.days(), 10);
        }
    }

    #[test]
    fn photovoltaic_flags() {
        assert!(SourceKind::OutdoorSolar.instantiate(0).is_photovoltaic());
        assert!(SourceKind::IndoorPhotovoltaic
            .instantiate(0)
            .is_photovoltaic());
        assert!(!SourceKind::BodyHeat.instantiate(0).is_photovoltaic());
        assert!(!SourceKind::Kinetic.instantiate(0).is_photovoltaic());
    }
}
