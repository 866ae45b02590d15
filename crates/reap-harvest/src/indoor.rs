//! Indoor photovoltaic harvesting under artificial office lighting.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reap_units::Energy;

use crate::{HarvestError, HarvestSource, SolarPanel};

/// An indoor photovoltaic cell driven by an office-lighting duty cycle.
///
/// Indoor light is a radically different regime from sunlight: a brightly
/// lit office delivers on the order of 500 lux — a few W/m² of radiant
/// flux — versus ~1000 W/m² outdoors, but it is *stable* (no clouds) and
/// follows occupancy rather than the sun. The model composes:
///
/// * a **lighting schedule** — weekday lights-on from 07:00 to 21:59 with
///   full brightness during core office hours and dimmer early/evening
///   shoulders; weekends mostly dark with occasional partial occupancy;
/// * per-hour seeded **occupancy jitter** (meetings out of the room, desk
///   lamps, blinds) multiplying the nominal illuminance;
/// * an amorphous-silicon **cell** tuned for indoor spectra, reusing the
///   [`SolarPanel`] conversion chain with indoor-calibrated constants.
///
/// Lights are hard-off outside 07:00–21:59 and all harvests are zero
/// then — the source is photovoltaic, so the substrate's "dark at night"
/// property holds exactly.
///
/// # Examples
///
/// ```
/// use reap_harvest::{HarvestSource, IndoorPhotovoltaic};
///
/// let pv = IndoorPhotovoltaic::office_badge(3);
/// // A weekday mid-morning in the office harvests a usable budget…
/// assert!(pv.hourly_energy(244, 0, 10).joules() > 0.18);
/// // …and 3 am harvests exactly nothing.
/// assert_eq!(pv.hourly_energy(244, 0, 3).joules(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IndoorPhotovoltaic {
    seed: u64,
    cell: SolarPanel,
    /// Radiant flux at full office brightness, W/m² (a well-lit office:
    /// roughly 500 lux of white LED/fluorescent light).
    full_brightness_wm2: f64,
}

/// First hour of the lighting schedule (inclusive).
const LIGHTS_ON_HOUR: u32 = 7;
/// Last hour of the lighting schedule (inclusive).
const LIGHTS_OFF_HOUR: u32 = 21;

impl IndoorPhotovoltaic {
    /// The calibrated badge-sized indoor cell: 60 cm² of amorphous
    /// silicon (the chemistry of choice under indoor spectra) behind a
    /// boost converter, worn facing outward on the chest.
    ///
    /// Calibration targets the low end of the paper's 0.18–10 J regime:
    /// full-brightness office hours harvest ≈1–2 J, enough to keep a
    /// low-power design point alive but far from a solar noon — exactly
    /// the stress regime indoor deployments live in.
    #[must_use]
    pub fn office_badge(seed: u64) -> IndoorPhotovoltaic {
        IndoorPhotovoltaic::new(
            seed,
            // area 60 cm², a-Si indoor efficiency 9%, outward-facing badge
            // derating 0.75, converter 0.75.
            SolarPanel::new(0.006, 0.09, 0.75, 0.75).expect("calibrated constants are valid"),
            2.0,
        )
        .expect("calibrated constants are valid")
    }

    /// Creates an indoor source from a cell model and the radiant flux at
    /// full office brightness.
    ///
    /// # Errors
    ///
    /// [`HarvestError::InvalidParameter`] when the flux is non-positive or
    /// non-finite.
    pub fn new(
        seed: u64,
        cell: SolarPanel,
        full_brightness_wm2: f64,
    ) -> Result<IndoorPhotovoltaic, HarvestError> {
        if !full_brightness_wm2.is_finite() || full_brightness_wm2 <= 0.0 {
            return Err(HarvestError::InvalidParameter(format!(
                "full-brightness flux {full_brightness_wm2} must be positive"
            )));
        }
        Ok(IndoorPhotovoltaic {
            seed,
            cell,
            full_brightness_wm2,
        })
    }

    /// Nominal brightness factor of the schedule (0 = dark, 1 = full), not
    /// yet jittered. Weekday/weekend phase comes from the trace-relative
    /// day index, phase-locked to the activity routines' week (day 0 is a
    /// Monday).
    fn schedule_brightness(day_index: u32, hour: u32) -> f64 {
        if !(LIGHTS_ON_HOUR..=LIGHTS_OFF_HOUR).contains(&hour) {
            return 0.0;
        }
        if reap_data::DailyRoutine::is_weekday(day_index) {
            match hour {
                // Shoulders: arriving early / the cleaning crew late.
                7 | 20..=21 => 0.45,
                // Core office hours.
                9..=17 => 1.0,
                _ => 0.8,
            }
        } else {
            // Weekend: mostly dark, partial occupancy around midday.
            match hour {
                10..=16 => 0.25,
                _ => 0.08,
            }
        }
    }
}

impl HarvestSource for IndoorPhotovoltaic {
    fn hourly_energy(&self, _day_of_year: u32, day_index: u32, hour: u32) -> Energy {
        let nominal = Self::schedule_brightness(day_index, hour);
        if nominal == 0.0 {
            return Energy::ZERO;
        }
        // Occupancy jitter per (seed, day, hour): meetings, blinds, desk
        // lamps. Derived, not iterated, so any cell reproduces alone.
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x8CB9_2BA7_2F3D_8DD7)
                .wrapping_add(u64::from(day_index) << 8)
                .wrapping_add(u64::from(hour)),
        );
        let occupancy = rng.gen_range(0.55..1.0);
        self.cell
            .hourly_energy(self.full_brightness_wm2 * nominal * occupancy)
    }

    fn is_photovoltaic(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        let cell = SolarPanel::new(0.006, 0.09, 0.75, 0.75).unwrap();
        assert!(IndoorPhotovoltaic::new(0, cell.clone(), 0.0).is_err());
        assert!(IndoorPhotovoltaic::new(0, cell.clone(), f64::NAN).is_err());
        assert!(IndoorPhotovoltaic::new(0, cell, 4.0).is_ok());
    }

    #[test]
    fn dark_outside_the_lighting_schedule() {
        let pv = IndoorPhotovoltaic::office_badge(1);
        for day in 0..14 {
            for hour in [0, 3, 5, 6, 22, 23] {
                assert_eq!(
                    pv.hourly_energy(100, day, hour),
                    Energy::ZERO,
                    "day {day} hour {hour}"
                );
            }
        }
    }

    #[test]
    fn office_hours_land_in_the_useful_regime() {
        let pv = IndoorPhotovoltaic::office_badge(2);
        for day in 0..5 {
            for hour in 9..=17 {
                let e = pv.hourly_energy(100, day, hour).joules();
                assert!((0.18..3.0).contains(&e), "day {day} hour {hour}: {e} J");
            }
        }
    }

    #[test]
    fn weekends_are_dimmer_than_weekdays() {
        let pv = IndoorPhotovoltaic::office_badge(3);
        let weekday: f64 = (9..=17).map(|h| pv.hourly_energy(100, 0, h).joules()).sum();
        let weekend: f64 = (9..=17).map(|h| pv.hourly_energy(100, 5, h).joules()).sum();
        assert!(
            weekend < 0.5 * weekday,
            "weekend {weekend} vs weekday {weekday}"
        );
    }

    #[test]
    fn deterministic_per_seed_and_independent_of_calendar_day() {
        let a = IndoorPhotovoltaic::office_badge(4);
        let b = IndoorPhotovoltaic::office_badge(4);
        let c = IndoorPhotovoltaic::office_badge(5);
        let mut differs = false;
        for hour in 0..24 {
            assert_eq!(a.hourly_energy(100, 2, hour), b.hourly_energy(100, 2, hour));
            // Indoor lighting ignores the season.
            assert_eq!(a.hourly_energy(1, 2, hour), a.hourly_energy(300, 2, hour));
            differs |= a.hourly_energy(100, 2, hour) != c.hourly_energy(100, 2, hour);
        }
        assert!(differs, "seeds 4 and 5 behaved identically");
    }
}
