//! Thermoelectric body-heat harvesting.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reap_data::DailyRoutine;
use reap_units::{Energy, Power, TimeSpan};

use crate::{HarvestError, HarvestSource};

/// A thermoelectric generator (TEG) worn against the skin, harvesting the
/// temperature gradient between the body and ambient air.
///
/// Unlike photovoltaics, body heat never turns off: the TEG trickles
/// energy 24/7, but at the *bottom* of the paper's 0.18–10 J regime —
/// resting hours hover right around the 0.18 J off-state floor, making
/// this the stress source for "can the policy keep the device alive at
/// all" questions. The gradient couples to the wearer's
/// [`DailyRoutine`]:
///
/// * a higher metabolic rate raises skin temperature and perfusion
///   (ΔT grows ~linearly in METs above resting), and
/// * walking and driving add forced-air convection over the cold plate
///   (air moving past the wearer), which widens ΔT further — the reason
///   commute hours out-harvest desk hours even at similar METs.
///
/// Ambient temperature follows the season: winter days (cold ambient)
/// widen the gradient, summer days narrow it.
///
/// # Examples
///
/// ```
/// use reap_harvest::{BodyHeatTeg, HarvestSource};
///
/// let teg = BodyHeatTeg::wrist_wearable(5);
/// // Never off: even 3 am harvests a trickle…
/// assert!(teg.hourly_energy(244, 0, 3).joules() > 0.0);
/// // …and a weekday commute beats sleeping.
/// assert!(
///     teg.hourly_energy(244, 0, 8).joules() > teg.hourly_energy(244, 0, 3).joules()
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BodyHeatTeg {
    seed: u64,
    routine: DailyRoutine,
    /// Electrical output per kelvin of gradient (module + boost
    /// converter), in W/K.
    conversion_w_per_k: f64,
    /// Skin-to-ambient gradient at rest in a temperate room, in K.
    base_delta_t_k: f64,
}

impl BodyHeatTeg {
    /// The calibrated wrist TEG: ~60 µW/K effective conversion and a
    /// ~1.1 K resting gradient, yielding ≈0.25 J resting hours and
    /// ≈0.4–0.7 J active ones.
    #[must_use]
    pub fn wrist_wearable(seed: u64) -> BodyHeatTeg {
        BodyHeatTeg::new(seed, 60e-6, 1.1).expect("calibrated constants are valid")
    }

    /// Creates a TEG model.
    ///
    /// # Errors
    ///
    /// [`HarvestError::InvalidParameter`] when the conversion factor or
    /// resting gradient is non-positive or non-finite.
    pub fn new(
        seed: u64,
        conversion_w_per_k: f64,
        base_delta_t_k: f64,
    ) -> Result<BodyHeatTeg, HarvestError> {
        for (name, v) in [
            ("conversion factor", conversion_w_per_k),
            ("resting gradient", base_delta_t_k),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(HarvestError::InvalidParameter(format!(
                    "{name} {v} must be positive"
                )));
            }
        }
        Ok(BodyHeatTeg {
            seed,
            routine: DailyRoutine::new(seed),
            conversion_w_per_k,
            base_delta_t_k,
        })
    }

    /// Seasonal ambient factor: winter cold widens the gradient, summer
    /// heat narrows it (±25% around the annual mean, peaking mid-January).
    fn seasonal_factor(day_of_year: u32) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * (f64::from(day_of_year) - 15.0) / 365.0;
        1.0 + 0.25 * phase.cos()
    }
}

impl HarvestSource for BodyHeatTeg {
    fn hourly_energy(&self, day_of_year: u32, day_index: u32, hour: u32) -> Energy {
        let mix = self.routine.hourly_mix(day_index, hour);
        // Metabolic heating above resting widens the gradient…
        let met_excess = (mix.metabolic_rate_met() - 1.0).max(0.0);
        // …and locomotion/riding adds forced convection on the cold side.
        let airflow = mix.fraction(reap_data::Activity::Walk)
            + mix.fraction(reap_data::Activity::Drive)
            + mix.fraction(reap_data::Activity::Jump);
        let delta_t = (self.base_delta_t_k + 0.30 * met_excess + 0.60 * airflow)
            * Self::seasonal_factor(day_of_year);
        // Clothing and micro-climate jitter per (seed, day, hour).
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x94D0_49BB_1331_11EB)
                .wrapping_add(u64::from(day_index) << 8)
                .wrapping_add(u64::from(hour)),
        );
        let jitter = rng.gen_range(0.85..1.15);
        Power::from_watts(self.conversion_w_per_k * delta_t * jitter) * TimeSpan::from_hours(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(BodyHeatTeg::new(0, 0.0, 1.0).is_err());
        assert!(BodyHeatTeg::new(0, 60e-6, -1.0).is_err());
        assert!(BodyHeatTeg::new(0, f64::NAN, 1.0).is_err());
        assert!(BodyHeatTeg::new(0, 60e-6, 1.1).is_ok());
    }

    #[test]
    fn always_positive_and_near_the_floor() {
        let teg = BodyHeatTeg::wrist_wearable(1);
        for day in 0..14 {
            for hour in 0..24 {
                let e = teg.hourly_energy(244, day, hour).joules();
                assert!(e > 0.0, "day {day} hour {hour} went dark");
                assert!(e < 1.5, "day {day} hour {hour}: implausible {e} J");
            }
        }
    }

    #[test]
    fn active_hours_beat_resting_hours() {
        // Mean over two weeks to average out jitter.
        let teg = BodyHeatTeg::wrist_wearable(2);
        let mean = |hour: u32| {
            (0..14)
                .map(|d| teg.hourly_energy(244, d, hour).joules())
                .sum::<f64>()
                / 14.0
        };
        // Weekday commute/lunch hours vs the dead of night.
        assert!(mean(8) > 1.15 * mean(3), "{} vs {}", mean(8), mean(3));
        assert!(mean(12) > mean(3));
    }

    #[test]
    fn winter_beats_summer() {
        let teg = BodyHeatTeg::wrist_wearable(3);
        // Same (day_index, hour) cell — only the calendar day changes, so
        // the routine and jitter are identical and seasonality isolates.
        let january = teg.hourly_energy(15, 0, 12).joules();
        let july = teg.hourly_energy(196, 0, 12).joules();
        assert!(january > 1.3 * july, "january {january} vs july {july}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = BodyHeatTeg::wrist_wearable(4);
        let b = BodyHeatTeg::wrist_wearable(4);
        let c = BodyHeatTeg::wrist_wearable(5);
        let mut differs = false;
        for hour in 0..24 {
            assert_eq!(a.hourly_energy(100, 1, hour), b.hourly_energy(100, 1, hour));
            differs |= a.hourly_energy(100, 1, hour) != c.hourly_energy(100, 1, hour);
        }
        assert!(differs);
    }
}
