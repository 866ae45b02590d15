//! Kinetic (piezoelectric/electromagnetic) motion harvesting.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reap_data::DailyRoutine;
use reap_units::{Energy, Power, TimeSpan};

use crate::{HarvestError, HarvestSource};

/// A kinetic energy harvester (piezo stack or moving-magnet generator)
/// excited by the wearer's own motion.
///
/// A resonant harvester's electrical output grows with the *square* of
/// the driving acceleration, so an hour's harvest scales with the
/// mix-weighted mean-square motion intensity of the wearer's
/// [`DailyRoutine`] — the same per-activity intensities the `reap-data`
/// waveform models synthesize
/// ([`Activity::motion_intensity`](reap_data::Activity::motion_intensity)).
/// The result is the *spikiest* of the bundled sources: sleeping hours
/// harvest microjoules, desk hours a few tenths of a joule, walking
/// commutes over a joule, and an exercise block several joules — spanning
/// the paper's 0.18–10 J regime within a single day.
///
/// # Examples
///
/// ```
/// use reap_harvest::{HarvestSource, KineticHarvester};
///
/// let piezo = KineticHarvester::shoe_piezo(9);
/// // A weekday morning commute dwarfs the dead of night.
/// let commute = piezo.hourly_energy(244, 0, 8).joules();
/// let night = piezo.hourly_energy(244, 0, 3).joules();
/// assert!(commute > 5.0 * night);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KineticHarvester {
    seed: u64,
    routine: DailyRoutine,
    /// Electrical output per g² of mean-square driving acceleration, in
    /// W/g².
    conversion_w_per_g2: f64,
}

impl KineticHarvester {
    /// The calibrated shoe-mounted piezo stack: ~3 mW/g², putting steady
    /// walking at ≈1 J/h and jumping exercise in the multi-joule range.
    #[must_use]
    pub fn shoe_piezo(seed: u64) -> KineticHarvester {
        KineticHarvester::new(seed, 3e-3).expect("calibrated constants are valid")
    }

    /// Creates a kinetic harvester model.
    ///
    /// # Errors
    ///
    /// [`HarvestError::InvalidParameter`] when the conversion factor is
    /// non-positive or non-finite.
    pub fn new(seed: u64, conversion_w_per_g2: f64) -> Result<KineticHarvester, HarvestError> {
        if !conversion_w_per_g2.is_finite() || conversion_w_per_g2 <= 0.0 {
            return Err(HarvestError::InvalidParameter(format!(
                "conversion factor {conversion_w_per_g2} must be positive"
            )));
        }
        Ok(KineticHarvester {
            seed,
            routine: DailyRoutine::new(seed),
            conversion_w_per_g2,
        })
    }
}

impl HarvestSource for KineticHarvester {
    fn hourly_energy(&self, _day_of_year: u32, day_index: u32, hour: u32) -> Energy {
        let mix = self.routine.hourly_mix(day_index, hour);
        // Mounting/coupling jitter per (seed, day, hour): how tightly the
        // shoe is laced, surface hardness, gait variation.
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .wrapping_add(u64::from(day_index) << 8)
                .wrapping_add(u64::from(hour)),
        );
        let jitter = rng.gen_range(0.80..1.20);
        let watts = self.conversion_w_per_g2 * mix.mean_square_motion_intensity() * jitter;
        Power::from_watts(watts) * TimeSpan::from_hours(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(KineticHarvester::new(0, 0.0).is_err());
        assert!(KineticHarvester::new(0, -1.0).is_err());
        assert!(KineticHarvester::new(0, f64::INFINITY).is_err());
        assert!(KineticHarvester::new(0, 3e-3).is_ok());
    }

    #[test]
    fn nonnegative_and_bounded() {
        let k = KineticHarvester::shoe_piezo(1);
        for day in 0..14 {
            for hour in 0..24 {
                let e = k.hourly_energy(244, day, hour).joules();
                assert!(e >= 0.0);
                assert!(e < 10.0, "day {day} hour {hour}: implausible {e} J");
            }
        }
    }

    #[test]
    fn nights_harvest_essentially_nothing() {
        let k = KineticHarvester::shoe_piezo(2);
        for day in 0..7 {
            for hour in [0, 2, 4] {
                let e = k.hourly_energy(244, day, hour).joules();
                assert!(e < 0.05, "day {day} hour {hour}: {e} J while asleep");
            }
        }
    }

    #[test]
    fn daily_span_covers_the_paper_regime() {
        // Across a cohort of seeds and a week, the source must produce
        // both sub-floor hours and useful (> 0.18 J) hours.
        let mut any_useful = false;
        let mut any_idle = false;
        for seed in 0..16 {
            let k = KineticHarvester::shoe_piezo(seed);
            for day in 0..7 {
                for hour in 0..24 {
                    let e = k.hourly_energy(244, day, hour).joules();
                    any_useful |= e > 0.18;
                    any_idle |= e < 0.05;
                }
            }
        }
        assert!(any_useful, "no hour cleared the 0.18 J floor");
        assert!(any_idle, "no idle hours at all");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = KineticHarvester::shoe_piezo(3);
        let b = KineticHarvester::shoe_piezo(3);
        let c = KineticHarvester::shoe_piezo(4);
        let mut differs = false;
        for hour in 0..24 {
            assert_eq!(a.hourly_energy(100, 1, hour), b.hourly_energy(100, 1, hour));
            differs |= a.hourly_energy(100, 1, hour) != c.hourly_energy(100, 1, hour);
        }
        assert!(differs);
    }
}
