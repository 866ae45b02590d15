//! Hour-granularity daily activity routines.
//!
//! The window-level label streams used by the classifier-in-the-loop
//! simulation resolve 1.6 s at a time — far finer than the energy
//! subsystem needs. Motion- and body-coupled energy harvesters (kinetic,
//! thermoelectric) integrate over whole hours, so this module provides the
//! hour-level counterpart: a seeded [`DailyRoutine`] that says, for every
//! hour of every day, what *mix* of activities the wearer performed.
//!
//! The routine follows a diurnal template (sleep at night, commute
//! mornings and evenings, desk work or errands during the day) with
//! per-persona variation (car vs. foot commuter, exerciser or not,
//! overall activity level) and per-hour seeded jitter, so a cohort of
//! seeds produces a realistic spread of lifestyles while every seed stays
//! perfectly reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Activity;

/// The fraction of an hour spent in each activity.
///
/// Fractions are non-negative and sum to 1. The mix is the bridge between
/// the activity domain and the energy domain: its weighted
/// [`motion_intensity`](ActivityMix::motion_intensity) drives kinetic
/// harvest models and its weighted
/// [`metabolic_rate_met`](ActivityMix::metabolic_rate_met) drives
/// thermoelectric ones.
///
/// # Examples
///
/// ```
/// use reap_data::{Activity, ActivityMix};
///
/// let mut weights = [0.0; Activity::COUNT];
/// weights[Activity::Walk.index()] = 3.0;
/// weights[Activity::Sit.index()] = 1.0;
/// let mix = ActivityMix::from_weights(weights);
/// assert!((mix.fraction(Activity::Walk) - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityMix {
    fractions: [f64; Activity::COUNT],
}

impl ActivityMix {
    /// Normalizes non-negative weights into a mix.
    ///
    /// # Panics
    ///
    /// Panics when a weight is negative or non-finite, or when all weights
    /// are zero.
    #[must_use]
    pub fn from_weights(weights: [f64; Activity::COUNT]) -> ActivityMix {
        let mut sum = 0.0;
        for w in &weights {
            assert!(w.is_finite() && *w >= 0.0, "invalid activity weight {w}");
            sum += w;
        }
        assert!(sum > 0.0, "all activity weights are zero");
        ActivityMix {
            fractions: weights.map(|w| w / sum),
        }
    }

    /// Fraction of the hour spent in `activity`, in `[0, 1]`.
    #[must_use]
    pub fn fraction(&self, activity: Activity) -> f64 {
        self.fractions[activity.index()]
    }

    /// Mix-weighted mean RMS dynamic acceleration, in g (see
    /// [`Activity::motion_intensity`]).
    #[must_use]
    pub fn motion_intensity(&self) -> f64 {
        Activity::ALL
            .iter()
            .map(|&a| self.fraction(a) * a.motion_intensity())
            .sum()
    }

    /// Mix-weighted mean *square* of the RMS dynamic acceleration, in g².
    ///
    /// Resonant kinetic harvesters deliver power proportional to the
    /// square of the driving acceleration, so an hour's harvest scales
    /// with this quantity rather than with the plain mean.
    #[must_use]
    pub fn mean_square_motion_intensity(&self) -> f64 {
        Activity::ALL
            .iter()
            .map(|&a| self.fraction(a) * a.motion_intensity() * a.motion_intensity())
            .sum()
    }

    /// Mix-weighted mean metabolic rate in METs (see
    /// [`Activity::metabolic_rate_met`]).
    #[must_use]
    pub fn metabolic_rate_met(&self) -> f64 {
        Activity::ALL
            .iter()
            .map(|&a| self.fraction(a) * a.metabolic_rate_met())
            .sum()
    }
}

/// A seeded hour-granularity model of one wearer's weekly rhythm.
///
/// Days follow a five-weekday/two-weekend cycle (day 0 is a Monday by
/// convention). Any `(day, hour)` cell can be queried independently and
/// reproducibly — like the weather model in `reap-harvest`, the routine
/// derives every cell from the seed rather than from mutable iteration
/// state.
///
/// # Examples
///
/// ```
/// use reap_data::{Activity, DailyRoutine};
///
/// let routine = DailyRoutine::new(7);
/// // 3 am is for sleeping…
/// assert!(routine.hourly_mix(0, 3).fraction(Activity::LieDown) > 0.8);
/// // …and a weekday mid-morning is mostly desk work for an office persona.
/// assert!(routine.hourly_mix(0, 10).fraction(Activity::LieDown) < 0.2);
/// // The same cell always reproduces.
/// assert_eq!(routine.hourly_mix(4, 10), DailyRoutine::new(7).hourly_mix(4, 10));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DailyRoutine {
    seed: u64,
    /// Scales the time spent walking (0.6 = sedentary, 1.5 = restless).
    activity_scale: f64,
    /// Commutes by car (otherwise on foot).
    drives: bool,
    /// Fits a high-motion exercise block into weekday evenings.
    exercises: bool,
}

impl DailyRoutine {
    /// Creates the routine of the wearer identified by `seed`.
    ///
    /// The persona parameters (activity level, car vs. foot commute,
    /// evening exercise) are drawn deterministically from the seed, so a
    /// cohort of consecutive seeds yields a diverse but reproducible
    /// population.
    #[must_use]
    pub fn new(seed: u64) -> DailyRoutine {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA076_1D64_78BD_642F));
        DailyRoutine {
            seed,
            activity_scale: rng.gen_range(0.6..1.5),
            drives: rng.gen_bool(0.65),
            exercises: rng.gen_bool(0.40),
        }
    }

    /// `true` when `day_index` (0-based, day 0 = Monday) is a weekday.
    #[must_use]
    pub fn is_weekday(day_index: u32) -> bool {
        day_index % 7 < 5
    }

    /// The activity mix of hour `hour` (0-23) of day `day_index`
    /// (0-based).
    ///
    /// # Panics
    ///
    /// Panics when `hour >= 24`.
    #[must_use]
    pub fn hourly_mix(&self, day_index: u32, hour: u32) -> ActivityMix {
        assert!(hour < 24, "hour {hour} out of range");
        let mut w = [0.0; Activity::COUNT];
        let set = |a: Activity, v: f64, w: &mut [f64; Activity::COUNT]| w[a.index()] = v;
        let walk_scale = self.activity_scale;

        if Self::is_weekday(day_index) {
            match hour {
                0..=5 => {
                    set(Activity::LieDown, 0.95, &mut w);
                    set(Activity::Sit, 0.03, &mut w);
                    set(Activity::Transition, 0.02, &mut w);
                }
                6 => {
                    set(Activity::LieDown, 0.30, &mut w);
                    set(Activity::Sit, 0.25, &mut w);
                    set(Activity::Stand, 0.20, &mut w);
                    set(Activity::Walk, 0.15 * walk_scale, &mut w);
                    set(Activity::Transition, 0.10, &mut w);
                }
                7..=8 | 17..=18 => {
                    // Commute blocks.
                    let (drive, walk) = if self.drives {
                        (0.45, 0.20 * walk_scale)
                    } else {
                        (0.05, 0.55 * walk_scale)
                    };
                    set(Activity::Drive, drive, &mut w);
                    set(Activity::Walk, walk, &mut w);
                    set(Activity::Sit, 0.15, &mut w);
                    set(Activity::Stand, 0.10, &mut w);
                    set(Activity::Transition, 0.05, &mut w);
                }
                9..=11 | 13..=16 => {
                    // Desk work.
                    set(Activity::Sit, 0.62, &mut w);
                    set(Activity::Stand, 0.18, &mut w);
                    set(Activity::Walk, 0.12 * walk_scale, &mut w);
                    set(Activity::Drive, 0.03, &mut w);
                    set(Activity::Transition, 0.05, &mut w);
                }
                12 => {
                    // Lunch walk.
                    set(Activity::Sit, 0.45, &mut w);
                    set(Activity::Walk, 0.30 * walk_scale, &mut w);
                    set(Activity::Stand, 0.15, &mut w);
                    set(Activity::Transition, 0.10, &mut w);
                }
                19..=20 => {
                    let jump = if self.exercises { 0.15 } else { 0.01 };
                    set(Activity::Sit, 0.40, &mut w);
                    set(Activity::Stand, 0.15, &mut w);
                    set(Activity::Walk, 0.20 * walk_scale, &mut w);
                    set(Activity::Jump, jump, &mut w);
                    set(Activity::LieDown, 0.10, &mut w);
                    set(Activity::Transition, 0.05, &mut w);
                }
                21 => {
                    set(Activity::Sit, 0.40, &mut w);
                    set(Activity::LieDown, 0.40, &mut w);
                    set(Activity::Stand, 0.10, &mut w);
                    set(Activity::Walk, 0.05 * walk_scale, &mut w);
                    set(Activity::Transition, 0.05, &mut w);
                }
                _ => {
                    set(Activity::LieDown, 0.90, &mut w);
                    set(Activity::Sit, 0.07, &mut w);
                    set(Activity::Transition, 0.03, &mut w);
                }
            }
        } else {
            match hour {
                0..=7 => {
                    set(Activity::LieDown, 0.94, &mut w);
                    set(Activity::Sit, 0.04, &mut w);
                    set(Activity::Transition, 0.02, &mut w);
                }
                8..=9 => {
                    set(Activity::Sit, 0.35, &mut w);
                    set(Activity::Stand, 0.20, &mut w);
                    set(Activity::LieDown, 0.20, &mut w);
                    set(Activity::Walk, 0.15 * walk_scale, &mut w);
                    set(Activity::Transition, 0.10, &mut w);
                }
                10..=13 => {
                    // Errands and outings.
                    set(Activity::Walk, 0.30 * walk_scale, &mut w);
                    set(
                        Activity::Drive,
                        if self.drives { 0.25 } else { 0.05 },
                        &mut w,
                    );
                    set(Activity::Stand, 0.20, &mut w);
                    set(Activity::Sit, 0.20, &mut w);
                    set(Activity::Transition, 0.05, &mut w);
                }
                14..=17 => {
                    let jump = if self.exercises { 0.08 } else { 0.01 };
                    set(Activity::Sit, 0.35, &mut w);
                    set(Activity::Walk, 0.20 * walk_scale, &mut w);
                    set(Activity::Stand, 0.15, &mut w);
                    set(Activity::LieDown, 0.15, &mut w);
                    set(Activity::Jump, jump, &mut w);
                    set(Activity::Transition, 0.05, &mut w);
                }
                18..=21 => {
                    set(Activity::Sit, 0.55, &mut w);
                    set(Activity::Stand, 0.12, &mut w);
                    set(Activity::Walk, 0.08 * walk_scale, &mut w);
                    set(Activity::LieDown, 0.20, &mut w);
                    set(Activity::Transition, 0.05, &mut w);
                }
                _ => {
                    set(Activity::LieDown, 0.92, &mut w);
                    set(Activity::Sit, 0.05, &mut w);
                    set(Activity::Transition, 0.03, &mut w);
                }
            }
        }

        // Per-cell jitter: nobody's Tuesday 10 am is identical to their
        // Wednesday's. Derived from (seed, day, hour) so cells stay
        // independently queryable.
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0xE703_7ED1_A0B4_28DB)
                .wrapping_add(u64::from(day_index) << 8)
                .wrapping_add(u64::from(hour)),
        );
        for weight in &mut w {
            if *weight > 0.0 {
                *weight *= rng.gen_range(0.75..1.25);
            }
        }
        ActivityMix::from_weights(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ActivityMix {
        /// A mix spending the whole hour in one activity.
        fn pure(activity: Activity) -> ActivityMix {
            let mut weights = [0.0; Activity::COUNT];
            weights[activity.index()] = 1.0;
            ActivityMix { fractions: weights }
        }

        /// The activity with the largest fraction (ties break toward the
        /// lower [`Activity::index`]).
        fn dominant(&self) -> Activity {
            let mut best = Activity::ALL[0];
            for a in Activity::ALL {
                if self.fraction(a) > self.fraction(best) {
                    best = a;
                }
            }
            best
        }
    }

    #[test]
    fn mix_normalizes_and_exposes_fractions() {
        let mut weights = [0.0; Activity::COUNT];
        weights[Activity::Sit.index()] = 2.0;
        weights[Activity::Walk.index()] = 2.0;
        let mix = ActivityMix::from_weights(weights);
        assert!((mix.fraction(Activity::Sit) - 0.5).abs() < 1e-12);
        assert!((mix.fractions.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Dominant tie breaks toward the lower index (Sit < Walk).
        assert_eq!(mix.dominant(), Activity::Sit);
    }

    #[test]
    #[should_panic(expected = "invalid activity weight")]
    fn negative_weight_panics() {
        let mut weights = [0.0; Activity::COUNT];
        weights[0] = -1.0;
        let _ = ActivityMix::from_weights(weights);
    }

    #[test]
    #[should_panic(expected = "all activity weights are zero")]
    fn zero_weights_panic() {
        let _ = ActivityMix::from_weights([0.0; Activity::COUNT]);
    }

    #[test]
    fn pure_mix_is_a_delta() {
        let mix = ActivityMix::pure(Activity::Jump);
        assert_eq!(mix.fraction(Activity::Jump), 1.0);
        assert_eq!(mix.dominant(), Activity::Jump);
        assert!((mix.motion_intensity() - Activity::Jump.motion_intensity()).abs() < 1e-12);
        assert!((mix.metabolic_rate_met() - Activity::Jump.metabolic_rate_met()).abs() < 1e-12);
    }

    #[test]
    fn mean_square_exceeds_square_of_mean_for_mixtures() {
        let mut weights = [0.0; Activity::COUNT];
        weights[Activity::Jump.index()] = 0.5;
        weights[Activity::Sit.index()] = 0.5;
        let mix = ActivityMix::from_weights(weights);
        let mean = mix.motion_intensity();
        assert!(mix.mean_square_motion_intensity() > mean * mean);
    }

    #[test]
    fn routine_is_deterministic_per_seed_and_varies_across_seeds() {
        let a = DailyRoutine::new(5);
        let b = DailyRoutine::new(5);
        for day in 0..14 {
            for hour in 0..24 {
                assert_eq!(a.hourly_mix(day, hour), b.hourly_mix(day, hour));
            }
        }
        let c = DailyRoutine::new(6);
        let differs = (0..24).any(|h| a.hourly_mix(0, h) != c.hourly_mix(0, h));
        assert!(differs, "seeds 5 and 6 produced identical day 0");
    }

    #[test]
    fn nights_are_for_sleeping() {
        for seed in 0..20 {
            let r = DailyRoutine::new(seed);
            for day in 0..7 {
                for hour in [0, 2, 4] {
                    let mix = r.hourly_mix(day, hour);
                    assert_eq!(mix.dominant(), Activity::LieDown, "seed {seed}");
                    assert!(mix.fraction(Activity::LieDown) > 0.8);
                }
            }
        }
    }

    #[test]
    fn days_are_more_dynamic_than_nights() {
        for seed in 0..20 {
            let r = DailyRoutine::new(seed);
            let night = r.hourly_mix(0, 3).motion_intensity();
            let noon = r.hourly_mix(0, 12).motion_intensity();
            assert!(noon > 3.0 * night, "seed {seed}: noon {noon} night {night}");
        }
    }

    #[test]
    fn weekday_cycle() {
        assert!(DailyRoutine::is_weekday(0));
        assert!(DailyRoutine::is_weekday(4));
        assert!(!DailyRoutine::is_weekday(5));
        assert!(!DailyRoutine::is_weekday(6));
        assert!(DailyRoutine::is_weekday(7));
    }

    #[test]
    fn commuters_drive_more_than_walkers() {
        // Find one driving and one walking persona; compare commute mixes.
        let seeds: Vec<u64> = (0..64).collect();
        let driver = seeds.iter().find(|&&s| DailyRoutine::new(s).drives);
        let walker = seeds.iter().find(|&&s| !DailyRoutine::new(s).drives);
        let (driver, walker) = (driver.expect("some driver"), walker.expect("some walker"));
        let d = DailyRoutine::new(*driver).hourly_mix(0, 8);
        let w = DailyRoutine::new(*walker).hourly_mix(0, 8);
        assert!(d.fraction(Activity::Drive) > w.fraction(Activity::Drive));
        assert!(w.fraction(Activity::Walk) > d.fraction(Activity::Walk));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_hour_panics() {
        let _ = DailyRoutine::new(0).hourly_mix(0, 24);
    }
}
