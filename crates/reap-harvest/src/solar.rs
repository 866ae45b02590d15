//! Outdoor solar harvesting: clear-sky geometry, stochastic weather, and
//! the [`SolarSource`] that composes them into a [`HarvestSource`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use reap_units::Energy;

use crate::{HarvestError, HarvestSource, SolarPanel};

/// Latitude of NREL's Solar Radiation Research Laboratory in Golden,
/// Colorado — the measurement site of the paper's harvesting data.
pub const GOLDEN_COLORADO_LATITUDE: f64 = 39.74;

/// Clear-sky irradiance model at a fixed latitude.
///
/// Uses standard solar geometry: declination by Cooper's formula, the hour
/// angle, and a Meinel-style air-mass attenuation of the solar constant.
/// Accurate to the ~10% level, which is ample for generating realistic
/// *budget distributions* (the quantity the REAP evaluation consumes).
#[derive(Debug, Clone, PartialEq)]
pub struct SolarModel {
    latitude_rad: f64,
}

impl SolarModel {
    /// A model at the latitude of the paper's measurement site.
    #[must_use]
    pub fn golden_colorado() -> SolarModel {
        SolarModel::new(GOLDEN_COLORADO_LATITUDE).expect("constant latitude is valid")
    }

    /// A model at an arbitrary latitude in degrees.
    ///
    /// # Errors
    ///
    /// [`HarvestError::InvalidParameter`] for latitudes outside ±90°.
    pub fn new(latitude_deg: f64) -> Result<SolarModel, HarvestError> {
        if !latitude_deg.is_finite() || latitude_deg.abs() > 90.0 {
            return Err(HarvestError::InvalidParameter(format!(
                "latitude {latitude_deg} outside [-90, 90]"
            )));
        }
        Ok(SolarModel {
            latitude_rad: latitude_deg.to_radians(),
        })
    }

    /// Sine of the solar elevation at `(day_of_year, hour)`; negative at
    /// night. `day_of_year` is 1-based (1 = Jan 1), `hour` is local solar
    /// time in `[0, 24)`.
    #[must_use]
    pub fn sin_elevation(&self, day_of_year: u32, hour: f64) -> f64 {
        // Cooper's declination formula.
        let declination = (23.45f64).to_radians()
            * (2.0 * std::f64::consts::PI * f64::from(284 + day_of_year) / 365.0).sin();
        let hour_angle = (15.0 * (hour - 12.0)).to_radians();
        self.latitude_rad.sin() * declination.sin()
            + self.latitude_rad.cos() * declination.cos() * hour_angle.cos()
    }

    /// Clear-sky global horizontal irradiance in W/m².
    ///
    /// Zero when the sun is below the horizon.
    #[must_use]
    pub fn clear_sky_irradiance(&self, day_of_year: u32, hour: f64) -> f64 {
        let sin_el = self.sin_elevation(day_of_year, hour);
        if sin_el <= 0.0 {
            return 0.0;
        }
        // Meinel's empirical clear-sky model: direct-normal irradiance
        // attenuated by air mass, projected onto the horizontal, plus a
        // small diffuse fraction.
        const SOLAR_CONSTANT: f64 = 1353.0;
        let air_mass = 1.0 / sin_el;
        let dni = SOLAR_CONSTANT * 0.7f64.powf(air_mass.powf(0.678));
        let diffuse = 0.1 * dni;
        (dni * sin_el + diffuse).max(0.0)
    }
}

/// Daily sky condition of the weather Markov chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SkyCondition {
    /// Nearly unattenuated sun.
    Clear,
    /// Broken clouds: substantial, variable attenuation.
    PartlyCloudy,
    /// Thick overcast: heavy attenuation.
    Overcast,
}

impl SkyCondition {
    /// Mean transmittance of this condition (fraction of clear-sky
    /// irradiance that reaches the panel).
    #[must_use]
    pub fn mean_transmittance(self) -> f64 {
        match self {
            SkyCondition::Clear => 0.95,
            SkyCondition::PartlyCloudy => 0.55,
            SkyCondition::Overcast => 0.20,
        }
    }
}

/// A seeded stochastic weather generator: a per-day Markov chain over
/// [`SkyCondition`] plus hour-scale attenuation noise.
///
/// September in Colorado is mostly sunny; the default transition matrix
/// reflects that (long clear runs, occasional cloudy spells), producing
/// the wide min/mean/max dispersion visible in the paper's Fig. 7 error
/// bars.
#[derive(Debug, Clone, PartialEq)]
pub struct WeatherModel {
    seed: u64,
}

impl WeatherModel {
    /// Creates a weather stream from a seed.
    #[must_use]
    pub fn new(seed: u64) -> WeatherModel {
        WeatherModel { seed }
    }

    /// Sky condition of `day_index` (0-based since the stream's start).
    ///
    /// Computed by replaying the Markov chain from day 0, so any day can
    /// be queried independently and reproducibly.
    #[must_use]
    pub fn day_condition(&self, day_index: u32) -> SkyCondition {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut condition = SkyCondition::Clear;
        for _ in 0..=day_index {
            let roll: f64 = rng.gen();
            condition = match condition {
                SkyCondition::Clear => {
                    if roll < 0.70 {
                        SkyCondition::Clear
                    } else if roll < 0.90 {
                        SkyCondition::PartlyCloudy
                    } else {
                        SkyCondition::Overcast
                    }
                }
                SkyCondition::PartlyCloudy => {
                    if roll < 0.40 {
                        SkyCondition::Clear
                    } else if roll < 0.80 {
                        SkyCondition::PartlyCloudy
                    } else {
                        SkyCondition::Overcast
                    }
                }
                SkyCondition::Overcast => {
                    if roll < 0.25 {
                        SkyCondition::Clear
                    } else if roll < 0.60 {
                        SkyCondition::PartlyCloudy
                    } else {
                        SkyCondition::Overcast
                    }
                }
            };
        }
        condition
    }

    /// Transmittance factor in `(0, 1]` for a specific hour, combining the
    /// day's condition with hour-scale cloud noise.
    #[must_use]
    pub fn transmittance(&self, day_index: u32, hour: u32) -> f64 {
        let condition = self.day_condition(day_index);
        // Independent per-hour jitter derived from (seed, day, hour).
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0xD134_2543_DE82_EF95)
                .wrapping_add(u64::from(day_index) << 8)
                .wrapping_add(u64::from(hour)),
        );
        let jitter: f64 = match condition {
            SkyCondition::Clear => rng.gen_range(-0.05..0.05),
            SkyCondition::PartlyCloudy => rng.gen_range(-0.30..0.30),
            SkyCondition::Overcast => rng.gen_range(-0.10..0.10),
        };
        (condition.mean_transmittance() + jitter).clamp(0.02, 1.0)
    }
}

/// The outdoor-solar [`HarvestSource`]: clear-sky irradiance attenuated by
/// a seeded weather stream and converted by a wearable panel.
///
/// This is the source the paper's Fig. 7 case study uses;
/// [`HarvestTrace::september_like`](crate::HarvestTrace::september_like)
/// is a shorthand for generating a September month from it.
///
/// # Examples
///
/// ```
/// use reap_harvest::{HarvestSource, SolarSource};
///
/// let source = SolarSource::september_wearable(7);
/// // Clear noons harvest joules; solar midnight harvests nothing.
/// assert!(source.hourly_energy(244, 0, 12).joules() > 0.5);
/// assert_eq!(source.hourly_energy(244, 0, 0).joules(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SolarSource {
    model: SolarModel,
    weather: WeatherModel,
    panel: SolarPanel,
}

impl SolarSource {
    /// Composes a solar geometry model, weather stream, and panel.
    #[must_use]
    pub fn new(model: SolarModel, weather: WeatherModel, panel: SolarPanel) -> SolarSource {
        SolarSource {
            model,
            weather,
            panel,
        }
    }

    /// The paper's evaluation setting: Golden, Colorado geometry, a
    /// seeded weather stream, and the calibrated SP3-37-class wearable
    /// panel.
    #[must_use]
    pub fn september_wearable(seed: u64) -> SolarSource {
        SolarSource::new(
            SolarModel::golden_colorado(),
            WeatherModel::new(seed),
            SolarPanel::sp3_37_wearable(),
        )
    }
}

impl HarvestSource for SolarSource {
    fn hourly_energy(&self, day_of_year: u32, day_index: u32, hour: u32) -> Energy {
        // Mid-hour irradiance approximates the hourly integral.
        let clear = self
            .model
            .clear_sky_irradiance(day_of_year, f64::from(hour) + 0.5);
        let seen = clear * self.weather.transmittance(day_index, hour);
        self.panel.hourly_energy(seen)
    }

    fn is_photovoltaic(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solar_source_matches_manual_composition() {
        let source = SolarSource::september_wearable(11);
        let model = SolarModel::golden_colorado();
        let weather = WeatherModel::new(11);
        let panel = SolarPanel::sp3_37_wearable();
        for hour in 0..24 {
            let direct = panel.hourly_energy(
                model.clear_sky_irradiance(244, f64::from(hour) + 0.5)
                    * weather.transmittance(0, hour),
            );
            assert_eq!(source.hourly_energy(244, 0, hour), direct);
        }
        assert!(source.is_photovoltaic());
    }

    #[test]
    fn latitude_validation() {
        assert!(SolarModel::new(91.0).is_err());
        assert!(SolarModel::new(f64::NAN).is_err());
        assert!(SolarModel::new(-45.0).is_ok());
    }

    #[test]
    fn night_is_dark() {
        let m = SolarModel::golden_colorado();
        for day in [1, 100, 244, 365] {
            assert_eq!(m.clear_sky_irradiance(day, 0.0), 0.0, "midnight day {day}");
            assert_eq!(m.clear_sky_irradiance(day, 23.0), 0.0);
        }
    }

    #[test]
    fn noon_peaks_and_is_plausible() {
        let m = SolarModel::golden_colorado();
        // September 1 (day 244): noon GHI at Golden ~ 700-900 W/m².
        let noon = m.clear_sky_irradiance(244, 12.0);
        assert!((600.0..1000.0).contains(&noon), "noon GHI = {noon}");
        // Noon beats mid-morning and evening.
        assert!(noon > m.clear_sky_irradiance(244, 9.0));
        assert!(noon > m.clear_sky_irradiance(244, 17.0));
    }

    #[test]
    fn summer_beats_winter() {
        let m = SolarModel::golden_colorado();
        let june = m.clear_sky_irradiance(172, 12.0);
        let december = m.clear_sky_irradiance(355, 12.0);
        assert!(june > december * 1.3, "june {june} vs december {december}");
    }

    #[test]
    fn daylight_hours_are_reasonable_in_september() {
        let m = SolarModel::golden_colorado();
        let daylight = (0..24)
            .filter(|&h| m.clear_sky_irradiance(244, h as f64 + 0.5) > 0.0)
            .count();
        assert!((11..=14).contains(&daylight), "{daylight} daylight hours");
    }

    #[test]
    fn weather_is_deterministic_and_varies() {
        let w = WeatherModel::new(42);
        let w2 = WeatherModel::new(42);
        for day in 0..30 {
            assert_eq!(w.day_condition(day), w2.day_condition(day));
            for hour in 0..24 {
                assert_eq!(w.transmittance(day, hour), w2.transmittance(day, hour));
            }
        }
        // Across a month, more than one condition shows up.
        let conditions: std::collections::HashSet<_> =
            (0..30).map(|d| w.day_condition(d)).collect();
        assert!(conditions.len() >= 2, "degenerate weather: {conditions:?}");
    }

    #[test]
    fn transmittance_is_in_range_and_orders_by_condition() {
        let w = WeatherModel::new(1);
        let mut sums = std::collections::HashMap::new();
        let mut counts = std::collections::HashMap::new();
        for day in 0..120 {
            let c = w.day_condition(day);
            for hour in 0..24 {
                let t = w.transmittance(day, hour);
                assert!((0.0..=1.0).contains(&t));
                *sums.entry(c).or_insert(0.0) += t;
                *counts.entry(c).or_insert(0usize) += 1;
            }
        }
        let mean = |c: SkyCondition| {
            sums.get(&c).copied().unwrap_or(0.0) / counts.get(&c).copied().unwrap_or(1) as f64
        };
        if counts.contains_key(&SkyCondition::Clear) && counts.contains_key(&SkyCondition::Overcast)
        {
            assert!(mean(SkyCondition::Clear) > mean(SkyCondition::Overcast));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = WeatherModel::new(1);
        let b = WeatherModel::new(2);
        let differs = (0..30).any(|d| a.day_condition(d) != b.day_condition(d));
        assert!(differs);
    }
}
