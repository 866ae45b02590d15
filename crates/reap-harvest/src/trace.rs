//! Hourly harvest traces.

use reap_units::Energy;

use crate::{HarvestError, HarvestSource, SolarModel, SolarPanel, SolarSource, WeatherModel};

/// A contiguous sequence of hourly harvested energies, starting at
/// midnight of a given day of year.
///
/// This is the synthetic stand-in for the paper's NREL SRRL measurement
/// traces: every hour `h` of every day `d` has the energy the wearable's
/// transducer harvested during that hour. Traces are source-agnostic —
/// any [`HarvestSource`] (outdoor solar, indoor photovoltaic,
/// thermoelectric, kinetic) produces them via
/// [`HarvestSource::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct HarvestTrace {
    start_day_of_year: u32,
    hourly: Vec<Energy>,
}

impl HarvestTrace {
    /// Wraps raw hourly energies (must be a whole number of days).
    ///
    /// # Errors
    ///
    /// [`HarvestError::InvalidParameter`] when the vector is empty, not a
    /// multiple of 24 long, or contains negative/non-finite energies.
    pub fn new(start_day_of_year: u32, hourly: Vec<Energy>) -> Result<HarvestTrace, HarvestError> {
        if hourly.is_empty() || !hourly.len().is_multiple_of(24) {
            return Err(HarvestError::InvalidParameter(format!(
                "{} hourly values is not a positive multiple of 24",
                hourly.len()
            )));
        }
        if hourly.iter().any(|e| !e.is_finite() || e.is_negative()) {
            return Err(HarvestError::InvalidParameter(
                "harvest energies must be finite and non-negative".into(),
            ));
        }
        Ok(HarvestTrace {
            start_day_of_year,
            hourly,
        })
    }

    /// Generates a trace from the solar/weather/panel models.
    ///
    /// Convenience wrapper over
    /// [`SolarSource`] + [`HarvestSource::generate`]; other source models
    /// are generated through the trait directly.
    ///
    /// # Errors
    ///
    /// [`HarvestError::InvalidParameter`] when `days == 0`.
    pub fn generate(
        solar: &SolarModel,
        weather: &WeatherModel,
        panel: &SolarPanel,
        start_day_of_year: u32,
        days: u32,
    ) -> Result<HarvestTrace, HarvestError> {
        SolarSource::new(solar.clone(), weather.clone(), panel.clone())
            .generate(start_day_of_year, days)
    }

    /// A September-like month (30 days from day-of-year 244) at Golden,
    /// Colorado with the calibrated wearable panel — the setting of the
    /// paper's Fig. 7 case study.
    #[must_use]
    pub fn september_like(seed: u64) -> HarvestTrace {
        HarvestTrace::generate(
            &SolarModel::golden_colorado(),
            &WeatherModel::new(seed),
            &SolarPanel::sp3_37_wearable(),
            244,
            30,
        )
        .expect("fixed parameters are valid")
    }

    /// Day-of-year of hour 0.
    #[must_use]
    pub fn start_day_of_year(&self) -> u32 {
        self.start_day_of_year
    }

    /// Number of whole days.
    #[must_use]
    pub fn days(&self) -> u32 {
        (self.hourly.len() / 24) as u32
    }

    /// Number of hours.
    #[must_use]
    pub fn len_hours(&self) -> usize {
        self.hourly.len()
    }

    /// Energy harvested in hour `hour` (0-23) of day `day` (0-based).
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of range.
    #[must_use]
    pub fn energy(&self, day: u32, hour: u32) -> Energy {
        assert!(hour < 24, "hour {hour} out of range");
        self.hourly[(day * 24 + hour) as usize]
    }

    /// Iterator over all hourly energies in time order.
    pub fn iter(&self) -> impl Iterator<Item = Energy> + '_ {
        self.hourly.iter().copied()
    }

    /// Total energy of the whole trace.
    #[must_use]
    pub fn total(&self) -> Energy {
        self.hourly.iter().sum()
    }

    /// Largest single-hour harvest.
    #[must_use]
    pub fn peak(&self) -> Energy {
        self.hourly.iter().copied().fold(Energy::ZERO, Energy::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl HarvestTrace {
        /// Total energy of one day.
        ///
        /// # Panics
        ///
        /// Panics when `day` is out of range.
        fn daily_total(&self, day: u32) -> Energy {
            let start = (day * 24) as usize;
            self.hourly[start..start + 24].iter().sum()
        }

        /// Mean harvest per hour-of-day slot across all days: the diurnal
        /// profile an EWMA allocator converges toward.
        fn diurnal_profile(&self) -> [Energy; 24] {
            let mut sums = [0.0f64; 24];
            for (i, e) in self.hourly.iter().enumerate() {
                sums[i % 24] += e.joules();
            }
            let days = f64::from(self.days());
            sums.map(|s| Energy::from_joules(s / days))
        }

        /// Number of "useful" hours: those harvesting more than the paper's
        /// off-state floor (0.18 J), i.e. hours in which the device can do
        /// more than idle.
        fn useful_hours(&self) -> usize {
            self.hourly.iter().filter(|e| e.joules() > 0.18).count()
        }
    }

    #[test]
    fn construction_validation() {
        assert!(HarvestTrace::new(1, vec![]).is_err());
        assert!(HarvestTrace::new(1, vec![Energy::ZERO; 23]).is_err());
        assert!(HarvestTrace::new(1, vec![Energy::from_joules(-1.0); 24]).is_err());
        assert!(HarvestTrace::new(1, vec![Energy::ZERO; 48]).is_ok());
    }

    #[test]
    fn september_trace_shape() {
        let t = HarvestTrace::september_like(42);
        assert_eq!(t.days(), 30);
        assert_eq!(t.len_hours(), 720);
        assert_eq!(t.start_day_of_year(), 244);
        // Nights are dark.
        for day in 0..30 {
            assert_eq!(t.energy(day, 0), Energy::ZERO, "day {day} midnight");
            assert_eq!(t.energy(day, 23), Energy::ZERO);
        }
        // Peak hour lands in the paper's budget regime.
        let peak = t.peak().joules();
        assert!((5.0..12.0).contains(&peak), "peak = {peak} J");
        // Some cloudy-day dispersion exists.
        let day_totals: Vec<f64> = (0..30).map(|d| t.daily_total(d).joules()).collect();
        let max = day_totals.iter().cloned().fold(f64::MIN, f64::max);
        let min = day_totals.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > 1.5 * min, "no dispersion: {day_totals:?}");
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        assert_eq!(
            HarvestTrace::september_like(7),
            HarvestTrace::september_like(7)
        );
        assert_ne!(
            HarvestTrace::september_like(7),
            HarvestTrace::september_like(8)
        );
    }

    #[test]
    fn totals_are_consistent() {
        let t = HarvestTrace::september_like(3);
        let daily_sum: f64 = (0..30).map(|d| t.daily_total(d).joules()).sum();
        assert!((daily_sum - t.total().joules()).abs() < 1e-9);
        let iter_sum: f64 = t.iter().map(|e| e.joules()).sum();
        assert!((iter_sum - t.total().joules()).abs() < 1e-9);
    }

    #[test]
    fn diurnal_profile_peaks_at_midday_and_is_dark_at_night() {
        let t = HarvestTrace::september_like(5);
        let profile = t.diurnal_profile();
        assert_eq!(profile[0], Energy::ZERO);
        assert_eq!(profile[23], Energy::ZERO);
        let noonish: f64 = profile[11].joules().max(profile[12].joules());
        let morning = profile[8].joules();
        assert!(noonish > morning, "noon {noonish} <= morning {morning}");
        // The profile means reconstruct the total.
        let total_from_profile: f64 =
            profile.iter().map(|e| e.joules()).sum::<f64>() * t.days() as f64;
        assert!((total_from_profile - t.total().joules()).abs() < 1e-6);
    }

    #[test]
    fn useful_hours_are_the_daylight_hours() {
        let t = HarvestTrace::september_like(6);
        let useful = t.useful_hours();
        // September at Golden: ~12.5 daylight hours, most above the floor.
        let per_day = useful as f64 / t.days() as f64;
        assert!(
            (8.0..14.0).contains(&per_day),
            "useful hours per day = {per_day}"
        );
    }

    #[test]
    fn generate_rejects_zero_days() {
        let err = HarvestTrace::generate(
            &SolarModel::golden_colorado(),
            &WeatherModel::new(1),
            &SolarPanel::sp3_37_wearable(),
            1,
            0,
        );
        assert!(err.is_err());
    }
}
