//! Copy-on-perturb harvest traces.
//!
//! A fleet puts hundreds of users on the *same* harvest source; giving
//! each a fully materialized month (`days * 24` `Energy` values) costs
//! `O(users * hours)` memory and — worse — `O(users * hours)` calls into
//! the physical source models. A [`TracePerturbation`] instead derives a
//! user's month from one shared base trace plus two numbers: a
//! multiplicative gain (panel size / skin coupling / gait vigour) and a
//! small diurnal phase shift (schedule offset within the day). Per-user
//! storage drops to 16 bytes, and any user's exact trace can still be
//! materialized on demand with [`TracePerturbation::apply`] for scalar
//! replay.

use reap_units::Energy;

use crate::HarvestTrace;

/// Gain bounds: every user harvests within ±15% of the base trace.
const GAIN_LO: f64 = 0.85;
const GAIN_SPAN: f64 = 0.30;
/// Phase shifts rotate the diurnal profile by 0..=3 hours.
const PHASE_MOD: u64 = 4;

/// A user's deviation from a shared base harvest trace: a multiplicative
/// gain and a cyclic hour-of-day phase shift.
///
/// Both derive deterministically from a seed ([`TracePerturbation::from_seed`]),
/// so a perturbation is a pure function of `(master seed, user index)` —
/// the property fleet replay relies on. The perturbed hour `(day, hour)`
/// reads the base hour `(day, (hour + phase) % 24)` scaled by `gain`:
///
/// ```
/// use reap_harvest::{HarvestTrace, TracePerturbation};
///
/// let base = HarvestTrace::september_like(7);
/// let p = TracePerturbation::from_seed(42);
/// let mine = p.apply(&base).unwrap();
/// assert_eq!(mine.days(), base.days());
/// let shifted = (0 + p.phase_hours()) % 24;
/// assert_eq!(
///     mine.energy(3, 0).joules(),
///     base.energy(3, shifted).joules() * p.gain()
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePerturbation {
    gain: f64,
    phase_hours: u32,
}

impl TracePerturbation {
    /// Derives a perturbation from `seed` via two splitmix64 draws:
    /// gain uniform in `[0.85, 1.15)`, phase uniform in `0..=3` hours.
    #[must_use]
    pub fn from_seed(seed: u64) -> TracePerturbation {
        let a = splitmix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let b = splitmix64(seed.wrapping_add(0x3C6E_F372_FE94_F82A));
        // 53 high bits -> uniform in [0, 1).
        // reap-lint: allow(unsafe:float-cast) -- 53-bit mantissa math: both operands fit in 53 bits, conversion exact
        let unit = (a >> 11) as f64 / (1u64 << 53) as f64;
        TracePerturbation {
            gain: GAIN_LO + GAIN_SPAN * unit,
            phase_hours: (b % PHASE_MOD) as u32,
        }
    }

    /// The multiplicative gain, in `[0.85, 1.15)` for seeded
    /// perturbations.
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// The cyclic hour-of-day phase shift, in `0..24`.
    #[must_use]
    pub fn phase_hours(&self) -> u32 {
        self.phase_hours
    }

    /// The base-trace hour-of-day this perturbation reads for local hour
    /// `hour_of_day`. SoA engines use this to index shared base traces
    /// directly; [`TracePerturbation::apply`] uses it to materialize.
    #[must_use]
    pub fn source_hour(&self, hour_of_day: u32) -> u32 {
        (hour_of_day + self.phase_hours) % 24
    }

    /// Materializes the perturbed trace — bit-identical, hour for hour,
    /// to what an SoA engine computes from the base trace and this
    /// perturbation (`base[day][source_hour] * gain`, one multiplication,
    /// no intermediate rounding).
    ///
    /// # Errors
    ///
    /// Propagates [`HarvestTrace::new`] validation — possible only for
    /// hand-built perturbations (e.g. a negative gain); seeded gains keep
    /// every perturbed hour finite and non-negative.
    pub fn apply(&self, base: &HarvestTrace) -> Result<HarvestTrace, crate::HarvestError> {
        let days = base.days();
        let mut hourly = Vec::with_capacity(base.len_hours());
        for day in 0..days {
            for hour in 0..24 {
                let j = base.energy(day, self.source_hour(hour)).joules() * self.gain;
                hourly.push(Energy::from_joules(j));
            }
        }
        HarvestTrace::new(base.start_day_of_year(), hourly)
    }
}

/// The splitmix64 finalizer: the one seeded mixer behind trace
/// perturbations, blackout windows, oracle forecast noise, and the
/// serving fault plan and retry jitter. The full splitmix64 generator
/// step is this applied to `z.wrapping_add(0x9E37_79B9_7F4A_7C15)`.
#[inline]
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_perturbations_are_deterministic_and_bounded() {
        for seed in 0..2000u64 {
            let p = TracePerturbation::from_seed(seed);
            assert_eq!(p, TracePerturbation::from_seed(seed), "seed {seed}");
            assert!(
                (GAIN_LO..GAIN_LO + GAIN_SPAN).contains(&p.gain()),
                "seed {seed}"
            );
            assert!(p.phase_hours() < PHASE_MOD as u32, "seed {seed}");
        }
        // Neighbouring seeds decorrelate.
        let a = TracePerturbation::from_seed(1);
        let b = TracePerturbation::from_seed(2);
        assert_ne!(a.gain(), b.gain());
    }

    #[test]
    fn apply_scales_and_rotates() {
        let base = HarvestTrace::september_like(3);
        let p = TracePerturbation::from_seed(99);
        let mine = p.apply(&base).unwrap();
        assert_eq!(mine.len_hours(), base.len_hours());
        assert_eq!(mine.start_day_of_year(), base.start_day_of_year());
        for day in 0..base.days() {
            for hour in 0..24 {
                let want = base.energy(day, p.source_hour(hour)).joules() * p.gain();
                assert_eq!(
                    mine.energy(day, hour).joules(),
                    want,
                    "day {day} hour {hour}"
                );
            }
        }
    }

    #[test]
    fn identity_apply_is_a_copy() {
        let base = HarvestTrace::september_like(11);
        let identity = TracePerturbation {
            gain: 1.0,
            phase_hours: 0,
        };
        let same = identity.apply(&base).unwrap();
        assert_eq!(same, base);
    }

    #[test]
    fn total_energy_scales_with_gain_under_zero_phase() {
        let base = HarvestTrace::september_like(5);
        let p = TracePerturbation::from_seed(7);
        let mine = p.apply(&base).unwrap();
        // Phase only rotates within days, so monthly totals scale by the
        // gain regardless of the shift.
        let want = base.total().joules() * p.gain();
        assert!((mine.total().joules() - want).abs() < 1e-6);
    }
}
