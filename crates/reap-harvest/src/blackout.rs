//! Harvest blackout injection: a seeded overlay that zeroes contiguous
//! windows of an inner source's output.
//!
//! Deployed harvesters lose whole stretches of input — a wearable left
//! in a drawer, a solar cell shadowed by a parked truck, a TEG off the
//! wrist. [`BlackoutOverlay`] models those outages as one contiguous
//! window starting on each day, its start hour drawn deterministically
//! from a seed, so fleet robustness experiments are exactly
//! reproducible: the same `(seed, fraction)` pair blacks out the same
//! hours every run. Windows live on the continuous trace timeline — a
//! late-night window spills past midnight into the next day instead of
//! wrapping back into hours that already passed, and windows that meet
//! (a long spill running into the next day's early start) union into
//! one longer outage rather than double-counting the shared hours.

use reap_units::Energy;

use crate::error::HarvestError;
use crate::perturb::splitmix64;
use crate::source::HarvestSource;

/// Wraps any [`HarvestSource`] and zeroes a seeded contiguous window of
/// `round(fraction * 24)` hours starting on every day, the start hour
/// drawn per-day from the seed. Windows sit on the continuous trace
/// timeline: one starting at 22:00 blacks out 22:00–midnight *and the
/// next day's early hours*, it does not wrap back into the same day's
/// morning. Where a spill meets the next day's own window the two
/// union — each hour is blacked out once, never double-zeroed — and a
/// window reaching past the last generated hour truncates at the trace
/// end.
///
/// The overlay composes with [`HarvestSource::generate`] unchanged, so
/// traces built through it stay valid (finite, non-negative) whenever
/// the inner source's are.
///
/// ```
/// use reap_harvest::{BlackoutOverlay, HarvestSource, SourceKind};
///
/// let inner = SourceKind::BodyHeat.instantiate(7);
/// let dark = BlackoutOverlay::new(inner, 42, 0.30).unwrap();
/// // 30% of 24 hours -> a 7-hour outage window starting each day. Day
/// // 0 has no predecessor to spill into it, so its blacked-out hours
/// // are exactly its own window clipped at midnight.
/// assert_eq!(dark.window_hours(), 7);
/// let day0 = (0..24)
///     .filter(|&h| dark.hourly_energy(244, 0, h).joules() == 0.0)
///     .count() as u32;
/// assert_eq!(day0, dark.window_hours().min(24 - dark.window_start(0)));
/// ```
pub struct BlackoutOverlay {
    inner: Box<dyn HarvestSource>,
    seed: u64,
    /// Blacked-out hours per day, `0..=24`.
    window_hours: u32,
}

impl BlackoutOverlay {
    /// Wraps `inner` so that `round(fraction * 24)` hours of every day
    /// harvest exactly zero.
    ///
    /// # Errors
    ///
    /// [`HarvestError::InvalidParameter`] when `fraction` is not a
    /// finite value in `[0, 1]`.
    pub fn new(
        inner: Box<dyn HarvestSource>,
        seed: u64,
        fraction: f64,
    ) -> Result<Self, HarvestError> {
        if !fraction.is_finite() || !(0.0..=1.0).contains(&fraction) {
            return Err(HarvestError::InvalidParameter(format!(
                "blackout fraction {fraction} outside [0, 1]"
            )));
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let window_hours = (fraction * 24.0).round() as u32;
        Ok(Self {
            inner,
            seed,
            window_hours,
        })
    }

    /// The number of hours blacked out on every day.
    pub fn window_hours(&self) -> u32 {
        self.window_hours
    }

    /// The start hour (0-23) of the window that *begins* on trace day
    /// `day_index`. The window itself may run past midnight into day
    /// `day_index + 1`.
    #[must_use]
    pub fn window_start(&self, day_index: u32) -> u32 {
        (splitmix64(
            self.seed ^ (u64::from(day_index).wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ) % 24) as u32
    }

    /// `true` when `hour` of trace day `day_index` falls inside a
    /// blackout window on the continuous trace timeline — either the
    /// window that begins on this day or the tail of the previous day's
    /// window spilling past midnight. Overlapping windows union: an hour
    /// covered by both is blacked out once, and no hour between two
    /// abutting windows is skipped.
    pub fn is_blacked_out(&self, day_index: u32, hour: u32) -> bool {
        if self.window_hours == 0 {
            return false;
        }
        if self.window_hours >= 24 {
            return true;
        }
        let abs = u64::from(day_index) * 24 + u64::from(hour % 24);
        // With window_hours < 24 a window reaches at most one midnight
        // past its start day, so only this day's window and the previous
        // day's spill can cover `abs`.
        let covers = |day: u32| {
            let start = u64::from(day) * 24 + u64::from(self.window_start(day));
            abs >= start && abs < start + u64::from(self.window_hours)
        };
        covers(day_index) || (day_index > 0 && covers(day_index - 1))
    }
}

impl HarvestSource for BlackoutOverlay {
    fn hourly_energy(&self, day_of_year: u32, day_index: u32, hour: u32) -> Energy {
        if self.is_blacked_out(day_index, hour % 24) {
            Energy::ZERO
        } else {
            self.inner.hourly_energy(day_of_year, day_index, hour)
        }
    }

    fn is_photovoltaic(&self) -> bool {
        self.inner.is_photovoltaic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceKind;

    fn body_heat(seed: u64, fraction: f64) -> BlackoutOverlay {
        BlackoutOverlay::new(SourceKind::BodyHeat.instantiate(seed), seed, fraction)
            .expect("valid overlay")
    }

    #[test]
    fn fraction_is_validated() {
        for bad in [-0.1, 1.1, f64::NAN, f64::INFINITY] {
            assert!(BlackoutOverlay::new(SourceKind::BodyHeat.instantiate(1), 1, bad).is_err());
        }
        for ok in [0.0, 0.5, 1.0] {
            assert!(BlackoutOverlay::new(SourceKind::BodyHeat.instantiate(1), 1, ok).is_ok());
        }
    }

    #[test]
    fn blacked_hours_are_exactly_the_union_of_per_day_windows() {
        // Reference model: mark [start_d, start_d + w) on an absolute
        // hour axis for every day, then compare hour by hour. This is
        // the continuous-timeline contract — no wrap-back, no
        // double-zeroed overlap hours, no skipped hours between
        // abutting windows.
        let dark = body_heat(3, 0.30);
        assert_eq!(dark.window_hours(), 7);
        let days = 60u32;
        let mut expected = vec![false; (days as usize + 1) * 24];
        for day in 0..days {
            let start = day as usize * 24 + dark.window_start(day) as usize;
            for slot in expected.iter_mut().skip(start).take(7) {
                *slot = true;
            }
        }
        for day in 0..days {
            for hour in 0..24 {
                assert_eq!(
                    dark.is_blacked_out(day, hour),
                    expected[day as usize * 24 + hour as usize],
                    "day {day} hour {hour}"
                );
            }
        }
    }

    #[test]
    fn late_windows_spill_into_the_next_day_instead_of_wrapping() {
        // Regression: a window abutting a day boundary used to wrap back
        // into the *same* day's early hours, splitting one physical
        // outage into two and blacking out hours that had already
        // passed. Hunt down a seeded late start and pin the spill.
        let dark = body_heat(3, 0.30);
        let day = (0..400)
            .find(|&d| dark.window_start(d) > 17 && dark.window_start(d + 1) > 7)
            .expect("some seeded day starts late with a late successor");
        let start = dark.window_start(day);
        let spill = start + 7 - 24;
        for h in start..24 {
            assert!(dark.is_blacked_out(day, h), "day {day} hour {h}");
        }
        for h in 0..spill {
            assert!(dark.is_blacked_out(day + 1, h), "spill hour {h}");
        }
        // The same day's early hours stay lit (its own window cannot
        // wrap, and the chosen predecessor day + 1 cannot be reached by
        // day - 1 here because day's start > 17 was found fresh).
        for h in spill..dark.window_start(day + 1).min(24) {
            assert!(
                !dark.is_blacked_out(day + 1, h),
                "day {} hour {h} double-zeroed past the spill",
                day + 1
            );
        }
    }

    #[test]
    fn abutting_windows_union_without_double_zeroing_or_gaps() {
        // Sweep many seeds and days: wherever day d's window spills into
        // day d+1 and meets day d+1's own window, the union must be one
        // contiguous run on the absolute timeline (no skipped hour at
        // the seam, no hour counted twice by the membership predicate).
        let mut seams = 0;
        for seed in 0..40u64 {
            let dark = body_heat(seed, 0.30);
            for day in 0..60u32 {
                let start = dark.window_start(day);
                if start + 7 <= 24 {
                    continue; // no spill from this day
                }
                let spill_end = start + 7 - 24;
                let next = dark.window_start(day + 1);
                if next > spill_end {
                    continue; // spill and next window don't touch
                }
                seams += 1;
                // One merged run: from day d's start through the end of
                // day d+1's window, every hour is blacked out exactly
                // per the union, with no gap at the seam.
                let abs_start = u64::from(day) * 24 + u64::from(start);
                let abs_end = u64::from(day + 1) * 24 + u64::from(next + 7);
                for abs in abs_start..abs_end {
                    let (d, h) = ((abs / 24) as u32, (abs % 24) as u32);
                    assert!(
                        dark.is_blacked_out(d, h),
                        "seed {seed}: gap at day {d} hour {h} inside merged outage"
                    );
                }
            }
        }
        assert!(seams > 0, "the sweep never produced an abutting pair");
    }

    #[test]
    fn window_at_the_trace_end_truncates_instead_of_wrapping() {
        // A last-day window that runs past the final generated hour must
        // simply truncate: the generated trace loses only the in-range
        // hours and no early hour of the last day gets zeroed in
        // compensation.
        let seed = (0..200)
            .find(|&s| {
                let dark = body_heat(s, 0.30);
                dark.window_start(1) > 17 && dark.window_start(0) + 7 <= 18
            })
            .expect("some seed ends day 1 with a spilling window");
        let dark = body_heat(seed, 0.30);
        let inner = SourceKind::BodyHeat.instantiate(seed);
        let trace = dark.generate(244, 2).unwrap();
        let start1 = dark.window_start(1);
        // BodyHeat never harvests zero on its own, so zeros mark the
        // blackout exactly.
        let zeros_day1: Vec<u32> = (0..24)
            .filter(|&h| trace.energy(1, h).joules() == 0.0)
            .collect();
        assert_eq!(
            zeros_day1,
            (start1..24).collect::<Vec<_>>(),
            "seed {seed}: last-day window must cover only its in-range tail"
        );
        // Non-blacked hours of the truncated day match the inner source.
        for h in 0..start1 {
            if !dark.is_blacked_out(1, h) {
                assert_eq!(
                    trace.energy(1, h).joules(),
                    inner.hourly_energy(245, 1, h).joules()
                );
            }
        }
    }

    #[test]
    fn window_start_varies_by_day_and_is_seed_deterministic() {
        let a = body_heat(9, 0.25);
        let b = body_heat(9, 0.25);
        let starts: Vec<u32> = (0..30).map(|d| a.window_start(d)).collect();
        assert_eq!(
            starts,
            (0..30).map(|d| b.window_start(d)).collect::<Vec<_>>()
        );
        // Not all days share one start hour (the seed spreads windows).
        assert!(starts.iter().any(|&s| s != starts[0]));
    }

    #[test]
    fn blacked_hours_are_zero_and_the_rest_match_the_inner_source() {
        let inner = SourceKind::BodyHeat.instantiate(11);
        let dark = body_heat(11, 0.30);
        for day in 0..7 {
            for hour in 0..24 {
                let got = dark.hourly_energy(244 + day, day, hour);
                if dark.is_blacked_out(day, hour) {
                    assert_eq!(got.joules(), 0.0);
                } else {
                    assert_eq!(
                        got.joules(),
                        inner.hourly_energy(244 + day, day, hour).joules()
                    );
                }
            }
        }
    }

    #[test]
    fn edge_fractions_black_out_nothing_or_everything() {
        let none = body_heat(5, 0.0);
        let all = body_heat(5, 1.0);
        for hour in 0..24 {
            assert!(!none.is_blacked_out(0, hour));
            assert!(all.is_blacked_out(0, hour));
            assert_eq!(all.hourly_energy(244, 0, hour).joules(), 0.0);
        }
    }

    #[test]
    fn generated_traces_stay_valid_and_lose_energy() {
        let inner = SourceKind::OutdoorSolar
            .instantiate(2)
            .generate(244, 10)
            .unwrap();
        let dark = body_heat_like_solar();
        let trace = dark.generate(244, 10).expect("overlay trace generates");
        assert_eq!(trace.days(), 10);
        assert!(trace
            .iter()
            .all(|e| e.joules().is_finite() && e.joules() >= 0.0));
        assert!(trace.total() < inner.total());
    }

    fn body_heat_like_solar() -> BlackoutOverlay {
        BlackoutOverlay::new(SourceKind::OutdoorSolar.instantiate(2), 2, 0.30)
            .expect("valid overlay")
    }
}
