//! Harvest forecasting for lookahead (receding-horizon) policies.
//!
//! The budget allocators in [`crate::allocator`] are *myopic*: they turn
//! harvesting history into a single next-hour budget. A receding-horizon
//! controller instead needs an **H-hour forecast window** each period.
//! This module defines the [`HarvestForecaster`] interface plus two
//! implementations spanning the realism spectrum:
//!
//! * [`EwmaForecaster`] — a causal, deployable forecaster that maintains
//!   the same Kansal-style per-hour-of-day EWMA estimates as
//!   [`EwmaAllocator`](crate::EwmaAllocator) (both are built on the shared
//!   [`DiurnalEwma`] estimator) and projects them over the window;
//! * [`OracleForecaster`] — a seeded noisy oracle that perturbs the true
//!   future trace with a configurable relative error. At zero error it is
//!   the perfect-information upper bound; at 10–40% it measures how
//!   gracefully a lookahead policy degrades with forecast quality.

use reap_units::Energy;

use crate::perturb::splitmix64;
use crate::step;

/// A source of per-hour harvest forecasts over a lookahead window.
///
/// The simulation loop drives implementations with the same cadence as
/// the allocators: after each hour executes, [`observe`] receives the
/// realized harvest; before each hour plans, [`forecast`] produces the
/// window starting at the hour about to run.
///
/// [`observe`]: HarvestForecaster::observe
/// [`forecast`]: HarvestForecaster::forecast
pub trait HarvestForecaster {
    /// Records the energy actually harvested during absolute trace hour
    /// `hour_index` (0-based from the start of the trace).
    fn observe(&mut self, hour_index: usize, harvested: Energy);

    /// Forecasts hours `start_hour .. start_hour + horizon` (absolute
    /// trace indices). Every returned energy is finite and non-negative,
    /// and the result always has exactly `horizon` entries.
    fn forecast(&self, start_hour: usize, horizon: usize) -> Vec<Energy>;

    /// Short forecaster name for reports.
    fn name(&self) -> &'static str;
}

/// Per-hour-of-day EWMA harvest estimator with lazy cold start.
///
/// Keeps one exponentially weighted moving average per hour-of-day slot
/// (capturing the diurnal profile, as in Kansal et al.), smoothed with
/// [`EWMA_ALPHA`](step::EWMA_ALPHA). Slots are seeded
/// **lazily from their first real observation** — never from a
/// placeholder — so a device booted at midnight does not believe the
/// whole first day is dark. Slots that have not been observed yet fall
/// back to the mean of the observed ones.
///
/// Both [`EwmaAllocator`](crate::EwmaAllocator) (budgets) and
/// [`EwmaForecaster`] (forecast windows) are thin wrappers around this
/// estimator, so the allocation and forecasting layers share one view of
/// the diurnal profile.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DiurnalEwma {
    estimates: [f64; 24],
    seen: [bool; 24],
}

impl DiurnalEwma {
    /// Creates an estimator with no slot seeded.
    #[must_use]
    pub fn new() -> DiurnalEwma {
        DiurnalEwma::default()
    }

    /// Folds one observed harvest (J) into the slot for `hour_of_day`.
    /// The first observation of a slot seeds it exactly; later ones blend
    /// with weight [`EWMA_ALPHA`](step::EWMA_ALPHA).
    pub fn observe(&mut self, hour_of_day: u32, joules: f64) {
        let slot = (hour_of_day % 24) as usize;
        if self.seen[slot] {
            self.estimates[slot] = step::blend(self.estimates[slot], joules, step::EWMA_ALPHA);
        } else {
            self.estimates[slot] = joules;
            self.seen[slot] = true;
        }
    }

    /// Expected harvest (J) for `hour_of_day`: the slot's estimate, or —
    /// while the slot is still unobserved — the mean of the observed
    /// slots (zero before any observation at all).
    #[must_use]
    pub fn expected(&self, hour_of_day: u32) -> f64 {
        let slot = (hour_of_day % 24) as usize;
        if self.seen[slot] {
            return self.estimates[slot];
        }
        let (sum, n) = self
            .seen
            .iter()
            .zip(&self.estimates)
            .filter(|(&seen, _)| seen)
            .fold((0.0, 0u32), |(s, n), (_, &e)| (s + e, n + 1));
        if n == 0 {
            0.0
        } else {
            sum / f64::from(n)
        }
    }

    /// Extracts the full estimator state as `(slot estimates, seen
    /// bitmask)` — bit `s` of the mask set when slot `s` has been seeded.
    /// This is everything a checkpoint needs to rebuild the estimator
    /// bit-identically via [`DiurnalEwma::from_parts`].
    #[must_use]
    pub fn to_parts(&self) -> ([f64; 24], u32) {
        let mut mask = 0u32;
        for (s, &seen) in self.seen.iter().enumerate() {
            mask |= u32::from(seen) << s;
        }
        (self.estimates, mask)
    }

    /// Rebuilds an estimator from [`DiurnalEwma::to_parts`] output (bits
    /// of `seen_mask` above slot 23 are ignored). The round trip is exact:
    /// the restored estimator produces bit-identical expectations.
    #[must_use]
    pub fn from_parts(estimates: [f64; 24], seen_mask: u32) -> DiurnalEwma {
        let mut seen = [false; 24];
        for (s, slot) in seen.iter_mut().enumerate() {
            *slot = (seen_mask >> s) & 1 == 1;
        }
        DiurnalEwma { estimates, seen }
    }
}

/// Causal per-slot EWMA forecaster (see [`DiurnalEwma`]).
///
/// # Examples
///
/// ```
/// use reap_harvest::{EwmaForecaster, HarvestForecaster};
/// use reap_units::Energy;
///
/// let mut f = EwmaForecaster::new();
/// // A sunny morning: hours 0..3 harvested 0, 0, 2, 4 J.
/// for (h, j) in [0.0, 0.0, 2.0, 4.0].iter().enumerate() {
///     f.observe(h, Energy::from_joules(*j));
/// }
/// let window = f.forecast(4, 3);
/// assert_eq!(window.len(), 3);
/// // Unseen afternoon slots fall back to the observed mean (1.5 J).
/// assert!((window[0].joules() - 1.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EwmaForecaster {
    ewma: DiurnalEwma,
}

impl EwmaForecaster {
    /// Creates a forecaster with the conventional smoothing factor
    /// [`EWMA_ALPHA`](step::EWMA_ALPHA).
    #[must_use]
    pub fn new() -> EwmaForecaster {
        EwmaForecaster {
            ewma: DiurnalEwma::new(),
        }
    }
}

impl Default for EwmaForecaster {
    fn default() -> Self {
        EwmaForecaster::new()
    }
}

impl HarvestForecaster for EwmaForecaster {
    fn observe(&mut self, hour_index: usize, harvested: Energy) {
        self.ewma
            .observe((hour_index % 24) as u32, harvested.joules().max(0.0));
    }

    fn forecast(&self, start_hour: usize, horizon: usize) -> Vec<Energy> {
        (start_hour..start_hour + horizon)
            .map(|h| Energy::from_joules(self.ewma.expected((h % 24) as u32).max(0.0)))
            .collect()
    }

    fn name(&self) -> &'static str {
        "ewma-forecast"
    }
}

/// A seeded noisy oracle over a known trace.
///
/// Forecasts are the *true* future energies perturbed by a deterministic
/// multiplicative error: hour `t` is scaled by `1 + rel_error * u(t)`
/// with `u(t)` uniform in `[-1, 1)`, derived purely from `(seed, t)` so
/// the same hour forecast from different origins is perturbed the same
/// way, and re-runs are reproducible. Hours beyond the trace forecast
/// zero.
///
/// `rel_error = 0` is the perfect oracle — the upper bound any real
/// forecaster can approach.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleForecaster {
    truth: Vec<Energy>,
    rel_error: f64,
    seed: u64,
}

impl OracleForecaster {
    /// Creates an oracle over `truth` with relative error `rel_error`
    /// (clamped to `[0, 1]`; 0.2 means hourly forecasts are off by up to
    /// ±20%).
    #[must_use]
    pub fn new(truth: Vec<Energy>, rel_error: f64, seed: u64) -> OracleForecaster {
        OracleForecaster {
            truth,
            rel_error: if rel_error.is_finite() {
                rel_error.clamp(0.0, 1.0)
            } else {
                0.0
            },
            seed,
        }
    }

    /// Deterministic noise factor for hour `t`: `1 + rel_error * u`,
    /// `u in [-1, 1)` via the splitmix64 finalizer of `(seed, t)`.
    fn noise(&self, t: usize) -> f64 {
        if self.rel_error == 0.0 {
            return 1.0;
        }
        let z = splitmix64(
            self.seed
                .wrapping_add((t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        // reap-lint: allow(unsafe:float-cast) -- 53-bit mantissa math: both operands fit in 53 bits, conversion exact
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        (1.0 + self.rel_error * (2.0 * unit - 1.0)).max(0.0)
    }
}

impl HarvestForecaster for OracleForecaster {
    fn observe(&mut self, _hour_index: usize, _harvested: Energy) {}

    fn forecast(&self, start_hour: usize, horizon: usize) -> Vec<Energy> {
        (start_hour..start_hour + horizon)
            .map(|t| match self.truth.get(t) {
                Some(&e) => (e * self.noise(t)).max(Energy::ZERO),
                None => Energy::ZERO,
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "oracle-forecast"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn joules(j: f64) -> Energy {
        Energy::from_joules(j)
    }

    #[test]
    fn diurnal_ewma_seeds_lazily_and_blends() {
        let mut e = DiurnalEwma::new();
        assert_eq!(e.expected(3), 0.0, "empty estimator forecasts zero");
        e.observe(3, 4.0);
        assert!((e.expected(3) - 4.0).abs() < 1e-12, "first sample seeds");
        e.observe(3, 0.0);
        assert!((e.expected(3) - 2.0).abs() < 1e-12, "second sample blends");
        // Unseen slots fall back to the mean of seen ones.
        assert!((e.expected(7) - 2.0).abs() < 1e-12);
        assert!(e.seen[3] && !e.seen[7]);
    }

    #[test]
    fn ewma_forecaster_projects_the_diurnal_profile() {
        let mut f = EwmaForecaster::new();
        // Two days: 6 J in hours 10..=13, dark otherwise.
        for t in 0..48usize {
            let h = t % 24;
            let e = if (10..=13).contains(&h) { 6.0 } else { 0.0 };
            f.observe(t, joules(e));
        }
        let window = f.forecast(48, 24);
        assert_eq!(window.len(), 24);
        for (offset, e) in window.iter().enumerate() {
            let h = (48 + offset) % 24;
            if (10..=13).contains(&h) {
                assert!(e.joules() > 5.0, "noon slot {h} forecast {e}");
            } else {
                assert!(e.joules() < 1e-9, "night slot {h} forecast {e}");
            }
        }
        assert_eq!(f.name(), "ewma-forecast");
    }

    #[test]
    fn ewma_forecaster_cold_start_is_not_starved() {
        let mut f = EwmaForecaster::new();
        f.observe(0, joules(3.0));
        // Only hour 0 observed: the whole window forecasts its value via
        // the seen-mean fallback instead of zero.
        for e in f.forecast(1, 6) {
            assert!((e.joules() - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn perfect_oracle_returns_the_truth_and_zero_beyond() {
        let truth: Vec<Energy> = (0..10).map(|i| joules(f64::from(i))).collect();
        let o = OracleForecaster::new(truth.clone(), 0.0, 9);
        let w = o.forecast(4, 10);
        assert_eq!(&w[..6], &truth[4..10]);
        assert!(w[6..].iter().all(|&e| e == Energy::ZERO));
        assert_eq!(o.name(), "oracle-forecast");
        assert_eq!(o.rel_error, 0.0);
    }

    #[test]
    fn noisy_oracle_is_deterministic_bounded_and_origin_independent() {
        let truth: Vec<Energy> = (0..48).map(|i| joules(1.0 + (i % 24) as f64)).collect();
        let o = OracleForecaster::new(truth.clone(), 0.2, 7);
        let a = o.forecast(0, 48);
        let b = o.forecast(0, 48);
        assert_eq!(a, b, "same seed, same forecast");
        // The same hour forecast from a different origin is identical.
        let shifted = o.forecast(10, 8);
        assert_eq!(&a[10..18], &shifted[..]);
        let mut distinct = 0;
        for (t, (&f, &e)) in a.iter().zip(&truth).enumerate() {
            let ratio = f.joules() / e.joules();
            assert!(
                (0.8 - 1e-9..=1.2 + 1e-9).contains(&ratio),
                "hour {t}: ratio {ratio} outside +/-20%"
            );
            if (ratio - 1.0).abs() > 1e-6 {
                distinct += 1;
            }
        }
        assert!(distinct > 40, "noise should actually perturb most hours");
        // A different seed gives a different perturbation.
        let other = OracleForecaster::new(truth, 0.2, 8);
        assert_ne!(a, other.forecast(0, 48));
    }

    #[test]
    fn oracle_clamps_degenerate_error_levels() {
        let o = OracleForecaster::new(vec![joules(2.0)], f64::NAN, 1);
        assert_eq!(o.rel_error, 0.0);
        let o = OracleForecaster::new(vec![joules(2.0)], 7.0, 1);
        assert_eq!(o.rel_error, 1.0);
        // Even at 100% error the forecast never goes negative.
        assert!(o.forecast(0, 1)[0].joules() >= 0.0);
    }

    #[test]
    fn diurnal_parts_round_trip_bit_identically() {
        let mut e = DiurnalEwma::new();
        for (h, j) in [(0u32, 0.25), (3, 1.5), (3, 2.0), (17, 0.0)] {
            e.observe(h, j);
        }
        let (est, mask) = e.to_parts();
        let restored = DiurnalEwma::from_parts(est, mask);
        for h in 0..24 {
            assert_eq!(restored.expected(h), e.expected(h), "slot {h}");
        }
        assert_eq!(restored.seen, e.seen);
        // High seen-mask bits are ignored.
        let noisy = DiurnalEwma::from_parts(est, mask | 0xFF00_0000);
        assert_eq!(noisy.expected(5), e.expected(5));
    }

    #[test]
    fn forecasters_are_object_safe() {
        let truth = vec![joules(1.0); 24];
        let mut list: Vec<Box<dyn HarvestForecaster>> = vec![
            Box::new(EwmaForecaster::new()),
            Box::new(OracleForecaster::new(truth, 0.1, 0)),
        ];
        for f in &mut list {
            f.observe(0, joules(1.0));
            let w = f.forecast(1, 4);
            assert_eq!(w.len(), 4);
            assert!(w.iter().all(|e| e.is_finite() && !e.is_negative()));
            assert!(!f.name().is_empty());
        }
    }
}
