//! Ground-truth activity streams for classifier-in-the-loop simulation.
//!
//! A wearer does not change activity every 1.6 s window; activities dwell
//! for minutes and are separated by one-window transitions. This module
//! generates realistic label sequences used by the full-fidelity
//! simulation mode and the end-to-end examples.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reap_data::Activity;

/// Mean dwell time (in 1.6 s windows) per activity.
fn mean_dwell_windows(activity: Activity) -> f64 {
    match activity {
        Activity::Sit => 300.0,      // 8 min
        Activity::Stand => 90.0,     // 2.4 min
        Activity::Walk => 150.0,     // 4 min
        Activity::Jump => 30.0,      // 48 s
        Activity::Drive => 500.0,    // 13 min
        Activity::LieDown => 600.0,  // 16 min
        Activity::Transition => 1.0, // one window
    }
}

/// Which activities can follow a completed dwell (transitions inserted
/// automatically between them).
fn successors(activity: Activity) -> &'static [Activity] {
    match activity {
        Activity::Sit => &[Activity::Stand, Activity::Drive, Activity::LieDown],
        Activity::Stand => &[Activity::Walk, Activity::Sit, Activity::Jump],
        Activity::Walk => &[Activity::Stand, Activity::Jump],
        Activity::Jump => &[Activity::Stand, Activity::Walk],
        Activity::Drive => &[Activity::Sit, Activity::Stand],
        Activity::LieDown => &[Activity::Sit, Activity::Stand],
        Activity::Transition => unreachable!("handled inline"),
    }
}

/// A deterministic semi-Markov stream of window-level activity labels.
///
/// # Examples
///
/// ```
/// use reap_sim::ActivityStream;
///
/// let mut stream = ActivityStream::new(42);
/// // One hour of 1.6 s windows.
/// let labels: Vec<_> = (0..2250).map(|_| stream.next_window()).collect();
/// assert_eq!(labels.len(), 2250);
/// ```
#[derive(Debug, Clone)]
pub struct ActivityStream {
    rng: StdRng,
    current: Activity,
    remaining_dwell: u32,
    pending_after_transition: Option<Activity>,
}

impl ActivityStream {
    /// Creates a stream starting from sitting.
    #[must_use]
    pub fn new(seed: u64) -> ActivityStream {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xB5AD_4ECE_DA1C_E2A9));
        let dwell = sample_dwell(&mut rng, Activity::Sit);
        ActivityStream {
            rng,
            current: Activity::Sit,
            remaining_dwell: dwell,
            pending_after_transition: None,
        }
    }

    /// The label of the next 1.6 s window.
    // reap-lint: allow(api) -- end_to_end's classifier-in-the-loop check draws its window labels here
    pub fn next_window(&mut self) -> Activity {
        if let Some(next) = self.pending_after_transition.take() {
            // The single transition window has elapsed; enter the new
            // activity.
            self.current = next;
            self.remaining_dwell = sample_dwell(&mut self.rng, next);
        }
        if self.remaining_dwell == 0 {
            // Dwell over: emit one transition window, then switch.
            let choices = successors(self.current);
            let next = choices[self.rng.gen_range(0..choices.len())];
            self.pending_after_transition = Some(next);
            return Activity::Transition;
        }
        self.remaining_dwell -= 1;
        self.current
    }
}

/// Geometric-ish dwell sampling around the activity's mean.
fn sample_dwell(rng: &mut StdRng, activity: Activity) -> u32 {
    let mean = mean_dwell_windows(activity);
    // Uniform in [0.5, 1.5] * mean keeps dwells bounded and positive.
    let factor: f64 = rng.gen_range(0.5..1.5);
    (mean * factor).round().max(1.0) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ActivityStream {
        /// Convenience: the next `n` window labels.
        fn take_windows(&mut self, n: usize) -> Vec<Activity> {
            (0..n).map(|_| self.next_window()).collect()
        }
    }

    #[test]
    fn stream_is_deterministic() {
        let mut a = ActivityStream::new(9);
        let mut b = ActivityStream::new(9);
        assert_eq!(a.take_windows(5000), b.take_windows(5000));
    }

    #[test]
    fn all_activities_appear_over_a_day() {
        let mut s = ActivityStream::new(1);
        let labels = s.take_windows(54_000); // 24 h of windows
        let mut seen = [false; Activity::COUNT];
        for l in &labels {
            seen[l.index()] = true;
        }
        assert!(seen.iter().all(|&b| b), "missing activities: {seen:?}");
    }

    #[test]
    fn transitions_are_single_windows_between_different_activities() {
        let mut s = ActivityStream::new(2);
        let labels = s.take_windows(20_000);
        for (i, w) in labels.windows(3).enumerate() {
            if w[1] == Activity::Transition {
                assert_ne!(w[0], Activity::Transition, "double transition at {i}");
                assert_ne!(w[2], Activity::Transition, "double transition at {i}");
                assert_ne!(w[0], w[2], "transition to the same activity at {i}");
            }
        }
    }

    #[test]
    fn dwell_times_are_plausible() {
        let mut s = ActivityStream::new(3);
        let labels = s.take_windows(100_000);
        // Count mean run length of sit segments.
        let mut runs = Vec::new();
        let mut run = 0u32;
        for &l in &labels {
            if l == Activity::Sit {
                run += 1;
            } else if run > 0 {
                runs.push(run);
                run = 0;
            }
        }
        let mean_run = runs.iter().sum::<u32>() as f64 / runs.len().max(1) as f64;
        assert!(
            (150.0..450.0).contains(&mean_run),
            "mean sit dwell {mean_run} windows"
        );
    }

    #[test]
    fn successor_graph_is_closed_over_non_transition_activities() {
        for a in Activity::ALL {
            if a == Activity::Transition {
                continue;
            }
            for &next in successors(a) {
                assert_ne!(next, Activity::Transition);
                assert_ne!(next, a, "self-loop at {a}");
            }
        }
    }
}
