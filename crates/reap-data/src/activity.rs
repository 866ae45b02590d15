//! The activity label set.

use std::fmt;

/// The activities recognized by the HAR application.
///
/// The paper's user studies cover six activities — *sit, stand, walk, jump,
/// drive, lie down* — plus *transitions* among them, giving a 7-class
/// problem (which matches the 7-output neural-network structures of the
/// paper's Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Activity {
    /// Sitting on a chair (knee bent, torso upright).
    Sit,
    /// Standing (leg straight, torso upright).
    Stand,
    /// Walking at the user's natural cadence.
    Walk,
    /// Jumping in place.
    Jump,
    /// Sitting in a moving vehicle (posture like sitting plus road
    /// vibration).
    Drive,
    /// Lying down (torso horizontal).
    LieDown,
    /// A transition between two postures within the window.
    Transition,
}

impl Activity {
    /// All activities in index order.
    pub const ALL: [Activity; 7] = [
        Activity::Sit,
        Activity::Stand,
        Activity::Walk,
        Activity::Jump,
        Activity::Drive,
        Activity::LieDown,
        Activity::Transition,
    ];

    /// Number of classes.
    pub const COUNT: usize = 7;

    /// Stable class index in `0..Activity::COUNT`.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Activity::Sit => 0,
            Activity::Stand => 1,
            Activity::Walk => 2,
            Activity::Jump => 3,
            Activity::Drive => 4,
            Activity::LieDown => 5,
            Activity::Transition => 6,
        }
    }

    /// Inverse of [`Activity::index`].
    ///
    /// Returns `None` when `index >= Activity::COUNT`.
    #[must_use]
    pub fn from_index(index: usize) -> Option<Activity> {
        Activity::ALL.get(index).copied()
    }

    /// Human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Activity::Sit => "sit",
            Activity::Stand => "stand",
            Activity::Walk => "walk",
            Activity::Jump => "jump",
            Activity::Drive => "drive",
            Activity::LieDown => "lie down",
            Activity::Transition => "transition",
        }
    }

    /// Characteristic RMS *dynamic* (gravity-removed) acceleration of the
    /// activity, in g.
    ///
    /// These are the cohort-typical magnitudes of the oscillatory terms the
    /// waveform models in this crate synthesize: the gait and heel-strike
    /// sinusoids for walking, the take-off/flight impulse train for jumping,
    /// the 3–20 Hz road-vibration band for driving, and postural
    /// tremor/sway for the static postures. Kinetic energy harvesters scale
    /// with this quantity (harvested power grows with the square of the
    /// driving acceleration), so it is the coupling constant between the
    /// activity stream and the `reap-harvest` motion-driven sources.
    ///
    /// # Examples
    ///
    /// ```
    /// use reap_data::Activity;
    ///
    /// // Jumping shakes a harvester hardest; lying down barely moves it.
    /// assert!(Activity::Jump.motion_intensity() > Activity::Walk.motion_intensity());
    /// assert!(Activity::Walk.motion_intensity() > 10.0 * Activity::LieDown.motion_intensity());
    /// ```
    #[must_use]
    pub fn motion_intensity(self) -> f64 {
        match self {
            Activity::Sit => 0.025,
            Activity::Stand => 0.04,
            Activity::Walk => 0.42,
            Activity::Jump => 1.60,
            Activity::Drive => 0.11,
            Activity::LieDown => 0.012,
            Activity::Transition => 0.30,
        }
    }

    /// Typical metabolic rate of the activity in METs (multiples of the
    /// resting metabolic rate).
    ///
    /// Standard compendium values: lying ≈ 1, sitting ≈ 1.3, standing ≈
    /// 1.6, driving ≈ 1.5, walking ≈ 3.5, jumping ≈ 8. Thermoelectric
    /// body-heat harvesters couple to this: a higher metabolic rate raises
    /// skin temperature and perfusion, widening the ΔT across the
    /// generator.
    ///
    /// # Examples
    ///
    /// ```
    /// use reap_data::Activity;
    ///
    /// assert_eq!(Activity::LieDown.metabolic_rate_met(), 1.0);
    /// assert!(Activity::Walk.metabolic_rate_met() > Activity::Sit.metabolic_rate_met());
    /// ```
    #[must_use]
    pub fn metabolic_rate_met(self) -> f64 {
        match self {
            Activity::Sit => 1.3,
            Activity::Stand => 1.6,
            Activity::Walk => 3.5,
            Activity::Jump => 8.0,
            Activity::Drive => 1.5,
            Activity::LieDown => 1.0,
            Activity::Transition => 2.0,
        }
    }
}

impl fmt::Display for Activity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Activity {
        /// `true` for the static postures (sit, stand, drive, lie down)
        /// whose accelerometer signal is dominated by the gravity
        /// orientation.
        fn is_static_posture(self) -> bool {
            matches!(
                self,
                Activity::Sit | Activity::Stand | Activity::Drive | Activity::LieDown
            )
        }
    }

    #[test]
    fn index_roundtrip() {
        for (i, &a) in Activity::ALL.iter().enumerate() {
            assert_eq!(a.index(), i);
            assert_eq!(Activity::from_index(i), Some(a));
        }
        assert_eq!(Activity::from_index(7), None);
    }

    #[test]
    fn all_has_no_duplicates() {
        for (i, a) in Activity::ALL.iter().enumerate() {
            for b in &Activity::ALL[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(Activity::ALL.len(), Activity::COUNT);
    }

    #[test]
    fn labels_are_distinct_and_nonempty() {
        let labels: Vec<&str> = Activity::ALL.iter().map(|a| a.label()).collect();
        for (i, l) in labels.iter().enumerate() {
            assert!(!l.is_empty());
            for m in &labels[i + 1..] {
                assert_ne!(l, m);
            }
        }
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(Activity::LieDown.to_string(), "lie down");
    }

    #[test]
    fn motion_intensity_orders_dynamic_over_static() {
        for a in Activity::ALL {
            assert!(a.motion_intensity() > 0.0);
            assert!(a.metabolic_rate_met() >= 1.0);
        }
        assert!(Activity::Jump.motion_intensity() > Activity::Walk.motion_intensity());
        assert!(Activity::Walk.motion_intensity() > Activity::Drive.motion_intensity());
        assert!(Activity::Drive.motion_intensity() > Activity::Sit.motion_intensity());
        assert!(Activity::Sit.motion_intensity() > Activity::LieDown.motion_intensity());
        assert!(Activity::Jump.metabolic_rate_met() > Activity::Walk.metabolic_rate_met());
        assert!(Activity::Walk.metabolic_rate_met() > Activity::Stand.metabolic_rate_met());
    }

    #[test]
    fn posture_classification() {
        assert!(Activity::Sit.is_static_posture());
        assert!(Activity::Drive.is_static_posture());
        assert!(!Activity::Walk.is_static_posture());
        assert!(!Activity::Transition.is_static_posture());
    }
}
