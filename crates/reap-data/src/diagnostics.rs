//! Dataset diagnostics: quantifying how hard the synthetic study is.
//!
//! The substitution argument in DESIGN.md rests on the synthetic cohort
//! having the right *separability structure*: postures must be trivially
//! separable with full sensing but collapse into confusable pairs
//! (sit/drive, stand/lie) when only the stretch channel is available.
//! This module measures that structure directly — a Fisher-style
//! between/within class distance on simple channel summaries — so tests
//! can pin it instead of trusting the generator by eye.

use crate::{Activity, Dataset};

/// Per-class mean and variance of a scalar signal summary.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ClassMoment {
    /// Mean of the summary over the class's windows.
    pub mean: f64,
    /// Variance of the summary over the class's windows.
    pub variance: f64,
    /// Windows observed.
    pub count: usize,
}

/// Which scalar summary of a window to analyze.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Channel {
    /// Mean of one accelerometer axis (0 = x, 1 = y, 2 = z).
    AccelMean(usize),
    /// Standard deviation of one accelerometer axis.
    AccelStd(usize),
    /// Mean of the stretch channel.
    StretchMean,
    /// Standard deviation of the stretch channel.
    StretchStd,
}

fn summarize(window: &crate::ActivityWindow, channel: Channel) -> f64 {
    let stats = |x: &[f64]| -> (f64, f64) {
        let n = x.len() as f64;
        let mean = x.iter().sum::<f64>() / n;
        let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        (mean, var)
    };
    match channel {
        Channel::AccelMean(axis) => stats(&window.accel[axis]).0,
        Channel::AccelStd(axis) => stats(&window.accel[axis]).1.sqrt(),
        Channel::StretchMean => stats(&window.stretch).0,
        Channel::StretchStd => stats(&window.stretch).1.sqrt(),
    }
}

/// Computes per-class moments of `channel` over a dataset.
///
/// Classes with no windows get `count == 0` and NaN moments.
#[must_use]
fn class_moments(dataset: &Dataset, channel: Channel) -> [ClassMoment; Activity::COUNT] {
    let mut sums = [0.0f64; Activity::COUNT];
    let mut sq_sums = [0.0f64; Activity::COUNT];
    let mut counts = [0usize; Activity::COUNT];
    for w in dataset.windows() {
        let v = summarize(w, channel);
        let k = w.label.index();
        sums[k] += v;
        sq_sums[k] += v * v;
        counts[k] += 1;
    }
    core::array::from_fn(|k| {
        if counts[k] == 0 {
            ClassMoment {
                mean: f64::NAN,
                variance: f64::NAN,
                count: 0,
            }
        } else {
            let n = counts[k] as f64;
            let mean = sums[k] / n;
            ClassMoment {
                mean,
                variance: (sq_sums[k] / n - mean * mean).max(0.0),
                count: counts[k],
            }
        }
    })
}

/// Fisher separability of two classes on a channel:
/// `(mu_a - mu_b)^2 / (var_a + var_b)`. Below ~1 the classes overlap
/// heavily; above ~4 they are nearly linearly separable on this channel
/// alone.
///
/// Returns `None` when either class has no windows.
#[must_use]
fn fisher_separability(
    dataset: &Dataset,
    a: Activity,
    b: Activity,
    channel: Channel,
) -> Option<f64> {
    let moments = class_moments(dataset, channel);
    let ma = moments[a.index()];
    let mb = moments[b.index()];
    if ma.count == 0 || mb.count == 0 {
        return None;
    }
    let spread = ma.variance + mb.variance;
    if spread <= 0.0 {
        return Some(f64::INFINITY);
    }
    Some((ma.mean - mb.mean).powi(2) / spread)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        Dataset::generate(8, 1200, 42)
    }

    #[test]
    fn moments_cover_every_class() {
        let m = class_moments(&dataset(), Channel::StretchMean);
        for (k, moment) in m.iter().enumerate() {
            assert!(moment.count > 0, "class {k} empty");
            assert!(moment.mean.is_finite());
            assert!(moment.variance >= 0.0);
        }
    }

    #[test]
    fn stretch_separates_postures_but_not_the_confusable_pairs() {
        let d = dataset();
        // Sit vs stand: far apart on the stretch mean (bent vs straight).
        let sit_stand =
            fisher_separability(&d, Activity::Sit, Activity::Stand, Channel::StretchMean).unwrap();
        assert!(
            sit_stand > 4.0,
            "sit/stand stretch separability {sit_stand}"
        );
        // Sit vs drive: heavily overlapping — the designed DP5 weakness.
        let sit_drive =
            fisher_separability(&d, Activity::Sit, Activity::Drive, Channel::StretchMean).unwrap();
        assert!(
            sit_drive < 1.0,
            "sit/drive stretch separability {sit_drive}"
        );
        // Stand vs lie: also overlapping on stretch alone.
        let stand_lie =
            fisher_separability(&d, Activity::Stand, Activity::LieDown, Channel::StretchMean)
                .unwrap();
        assert!(
            stand_lie < 1.5,
            "stand/lie stretch separability {stand_lie}"
        );
    }

    #[test]
    fn accelerometer_recovers_the_confusable_pairs() {
        let d = dataset();
        // Stand vs lie: the x-axis gravity mean separates them sharply.
        let stand_lie = fisher_separability(
            &d,
            Activity::Stand,
            Activity::LieDown,
            Channel::AccelMean(0),
        )
        .unwrap();
        assert!(stand_lie > 4.0, "stand/lie accel separability {stand_lie}");
        // Sit vs drive: the z-axis AC content (vibration) carries far more
        // signal than the stretch baseline, but smooth roads keep even it
        // from being trivially separable — drive stays the hard class, as
        // in real HAR studies.
        let sit_drive_accel =
            fisher_separability(&d, Activity::Sit, Activity::Drive, Channel::AccelStd(2)).unwrap();
        let sit_drive_stretch =
            fisher_separability(&d, Activity::Sit, Activity::Drive, Channel::StretchMean).unwrap();
        assert!(
            sit_drive_accel > 2.0 * sit_drive_stretch,
            "accel-std {sit_drive_accel} should dominate stretch {sit_drive_stretch}"
        );
        assert!(
            sit_drive_accel < 4.0,
            "sit/drive must stay hard: {sit_drive_accel}"
        );
    }

    #[test]
    fn dynamic_activities_stand_out_on_accel_std() {
        let d = dataset();
        let walk_sit =
            fisher_separability(&d, Activity::Walk, Activity::Sit, Channel::AccelStd(2)).unwrap();
        assert!(walk_sit > 4.0, "walk/sit separability {walk_sit}");
        let jump_walk =
            fisher_separability(&d, Activity::Jump, Activity::Walk, Channel::AccelStd(2)).unwrap();
        assert!(jump_walk > 1.0, "jump/walk separability {jump_walk}");
    }

    #[test]
    fn stretch_std_separates_walk_from_postures() {
        let d = dataset();
        let walk_stand =
            fisher_separability(&d, Activity::Walk, Activity::Stand, Channel::StretchStd).unwrap();
        assert!(walk_stand > 4.0, "walk/stand stretch-std {walk_stand}");
    }
}
