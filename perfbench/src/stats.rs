//! Sample summaries under the benchmark's percentile rule.
//!
//! A timing is reported as its median plus the highest percentile that
//! has at least [`MIN_BEYOND`] samples beyond it, together with the
//! sample count. Percentiles use the nearest-rank definition: the
//! `q`-percentile of `n` sorted samples is the sample at 1-based rank
//! `ceil(q * n)`, and `n - ceil(q * n)` samples lie beyond it.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried from the highest down.
const TAILS: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// Median, the best-supported tail percentile, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// The percentile `tail` reports; `0.5` when no tail percentile has
    /// enough samples beyond it (then `tail == median`).
    pub tail_q: f64,
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples` with the tail capped at `max_q` (e.g. `0.99`
    /// for a p99 metric): the highest percentile `<= max_q` that the
    /// rule supports. Infinite samples (failed requests) sort last, so
    /// they count as beyond any finite limit.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set or a NaN sample.
    #[must_use]
    pub fn of(samples: &[f64], max_q: f64) -> Summary {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
        let median = median_of_sorted(&sorted);
        let (tail_q, tail) = std::iter::once(max_q)
            .chain(TAILS.into_iter().filter(|&q| q < max_q))
            .find_map(|q| supported(&sorted, q).map(|v| (q, v)))
            .unwrap_or((0.5, median));
        Summary {
            n: sorted.len(),
            median,
            tail_q,
            tail,
        }
    }
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The `q`-percentile of `sorted` if at least [`MIN_BEYOND`] samples lie
/// beyond it.
#[must_use]
pub fn supported(sorted: &[f64], q: f64) -> Option<f64> {
    let r = rank(sorted.len(), q);
    (sorted.len() - r >= MIN_BEYOND).then(|| sorted[r - 1])
}

fn median_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of unsorted samples.
///
/// # Panics
///
/// Panics on an empty sample set or a NaN sample.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples, 0.5).median
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, samples 991..=1000 lie beyond.
        let s = Summary::of(&ramp(1000), 0.99);
        assert_eq!((s.tail_q, s.tail, s.n), (0.99, 990.0, 1000));
        // 999 samples: rank 990 leaves only 9 beyond, so the rule steps
        // down to p95 (rank 950, 49 beyond).
        let s = Summary::of(&ramp(999), 0.99);
        assert_eq!((s.tail_q, s.tail), (0.95, 950.0));
    }

    #[test]
    fn tail_never_exceeds_the_requested_percentile() {
        // Plenty of samples for p99.9, but a p99 metric reports p99.
        let s = Summary::of(&ramp(100_000), 0.99);
        assert_eq!(s.tail_q, 0.99);
        assert_eq!(s.tail, 99_000.0);
    }

    #[test]
    fn too_few_samples_fall_back_to_the_median() {
        let s = Summary::of(&ramp(15), 0.99);
        assert_eq!((s.tail_q, s.tail, s.median), (0.5, 8.0, 8.0));
        // 40 samples support p75 (rank 30, 10 beyond).
        let s = Summary::of(&ramp(40), 0.99);
        assert_eq!((s.tail_q, s.tail), (0.75, 30.0));
        assert_eq!(s.median, 20.5);
    }

    #[test]
    fn failed_samples_count_beyond_every_limit() {
        let mut v = vec![10.0; 990];
        v.extend([f64::INFINITY; 10]);
        assert_eq!(Summary::of(&v, 0.99).tail, 10.0);
        v.push(f64::INFINITY);
        assert_eq!(Summary::of(&v, 0.99).tail, f64::INFINITY);
    }
}
