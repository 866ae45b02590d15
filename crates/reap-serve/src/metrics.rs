//! Lock-free request-path metrics: atomic counters plus fixed-bucket
//! latency histograms.
//!
//! Every handled request bumps a relaxed atomic; latencies land in a
//! power-of-two-bucket histogram (1 µs granularity at the bottom, ~134 s
//! at the top), so recording costs two atomic adds and quantiles are a
//! bucket walk — no locks, no allocation, no per-request timestamps kept.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::protocol::ServerStats;

/// Histogram buckets: bucket `k` holds samples in `[2^k, 2^(k+1))` µs
/// (bucket 0 also takes sub-microsecond samples).
const BUCKETS: usize = 28;

/// A fixed-bucket latency histogram over microseconds.
///
/// Quantile estimates interpolate linearly inside the winning bucket, so
/// resolution is ~a factor of two at worst — plenty to tell a 100 µs
/// request path from a 1 ms one, which is what the serve bench gates.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    counts: [AtomicU64; BUCKETS],
    total: AtomicU64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one sample.
    pub fn record(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = (63 - us.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        // reap-lint: allow(panic:index) -- bucket is clamped to BUCKETS - 1 on the line above
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Merges another histogram's counts into this one (used by the
    /// bench's per-thread client histograms).
    pub fn merge(&self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter().zip(&other.counts) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.total
            .fetch_add(other.total.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Samples recorded.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// `true` when no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated quantile `q` in `[0, 1]`, in microseconds; `0` for an
    /// empty histogram. Linear interpolation within the winning bucket.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample (1-based), at least 1.
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (k, &n) in counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = (1u64 << k) as f64;
                let hi = (1u64 << (k + 1)) as f64;
                let within = (rank - seen) as f64 / n as f64;
                return lo + (hi - lo) * within;
            }
            seen += n;
        }
        // Unreachable (total > 0 means some bucket crosses the rank),
        // but fall back to the top edge rather than panic.
        (1u64 << BUCKETS) as f64
    }
}

/// Request-path counters and latency histograms for one server.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Requests handled (post-handshake).
    pub requests: AtomicU64,
    /// Error frames sent.
    pub errors: AtomicU64,
    /// `observe` requests handled.
    pub observes: AtomicU64,
    /// `decide` requests handled.
    pub decides: AtomicU64,
    /// `checkpoint` requests handled, failed writes included; periodic
    /// and final ring writes are not requests and are not counted.
    pub checkpoints: AtomicU64,
    /// `restore` requests handled.
    pub restores: AtomicU64,
    /// Connections evicted for stalling mid-frame past the frame
    /// deadline.
    pub evicted: AtomicU64,
    /// `observe` requests shed under overload.
    pub shed: AtomicU64,
    /// Server-side observe handling latency.
    pub observe_latency: LatencyHistogram,
    /// Server-side decide handling latency.
    pub decide_latency: LatencyHistogram,
}

impl ServerMetrics {
    /// Creates zeroed metrics.
    #[must_use]
    pub fn new() -> ServerMetrics {
        ServerMetrics::default()
    }

    /// Snapshots the counters into the wire representation.
    #[must_use]
    pub fn server_stats(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            observes: self.observes.load(Ordering::Relaxed),
            decides: self.decides.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            restores: self.restores.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            observe_p50_us: self.observe_latency.quantile_us(0.50),
            observe_p99_us: self.observe_latency.quantile_us(0.99),
            decide_p50_us: self.decide_latency.quantile_us(0.50),
            decide_p99_us: self.decide_latency.quantile_us(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile_us(0.5), 0.0);
    }

    #[test]
    fn quantiles_bracket_the_samples() {
        let h = LatencyHistogram::new();
        // 99 fast samples at ~10 µs, one slow at ~10 ms.
        for _ in 0..99 {
            h.record(Duration::from_micros(10));
        }
        h.record(Duration::from_millis(10));
        assert_eq!(h.len(), 100);
        let p50 = h.quantile_us(0.50);
        assert!((8.0..16.0).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_us(0.99);
        assert!(p99 < 20.0, "p99 = {p99} should still be in the fast bucket");
        let p100 = h.quantile_us(1.0);
        assert!(
            (8192.0..=16384.0).contains(&p100),
            "max = {p100} should land in the 10 ms bucket"
        );
    }

    #[test]
    fn sub_microsecond_and_huge_samples_stay_in_range() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(1));
        h.record(Duration::from_secs(1_000_000));
        assert_eq!(h.len(), 2);
        assert!(h.quantile_us(0.0) >= 1.0);
        assert!(h.quantile_us(1.0).is_finite());
    }

    #[test]
    fn merge_accumulates() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record(Duration::from_micros(5));
        b.record(Duration::from_micros(500));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert!(a.quantile_us(1.0) > 256.0);
    }

    #[test]
    fn metrics_snapshot_copies_counters() {
        let m = ServerMetrics::new();
        m.connections.fetch_add(2, Ordering::Relaxed);
        m.requests.fetch_add(7, Ordering::Relaxed);
        m.decides.fetch_add(3, Ordering::Relaxed);
        m.decide_latency.record(Duration::from_micros(30));
        let s = m.server_stats();
        assert_eq!((s.connections, s.requests, s.decides), (2, 7, 3));
        assert!(s.decide_p99_us >= 16.0);
    }
}
