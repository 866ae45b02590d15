//! Open-loop request accounting.
//!
//! The generator sends request `i` of a rung when it falls due, at
//! `start + i / rate`, whatever happened to earlier requests. Each
//! request is timed from when it was *due*, not from when it was sent,
//! so a stall is charged to every request it delayed (no coordinated
//! omission), and the generator's own lateness (`sent - due`) is
//! recorded separately: a late generator invalidates the rung's
//! latencies. A failed or refused request counts as an infinite
//! latency, so it misses every limit. A rung whose generator is still
//! behind schedule at its end (the median lateness of its last tenth of
//! requests exceeds the limit) has a growing backlog and fails too.

use std::time::{Duration, Instant};

use crate::stats::Summary;

/// When each request of one rung falls due.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    rate_per_s: f64,
}

impl Schedule {
    #[must_use]
    pub fn new(start: Instant, rate_per_s: f64) -> Schedule {
        Schedule { start, rate_per_s }
    }

    /// Due time of request `i`.
    #[must_use]
    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / self.rate_per_s)
    }
}

/// Latency and lateness of one rung's requests (one generator's, or
/// several merged).
#[derive(Debug, Clone, Default)]
pub struct Rung {
    /// Due-to-response latency per request, us (infinite when failed).
    pub latency_us: Vec<f64>,
    /// Send lateness per request, us.
    pub lag_us: Vec<f64>,
    pub failed: u64,
    /// The backlog the rung ended with: the median lateness of the last
    /// tenth of its requests, us (the worst generator's, once merged).
    pub backlog_us: f64,
    /// Time from the rung's start to its last response, s (the slowest
    /// generator's, once merged).
    pub span_s: f64,
}

impl Rung {
    /// Records one request.
    pub fn record(
        &mut self,
        schedule: &Schedule,
        due: Instant,
        sent: Instant,
        done: Instant,
        ok: bool,
    ) {
        self.lag_us
            .push(micros(sent.saturating_duration_since(due)));
        if ok {
            self.latency_us
                .push(micros(done.saturating_duration_since(due)));
        } else {
            self.failed += 1;
            self.latency_us.push(f64::INFINITY);
        }
        self.span_s = done.saturating_duration_since(schedule.start).as_secs_f64();
    }

    /// Closes one generator's rung: computes the backlog it ended with.
    pub fn finish(&mut self) {
        let tail = self.lag_us.len().div_ceil(10);
        if tail > 0 {
            self.backlog_us = Summary::of(&self.lag_us[self.lag_us.len() - tail..], 0.5).median;
        }
    }

    /// Combines the generators' finished records of one rung.
    #[must_use]
    pub fn merge(parts: &[&Rung]) -> Rung {
        let mut all = Rung::default();
        for p in parts {
            all.latency_us.extend_from_slice(&p.latency_us);
            all.lag_us.extend_from_slice(&p.lag_us);
            all.failed += p.failed;
            all.backlog_us = all.backlog_us.max(p.backlog_us);
            all.span_s = all.span_s.max(p.span_s);
        }
        all
    }

    #[must_use]
    pub fn latency(&self) -> Summary {
        Summary::of(&self.latency_us, 0.99)
    }

    #[must_use]
    pub fn lag(&self) -> Summary {
        Summary::of(&self.lag_us, 0.99)
    }

    /// Requests completed per second over the rung.
    #[must_use]
    pub fn achieved_rps(&self) -> f64 {
        (self.latency_us.len() as u64 - self.failed) as f64 / self.span_s
    }

    /// The rung meets `limit_us` when its p99 latency is within the
    /// limit (failures count as beyond it) and it ended with a backlog
    /// below the limit.
    #[must_use]
    pub fn meets(&self, limit_us: f64) -> bool {
        self.latency().tail <= limit_us && self.backlog_us <= limit_us
    }
}

fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(start: Instant, us: u64) -> Instant {
        start + Duration::from_micros(us)
    }

    #[test]
    fn latency_counts_from_the_due_time_and_lag_from_the_send() {
        let t0 = Instant::now();
        let sched = Schedule::new(t0, 10_000.0); // one request per 100 us
        assert_eq!(sched.due(3), at(t0, 300));
        let mut rung = Rung::default();
        // On time: sent when due, answered 20 us later.
        rung.record(&sched, sched.due(0), at(t0, 0), at(t0, 20), true);
        // A 500 us stall holds request 1 until 600 us; request 2 (due at
        // 200 us) can only go out after it, at 620 us.
        rung.record(&sched, sched.due(1), at(t0, 100), at(t0, 600), true);
        rung.record(&sched, sched.due(2), at(t0, 620), at(t0, 640), true);
        assert_eq!(rung.latency_us, vec![20.0, 500.0, 440.0]);
        assert_eq!(rung.lag_us, vec![0.0, 0.0, 420.0]);
        rung.finish();
        assert_eq!(rung.backlog_us, 420.0);
        assert!((rung.span_s - 640e-6).abs() < 1e-12);
    }

    #[test]
    fn a_failed_request_misses_every_limit() {
        let t0 = Instant::now();
        let sched = Schedule::new(t0, 1_000.0);
        let mut rung = Rung::default();
        for i in 0..1_000 {
            let due = sched.due(i);
            rung.record(&sched, due, due, due + Duration::from_micros(30), true);
        }
        rung.finish();
        assert!(rung.meets(1_000.0));
        // Eleven failures put more than 1% of requests beyond any limit.
        for i in 1_000..1_011 {
            let due = sched.due(i);
            rung.record(&sched, due, due, due, false);
        }
        assert_eq!(rung.failed, 11);
        assert_eq!(rung.latency().tail, f64::INFINITY);
        assert!(!rung.meets(1e12));
    }

    #[test]
    fn a_backlog_at_the_end_fails_the_rung_but_one_stalled_request_does_not() {
        let t0 = Instant::now();
        let sched = Schedule::new(t0, 10_000.0);
        let on_time = |rung: &mut Rung, range: std::ops::Range<u64>| {
            for i in range {
                let due = sched.due(i);
                rung.record(&sched, due, due, due + Duration::from_micros(30), true);
            }
        };
        // One request held 5 ms by a stall, then the generator catches up.
        let mut a = Rung::default();
        on_time(&mut a, 0..999);
        let due = sched.due(999);
        let sent = due + Duration::from_millis(5);
        a.record(&sched, due, sent, sent + Duration::from_micros(30), true);
        a.finish();
        assert_eq!(a.latency().tail, 30.0);
        assert_eq!(a.backlog_us, 0.0);
        assert!(a.meets(1_000.0));
        // The last tenth goes out 2 ms late: the generator ends the rung
        // behind schedule (and, timed from their due times, those
        // requests also sink the p99).
        let mut b = Rung::default();
        on_time(&mut b, 0..900);
        for i in 900..1_000 {
            let due = sched.due(i);
            let sent = due + Duration::from_millis(2);
            b.record(&sched, due, sent, sent + Duration::from_micros(30), true);
        }
        b.finish();
        assert_eq!(b.latency().tail, 2_030.0);
        assert_eq!(b.backlog_us, 2_000.0);
        assert!(!b.meets(1_000.0));
        // Merging keeps the worst generator's backlog and slowest span.
        let merged = Rung::merge(&[&a, &b]);
        assert_eq!(merged.backlog_us, 2_000.0);
        assert_eq!(merged.lag().n, 2_000);
        assert_eq!(merged.span_s, a.span_s.max(b.span_s));
        assert!((merged.achieved_rps() - 2_000.0 / merged.span_s).abs() < 1e-6);
    }
}
