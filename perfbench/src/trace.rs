//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions; nothing inside the workspace crates is
//! instrumented. A layer call that happens *inside* another public call
//! (the trace synthesis inside `SoaFleet::new`, the LP solve inside
//! `Scenario::run`) cannot be wrapped from outside, so the traced run
//! **replays** it: it calls the inner layer's public function again on
//! the same inputs and records the replay as a child of the span that
//! contained the original call. Replays run off the trace clock
//! ([`Tracer::offclock`]), so they never inflate the duration of the
//! spans around them.
//!
//! A span's self time is its duration minus the durations of its child
//! spans, so the self times of all spans sum exactly to the duration of
//! the root spans: the traced end-to-end wall time, which the benchmark
//! compares against an untraced run of the same path.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in the recorder.
pub type SpanId = u32;
/// Parent of a root span.
pub const ROOT: SpanId = u32::MAX;
/// Group of a span that belongs to no single user or request.
pub const NO_GROUP: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: SpanId,
    /// The user or request the span works for; spans of one user share it.
    group: u64,
    /// Trace-clock nanoseconds.
    start_ns: u64,
    end_ns: u64,
    /// A replay of work that ran inside `parent` (see the module docs).
    replay: bool,
}

/// Records spans against a trace clock that stops while replays run.
pub struct Tracer {
    origin: Instant,
    offclock_ns: u64,
    /// Trace-clock time at which the current off-clock section began.
    paused_at: Option<u64>,
    open: Vec<SpanId>,
    spans: Vec<Span>,
}

impl Tracer {
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            offclock_ns: 0,
            paused_at: None,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.paused_at
            .unwrap_or_else(|| nanos(self.origin.elapsed()) - self.offclock_ns)
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, group: u64) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied().unwrap_or(ROOT),
            group,
            start_ns,
            end_ns: start_ns,
            replay: false,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        group: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.enter(name, group);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Runs `f` with the trace clock stopped: replays and the harness
    /// work around them (building replay inputs, checking replay
    /// outputs) add nothing to any open span.
    pub fn offclock<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let outer = self.paused_at;
        let wall = Instant::now();
        if outer.is_none() {
            self.paused_at = Some(self.now());
        }
        let out = f(self);
        if outer.is_none() {
            self.paused_at = None;
            self.offclock_ns += nanos(wall.elapsed());
        }
        out
    }

    /// Times `f` as a replay child of `parent`. Only valid inside
    /// [`Tracer::offclock`]. Returns the result, the replay's span id,
    /// and its duration in nanoseconds.
    pub fn replay<T>(
        &mut self,
        parent: SpanId,
        name: &'static str,
        group: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId, u64) {
        let at = self.paused_at.expect("replays run off the trace clock");
        let wall = Instant::now();
        let out = std::hint::black_box(f());
        let ns = nanos(wall.elapsed());
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            parent,
            group,
            start_ns: at,
            end_ns: at + ns,
            replay: true,
        });
        (out, id, ns)
    }

    /// Self time per span name, in nanoseconds: each span's duration
    /// minus its children's durations, summed over spans of one name.
    /// Negative when replays of a span's inner layers took longer than
    /// the span itself (an attribution error the report exposes).
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &self.spans {
            let d = (s.end_ns - s.start_ns) as f64;
            *out.entry(s.name).or_default() += d;
            if s.parent != ROOT {
                *out.entry(self.spans[s.parent as usize].name).or_default() -= d;
            }
        }
        out
    }

    /// Total duration of the root spans, in nanoseconds: the traced
    /// end-to-end wall time, equal to the sum of all self times.
    #[must_use]
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == ROOT)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Number of recorded spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let group = if s.group == NO_GROUP {
                "null".to_string()
            } else {
                s.group.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"group\":{group},\
                 \"start_ns\":{},\"end_ns\":{},\"replay\":{}}}",
                s.name, s.start_ns, s.end_ns, s.replay
            )?;
        }
        w.flush()
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("runs last less than 584 years")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_sum_to_the_root_and_replays_stay_off_the_clock() {
        let mut tr = Tracer::new();
        let root = tr.enter("root", NO_GROUP);
        tr.span("child", 7, |_| spin(2));
        let outer = tr.enter("outer", NO_GROUP);
        spin(2);
        tr.exit(outer);
        tr.offclock(|tr| {
            let ((), _, ns) = tr.replay(outer, "inner", NO_GROUP, || spin(1));
            assert!(ns >= 1_000_000);
            spin(5);
        });
        tr.exit(root);
        let self_ns = tr.self_times();
        let total: f64 = self_ns.values().sum();
        assert_eq!(total, tr.root_ns() as f64);
        // The 6 ms spent off the clock (replay plus harness work) is in
        // no on-clock span: the root lasted only the two 2 ms spins.
        assert!(tr.root_ns() < 6_000_000, "root {} ns", tr.root_ns());
        assert!(self_ns["inner"] >= 1e6);
        assert!(self_ns["child"] >= 2e6);
    }
}
