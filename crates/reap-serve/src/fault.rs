//! Deterministic, seeded fault injection for the serve path.
//!
//! A [`FaultPlan`] is a pure function of `(seed, operation count)`: every
//! read and write through a [`ChaosStream`] draws the next operation
//! number from an atomic counter, hashes it with the seed (splitmix64 —
//! the same generator the harvest perturbations use), and either passes
//! the call through untouched or injects one of a small set of faults:
//!
//! - **Delay** — the operation sleeps first (a stalled, slow-loris peer);
//! - **Short read** — at most one byte is returned, splitting frames at
//!   arbitrary byte boundaries;
//! - **Partial write** — half the buffer goes out, then the stream is
//!   poisoned (a mid-frame connection cut);
//! - **Injected error** — `ConnectionAborted` without any bytes moving;
//! - **Reset** — `ConnectionReset`, poisoning the stream.
//!
//! Poisoned streams fail every subsequent operation, exactly like a dead
//! socket. The same plan also carries the snapshot writer's crash-point
//! schedule ([`CrashPoint`]), so one seed describes a whole chaos run.
//!
//! The production path pays nothing for any of this: servers are generic
//! over [`IoLayer`] with the zero-sized [`NoFaults`] default whose
//! `wrap` is the identity function, so the unarmed build monomorphizes
//! to the raw `TcpStream`/`File` calls.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use reap_harvest::splitmix64;

/// Where the crash-safe snapshot writer can be killed mid-checkpoint.
///
/// Each point names the state the filesystem is left in when the writer
/// "dies" there; the crash-point test kills the writer at every one and
/// proves ring recovery never sees a torn snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// The temp file exists but is empty.
    TempCreated,
    /// Half the snapshot bytes are in the temp file.
    TempHalfWritten,
    /// All bytes are in the temp file, not yet fsynced.
    TempWritten,
    /// The temp file is fsynced but not yet renamed into place.
    TempSynced,
    /// The rename happened; the parent directory is not yet fsynced.
    Renamed,
}

impl CrashPoint {
    /// Every crash point, in writer order.
    pub const ALL: [CrashPoint; 5] = [
        CrashPoint::TempCreated,
        CrashPoint::TempHalfWritten,
        CrashPoint::TempWritten,
        CrashPoint::TempSynced,
        CrashPoint::Renamed,
    ];
}

/// Fault rates for a [`FaultPlan`]. Every `*_every` field is a mean
/// period in operations: `0` disables the fault, `n` fires it on roughly
/// one in `n` operations (deterministically, from the seed). All rates
/// default to off, so `FaultConfig::default()` is a no-op plan.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultConfig {
    /// Delay roughly one in this many operations…
    pub delay_every: u64,
    /// …by this many milliseconds.
    pub delay_ms: u64,
    /// Truncate roughly one in this many reads to a single byte.
    pub short_read_every: u64,
    /// Cut roughly one in this many writes mid-buffer (half goes out,
    /// then the stream is poisoned).
    pub partial_write_every: u64,
    /// Fail roughly one in this many operations with `ConnectionAborted`.
    pub error_every: u64,
    /// Reset roughly one in this many operations (`ConnectionReset`,
    /// stream poisoned).
    pub reset_every: u64,
    /// Kill the snapshot writer at this point (once armed, every
    /// checkpoint "crashes" there).
    pub crash_at: Option<CrashPoint>,
}

/// A seeded, deterministic schedule of I/O faults keyed by operation
/// count. Cheap to share: wrap it in an [`Arc`] and hand clones to every
/// stream (the operation counters are process-wide per plan, so two runs
/// with the same seed and the same operation interleaving inject the
/// same faults).
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    cfg: FaultConfig,
    reads: AtomicU64,
    writes: AtomicU64,
    injected: AtomicU64,
}

/// What a single operation should do, as decided by the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    Delay(u64),
    Short,
    Error,
    Reset,
}

/// One splitmix64 generator step: the golden-ratio increment, then the
/// shared finalizer the harvest-trace perturbations use (also feeds the
/// retry client's backoff jitter).
pub(crate) fn splitmix_step(z: u64) -> u64 {
    splitmix64(z.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

fn fires(h: u64, salt: u64, every: u64) -> bool {
    every != 0 && splitmix_step(h ^ salt).is_multiple_of(every)
}

impl FaultPlan {
    /// Builds a plan from a seed and fault rates.
    #[must_use]
    pub fn new(seed: u64, cfg: FaultConfig) -> FaultPlan {
        FaultPlan {
            seed,
            cfg,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// The seed the schedule derives from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Faults injected so far (all kinds).
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Whether the snapshot writer should die at `point`.
    #[must_use]
    pub fn crashes_at(&self, point: CrashPoint) -> bool {
        self.cfg.crash_at == Some(point)
    }

    fn pick(&self, tag: u64, n: u64, short_every: u64) -> Fault {
        let h = splitmix_step(self.seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ n);
        let c = &self.cfg;
        let fault = if fires(h, 0x01, c.reset_every) {
            Fault::Reset
        } else if fires(h, 0x02, c.error_every) {
            Fault::Error
        } else if fires(h, 0x03, short_every) {
            Fault::Short
        } else if fires(h, 0x04, c.delay_every) {
            Fault::Delay(c.delay_ms)
        } else {
            Fault::None
        };
        if fault != Fault::None {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }

    fn next_read_fault(&self) -> Fault {
        let n = self.reads.fetch_add(1, Ordering::Relaxed);
        self.pick(1, n, self.cfg.short_read_every)
    }

    fn next_write_fault(&self) -> Fault {
        let n = self.writes.fetch_add(1, Ordering::Relaxed);
        self.pick(2, n, self.cfg.partial_write_every)
    }
}

/// The seam the server (and the chaos client) thread their I/O through.
///
/// [`NoFaults`] is the zero-sized production implementation: `wrap` is
/// the identity and `crash_at` is a constant `false`, so a
/// `Server<NoFaults>` monomorphizes to direct `TcpStream` calls. An
/// `Arc<FaultPlan>` implements the same trait by wrapping streams in
/// [`ChaosStream`].
pub trait IoLayer: Clone + Send + Sync + 'static {
    /// The stream type connections run over.
    type Stream: Read + Write + Send + 'static;

    /// Wraps one half of a connection.
    fn wrap(&self, stream: TcpStream) -> Self::Stream;

    /// Whether the snapshot writer should die at `point` (always `false`
    /// in production).
    fn crash_at(&self, point: CrashPoint) -> bool {
        let _ = point;
        false
    }
}

/// The production layer: no faults, no wrapper, no cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl IoLayer for NoFaults {
    type Stream = TcpStream;

    #[inline(always)]
    fn wrap(&self, stream: TcpStream) -> TcpStream {
        stream
    }
}

impl IoLayer for Arc<FaultPlan> {
    type Stream = ChaosStream<TcpStream>;

    fn wrap(&self, stream: TcpStream) -> ChaosStream<TcpStream> {
        ChaosStream::new(stream, Arc::clone(self))
    }

    fn crash_at(&self, point: CrashPoint) -> bool {
        self.crashes_at(point)
    }
}

/// A `Read + Write` wrapper that consults a [`FaultPlan`] before every
/// operation. Once a reset/abort/partial-write fault lands, the stream
/// is poisoned and every further operation fails `ConnectionReset`,
/// exactly like a dead socket.
#[derive(Debug)]
pub struct ChaosStream<S> {
    inner: S,
    plan: Arc<FaultPlan>,
    poisoned: bool,
}

impl<S> ChaosStream<S> {
    /// Wraps `inner` under `plan`'s schedule.
    pub fn new(inner: S, plan: Arc<FaultPlan>) -> ChaosStream<S> {
        ChaosStream {
            inner,
            plan,
            poisoned: false,
        }
    }

    fn dead() -> io::Error {
        io::Error::new(io::ErrorKind::ConnectionReset, "chaos: stream poisoned")
    }
}

impl<S: Read> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.poisoned {
            return Err(Self::dead());
        }
        match self.plan.next_read_fault() {
            Fault::None => self.inner.read(buf),
            Fault::Delay(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.read(buf)
            }
            Fault::Short => {
                let n = buf.len().min(1);
                // reap-lint: allow(panic:index) -- n = len.min(1) <= len
                self.inner.read(&mut buf[..n])
            }
            Fault::Error => {
                self.poisoned = true;
                Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "chaos: injected read error",
                ))
            }
            Fault::Reset => {
                self.poisoned = true;
                Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "chaos: injected read reset",
                ))
            }
        }
    }
}

impl<S: Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.poisoned {
            return Err(Self::dead());
        }
        match self.plan.next_write_fault() {
            Fault::None => self.inner.write(buf),
            Fault::Delay(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.write(buf)
            }
            Fault::Short => {
                // Mid-frame cut: half the buffer escapes, then the
                // stream dies. The peer sees a torn frame and an EOF/RST.
                let n = (buf.len() / 2).max(1).min(buf.len());
                // reap-lint: allow(panic:index) -- n is clamped to buf.len() on the line above
                let written = self.inner.write(&buf[..n]);
                let _ = self.inner.flush();
                self.poisoned = true;
                written
            }
            Fault::Error => {
                self.poisoned = true;
                Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "chaos: injected write error",
                ))
            }
            Fault::Reset => {
                self.poisoned = true;
                Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "chaos: injected write reset",
                ))
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.poisoned {
            return Err(Self::dead());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory transport: reads pull from `input`, writes append to
    /// `output`.
    struct Mem {
        input: std::io::Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Read for Mem {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Mem {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn mem(input: &[u8]) -> Mem {
        Mem {
            input: std::io::Cursor::new(input.to_vec()),
            output: Vec::new(),
        }
    }

    #[test]
    fn unarmed_plan_is_passthrough() {
        let plan = Arc::new(FaultPlan::new(7, FaultConfig::default()));
        let mut s = ChaosStream::new(mem(b"hello"), Arc::clone(&plan));
        let mut buf = [0u8; 16];
        assert_eq!(s.read(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
        s.write_all(b"world").unwrap();
        assert_eq!(s.inner.output, b"world");
        assert_eq!(plan.injected(), 0);
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let cfg = FaultConfig {
            short_read_every: 3,
            reset_every: 7,
            error_every: 5,
            delay_every: 0,
            ..FaultConfig::default()
        };
        let trace = |seed: u64| -> Vec<Fault> {
            let plan = FaultPlan::new(seed, cfg);
            (0..64).map(|_| plan.next_read_fault()).collect()
        };
        assert_eq!(trace(42), trace(42));
        assert_ne!(trace(42), trace(43), "different seeds, same schedule");
        // The armed plan actually injects something in 64 draws.
        assert!(trace(42).iter().any(|f| *f != Fault::None));
    }

    #[test]
    fn reset_poisons_the_stream() {
        // reset_every = 1: the very first operation resets.
        let plan = Arc::new(FaultPlan::new(
            1,
            FaultConfig {
                reset_every: 1,
                ..FaultConfig::default()
            },
        ));
        let mut s = ChaosStream::new(mem(b"data"), plan);
        let mut buf = [0u8; 4];
        let e = s.read(&mut buf).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
        // Every later operation fails too, like a dead socket.
        assert!(s.read(&mut buf).is_err());
        assert!(s.write(b"x").is_err());
        assert!(s.flush().is_err());
    }

    #[test]
    fn partial_write_cuts_mid_buffer_then_dies() {
        let plan = Arc::new(FaultPlan::new(
            3,
            FaultConfig {
                partial_write_every: 1,
                ..FaultConfig::default()
            },
        ));
        let mut s = ChaosStream::new(mem(b""), plan);
        let n = s.write(b"0123456789").unwrap();
        assert_eq!(n, 5, "half the buffer escapes");
        assert_eq!(s.inner.output, b"01234");
        assert!(s.write(b"rest").is_err(), "stream is dead after the cut");
    }

    #[test]
    fn short_reads_return_at_most_one_byte() {
        let plan = Arc::new(FaultPlan::new(
            9,
            FaultConfig {
                short_read_every: 1,
                ..FaultConfig::default()
            },
        ));
        let mut s = ChaosStream::new(mem(b"abc"), plan);
        let mut buf = [0u8; 16];
        // Every read is shortened, but the bytes still all arrive.
        let mut got = Vec::new();
        loop {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    assert_eq!(n, 1);
                    got.extend_from_slice(&buf[..n]);
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(got, b"abc");
    }

    #[test]
    fn crash_points_enumerate_in_writer_order() {
        assert_eq!(CrashPoint::ALL.len(), 5);
        let armed = FaultPlan::new(
            0,
            FaultConfig {
                crash_at: Some(CrashPoint::TempSynced),
                ..FaultConfig::default()
            },
        );
        assert!(armed.crashes_at(CrashPoint::TempSynced));
        assert!(!armed.crashes_at(CrashPoint::Renamed));
        let unarmed = FaultPlan::new(0, FaultConfig::default());
        for p in CrashPoint::ALL {
            assert!(!unarmed.crashes_at(p));
        }
    }
}
