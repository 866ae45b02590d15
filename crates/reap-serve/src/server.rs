//! The TCP daemon: bounded thread-per-connection serving over the
//! sharded resident state.
//!
//! [`Server::bind`] takes any address (tests bind `127.0.0.1:0` and read
//! the kernel-assigned port back with [`Server::local_addr`] — no
//! hardcoded ports anywhere); [`Server::serve`] then accepts until a
//! [`ServerHandle::shutdown`] or an in-band `Shutdown` request. Each
//! connection runs on its own thread, admitted through a
//! `Mutex + Condvar` gate that caps concurrent connections; excess
//! accepts wait for a slot rather than being dropped.
//!
//! Degradation under hostile load: every connection carries a *frame
//! deadline* — a peer that starts a frame and stalls mid-line past
//! [`ServerConfig::frame_deadline`] is evicted with an
//! [`ErrorCode::Evicted`] frame (idle connections between frames are
//! never evicted); writes run under a fixed 5 s write deadline, so a
//! peer that stops reading cannot pin a handler thread; and past
//! [`ServerConfig::overload_shed_at`] concurrent connections the server
//! sheds `Observe` with [`ErrorCode::Overloaded`] while keeping `Decide`
//! live — decisions are read-only table walks and stay cheap, while
//! observes mutate state and can be replayed later by a sequence-number
//! retrying client. All three show up in [`ServerMetrics`].
//!
//! Each connection is a socket loop over a transport-free `Session`: the
//! session turns every read into at most one response plus what the
//! connection does next, and holds the handshake, dispatch and every
//! request metric; the loop only frames, writes, drains, polls the
//! shutdown flag and counts evictions.
//!
//! Fault injection: the server is generic over [`IoLayer`]. Production
//! uses the zero-sized [`NoFaults`] (identity wrap — the monomorphized
//! code is the raw `TcpStream` path); chaos tests pass an
//! `Arc<FaultPlan>` via [`Server::bind_with_layer`] and every connection
//! then runs through a seeded [`crate::fault::ChaosStream`] schedule.
//!
//! Graceful shutdown: the flag flips, a dummy self-connection wakes the
//! blocking accept, and in-flight connections drain — every connection
//! reads with a short timeout, notices the flag at the next boundary,
//! and closes after finishing the request in hand. Once every handler
//! has joined, the ring's final cut is written if a
//! [`ServerConfig::checkpoint_ring`] is configured, and `serve` returns.
//! That ring is the daemon's one snapshot location: every snapshot
//! write is its next entry, under one `ring` lock, so writers never race
//! for a sequence number or prune each other's temp files.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::fault::{IoLayer, NoFaults};
use crate::locks::{rank, OrderedLock};
use crate::metrics::ServerMetrics;
use crate::protocol::{
    ErrorCode, ProtocolError, Request, Response, WireShare, MAX_LINE_BYTES, PROTOCOL_VERSION,
};
use crate::snapshot::{self, SnapshotRing};
use crate::state::FleetState;

/// How long a connection read blocks before re-checking the shutdown
/// flag; the upper bound on drain latency for an idle connection.
const READ_POLL: Duration = Duration::from_millis(250);

/// Default [`ServerConfig::frame_deadline`]: generous for real clients
/// (frames are tens of bytes), fatal for slow-loris ones.
const DEFAULT_FRAME_DEADLINE: Duration = Duration::from_secs(5);

/// Socket write timeout; a peer that stops reading long enough to block
/// a response write this long is dropped (and counted evicted).
const WRITE_DEADLINE: Duration = Duration::from_secs(5);

/// Polling cadence of the periodic ring-checkpoint thread.
const RING_POLL: Duration = Duration::from_millis(20);

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Maximum concurrent connections; further accepts wait for a slot.
    /// `0` means the default (64).
    pub max_connections: usize,
    /// Directory of the retained snapshot ring, the daemon's one snapshot
    /// location: `checkpoint` requests, the periodic writes (see
    /// [`ServerConfig::checkpoint_every`]) and a final cut on graceful
    /// shutdown land here, and `restore` requests read from here. `None`
    /// disables the ring, and with it `checkpoint` and `restore`.
    pub checkpoint_ring: Option<PathBuf>,
    /// Snapshots retained in the ring; `0` means the default (4).
    pub ring_keep: usize,
    /// Cadence of periodic ring checkpoints while serving; `None` means
    /// ring checkpoints happen only at graceful shutdown.
    pub checkpoint_every: Option<Duration>,
    /// How long a connection may stall *mid-frame* before being evicted
    /// (idle connections between frames are exempt). `None` means the
    /// default (5 s).
    pub frame_deadline: Option<Duration>,
    /// Concurrent-connection count above which `Observe` requests are
    /// shed with [`ErrorCode::Overloaded`] (`Decide`/`Stats` stay live).
    /// `0` disables shedding.
    pub overload_shed_at: usize,
}

/// Everything connection handlers share.
struct Shared<L: IoLayer> {
    state: FleetState,
    metrics: ServerMetrics,
    shutdown: AtomicBool,
    addr: SocketAddr,
    layer: L,
    /// Live connection count (mirrors the admission gate, readable
    /// without its lock) — the overload-shed signal.
    active: AtomicUsize,
    frame_deadline: Duration,
    overload_shed_at: usize,
    /// The snapshot ring, if configured: one writer or restorer at a time.
    ring: Option<OrderedLock<SnapshotRing>>,
}

impl<L: IoLayer> Shared<L> {
    /// Flips the shutdown flag. A blocking `accept` only notices the
    /// flag on its next return, so poke it with a throwaway connection.
    fn shut_down(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }

    /// The snapshot ring, or the error a daemon without one answers
    /// `checkpoint` and `restore` with.
    fn ring(&self) -> Result<&OrderedLock<SnapshotRing>, ProtocolError> {
        self.ring.as_ref().ok_or_else(|| {
            let message = "no snapshot ring configured (--checkpoint-ring)";
            ProtocolError::new(ErrorCode::Snapshot, message)
        })
    }

    /// Writes the state into the ring's next entry, through the layer's
    /// crash hook. Returns the path written; `Ok(None)` means the hook
    /// killed the writer.
    fn write_ring(&self, ring: &OrderedLock<SnapshotRing>) -> io::Result<Option<PathBuf>> {
        // reap-lint: acquires(ring)
        let ring = ring.lock();
        ring.write_with(&self.state, &self.layer)
    }
}

/// A bound, not-yet-serving daemon. Grab [`Server::local_addr`] and a
/// [`ServerHandle`] before calling [`Server::serve`] (which blocks until
/// shutdown).
pub struct Server<L: IoLayer = NoFaults> {
    listener: TcpListener,
    shared: Arc<Shared<L>>,
    max_connections: usize,
    checkpoint_every: Option<Duration>,
}

/// A cheap clonable handle that can stop a running [`Server`] from any
/// thread (or signal handler watcher).
pub struct ServerHandle<L: IoLayer = NoFaults> {
    shared: Arc<Shared<L>>,
}

impl<L: IoLayer> Clone for ServerHandle<L> {
    fn clone(&self) -> Self {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<L: IoLayer> ServerHandle<L> {
    /// Requests graceful shutdown: stop accepting, drain in-flight
    /// connections, write the ring's final cut if a ring is configured.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.shared.shut_down();
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

impl Server<NoFaults> {
    /// Binds the daemon to `addr` over `state`, and opens the snapshot
    /// ring (creating its directory) if one is configured. Bind port 0
    /// to let the kernel pick a free port (read it back with
    /// [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, or the failure to create the ring
    /// directory.
    pub fn bind(
        addr: impl ToSocketAddrs,
        state: FleetState,
        config: ServerConfig,
    ) -> io::Result<Server> {
        Server::bind_with_layer(addr, state, config, NoFaults)
    }
}

impl<L: IoLayer> Server<L> {
    /// [`Server::bind`] with an explicit [`IoLayer`] — the chaos tests'
    /// entry point (`Arc<FaultPlan>` wraps every connection in a seeded
    /// fault schedule and arms the snapshot writer's crash hook).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, or the failure to create the ring
    /// directory.
    pub fn bind_with_layer(
        addr: impl ToSocketAddrs,
        state: FleetState,
        config: ServerConfig,
        layer: L,
    ) -> io::Result<Server<L>> {
        let ring = match config.checkpoint_ring {
            Some(dir) => {
                let keep = if config.ring_keep == 0 {
                    4
                } else {
                    config.ring_keep
                };
                let ring = SnapshotRing::create(dir, keep)?;
                Some(OrderedLock::new("ring", rank::RING, 0, ring))
            }
            None => None,
        };
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                state,
                metrics: ServerMetrics::new(),
                shutdown: AtomicBool::new(false),
                addr,
                layer,
                active: AtomicUsize::new(0),
                frame_deadline: config.frame_deadline.unwrap_or(DEFAULT_FRAME_DEADLINE),
                overload_shed_at: config.overload_shed_at,
                ring,
            }),
            max_connections: if config.max_connections == 0 {
                64
            } else {
                config.max_connections
            },
            checkpoint_every: config.checkpoint_every,
        })
    }

    /// The address actually bound — with port 0, the kernel-assigned
    /// port appears here.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle that can stop this server from another thread.
    #[must_use]
    pub fn handle(&self) -> ServerHandle<L> {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Accepts and serves connections until shutdown, then drains
    /// in-flight connections and writes the ring's final cut (if a ring
    /// is configured). Returns once the last connection has closed.
    ///
    /// # Errors
    ///
    /// Propagates the final cut's write failure; accept errors on
    /// individual connections are skipped, not fatal, and periodic ring
    /// checkpoint failures are logged to stderr rather than killing the
    /// daemon (an injected crash is not logged: a real one wouldn't be).
    pub fn serve(self) -> io::Result<()> {
        // Periodic ring checkpoints run off the request path: a helper
        // thread snapshots the fleet (crash-safely) every
        // `checkpoint_every` until shutdown.
        let ring_thread: Option<JoinHandle<()>> = match (&self.shared.ring, self.checkpoint_every) {
            (Some(_), Some(every)) => {
                let shared = Arc::clone(&self.shared);
                Some(std::thread::spawn(move || {
                    let Some(ring) = &shared.ring else { return };
                    let mut last = Instant::now();
                    while !shared.shutdown.load(Ordering::SeqCst) {
                        std::thread::sleep(RING_POLL.min(every));
                        if last.elapsed() >= every {
                            if let Err(e) = shared.write_ring(ring) {
                                eprintln!("reap-serve: ring checkpoint failed: {e}");
                            }
                            last = Instant::now();
                        }
                    }
                }))
            }
            _ => None,
        };

        let gate = Arc::new((
            OrderedLock::new("admission", rank::ADMISSION, 0, 0usize),
            Condvar::new(),
        ));
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();

        for incoming in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = incoming else { continue };
            // The shutdown self-connect lands here: re-check before
            // admitting it as a real session.
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            handlers.retain(|h| !h.is_finished());
            {
                let (count, cv) = &*gate;
                // reap-lint: acquires(admission)
                let active = count.lock();
                let max = self.max_connections;
                let mut active = count.wait_while(active, cv, |n| *n >= max);
                *active += 1;
            }
            self.shared.active.fetch_add(1, Ordering::SeqCst);
            self.shared
                .metrics
                .connections
                .fetch_add(1, Ordering::Relaxed);
            let shared = Arc::clone(&self.shared);
            let gate = Arc::clone(&gate);
            handlers.push(std::thread::spawn(move || {
                handle_connection(stream, &shared);
                shared.active.fetch_sub(1, Ordering::SeqCst);
                let (count, cv) = &*gate;
                // reap-lint: acquires(admission)
                let mut active = count.lock();
                *active -= 1;
                cv.notify_one();
            }));
        }

        // Drain: every handler notices the flag within one read-poll.
        for h in handlers {
            let _ = h.join();
        }
        if let Some(h) = ring_thread {
            let _ = h.join();
        }
        if let Some(ring) = &self.shared.ring {
            // One last durable cut of the drained state: the exit
            // checkpoint.
            self.shared.write_ring(ring)?;
        }
        Ok(())
    }
}

/// What one attempt to pull a line off the socket produced.
enum ReadOutcome {
    Line(Vec<u8>),
    Eof,
    TimedOut,
    Oversized,
    /// The peer stalled mid-frame past the frame deadline.
    Stalled,
    Failed,
}

/// Incremental line framing over a read-timeout socket: bytes accumulate
/// across timeouts, lines split off as newlines arrive. A frame that
/// stays incomplete past `frame_deadline` reports [`ReadOutcome::Stalled`]
/// (the slow-loris defense); an idle socket with no partial frame can
/// wait forever.
struct LineReader<S> {
    stream: S,
    pending: Vec<u8>,
    frame_deadline: Duration,
    frame_start: Option<Instant>,
}

impl<S: Read> LineReader<S> {
    fn new(stream: S, frame_deadline: Duration) -> LineReader<S> {
        LineReader {
            stream,
            pending: Vec::new(),
            frame_deadline,
            frame_start: None,
        }
    }

    fn next_line(&mut self) -> ReadOutcome {
        loop {
            if let Some(nl) = self.pending.iter().position(|&b| b == b'\n') {
                // A complete line that still busts the cap is just as
                // oversized as one with no newline in sight — without
                // this check a single big read chunk could smuggle an
                // arbitrarily long line past the cap.
                if nl >= MAX_LINE_BYTES {
                    return ReadOutcome::Oversized;
                }
                let mut line: Vec<u8> = self.pending.drain(..=nl).collect();
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                self.frame_start = None;
                return ReadOutcome::Line(line);
            }
            if self.pending.len() >= MAX_LINE_BYTES {
                return ReadOutcome::Oversized;
            }
            if self.pending.is_empty() {
                self.frame_start = None;
            } else if self.frame_start.is_none() {
                self.frame_start = Some(Instant::now());
            }
            if let Some(t0) = self.frame_start {
                if t0.elapsed() >= self.frame_deadline {
                    return ReadOutcome::Stalled;
                }
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadOutcome::Eof,
                // reap-lint: allow(panic:index) -- Read contract: n <= chunk.len()
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return ReadOutcome::TimedOut;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Failed,
            }
        }
    }

    /// Discards buffered and in-flight input before a server-initiated
    /// close. Closing with unread bytes in the receive buffer makes the
    /// kernel send RST, which can destroy the error frame we just queued;
    /// draining (bounded, so a firehosing peer can't pin the thread)
    /// lets the close go out as a clean FIN after the frame.
    fn drain_before_close(&mut self) {
        self.pending.clear();
        let mut chunk = [0u8; 4096];
        for _ in 0..256 {
            match self.stream.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
        }
    }
}

/// What the connection does after the session has answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Next {
    /// Read the next frame, unless shutdown has begun.
    Read,
    /// Close: the peer is gone, or its handshake was refused.
    Close,
    /// Discard unread input, then close: the frame boundary is gone.
    Drain,
    /// [`Next::Drain`], and count the connection evicted.
    Evict,
    /// Once the acknowledgement is written, shut the server down and
    /// close.
    Shutdown,
}

/// One connection's protocol, with no transport: the handshake state,
/// UTF-8 and decode errors, blank lines, overload shedding, dispatch and
/// every request metric. The socket loop ([`handle_connection`]) hands it
/// what each read produced and writes back what it answers.
struct Session<'a, L: IoLayer> {
    shared: &'a Shared<L>,
    greeted: bool,
}

impl<L: IoLayer> Session<'_, L> {
    /// Answers one read with at most one response, and says what the
    /// connection does next. Every error frame is counted here.
    fn answer(&mut self, read: ReadOutcome) -> (Option<Response>, Next) {
        let (answer, next) = match read {
            ReadOutcome::Line(line) => self.line(&line),
            ReadOutcome::TimedOut => (None, Next::Read),
            ReadOutcome::Eof | ReadOutcome::Failed => (None, Next::Close),
            // The frame boundary is gone (or the frame is absurd).
            ReadOutcome::Oversized => {
                let message = format!("line exceeds {MAX_LINE_BYTES} bytes");
                let error = ProtocolError::new(ErrorCode::Oversized, message);
                (Some(Err(error)), Next::Drain)
            }
            // Slow-loris eviction: a typed frame (best-effort — the peer
            // may not be reading), then close.
            ReadOutcome::Stalled => {
                let deadline = self.shared.frame_deadline;
                let message =
                    format!("frame not completed within {deadline:?}; connection evicted");
                let error = ProtocolError::new(ErrorCode::Evicted, message);
                (Some(Err(error)), Next::Evict)
            }
        };
        let response = answer.map(|answer| {
            answer.unwrap_or_else(|e| {
                self.shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                Response::from(e)
            })
        });
        (response, next)
    }

    /// Answers one line: a blank one with nothing, and each line before
    /// a successful `hello` as part of the handshake.
    fn line(&mut self, line: &[u8]) -> (Option<Result<Response, ProtocolError>>, Next) {
        let request = match std::str::from_utf8(line) {
            Ok(text) if text.trim().is_empty() => return (None, Next::Read),
            Ok(text) => Request::decode(text),
            Err(_) => Err(ProtocolError::new(
                ErrorCode::Malformed,
                "frame is not UTF-8",
            )),
        };
        let (answer, next) = match request {
            Ok(request) if self.greeted => {
                self.shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
                let next = match request {
                    Request::Shutdown => Next::Shutdown,
                    _ => Next::Read,
                };
                (self.dispatch(request), next)
            }
            Ok(Request::Hello { version }) if version == PROTOCOL_VERSION => {
                self.greeted = true;
                let users = self.shared.state.users();
                (Ok(Response::Welcome { version, users }), Next::Read)
            }
            Ok(Request::Hello { version }) => {
                let message = format!("client speaks v{version}, server v{PROTOCOL_VERSION}");
                let refusal = ProtocolError::new(ErrorCode::Version, message);
                (Err(refusal), Next::Close)
            }
            Ok(_) => {
                let message = "first frame must be a hello";
                let refusal = ProtocolError::new(ErrorCode::Handshake, message);
                (Err(refusal), Next::Close)
            }
            Err(e) => (Err(e), Next::Read),
        };
        (Some(answer), next)
    }

    /// Serves one request of a greeted session, counting it by kind.
    fn dispatch(&self, request: Request) -> Result<Response, ProtocolError> {
        let shared = self.shared;
        let metrics = &shared.metrics;
        Ok(match request {
            Request::Hello { .. } => {
                let message = "session already greeted";
                return Err(ProtocolError::new(ErrorCode::Handshake, message));
            }
            Request::Observe {
                user,
                hour,
                harvest_j,
                activity,
                seq,
            } => {
                let shed_at = shared.overload_shed_at;
                if shed_at != 0 && shared.active.load(Ordering::SeqCst) > shed_at {
                    // Overload mode: shed the mutating request class,
                    // keep decisions live. A seq-carrying client replays
                    // the observe after backoff with no double-count.
                    metrics.shed.fetch_add(1, Ordering::Relaxed);
                    let message = "shedding observes under overload; retry after backoff";
                    return Err(ProtocolError::new(ErrorCode::Overloaded, message));
                }
                let t0 = Instant::now();
                let outcome = shared
                    .state
                    .observe_seq(user, hour, harvest_j, activity, seq);
                metrics.observe_latency.record(t0.elapsed());
                metrics.observes.fetch_add(1, Ordering::Relaxed);
                let budget_j = outcome?;
                Response::Observed {
                    user,
                    hour: hour % 24,
                    budget_j,
                }
            }
            Request::Decide { user } => {
                let t0 = Instant::now();
                let outcome = shared.state.decide(user);
                metrics.decide_latency.record(t0.elapsed());
                metrics.decides.fetch_add(1, Ordering::Relaxed);
                let out = outcome?;
                Response::Decision {
                    user,
                    budget_j: out.budget_j,
                    accuracy: out.decision.eval.accuracy,
                    active_s: out.decision.eval.active_s,
                    energy_j: out.decision.eval.energy_j,
                    off_s: out.decision.off_s,
                    shares: out
                        .decision
                        .shares()
                        .iter()
                        .map(|s| WireShare {
                            id: s.id,
                            seconds: s.seconds,
                        })
                        .collect(),
                }
            }
            Request::Stats => Response::Stats {
                fleet: shared.state.fleet_stats(),
                server: metrics.server_stats(),
            },
            Request::Checkpoint => {
                metrics.checkpoints.fetch_add(1, Ordering::Relaxed);
                let message = match shared.write_ring(shared.ring()?) {
                    Ok(Some(path)) => {
                        let bytes = snapshot::snapshot_len(shared.state.users()) as u64;
                        let path = path.display().to_string();
                        return Ok(Response::CheckpointDone { path, bytes });
                    }
                    Ok(None) => "checkpoint writer crashed (injected)".to_string(),
                    Err(e) => format!("writing the ring: {e}"),
                };
                return Err(ProtocolError::new(ErrorCode::Snapshot, message));
            }
            Request::Restore => {
                metrics.restores.fetch_add(1, Ordering::Relaxed);
                // reap-lint: acquires(ring)
                let message = match shared.ring()?.lock().recover(&shared.state) {
                    Ok(Some(r)) => {
                        let (path, users) = (r.path.display().to_string(), r.users);
                        return Ok(Response::RestoreDone { path, users });
                    }
                    Ok(None) => "the ring holds no snapshot of this fleet".to_string(),
                    Err(e) => format!("reading the ring: {e}"),
                };
                return Err(ProtocolError::new(ErrorCode::Snapshot, message));
            }
            Request::Shutdown => Response::ShuttingDown,
        })
    }
}

/// Runs one connection until EOF, a refused handshake, eviction or
/// shutdown: reads frames off the socket, writes back the [`Session`]'s
/// answers, and does what it says comes next. The only code that
/// touches the stream.
fn handle_connection<L: IoLayer>(stream: TcpStream, shared: &Shared<L>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_DEADLINE));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = LineReader::new(shared.layer.wrap(read_half), shared.frame_deadline);
    let mut stream = shared.layer.wrap(stream);
    let mut session = Session {
        shared,
        greeted: false,
    };
    loop {
        let (response, next) = session.answer(reader.next_line());
        let sent = response.map_or(Ok(()), |response| {
            let mut line = response.encode();
            line.push('\n');
            stream.write_all(line.as_bytes())
        });
        // A peer that stalled mid-frame, or stopped reading long enough
        // to blow the write deadline, is evicted: counted once.
        let blew_deadline = sent
            .as_ref()
            .is_err_and(|e| matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut));
        if next == Next::Evict || blew_deadline {
            shared.metrics.evicted.fetch_add(1, Ordering::Relaxed);
        }
        match next {
            Next::Drain | Next::Evict => {
                reader.drain_before_close();
                return;
            }
            _ if sent.is_err() => return,
            // The acknowledgement is on the wire: now stop the server.
            Next::Shutdown => {
                shared.shut_down();
                return;
            }
            // The frame in hand is answered; a draining server closes.
            Next::Read if !shared.shutdown.load(Ordering::SeqCst) => {}
            Next::Read | Next::Close => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MAX_OBSERVE_VALUE;
    use proptest::prelude::*;
    use reap_sim::Fleet;

    fn fleet() -> Fleet {
        Fleet::builder(reap_device::paper_table2_operating_points())
            .users(4)
            .days(1)
            .seed(3)
            .build()
            .unwrap()
    }

    /// What a server shares with its sessions, with no socket bound.
    fn shared(overload_shed_at: usize) -> Shared<NoFaults> {
        Shared {
            state: FleetState::new(&fleet(), 2).unwrap(),
            metrics: ServerMetrics::new(),
            shutdown: AtomicBool::new(false),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            layer: NoFaults,
            // This session and one other connection are live, so a
            // threshold of 1 sheds every observe.
            active: AtomicUsize::new(2),
            frame_deadline: DEFAULT_FRAME_DEADLINE,
            overload_shed_at,
            ring: None,
        }
    }

    fn feed(session: &mut Session<'_, NoFaults>, line: &[u8]) -> (Option<Response>, Next) {
        session.answer(ReadOutcome::Line(line.to_vec()))
    }

    fn code(answer: (Option<Response>, Next)) -> (Option<ErrorCode>, Next) {
        match answer {
            (Some(Response::Error { code, .. }), next) => (Some(code), next),
            (_, next) => (None, next),
        }
    }

    #[test]
    fn the_handshake_and_framing_outcomes_without_a_socket() {
        let shared = shared(0);
        let mut session = Session {
            shared: &shared,
            greeted: false,
        };
        let hello = b"{\"type\":\"hello\",\"version\":3}";
        // Before the handshake: nothing for a blank line, `malformed`
        // for a non-UTF-8 or malformed one, and the session reads on.
        assert_eq!(feed(&mut session, b" \t"), (None, Next::Read));
        let malformed = (Some(ErrorCode::Malformed), Next::Read);
        assert_eq!(code(feed(&mut session, b"\xff\xfe{}")), malformed);
        assert_eq!(code(feed(&mut session, b"{\"type\":")), malformed);
        // A wrong version, or a decoded frame other than `hello`: an
        // error, then close.
        let wrong = b"{\"type\":\"hello\",\"version\":1}";
        let version = (Some(ErrorCode::Version), Next::Close);
        assert_eq!(code(feed(&mut session, wrong)), version);
        let handshake = (Some(ErrorCode::Handshake), Next::Close);
        assert_eq!(code(feed(&mut session, b"{\"type\":\"stats\"}")), handshake);
        let stats = shared.metrics.server_stats();
        assert_eq!((stats.requests, stats.errors), (0, 4));

        let welcome = Response::Welcome {
            version: PROTOCOL_VERSION,
            users: 4,
        };
        assert_eq!(feed(&mut session, hello), (Some(welcome), Next::Read));
        // A second `hello` is a request answered with `handshake`.
        let again = (Some(ErrorCode::Handshake), Next::Read);
        assert_eq!(code(feed(&mut session, hello)), again);
        let stats = shared.metrics.server_stats();
        assert_eq!((stats.requests, stats.errors), (1, 5));
        let shutdown = feed(&mut session, b"{\"type\":\"shutdown\"}");
        assert_eq!(shutdown, (Some(Response::ShuttingDown), Next::Shutdown));

        // Framing outcomes.
        assert_eq!(session.answer(ReadOutcome::TimedOut), (None, Next::Read));
        assert_eq!(session.answer(ReadOutcome::Eof), (None, Next::Close));
        assert_eq!(session.answer(ReadOutcome::Failed), (None, Next::Close));
        let oversized = (Some(ErrorCode::Oversized), Next::Drain);
        assert_eq!(code(session.answer(ReadOutcome::Oversized)), oversized);
        let stalled = (Some(ErrorCode::Evicted), Next::Evict);
        assert_eq!(code(session.answer(ReadOutcome::Stalled)), stalled);
        let stats = shared.metrics.server_stats();
        assert_eq!((stats.requests, stats.errors, stats.evicted), (2, 7, 0));
    }

    fn arb_harvest() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(f64::MAX),
            Just(1e307),
            Just(MAX_OBSERVE_VALUE),
            Just(MAX_OBSERVE_VALUE.next_down()),
            Just(MAX_OBSERVE_VALUE.next_up()),
            Just(-1.0),
            0.0f64..5.0,
        ]
    }

    fn arb_activity() -> impl Strategy<Value = Option<f64>> {
        prop_oneof![
            Just(None),
            Just(Some(f64::MAX)),
            Just(Some(-MAX_OBSERVE_VALUE)),
            Just(Some(-MAX_OBSERVE_VALUE.next_up())),
            (-1.0f64..1.0).prop_map(Some),
        ]
    }

    fn arb_request() -> impl Strategy<Value = Request> {
        prop_oneof![
            (0u32..4).prop_map(|version| Request::Hello { version }),
            (
                0u32..6,
                0u32..48,
                arb_harvest(),
                arb_activity(),
                prop_oneof![Just(None), (0u64..4).prop_map(Some)],
            )
                .prop_map(|(user, hour, harvest_j, activity, seq)| {
                    Request::Observe {
                        user,
                        hour,
                        harvest_j,
                        activity,
                        seq,
                    }
                }),
            (0u32..6).prop_map(|user| Request::Decide { user }),
            Just(Request::Stats),
            // With no ring, both fail before touching the file system.
            Just(Request::Checkpoint),
            Just(Request::Restore),
            Just(Request::Shutdown),
        ]
    }

    fn arb_line() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            arb_request().prop_map(|r| r.encode().into_bytes()),
            arb_request().prop_map(|r| r.encode().into_bytes()),
            arb_request().prop_map(|r| r.encode().into_bytes()),
            Just(
                Request::Hello {
                    version: PROTOCOL_VERSION
                }
                .encode()
                .into_bytes()
            ),
            proptest::sample::select(vec!["", " \t", "not json", "{\"type\":\"nope\"}", "{"])
                .prop_map(|s| s.as_bytes().to_vec()),
            Just(vec![0xff, 0xfe, b'{', b'}']),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sessions_keep_the_metric_identities_and_a_restorable_state(
            lines in proptest::collection::vec(arb_line(), 0..48),
            shedding in 0usize..2,
        ) {
            let shared = shared(shedding);
            let mut session = Session { shared: &shared, greeted: false };
            let (mut greeted, mut requests, mut errors, mut observes, mut decides) =
                (false, 0, 0, 0, 0);
            let mut checkpoints = 0;
            for line in lines {
                let text = std::str::from_utf8(&line).ok();
                let blank = text.is_some_and(|text| text.trim().is_empty());
                let request = text.and_then(|text| Request::decode(text).ok());
                let (response, next) = session.answer(ReadOutcome::Line(line));
                prop_assert_eq!(response.is_none(), blank);
                if let (true, Some(request)) = (greeted, &request) {
                    requests += 1;
                    observes += u64::from(matches!(request, Request::Observe { .. }));
                    decides += u64::from(matches!(request, Request::Decide { .. }));
                    checkpoints += u64::from(matches!(request, Request::Checkpoint));
                }
                errors += u64::from(matches!(response, Some(Response::Error { .. })));
                greeted |= matches!(response, Some(Response::Welcome { .. }));
                if matches!(next, Next::Close | Next::Shutdown) {
                    // The connection closes; the next line opens another.
                    session = Session { shared: &shared, greeted: false };
                    greeted = false;
                }
            }
            let server = shared.metrics.server_stats();
            prop_assert_eq!(server.requests, requests);
            prop_assert_eq!(server.errors, errors);
            prop_assert_eq!(server.observes + server.shed, observes);
            prop_assert_eq!(server.decides, decides);
            prop_assert_eq!(server.checkpoints, checkpoints);

            // Whatever the session accepted, the state round-trips.
            let fleet_stats = shared.state.fleet_stats();
            let fresh = FleetState::new(&fleet(), 3).unwrap();
            prop_assert!(snapshot::restore(&fresh, &snapshot::snapshot(&shared.state)).is_ok());
            prop_assert_eq!(fresh.fleet_stats().encode(), fleet_stats.encode());
            let stats = Response::Stats { fleet: fleet_stats, server };
            prop_assert_eq!(Response::decode(&stats.encode()), Ok(stats));
        }
    }
}
