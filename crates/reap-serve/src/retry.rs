//! A self-healing client: reconnects, backoff, and bounded retries for
//! idempotent requests.
//!
//! [`RetryClient`] wraps [`Client`] with the full recovery loop a real
//! deployment needs against a flaky network or a restarting daemon:
//!
//! - **Per-request deadlines** — every logical request carries a wall
//!   clock budget ([`RetryConfig::request_deadline`]) covering all
//!   attempts *including* reconnects; socket reads and writes run under
//!   a matching I/O timeout so a dead peer can't block forever.
//! - **Reconnect with exponential backoff + decorrelated jitter** — the
//!   AWS-style schedule (`sleep = clamp(base, rand(base, prev * 3),
//!   max)`) that avoids thundering-herd lockstep when a fleet of clients
//!   chases one restarting server. Jitter is seeded and deterministic
//!   ([`RetryConfig::seed`]), so chaos tests replay exactly.
//! - **Retries only where idempotence holds** — `Decide` and `Stats`
//!   are read-only; `Observe` is made replay-safe by stamping each
//!   logical observe with a sequence number ([`RetryClient::observe`])
//!   that the server deduplicates, so an observe whose response was lost
//!   mid-frame can be resent without double-counting energy. Retried
//!   attempts reuse the *same* seq. Non-idempotent requests
//!   (`Checkpoint`, `Restore`, `Shutdown`) go through
//!   [`RetryClient::request_once`] with no retry.
//! - **Typed exhaustion errors** — callers can tell "the server said no"
//!   ([`RetryError::Server`]) from "I gave up retrying"
//!   ([`RetryError::Exhausted`] / [`RetryError::Deadline`]).
//!
//! Server-sent [`ErrorCode::Overloaded`] (shed observe) and
//! [`ErrorCode::Evicted`] frames are treated as retryable — back off and
//! try again — while every other typed error is terminal.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::client::Client;
use crate::fault::{splitmix_step, IoLayer, NoFaults};
use crate::protocol::{ErrorCode, FleetStats, ProtocolError, Request, Response, ServerStats};

/// Tuning for a [`RetryClient`].
#[derive(Debug, Clone)]
pub struct RetryConfig {
    /// Maximum attempts per logical request (first try included);
    /// `0` is treated as 1.
    pub max_attempts: u32,
    /// Backoff floor (first retry waits at least this long).
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Wall-clock budget per logical request, spanning every attempt,
    /// backoff sleep, and reconnect. Also used as the socket I/O
    /// timeout.
    pub request_deadline: Duration,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for RetryConfig {
    fn default() -> RetryConfig {
        RetryConfig {
            max_attempts: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            request_deadline: Duration::from_secs(30),
            seed: 0x5EED_CAFE,
        }
    }
}

/// Why a [`RetryClient`] request ultimately failed.
#[derive(Debug)]
pub enum RetryError {
    /// Every allowed attempt failed with a retryable error; `last` is
    /// the final failure.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// The last retryable failure, stringified.
        last: String,
    },
    /// The per-request deadline elapsed before any attempt succeeded.
    Deadline {
        /// Time spent before giving up.
        elapsed: Duration,
        /// The last retryable failure, stringified.
        last: String,
    },
    /// The server answered with a terminal (non-retryable) typed error.
    Server(ProtocolError),
}

impl std::fmt::Display for RetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetryError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
            RetryError::Deadline { elapsed, last } => {
                write!(
                    f,
                    "request deadline elapsed after {elapsed:?}; last error: {last}"
                )
            }
            RetryError::Server(e) => write!(f, "server error ({}): {}", e.code, e.message),
        }
    }
}

impl std::error::Error for RetryError {}

impl From<ProtocolError> for RetryError {
    fn from(e: ProtocolError) -> RetryError {
        RetryError::Server(e)
    }
}

/// A [`Client`] wrapper that heals itself across connection resets,
/// server restarts, evictions, and overload sheds. See the module docs
/// for the retry policy.
pub struct RetryClient<L: IoLayer = NoFaults> {
    addr: SocketAddr,
    layer: L,
    config: RetryConfig,
    client: Option<Client>,
    /// Decorrelated-jitter state: the previous sleep in milliseconds.
    prev_sleep_ms: u64,
    rng: u64,
    next_seq: u64,
    users: u32,
    ever_connected: bool,
    retries: u64,
    reconnects: u64,
}

impl RetryClient<NoFaults> {
    /// Connects (retrying within the deadline) and performs the
    /// handshake.
    ///
    /// # Errors
    ///
    /// [`RetryError::Deadline`] / [`RetryError::Exhausted`] if no
    /// connection could be established in time.
    pub fn connect(
        addr: impl ToSocketAddrs,
        config: RetryConfig,
    ) -> Result<RetryClient, RetryError> {
        RetryClient::connect_with_layer(addr, config, NoFaults)
    }
}

impl<L: IoLayer> RetryClient<L> {
    /// [`RetryClient::connect`] through an explicit [`IoLayer`] so chaos
    /// tests inject faults on the client side of the wire too.
    ///
    /// # Errors
    ///
    /// Address resolution failure (reported as exhaustion with zero
    /// attempts), or retry exhaustion / deadline while connecting.
    pub fn connect_with_layer(
        addr: impl ToSocketAddrs,
        config: RetryConfig,
        layer: L,
    ) -> Result<RetryClient<L>, RetryError> {
        let addr = addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut a| a.next())
            .ok_or_else(|| RetryError::Exhausted {
                attempts: 0,
                last: "address did not resolve".to_string(),
            })?;
        let mut rc = RetryClient {
            addr,
            layer,
            prev_sleep_ms: config.base_backoff.as_millis() as u64,
            rng: splitmix_step(config.seed),
            config,
            client: None,
            next_seq: 1,
            users: 0,
            ever_connected: false,
            retries: 0,
            reconnects: 0,
        };
        let deadline = Instant::now() + rc.config.request_deadline;
        loop {
            match rc.ensure_connected() {
                Ok(_) => return Ok(rc),
                Err(e) => {
                    let last = format!("connect: {e}");
                    rc.backoff_or_deadline(deadline, &last)?;
                }
            }
        }
    }

    /// Resident users from the most recent welcome frame.
    #[must_use]
    pub fn users(&self) -> u32 {
        self.users
    }

    /// Attempts beyond the first, summed over all requests so far.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Successful re-handshakes after losing a connection.
    #[must_use]
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Points the client at a new address (a restarted or failed-over
    /// server), dropping any live session. Sequence numbering continues
    /// across the move, so observe replay-safety spans server restarts.
    ///
    /// # Errors
    ///
    /// Address resolution failure.
    // reap-lint: allow(api) -- chaos_e2e's SIGKILL drill points the client at the restarted daemon
    pub fn reconnect_to(&mut self, addr: impl ToSocketAddrs) -> Result<(), RetryError> {
        self.addr = addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut a| a.next())
            .ok_or_else(|| RetryError::Exhausted {
                attempts: 0,
                last: "address did not resolve".to_string(),
            })?;
        self.client = None;
        Ok(())
    }

    fn ensure_connected(&mut self) -> io::Result<&mut Client> {
        if self.client.is_none() {
            let client = Client::connect_with_layer(self.addr, &self.layer)?;
            client.set_io_timeout(Some(self.config.request_deadline))?;
            self.users = client.users();
            if self.ever_connected {
                // Re-establishing after a lost session; the first-ever
                // connect is not a reconnect.
                self.reconnects += 1;
            }
            self.ever_connected = true;
            self.client = Some(client);
        }
        match self.client.as_mut() {
            Some(session) => Ok(session),
            // Unreachable (the Option is Some on every path above), but
            // a typed error keeps the serving path panic-free.
            None => Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "session vanished during connect",
            )),
        }
    }

    /// Decorrelated jitter: `sleep = clamp(base, rand(base, prev * 3), max)`.
    fn next_backoff(&mut self) -> Duration {
        let base = self.config.base_backoff.as_millis() as u64;
        let max = self.config.max_backoff.as_millis() as u64;
        let hi = self.prev_sleep_ms.saturating_mul(3).max(base + 1);
        self.rng = splitmix_step(self.rng);
        let ms = (base + self.rng % (hi - base)).min(max.max(base));
        self.prev_sleep_ms = ms;
        Duration::from_millis(ms)
    }

    /// Sleeps one backoff step, or fails if it would cross `deadline`.
    fn backoff_or_deadline(&mut self, deadline: Instant, last: &str) -> Result<(), RetryError> {
        let sleep = self.next_backoff();
        let now = Instant::now();
        if now + sleep >= deadline {
            return Err(RetryError::Deadline {
                elapsed: self.config.request_deadline,
                last: last.to_string(),
            });
        }
        std::thread::sleep(sleep);
        Ok(())
    }

    /// Sends an *idempotent* request, retrying across I/O failures,
    /// reconnects, overload sheds, and evictions until it gets a
    /// non-error (or terminal-error) response.
    ///
    /// The caller is responsible for idempotence: `Decide`/`Stats` are
    /// safe as-is; observes must carry a seq (use
    /// [`RetryClient::observe`], which stamps one).
    ///
    /// # Errors
    ///
    /// [`RetryError::Server`] for terminal typed errors,
    /// [`RetryError::Exhausted`] / [`RetryError::Deadline`] when retries
    /// run out.
    pub fn request_idempotent(&mut self, request: &Request) -> Result<Response, RetryError> {
        let deadline = Instant::now() + self.config.request_deadline;
        let max_attempts = self.config.max_attempts.max(1);
        let mut last = "never attempted".to_string();
        let mut attempts = 0u32;
        while attempts < max_attempts {
            attempts += 1;
            if attempts > 1 {
                self.retries += 1;
            }
            let outcome = match self.ensure_connected() {
                Ok(session) => session.request(request),
                Err(e) => {
                    last = format!("connect: {e}");
                    self.backoff_or_deadline(deadline, &last)?;
                    continue;
                }
            };
            match outcome {
                Ok(Response::Error { code, message })
                    if matches!(code, ErrorCode::Overloaded | ErrorCode::Evicted) =>
                {
                    // Retryable server push-back. Eviction also killed
                    // the connection server-side; drop ours to match.
                    if code == ErrorCode::Evicted {
                        self.client = None;
                    }
                    last = format!("server ({code}): {message}");
                    self.backoff_or_deadline(deadline, &last)?;
                }
                Ok(Response::Error { code, message }) => {
                    return Err(RetryError::Server(ProtocolError::new(code, message)));
                }
                Ok(response) => return Ok(response),
                Err(e) => {
                    // Any transport failure invalidates the session: the
                    // response for the in-flight frame may be lost, and
                    // only idempotent requests ride this path.
                    self.client = None;
                    last = format!("io: {e}");
                    self.backoff_or_deadline(deadline, &last)?;
                }
            }
        }
        Err(RetryError::Exhausted {
            attempts: max_attempts,
            last,
        })
    }

    /// One observe, stamped with a fresh sequence number and retried
    /// until the server has durably applied it exactly once. Returns the
    /// resulting budget in joules.
    ///
    /// # Errors
    ///
    /// Same as [`RetryClient::request_idempotent`].
    pub fn observe(
        &mut self,
        user: u32,
        hour: u32,
        harvest_j: f64,
        activity: Option<f64>,
    ) -> Result<f64, RetryError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let request = Request::Observe {
            user,
            hour,
            harvest_j,
            activity,
            seq: Some(seq),
        };
        match self.request_idempotent(&request)? {
            Response::Observed { budget_j, .. } => Ok(budget_j),
            other => Err(RetryError::Server(ProtocolError::new(
                ErrorCode::BadRequest,
                format!("expected observed frame, got {other:?}"),
            ))),
        }
    }

    /// One decision, retried; returns the full decision frame.
    ///
    /// # Errors
    ///
    /// Same as [`RetryClient::request_idempotent`].
    pub fn decide(&mut self, user: u32) -> Result<Response, RetryError> {
        self.request_idempotent(&Request::Decide { user })
    }

    /// Fleet + server stats, retried.
    ///
    /// # Errors
    ///
    /// Same as [`RetryClient::request_idempotent`].
    pub fn stats(&mut self) -> Result<(FleetStats, ServerStats), RetryError> {
        match self.request_idempotent(&Request::Stats)? {
            Response::Stats { fleet, server } => Ok((fleet, server)),
            other => Err(RetryError::Server(ProtocolError::new(
                ErrorCode::BadRequest,
                format!("expected stats frame, got {other:?}"),
            ))),
        }
    }

    /// Sends a request exactly once, with no retry — the path for
    /// non-idempotent requests (`Checkpoint`, `Restore`, `Shutdown`).
    /// Connects first if no session is live (connection establishment
    /// alone is safe to perform eagerly).
    ///
    /// # Errors
    ///
    /// The underlying I/O error, stringified into
    /// [`RetryError::Exhausted`] with one attempt, or a terminal
    /// [`RetryError::Server`].
    // reap-lint: allow(api) -- chaos_e2e's SIGKILL drill sends each request exactly once
    pub fn request_once(&mut self, request: &Request) -> Result<Response, RetryError> {
        let outcome = match self.ensure_connected() {
            Ok(session) => session.request(request),
            Err(e) => {
                return Err(RetryError::Exhausted {
                    attempts: 1,
                    last: format!("connect: {e}"),
                });
            }
        };
        match outcome {
            Ok(Response::Error { code, message }) => {
                Err(RetryError::Server(ProtocolError::new(code, message)))
            }
            Ok(response) => Ok(response),
            Err(e) => {
                self.client = None;
                Err(RetryError::Exhausted {
                    attempts: 1,
                    last: format!("io: {e}"),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_jittered_bounded_and_deterministic() {
        let cfg = RetryConfig {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            seed: 7,
            ..RetryConfig::default()
        };
        let mk = || RetryClient::<NoFaults> {
            addr: "127.0.0.1:1".parse().expect("literal addr"),
            layer: NoFaults,
            prev_sleep_ms: cfg.base_backoff.as_millis() as u64,
            rng: splitmix_step(cfg.seed),
            config: cfg.clone(),
            client: None,
            next_seq: 1,
            users: 0,
            ever_connected: false,
            retries: 0,
            reconnects: 0,
        };
        let mut a = mk();
        let mut b = mk();
        let seq_a: Vec<Duration> = (0..16).map(|_| a.next_backoff()).collect();
        let seq_b: Vec<Duration> = (0..16).map(|_| b.next_backoff()).collect();
        assert_eq!(seq_a, seq_b, "same seed must replay the same schedule");
        for d in &seq_a {
            assert!(*d >= Duration::from_millis(10), "below base: {d:?}");
            assert!(*d <= Duration::from_millis(100), "above max: {d:?}");
        }
        // Jitter: the schedule should not be constant.
        assert!(
            seq_a.windows(2).any(|w| w[0] != w[1]),
            "schedule is flat: {seq_a:?}"
        );
        // Different seed, different schedule.
        let mut c = mk();
        c.rng = splitmix_step(cfg.seed + 1);
        let seq_c: Vec<Duration> = (0..16).map(|_| c.next_backoff()).collect();
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn connecting_to_a_dead_port_exhausts_with_a_typed_error() {
        // Port 1 on loopback refuses instantly; keep the deadline tiny.
        let cfg = RetryConfig {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            request_deadline: Duration::from_millis(80),
            seed: 3,
        };
        let err = match RetryClient::connect("127.0.0.1:1", cfg) {
            Ok(_) => panic!("nothing listens on port 1"),
            Err(e) => e,
        };
        match err {
            RetryError::Deadline { last, .. } | RetryError::Exhausted { last, .. } => {
                assert!(!last.is_empty());
            }
            RetryError::Server(e) => panic!("unexpected server error: {e:?}"),
        }
    }
}
