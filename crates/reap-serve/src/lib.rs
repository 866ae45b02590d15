//! Fleet-as-a-service: a resident policy daemon for REAP populations.
//!
//! The simulator answers "what would a month look like"; deployments ask
//! a different question — "this hour just happened, what budget does
//! this user get next?" — thousands of times a second, across a whole
//! fleet, without rebuilding state per request. This crate keeps the
//! population *resident*: per-user EWMA allocators, open-loop virtual
//! batteries, and running accumulators live in sharded memory
//! ([`FleetState`]), with a precomputed plan frontier per user, so an
//! allocation decision is a cached-table walk instead of an LP solve.
//!
//! On top of that state sits a persistent std-only TCP daemon
//! ([`Server`]): newline-delimited JSON frames ([`protocol`]) with a
//! versioned handshake, a bounded thread-per-connection accept loop,
//! atomic request metrics ([`ServerMetrics`]), versioned binary
//! checkpoint/restore of the whole population ([`snapshot`] — restored
//! state is bit-identical), and graceful drain on `Shutdown` or SIGINT.
//!
//! Robustness is first-class: all checkpoint writes are crash-safe
//! (temp + fsync + atomic rename, with a retained [`SnapshotRing`] and
//! digest-validated recovery), the server carries frame deadlines,
//! slow-client eviction and overload shedding, a [`RetryClient`] heals
//! itself across resets and restarts with seq-deduplicated observes,
//! and the whole stack is testable under seeded fault injection
//! ([`fault`]) that compiles away ([`fault::NoFaults`]) in production.
//!
//! # Example (in-process server + TCP client)
//!
//! ```
//! use reap_serve::{Client, FleetState, Request, Response, Server, ServerConfig};
//! use reap_sim::Fleet;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fleet = Fleet::builder(reap_device::paper_table2_operating_points())
//!     .users(16)
//!     .days(1)
//!     .build()?;
//! let state = FleetState::new(&fleet, 4)?;
//! // Port 0: the kernel picks a free port; read it back from the server.
//! let server = Server::bind("127.0.0.1:0", state, ServerConfig::default())?;
//! let addr = server.local_addr();
//! let handle = server.handle();
//! let serving = std::thread::spawn(move || server.serve());
//!
//! let mut client = Client::connect(addr)?;
//! assert_eq!(client.users(), 16);
//! let reply = client.request(&Request::Observe {
//!     user: 3,
//!     hour: 0,
//!     harvest_j: 1.5,
//!     activity: None,
//!     seq: None,
//! })?;
//! assert!(matches!(reply, Response::Observed { user: 3, .. }));
//! let decision = client.request(&Request::Decide { user: 3 })?;
//! assert!(matches!(decision, Response::Decision { .. }));
//!
//! handle.shutdown();
//! serving.join().unwrap()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod fault;
pub mod json;
pub mod locks;
mod metrics;
pub mod protocol;
mod retry;
mod server;
pub mod snapshot;
mod state;

pub use client::Client;
pub use fault::{ChaosStream, CrashPoint, FaultConfig, FaultPlan, IoLayer, NoFaults};
pub use metrics::{LatencyHistogram, ServerMetrics};
pub use protocol::{
    ErrorCode, FleetStats, ProtocolError, Request, Response, ServerStats, WireShare,
    MAX_LINE_BYTES, PROTOCOL_VERSION,
};
pub use retry::{RetryClient, RetryConfig, RetryError};
pub use server::{Server, ServerConfig, ServerHandle};
pub use snapshot::{Recovery, SnapshotRing};
pub use state::{DecideOutcome, FleetState};
