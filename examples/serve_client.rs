//! A complete daemon session: in-process server, real TCP client.
//!
//! ```text
//! cargo run --release --example serve_client
//! ```
//!
//! Stands up a `reap-serve` daemon on `127.0.0.1:0` (the kernel picks
//! the port — nothing is hardcoded) with a snapshot ring in a temp
//! directory, then drives a client session over actual loopback TCP:
//! handshake, a simulated day of observations, an allocation decision,
//! fleet statistics, a checkpoint into the ring and a restore from it,
//! and a graceful in-band shutdown. The CI smoke test runs this example
//! end-to-end and fails on any nonzero exit.

use reap::serve::{Client, FleetState, Request, Response, Server, ServerConfig};
use reap::sim::Fleet;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small resident population derived from the same seeded fleet
    // definition the simulator uses.
    let fleet = Fleet::builder(reap::device::paper_table2_operating_points())
        .users(64)
        .days(1)
        .seed(11)
        .build()?;
    let trace = fleet.user_scenario(7)?.trace().clone();

    // The ring directory is the daemon's one snapshot location.
    let ring = std::env::temp_dir().join(format!("serve_client_ring_{}", std::process::id()));
    let state = FleetState::new(&fleet, 8)?;
    let config = ServerConfig {
        checkpoint_ring: Some(ring.clone()),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", state, config)?;
    let addr = server.local_addr();
    let serving = std::thread::spawn(move || server.serve());
    println!("daemon listening on {addr} (port 0 bind; kernel-assigned)");

    let mut client = Client::connect(addr)?;
    println!(
        "handshake ok: v{}, {} resident users\n",
        reap::serve::PROTOCOL_VERSION,
        client.users()
    );

    // Stream user 7's first simulated day into the resident state.
    let mut granted = 0.0f64;
    for (hour, harvested) in trace.iter().take(24).enumerate() {
        let reply = client.request(&Request::Observe {
            user: 7,
            hour: hour as u32,
            harvest_j: harvested.joules(),
            activity: Some(0.2),
            seq: None,
        })?;
        match reply {
            Response::Observed { budget_j, .. } => granted += budget_j,
            other => return Err(format!("unexpected reply: {other:?}").into()),
        }
    }
    println!("streamed 24 observations for user 7; {granted:.2} J granted in total");

    // Serve an allocation decision for the upcoming hour — a cached
    // frontier walk on the server, no LP solve.
    match client.request(&Request::Decide { user: 7 })? {
        Response::Decision {
            budget_j,
            accuracy,
            shares,
            off_s,
            ..
        } => {
            println!("decision for user 7 at {budget_j:.3} J: accuracy {accuracy:.3}");
            for s in &shares {
                println!("  run point {} for {:.0} s", s.id, s.seconds);
            }
            println!("  off for {off_s:.0} s");
        }
        other => return Err(format!("unexpected reply: {other:?}").into()),
    }

    // Fleet statistics: the `fleet` half is deterministic (pure function
    // of the observation stream); the `server` half is request-path
    // metrics.
    match client.request(&Request::Stats)? {
        Response::Stats { fleet, server } => {
            println!(
                "\nstats: {} users / {} cohorts, {} observations, digest {:016x}",
                fleet.users, fleet.cohorts, fleet.observations, fleet.state_digest
            );
            println!(
                "       {} requests served, decide p99 {:.0} us",
                server.requests, server.decide_p99_us
            );
        }
        other => return Err(format!("unexpected reply: {other:?}").into()),
    }

    // Checkpoint the whole population to a versioned binary snapshot in
    // the ring, then restore the population from the ring's newest one.
    match client.request(&Request::Checkpoint)? {
        Response::CheckpointDone { path, bytes } => {
            println!("\ncheckpoint written: {bytes} bytes at {path}");
        }
        other => return Err(format!("unexpected reply: {other:?}").into()),
    }
    match client.request(&Request::Restore)? {
        Response::RestoreDone { path, users } => {
            println!("restored {users} users from {path}");
        }
        other => return Err(format!("unexpected reply: {other:?}").into()),
    }

    // Graceful in-band shutdown: the server acknowledges, drains, exits.
    match client.request(&Request::Shutdown)? {
        Response::ShuttingDown => println!("server acknowledged shutdown"),
        other => return Err(format!("unexpected reply: {other:?}").into()),
    }
    serving.join().expect("server thread")?;
    std::fs::remove_dir_all(&ring).ok();
    println!("server drained; session complete");
    Ok(())
}
