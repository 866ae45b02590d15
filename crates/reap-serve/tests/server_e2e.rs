//! End-to-end daemon tests over real loopback TCP. Every server binds
//! port 0 and the kernel-assigned address comes from
//! [`Server::local_addr`] — no hardcoded ports anywhere.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::thread::JoinHandle;

use reap_serve::{
    Client, ErrorCode, FleetState, FleetStats, Request, Response, Server, ServerConfig,
    MAX_LINE_BYTES, PROTOCOL_VERSION,
};
use reap_sim::Fleet;

fn fleet(users: u32, seed: u64) -> Fleet {
    Fleet::builder(reap_device::paper_table2_operating_points())
        .users(users)
        .days(1)
        .seed(seed)
        .build()
        .expect("valid fleet")
}

struct Running {
    addr: std::net::SocketAddr,
    handle: reap_serve::ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

fn start(users: u32, seed: u64, config: ServerConfig) -> Running {
    let state = FleetState::new(&fleet(users, seed), 4).expect("state builds");
    let server = Server::bind("127.0.0.1:0", state, config).expect("bind port 0");
    let addr = server.local_addr();
    assert_ne!(addr.port(), 0, "local_addr must report the assigned port");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve());
    Running {
        addr,
        handle,
        thread,
    }
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("reap_serve_e2e_{}_{name}", std::process::id()))
}

/// Streams `hours` observations per user (deterministic synthetic
/// harvests) through `client`, returning the sum of granted budgets.
fn stream(client: &mut Client, users: u32, hours: std::ops::Range<u32>) -> f64 {
    let mut total = 0.0;
    for h in hours {
        for u in 0..users {
            let harvest = f64::from((u * 7 + h) % 6) * 0.45;
            match client
                .request(&Request::Observe {
                    user: u,
                    hour: h,
                    harvest_j: harvest,
                    activity: Some(0.125),
                    seq: None,
                })
                .expect("observe")
            {
                Response::Observed { budget_j, .. } => total += budget_j,
                other => panic!("unexpected reply: {other:?}"),
            }
        }
    }
    total
}

fn fleet_stats(client: &mut Client) -> FleetStats {
    match client.request(&Request::Stats).expect("stats") {
        Response::Stats { fleet, .. } => fleet,
        other => panic!("unexpected reply: {other:?}"),
    }
}

#[test]
fn full_session_over_loopback() {
    let srv = start(12, 3, ServerConfig::default());
    let mut client = Client::connect(srv.addr).expect("connect + handshake");
    assert_eq!(client.users(), 12);

    stream(&mut client, 12, 0..24);
    let stats = fleet_stats(&mut client);
    assert_eq!(stats.users, 12);
    assert_eq!(stats.observations, 12 * 24);
    assert!(stats.harvested_j > 0.0 && stats.budget_j > 0.0);
    assert!((stats.activity - 12.0 * 24.0 * 0.125).abs() < 1e-9);

    match client
        .request(&Request::Decide { user: 5 })
        .expect("decide")
    {
        Response::Decision {
            user,
            budget_j,
            accuracy,
            active_s,
            off_s,
            shares,
            ..
        } => {
            assert_eq!(user, 5);
            assert!(budget_j >= 0.18 - 1e-12, "floor violated: {budget_j}");
            assert!((0.0..=1.0).contains(&accuracy));
            let share_s: f64 = shares.iter().map(|s| s.seconds).sum();
            assert!(
                (share_s + off_s - 3600.0).abs() < 1e-6,
                "shares {share_s} + off {off_s} != period"
            );
            assert!((active_s - share_s).abs() < 1e-6);
        }
        other => panic!("unexpected reply: {other:?}"),
    }

    // Unknown user → typed error frame, session keeps working.
    match client
        .request(&Request::Decide { user: 99 })
        .expect("reply")
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownUser),
        other => panic!("unexpected reply: {other:?}"),
    }
    assert_eq!(fleet_stats(&mut client).observations, 12 * 24);

    // In-band graceful shutdown.
    match client.request(&Request::Shutdown).expect("shutdown") {
        Response::ShuttingDown => {}
        other => panic!("unexpected reply: {other:?}"),
    }
    srv.thread
        .join()
        .expect("server thread")
        .expect("clean exit");
}

#[test]
fn handshake_refuses_version_mismatch_and_non_hello() {
    let srv = start(2, 1, ServerConfig::default());

    // Wrong version: error frame with code "version", then close.
    let mut s = TcpStream::connect(srv.addr).expect("connect");
    s.write_all(b"{\"type\":\"hello\",\"version\":999}\n")
        .unwrap();
    let mut reader = BufReader::new(s.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match Response::decode(line.trim_end()).unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Version);
            assert!(message.contains(&PROTOCOL_VERSION.to_string()));
        }
        other => panic!("unexpected reply: {other:?}"),
    }
    // The server closed the connection after refusing.
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "expected EOF");

    // First frame not a hello: handshake error, then close.
    let mut s = TcpStream::connect(srv.addr).expect("connect");
    s.write_all(b"{\"type\":\"stats\"}\n").unwrap();
    let mut reader = BufReader::new(s.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match Response::decode(line.trim_end()).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Handshake),
        other => panic!("unexpected reply: {other:?}"),
    }

    srv.handle.shutdown();
    srv.thread.join().unwrap().unwrap();
}

#[test]
fn malformed_lines_get_error_frames_and_session_survives() {
    let srv = start(2, 1, ServerConfig::default());
    let mut client = Client::connect(srv.addr).expect("connect");

    for junk in [
        "not json at all",
        "{\"type\":\"nope\"}",
        "{\"type\":\"observe\"}",
    ] {
        match client.request_raw(junk).expect("error frame") {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("unexpected reply to {junk:?}: {other:?}"),
        }
    }
    // The session still works after three malformed frames.
    match client
        .request(&Request::Observe {
            user: 0,
            hour: 0,
            harvest_j: 1.0,
            activity: None,
            seq: None,
        })
        .expect("observe")
    {
        Response::Observed { .. } => {}
        other => panic!("unexpected reply: {other:?}"),
    }

    srv.handle.shutdown();
    srv.thread.join().unwrap().unwrap();
}

#[test]
fn oversized_lines_are_rejected_and_connection_closes() {
    let srv = start(2, 1, ServerConfig::default());
    let mut s = TcpStream::connect(srv.addr).expect("connect");
    s.write_all(b"{\"type\":\"hello\",\"version\":2}\n")
        .unwrap();
    let mut reader = BufReader::new(s.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(matches!(
        Response::decode(line.trim_end()).unwrap(),
        Response::Welcome { .. }
    ));

    // A newline-free blob past the cap.
    let blob = vec![b'x'; MAX_LINE_BYTES + 1024];
    s.write_all(&blob).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    match Response::decode(line.trim_end()).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Oversized),
        other => panic!("unexpected reply: {other:?}"),
    }
    // Connection is closed afterwards: reads drain to EOF.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server kept talking after oversized frame");

    srv.handle.shutdown();
    srv.thread.join().unwrap().unwrap();
}

#[test]
fn concurrent_clients_observe_disjoint_users() {
    let users = 24u32;
    let srv = start(users, 9, ServerConfig::default());
    let threads: Vec<_> = (0..6u32)
        .map(|t| {
            let addr = srv.addr;
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for h in 0..20u32 {
                    for u in (t * 4)..(t * 4 + 4) {
                        match client
                            .request(&Request::Observe {
                                user: u,
                                hour: h,
                                harvest_j: 0.5,
                                activity: None,
                                seq: None,
                            })
                            .expect("observe")
                        {
                            Response::Observed { .. } => {}
                            other => panic!("unexpected reply: {other:?}"),
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let mut client = Client::connect(srv.addr).expect("connect");
    let stats = fleet_stats(&mut client);
    assert_eq!(stats.observations, u64::from(users) * 20);

    srv.handle.shutdown();
    srv.thread.join().unwrap().unwrap();
}

#[test]
fn killed_and_restored_server_reports_bit_identical_stats() {
    let users = 10u32;
    let seed = 21u64;
    let ckpt = temp_path("kill_restore.snap");

    // Server A lives through the first half of the stream, then is shut
    // down with --checkpoint-on-exit semantics (exit snapshot).
    let a = start(
        users,
        seed,
        ServerConfig {
            checkpoint_on_exit: Some(ckpt.clone()),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(a.addr).expect("connect A");
    stream(&mut client, users, 0..13);
    a.handle.shutdown();
    a.thread.join().unwrap().expect("A exits cleanly");
    assert!(ckpt.exists(), "exit checkpoint missing");

    // Server B restores the snapshot and lives through the second half.
    let b = start(users, seed, ServerConfig::default());
    let mut client = Client::connect(b.addr).expect("connect B");
    match client
        .request(&Request::Restore {
            path: ckpt.display().to_string(),
        })
        .expect("restore")
    {
        Response::RestoreDone { users: n, .. } => assert_eq!(n, users),
        other => panic!("unexpected reply: {other:?}"),
    }
    stream(&mut client, users, 13..24);
    let interrupted = fleet_stats(&mut client);
    b.handle.shutdown();
    b.thread.join().unwrap().unwrap();

    // Server C replays the whole stream uninterrupted.
    let c = start(users, seed, ServerConfig::default());
    let mut client = Client::connect(c.addr).expect("connect C");
    stream(&mut client, users, 0..24);
    let uninterrupted = fleet_stats(&mut client);
    c.handle.shutdown();
    c.thread.join().unwrap().unwrap();

    // Bit-identical: every f64 and the state digest agree exactly, and
    // so does the deterministic wire encoding.
    assert_eq!(interrupted, uninterrupted);
    assert_eq!(interrupted.encode(), uninterrupted.encode());

    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn checkpoint_request_round_trips_through_a_fresh_server() {
    let users = 6u32;
    let seed = 5u64;
    let ckpt = temp_path("inband.snap");

    let a = start(users, seed, ServerConfig::default());
    let mut client = Client::connect(a.addr).expect("connect");
    stream(&mut client, users, 0..9);
    let before = fleet_stats(&mut client);
    match client
        .request(&Request::Checkpoint {
            path: ckpt.display().to_string(),
        })
        .expect("checkpoint")
    {
        Response::CheckpointDone { bytes, .. } => {
            assert_eq!(bytes, std::fs::metadata(&ckpt).unwrap().len());
        }
        other => panic!("unexpected reply: {other:?}"),
    }
    // Restore into a fresh server of the same fleet: stats match bit
    // for bit. A mismatched fleet refuses the snapshot.
    let b = start(users, seed, ServerConfig::default());
    let mut client_b = Client::connect(b.addr).expect("connect B");
    match client_b
        .request(&Request::Restore {
            path: ckpt.display().to_string(),
        })
        .expect("restore")
    {
        Response::RestoreDone { .. } => {}
        other => panic!("unexpected reply: {other:?}"),
    }
    assert_eq!(fleet_stats(&mut client_b), before);

    let other_fleet = start(users, seed + 1, ServerConfig::default());
    let mut client_o = Client::connect(other_fleet.addr).expect("connect");
    match client_o
        .request(&Request::Restore {
            path: ckpt.display().to_string(),
        })
        .expect("reply")
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Snapshot),
        other => panic!("foreign restore must fail, got {other:?}"),
    }

    for srv in [a, b, other_fleet] {
        srv.handle.shutdown();
        srv.thread.join().unwrap().unwrap();
    }
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn oversized_complete_line_is_rejected_with_a_typed_frame() {
    // Unlike the newline-free blob above, this frame is *complete* — the
    // newline arrives in the same write — so it exercises the cap check
    // on split-off lines, not the accumulation cap.
    let srv = start(2, 1, ServerConfig::default());
    let mut s = TcpStream::connect(srv.addr).expect("connect");
    s.write_all(b"{\"type\":\"hello\",\"version\":2}\n")
        .unwrap();
    let mut reader = BufReader::new(s.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(matches!(
        Response::decode(line.trim_end()).unwrap(),
        Response::Welcome { .. }
    ));

    let mut blob = vec![b'x'; MAX_LINE_BYTES + 1024];
    blob.push(b'\n');
    s.write_all(&blob).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    match Response::decode(line.trim_end()).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Oversized),
        other => panic!("unexpected reply: {other:?}"),
    }
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server kept talking after oversized frame");

    srv.handle.shutdown();
    srv.thread.join().unwrap().unwrap();
}

#[test]
fn slow_loris_client_is_evicted_mid_frame_but_idle_clients_are_not() {
    let srv = start(
        2,
        1,
        ServerConfig {
            frame_deadline: Some(std::time::Duration::from_millis(300)),
            ..ServerConfig::default()
        },
    );

    // An idle (between-frames) client comfortably outlives the deadline.
    let mut idle = Client::connect(srv.addr).expect("connect idle");
    std::thread::sleep(std::time::Duration::from_millis(700));

    // The slow-loris client starts a frame and stalls mid-line.
    let mut loris = TcpStream::connect(srv.addr).expect("connect loris");
    loris
        .write_all(b"{\"type\":\"hello\",\"version\":2}\n")
        .unwrap();
    let mut reader = BufReader::new(loris.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(matches!(
        Response::decode(line.trim_end()).unwrap(),
        Response::Welcome { .. }
    ));
    loris.write_all(b"{\"type\":\"sta").unwrap(); // ...and never finishes
    line.clear();
    reader.read_line(&mut line).expect("eviction frame");
    match Response::decode(line.trim_end()).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Evicted),
        other => panic!("unexpected reply: {other:?}"),
    }
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server kept talking after eviction");

    // The idle client still works, and the eviction is counted.
    match idle.request(&Request::Stats).expect("stats") {
        Response::Stats { server, .. } => assert_eq!(server.evicted, 1),
        other => panic!("unexpected reply: {other:?}"),
    }

    srv.handle.shutdown();
    srv.thread.join().unwrap().unwrap();
}

#[test]
fn overload_sheds_observes_but_keeps_decide_and_stats_live() {
    let srv = start(
        4,
        1,
        ServerConfig {
            overload_shed_at: 1,
            ..ServerConfig::default()
        },
    );
    // Two live connections > threshold of 1: overload mode.
    let _ballast = Client::connect(srv.addr).expect("connect ballast");
    let mut client = Client::connect(srv.addr).expect("connect");

    match client
        .request(&Request::Observe {
            user: 0,
            hour: 0,
            harvest_j: 1.0,
            activity: None,
            seq: None,
        })
        .expect("reply")
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("observe should be shed, got {other:?}"),
    }
    match client.request(&Request::Decide { user: 0 }).expect("reply") {
        Response::Decision { .. } => {}
        other => panic!("decide must stay live under overload, got {other:?}"),
    }
    match client.request(&Request::Stats).expect("stats") {
        Response::Stats { fleet, server } => {
            assert_eq!(server.shed, 1);
            assert_eq!(fleet.observations, 0, "shed observe must not mutate state");
        }
        other => panic!("unexpected reply: {other:?}"),
    }

    // Back under the threshold, observes flow again.
    drop(_ballast);
    // The server notices the closed connection at its next read poll.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        match client
            .request(&Request::Observe {
                user: 0,
                hour: 0,
                harvest_j: 1.0,
                activity: None,
                seq: None,
            })
            .expect("reply")
        {
            Response::Observed { .. } => break,
            Response::Error {
                code: ErrorCode::Overloaded,
                ..
            } => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "still overloaded after ballast disconnect"
                );
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }

    srv.handle.shutdown();
    srv.thread.join().unwrap().unwrap();
}

#[test]
fn seq_stamped_observes_deduplicate_over_the_wire() {
    let srv = start(2, 1, ServerConfig::default());
    let mut client = Client::connect(srv.addr).expect("connect");

    let observe = |client: &mut Client, seq: u64| match client
        .request(&Request::Observe {
            user: 1,
            hour: 0,
            harvest_j: 2.0,
            activity: Some(0.25),
            seq: Some(seq),
        })
        .expect("reply")
    {
        Response::Observed { budget_j, .. } => Ok(budget_j),
        Response::Error { code, message } => Err((code, message)),
        other => panic!("unexpected reply: {other:?}"),
    };

    let first = observe(&mut client, 1).expect("fresh seq applies");
    let replay = observe(&mut client, 1).expect("duplicate seq replays");
    assert_eq!(first.to_bits(), replay.to_bits(), "replay must be cached");
    let stale = observe(&mut client, 0);
    assert!(
        matches!(stale, Err((ErrorCode::BadRequest, _))),
        "{stale:?}"
    );
    let stats = fleet_stats(&mut client);
    assert_eq!(stats.observations, 1, "duplicate must not double-count");

    srv.handle.shutdown();
    srv.thread.join().unwrap().unwrap();
}

#[test]
fn deeply_nested_frame_is_malformed_and_the_daemon_survives() {
    // One line of `[` just under the frame cap. The parser recurses once
    // per container, so only its nesting cap keeps this line from
    // overflowing the connection thread's stack and aborting the process.
    let srv = start(2, 1, ServerConfig::default());
    let mut s = TcpStream::connect(srv.addr).expect("connect");
    let mut frame = vec![b'['; MAX_LINE_BYTES - 1];
    frame.push(b'\n');
    s.write_all(&frame).unwrap();
    let mut reader = BufReader::new(s.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match Response::decode(line.trim_end()).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("unexpected reply: {other:?}"),
    }

    // The daemon still greets new sessions.
    let client = Client::connect(srv.addr).expect("connect after the nested frame");
    assert_eq!(client.users(), 2);

    srv.handle.shutdown();
    srv.thread.join().unwrap().unwrap();
}
