//! End-to-end daemon tests over real loopback TCP. Every server binds
//! port 0 and the kernel-assigned address comes from
//! [`Server::local_addr`] — no hardcoded ports anywhere.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use reap_serve::json::Value;
use reap_serve::{
    Client, ErrorCode, FleetState, FleetStats, IoLayer, Request, Response, Server, ServerConfig,
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

/// A fresh, not yet created ring directory, and a config that uses it.
fn ring_config(name: &str) -> (PathBuf, ServerConfig) {
    let ring = temp_path(name);
    let _ = std::fs::remove_dir_all(&ring);
    let config = ServerConfig {
        checkpoint_ring: Some(ring.clone()),
        ..ServerConfig::default()
    };
    (ring, config)
}

/// The `hello` line of this build's protocol.
fn hello_line() -> String {
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
    };
    format!("{}\n", hello.encode())
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
    let mut s = TcpStream::connect(srv.addr).expect("connect");
    let mut reader = BufReader::new(s.try_clone().unwrap());
    let mut send = |frame: &str| {
        s.write_all(format!("{frame}\n").as_bytes()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Response::decode(line.trim_end()).unwrap()
    };
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
    };
    assert!(matches!(send(&hello.encode()), Response::Welcome { .. }));

    for junk in [
        "not json at all",
        "{\"type\":\"nope\"}",
        "{\"type\":\"observe\"}",
        // Not JSON (RFC 8259 forbids the leading zero), though
        // `f64::from_str` reads it as user 1.
        "{\"type\":\"decide\",\"user\":01}",
    ] {
        match send(junk) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("unexpected reply to {junk:?}: {other:?}"),
        }
    }
    // The session still works after the malformed frames.
    let observe = Request::Observe {
        user: 0,
        hour: 0,
        harvest_j: 1.0,
        activity: None,
        seq: None,
    };
    match send(&observe.encode()) {
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
    s.write_all(hello_line().as_bytes()).unwrap();
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
    let (ring, config) = ring_config("kill_restore_ring");

    // Server A lives through the first half of the stream, then is shut
    // down: the ring's final cut is its exit checkpoint.
    let a = start(users, seed, config.clone());
    let mut client = Client::connect(a.addr).expect("connect A");
    stream(&mut client, users, 0..13);
    a.handle.shutdown();
    a.thread.join().unwrap().expect("A exits cleanly");
    let ckpt = ring.join("ckpt-0000000000.reapsnap");
    assert!(ckpt.exists(), "exit checkpoint missing");

    // Server B shares the ring, restores the exit checkpoint and lives
    // through the second half.
    let b = start(users, seed, config);
    let mut client = Client::connect(b.addr).expect("connect B");
    match client.request(&Request::Restore).expect("restore") {
        Response::RestoreDone { path, users: n } => {
            assert_eq!(n, users);
            assert_eq!(Path::new(&path), ckpt);
        }
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

    std::fs::remove_dir_all(&ring).ok();
}

#[test]
fn checkpoint_request_round_trips_through_a_fresh_server() {
    let users = 6u32;
    let seed = 5u64;
    let (ring, config) = ring_config("inband_ring");

    let a = start(users, seed, config.clone());
    let mut client = Client::connect(a.addr).expect("connect");
    stream(&mut client, users, 0..9);
    let before = fleet_stats(&mut client);
    let ckpt = match client.request(&Request::Checkpoint).expect("checkpoint") {
        Response::CheckpointDone { path, bytes } => {
            assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
            PathBuf::from(path)
        }
        other => panic!("unexpected reply: {other:?}"),
    };
    assert_eq!(ckpt.parent(), Some(ring.as_path()));
    // Restore into a fresh server of the same fleet sharing the ring:
    // stats match bit for bit. A mismatched fleet refuses the snapshot.
    let b = start(users, seed, config.clone());
    let mut client_b = Client::connect(b.addr).expect("connect B");
    match client_b.request(&Request::Restore).expect("restore") {
        Response::RestoreDone { path, .. } => assert_eq!(PathBuf::from(path), ckpt),
        other => panic!("unexpected reply: {other:?}"),
    }
    assert_eq!(fleet_stats(&mut client_b), before);

    let other_fleet = start(users, seed + 1, config);
    let mut client_o = Client::connect(other_fleet.addr).expect("connect");
    match client_o.request(&Request::Restore).expect("reply") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Snapshot),
        other => panic!("foreign restore must fail, got {other:?}"),
    }

    for srv in [a, b, other_fleet] {
        srv.handle.shutdown();
        srv.thread.join().unwrap().unwrap();
    }
    std::fs::remove_dir_all(&ring).ok();
}

/// Greets a raw socket at this build's version, sends each frame and
/// returns the replies.
fn raw_replies(addr: std::net::SocketAddr, frames: &[String]) -> Vec<Response> {
    let mut s = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(s.try_clone().unwrap());
    let mut replies = Vec::new();
    for frame in std::iter::once(hello_line()).chain(frames.iter().map(|f| format!("{f}\n"))) {
        s.write_all(frame.as_bytes()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        replies.push(Response::decode(line.trim_end()).unwrap());
    }
    assert!(matches!(replies.remove(0), Response::Welcome { .. }));
    replies
}

#[test]
fn snapshot_requests_never_touch_a_path_the_client_names() {
    let outside = temp_path("outside.snap");
    let outside_tmp = temp_path("outside.snap.tmp");
    let _ = std::fs::remove_file(&outside);
    let _ = std::fs::remove_file(&outside_tmp);
    let named = |kind: &str| {
        let path = Value::Str(outside.display().to_string()).encode();
        format!("{{\"type\":\"{kind}\",\"path\":{path}}}")
    };
    let frames = [named("checkpoint"), named("restore")];
    let nothing_outside = || !outside.exists() && !outside_tmp.exists();

    // With a ring, both answers name the ring's newest entry.
    let (ring, config) = ring_config("confined_ring");
    let srv = start(3, 2, config);
    let replies = raw_replies(srv.addr, &frames);
    let written = match &replies[0] {
        Response::CheckpointDone { path, .. } => PathBuf::from(path),
        other => panic!("unexpected reply: {other:?}"),
    };
    assert_eq!(written.parent(), Some(ring.as_path()));
    assert!(written.exists());
    match &replies[1] {
        Response::RestoreDone { path, users } => {
            assert_eq!(PathBuf::from(path), written);
            assert_eq!(*users, 3);
        }
        other => panic!("unexpected reply: {other:?}"),
    }
    assert!(nothing_outside(), "a client-named path was written");
    srv.handle.shutdown();
    srv.thread.join().unwrap().unwrap();
    std::fs::remove_dir_all(&ring).ok();

    // Without a ring, both are refused and nothing is created.
    let srv = start(3, 2, ServerConfig::default());
    for reply in raw_replies(srv.addr, &frames) {
        match reply {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Snapshot),
            other => panic!("a daemon without a ring must refuse, got {other:?}"),
        }
    }
    srv.handle.shutdown();
    srv.thread.join().unwrap().unwrap();
    assert!(nothing_outside(), "a client-named path was written");
    std::fs::remove_file(&outside).ok();
    std::fs::remove_file(&outside_tmp).ok();
}

#[test]
fn in_band_and_periodic_ring_writes_take_turns() {
    let (users, seed, keep) = (6u32, 4u64, 3usize);
    let (ring, config) = ring_config("busy_ring");
    let srv = start(
        users,
        seed,
        ServerConfig {
            ring_keep: keep,
            checkpoint_every: Some(std::time::Duration::from_millis(1)),
            ..config
        },
    );
    // Every client connects, then all start checkpointing at once.
    let start_line = Arc::new(std::sync::Barrier::new(8));
    let clients: Vec<_> = (0..8u32)
        .map(|t| {
            let addr = srv.addr;
            let start_line = Arc::clone(&start_line);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                start_line.wait();
                let mut written = Vec::new();
                for hour in 0..8u32 {
                    let observe = Request::Observe {
                        user: t % users,
                        hour,
                        harvest_j: 0.5,
                        activity: None,
                        seq: None,
                    };
                    client.request(&observe).expect("observe");
                    match client.request(&Request::Checkpoint).expect("checkpoint") {
                        Response::CheckpointDone { path, .. } => written.push(path),
                        other => panic!("client {t}: unexpected reply: {other:?}"),
                    }
                }
                written
            })
        })
        .collect();
    let mut written: Vec<String> = clients
        .into_iter()
        .flat_map(|c| c.join().expect("client thread"))
        .collect();
    let answers = written.len();
    written.sort_unstable();
    written.dedup();
    assert_eq!(written.len(), answers, "two checkpoints named one file");
    assert!(written
        .iter()
        .all(|path| Path::new(path).parent() == Some(ring.as_path())));
    srv.handle.shutdown();
    srv.thread.join().unwrap().unwrap();

    let names: Vec<String> = std::fs::read_dir(&ring)
        .expect("ring directory")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(names.iter().all(|n| !n.ends_with(".tmp")), "{names:?}");
    let snapshots: Vec<&String> = names
        .iter()
        .filter(|n| n.starts_with("ckpt-") && n.ends_with(".reapsnap"))
        .collect();
    assert!((1..=keep).contains(&snapshots.len()), "{names:?}");
    for name in snapshots {
        let fresh = FleetState::new(&fleet(users, seed), 4).expect("state builds");
        let bytes = std::fs::read(ring.join(name)).expect("read snapshot");
        reap_serve::snapshot::restore(&fresh, &bytes).expect("a whole snapshot");
    }
    std::fs::remove_dir_all(&ring).ok();
}

#[test]
fn ring_checkpoints_are_not_counted_as_checkpoint_requests() {
    // `checkpoints` counts `checkpoint` requests, as `restores` counts
    // `restore` requests; the periodic ring writes are not requests.
    let ring = temp_path("uncounted_ring");
    let _ = std::fs::remove_dir_all(&ring);
    let running = start(
        4,
        3,
        ServerConfig {
            checkpoint_ring: Some(ring.clone()),
            checkpoint_every: Some(std::time::Duration::from_millis(5)),
            ..ServerConfig::default()
        },
    );
    let written = || {
        std::fs::read_dir(&ring).is_ok_and(|entries| {
            entries
                .flatten()
                .any(|e| e.file_name().to_string_lossy().ends_with(".reapsnap"))
        })
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !written() {
        assert!(std::time::Instant::now() < deadline, "no ring checkpoint");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let mut client = Client::connect(running.addr).expect("connect");
    match client.request(&Request::Stats).expect("stats") {
        Response::Stats { server, .. } => assert_eq!(server.checkpoints, 0),
        other => panic!("unexpected reply: {other:?}"),
    }
    running.handle.shutdown();
    running.thread.join().unwrap().unwrap();
    std::fs::remove_dir_all(&ring).ok();
}

#[test]
fn oversized_complete_line_is_rejected_with_a_typed_frame() {
    // Unlike the newline-free blob above, this frame is *complete* — the
    // newline arrives in the same write — so it exercises the cap check
    // on split-off lines, not the accumulation cap.
    let srv = start(2, 1, ServerConfig::default());
    let mut s = TcpStream::connect(srv.addr).expect("connect");
    s.write_all(hello_line().as_bytes()).unwrap();
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
    loris.write_all(hello_line().as_bytes()).unwrap();
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

/// An [`IoLayer`] whose server-side streams for the connection from
/// `victim` (a client port; 0 = none) fail every write with `TimedOut`:
/// a peer that stopped reading, as the write deadline sees it.
#[derive(Clone, Default)]
struct StopsReading {
    victim: Arc<AtomicU16>,
}

struct StopsReadingStream {
    stream: TcpStream,
    peer_port: Option<u16>,
    victim: Arc<AtomicU16>,
}

impl IoLayer for StopsReading {
    type Stream = StopsReadingStream;

    fn wrap(&self, stream: TcpStream) -> StopsReadingStream {
        StopsReadingStream {
            peer_port: stream.peer_addr().ok().map(|a| a.port()),
            stream,
            victim: Arc::clone(&self.victim),
        }
    }
}

impl Read for StopsReadingStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.stream.read(buf)
    }
}

impl Write for StopsReadingStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.peer_port == Some(self.victim.load(Ordering::SeqCst)) {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

#[test]
fn a_stalled_connection_whose_eviction_frame_times_out_is_evicted_once() {
    let layer = StopsReading::default();
    let state = FleetState::new(&fleet(2, 1), 4).expect("state builds");
    let config = ServerConfig {
        frame_deadline: Some(std::time::Duration::from_millis(300)),
        ..ServerConfig::default()
    };
    let server =
        Server::bind_with_layer("127.0.0.1:0", state, config, layer.clone()).expect("bind port 0");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve());

    // The stalled client reads its welcome, then stops reading (every
    // server write to it times out) and stalls mid-frame.
    let mut loris = TcpStream::connect(addr).expect("connect loris");
    loris.write_all(hello_line().as_bytes()).unwrap();
    let mut reader = BufReader::new(loris.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(matches!(
        Response::decode(line.trim_end()).unwrap(),
        Response::Welcome { .. }
    ));
    layer
        .victim
        .store(loris.local_addr().unwrap().port(), Ordering::SeqCst);
    loris.write_all(b"{\"type\":\"sta").unwrap(); // ...and never finishes
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "the eviction frame's write timed out");

    // One stalled connection is one eviction, even though its eviction
    // frame also blew the write deadline.
    let mut healthy = Client::connect(addr).expect("connect healthy");
    match healthy.request(&Request::Stats).expect("stats") {
        Response::Stats { server, .. } => assert_eq!(server.evicted, 1),
        other => panic!("unexpected reply: {other:?}"),
    }

    handle.shutdown();
    thread.join().unwrap().unwrap();
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
