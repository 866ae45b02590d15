//! The daemon's wire behaviour as a transcript: scripted raw-socket
//! sessions whose every response line is compared byte for byte, plus
//! the final server counters. The frames cover what a session does
//! before and after its handshake: blank, non-UTF-8 and malformed lines,
//! refused handshakes, a second `hello`, every observe outcome, decide,
//! checkpoint and restore (each succeeding, and failing without a ring)
//! and shutdown. Temp paths are replaced by `$TMP` and the stats frame's
//! latency quantiles by 0 before comparing; nothing else is normalised.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::thread::JoinHandle;

use reap_serve::{FleetState, Response, Server, ServerConfig};
use reap_sim::Fleet;

/// One scripted frame and the exact reply it must get (`None`: no reply).
type Step = (&'static [u8], Option<&'static str>);

/// Refused before the handshake: the error frame, then EOF.
const WRONG_VERSION: &[Step] = &[(
    b"{\"type\":\"hello\",\"version\":1}\n",
    Some(r#"{"type":"error","code":"version","message":"client speaks v1, server v3"}"#),
)];

const NOT_HELLO_FIRST: &[Step] = &[(
    b"{\"type\":\"decide\",\"user\":0}\n",
    Some(r#"{"type":"error","code":"handshake","message":"first frame must be a hello"}"#),
)];

/// A whole session, ending in `shutdown` and EOF.
const SESSION: &[Step] = &[
    (b"\n", None),
    (
        b"\xff\xfe{}\n",
        Some(r#"{"type":"error","code":"malformed","message":"frame is not UTF-8"}"#),
    ),
    (
        b"{\"type\":\"hello\"\n",
        Some(concat!(
            r#"{"type":"error","code":"malformed","#,
            r#""message":"expected ',' or '}' at byte 15"}"#
        )),
    ),
    (
        b"{\"type\":\"hello\",\"version\":3}\n",
        Some(r#"{"type":"welcome","version":3,"users":4}"#),
    ),
    (b" \t\r\n", None),
    (
        b"{\"type\":\"hello\",\"version\":3}\n",
        Some(r#"{"type":"error","code":"handshake","message":"session already greeted"}"#),
    ),
    (
        b"{\"type\":\"observe\",\"user\":1,\"hour\":7,\"harvest_j\":1.5}\n",
        Some(r#"{"type":"observed","user":1,"hour":7,"budget_j":0.18}"#),
    ),
    (
        b"{\"type\":\"observe\",\"user\":2,\"hour\":8,\"harvest_j\":0.75,\"activity\":0.5,\"seq\":1}\n",
        Some(r#"{"type":"observed","user":2,"hour":8,"budget_j":0.18}"#),
    ),
    // The same seq again: the cached grant, nothing applied.
    (
        b"{\"type\":\"observe\",\"user\":2,\"hour\":8,\"harvest_j\":0.75,\"activity\":0.5,\"seq\":1}\n",
        Some(r#"{"type":"observed","user":2,"hour":8,"budget_j":0.18}"#),
    ),
    (
        b"{\"type\":\"observe\",\"user\":2,\"hour\":33,\"harvest_j\":2,\"seq\":2}\n",
        Some(r#"{"type":"observed","user":2,"hour":9,"budget_j":0.8023026315789472}"#),
    ),
    (
        b"{\"type\":\"observe\",\"user\":2,\"hour\":10,\"harvest_j\":1,\"seq\":0}\n",
        Some(concat!(
            r#"{"type":"error","code":"bad_request","#,
            r#""message":"seq 0 is reserved (sequence numbers start at 1)"}"#
        )),
    ),
    (
        b"{\"type\":\"observe\",\"user\":2,\"hour\":10,\"harvest_j\":1,\"seq\":1}\n",
        Some(concat!(
            r#"{"type":"error","code":"bad_request","#,
            r#""message":"stale seq 1 (newest applied is 2)"}"#
        )),
    ),
    (
        b"{\"type\":\"observe\",\"user\":0,\"hour\":0,\"harvest_j\":-1}\n",
        Some(concat!(
            r#"{"type":"error","code":"bad_request","#,
            r#""message":"harvest_j -1 must be finite and >= 0"}"#
        )),
    ),
    (
        b"{\"type\":\"observe\",\"user\":99,\"hour\":0,\"harvest_j\":1}\n",
        Some(r#"{"type":"error","code":"unknown_user","message":"user 99 >= fleet size 4"}"#),
    ),
    (
        b"{\"type\":\"decide\",\"user\":2}\n",
        Some(concat!(
            r#"{"type":"decision","user":2,"budget_j":1.5328497229916895,"#,
            r#""accuracy":0.24392335972615517,"active_s":1176.3910634710346,"#,
            r#""energy_j":1.5328497229916898,"off_s":2423.6089365289654,"#,
            r#""shares":[{"id":5,"seconds":1176.3910634710346}]}"#
        )),
    ),
    (
        b"{\"type\":\"decide\",\"user\":99}\n",
        Some(r#"{"type":"error","code":"unknown_user","message":"user 99 >= fleet size 4"}"#),
    ),
    // Snapshots go through the daemon's ring, which starts empty.
    (
        b"{\"type\":\"restore\"}\n",
        Some(concat!(
            r#"{"type":"error","code":"snapshot","#,
            r#""message":"the ring holds no snapshot of this fleet"}"#
        )),
    ),
    (
        b"{\"type\":\"checkpoint\"}\n",
        Some(r#"{"type":"checkpoint_done","path":"$TMP/ring/ckpt-0000000000.reapsnap","bytes":1112}"#),
    ),
    // A `path` left in the frame names nothing.
    (
        b"{\"type\":\"checkpoint\",\"path\":\"$TMP/ckpt.snap\"}\n",
        Some(r#"{"type":"checkpoint_done","path":"$TMP/ring/ckpt-0000000001.reapsnap","bytes":1112}"#),
    ),
    (
        b"{\"type\":\"restore\",\"path\":\"$TMP/ckpt.snap\"}\n",
        Some(r#"{"type":"restore_done","path":"$TMP/ring/ckpt-0000000001.reapsnap","users":4}"#),
    ),
    // Requests count every frame decoded after the handshake, errors
    // every error frame, before the handshake included.
    (
        b"{\"type\":\"stats\"}\n",
        Some(concat!(
            r#"{"type":"stats","fleet":{"users":4,"cohorts":4,"observations":3,"#,
            r#""harvested_j":4.25,"budget_j":1.162302631578947,"battery_j":122.81402354570636,"#,
            r#""activity":0.5,"state_digest":"e5ec12bc568d2fd1"},"#,
            r#""server":{"connections":3,"requests":16,"errors":11,"observes":8,"decides":2,"#,
            r#""checkpoints":2,"restores":2,"evicted":0,"shed":0,"#,
            r#""observe_p50_us":0,"observe_p99_us":0,"decide_p50_us":0,"decide_p99_us":0}}"#
        )),
    ),
    (b"{\"type\":\"shutdown\"}\n", Some(r#"{"type":"shutting_down"}"#)),
];

/// A daemon without a ring refuses both snapshot requests.
const NO_RING: &[Step] = &[
    (
        b"{\"type\":\"hello\",\"version\":3}\n",
        Some(r#"{"type":"welcome","version":3,"users":4}"#),
    ),
    (
        b"{\"type\":\"checkpoint\"}\n",
        Some(concat!(
            r#"{"type":"error","code":"snapshot","#,
            r#""message":"no snapshot ring configured (--checkpoint-ring)"}"#
        )),
    ),
    (
        b"{\"type\":\"restore\"}\n",
        Some(concat!(
            r#"{"type":"error","code":"snapshot","#,
            r#""message":"no snapshot ring configured (--checkpoint-ring)"}"#
        )),
    ),
    (
        b"{\"type\":\"shutdown\"}\n",
        Some(r#"{"type":"shutting_down"}"#),
    ),
];

/// Replaces `$TMP` in a scripted frame with the run's temp directory.
fn expand(frame: &[u8], tmp: &str) -> Vec<u8> {
    match std::str::from_utf8(frame) {
        Ok(text) => text.replace("$TMP", tmp).into_bytes(),
        Err(_) => frame.to_vec(),
    }
}

/// The reply as the transcript compares it: the temp directory back to
/// `$TMP`, and a stats frame's latency quantiles zeroed.
fn normalise(line: &str, tmp: &str) -> String {
    match Response::decode(line) {
        Ok(Response::Stats { fleet, mut server }) => {
            server.observe_p50_us = 0.0;
            server.observe_p99_us = 0.0;
            server.decide_p50_us = 0.0;
            server.decide_p99_us = 0.0;
            Response::Stats { fleet, server }.encode()
        }
        _ => line.replace(tmp, "$TMP"),
    }
}

/// Plays `steps` on a fresh connection, checks each reply, then checks
/// that the server closes the connection with nothing more to say.
fn play(addr: std::net::SocketAddr, steps: &[Step], tmp: &str) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for (i, (frame, want)) in steps.iter().enumerate() {
        stream.write_all(&expand(frame, tmp)).expect("send");
        let Some(want) = want else { continue };
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        let got = normalise(line.strip_suffix('\n').unwrap_or(&line), tmp);
        assert_eq!(got, *want, "reply to step {i}");
    }
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read to EOF");
    assert_eq!(String::from_utf8_lossy(&rest), "", "bytes after the script");
}

/// Serves the scripted 4-user fleet with `config` until a `shutdown`.
fn serve(config: ServerConfig) -> (std::net::SocketAddr, JoinHandle<std::io::Result<()>>) {
    let fleet = Fleet::builder(reap_device::paper_table2_operating_points())
        .users(4)
        .days(1)
        .seed(3)
        .build()
        .expect("valid fleet");
    let state = FleetState::new(&fleet, 2).expect("state builds");
    let server = Server::bind("127.0.0.1:0", state, config).expect("bind");
    (
        server.local_addr(),
        std::thread::spawn(move || server.serve()),
    )
}

#[test]
fn scripted_sessions_match_the_transcript_byte_for_byte() {
    let tmp: PathBuf =
        std::env::temp_dir().join(format!("reap_serve_transcript_{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    let tmp_s = tmp.display().to_string();

    let (addr, serving) = serve(ServerConfig {
        checkpoint_ring: Some(tmp.join("ring")),
        ..ServerConfig::default()
    });
    play(addr, WRONG_VERSION, &tmp_s);
    play(addr, NOT_HELLO_FIRST, &tmp_s);
    play(addr, SESSION, &tmp_s);
    serving.join().expect("server thread").expect("clean exit");

    let (addr, serving) = serve(ServerConfig::default());
    play(addr, NO_RING, &tmp_s);
    serving.join().expect("server thread").expect("clean exit");
    std::fs::remove_dir_all(&tmp).ok();
}
