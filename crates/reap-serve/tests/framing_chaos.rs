//! Framing robustness under hostile byte streams: valid frames split at
//! every byte boundary across multiple TCP writes, and arbitrary byte
//! junk. The server must never panic or hang — every input gets a typed
//! error frame or a clean drop.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use proptest::prelude::*;
use reap_serve::{
    FleetState, Request, Response, Server, ServerConfig, ServerHandle, PROTOCOL_VERSION,
};
use reap_sim::Fleet;

fn start(
    users: u32,
) -> (
    std::net::SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let fleet = Fleet::builder(reap_device::paper_table2_operating_points())
        .users(users)
        .days(1)
        .seed(5)
        .build()
        .expect("valid fleet");
    let state = FleetState::new(&fleet, 4).expect("state builds");
    let server = Server::bind("127.0.0.1:0", state, ServerConfig::default()).expect("bind port 0");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve());
    (addr, handle, thread)
}

fn handshake(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>) {
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
    };
    stream
        .write_all(format!("{}\n", hello.encode()).as_bytes())
        .expect("hello");
    let mut line = String::new();
    reader.read_line(&mut line).expect("welcome line");
    assert!(matches!(
        Response::decode(line.trim_end()).expect("welcome decodes"),
        Response::Welcome { .. }
    ));
}

#[test]
fn frames_split_at_every_byte_boundary_still_parse() {
    let (addr, handle, thread) = start(4);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    handshake(&mut stream, &mut reader);

    let mut frame = Request::Observe {
        user: 1,
        hour: 3,
        harvest_j: 1.25,
        activity: Some(0.5),
        seq: None,
    }
    .encode()
    .into_bytes();
    frame.push(b'\n');

    // Every split point, including before the trailing newline: two
    // writes with a scheduling gap, so the server's reader sees the
    // frame arrive in two TCP segments.
    for split in 1..frame.len() {
        stream.write_all(&frame[..split]).expect("first half");
        stream.flush().expect("flush");
        std::thread::sleep(std::time::Duration::from_millis(1));
        stream.write_all(&frame[split..]).expect("second half");
        let mut line = String::new();
        reader.read_line(&mut line).expect("response line");
        match Response::decode(line.trim_end()).expect("response decodes") {
            Response::Observed {
                user: 1, hour: 3, ..
            } => {}
            other => panic!("split at {split}: unexpected reply {other:?}"),
        }
    }

    handle.shutdown();
    thread.join().expect("server thread").expect("clean exit");
}

/// One long-lived chaos-target server shared by every junk case (a
/// per-case server would dominate the runtime); it is deliberately
/// leaked — the process exit reaps it.
fn shared_addr() -> std::net::SocketAddr {
    static ADDR: std::sync::OnceLock<std::net::SocketAddr> = std::sync::OnceLock::new();
    *ADDR.get_or_init(|| {
        let (addr, _handle, _thread) = start(4);
        addr
    })
}

fn arb_junk() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Raw bytes of any value except the frame delimiters.
        proptest::collection::vec(0u8..=255, 0..200).prop_map(|mut b| {
            b.retain(|&x| x != b'\n' && x != b'\r');
            b
        }),
        // Printable noise.
        proptest::collection::vec(32u8..127, 0..120),
        // Truncations of a valid frame.
        (0usize..52).prop_map(|n| {
            let full: &[u8] = b"{\"type\":\"observe\",\"user\":1,\"hour\":0,\"harvest_j\":1.0}";
            full[..n.min(full.len())].to_vec()
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_junk_lines_get_a_typed_error_or_a_clean_drop(junk in arb_junk()) {
        let addr = shared_addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        handshake(&mut stream, &mut reader);

        stream.write_all(&junk).expect("junk bytes");
        stream.write_all(b"\n").expect("junk newline");
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("server must answer or close");
        if n > 0 {
            // Whatever came back must be a well-formed frame — usually a
            // typed error; junk that happens to be a valid request gets
            // its normal response.
            Response::decode(line.trim_end()).expect("well-formed response frame");

            // The session either survived (error frame) or is closing; a
            // follow-up valid frame must never wedge the connection.
            stream.write_all(b"{\"type\":\"stats\"}\n").expect("probe");
            line.clear();
            let n = reader.read_line(&mut line).expect("probe answered or EOF");
            if n > 0 {
                Response::decode(line.trim_end()).expect("well-formed probe response");
            }
        }

        // The server survives every case: a fresh client still greets.
        let client = reap_serve::Client::connect(addr).expect("healthy connect");
        prop_assert_eq!(client.users(), 4);
    }
}
