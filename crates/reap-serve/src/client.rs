//! A minimal blocking client for the daemon's wire protocol, used by the
//! examples, the end-to-end tests, and the loopback load generator.
//!
//! The client keeps the raw [`TcpStream`] as a *control handle* (socket
//! options, timeouts) while reads and writes go through an [`IoLayer`]
//! wrap — identity for [`NoFaults`] (the production path), a seeded
//! [`crate::fault::ChaosStream`] when the chaos tests hand in an
//! `Arc<FaultPlan>` via [`Client::connect_with_layer`]. The self-healing
//! wrapper that survives those faults lives in [`crate::retry`].

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::fault::{IoLayer, NoFaults};
use crate::protocol::{Request, Response, MAX_LINE_BYTES, PROTOCOL_VERSION};

/// A connected, greeted session with a daemon.
pub struct Client {
    control: TcpStream,
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
    users: u32,
}

fn protocol_io(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

impl Client {
    /// Connects to `addr` and performs the versioned handshake.
    ///
    /// # Errors
    ///
    /// I/O failures, a refused handshake (the server's error frame is
    /// surfaced as [`io::ErrorKind::InvalidData`]), or a garbled welcome.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with_layer(addr, &NoFaults)
    }

    /// [`Client::connect`] through an explicit [`IoLayer`]; chaos tests
    /// pass an `Arc<FaultPlan>` so every read and write runs the seeded
    /// fault schedule.
    ///
    /// # Errors
    ///
    /// Same as [`Client::connect`].
    pub fn connect_with_layer<L: IoLayer>(
        addr: impl ToSocketAddrs,
        layer: &L,
    ) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let write_half = stream.try_clone()?;
        let mut client = Client {
            control: stream,
            reader: BufReader::new(Box::new(layer.wrap(read_half)) as Box<dyn Read + Send>),
            writer: Box::new(layer.wrap(write_half)),
            users: 0,
        };
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
        };
        match client.request(&hello)? {
            Response::Welcome { users, .. } => {
                client.users = users;
                Ok(client)
            }
            Response::Error { code, message } => Err(protocol_io(format!(
                "handshake refused ({code}): {message}"
            ))),
            other => Err(protocol_io(format!("expected welcome, got {other:?}"))),
        }
    }

    /// Sets the socket read *and* write timeout — the per-request
    /// deadline enforcement point for [`crate::RetryClient`]. `None`
    /// blocks forever (the default).
    ///
    /// # Errors
    ///
    /// Propagates `setsockopt` failures.
    pub fn set_io_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.control.set_read_timeout(timeout)?;
        self.control.set_write_timeout(timeout)
    }

    /// Resident users reported by the welcome frame.
    #[must_use]
    pub fn users(&self) -> u32 {
        self.users
    }

    /// Sends one request frame and reads the matching response frame.
    ///
    /// # Errors
    ///
    /// I/O failures, a closed connection, an undecodable response, or a
    /// response line longer than [`MAX_LINE_BYTES`] with its newline
    /// ([`io::ErrorKind::InvalidData`]; the session is then out of step
    /// and should be dropped).
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        let mut line = request.encode();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let mut reply = String::new();
        let n = (&mut self.reader)
            .take(MAX_LINE_BYTES as u64)
            .read_line(&mut reply)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        if n == MAX_LINE_BYTES && !reply.ends_with('\n') {
            return Err(protocol_io(format!(
                "response line exceeds {MAX_LINE_BYTES} bytes"
            )));
        }
        Response::decode(reply.trim_end_matches(['\n', '\r'])).map_err(protocol_io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ErrorCode;
    use std::net::TcpListener;

    /// Answers the hello with a welcome and the next request with an
    /// error frame of `message_bytes` bytes of message, then waits for
    /// the client to hang up.
    fn peer(message_bytes: usize) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let welcome = Response::Welcome {
                version: PROTOCOL_VERSION,
                users: 1,
            };
            writer
                .write_all(format!("{}\n", welcome.encode()).as_bytes())
                .unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            let error = Response::Error {
                code: ErrorCode::BadRequest,
                message: "x".repeat(message_bytes),
            };
            let _ = writer.write_all(format!("{}\n", error.encode()).as_bytes());
            line.clear();
            let _ = reader.read_line(&mut line);
        });
        (addr, handle)
    }

    #[test]
    fn a_response_line_longer_than_the_cap_is_invalid_data() {
        let (addr, peer) = peer(MAX_LINE_BYTES);
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.users(), 1);
        let Err(err) = client.request(&Request::Stats) else {
            panic!("a response line past the cap decoded");
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"), "{err}");
        drop(client);
        peer.join().unwrap();
    }

    #[test]
    fn a_response_line_of_exactly_the_cap_decodes() {
        let framing = Response::Error {
            code: ErrorCode::BadRequest,
            message: String::new(),
        }
        .encode()
        .len()
            + 1;
        let (addr, peer) = peer(MAX_LINE_BYTES - framing);
        let mut client = Client::connect(addr).unwrap();
        match client.request(&Request::Stats).unwrap() {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::BadRequest);
                assert_eq!(message.len(), MAX_LINE_BYTES - framing);
            }
            other => panic!("expected the error frame, got {other:?}"),
        }
        drop(client);
        peer.join().unwrap();
    }
}
