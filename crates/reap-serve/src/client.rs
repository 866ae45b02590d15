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
use crate::protocol::{Request, Response, PROTOCOL_VERSION};

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
    /// I/O failures, a closed connection, or an undecodable response.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        let mut line = request.encode();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Sends a raw pre-encoded line (malformed-input tests).
    ///
    /// # Errors
    ///
    /// Same as [`Client::request`].
    // reap-lint: allow(api) -- server_e2e::malformed_lines_get_error_frames_and_session_survives sends junk lines
    pub fn request_raw(&mut self, line: &str) -> io::Result<Response> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Response::decode(reply.trim_end_matches(['\n', '\r'])).map_err(protocol_io)
    }
}
