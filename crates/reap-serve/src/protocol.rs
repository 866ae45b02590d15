//! The wire protocol: newline-delimited JSON frames over TCP.
//!
//! Every frame is one line of UTF-8 JSON terminated by `\n`, at most
//! [`MAX_LINE_BYTES`] long, with a `"type"` tag naming the variant.
//! Decoding runs the workspace's one JSON codec ([`crate::json`], no
//! serde: the workspace is offline-vendored), whose nesting cap bounds
//! the parser's recursion, then typed extractors; encoding is direct
//! string building through the codec's writers. `f64` fields are
//! formatted with Rust's shortest-round-trip `Display`, so a value
//! decodes back to the exact same bits — the property the round-trip
//! proptests pin.
//!
//! Sessions open with a versioned handshake: the client's first decoded
//! frame must be `{"type":"hello","version":N}` with `N` equal to
//! [`PROTOCOL_VERSION`]; a `hello` of another version, or any other
//! request, is refused with an error frame and the connection closes.
//! After `{"type":"welcome",..}` the client streams requests and reads
//! one response frame per request, in order; a second `hello` is answered
//! with a `handshake` error. Blank lines get no reply. Errors never tear
//! down framing: a line that is not UTF-8 or not a known frame, before
//! the handshake or after it, is answered with a `malformed` error frame
//! and the session continues (only oversized lines close the connection,
//! because the frame boundary itself is no longer trusted).

use std::fmt::{self, Write as _};

use crate::json::{self, Value};

/// Protocol version spoken by this build; bumped on any wire change
/// (v2 added the `observe` sequence number for idempotent retries, the
/// `overloaded`/`evicted` error codes, and the shed/evicted counters in
/// server stats; v3 dropped the `path` of `checkpoint` and `restore`,
/// which go through the daemon's snapshot ring).
pub const PROTOCOL_VERSION: u32 = 3;

/// Hard cap on one frame (including the terminating newline). Lines
/// beyond it are rejected with an [`ErrorCode::Oversized`] frame and the
/// connection closes.
pub const MAX_LINE_BYTES: usize = 16 * 1024;

/// The largest `harvest_j` and `|activity|` an `observe` may carry; a
/// larger value is refused with [`ErrorCode::BadRequest`]. With it no
/// `u64` count of accepted observes can overflow a user's running sums:
/// an f64 addition of a term `x >= 0` to a sum `s >= 0` rounds to at
/// most `s + 2x`, so `n` terms of at most `B` sum to at most `2nB`, and
/// `2 * 2^64 * 1e200` is about `4e219`, far below `f64::MAX` (`1.8e308`).
/// The budget sum is bounded the same way, since a grant never exceeds
/// the battery's capacity plus the hour's harvest; the activity sum's
/// magnitude too, since adding a term of the other sign never increases
/// it; and the `stats` totals over `2^32` users stay below `1e230`.
pub(crate) const MAX_OBSERVE_VALUE: f64 = 1e200;

/// Machine-readable error category carried by an error frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Handshake version differs from [`PROTOCOL_VERSION`].
    Version,
    /// First frame was not `hello`, or `hello` arrived twice.
    Handshake,
    /// The line was not valid JSON, or not a known frame shape.
    Malformed,
    /// The line exceeded [`MAX_LINE_BYTES`].
    Oversized,
    /// A field failed validation (a non-finite or out-of-range harvest,
    /// a stale sequence number, ...).
    BadRequest,
    /// The referenced user does not exist in the resident fleet.
    UnknownUser,
    /// A checkpoint/restore operation failed (no snapshot ring, I/O or
    /// format).
    Snapshot,
    /// The server is shedding this request class under overload; safe to
    /// retry after a backoff.
    Overloaded,
    /// The connection is being evicted (stalled mid-frame past the
    /// server's frame deadline).
    Evicted,
    /// The server failed internally while handling the request.
    Internal,
}

impl ErrorCode {
    /// The stable wire string of the code.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Version => "version",
            ErrorCode::Handshake => "handshake",
            ErrorCode::Malformed => "malformed",
            ErrorCode::Oversized => "oversized",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownUser => "unknown_user",
            ErrorCode::Snapshot => "snapshot",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Evicted => "evicted",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire string back to the code.
    #[must_use]
    pub fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "version" => ErrorCode::Version,
            "handshake" => ErrorCode::Handshake,
            "malformed" => ErrorCode::Malformed,
            "oversized" => ErrorCode::Oversized,
            "bad_request" => ErrorCode::BadRequest,
            "unknown_user" => ErrorCode::UnknownUser,
            "snapshot" => ErrorCode::Snapshot,
            "overloaded" => ErrorCode::Overloaded,
            "evicted" => ErrorCode::Evicted,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A protocol-level failure: the error frame it should be answered with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ProtocolError {
    /// Builds an error.
    #[must_use]
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ProtocolError {
        ProtocolError {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// A client→server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Versioned handshake; must be the first frame of a session.
    Hello {
        /// Client protocol version.
        version: u32,
    },
    /// Stream one completed hour of one user's life into the resident
    /// state: hour `hour` (any absolute hour; slotted mod 24) harvested
    /// `harvest_j` joules, with an optional activity intensity.
    Observe {
        /// Fleet user index.
        user: u32,
        /// Hour the observation describes (taken mod 24 for the diurnal
        /// slot).
        hour: u32,
        /// Energy harvested during the hour, in joules (in `[0, 1e200]`,
        /// the protocol's observe bound).
        harvest_j: f64,
        /// Optional activity intensity for the hour (finite, and at most
        /// 1e200 in magnitude, if present).
        activity: Option<f64>,
        /// Optional client sequence number (starting at 1, strictly
        /// increasing per user) making the observe idempotent: resending
        /// the newest applied number replays the cached budget instead of
        /// reapplying the observation.
        seq: Option<u64>,
    },
    /// Serve an allocation decision for the user's upcoming hour from the
    /// user's cached plan frontier. Read-only: repeated decides are
    /// idempotent.
    Decide {
        /// Fleet user index.
        user: u32,
    },
    /// Fetch fleet + server statistics.
    Stats,
    /// Write a versioned binary snapshot of the whole population as the
    /// next entry of the daemon's snapshot ring.
    Checkpoint,
    /// Replace the whole population's state from the newest snapshot in
    /// the daemon's ring that validates.
    Restore,
    /// Gracefully stop the server: in-flight connections drain, the
    /// ring's final checkpoint is written if a ring is configured, the
    /// process exits 0.
    Shutdown,
}

/// One operating point's share of a served decision, on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireShare {
    /// Operating point id.
    pub id: u8,
    /// Seconds of the period at this point.
    pub seconds: f64,
}

/// The deterministic, checkpoint-covered half of a `stats` response:
/// pure functions of the observation stream, bit-identical across
/// checkpoint/restore (the property the snapshot tests pin).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Resident users.
    pub users: u32,
    /// The user count ([`FleetState::cohorts`](crate::FleetState::cohorts)):
    /// every user has a frontier of their own. Kept because the wire
    /// format and perfbench carry it.
    pub cohorts: u32,
    /// Total observations absorbed.
    pub observations: u64,
    /// Sum of harvested energy over all observations, in joules.
    pub harvested_j: f64,
    /// Sum of granted budgets over all observations, in joules.
    pub budget_j: f64,
    /// Sum of current virtual-battery levels, in joules.
    pub battery_j: f64,
    /// Sum of reported activity intensities.
    pub activity: f64,
    /// FNV-1a digest over every user's serialized resident state.
    pub state_digest: u64,
}

/// The timing-dependent half of a `stats` response: request counters and
/// latency quantiles. Not checkpointed (a restored server starts fresh).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Total requests handled (post-handshake).
    pub requests: u64,
    /// Error frames sent.
    pub errors: u64,
    /// `observe` requests handled.
    pub observes: u64,
    /// `decide` requests handled.
    pub decides: u64,
    /// `checkpoint` requests handled, failed writes included; periodic
    /// and final ring writes are not requests and are not counted.
    pub checkpoints: u64,
    /// `restore` requests handled.
    pub restores: u64,
    /// Connections evicted for stalling mid-frame past the frame
    /// deadline (slow-loris defense).
    pub evicted: u64,
    /// `observe` requests shed with [`ErrorCode::Overloaded`] while the
    /// server was over its shed threshold.
    pub shed: u64,
    /// Server-side observe handling p50, in microseconds.
    pub observe_p50_us: f64,
    /// Server-side observe handling p99, in microseconds.
    pub observe_p99_us: f64,
    /// Server-side decide handling p50, in microseconds.
    pub decide_p50_us: f64,
    /// Server-side decide handling p99, in microseconds.
    pub decide_p99_us: f64,
}

/// A server→client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful handshake.
    Welcome {
        /// Server protocol version (equals [`PROTOCOL_VERSION`]).
        version: u32,
        /// Resident fleet size.
        users: u32,
    },
    /// An observation was absorbed; echoes the open-loop budget granted
    /// for the observed hour.
    Observed {
        /// Fleet user index.
        user: u32,
        /// Echo of the observed hour.
        hour: u32,
        /// Budget granted for the observed hour, in joules.
        budget_j: f64,
    },
    /// A served allocation decision.
    Decision {
        /// Fleet user index.
        user: u32,
        /// Budget the plan was decided at, in joules.
        budget_j: f64,
        /// Expected accuracy of the plan over the period.
        accuracy: f64,
        /// Active seconds of the plan.
        active_s: f64,
        /// Energy the plan consumes, in joules.
        energy_j: f64,
        /// Off-state seconds of the plan.
        off_s: f64,
        /// The (at most two) point shares of the blend, ascending id.
        shares: Vec<WireShare>,
    },
    /// Fleet + server statistics.
    Stats {
        /// Deterministic, checkpoint-covered statistics.
        fleet: FleetStats,
        /// Timing-dependent request-path statistics.
        server: ServerStats,
    },
    /// A checkpoint was written.
    CheckpointDone {
        /// The ring file written.
        path: String,
        /// Snapshot size in bytes.
        bytes: u64,
    },
    /// A snapshot was restored.
    RestoreDone {
        /// The ring file restored from.
        path: String,
        /// Users restored.
        users: u32,
    },
    /// Acknowledges a shutdown request; the server stops accepting and
    /// drains.
    ShuttingDown,
    /// An error frame.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl From<ProtocolError> for Response {
    fn from(e: ProtocolError) -> Response {
        Response::Error {
            code: e.code,
            message: e.message,
        }
    }
}

/// A [`ErrorCode::Malformed`] error.
fn malformed(message: impl Into<String>) -> ProtocolError {
    ProtocolError::new(ErrorCode::Malformed, message)
}

/// Parses one frame line; a frame is always an object.
fn parse_frame(line: &str) -> Result<Value, ProtocolError> {
    let v = json::parse(line).map_err(|e| malformed(e.to_string()))?;
    object(&v)?;
    Ok(v)
}

fn object(v: &Value) -> Result<&Value, ProtocolError> {
    match v {
        Value::Obj(_) => Ok(v),
        _ => Err(malformed("frame is not a JSON object")),
    }
}

fn need<'a>(obj: &'a Value, key: &str) -> Result<&'a Value, ProtocolError> {
    obj.get(key)
        .ok_or_else(|| malformed(format!("missing field {key:?}")))
}

fn need_f64(obj: &Value, key: &str) -> Result<f64, ProtocolError> {
    need(obj, key)?
        .as_f64()
        .ok_or_else(|| malformed(format!("field {key:?} is not a number")))
}

fn need_u32(obj: &Value, key: &str) -> Result<u32, ProtocolError> {
    let v = need_f64(obj, key)?;
    if v.fract() != 0.0 || !(0.0..=f64::from(u32::MAX)).contains(&v) {
        return Err(malformed(format!("field {key:?} is not a u32")));
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok(v as u32)
}

fn need_u64(obj: &Value, key: &str) -> Result<u64, ProtocolError> {
    let v = need_f64(obj, key)?;
    if v.fract() != 0.0 || !(0.0..=9.007_199_254_740_992e15).contains(&v) {
        return Err(malformed(format!(
            "field {key:?} is not an exactly-representable u64"
        )));
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok(v as u64)
}

fn need_str<'a>(obj: &'a Value, key: &str) -> Result<&'a str, ProtocolError> {
    need(obj, key)?
        .as_str()
        .ok_or_else(|| malformed(format!("field {key:?} is not a string")))
}

impl Request {
    /// Encodes the request as one JSON line **without** the trailing
    /// newline (the framing layer appends it).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut s = String::with_capacity(64);
        match self {
            Request::Hello { version } => {
                let _ = write!(s, "{{\"type\":\"hello\",\"version\":{version}}}");
            }
            Request::Observe {
                user,
                hour,
                harvest_j,
                activity,
                seq,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"observe\",\"user\":{user},\"hour\":{hour},\"harvest_j\":"
                );
                json::write_f64(&mut s, *harvest_j);
                if let Some(a) = activity {
                    s.push_str(",\"activity\":");
                    json::write_f64(&mut s, *a);
                }
                if let Some(n) = seq {
                    let _ = write!(s, ",\"seq\":{n}");
                }
                s.push('}');
            }
            Request::Decide { user } => {
                let _ = write!(s, "{{\"type\":\"decide\",\"user\":{user}}}");
            }
            Request::Stats => s.push_str("{\"type\":\"stats\"}"),
            Request::Checkpoint => s.push_str("{\"type\":\"checkpoint\"}"),
            Request::Restore => s.push_str("{\"type\":\"restore\"}"),
            Request::Shutdown => s.push_str("{\"type\":\"shutdown\"}"),
        }
        s
    }

    /// Decodes one line (without its newline) into a request.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] with [`ErrorCode::Malformed`] on anything that
    /// is not a well-formed known request frame.
    pub fn decode(line: &str) -> Result<Request, ProtocolError> {
        let obj = &parse_frame(line)?;
        match need_str(obj, "type")? {
            "hello" => Ok(Request::Hello {
                version: need_u32(obj, "version")?,
            }),
            "observe" => {
                let activity = match obj.get("activity") {
                    None | Some(Value::Null) => None,
                    Some(Value::Num(a)) => Some(*a),
                    Some(_) => return Err(malformed("field \"activity\" is not a number")),
                };
                let seq = match obj.get("seq") {
                    None | Some(Value::Null) => None,
                    Some(_) => Some(need_u64(obj, "seq")?),
                };
                Ok(Request::Observe {
                    user: need_u32(obj, "user")?,
                    hour: need_u32(obj, "hour")?,
                    harvest_j: need_f64(obj, "harvest_j")?,
                    activity,
                    seq,
                })
            }
            "decide" => Ok(Request::Decide {
                user: need_u32(obj, "user")?,
            }),
            "stats" => Ok(Request::Stats),
            "checkpoint" => Ok(Request::Checkpoint),
            "restore" => Ok(Request::Restore),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(malformed(format!("unknown request type {other:?}"))),
        }
    }
}

impl Response {
    /// Encodes the response as one JSON line **without** the trailing
    /// newline.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut s = String::with_capacity(96);
        match self {
            Response::Welcome { version, users } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"welcome\",\"version\":{version},\"users\":{users}}}"
                );
            }
            Response::Observed {
                user,
                hour,
                budget_j,
            } => {
                let _ = write!(
                    s,
                    "{{\"type\":\"observed\",\"user\":{user},\"hour\":{hour},\"budget_j\":"
                );
                json::write_f64(&mut s, *budget_j);
                s.push('}');
            }
            Response::Decision {
                user,
                budget_j,
                accuracy,
                active_s,
                energy_j,
                off_s,
                shares,
            } => {
                let _ = write!(s, "{{\"type\":\"decision\",\"user\":{user}");
                for (key, v) in [
                    ("budget_j", budget_j),
                    ("accuracy", accuracy),
                    ("active_s", active_s),
                    ("energy_j", energy_j),
                    ("off_s", off_s),
                ] {
                    let _ = write!(s, ",\"{key}\":");
                    json::write_f64(&mut s, *v);
                }
                s.push_str(",\"shares\":[");
                for (i, share) in shares.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "{{\"id\":{},\"seconds\":", share.id);
                    json::write_f64(&mut s, share.seconds);
                    s.push('}');
                }
                s.push_str("]}");
            }
            Response::Stats { fleet, server } => {
                s.push_str("{\"type\":\"stats\",\"fleet\":");
                s.push_str(&fleet.encode());
                s.push_str(",\"server\":");
                s.push_str(&server.encode());
                s.push('}');
            }
            Response::CheckpointDone { path, bytes } => {
                s.push_str("{\"type\":\"checkpoint_done\",\"path\":");
                json::write_str(&mut s, path);
                let _ = write!(s, ",\"bytes\":{bytes}}}");
            }
            Response::RestoreDone { path, users } => {
                s.push_str("{\"type\":\"restore_done\",\"path\":");
                json::write_str(&mut s, path);
                let _ = write!(s, ",\"users\":{users}}}");
            }
            Response::ShuttingDown => s.push_str("{\"type\":\"shutting_down\"}"),
            Response::Error { code, message } => {
                let _ = write!(s, "{{\"type\":\"error\",\"code\":\"{code}\",\"message\":");
                json::write_str(&mut s, message);
                s.push('}');
            }
        }
        s
    }

    /// Decodes one line (without its newline) into a response.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] with [`ErrorCode::Malformed`] on anything that
    /// is not a well-formed known response frame.
    pub fn decode(line: &str) -> Result<Response, ProtocolError> {
        let obj = &parse_frame(line)?;
        match need_str(obj, "type")? {
            "welcome" => Ok(Response::Welcome {
                version: need_u32(obj, "version")?,
                users: need_u32(obj, "users")?,
            }),
            "observed" => Ok(Response::Observed {
                user: need_u32(obj, "user")?,
                hour: need_u32(obj, "hour")?,
                budget_j: need_f64(obj, "budget_j")?,
            }),
            "decision" => {
                let shares = need(obj, "shares")?
                    .as_arr()
                    .ok_or_else(|| malformed("field \"shares\" is not an array"))?
                    .iter()
                    .map(|item| {
                        let share = object(item)?;
                        let id = u8::try_from(need_u32(share, "id")?)
                            .map_err(|_| malformed("share id overflows u8"))?;
                        Ok(WireShare {
                            id,
                            seconds: need_f64(share, "seconds")?,
                        })
                    })
                    .collect::<Result<Vec<_>, ProtocolError>>()?;
                Ok(Response::Decision {
                    user: need_u32(obj, "user")?,
                    budget_j: need_f64(obj, "budget_j")?,
                    accuracy: need_f64(obj, "accuracy")?,
                    active_s: need_f64(obj, "active_s")?,
                    energy_j: need_f64(obj, "energy_j")?,
                    off_s: need_f64(obj, "off_s")?,
                    shares,
                })
            }
            "stats" => Ok(Response::Stats {
                fleet: FleetStats::decode_obj(object(need(obj, "fleet")?)?)?,
                server: ServerStats::decode_obj(object(need(obj, "server")?)?)?,
            }),
            "checkpoint_done" => Ok(Response::CheckpointDone {
                path: need_str(obj, "path")?.to_string(),
                bytes: need_u64(obj, "bytes")?,
            }),
            "restore_done" => Ok(Response::RestoreDone {
                path: need_str(obj, "path")?.to_string(),
                users: need_u32(obj, "users")?,
            }),
            "shutting_down" => Ok(Response::ShuttingDown),
            "error" => {
                let code_str = need_str(obj, "code")?;
                let code = ErrorCode::parse(code_str)
                    .ok_or_else(|| malformed(format!("unknown error code {code_str:?}")))?;
                Ok(Response::Error {
                    code,
                    message: need_str(obj, "message")?.to_string(),
                })
            }
            other => Err(malformed(format!("unknown response type {other:?}"))),
        }
    }
}

impl FleetStats {
    /// Encodes the deterministic fleet section as a JSON object. Field
    /// values are pure functions of the observation stream, and `f64`s
    /// print in shortest-round-trip form — so bit-identical state yields
    /// a byte-identical encoding (what the checkpoint tests compare).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut s = String::with_capacity(160);
        let _ = write!(
            s,
            "{{\"users\":{},\"cohorts\":{},\"observations\":{}",
            self.users, self.cohorts, self.observations
        );
        for (key, v) in [
            ("harvested_j", self.harvested_j),
            ("budget_j", self.budget_j),
            ("battery_j", self.battery_j),
            ("activity", self.activity),
        ] {
            let _ = write!(s, ",\"{key}\":");
            json::write_f64(&mut s, v);
        }
        let _ = write!(s, ",\"state_digest\":\"{:016x}\"}}", self.state_digest);
        s
    }

    fn decode_obj(obj: &Value) -> Result<FleetStats, ProtocolError> {
        let state_digest = u64::from_str_radix(need_str(obj, "state_digest")?, 16)
            .map_err(|_| malformed("state_digest is not a hex u64"))?;
        Ok(FleetStats {
            users: need_u32(obj, "users")?,
            cohorts: need_u32(obj, "cohorts")?,
            observations: need_u64(obj, "observations")?,
            harvested_j: need_f64(obj, "harvested_j")?,
            budget_j: need_f64(obj, "budget_j")?,
            battery_j: need_f64(obj, "battery_j")?,
            activity: need_f64(obj, "activity")?,
            state_digest,
        })
    }
}

impl ServerStats {
    /// Encodes the server section as a JSON object.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut s = String::with_capacity(224);
        let _ = write!(
            s,
            "{{\"connections\":{},\"requests\":{},\"errors\":{},\"observes\":{},\
             \"decides\":{},\"checkpoints\":{},\"restores\":{},\"evicted\":{},\"shed\":{}",
            self.connections,
            self.requests,
            self.errors,
            self.observes,
            self.decides,
            self.checkpoints,
            self.restores,
            self.evicted,
            self.shed
        );
        for (key, v) in [
            ("observe_p50_us", self.observe_p50_us),
            ("observe_p99_us", self.observe_p99_us),
            ("decide_p50_us", self.decide_p50_us),
            ("decide_p99_us", self.decide_p99_us),
        ] {
            let _ = write!(s, ",\"{key}\":");
            json::write_f64(&mut s, v);
        }
        s.push('}');
        s
    }

    fn decode_obj(obj: &Value) -> Result<ServerStats, ProtocolError> {
        Ok(ServerStats {
            connections: need_u64(obj, "connections")?,
            requests: need_u64(obj, "requests")?,
            errors: need_u64(obj, "errors")?,
            observes: need_u64(obj, "observes")?,
            decides: need_u64(obj, "decides")?,
            checkpoints: need_u64(obj, "checkpoints")?,
            restores: need_u64(obj, "restores")?,
            evicted: need_u64(obj, "evicted")?,
            shed: need_u64(obj, "shed")?,
            observe_p50_us: need_f64(obj, "observe_p50_us")?,
            observe_p99_us: need_f64(obj, "observe_p99_us")?,
            decide_p50_us: need_f64(obj, "decide_p50_us")?,
            decide_p99_us: need_f64(obj, "decide_p99_us")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = [
            Request::Hello { version: 2 },
            Request::Observe {
                user: 42,
                hour: 17,
                harvest_j: 1.2345678901234567,
                activity: Some(0.5),
                seq: Some(u64::from(u32::MAX) + 7),
            },
            Request::Observe {
                user: 0,
                hour: 0,
                harvest_j: 0.0,
                activity: None,
                seq: None,
            },
            Request::Decide { user: u32::MAX },
            Request::Stats,
            Request::Checkpoint,
            Request::Restore,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.encode();
            assert!(
                !line.contains('\n'),
                "encoded frame contains newline: {line}"
            );
            assert_eq!(Request::decode(&line).unwrap(), req, "line: {line}");
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = [
            Response::Welcome {
                version: 2,
                users: 2000,
            },
            Response::Observed {
                user: 3,
                hour: 23,
                budget_j: 0.18,
            },
            Response::Decision {
                user: 9,
                budget_j: 4.999999999999999,
                accuracy: 0.87,
                active_s: 3600.0,
                energy_j: 5.0,
                off_s: 0.0,
                shares: vec![
                    WireShare {
                        id: 4,
                        seconds: 1511.9999999,
                    },
                    WireShare {
                        id: 5,
                        seconds: 2088.0000001,
                    },
                ],
            },
            Response::Stats {
                fleet: FleetStats {
                    users: 10,
                    cohorts: 10,
                    observations: 240,
                    harvested_j: 123.456,
                    budget_j: 100.0,
                    battery_j: 299.5,
                    activity: 0.0,
                    state_digest: 0xDEAD_BEEF_CAFE_F00D,
                },
                server: ServerStats {
                    connections: 3,
                    requests: 250,
                    errors: 1,
                    observes: 240,
                    decides: 9,
                    checkpoints: 0,
                    restores: 0,
                    evicted: 2,
                    shed: 5,
                    observe_p50_us: 1.5,
                    observe_p99_us: 12.0,
                    decide_p50_us: 0.5,
                    decide_p99_us: 4.0,
                },
            },
            Response::CheckpointDone {
                path: "/tmp/ckpt.bin".into(),
                bytes: 123_456,
            },
            Response::RestoreDone {
                path: "snap".into(),
                users: 64,
            },
            Response::ShuttingDown,
            Response::Error {
                code: ErrorCode::Malformed,
                message: "broken \"frame\"".into(),
            },
        ];
        for resp in resps {
            let line = resp.encode();
            assert!(
                !line.contains('\n'),
                "encoded frame contains newline: {line}"
            );
            assert_eq!(Response::decode(&line).unwrap(), resp, "line: {line}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for line in [
            "",
            "not json",
            "{",
            "{}",
            "[1,2]",
            "{\"type\":\"nope\"}",
            "{\"type\":\"observe\",\"user\":1}",
            "{\"type\":\"observe\",\"user\":-1,\"hour\":0,\"harvest_j\":1}",
            "{\"type\":\"observe\",\"user\":1.5,\"hour\":0,\"harvest_j\":1}",
            "{\"type\":\"observe\",\"user\":1,\"hour\":0,\"harvest_j\":1,\"seq\":-1}",
            "{\"type\":\"observe\",\"user\":1,\"hour\":0,\"harvest_j\":1,\"seq\":1.5}",
            "{\"type\":\"observe\",\"user\":1,\"hour\":0,\"harvest_j\":1,\"seq\":\"x\"}",
            "{\"type\":\"decide\",\"user\":\"three\"}",
            "{\"type\":\"hello\",\"version\":1} trailing",
            "{\"type\":\"checkpoint_done\",\"path\":7,\"bytes\":1}",
            "{\"type\":\"hello\",\"version\":1e999}",
            "{\"type\":\"error\",\"code\":\"martian\",\"message\":\"x\"}",
        ] {
            assert!(Request::decode(line).is_err(), "accepted request: {line:?}");
            assert!(
                Response::decode(line).is_err(),
                "accepted response: {line:?}"
            );
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        let frame = "{\"type\":\"restore_done\",\"path\":\"\\u00e9\\ud83d\\ude02x\",\"users\":1}";
        assert_eq!(
            Response::decode(frame).unwrap(),
            Response::RestoreDone {
                path: "é😂x".into(),
                users: 1
            }
        );
        let lone = "{\"type\":\"restore_done\",\"path\":\"\\ud83d\",\"users\":1}";
        assert!(Response::decode(lone).is_err());
    }
}
