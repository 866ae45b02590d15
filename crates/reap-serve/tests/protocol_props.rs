//! Property tests for the wire protocol: encode/decode round-trips over
//! arbitrary requests and responses (exact f64 bits preserved), malformed
//! input always answered with a structured error rather than a panic, and
//! the framing invariants (single line, bounded size) the server relies
//! on. The JSON codec underneath gets the same treatment on arbitrary
//! trees: bit-exact round trips up to the nesting cap, errors (never
//! panics) on junk and truncations, and the cap itself.

use proptest::prelude::*;
use reap_serve::json::{self, Value, MAX_DEPTH};
use reap_serve::{
    ErrorCode, FleetStats, Request, Response, ServerStats, WireShare, MAX_LINE_BYTES,
};

fn arb_f64() -> impl Strategy<Value = f64> {
    // Mixed magnitudes, exact decimals and awkward irrationals alike;
    // shortest-round-trip Display must bring all of them back bit-exact.
    prop_oneof![
        Just(0.0f64),
        Just(0.18),
        Just(1.0 / 3.0),
        Just(f64::MIN_POSITIVE),
        Just(1e300),
        -1e9f64..1e9,
        0.0f64..1.0,
    ]
}

fn arb_path() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("/tmp/plain.snap".to_string()),
        Just("with \"quotes\" and \\ slashes".to_string()),
        Just("newline\nand\ttab".to_string()),
        Just("unicode é🙂\u{0001}".to_string()),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (0u32..10).prop_map(|version| Request::Hello { version }),
        (
            0u32..5000,
            0u32..48,
            arb_f64(),
            prop_oneof![Just(None), arb_f64().prop_map(Some)],
            prop_oneof![Just(None), (1u64..1 << 50).prop_map(Some)]
        )
            .prop_map(|(user, hour, harvest_j, activity, seq)| Request::Observe {
                user,
                hour,
                harvest_j: harvest_j.abs(),
                activity,
                seq,
            }),
        (0u32..5000).prop_map(|user| Request::Decide { user }),
        Just(Request::Stats),
        Just(Request::Checkpoint),
        Just(Request::Restore),
        Just(Request::Shutdown),
    ]
}

fn arb_shares() -> impl Strategy<Value = Vec<WireShare>> {
    proptest::collection::vec(
        (0u32..=255, 0.0f64..3600.0).prop_map(|(id, seconds)| WireShare {
            id: id as u8,
            seconds,
        }),
        0..3,
    )
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    proptest::sample::select(vec![
        ErrorCode::Version,
        ErrorCode::Handshake,
        ErrorCode::Malformed,
        ErrorCode::Oversized,
        ErrorCode::BadRequest,
        ErrorCode::UnknownUser,
        ErrorCode::Snapshot,
        ErrorCode::Internal,
        ErrorCode::Overloaded,
        ErrorCode::Evicted,
    ])
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (0u32..9, 0u32..100_000).prop_map(|(version, users)| Response::Welcome { version, users }),
        (0u32..5000, 0u32..24, arb_f64()).prop_map(|(user, hour, budget_j)| {
            Response::Observed {
                user,
                hour,
                budget_j,
            }
        }),
        (
            0u32..5000,
            arb_f64(),
            arb_f64(),
            arb_f64(),
            arb_f64(),
            arb_f64(),
            arb_shares()
        )
            .prop_map(
                |(user, budget_j, accuracy, active_s, energy_j, off_s, shares)| {
                    Response::Decision {
                        user,
                        budget_j,
                        accuracy,
                        active_s,
                        energy_j,
                        off_s,
                        shares,
                    }
                }
            ),
        (
            (0u32..1000, 0u32..1000, 0u64..1 << 50, arb_f64()),
            (arb_f64(), arb_f64(), arb_f64()),
            (0u64..u64::MAX, 0u64..1 << 50, 0u64..1000),
            (0u64..1 << 40, 0u64..1 << 40, 0u64..100, 0u64..100),
            (arb_f64(), arb_f64(), arb_f64(), arb_f64()),
        )
            .prop_map(|(a, b, c, d, e)| Response::Stats {
                fleet: FleetStats {
                    users: a.0,
                    cohorts: a.1,
                    observations: a.2,
                    harvested_j: a.3,
                    budget_j: b.0,
                    battery_j: b.1,
                    activity: b.2,
                    state_digest: c.0,
                },
                server: ServerStats {
                    connections: c.2,
                    requests: c.1,
                    errors: d.2,
                    observes: d.0,
                    decides: d.1,
                    checkpoints: d.3,
                    restores: d.2,
                    evicted: d.3,
                    shed: d.2,
                    observe_p50_us: e.0,
                    observe_p99_us: e.1,
                    decide_p50_us: e.2,
                    decide_p99_us: e.3,
                },
            }),
        (arb_path(), 0u64..1 << 50)
            .prop_map(|(path, bytes)| Response::CheckpointDone { path, bytes }),
        (arb_path(), 0u32..100_000).prop_map(|(path, users)| Response::RestoreDone { path, users }),
        Just(Response::ShuttingDown),
        (arb_error_code(), arb_path())
            .prop_map(|(code, message)| Response::Error { code, message }),
    ]
}

/// Arbitrary junk lines: random bytes, truncated JSON, close-but-wrong
/// frames.
fn arb_junk() -> impl Strategy<Value = String> {
    prop_oneof![
        // Printable noise.
        proptest::collection::vec(32u8..127, 0..80)
            .prop_map(|b| String::from_utf8(b).expect("printable ASCII")),
        // Valid JSON, wrong shape.
        Just("[1,2,3]".to_string()),
        Just("42".to_string()),
        Just("\"observe\"".to_string()),
        Just("{\"type\":42}".to_string()),
        Just("{\"type\":\"observe\"}".to_string()),
        // Truncations of a valid frame.
        (0usize..30).prop_map(|n| {
            let full = "{\"type\":\"decide\",\"user\":3}";
            full[..n.min(full.len())].to_string()
        }),
    ]
}

/// Numbers for codec trees: the frame mix plus signed zero, the extremes
/// and a subnormal.
fn arb_num() -> impl Strategy<Value = f64> {
    prop_oneof![
        arb_f64(),
        Just(-0.0f64),
        Just(f64::MAX),
        Just(-f64::MIN_POSITIVE),
        Just(5e-324),
    ]
}

/// Text drawn from characters the codec treats specially: quotes,
/// backslashes, control characters, JSON structure, non-ASCII.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        proptest::sample::select(vec![
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
            '\u{7f}', '{', ']', ':', ',', 'é', '\u{2028}', '日', '🙂',
        ]),
        0..12,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

fn arb_leaf() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0u8..2).prop_map(|b| Value::Bool(b == 1)),
        arb_num().prop_map(Value::Num),
        arb_text().prop_map(Value::Str),
    ]
}

/// A tree exactly `1..=max_depth` containers deep: a spine of arrays and
/// objects, each level holding a few leaf siblings around the next level
/// down.
fn arb_tree(max_depth: usize) -> impl Strategy<Value = Value> {
    let level = || {
        (
            0u8..2,
            proptest::collection::vec((arb_text(), arb_leaf()), 0..3),
            0usize..3,
        )
    };
    (1..=max_depth)
        .prop_flat_map(move |depth| proptest::collection::vec(level(), depth))
        .prop_map(|levels| {
            let mut inner: Option<Value> = None;
            for (kind, mut members, at) in levels {
                if let Some(v) = inner.take() {
                    members.insert(at.min(members.len()), ("inner".to_string(), v));
                }
                inner = Some(if kind == 1 {
                    Value::Obj(members)
                } else {
                    Value::Arr(members.into_iter().map(|(_, v)| v).collect())
                });
            }
            inner.expect("at least one level")
        })
}

/// Structural equality with numbers compared bit for bit.
fn bits_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => x.to_bits() == y.to_bits(),
        (Value::Arr(xs), Value::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| bits_equal(x, y))
        }
        (Value::Obj(xs), Value::Obj(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && bits_equal(x, y))
        }
        _ => a == b,
    }
}

/// `depth` nested containers (array or object per `kinds`) around `0`.
fn nested(kinds: &[u8]) -> String {
    let mut text = String::new();
    for kind in kinds {
        text.push_str(if *kind == 1 { "{\"k\":" } else { "[" });
    }
    text.push('0');
    for kind in kinds.iter().rev() {
        text.push(if *kind == 1 { '}' } else { ']' });
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn codec_trees_round_trip_bit_exactly(tree in arb_tree(MAX_DEPTH)) {
        let text = tree.encode();
        prop_assert!(!text.contains('\n'), "document spans lines: {text}");
        let back = match json::parse(&text) {
            Ok(v) => v,
            Err(e) => panic!("parse failed on {text}: {e}"),
        };
        prop_assert!(bits_equal(&back, &tree), "tree changed through {}", text);
        prop_assert_eq!(back.encode(), text);
    }

    #[test]
    fn codec_junk_and_truncations_are_errors_not_panics(
        junk in arb_text(),
        tree in arb_tree(6),
    ) {
        // Arbitrary text may or may not be JSON; either way the parser
        // answers, and an error points inside the input.
        if let Err(e) = json::parse(&junk) {
            prop_assert!(e.offset <= junk.len(), "offset {} past {junk:?}", e.offset);
        }
        // Every strict prefix of a container document is incomplete.
        let text = tree.encode();
        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            prop_assert!(json::parse(&text[..cut]).is_err(), "accepted prefix {:?}", &text[..cut]);
        }
        // So is a complete document with anything but whitespace after it.
        let trailing = format!("{text}{junk}");
        if !junk.trim_start_matches([' ', '\n', '\t']).is_empty() {
            prop_assert!(json::parse(&trailing).is_err(), "accepted {trailing:?}");
        }
    }

    #[test]
    fn codec_nesting_cap_is_exact(kinds in proptest::collection::vec(0u8..2, MAX_DEPTH + 1)) {
        let at_cap = nested(&kinds[..MAX_DEPTH]);
        prop_assert!(json::parse(&at_cap).is_ok(), "rejected {at_cap}");
        let over = nested(&kinds);
        match json::parse(&over) {
            Err(e) => {
                // Rejected at the opening bracket one level past the cap.
                let opening = over.match_indices(['[', '{']).nth(MAX_DEPTH).map(|(i, _)| i);
                prop_assert_eq!(Some(e.offset), opening);
            }
            Ok(_) => panic!("accepted {} levels", MAX_DEPTH + 1),
        }
    }

    #[test]
    fn requests_round_trip_bit_exactly(req in arb_request()) {
        let line = req.encode();
        prop_assert!(!line.contains('\n'), "frame spans lines: {line}");
        prop_assert!(line.len() < MAX_LINE_BYTES, "frame oversized: {}", line.len());
        let back = Request::decode(&line);
        // PartialEq on Request compares f64 by value; bit-exactness needs
        // a second encode (identical bits <=> identical shortest repr).
        let back = match back {
            Ok(b) => b,
            Err(e) => panic!("decode failed on {line}: {e}"),
        };
        prop_assert_eq!(&back, &req, "value mismatch on {}", line);
        prop_assert_eq!(back.encode(), line);
    }

    #[test]
    fn responses_round_trip_bit_exactly(resp in arb_response()) {
        let line = resp.encode();
        prop_assert!(!line.contains('\n'), "frame spans lines: {line}");
        let back = match Response::decode(&line) {
            Ok(b) => b,
            Err(e) => panic!("decode failed on {line}: {e}"),
        };
        prop_assert_eq!(&back, &resp, "value mismatch on {}", line);
        prop_assert_eq!(back.encode(), line);
    }

    #[test]
    fn junk_never_panics_and_reports_malformed(line in arb_junk()) {
        // Whatever arrives, the decoder must return a structured error
        // (or, rarely, a valid frame if the junk happens to be one) —
        // never panic.
        if let Err(e) = Request::decode(&line) {
            prop_assert_eq!(e.code, ErrorCode::Malformed);
            prop_assert!(!e.message.is_empty());
        }
        if let Err(e) = Response::decode(&line) {
            prop_assert_eq!(e.code, ErrorCode::Malformed);
        }
    }

    #[test]
    fn error_frames_round_trip_their_code(code in arb_error_code(), msg in arb_path()) {
        let frame = Response::Error { code, message: msg.clone() };
        let line = frame.encode();
        match Response::decode(&line) {
            Ok(Response::Error { code: c, message: m }) => {
                prop_assert_eq!(c, code);
                prop_assert_eq!(m, msg);
            }
            other => panic!("error frame decoded to {other:?}"),
        }
    }
}
