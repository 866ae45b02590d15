//! Golden wire bytes: the exact `encode()` output of one frame per
//! `Request` and `Response` variant. The round-trip properties would
//! still pass an encoder whose bytes drifted (a reordered key, a
//! different float spelling, a new escape); this file pins the bytes a
//! deployed client sees.

use reap_serve::{ErrorCode, FleetStats, Request, Response, ServerStats, WireShare};

fn requests() -> Vec<Request> {
    vec![
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
        Request::Observe {
            user: 7,
            hour: 49,
            harvest_j: 1e-7,
            activity: None,
            seq: Some(1),
        },
        Request::Observe {
            user: 8,
            hour: 3,
            harvest_j: 2.5e21,
            activity: Some(-0.0),
            seq: None,
        },
        Request::Decide { user: u32::MAX },
        Request::Stats,
        Request::Checkpoint,
        Request::Restore,
        Request::Shutdown,
    ]
}

const REQUEST_BYTES: &[&str] = &[
    r#"{"type":"hello","version":2}"#,
    r#"{"type":"observe","user":42,"hour":17,"harvest_j":1.2345678901234567,"activity":0.5,"seq":4294967302}"#,
    r#"{"type":"observe","user":0,"hour":0,"harvest_j":0}"#,
    r#"{"type":"observe","user":7,"hour":49,"harvest_j":0.0000001,"seq":1}"#,
    r#"{"type":"observe","user":8,"hour":3,"harvest_j":2500000000000000000000,"activity":-0}"#,
    r#"{"type":"decide","user":4294967295}"#,
    r#"{"type":"stats"}"#,
    r#"{"type":"checkpoint"}"#,
    r#"{"type":"restore"}"#,
    r#"{"type":"shutdown"}"#,
];

fn responses() -> Vec<Response> {
    let mut out = vec![
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
                    id: 255,
                    seconds: 2088.0000001,
                },
            ],
        },
        Response::Decision {
            user: 0,
            budget_j: 0.18,
            accuracy: 0.0,
            active_s: 0.0,
            energy_j: 0.0,
            off_s: 3600.0,
            shares: Vec::new(),
        },
        Response::Stats {
            fleet: FleetStats {
                users: 10,
                cohorts: 10,
                observations: 240,
                harvested_j: 123.456,
                budget_j: 100.0,
                battery_j: 299.5,
                activity: 1.0 / 3.0,
                state_digest: 0xDEAD_BEEF_CAFE_F00D,
            },
            server: ServerStats {
                connections: 3,
                requests: 250,
                errors: 1,
                observes: 240,
                decides: 9,
                checkpoints: 4,
                restores: 5,
                evicted: 2,
                shed: 6,
                observe_p50_us: 1.5,
                observe_p99_us: 12.0,
                decide_p50_us: 0.5,
                decide_p99_us: 4.25,
            },
        },
        Response::Stats {
            fleet: FleetStats {
                users: 0,
                cohorts: 0,
                observations: 0,
                harvested_j: 0.0,
                budget_j: 0.0,
                battery_j: 0.0,
                activity: 0.0,
                state_digest: 0x2a,
            },
            server: ServerStats {
                connections: 0,
                requests: 0,
                errors: 0,
                observes: 0,
                decides: 0,
                checkpoints: 0,
                restores: 0,
                evicted: 0,
                shed: 0,
                observe_p50_us: 0.0,
                observe_p99_us: 0.0,
                decide_p50_us: 0.0,
                decide_p99_us: 0.0,
            },
        },
        Response::CheckpointDone {
            path: "/tmp/ckpt \"a\"\\b.bin".into(),
            bytes: 123_456,
        },
        Response::RestoreDone {
            path: "snap-ü🙂".into(),
            users: 64,
        },
        Response::ShuttingDown,
    ];
    for code in [
        ErrorCode::Version,
        ErrorCode::Handshake,
        ErrorCode::Malformed,
        ErrorCode::Oversized,
        ErrorCode::BadRequest,
        ErrorCode::UnknownUser,
        ErrorCode::Snapshot,
        ErrorCode::Overloaded,
        ErrorCode::Evicted,
        ErrorCode::Internal,
    ] {
        out.push(Response::Error {
            code,
            message: format!("broken \"frame\"\n{code}\tü"),
        });
    }
    out
}

const RESPONSE_BYTES: &[&str] = &[
    r#"{"type":"welcome","version":2,"users":2000}"#,
    r#"{"type":"observed","user":3,"hour":23,"budget_j":0.18}"#,
    r#"{"type":"decision","user":9,"budget_j":4.999999999999999,"accuracy":0.87,"active_s":3600,"energy_j":5,"off_s":0,"shares":[{"id":4,"seconds":1511.9999999},{"id":255,"seconds":2088.0000001}]}"#,
    r#"{"type":"decision","user":0,"budget_j":0.18,"accuracy":0,"active_s":0,"energy_j":0,"off_s":3600,"shares":[]}"#,
    concat!(
        r#"{"type":"stats","fleet":{"users":10,"cohorts":10,"observations":240,"harvested_j":123.456,"#,
        r#""budget_j":100,"battery_j":299.5,"activity":0.3333333333333333,"state_digest":"deadbeefcafef00d"},"#,
        r#""server":{"connections":3,"requests":250,"errors":1,"observes":240,"decides":9,"checkpoints":4,"#,
        r#""restores":5,"evicted":2,"shed":6,"observe_p50_us":1.5,"observe_p99_us":12,"decide_p50_us":0.5,"#,
        r#""decide_p99_us":4.25}}"#
    ),
    concat!(
        r#"{"type":"stats","fleet":{"users":0,"cohorts":0,"observations":0,"harvested_j":0,"budget_j":0,"#,
        r#""battery_j":0,"activity":0,"state_digest":"000000000000002a"},"server":{"connections":0,"#,
        r#""requests":0,"errors":0,"observes":0,"decides":0,"checkpoints":0,"restores":0,"evicted":0,"#,
        r#""shed":0,"observe_p50_us":0,"observe_p99_us":0,"decide_p50_us":0,"decide_p99_us":0}}"#
    ),
    r#"{"type":"checkpoint_done","path":"/tmp/ckpt \"a\"\\b.bin","bytes":123456}"#,
    r#"{"type":"restore_done","path":"snap-ü🙂","users":64}"#,
    r#"{"type":"shutting_down"}"#,
    r#"{"type":"error","code":"version","message":"broken \"frame\"\nversion\tü"}"#,
    r#"{"type":"error","code":"handshake","message":"broken \"frame\"\nhandshake\tü"}"#,
    r#"{"type":"error","code":"malformed","message":"broken \"frame\"\nmalformed\tü"}"#,
    r#"{"type":"error","code":"oversized","message":"broken \"frame\"\noversized\tü"}"#,
    r#"{"type":"error","code":"bad_request","message":"broken \"frame\"\nbad_request\tü"}"#,
    r#"{"type":"error","code":"unknown_user","message":"broken \"frame\"\nunknown_user\tü"}"#,
    r#"{"type":"error","code":"snapshot","message":"broken \"frame\"\nsnapshot\tü"}"#,
    r#"{"type":"error","code":"overloaded","message":"broken \"frame\"\noverloaded\tü"}"#,
    r#"{"type":"error","code":"evicted","message":"broken \"frame\"\nevicted\tü"}"#,
    r#"{"type":"error","code":"internal","message":"broken \"frame\"\ninternal\tü"}"#,
];

#[test]
fn requests_encode_to_the_golden_bytes() {
    let frames = requests();
    assert_eq!(frames.len(), REQUEST_BYTES.len());
    for (frame, golden) in frames.iter().zip(REQUEST_BYTES) {
        assert_eq!(frame.encode(), *golden, "{frame:?}");
        assert_eq!(Request::decode(golden).as_ref(), Ok(frame), "{golden}");
    }
}

#[test]
fn responses_encode_to_the_golden_bytes() {
    let frames = responses();
    assert_eq!(frames.len(), RESPONSE_BYTES.len());
    for (frame, golden) in frames.iter().zip(RESPONSE_BYTES) {
        assert_eq!(frame.encode(), *golden, "{frame:?}");
        assert_eq!(Response::decode(golden).as_ref(), Ok(frame), "{golden}");
    }
}
