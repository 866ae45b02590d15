//! Loopback load generator for the `reap-serve` daemon: measures the
//! served request path (real TCP, real protocol framing) rather than the
//! in-process library path, and writes a machine-readable baseline
//! (`BENCH_serve.json`) that `bench_check` gates in CI.
//!
//! ```text
//! cargo run --release -p reap-bench --bin bench_serve [-- <output.json>] [--quick]
//! ```
//!
//! An in-process server binds `127.0.0.1:0` (kernel-assigned port — no
//! hardcoded ports) holding the standard 2000-user bench fleet resident.
//! Eight client threads connect through the self-healing [`RetryClient`]
//! (the deployment path), stream one simulated day of seq-stamped
//! observations each to warm the resident EWMA/battery state, then
//! hammer `decide` — the cached-frontier lookup path — recording
//! client-side round-trip latencies in a merged histogram. Throughput is
//! the best of three measured rounds (the work is identical each round;
//! the minimum wall time isolates the request path from scheduler
//! noise). The `serve-v2` baseline also records the resilience counters
//! (client retries/reconnects, server errors/evictions/sheds) — all of
//! which must be zero on a fault-free loopback run, so a regression that
//! makes the healthy path retry shows up in the committed baseline.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use reap_bench::{has_quick_flag, rounded, write_baseline, CharMode};
use reap_serve::json::Value;
use reap_serve::{
    Client, FleetState, LatencyHistogram, Request, Response, RetryClient, RetryConfig, Server,
    ServerConfig,
};
use reap_sim::Fleet;

/// Resident users — matches the fleet bench population.
const SERVE_USERS: u32 = 2000;
/// Concurrent client connections.
const CLIENT_THREADS: usize = 8;
/// Measured decide requests per thread per round.
const DECIDES_PER_THREAD: usize = 25_000;
/// Measured rounds; the fastest is reported.
const ROUNDS: usize = 3;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = has_quick_flag(&args);
    let users = if quick { 64 } else { SERVE_USERS };
    let decides_per_thread = if quick { 500 } else { DECIDES_PER_THREAD };
    let rounds = if quick { 1 } else { ROUNDS };

    let fleet = Fleet::builder(reap_bench::operating_points(CharMode::Paper, true))
        .users(users)
        .seed(reap_bench::BENCH_SEED)
        .build()
        .expect("valid fleet");
    let state = FleetState::new(&fleet, 16).expect("fleet state builds");
    let server = Server::bind("127.0.0.1:0", state, ServerConfig::default()).expect("bind port 0");
    let addr = server.local_addr();
    let serving = std::thread::spawn(move || server.serve());

    println!(
        "serve bench: {users} resident users, {CLIENT_THREADS} client threads x \
         {decides_per_thread} decides x {rounds} round(s) against {addr}"
    );
    println!("=============================================================");

    let barrier = Arc::new(Barrier::new(CLIENT_THREADS));
    let workers: Vec<_> = (0..CLIENT_THREADS)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client =
                    RetryClient::connect(addr, RetryConfig::default()).expect("client connects");
                let owned: Vec<u32> = (t as u32..users).step_by(CLIENT_THREADS).collect();
                // Warm the resident state: one simulated day per owned
                // user, seq-stamped (the idempotent replay-safe path).
                for hour in 0..24u32 {
                    for &user in &owned {
                        let harvest_j = f64::from((user * 7 + hour) % 6) * 0.45;
                        client
                            .observe(user, hour, harvest_j, Some(0.125))
                            .expect("observe");
                    }
                }
                let hist = LatencyHistogram::new();
                let mut walls = Vec::with_capacity(rounds);
                for _ in 0..rounds {
                    barrier.wait();
                    let round_start = Instant::now();
                    for i in 0..decides_per_thread {
                        let user = owned[i % owned.len()];
                        let sent = Instant::now();
                        match client.decide(user).expect("decide") {
                            Response::Decision { .. } => hist.record(sent.elapsed()),
                            other => panic!("unexpected decide reply: {other:?}"),
                        }
                    }
                    walls.push(round_start.elapsed().as_secs_f64());
                }
                (walls, hist, client.retries(), client.reconnects())
            })
        })
        .collect();

    let mut per_thread_walls = Vec::with_capacity(CLIENT_THREADS);
    let merged = LatencyHistogram::new();
    let mut retries = 0u64;
    let mut reconnects = 0u64;
    for worker in workers {
        let (walls, hist, r, rc) = worker.join().expect("client thread");
        merged.merge(&hist);
        per_thread_walls.push(walls);
        retries += r;
        reconnects += rc;
    }

    // A round isn't done until its slowest thread is: the aggregate rate
    // of round r uses the max wall across threads. Report the best round.
    let mut best_wall_s = f64::INFINITY;
    for r in 0..rounds {
        let wall = per_thread_walls.iter().map(|w| w[r]).fold(0.0f64, f64::max);
        best_wall_s = best_wall_s.min(wall);
    }
    let decisions = (CLIENT_THREADS * decides_per_thread) as f64;
    let decisions_per_s = decisions / best_wall_s;
    let p50_us = merged.quantile_us(0.50);
    let p99_us = merged.quantile_us(0.99);

    // Server-side view, for the log and the resilience counters.
    let mut client = Client::connect(addr).expect("stats client");
    let server_stats = match client.request(&Request::Stats).expect("stats") {
        Response::Stats { fleet, server } => {
            println!(
                "fleet   : {} users / {} cohorts, {} observations, digest {:016x}",
                fleet.users, fleet.cohorts, fleet.observations, fleet.state_digest
            );
            println!(
                "server  : {} requests over {} connections, decide handling p99 {:.0} us",
                server.requests, server.connections, server.decide_p99_us
            );
            server
        }
        other => panic!("unexpected stats reply: {other:?}"),
    };
    match client.request(&Request::Shutdown).expect("shutdown") {
        Response::ShuttingDown => {}
        other => panic!("unexpected shutdown reply: {other:?}"),
    }
    serving.join().expect("server thread").expect("clean exit");

    println!(
        "decides : {decisions:.0} in {:.0} ms (best of {rounds}) = {decisions_per_s:.0}/s \
         aggregate",
        best_wall_s * 1e3
    );
    println!("latency : round-trip p50 {p50_us:.0} us, p99 {p99_us:.0} us");
    println!(
        "faults  : {retries} retries, {reconnects} reconnects, {} server errors, \
         {} evicted, {} shed (all should be 0 on healthy loopback)",
        server_stats.errors, server_stats.evicted, server_stats.shed
    );

    let doc = Value::obj(vec![
        ("schema", Value::Str("reap-bench/serve-v2".into())),
        ("users", Value::Num(f64::from(users))),
        ("client_threads", Value::Num(CLIENT_THREADS as f64)),
        ("decisions", rounded(decisions, 0)),
        ("wall_ms", rounded(best_wall_s * 1e3, 1)),
        ("decisions_per_s", rounded(decisions_per_s, 0)),
        ("decide_p50_us", rounded(p50_us, 1)),
        ("decide_p99_us", rounded(p99_us, 1)),
        ("retries", Value::Num(retries as f64)),
        ("reconnects", Value::Num(reconnects as f64)),
        ("server_errors", Value::Num(server_stats.errors as f64)),
        ("evicted", Value::Num(server_stats.evicted as f64)),
        ("shed", Value::Num(server_stats.shed as f64)),
    ]);
    write_baseline(&args, "BENCH_serve.json", &doc);
}
