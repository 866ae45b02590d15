//! The `serve-mixed` workload: the `reap-serve` daemon on loopback.
//!
//! The daemon holds a 20,000-user fleet in 16 shards, warmed with one
//! simulated day of in-process observes. Two generator threads, each on
//! its own connection through the retrying client, drive it open-loop
//! (`loadgen.rs`) up a ladder of offered rates. Each generator owns half
//! of the users; each user observes its hour and then decides the next,
//! so writes and reads hit the same shards one to one. Afterwards an
//! in-process `FleetState` replays the same per-user stream: every
//! served frame must equal the replayed one, and the final state digests
//! must match.

use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use reap_serve::{
    FleetState, ProtocolError, Request, Response, RetryClient, RetryConfig, Server, ServerConfig,
    ServerHandle, ServerStats, WireShare,
};
use reap_sim::Fleet;

use crate::loadgen::{Rung, Schedule};
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{SpanId, Tracer, NO_GROUP};
use crate::{fleet, golden, Args};

pub const WORKLOAD: &str = "serve-mixed";
pub const USERS: u32 = 20_000;
const SHARDS: usize = 16;
/// Offered request rates over both connections, requests/s. On the
/// 2-core reference host the p99 limit breaks somewhere between 35k and
/// 60k, moving with the host's load; the ladder stops below that, so
/// `max_rate_rps` reads the top rung unless a change costs the margin.
pub const RATES_RPS: [f64; 4] = [10_000.0, 20_000.0, 25_000.0, 30_000.0];
/// Index of the nominal rate in [`RATES_RPS`].
const NOMINAL: usize = 1;
/// Seconds each rate is offered per cycle.
const RUNG_S: f64 = 0.5;
const GENERATORS: u32 = 2;
/// p99 round-trip limit a rung must meet, us.
const LIMIT_US: f64 = 1_000.0;
/// Cycles (cold start, ladder, checks) measured at least.
const MIN_CYCLES: usize = 3;
/// Traced cold starts (each alternating with an untraced one) whose
/// spans a traced run averages.
const TRACE_PAIRS: u32 = 3;
/// Seconds of the plan period (`ReapProblem`'s default).
const PERIOD_S: f64 = 3600.0;

/// One request of the stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    Observe {
        user: u32,
        hour: u32,
        harvest_j: f64,
        activity: f64,
    },
    Decide {
        user: u32,
    },
}

/// The `k`-th request generator `g` sends. Generator `g` owns the users
/// `u` with `u % GENERATORS == g` and walks them in turn; each user
/// observes its next hour and then decides. Users resume at staggered
/// hours of the day after the warm-up day, so every stretch of the
/// stream spans day and night.
fn op(seed: u64, g: u32, k: u64) -> Op {
    let owned = u64::from((USERS - g).div_ceil(GENERATORS));
    let pair = k / 2;
    let user = g + GENERATORS * u32::try_from(pair % owned).expect("owned < USERS");
    if k % 2 == 1 {
        return Op::Decide { user };
    }
    let hour =
        24 + user % 24 + u32::try_from(pair / owned).expect("runs end long before 2^32 hours");
    Op::Observe {
        user,
        hour,
        harvest_j: harvest_j(seed, user, hour),
        activity: unit(seed ^ 0xAC71_0000, user, hour),
    }
}

/// Uniform `[0, 1)` from `(seed, user, hour)`.
fn unit(seed: u64, user: u32, hour: u32) -> f64 {
    let z = crate::mix64(seed ^ (u64::from(user) << 32 | u64::from(hour)));
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded diurnal harvest: up to 3 J in daylight hours, a trickle at
/// night.
fn harvest_j(seed: u64, user: u32, hour: u32) -> f64 {
    let peak = if (7..19).contains(&(hour % 24)) {
        3.0
    } else {
        0.05
    };
    peak * unit(seed, user, hour)
}

/// One simulated day of in-process observes for every user.
fn warm_up(state: &FleetState, seed: u64) -> Result<(), ProtocolError> {
    for hour in 0..24 {
        for user in 0..USERS {
            let activity = unit(seed ^ 0xAC71_0000, user, hour);
            state.observe(user, hour, harvest_j(seed, user, hour), Some(activity))?;
        }
    }
    Ok(())
}

fn retry_config() -> RetryConfig {
    RetryConfig {
        request_deadline: Duration::from_secs(10),
        ..RetryConfig::default()
    }
}

/// A serving daemon and the generators' connected clients.
struct Daemon {
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
    clients: Vec<RetryClient>,
}

impl Daemon {
    /// Stops the server and waits for its thread.
    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        drop(self.clients);
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server exited with {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// Seconds each cold-start stage took.
#[derive(Debug, Clone, Copy)]
struct ColdStart {
    new_s: f64,
    warmup_s: f64,
    bind_s: f64,
    handshake_s: f64,
}

impl ColdStart {
    /// What a first request waits for: state, bind, handshakes.
    fn setup_s(&self) -> f64 {
        self.new_s + self.bind_s + self.handshake_s
    }

    /// Nothing to a warm, connected daemon.
    fn total_s(&self) -> f64 {
        self.setup_s() + self.warmup_s
    }
}

/// Runs `f` as a stage, inside a span when tracing.
fn stage<T>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64, Option<SpanId>) {
    let id = tr.as_deref_mut().map(|t| t.enter(name, NO_GROUP));
    let t = Instant::now();
    let out = f();
    let s = t.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tr.as_deref_mut(), id) {
        t.exit(id);
    }
    (out, s, id)
}

/// Builds the resident state, warms it, binds the daemon and connects
/// the generators' clients. With a tracer, every stage is a span and
/// `FleetState::new`'s inner layers are replayed under its span.
fn cold_start(
    fleet: &Fleet,
    seed: u64,
    mut tr: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Result<(Daemon, ColdStart), String> {
    let root = tr
        .as_deref_mut()
        .map(|t| t.enter("serve.cold_start", NO_GROUP));
    let (state, new_s, new_id) = stage(&mut tr, "state.new", || FleetState::new(fleet, SHARDS));
    let state = state.map_err(|e| format!("FleetState::new: {e}"))?;
    let (warm, warmup_s, _) = stage(&mut tr, "state.warmup", || warm_up(&state, seed));
    warm.map_err(|e| format!("warm-up: {e}"))?;
    let (server, bind_s, _) = stage(&mut tr, "server.bind", || {
        let server = Server::bind("127.0.0.1:0", state, ServerConfig::default())?;
        let (addr, handle) = (server.local_addr(), server.handle());
        let thread = std::thread::spawn(move || server.serve());
        Ok::<_, std::io::Error>((addr, handle, thread))
    });
    let (addr, handle, thread) = server.map_err(|e| format!("bind: {e}"))?;
    let (clients, handshake_s, _) = stage(&mut tr, "client.handshake", || {
        (0..GENERATORS)
            .map(|_| RetryClient::connect(addr, retry_config()))
            .collect::<Result<Vec<_>, _>>()
    });
    if let (Some(t), Some(root)) = (tr.as_deref_mut(), root) {
        t.exit(root);
    }
    let daemon = Daemon {
        handle,
        thread,
        clients: clients.map_err(|e| format!("handshake: {e}"))?,
    };
    if let (Some(t), Some(new_id)) = (tr, new_id) {
        t.offclock(|t| fleet::replay_cohorts(t, new_id, fleet, true, out));
    }
    Ok((
        daemon,
        ColdStart {
            new_s,
            warmup_s,
            bind_s,
            handshake_s,
        },
    ))
}

/// What the daemon answered.
#[derive(Debug, Clone)]
enum Served {
    Answered(Response),
    Failed(String),
}

/// Requests one generator sends at `rate` during a rung.
fn rung_requests(rate: f64) -> u64 {
    (rate / f64::from(GENERATORS) * RUNG_S).round() as u64
}

/// Requests one generator sends per cycle.
fn cycle_requests() -> u64 {
    RATES_RPS.iter().map(|&r| rung_requests(r)).sum()
}

/// Sleeps most of the way to `due`, then yields until it arrives.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

fn send(client: &mut RetryClient, op: Op) -> Served {
    match op {
        Op::Observe {
            user,
            hour,
            harvest_j,
            activity,
        } => match client.observe(user, hour, harvest_j, Some(activity)) {
            Ok(budget_j) => Served::Answered(Response::Observed {
                user,
                hour,
                budget_j,
            }),
            Err(e) => Served::Failed(e.to_string()),
        },
        Op::Decide { user } => match client.decide(user) {
            Ok(r) => Served::Answered(r),
            Err(e) => Served::Failed(e.to_string()),
        },
    }
}

/// Drives one connection through every rung of the ladder.
fn generate(
    client: &mut RetryClient,
    g: u32,
    seed: u64,
    barrier: &Barrier,
) -> (Vec<Rung>, Vec<Served>) {
    let mut rungs = Vec::with_capacity(RATES_RPS.len());
    let mut served = Vec::new();
    let mut k = 0u64;
    for rate in RATES_RPS {
        barrier.wait();
        let schedule = Schedule::new(
            Instant::now() + Duration::from_millis(1),
            rate / f64::from(GENERATORS),
        );
        let mut rung = Rung::default();
        for i in 0..rung_requests(rate) {
            let due = schedule.due(i);
            wait_until(due);
            let sent = Instant::now();
            let answer = send(client, op(seed, g, k));
            let done = Instant::now();
            rung.record(
                &schedule,
                due,
                sent,
                done,
                matches!(answer, Served::Answered(_)),
            );
            served.push(answer);
            k += 1;
        }
        rung.finish();
        rungs.push(rung);
    }
    (rungs, served)
}

/// Per-call timings of the in-process stages on the request stream.
#[derive(Default)]
struct StageNs {
    observe: Vec<f64>,
    decide: Vec<f64>,
    request_encode: Vec<f64>,
    request_decode: Vec<f64>,
    response_encode: Vec<f64>,
    response_decode: Vec<f64>,
}

/// Median cost of reading the clock twice, ns: subtracted from per-call
/// timings of operations that take only tens of nanoseconds.
fn clock_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..10_000)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

fn timed<T>(f: impl FnOnce() -> T, into: &mut Vec<f64>, overhead: f64) -> T {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    into.push((t.elapsed().as_nanos() as f64 - overhead).max(0.0));
    out
}

/// The in-process replica's answers to one cycle's request stream, per
/// generator, and (when `time` is set) per-call timings of the state
/// steps and the wire codec on the same frames.
fn expected_stream(
    replica: &FleetState,
    seed: u64,
    time: bool,
) -> Result<(Vec<Vec<Response>>, StageNs), String> {
    let overhead = if time { clock_overhead_ns() } else { 0.0 };
    let mut ns = StageNs::default();
    let mut streams = Vec::new();
    for g in 0..GENERATORS {
        let mut seq = 0u64;
        let mut answers = Vec::new();
        for k in 0..cycle_requests() {
            let op = op(seed, g, k);
            let answer = match op {
                Op::Observe {
                    user,
                    hour,
                    harvest_j,
                    activity,
                } => {
                    seq += 1;
                    let call =
                        || replica.observe_seq(user, hour, harvest_j, Some(activity), Some(seq));
                    let budget = if time {
                        timed(call, &mut ns.observe, overhead)
                    } else {
                        call()
                    };
                    budget.map(|budget_j| Response::Observed {
                        user,
                        hour,
                        budget_j,
                    })
                }
                Op::Decide { user } => {
                    let call = || replica.decide(user);
                    let d = if time {
                        timed(call, &mut ns.decide, overhead)
                    } else {
                        call()
                    };
                    d.map(|d| Response::Decision {
                        user,
                        budget_j: d.budget_j,
                        accuracy: d.decision.eval.accuracy,
                        active_s: d.decision.eval.active_s,
                        energy_j: d.decision.eval.energy_j,
                        off_s: d.decision.off_s,
                        shares: d
                            .decision
                            .shares()
                            .iter()
                            .map(|s| WireShare {
                                id: s.id,
                                seconds: s.seconds,
                            })
                            .collect(),
                    })
                }
            };
            let answer = answer
                .map_err(|e| format!("generator {g} request {k}: replica refused it: {e}"))?;
            if time {
                time_protocol(op, seq, &answer, &mut ns, overhead);
            }
            answers.push(answer);
        }
        streams.push(answers);
    }
    Ok((streams, ns))
}

/// Times the wire codec on one request and its response.
fn time_protocol(op: Op, seq: u64, response: &Response, ns: &mut StageNs, overhead: f64) {
    let request = match op {
        Op::Observe {
            user,
            hour,
            harvest_j,
            activity,
        } => Request::Observe {
            user,
            hour,
            harvest_j,
            activity: Some(activity),
            seq: Some(seq),
        },
        Op::Decide { user } => Request::Decide { user },
    };
    let line = timed(|| request.encode(), &mut ns.request_encode, overhead);
    let decoded = timed(|| Request::decode(&line), &mut ns.request_decode, overhead);
    debug_assert_eq!(decoded.ok().as_ref(), Some(&request));
    let line = timed(|| response.encode(), &mut ns.response_encode, overhead);
    let decoded = timed(
        || Response::decode(&line),
        &mut ns.response_decode,
        overhead,
    );
    debug_assert_eq!(decoded.ok().as_ref(), Some(response));
}

/// What one cycle measured.
struct Cycle {
    cold: ColdStart,
    /// Per rate, both generators merged.
    rungs: Vec<Rung>,
    server: ServerStats,
    retries: u64,
    reconnects: u64,
}

/// One cycle: a cold start, the whole ladder, then the checks — every
/// served frame equals the replica's, the final state digests match, and
/// nothing was retried, reconnected, evicted, shed or refused.
fn cycle(
    fleet: &Fleet,
    seed: u64,
    expected: &[Vec<Response>],
    digest: u64,
    out: &mut Outcome,
) -> Option<Cycle> {
    let (mut daemon, cold) = match cold_start(fleet, seed, None, out) {
        Ok(started) => started,
        Err(e) => {
            out.check(false, || e);
            return None;
        }
    };
    let barrier = Barrier::new(GENERATORS as usize);
    let runs: Vec<(Vec<Rung>, Vec<Served>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..GENERATORS)
            .zip(daemon.clients.iter_mut())
            .map(|(g, client)| {
                let barrier = &barrier;
                s.spawn(move || generate(client, g, seed, barrier))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("generators do not panic"))
            .collect()
    });
    let stats = daemon.clients[0].stats();
    let (retries, reconnects) = daemon
        .clients
        .iter()
        .fold((0, 0), |(r, c), cl| (r + cl.retries(), c + cl.reconnects()));
    let stopped = daemon.stop();
    out.check(stopped.is_ok(), || format!("stop: {stopped:?}"));

    for (g, ((_, served), answers)) in runs.iter().zip(expected).enumerate() {
        for (k, (got, want)) in served.iter().zip(answers).enumerate() {
            out.check(
                matches!(got, Served::Answered(r) if r == want),
                || match got {
                    Served::Failed(e) => format!("generator {g} request {k} failed: {e}"),
                    Served::Answered(r) => {
                        format!("generator {g} request {k}: served {r:?}, replica {want:?}")
                    }
                },
            );
        }
    }
    let server = match stats {
        Ok((fleet_stats, server)) => {
            out.check(fleet_stats.state_digest == digest, || {
                format!(
                    "served state digest {:016x} != replica {digest:016x}",
                    fleet_stats.state_digest
                )
            });
            server
        }
        Err(e) => {
            out.check(false, || format!("stats: {e}"));
            return None;
        }
    };
    for (what, n) in [
        ("server errors", server.errors),
        ("evictions", server.evicted),
        ("sheds", server.shed),
        ("client retries", retries),
        ("client reconnects", reconnects),
    ] {
        out.check(n == 0, || format!("{n} {what}"));
    }
    let rungs = (0..RATES_RPS.len())
        .map(|i| Rung::merge(&runs.iter().map(|(r, _)| &r[i]).collect::<Vec<_>>()))
        .collect();
    Some(Cycle {
        cold,
        rungs,
        server,
        retries,
        reconnects,
    })
}

/// Median over cycles of one per-cycle value.
fn across(cycles: &[Cycle], f: impl Fn(&Cycle) -> f64) -> f64 {
    median(&cycles.iter().map(f).collect::<Vec<_>>())
}

/// Runs the workload: the replica's answers, then measured cycles for
/// `--seconds`, then (traced) the per-layer attribution.
pub fn run(args: &Args, mut out: Outcome) -> Outcome {
    let seed = args.seed;
    let fleet = Fleet::builder(reap_device::paper_table2_operating_points())
        .users(USERS)
        .seed(seed)
        .build()
        .expect("the serve fleet is valid");

    // The in-process replica answers the stream first; every cycle's
    // daemon starts from the same warm state and receives the same
    // stream, so it must answer identically.
    let replica = FleetState::new(&fleet, SHARDS)
        .map_err(|e| e.to_string())
        .and_then(|r| warm_up(&r, seed).map(|()| r).map_err(|e| e.to_string()));
    let replica = match replica {
        Ok(r) => r,
        Err(e) => {
            out.check(false, || format!("replica: {e}"));
            return out;
        }
    };
    let warm_digest = replica.fleet_stats().state_digest;
    eprintln!("perfbench: {WORKLOAD} seed {seed}: warm state digest {warm_digest:016x}");
    if let Some(golden) = golden::warm_state_digest(WORKLOAD, seed) {
        out.check(warm_digest == golden, || {
            format!("warm state digest {warm_digest:016x} != golden {golden:016x}")
        });
    }
    let (expected, stage_ns) = match expected_stream(&replica, seed, args.trace) {
        Ok(e) => e,
        Err(e) => {
            out.check(false, || e);
            return out;
        }
    };
    let final_digest = replica.fleet_stats().state_digest;

    let mut cycles = Vec::new();
    let measure = Instant::now();
    while cycles.len() < MIN_CYCLES || measure.elapsed() < Duration::from_secs(args.seconds) {
        match cycle(&fleet, seed, &expected, final_digest, &mut out) {
            Some(c) => cycles.push(c),
            None => break,
        }
    }
    if cycles.is_empty() {
        return out;
    }

    let pooled: Vec<Rung> = (0..RATES_RPS.len())
        .map(|i| Rung::merge(&cycles.iter().map(|c| &c.rungs[i]).collect::<Vec<_>>()))
        .collect();
    for (rate, rung) in RATES_RPS.iter().zip(&pooled) {
        out.timing(format!("rtt@{rate}"), "us", rung.latency());
        out.timing(format!("lag@{rate}"), "us", rung.lag());
    }
    let per_cycle = |f: &dyn Fn(&Cycle) -> f64| cycles.iter().map(f).collect::<Vec<_>>();
    out.timing_samples(
        "nominal_rtt_p50",
        "us",
        &per_cycle(&|c| c.rungs[NOMINAL].latency().median),
    );
    out.timing_samples(
        "nominal_rtt_p99",
        "us",
        &per_cycle(&|c| c.rungs[NOMINAL].latency().tail),
    );
    out.timing_samples("warmup", "s", &per_cycle(&|c| c.cold.warmup_s));
    let setup: Vec<f64> = cycles.iter().map(|c| c.cold.setup_s()).collect();
    let cold: Vec<f64> = cycles.iter().map(|c| c.cold.total_s()).collect();
    out.timing_samples("setup", "s", &setup);
    out.timing_samples("cold_run", "s", &cold);
    out.set("setup_s", median(&setup));
    out.set("cold_run_s", median(&cold));
    out.set(
        "user_days_per_s",
        f64::from(USERS) / across(&cycles, |c| c.cold.warmup_s),
    );
    let decisions: Vec<(f64, f64)> = expected
        .iter()
        .flatten()
        .filter_map(|r| match r {
            Response::Decision {
                accuracy, active_s, ..
            } => Some((*accuracy, *active_s)),
            _ => None,
        })
        .collect();
    let n = decisions.len().max(1) as f64;
    out.set(
        "expected_accuracy",
        decisions.iter().map(|d| d.0).sum::<f64>() / n,
    );
    out.set(
        "active_fraction",
        decisions.iter().map(|d| d.1).sum::<f64>() / n / PERIOD_S,
    );
    // The median is pooled over every cycle's nominal rung. The p99 is
    // each cycle's own p99, median over cycles, so one host stall in one
    // cycle does not decide the run (the pooled p99 is in the detail
    // block); it still swings too much from run to run on a shared host
    // to gate on, so it is reported with the per-layer metrics.
    out.set("rtt_p50_us", pooled[NOMINAL].latency().median);
    out.set(
        "loadgen.rtt_p99_us",
        across(&cycles, |c| c.rungs[NOMINAL].latency().tail),
    );
    out.set(
        "max_rate_rps",
        across(&cycles, |c| {
            c.rungs
                .iter()
                .rev()
                .find(|r| r.meets(LIMIT_US))
                .map_or(0.0, Rung::achieved_rps)
        }),
    );

    if args.trace {
        // Traced and untraced cold starts alternate, so both sides sample
        // the same stretch of host load.
        let mut tr = Tracer::new();
        let mut untraced = Vec::new();
        for _ in 0..TRACE_PAIRS {
            for traced in [false, true] {
                let tracer = if traced { Some(&mut tr) } else { None };
                match cold_start(&fleet, seed, tracer, &mut out) {
                    Ok((daemon, cold)) => {
                        if !traced {
                            untraced.push(cold.total_s());
                        }
                        let stopped = daemon.stop();
                        out.check(stopped.is_ok(), || format!("stop: {stopped:?}"));
                    }
                    Err(e) => out.check(false, || e),
                }
            }
        }
        set_layers(
            &mut out,
            &tr,
            &stage_ns,
            &cycles,
            &pooled[NOMINAL],
            &replica,
            &untraced,
        );
        crate::write_spans(&tr, args.spans.as_deref());
    }
    out
}

fn set_layers(
    out: &mut Outcome,
    tr: &Tracer,
    ns: &StageNs,
    cycles: &[Cycle],
    nominal: &Rung,
    replica: &FleetState,
    untraced: &[f64],
) {
    let pairs = f64::from(TRACE_PAIRS);
    for (name, self_ns) in tr.self_times() {
        if let Some(metric) = crate::report::layer_ms(name) {
            out.set(metric, self_ns / pairs / 1e6);
        }
    }
    let m = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let stages = [
        ("state.observe_ns", m(&ns.observe)),
        ("state.decide_ns", m(&ns.decide)),
        ("protocol.request_encode_ns", m(&ns.request_encode)),
        ("protocol.request_decode_ns", m(&ns.request_decode)),
        ("protocol.response_encode_ns", m(&ns.response_encode)),
        ("protocol.response_decode_ns", m(&ns.response_decode)),
    ];
    for (name, v) in stages {
        out.set(name, v);
    }
    // Requests alternate observe and decide, so one round trip carries
    // on average half of each state step plus one pass of every codec
    // stage.
    let state_ns = (stages[0].1 + stages[1].1) / 2.0;
    let codec_ns: f64 = stages[2..].iter().map(|s| s.1).sum();
    let rtt_us = nominal.latency().median;
    out.set(
        "transport.rtt_share",
        (rtt_us - (state_ns + codec_ns) / 1e3) / rtt_us,
    );
    out.set(
        "loadgen.lag_p99_us",
        across(cycles, |c| c.rungs[NOMINAL].lag().tail),
    );
    out.set(
        "server.decide_p99_us",
        across(cycles, |c| c.server.decide_p99_us),
    );
    out.set(
        "server.observe_p99_us",
        across(cycles, |c| c.server.observe_p99_us),
    );
    let total = |f: fn(&Cycle) -> u64| cycles.iter().map(f).sum::<u64>() as f64;
    out.set("server.errors", total(|c| c.server.errors));
    out.set("server.evicted", total(|c| c.server.evicted));
    out.set("server.shed", total(|c| c.server.shed));
    out.set("client.retries", total(|c| c.retries));
    out.set("client.reconnects", total(|c| c.reconnects));
    out.set("state.cohorts", f64::from(replica.cohorts()));
    out.set(
        "state.cohorts_per_user",
        f64::from(replica.cohorts()) / f64::from(replica.users()),
    );
    let traced_ms = tr.root_ns() as f64 / pairs / 1e6;
    let untraced_ms = untraced.iter().sum::<f64>() / untraced.len().max(1) as f64 * 1e3;
    out.set("trace.layer_sum_ms", traced_ms);
    out.set("trace.untraced_ms", untraced_ms);
    out.set("trace.overhead_ms", traced_ms - untraced_ms);
}
