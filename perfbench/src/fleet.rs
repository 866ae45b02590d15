//! The three fleet workloads.
//!
//! * `fleet-reap`: 100,000 users x 30 days under REAP with the EWMA
//!   allocator across all four sources, every user its own cohort. The
//!   SoA hour kernel and the cold build (trace synthesis, per-user
//!   parameters, one frontier per cohort, flattening) do the work.
//! * `fleet-mpc24`: 128 users x 4 days (12,288 MPC hours) under
//!   `Policy::Horizon { 24 }` with the +-20% oracle forecaster.
//!   `Fleet::run` takes the scalar fallback; the hourly LP build and
//!   simplex solve do the work. Per-user MPC work swings with the
//!   weather, so the workload spreads its hours over many users (sixteen
//!   parts of eight, which keep both worker threads busy to the end of
//!   each part's run) rather than over long traces.
//! * `fleet-intermittent`: 20,000 body-heat users x 7 days, batteryless
//!   (wearable supercap, INT policy, dt = 300 s) under a 30% blackout.
//!   The event-driven core does the work.
//!
//! Each workload bypasses the mechanisms the other two exercise, so an
//! optimization of one layer predicts "no change" on two of them.
//!
//! A workload's population is several equal fleets (its parts), each on
//! its own master seed derived from the run's seed. A fleet shares one weather
//! stream per source among all its users, so a single fleet's results
//! (and its work: dark hours take the kernels' fast paths) swing with
//! the weather one seed draws; eight or sixteen independent streams per
//! source average that out, as evaluating over a population of harvest
//! traces should.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

use reap_core::{plan_horizon, FrontierTable, ReapError, ReapProblem, RecedingHorizonController};
use reap_harvest::{
    Battery, BlackoutOverlay, HarvestForecaster, HarvestSource, HarvestTrace, OracleForecaster,
    SourceKind,
};
use reap_sim::{
    ClockStats, Fleet, FleetReport, ForecasterKind, IntermittentConfig, Policy, Scenario, SimError,
    SimReport, SoaFleet, UserParams,
};
use reap_units::Power;

use crate::report::{layer_ms, Outcome};
use crate::stats::{median, Summary};
use crate::trace::{SpanId, Tracer, NO_GROUP};
use crate::{fnv1a, golden, mix64, repeat, Args};

/// The fleet-intermittent outage pattern is fixed: the workload seed
/// varies the users, not the blackout windows.
const BLACKOUT_SEED: u64 = 21;
const BLACKOUT_FRACTION: f64 = 0.3;
const LOOKAHEAD: usize = 24;
const ORACLE_ERROR: f64 = 0.2;
/// `FleetBuilder`'s default first trace day (the paper's September).
const START_DAY: u32 = 244;
/// The off-state power every fleet device idles at (`SoaFleet::new` and
/// `FleetState::new` build frontiers with it).
const OFF_POWER_UW: f64 = 50.0;
/// Rounds (set-up, cold run, warm run) measured at least, however short
/// `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Largest tolerated energy-ledger imbalance of one event-core run, J.
const LEDGER_TOLERANCE_J: f64 = 1e-9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Reap,
    Mpc24,
    Intermittent,
}

/// One fleet workload's population.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    pub users: u32,
    pub days: u32,
    /// Fleets the population is split into.
    parts: u32,
}

impl Spec {
    #[must_use]
    pub fn of(workload: &str) -> Option<Spec> {
        let (kind, users, days, parts) = match workload {
            "fleet-reap" => (Kind::Reap, 100_000, 30, 8),
            "fleet-mpc24" => (Kind::Mpc24, 128, 4, 16),
            "fleet-intermittent" => (Kind::Intermittent, 20_000, 7, 8),
            _ => return None,
        };
        Some(Spec {
            kind,
            users,
            days,
            parts,
        })
    }

    fn policy(self) -> Policy {
        match self.kind {
            Kind::Reap => Policy::Reap,
            Kind::Mpc24 => Policy::Horizon {
                lookahead: LOOKAHEAD,
            },
            Kind::Intermittent => Policy::Intermittent,
        }
    }

    fn sources(self) -> Vec<SourceKind> {
        match self.kind {
            Kind::Intermittent => vec![SourceKind::BodyHeat],
            Kind::Reap | Kind::Mpc24 => SourceKind::ALL.to_vec(),
        }
    }

    /// Master seeds of the population's parts for the run's `seed`.
    fn part_seeds(self, seed: u64) -> impl Iterator<Item = u64> {
        let parts = u64::from(self.parts);
        (0..parts).map(move |part| mix64(seed.wrapping_mul(parts).wrapping_add(part)))
    }

    /// Builds one part of the population from its master seed.
    ///
    /// # Panics
    ///
    /// Panics if the builder rejects the workload's constant
    /// configuration (a bug in this file).
    #[must_use]
    fn build(self, seed: u64) -> Fleet {
        let builder = Fleet::builder(reap_device::paper_table2_operating_points())
            .users(self.users / self.parts)
            .days(self.days)
            .seed(seed)
            .sources(self.sources())
            .policy(self.policy());
        let builder = match self.kind {
            Kind::Reap => builder,
            Kind::Mpc24 => builder.forecaster(ForecasterKind::Oracle {
                rel_error: ORACLE_ERROR,
                seed,
            }),
            Kind::Intermittent => builder
                .blackout(BLACKOUT_SEED, BLACKOUT_FRACTION)
                .intermittent(IntermittentConfig::wearable_default())
                .dt_seconds(300),
        };
        builder.build().expect("workload fleets are valid")
    }

    /// Builds every part of the population for the run's `seed`.
    fn population(self, seed: u64) -> Vec<Fleet> {
        self.part_seeds(seed).map(|s| self.build(s)).collect()
    }

    /// The shared base trace of `kind` — `Fleet`'s per-source weather
    /// stream, seed derivation mirrored from `Fleet::base_trace`, under
    /// the blackout overlay where the workload has one. Every replay
    /// checks the result against `Fleet::user_scenario`.
    fn base_trace(self, seed: u64, kind: SourceKind) -> Result<HarvestTrace, String> {
        let ordinal = SourceKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("SourceKind::ALL is exhaustive") as u64;
        let source = kind.instantiate(seed ^ (ordinal + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        let source: Box<dyn HarvestSource> = match self.kind {
            Kind::Intermittent => Box::new(
                BlackoutOverlay::new(source, BLACKOUT_SEED, BLACKOUT_FRACTION)
                    .map_err(|e| e.to_string())?,
            ),
            Kind::Reap | Kind::Mpc24 => source,
        };
        source
            .generate(START_DAY, self.days)
            .map_err(|e| e.to_string())
    }
}

/// Untraced run: set-up, cold runs, warm runs for `--seconds`, then the
/// correctness checks.
pub fn run(args: &Args, spec: Spec, mut out: Outcome) -> Outcome {
    let seed = args.seed;
    let threads = Some(args.threads);
    let mut reference = None;

    // Rounds of set-up, cold run and warm run, interleaved over the
    // measured interval so that all three sample the same stretch of
    // host load.
    let (mut setup, mut cold, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    let mut population = Vec::new();
    let measure = Instant::now();
    while cold.len() < MIN_ROUNDS || measure.elapsed() < Duration::from_secs(args.seconds) {
        // Set-up: the fleet builds plus SoA flattening, what the first
        // `Fleet::run` builds and caches; batched so that sub-millisecond
        // set-ups still yield steady medians.
        setup.extend(repeat(1, 1000, Duration::from_millis(50), || {
            let t = Instant::now();
            let soa: Result<Vec<SoaFleet>, SimError> =
                spec.population(seed).iter().map(SoaFleet::new).collect();
            let s = t.elapsed().as_secs_f64();
            out.check(soa.is_ok(), || {
                format!("SoaFleet::new: {:?}", soa.as_ref().err())
            });
            black_box(soa.ok());
            s
        }));
        // Cold run: freshly built fleets to their first reports.
        let t = Instant::now();
        let fresh = spec.population(seed);
        let reports = run_all(&fresh, threads);
        cold.push(t.elapsed().as_secs_f64());
        agree(&mut out, &mut reference, reports, "cold run");
        // Warm run: the same fleets again, their SoA forms cached.
        let t = Instant::now();
        let reports = run_all(&fresh, threads);
        warm.push(t.elapsed().as_secs_f64());
        agree(&mut out, &mut reference, reports, "warm run");
        population = fresh;
    }

    // Thread-count identity: one worker reproduces the parallel reports.
    let single = run_all(&spec.population(seed), Some(NonZeroUsize::MIN));
    agree(&mut out, &mut reference, single, "one-thread run");
    if spec.kind == Kind::Intermittent {
        check_clock(
            &mut out,
            &args.workload,
            seed,
            &population,
            args.threads.get(),
        );
    }
    let Some(reports) = reference else {
        return out;
    };
    check_golden(&mut out, &args.workload, seed, &reports);

    let warm_s = Summary::of(&warm, 0.99);
    out.timing_samples("setup", "s", &setup);
    out.timing_samples("cold_run", "s", &cold);
    out.timing_samples("warm_run", "s", &warm);
    out.set("setup_s", median(&setup));
    out.set("cold_run_s", median(&cold));
    out.set(
        "user_days_per_s",
        f64::from(spec.users) * f64::from(spec.days) / warm_s.median,
    );
    out.set(
        "expected_accuracy",
        user_mean(&reports, FleetReport::mean_accuracy),
    );
    out.set(
        "active_fraction",
        user_mean(&reports, FleetReport::mean_active_fraction),
    );
    out.set("rtt_p50_us", warm_s.median * 1e6);
    out.set("max_rate_rps", 1.0 / warm_s.median);
    out
}

/// Runs every part, in order.
fn run_all(fleets: &[Fleet], threads: Option<NonZeroUsize>) -> Result<Vec<FleetReport>, SimError> {
    fleets.iter().map(|f| f.run_with_threads(threads)).collect()
}

/// The population-wide per-user mean of a per-fleet mean.
fn user_mean(reports: &[FleetReport], f: impl Fn(&FleetReport) -> f64) -> f64 {
    let users: u32 = reports.iter().map(FleetReport::users).sum();
    reports
        .iter()
        .map(|r| f(r) * f64::from(r.users()))
        .sum::<f64>()
        / f64::from(users)
}

/// Records one population run, which must succeed and reproduce the
/// first reports bit for bit.
fn agree(
    out: &mut Outcome,
    reference: &mut Option<Vec<FleetReport>>,
    reports: Result<Vec<FleetReport>, SimError>,
    what: &str,
) {
    match (reports, reference.as_ref()) {
        (Err(e), _) => out.check(false, || format!("{what}: {e}")),
        (Ok(r), Some(first)) => out.check(r == *first, || format!("{what}: reports differ")),
        (Ok(r), None) => {
            out.check(true, String::new);
            *reference = Some(r);
        }
    }
}

/// Compares the report digest with the committed golden value for the
/// tuning seed; other seeds are held out and rely on the seed-independent
/// checks alone.
fn check_golden(out: &mut Outcome, workload: &str, seed: u64, reports: &[FleetReport]) {
    let digest = fnv1a(format!("{reports:?}").as_bytes());
    eprintln!("perfbench: {workload} seed {seed}: report digest {digest:016x}");
    if let Some(golden) = golden::report_digest(workload, seed) {
        out.check(digest == golden, || {
            format!("report digest {digest:016x} != golden {golden:016x}")
        });
    }
}

/// Event-core counters summed over users in index order.
#[derive(Debug, Default)]
struct ClockTotals {
    events: u64,
    committed: u64,
    lost: u64,
    bursts: u64,
    brownouts: u64,
    sleeps: u64,
    committed_objective: f64,
    max_drift_j: f64,
}

impl ClockTotals {
    fn absorb(&mut self, s: &ClockStats) {
        self.events += s.events;
        self.committed += s.epochs_committed;
        self.lost += s.epochs_lost;
        self.bursts += s.bursts;
        self.brownouts += s.brownouts;
        self.sleeps += s.sleeps;
        self.committed_objective += s.committed_objective;
        self.max_drift_j = self.max_drift_j.max(s.ledger_drift().abs());
    }

    fn digest(&self) -> u64 {
        fnv1a(
            format!(
                "{} {} {} {} {} {} {:x}",
                self.events,
                self.committed,
                self.lost,
                self.bursts,
                self.brownouts,
                self.sleeps,
                self.committed_objective.to_bits()
            )
            .as_bytes(),
        )
    }
}

/// fleet-intermittent: every user's event-core run keeps its energy
/// ledger within [`LEDGER_TOLERANCE_J`], and (on the tuning seed) the
/// summed counters match the golden totals.
fn check_clock(out: &mut Outcome, workload: &str, seed: u64, population: &[Fleet], threads: usize) {
    let mut totals = ClockTotals::default();
    for fleet in population {
        check_part_clock(out, fleet, threads, &mut totals);
    }
    let digest = totals.digest();
    eprintln!("perfbench: {workload} seed {seed}: clock totals {totals:?} digest {digest:016x}");
    if let Some(golden) = golden::clock_digest(workload, seed) {
        out.check(digest == golden, || {
            format!("clock totals digest {digest:016x} != golden {golden:016x}")
        });
    }
}

fn check_part_clock(out: &mut Outcome, fleet: &Fleet, threads: usize, totals: &mut ClockTotals) {
    let users = fleet.users();
    let mut per_user: Vec<Option<Result<ClockStats, String>>> = vec![None; users as usize];
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads as u32)
            .map(|w| {
                s.spawn(move || {
                    (w..users)
                        .step_by(threads)
                        .map(|u| {
                            let stats = fleet
                                .user_scenario(u)
                                .and_then(|sc| sc.run_event_driven(Policy::Intermittent))
                                .map(|run| run.stats)
                                .map_err(|e| e.to_string());
                            (u, stats)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for w in workers {
            for (u, stats) in w.join().expect("clock check workers do not panic") {
                per_user[u as usize] = Some(stats);
            }
        }
    });
    for (u, stats) in per_user.into_iter().enumerate() {
        match stats.expect("every user was run") {
            Ok(s) => {
                out.check(s.ledger_drift().abs() <= LEDGER_TOLERANCE_J, || {
                    format!("user {u}: ledger drift {} J", s.ledger_drift())
                });
                totals.absorb(&s);
            }
            Err(e) => out.check(false, || format!("user {u}: event core: {e}")),
        }
    }
}

/// The cohort key `SoaFleet::new` and `FleetState::new` deduplicate on:
/// the exact bits of alpha and of every point's id, accuracy and power.
fn cohort_key(p: &UserParams) -> Vec<u64> {
    let mut key = Vec::with_capacity(1 + 3 * p.points.len());
    key.push(p.alpha.to_bits());
    for pt in &p.points {
        key.push(u64::from(pt.id()));
        key.push(pt.accuracy().to_bits());
        key.push(pt.power().watts().to_bits());
    }
    key
}

/// One cohort's frontier table, built as `SoaFleet::new` and
/// `FleetState::new` build it.
fn frontier_table(p: &UserParams) -> Result<FrontierTable, ReapError> {
    ReapProblem::builder()
        .alpha(p.alpha)
        .off_power(Power::from_microwatts(OFF_POWER_UW))
        .points(p.points.clone())
        .build()
        .map(|problem| problem.frontier().table())
}

/// Replays, under `parent`, the per-user parameter derivation and (with
/// `frontiers`) the one frontier build per distinct cohort that
/// `SoaFleet::new` or `FleetState::new` performed. Returns the number of
/// distinct cohorts.
pub fn replay_cohorts(
    tr: &mut Tracer,
    parent: SpanId,
    fleet: &Fleet,
    frontiers: bool,
    out: &mut Outcome,
) -> u32 {
    let mut seen = BTreeSet::new();
    for u in 0..fleet.users() {
        let (params, _, _) = tr.replay(parent, "fleet.user_params", u64::from(u), || {
            fleet.user_params(u)
        });
        let params = match params {
            Ok(p) => p,
            Err(e) => {
                out.check(false, || format!("user {u}: user_params: {e}"));
                continue;
            }
        };
        if seen.insert(cohort_key(&params)) && frontiers {
            let (table, _, _) = tr.replay(parent, "frontier.build", u64::from(u), || {
                frontier_table(&params)
            });
            if let Err(e) = table {
                out.check(false, || format!("user {u}: frontier: {e}"));
            }
        }
    }
    u32::try_from(seen.len()).expect("cohorts never outnumber u32 users")
}

/// Layer counters and kernel timings summed over the population.
#[derive(Default)]
struct LayerTotals {
    cohorts: u64,
    /// Sum over parts of resident SoA bytes per user times users.
    soa_bytes: f64,
    users: u64,
    /// Sum over parts of the parallel SoA kernel's median time, s.
    soa_run_s: f64,
    solves: u64,
    reuses: u64,
    fallbacks: u64,
    plan_us: Vec<f64>,
    lp_us: Vec<f64>,
    clock: ClockTotals,
}

impl LayerTotals {
    fn absorb_soa(&mut self, soa: &SoaFleet, users: u32) {
        self.cohorts += u64::from(soa.cohorts());
        self.soa_bytes += f64::from(soa.bytes_per_user()) * f64::from(users);
        self.users += u64::from(users);
    }
}

/// Traced run: the one-thread cold path (fresh fleets to first reports)
/// with every layer attributed, against untraced runs of the same path.
/// The real calls are timed; the layers inside them are replayed under
/// them (see `trace.rs`). Traced and untraced runs alternate, and the
/// per-layer self times are means over the traced runs, so both sides
/// sample the same stretch of host load.
pub fn run_traced(
    args: &Args,
    spec: Spec,
    mut out: Outcome,
    spans: Option<&std::path::Path>,
) -> Outcome {
    let seed = args.seed;
    let one = Some(NonZeroUsize::MIN);
    // Short cold paths get more pairs: one sample of a path this short
    // swings with the host's load by more than the 5% the attribution
    // is held to.
    let pairs: u32 = match spec.kind {
        Kind::Reap => 4,
        Kind::Intermittent => 2,
        Kind::Mpc24 => 1,
    };
    let mut reference = None;
    let mut untraced = Vec::new();
    let mut totals = LayerTotals::default();
    let mut tr = Tracer::new();
    for pair in 0..pairs {
        let t = Instant::now();
        let reports = run_all(&spec.population(seed), one);
        untraced.push(t.elapsed().as_secs_f64());
        agree(
            &mut out,
            &mut reference,
            reports,
            "untraced one-thread cold run",
        );
        let Some(expected) = reference.as_deref() else {
            return out;
        };
        // Counts are the same in every pair: keep the first pair's.
        let mut pair_totals = LayerTotals::default();
        trace_cold_path(
            &mut tr,
            args,
            spec,
            expected,
            &mut pair_totals,
            pair == 0,
            &mut out,
        );
        if pair == 0 {
            totals = pair_totals;
        }
    }
    let pairs = f64::from(pairs);
    set_layer_totals(&mut out, &tr, spec, &totals, pairs);
    for (name, ns) in tr.self_times() {
        if let Some(metric) = layer_ms(name) {
            out.set(metric, ns / pairs / 1e6);
        }
    }
    let traced_ms = tr.root_ns() as f64 / pairs / 1e6;
    let untraced_ms = untraced.iter().sum::<f64>() / pairs * 1e3;
    out.timing_samples("untraced_cold_run_1t", "s", &untraced);
    out.set("trace.layer_sum_ms", traced_ms);
    out.set("trace.untraced_ms", untraced_ms);
    out.set("trace.overhead_ms", traced_ms - untraced_ms);
    crate::write_spans(&tr, spans);
    out
}

/// One traced cold path: build every part, run each on one thread, then
/// replay the layers inside each run. `first` also times the parallel
/// SoA kernel on the side.
fn trace_cold_path(
    tr: &mut Tracer,
    args: &Args,
    spec: Spec,
    reference: &[FleetReport],
    totals: &mut LayerTotals,
    first: bool,
    out: &mut Outcome,
) {
    let one = Some(NonZeroUsize::MIN);
    let root = tr.enter("fleet.cold_run", NO_GROUP);
    let parts: Vec<(u64, Fleet)> = spec
        .part_seeds(args.seed)
        .map(|s| (s, tr.span("fleet.build", NO_GROUP, |_| spec.build(s))))
        .collect();
    let runs: Vec<(SpanId, Result<FleetReport, SimError>)> = parts
        .iter()
        .map(|(_, fleet)| {
            let id = tr.enter("fleet.run", NO_GROUP);
            let report = fleet.run_with_threads(one);
            tr.exit(id);
            (id, report)
        })
        .collect();
    tr.exit(root);

    for (((part_seed, fleet), (run, report)), expected) in parts.iter().zip(runs).zip(reference) {
        match report {
            Ok(r) => out.check(r == *expected, || {
                "traced one-thread cold run: report differs".into()
            }),
            Err(e) => out.check(false, || format!("traced one-thread cold run: {e}")),
        }
        tr.offclock(|tr| match spec.kind {
            Kind::Reap => replay_soa(
                tr, run, args, *part_seed, spec, fleet, expected, totals, first, out,
            ),
            Kind::Mpc24 | Kind::Intermittent => {
                replay_scalar(tr, run, *part_seed, spec, fleet, expected, totals, out);
            }
        });
    }
}

/// Sets the count and side-timing metrics; `pairs` is the number of
/// traced runs the tracer's spans cover.
fn set_layer_totals(out: &mut Outcome, tr: &Tracer, spec: Spec, t: &LayerTotals, pairs: f64) {
    if t.users > 0 {
        out.set("soa.cohorts", t.cohorts as f64);
        out.set("soa.cohorts_per_user", t.cohorts as f64 / t.users as f64);
        out.set("soa.bytes_per_user", t.soa_bytes / t.users as f64);
    }
    match spec.kind {
        Kind::Reap => out.set("soa.run_ms", t.soa_run_s * 1e3),
        Kind::Mpc24 => {
            let plan = Summary::of(&t.plan_us, 0.99);
            out.timing("mpc.plan", "us", plan);
            out.set("mpc.plan_p50_us", plan.median);
            out.set("mpc.plan_p99_us", plan.tail);
            if !t.lp_us.is_empty() {
                out.set("horizon.lp_p50_us", median(&t.lp_us));
            }
            out.set("mpc.solves", t.solves as f64);
            out.set("mpc.reuses", t.reuses as f64);
            out.set("mpc.fallbacks", t.fallbacks as f64);
            out.set(
                "mpc.reuse_ratio",
                t.reuses as f64 / (t.solves + t.reuses).max(1) as f64,
            );
        }
        Kind::Intermittent => {
            let c = &t.clock;
            out.set("clock.events", c.events as f64);
            out.set("clock.bursts", c.bursts as f64);
            out.set(
                "clock.commit_ratio",
                c.committed as f64 / (c.committed + c.lost).max(1) as f64,
            );
            out.set("clock.ledger_drift_j", c.max_drift_j);
            out.check(c.max_drift_j <= LEDGER_TOLERANCE_J, || {
                format!("traced ledger drift {} J", c.max_drift_j)
            });
            let run_ns = tr.self_times().get("clock.run").copied().unwrap_or(0.0) / pairs;
            out.set("clock.ns_per_event", run_ns / c.events.max(1) as f64);
        }
    }
}

/// fleet-reap: under the part's `Fleet::run`, replays flattening (and
/// the inputs it builds) and the one-thread SoA kernel; times the
/// parallel kernel on the side.
#[allow(clippy::too_many_arguments)]
fn replay_soa(
    tr: &mut Tracer,
    run: SpanId,
    args: &Args,
    seed: u64,
    spec: Spec,
    fleet: &Fleet,
    reference: &FleetReport,
    totals: &mut LayerTotals,
    first: bool,
    out: &mut Outcome,
) {
    let (soa, flatten, _) = tr.replay(run, "soa.flatten", NO_GROUP, || SoaFleet::new(fleet));
    replay_base_traces(tr, flatten, seed, spec, out);
    replay_cohorts(tr, flatten, fleet, true, out);
    let soa = match soa {
        Ok(soa) => soa,
        Err(e) => return out.check(false, || format!("SoaFleet::new: {e}")),
    };
    let (outcomes, _, _) = tr.replay(run, "soa.run_1t", NO_GROUP, || {
        soa.run(Some(NonZeroUsize::MIN))
    });
    // The replayed kernel reproduces the report's mean accuracy bit for
    // bit (same values, same summation order).
    let mean = outcomes.iter().map(|o| o.accuracy).sum::<f64>() / outcomes.len() as f64;
    out.check(mean == reference.mean_accuracy(), || {
        format!(
            "replayed SoA mean accuracy {mean} != {}",
            reference.mean_accuracy()
        )
    });
    if first {
        let parallel = repeat(3, 3, Duration::ZERO, || {
            let t = Instant::now();
            black_box(soa.run(Some(args.threads)));
            t.elapsed().as_secs_f64()
        });
        totals.soa_run_s += median(&parallel);
    }
    totals.absorb_soa(&soa, fleet.users());
}

/// Replays the shared base-trace synthesis of every distinct source.
fn replay_base_traces(tr: &mut Tracer, parent: SpanId, seed: u64, spec: Spec, out: &mut Outcome) {
    for kind in spec.sources() {
        let (trace, _, _) = tr.replay(parent, "harvest.trace_gen", NO_GROUP, || {
            spec.base_trace(seed, kind)
        });
        if let Err(e) = trace {
            out.check(false, || format!("{kind} base trace: {e}"));
        }
    }
}

/// fleet-mpc24 and fleet-intermittent: `Fleet::run` takes the scalar
/// fallback — per user, `Fleet::user_scenario` then `Scenario::run`
/// (MPC) or the event core (INT). Under the part's real call, replays
/// flattening and then every user: scenario build (and its inputs), the
/// run, and the MPC's plans. `Fleet::run`'s self time is then the
/// fallback's own batching and aggregation.
#[allow(clippy::too_many_arguments)]
fn replay_scalar(
    tr: &mut Tracer,
    run: SpanId,
    seed: u64,
    spec: Spec,
    fleet: &Fleet,
    reference: &FleetReport,
    totals: &mut LayerTotals,
    out: &mut Outcome,
) {
    let hours = f64::from(spec.days) * 24.0;
    let (mut accuracy, mut active) = (Vec::new(), Vec::new());

    let (soa, flatten, _) = tr.replay(run, "soa.flatten", NO_GROUP, || SoaFleet::new(fleet));
    replay_base_traces(tr, flatten, seed, spec, out);
    replay_cohorts(tr, flatten, fleet, false, out);
    match &soa {
        Ok(soa) => totals.absorb_soa(soa, fleet.users()),
        Err(e) => out.check(false, || format!("SoaFleet::new: {e}")),
    }
    for u in 0..fleet.users() {
        let group = u64::from(u);
        let (scenario, sid, _) =
            tr.replay(run, "fleet.user_scenario", group, || fleet.user_scenario(u));
        let scenario = match scenario {
            Ok(s) => s,
            Err(e) => {
                out.check(false, || format!("user {u}: user_scenario: {e}"));
                continue;
            }
        };
        replay_scenario_inputs(tr, sid, seed, spec, fleet, u, &scenario, out);
        let report = if spec.kind == Kind::Mpc24 {
            let (report, rid, _) = tr.replay(run, "engine.user_run", group, || {
                scenario.run(spec.policy())
            });
            if let Ok(r) = &report {
                replay_mpc(tr, rid, u, seed, &scenario, r, totals, out);
            }
            report
        } else {
            let (r, _, _) = tr.replay(run, "clock.run", group, || {
                scenario.run_event_driven(Policy::Intermittent)
            });
            r.map(|r| {
                totals.clock.absorb(&r.stats);
                r.report
            })
        };
        match report {
            Ok(r) => {
                accuracy.push(r.mean_accuracy());
                active.push(r.total_active_time().hours() / hours);
            }
            Err(e) => out.check(false, || format!("user {u}: run: {e}")),
        }
    }

    // The per-user runs reproduce the untraced report's means bit for bit.
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    out.check(
        mean(&accuracy) == reference.mean_accuracy()
            && mean(&active) == reference.mean_active_fraction(),
        || "replayed users do not reproduce the fleet report".into(),
    );
}

/// Replays what `Fleet::user_scenario` computes before it builds the
/// scenario: the user's base trace, parameters and trace perturbation.
/// The replayed trace must equal the scenario's.
#[allow(clippy::too_many_arguments)]
fn replay_scenario_inputs(
    tr: &mut Tracer,
    parent: SpanId,
    seed: u64,
    spec: Spec,
    fleet: &Fleet,
    user: u32,
    scenario: &Scenario,
    out: &mut Outcome,
) {
    let group = u64::from(user);
    let kind = fleet.user_source(user);
    let (base, _, _) = tr.replay(parent, "harvest.trace_gen", group, || {
        spec.base_trace(seed, kind)
    });
    let (params, _, _) = tr.replay(parent, "fleet.user_params", group, || {
        fleet.user_params(user)
    });
    let (Ok(base), Ok(params)) = (base, params) else {
        return out.check(false, || {
            format!("user {user}: replayed scenario inputs failed")
        });
    };
    let (trace, _, _) = tr.replay(parent, "harvest.perturb_apply", group, || {
        params.perturbation.apply(&base)
    });
    out.check(trace.as_ref().ok() == Some(scenario.trace()), || {
        format!("user {user}: replayed trace differs from the scenario's")
    });
}

/// Replays one user's receding-horizon plans hour by hour — same
/// forecaster, same battery levels as the engine saw — checking every
/// plan against the engine's, and times `plan_horizon` alone on each
/// window the controller solved.
#[allow(clippy::too_many_arguments)]
fn replay_mpc(
    tr: &mut Tracer,
    parent: SpanId,
    user: u32,
    seed: u64,
    scenario: &Scenario,
    report: &SimReport,
    mpc: &mut LayerTotals,
    out: &mut Outcome,
) {
    let group = u64::from(user);
    let problem = scenario.problem().clone();
    let mut controller = match RecedingHorizonController::new(problem.clone(), LOOKAHEAD) {
        Ok(c) => c,
        Err(e) => return out.check(false, || format!("user {user}: controller: {e}")),
    };
    let mut forecaster =
        OracleForecaster::new(scenario.trace().iter().collect(), ORACLE_ERROR, seed);
    let battery = Battery::small_wearable();
    let (capacity, mut level) = (battery.capacity(), battery.level());
    let hours = report.hours();
    let mut same = true;
    for (i, hour) in hours.iter().enumerate() {
        let forecast = forecaster.forecast(i, LOOKAHEAD.min(hours.len() - i));
        let solved_before = controller.solves() + controller.fallbacks();
        let (plan, pid, ns) = tr.replay(parent, "mpc.plan", group, || {
            controller.plan(&forecast, level, capacity)
        });
        mpc.plan_us.push(ns as f64 / 1e3);
        same &= plan.is_ok_and(|s| s == hour.planned);
        if controller.solves() + controller.fallbacks() > solved_before {
            let (_, _, ns) = tr.replay(pid, "horizon.lp", group, || {
                plan_horizon(&problem, &forecast, level, capacity)
            });
            mpc.lp_us.push(ns as f64 / 1e3);
        }
        forecaster.observe(i, hour.harvested);
        level = hour.battery_level;
    }
    out.check(same, || {
        format!("user {user}: replayed MPC plans differ from the engine's")
    });
    mpc.solves += controller.solves();
    mpc.reuses += controller.reuses();
    mpc.fallbacks += controller.fallbacks();
}
