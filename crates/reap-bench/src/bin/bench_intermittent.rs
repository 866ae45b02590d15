//! Intermittent-fleet baseline: a 2000-user body-heat-TEG fleet with 30%
//! of every day blacked out, every node on the wearable supercapacitor
//! under [`Policy::Intermittent`], stepped by the event-driven core at
//! 300 s epochs. Written as machine-readable JSON
//! (`BENCH_intermittent.json`) so CI tracks event-core throughput
//! (events/s) and the burst-completion statistics alongside it.
//!
//! ```text
//! cargo run --release -p reap-bench --bin bench_intermittent [-- <output.json>] [--quick]
//! ```
//!
//! The committed `BENCH_intermittent.json` at the repo root is the
//! baseline recorded when the event core landed; regenerate it with the
//! command above after any clock, capacitor, or blackout change.
//! `--quick` shrinks the population for smoke runs (CI still uses the
//! full 2000 users).

use reap_bench::{has_quick_flag, CharMode};
use reap_harvest::SourceKind;
use reap_sim::{Fleet, IntermittentConfig, Policy, Scenario};

/// Users in the baseline fleet, matching the fleet bench's population.
const FLEET_USERS: u32 = 2000;
/// Simulated days per user: a week keeps the run in bench territory
/// while crossing enough harvest diurnals to exercise charge/brownout.
const FLEET_DAYS: u32 = 7;
/// Epoch granularity: the finest dt at which the wearable capacitor's
/// usable burst (~0.23 J) still fits whole epochs at full power.
const DT_SECONDS: u32 = 300;
/// Blackout seed/fraction shared with the blackout degradation tests.
const BLACKOUT_SEED: u64 = 21;
const BLACKOUT_FRACTION: f64 = 0.30;

/// Fleet-wide totals of the per-user [`reap_sim::ClockStats`].
#[derive(Default, PartialEq, Debug)]
struct Totals {
    events: u64,
    bursts: u64,
    epochs_committed: u64,
    epochs_lost: u64,
    brownouts: u64,
    sleeps: u64,
    committed_objective: f64,
    committed_active_s: f64,
    harvest_offered_j: f64,
    spilled_j: f64,
    consumed_j: f64,
    leaked_j: f64,
    checkpoint_j: f64,
    restore_j: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = has_quick_flag(&args);
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_intermittent.json".to_string());
    let users = if quick { 64 } else { FLEET_USERS };

    let fleet = Fleet::builder(reap_bench::operating_points(CharMode::Paper, true))
        .users(users)
        .days(FLEET_DAYS)
        .seed(reap_bench::BENCH_SEED)
        .sources(vec![SourceKind::BodyHeat])
        .blackout(BLACKOUT_SEED, BLACKOUT_FRACTION)
        .policy(Policy::Intermittent)
        .intermittent(IntermittentConfig::wearable_default())
        .dt_seconds(DT_SECONDS)
        .build()
        .expect("valid intermittent fleet");

    println!(
        "intermittent baseline: {} users x {} days, dt {} s, {:.0}% blackout ({out_path})",
        fleet.users(),
        fleet.days(),
        DT_SECONDS,
        BLACKOUT_FRACTION * 100.0
    );
    println!("=============================================================");

    // The aggregate report goes through the fleet layer (and must stay
    // thread-count deterministic), but the gated throughput metric times
    // the event core itself: every user's scenario stepped front to back,
    // measured as events retired per second. Prebuilt scenarios keep
    // trace synthesis out of the timed region.
    let report = fleet.run().expect("fleet runs");
    let single = fleet
        .run_with_threads(Some(std::num::NonZeroUsize::MIN))
        .expect("fleet runs single-threaded");
    assert_eq!(
        single, report,
        "single-threaded intermittent fleet diverged from parallel run"
    );

    let scenarios: Vec<Scenario> = (0..users)
        .map(|u| fleet.user_scenario(u).expect("replayable user"))
        .collect();
    let runs = if quick { 1 } else { 9 };
    let mut wall_ms = f64::INFINITY;
    let mut totals = Totals::default();
    for rep in 0..runs {
        let start = std::time::Instant::now();
        let mut t = Totals::default();
        for scenario in &scenarios {
            let run = scenario
                .run_event_driven(Policy::Intermittent)
                .expect("event core runs");
            let s = &run.stats;
            assert!(
                s.ledger_drift().abs() <= 1e-9,
                "ledger drift {} J",
                s.ledger_drift()
            );
            t.events += s.events;
            t.bursts += s.bursts;
            t.epochs_committed += s.epochs_committed;
            t.epochs_lost += s.epochs_lost;
            t.brownouts += s.brownouts;
            t.sleeps += s.sleeps;
            t.committed_objective += s.committed_objective;
            t.committed_active_s += s.committed_active_s;
            t.harvest_offered_j += s.harvest_offered_j;
            t.spilled_j += s.spilled_j;
            t.consumed_j += s.consumed_j;
            t.leaked_j += s.leaked_j;
            t.checkpoint_j += s.checkpoint_j;
            t.restore_j += s.restore_j;
        }
        wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
        if rep == 0 {
            totals = t;
        } else {
            assert_eq!(t, totals, "event core is not deterministic");
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let events_per_s = totals.events as f64 / (wall_ms / 1e3);
    #[allow(clippy::cast_precision_loss)]
    let epochs_per_burst = totals.epochs_committed as f64 / totals.bursts.max(1) as f64;
    #[allow(clippy::cast_precision_loss)]
    let commit_ratio = totals.epochs_committed as f64
        / (totals.epochs_committed + totals.epochs_lost).max(1) as f64;

    println!("accuracy        : {}", report.accuracy());
    println!("active fraction : {}", report.active_fraction());
    println!(
        "bursts          : {} ({epochs_per_burst:.2} epochs/burst, commit ratio {commit_ratio:.4})",
        totals.bursts
    );
    println!(
        "brownouts       : {} mid-epoch, {} epochs lost, {} voluntary sleeps",
        totals.brownouts, totals.epochs_lost, totals.sleeps
    );
    println!(
        "energy          : {:.0} J offered, {:.0} J consumed, {:.0} J spilled, \
         {:.1} J leaked, {:.1} J checkpoint, {:.1} J restore",
        totals.harvest_offered_j,
        totals.consumed_j,
        totals.spilled_j,
        totals.leaked_j,
        totals.checkpoint_j,
        totals.restore_j
    );
    println!(
        "wall time {wall_ms:.0} ms ({events_per_s:.0} events/s, {} events fleet-wide)",
        totals.events
    );

    let json = format!(
        "{{\n  \"schema\": \"reap-bench/intermittent-v1\",\n  \"users\": {},\n  \"days\": {},\n  \
         \"dt_seconds\": {},\n  \"blackout_fraction\": {:.2},\n  \
         \"events\": {},\n  \"bursts\": {},\n  \"epochs_committed\": {},\n  \
         \"epochs_lost\": {},\n  \"brownouts\": {},\n  \"sleeps\": {},\n  \
         \"epochs_per_burst\": {:.3},\n  \"commit_ratio\": {:.4},\n  \
         \"committed_objective\": {:.1},\n  \"committed_active_s\": {:.0},\n  \
         \"harvest_offered_j\": {:.1},\n  \"consumed_j\": {:.1},\n  \"spilled_j\": {:.1},\n  \
         \"leaked_j\": {:.2},\n  \"checkpoint_j\": {:.2},\n  \"restore_j\": {:.2},\n  \
         \"mean_accuracy\": {:.4},\n  \"mean_active_fraction\": {:.4},\n  \
         \"wall_ms\": {wall_ms:.0},\n  \"events_per_s\": {events_per_s:.0}\n}}\n",
        report.users(),
        report.days(),
        DT_SECONDS,
        BLACKOUT_FRACTION,
        totals.events,
        totals.bursts,
        totals.epochs_committed,
        totals.epochs_lost,
        totals.brownouts,
        totals.sleeps,
        epochs_per_burst,
        commit_ratio,
        totals.committed_objective,
        totals.committed_active_s,
        totals.harvest_offered_j,
        totals.consumed_j,
        totals.spilled_j,
        totals.leaked_j,
        totals.checkpoint_j,
        totals.restore_j,
        report.mean_accuracy(),
        report.mean_active_fraction(),
    );
    std::fs::write(&out_path, json).expect("writable output");
    println!("wrote {out_path}");
}
