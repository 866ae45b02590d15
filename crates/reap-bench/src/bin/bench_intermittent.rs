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

use reap_bench::{has_quick_flag, rounded, write_baseline, CharMode};
use reap_harvest::SourceKind;
use reap_serve::json::Value;
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
        "intermittent baseline: {} users x {} days, dt {} s, {:.0}% blackout",
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

    #[allow(clippy::cast_precision_loss)]
    let count = |n: u64| Value::Num(n as f64);
    let doc = Value::obj(vec![
        ("schema", Value::Str("reap-bench/intermittent-v1".into())),
        ("users", Value::Num(f64::from(report.users()))),
        ("days", Value::Num(f64::from(report.days()))),
        ("dt_seconds", Value::Num(f64::from(DT_SECONDS))),
        ("blackout_fraction", rounded(BLACKOUT_FRACTION, 2)),
        ("events", count(totals.events)),
        ("bursts", count(totals.bursts)),
        ("epochs_committed", count(totals.epochs_committed)),
        ("epochs_lost", count(totals.epochs_lost)),
        ("brownouts", count(totals.brownouts)),
        ("sleeps", count(totals.sleeps)),
        ("epochs_per_burst", rounded(epochs_per_burst, 3)),
        ("commit_ratio", rounded(commit_ratio, 4)),
        (
            "committed_objective",
            rounded(totals.committed_objective, 1),
        ),
        ("committed_active_s", rounded(totals.committed_active_s, 0)),
        ("harvest_offered_j", rounded(totals.harvest_offered_j, 1)),
        ("consumed_j", rounded(totals.consumed_j, 1)),
        ("spilled_j", rounded(totals.spilled_j, 1)),
        ("leaked_j", rounded(totals.leaked_j, 2)),
        ("checkpoint_j", rounded(totals.checkpoint_j, 2)),
        ("restore_j", rounded(totals.restore_j, 2)),
        ("mean_accuracy", rounded(report.mean_accuracy(), 4)),
        (
            "mean_active_fraction",
            rounded(report.mean_active_fraction(), 4),
        ),
        ("wall_ms", rounded(wall_ms, 0)),
        ("events_per_s", rounded(events_per_s, 0)),
    ]);
    write_baseline(&args, "BENCH_intermittent.json", &doc);
}
