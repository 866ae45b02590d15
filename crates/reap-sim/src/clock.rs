//! The event-driven core of batteryless (intermittent) operation.
//!
//! With an [`IntermittentConfig`] a capacitor-scale store replaces the
//! battery, and the simulation walks the trace hours on a fixed
//! timeline: each hour's harvest edge, then the trace end, and between
//! two edges the capacitor threshold crossings (wake-ups), execution
//! epochs of `dt` seconds, forced power failures and restores.
//! The node lives in charge bursts: **off → charging → on → brownout →
//! off**. While off, charging is advanced in closed form
//! (piecewise-linear within each trace hour) and the turn-on threshold
//! crossing is computed analytically — one event per off-hour instead of
//! thousands of idle ticks. On turn-on the node pays a calibrated restore
//! tax; every completed epoch pays a checkpoint tax and *commits* its
//! work; a brownout mid-epoch loses the uncommitted (volatile) epoch and
//! kills the node until the store recharges past the turn-on threshold.

use reap_core::{static_schedule, Schedule};
use reap_harvest::{Battery, Capacitor};
use reap_units::Energy;

use crate::engine::{HourPlanner, Policy};
use crate::report::{HourRecord, SimReport};
use crate::{Scenario, SimError};

/// Seconds per trace hour.
const HOUR_S: u64 = 3600;

/// Batteryless intermittent operation: the capacitor, the
/// checkpoint/restore energy taxes, and (optionally) a schedule of
/// forced power failures.
#[derive(Debug, Clone, PartialEq)]
pub struct IntermittentConfig {
    capacitor: Capacitor,
    checkpoint_cost: Energy,
    restore_cost: Energy,
    /// Forced outage windows `[start_s, end_s)`, sorted, non-overlapping.
    failures: Vec<(u64, u64)>,
}

impl IntermittentConfig {
    /// The default wearable-mote configuration: the
    /// [`Capacitor::supercap_wearable`] store with a 2 mJ checkpoint and
    /// a 5 mJ restore tax (a few milliseconds of MCU + NVM traffic at
    /// active power).
    #[must_use]
    pub fn wearable_default() -> IntermittentConfig {
        IntermittentConfig::new(
            Capacitor::supercap_wearable(),
            Energy::from_joules(0.002),
            Energy::from_joules(0.005),
        )
        .expect("constants are valid")
    }

    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] when a tax is negative or
    /// non-finite, or when the restore tax eats the whole hysteresis
    /// band (`turn_on_energy - restore_cost` must stay strictly above
    /// `brownout_energy`, otherwise the node dies during every boot).
    pub fn new(
        capacitor: Capacitor,
        checkpoint_cost: Energy,
        restore_cost: Energy,
    ) -> Result<IntermittentConfig, SimError> {
        for (name, tax) in [("checkpoint", checkpoint_cost), ("restore", restore_cost)] {
            if !tax.is_finite() || tax.is_negative() {
                return Err(SimError::InvalidParameter(format!(
                    "{name} cost {tax} must be finite and non-negative"
                )));
            }
        }
        if capacitor.turn_on_energy() - restore_cost <= capacitor.brownout_energy() {
            return Err(SimError::InvalidParameter(format!(
                "restore cost {restore_cost} leaves no energy above the brownout \
                 threshold: turn-on {} - restore must exceed brownout {}",
                capacitor.turn_on_energy(),
                capacitor.brownout_energy()
            )));
        }
        Ok(IntermittentConfig {
            capacitor,
            checkpoint_cost,
            restore_cost,
            failures: Vec::new(),
        })
    }

    /// Adds forced power-failure windows `[start_s, end_s)`: the node is
    /// killed at `start_s` (losing its volatile window) and may not turn
    /// back on before `end_s`, though harvest keeps charging the store
    /// throughout.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] when a window is empty or the
    /// windows are not sorted and non-overlapping.
    // reap-lint: allow(api) -- the crash drills in intermittent_semantics and clock_golden force failures with it
    pub fn with_failures(
        mut self,
        failures: Vec<(u64, u64)>,
    ) -> Result<IntermittentConfig, SimError> {
        let mut prev_end = 0u64;
        for &(start, end) in &failures {
            if start >= end {
                return Err(SimError::InvalidParameter(format!(
                    "failure window [{start}, {end}) is empty"
                )));
            }
            if start < prev_end {
                return Err(SimError::InvalidParameter(format!(
                    "failure window [{start}, {end}) overlaps or is out of order \
                     (previous window ends at {prev_end})"
                )));
            }
            prev_end = end;
        }
        self.failures = failures;
        Ok(self)
    }

    /// The capacitor template (runs clone it; the config's copy keeps
    /// its configured initial charge).
    #[must_use]
    pub fn capacitor(&self) -> &Capacitor {
        &self.capacitor
    }

    /// Energy drawn per committed epoch to persist the volatile state.
    #[must_use]
    pub fn checkpoint_cost(&self) -> Energy {
        self.checkpoint_cost
    }

    /// Energy drawn on every turn-on to reload the last checkpoint.
    #[must_use]
    pub fn restore_cost(&self) -> Energy {
        self.restore_cost
    }

    /// The forced outage windows.
    #[must_use]
    pub fn failures(&self) -> &[(u64, u64)] {
        &self.failures
    }
}

/// One entry of the (optional) event log: what the core processed and
/// when. Enabled by [`ScenarioBuilder::trace_events`](crate::ScenarioBuilder::trace_events);
/// crash-point harnesses replay failures at every logged timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Simulation time of the event, in seconds from trace start.
    pub at_s: u64,
    /// Event tag: `"harvest-edge"`, `"epoch"`, `"wake"`, `"failure"`,
    /// `"restore"`, or `"end"`.
    pub kind: &'static str,
}

/// Counters and the exact energy ledger of one event-core run.
///
/// The ledger fields record every mutation of the energy store, so
/// conservation is checkable to float rounding:
/// [`ClockStats::ledger_drift`] must stay within `1e-9` J.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClockStats {
    /// Events processed: harvest edges, the trace end, and every wake,
    /// epoch, failure and restore the timeline yields (skipped ones
    /// included).
    pub events: u64,
    /// Execution epochs whose work was committed (checkpoint completed).
    pub epochs_committed: u64,
    /// Epochs whose volatile work was lost to a brownout or failure.
    pub epochs_lost: u64,
    /// Turn-ons (charge bursts started), each paying the restore tax.
    pub bursts: u64,
    /// Deaths from the store crossing the brownout threshold.
    pub brownouts: u64,
    /// Forced (scheduled) power failures applied.
    pub forced_failures: u64,
    /// Voluntary power-downs: the burst policy found no operating point
    /// able to complete even one epoch, so the node slept to bank
    /// energy instead of leaking it away.
    pub sleeps: u64,
    /// Objective actually committed (sum of per-epoch plan objective
    /// shares; volatile losses excluded).
    pub committed_objective: f64,
    /// Active seconds actually committed.
    pub committed_active_s: f64,
    /// Harvest offered by the trace over the run, in joules.
    pub harvest_offered_j: f64,
    /// Energy that entered the store (post-efficiency, post-spill), J.
    pub stored_j: f64,
    /// Harvest that could not be stored (full store), input-side J.
    pub spilled_j: f64,
    /// Energy drawn from the store by execution, J.
    pub consumed_j: f64,
    /// Energy lost to capacitor leakage, J.
    pub leaked_j: f64,
    /// Energy drawn by checkpoint taxes, J.
    pub checkpoint_j: f64,
    /// Energy drawn by restore taxes, J.
    pub restore_j: f64,
    /// Store level at the start of the run, J.
    pub initial_store_j: f64,
    /// Store level at the end of the run, J.
    pub final_store_j: f64,
}

impl ClockStats {
    /// The ledger imbalance
    /// `initial + stored - consumed - leaked - checkpoint - restore - final`,
    /// in joules. Exactly zero up to float rounding when every store
    /// mutation was accounted; the conservation proptests require
    /// `|drift| <= 1e-9`.
    #[must_use]
    pub fn ledger_drift(&self) -> f64 {
        self.initial_store_j + self.stored_j
            - self.consumed_j
            - self.leaked_j
            - self.checkpoint_j
            - self.restore_j
            - self.final_store_j
    }
}

/// An event-core run: the hour-by-hour [`SimReport`] (same shape the
/// hour loop produces), the core's [`ClockStats`], and — when
/// [`ScenarioBuilder::trace_events`](crate::ScenarioBuilder::trace_events)
/// is set — the processed event log.
#[derive(Debug, Clone)]
pub struct VdtRun {
    /// The hour-by-hour report (exactly what
    /// [`Scenario::run`](crate::Scenario::run) returns).
    pub report: SimReport,
    /// Event counters and the energy ledger.
    pub stats: ClockStats,
    /// The processed events, oldest first (empty unless tracing is on).
    pub events: Vec<EventRecord>,
}

/// The events the [`Timeline`] yields, declared in their tie order at
/// one timestamp: a restore brings the node back before the world
/// changes, a failure pre-empts the wake and the epoch at its own
/// timestamp, and a wake turns the node on before the epoch it arms.
/// The hour loop handles harvest edges and the trace end itself; an
/// edge sorts after a restore and before a failure at its timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// A forced outage ends.
    Restore,
    /// A forced outage begins.
    Failure,
    /// The store crossed (or may have crossed) the turn-on threshold.
    Wake,
    /// Execute the epoch starting at this timestamp.
    Epoch,
}

impl EventKind {
    fn tag(self) -> &'static str {
        match self {
            EventKind::Restore => "restore",
            EventKind::Failure => "failure",
            EventKind::Wake => "wake",
            EventKind::Epoch => "epoch",
        }
    }
}

/// The events due between two harvest edges, in three fixed slots.
struct Timeline<'s> {
    /// The armed epoch. A turn-on re-arms it in place; a failure leaves
    /// it armed, so the stale epoch still pops and is skipped while the
    /// node is off.
    epoch: Option<u64>,
    /// Pending wake-ups, latest first. Duplicates stay: an hour edge
    /// forgets `pending_wake` and may re-arm a wake that is already
    /// queued, and both copies pop.
    wakes: Vec<u64>,
    /// The forced outage windows not yet over that start before the
    /// trace end.
    outages: &'s [(u64, u64)],
    /// Whether the first window's failure has popped (its restore is
    /// next).
    out: bool,
    end_s: u64,
}

impl<'s> Timeline<'s> {
    fn new(failures: &'s [(u64, u64)], end_s: u64) -> Timeline<'s> {
        let live = failures.partition_point(|&(start, _)| start < end_s);
        Timeline {
            epoch: None,
            wakes: Vec::new(),
            outages: &failures[..live],
            out: false,
            end_s,
        }
    }

    fn arm_epoch(&mut self, at: u64) {
        self.epoch = Some(at);
    }

    fn push_wake(&mut self, at: u64) {
        let i = self.wakes.partition_point(|&w| w > at);
        self.wakes.insert(i, at);
    }

    fn next_outage_event(&self) -> Option<(u64, EventKind)> {
        let &(start, end) = self.outages.first()?;
        Some(if self.out {
            (end.min(self.end_s), EventKind::Restore)
        } else {
            (start, EventKind::Failure)
        })
    }

    /// Pops the earliest event that comes before the harvest edge (or
    /// trace end) at `edge`: anything earlier, or a restore at `edge`
    /// itself.
    fn pop_before(&mut self, edge: u64) -> Option<(u64, EventKind)> {
        let wake = self.wakes.last().map(|&at| (at, EventKind::Wake));
        let epoch = self.epoch.map(|at| (at, EventKind::Epoch));
        let next = [self.next_outage_event(), wake, epoch]
            .into_iter()
            .flatten()
            .min()?;
        if next >= (edge, EventKind::Failure) {
            return None;
        }
        match next.1 {
            EventKind::Restore => {
                self.outages = &self.outages[1..];
                self.out = false;
            }
            EventKind::Failure => self.out = true,
            EventKind::Wake => {
                self.wakes.pop();
            }
            EventKind::Epoch => self.epoch = None,
        }
        Some(next)
    }
}

/// One row of a run's plan table: a schedule and its budget, with the
/// objective an epoch credits computed once (the schedule carries its
/// energy and active time).
struct Plan {
    budget: Energy,
    schedule: Schedule,
    objective: f64,
}

impl Plan {
    fn new(budget: Energy, schedule: Schedule, alpha: f64) -> Plan {
        Plan {
            budget,
            objective: schedule.objective(alpha),
            schedule,
        }
    }
}

/// The intermittent node's full state machine:
/// off → charging → (turn-on, restore tax) → on → epochs commit work
/// (checkpoint tax each) → brownout / forced failure / voluntary sleep
/// → off.
struct IntermittentCore<'s> {
    scenario: &'s Scenario,
    policy: Policy,
    config: &'s IntermittentConfig,
    /// Hourly planner for the non-burst policies (None for
    /// [`Policy::Intermittent`], which has no hourly budget layer).
    planner: Option<HourPlanner<'s>>,
    cap: Capacitor,
    dt: u64,
    end_s: u64,
    timeline: Timeline<'s>,
    /// The plan table: INT's burst candidates (each point flat out for a
    /// full period, in problem order), or else the current hour's plan.
    plans: Vec<Plan>,
    /// The all-off schedule recorded for hours the node never ran.
    off_plan: Schedule,

    on: bool,
    forced_out: bool,
    /// Continuous time up to which the *off*-state store has been
    /// advanced (f64: brownouts land mid-epoch).
    off_since: f64,
    /// A wake this early would thrash (voluntary sleep damping): the
    /// next harvest edge re-evaluates instead.
    wake_not_before: u64,
    /// End time of the last executed epoch. A forced failure that lands
    /// *inside* an already-executed epoch interval takes effect at the
    /// interval's end (commits happen at epoch granularity), so
    /// off-state charging resumes from here, never double-counting the
    /// epoch's harvest.
    on_until: u64,
    /// The last wake queued, so one threshold crossing queues one wake.
    /// Harvest edges, failures and turn-ons forget it without dequeuing.
    pending_wake: Option<u64>,
    /// Which trace hour the current non-burst plan was made for (the
    /// hourly budget layer must run at most once per hour).
    planned_hour: Option<usize>,
    /// Row of the plan the node executes now.
    current_plan: Option<usize>,

    hour_harvest: Energy,
    /// Committed fraction of the current hour (each committed epoch
    /// adds `dt / 3600`).
    hour_committed: f64,
    /// Row of the current hour's last plan, for the record.
    hour_last_plan: Option<usize>,

    stats: ClockStats,
    hours: Vec<HourRecord>,
    /// The event log (filled only when the scenario traces events).
    events: Vec<EventRecord>,
}

impl<'s> IntermittentCore<'s> {
    /// Counts one processed event and logs it when tracing.
    fn log(&mut self, at_s: u64, kind: &'static str) {
        self.stats.events += 1;
        if self.scenario.trace_events {
            self.events.push(EventRecord { at_s, kind });
        }
    }

    fn e_off(&self) -> f64 {
        self.cap.brownout_energy().joules()
    }

    fn e_on(&self) -> f64 {
        self.cap.turn_on_energy().joules()
    }

    /// Closed-form store advancement while the node is off: within one
    /// trace hour the input rate (`η · harvest / 3600`) and leakage are
    /// constant, so the level moves linearly with analytic clamping at
    /// the capacity (spill) and at zero (starvation). Callers keep `to`
    /// within the current hour.
    fn advance_off(&mut self, to: f64) {
        if self.on || to <= self.off_since {
            return;
        }
        let t = to - self.off_since;
        let p_in = self.cap.charge_efficiency() * self.hour_harvest.joules() / 3600.0;
        let p_leak = self.cap.leakage().watts();
        let net = p_in - p_leak;
        let mut e = self.cap.energy().joules();
        let capacity = self.cap.capacity().joules();
        if net >= 0.0 {
            let room = capacity - e;
            if net * t <= room {
                self.stats.stored_j += p_in * t;
                self.stats.leaked_j += p_leak * t;
                e += net * t;
            } else {
                // Fills up after `tau`; then input covers leakage and
                // the remainder spills.
                let tau = if net > 0.0 { room / net } else { 0.0 };
                let rest = t - tau;
                self.stats.stored_j += p_in * tau + p_leak * rest;
                self.stats.leaked_j += p_leak * t;
                self.stats.spilled_j += net * rest / self.cap.charge_efficiency();
                e = capacity;
            }
        } else {
            let drop = -net * t;
            if drop <= e {
                self.stats.stored_j += p_in * t;
                self.stats.leaked_j += p_leak * t;
                e -= drop;
            } else {
                // Runs dry after `tau`; then whatever trickles in leaks
                // straight back out.
                let tau = e / -net;
                let rest = t - tau;
                self.stats.stored_j += p_in * t;
                self.stats.leaked_j += p_leak * tau + p_in * rest;
                e = 0.0;
            }
        }
        self.cap
            .set_energy(Energy::from_joules(e.clamp(0.0, capacity)))
            .expect("closed-form level stays within [0, capacity]");
        self.off_since = to;
    }

    /// Computes when the (off, charging) store crosses the turn-on
    /// threshold under the current hour's rates and schedules a Wake at
    /// the next epoch-grid point at or after the crossing. Skips
    /// scheduling when the crossing falls beyond the current hour (the
    /// next harvest edge re-evaluates with the new rate) or inside the
    /// voluntary-sleep damping window.
    fn schedule_wake(&mut self, now: f64) {
        if self.on || self.forced_out {
            return;
        }
        let e = self.cap.energy().joules();
        let cross = if e >= self.e_on() {
            now
        } else {
            let p_in = self.cap.charge_efficiency() * self.hour_harvest.joules() / 3600.0;
            let net = p_in - self.cap.leakage().watts();
            if net <= 0.0 {
                return;
            }
            now + (self.e_on() - e) / net
        };
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cross_s = cross.max(0.0).ceil() as u64;
        let at = cross_s.div_ceil(self.dt) * self.dt;
        // Beyond this hour the rate changes; let the edge re-evaluate.
        let hour_end = (current_hour(now.max(0.0) as u64, self.end_s) as u64 + 1) * HOUR_S;
        if at >= self.end_s || at > hour_end || at < self.wake_not_before {
            return;
        }
        if self.pending_wake != Some(at) {
            self.pending_wake = Some(at);
            self.timeline.push_wake(at);
        }
    }

    /// Turns the node on at grid time `t`: pays the restore tax (the
    /// hysteresis validation in [`IntermittentConfig::new`] guarantees
    /// this cannot immediately brown out), plans, and arms the epoch at
    /// `t` in place: a stale epoch a failure left armed at `t` runs
    /// once, not twice.
    fn turn_on(&mut self, t: u64) -> Result<(), SimError> {
        let restore = self.config.restore_cost;
        self.cap.draw(restore);
        self.stats.restore_j += restore.joules();
        self.stats.bursts += 1;
        self.on = true;
        self.on_until = t;
        self.pending_wake = None;
        self.ensure_plan(t)?;
        if t + self.dt <= self.end_s {
            self.timeline.arm_epoch(t);
        }
        Ok(())
    }

    /// Makes sure a plan exists for the hour containing `t`. The
    /// non-burst policies run their hourly budget pipeline at most once
    /// per trace hour (a second turn-on within the hour reuses the
    /// plan); the burst policy re-chooses at every epoch.
    fn ensure_plan(&mut self, t: u64) -> Result<(), SimError> {
        let h = current_hour(t, self.end_s);
        if self.policy == Policy::Intermittent {
            self.current_plan = self.choose_burst_plan(t);
        } else if self.planned_hour != Some(h) {
            let view = self.cap_as_battery();
            let planner = self
                .planner
                .as_mut()
                .expect("non-burst policies plan hourly");
            let (budget, schedule) = planner.plan_hour(h, self.hour_harvest, &view)?;
            self.planned_hour = Some(h);
            self.plans.clear();
            self.plans
                .push(Plan::new(budget, schedule, self.scenario.problem.alpha()));
            self.current_plan = Some(0);
        }
        self.hour_last_plan = self.current_plan.or(self.hour_last_plan);
        Ok(())
    }

    /// The capacitor as the `Battery` view the hourly budget layer and
    /// the MPC expect: capacity = store capacity, level = store level,
    /// loss-free (the capacitor's own efficiency and leakage are
    /// simulated by the core, not by the planning view).
    fn cap_as_battery(&self) -> Battery {
        Battery::new(self.cap.capacity(), self.cap.energy(), 1.0, 1.0)
            .expect("capacitor level is within [0, capacity]")
    }

    /// Approxify-style burst planning: pick the operating point that
    /// maximizes expected committed work over the remaining charge
    /// burst. For each candidate, one epoch costs
    /// `plan_energy·dt/3600 + checkpoint + leakage·dt` against
    /// `η·harvest_rate·dt` income; the margin above the brownout
    /// threshold then bounds how many epochs complete before the burst
    /// ends. Returns `None` when no point completes even one epoch —
    /// the node voluntarily sleeps and banks the energy instead.
    fn choose_burst_plan(&self, t: u64) -> Option<usize> {
        let frac = to_f64(self.dt) / 3600.0;
        let margin = self.cap.energy().joules() - self.e_off();
        let epoch_in =
            self.cap.charge_efficiency() * self.hour_harvest.joules() / 3600.0 * to_f64(self.dt);
        let leak_epoch = self.cap.leakage().watts() * to_f64(self.dt);
        let ckpt = self.config.checkpoint_cost.joules();
        let remaining = to_f64((self.end_s - t) / self.dt);
        let mut best: Option<(f64, usize)> = None;
        for (row, plan) in self.plans.iter().enumerate() {
            let epoch_cost = plan.schedule.eval.energy_j * frac + ckpt + leak_epoch;
            let net = epoch_cost - epoch_in;
            let epochs = if net <= 0.0 {
                remaining
            } else {
                (margin / net).floor().min(remaining)
            };
            let value = epochs * plan.objective * frac;
            if value > best.map_or(0.0, |(v, _)| v) {
                best = Some((value, row));
            }
        }
        best.map(|(_, row)| row)
    }

    /// Executes the epoch `[t, t + dt)` while on. All harvest charges
    /// the store (at η) and the load draws from the store — standard
    /// batteryless topology, so the node browns out on store level
    /// regardless of instantaneous harvest. A committed epoch arms the
    /// next one.
    fn run_epoch(&mut self, t: u64) -> Result<(), SimError> {
        let frac = to_f64(self.dt) / 3600.0;
        self.ensure_plan(t)?;
        let Some(row) = self.current_plan else {
            // Voluntary sleep: no point completes an epoch. Wake checks
            // resume at the next harvest edge.
            self.power_down_voluntarily(t);
            return Ok(());
        };
        let plan = &self.plans[row];
        let eval = plan.schedule.eval;
        let (needed, objective, active_s) = (eval.energy_j * frac, plan.objective, eval.active_s);
        let gain = self.cap.charge_efficiency() * self.hour_harvest.joules() * frac;
        let leak = self.cap.leakage().watts() * to_f64(self.dt);
        let e = self.cap.energy().joules();
        let e_end = e + gain - needed - leak;
        if e_end < self.e_off() {
            // Brownout mid-epoch: the store hits the threshold at
            // fraction f of the epoch; the partial work is volatile and
            // lost, and the node is dead (still charging) for the rest
            // of the epoch.
            let f = ((e - self.e_off()) / (e - e_end)).clamp(0.0, 1.0);
            self.stats.stored_j += gain * f;
            self.stats.consumed_j += needed * f;
            self.stats.leaked_j += leak * f;
            self.cap
                .set_energy(Energy::from_joules(self.e_off()))
                .expect("brownout threshold is within range");
            self.stats.brownouts += 1;
            self.stats.epochs_lost += 1;
            self.on = false;
            self.off_since = to_f64(t) + f * to_f64(self.dt);
            self.schedule_wake(self.off_since);
            return Ok(());
        }
        let capacity = self.cap.capacity().joules();
        let overflow = (e_end - capacity).max(0.0);
        self.stats.stored_j += gain - overflow;
        self.stats.spilled_j += overflow / self.cap.charge_efficiency();
        self.stats.consumed_j += needed;
        self.stats.leaked_j += leak;
        let mut e_final = e_end.min(capacity);
        // Checkpoint tax: commit only if it completes above the
        // brownout threshold; a checkpoint cut short loses the epoch.
        let ckpt = self.config.checkpoint_cost.joules();
        if e_final - ckpt >= self.e_off() {
            e_final -= ckpt;
            self.stats.checkpoint_j += ckpt;
            self.cap
                .set_energy(Energy::from_joules(e_final))
                .expect("post-checkpoint level is within range");
            self.stats.epochs_committed += 1;
            self.stats.committed_objective += objective * frac;
            self.stats.committed_active_s += active_s * frac;
            self.hour_committed += frac;
            self.on_until = t + self.dt;
            if t + 2 * self.dt <= self.end_s {
                self.timeline.arm_epoch(t + self.dt);
            }
        } else {
            let partial = (e_final - self.e_off()).max(0.0);
            self.stats.checkpoint_j += partial;
            self.cap
                .set_energy(Energy::from_joules(self.e_off()))
                .expect("brownout threshold is within range");
            self.stats.brownouts += 1;
            self.stats.epochs_lost += 1;
            self.on = false;
            self.off_since = to_f64(t + self.dt);
            self.schedule_wake(self.off_since);
        }
        Ok(())
    }

    fn power_down_voluntarily(&mut self, t: u64) {
        self.stats.sleeps += 1;
        self.on = false;
        self.off_since = to_f64(t);
        // Damp wake churn: re-evaluate at the next harvest edge.
        self.wake_not_before = (current_hour(t, self.end_s) as u64 + 1) * HOUR_S;
    }

    /// Emits the record for completed hour `h` and resets the per-hour
    /// scratch state. The allocator/forecaster memory advances only if
    /// the node is alive at the boundary — a dead node observes nothing,
    /// and a node that died mid-hour lost that (volatile) observation
    /// with the power failure.
    fn finalize_hour(&mut self, h: usize) {
        let (budget, planned) = match self.hour_last_plan.take() {
            Some(row) => (self.plans[row].budget, self.plans[row].schedule),
            None => (Energy::ZERO, self.off_plan),
        };
        self.hours.push(HourRecord {
            day: (h / 24) as u32,
            hour: (h % 24) as u32,
            harvested: self.hour_harvest,
            budget,
            planned,
            realized_fraction: self.hour_committed.clamp(0.0, 1.0),
            battery_level: self.cap.energy(),
        });
        if self.on {
            if let Some(planner) = self.planner.as_mut() {
                planner.end_hour(h, self.hour_harvest);
            }
        }
        self.hour_committed = 0.0;
    }
}

/// Exact `u64` → `f64` for simulation-clock magnitudes: every time or
/// count passed here is bounded by `days * 86_400` seconds (or steps),
/// far below 2^53, so the conversion never rounds.
fn to_f64(v: u64) -> f64 {
    // reap-lint: allow(unsafe:float-cast) -- callers pass sim times/counts < 2^53; conversion is exact
    v as f64
}

fn current_hour(t: u64, end_s: u64) -> usize {
    ((t.min(end_s.saturating_sub(1))) / HOUR_S) as usize
}

/// Intermittent mode: the capacitor store with power-failure and
/// checkpoint/restore semantics. The scenario budgets closed-loop
/// against the live store (its builder sets that for every batteryless
/// scenario).
pub(crate) fn run_intermittent_mode(
    scenario: &Scenario,
    policy: Policy,
    config: &IntermittentConfig,
) -> Result<VdtRun, SimError> {
    let dt = u64::from(scenario.dt_seconds);
    let total_hours = scenario.trace.len_hours();
    let end_s = total_hours as u64 * HOUR_S;
    let problem = &scenario.problem;

    let planner = if policy == Policy::Intermittent {
        None
    } else {
        Some(HourPlanner::new(scenario, policy)?)
    };
    // The burst policy's candidates: each point running flat out for a
    // full period, computed once (INT only; the others plan hourly).
    let plans: Vec<Plan> = problem
        .points()
        .iter()
        .filter(|_| planner.is_none())
        .map(|p| {
            let budget = p.power() * problem.period();
            static_schedule(problem, p.id(), budget).map(|s| Plan::new(budget, s, problem.alpha()))
        })
        .collect::<Result<_, _>>()?;
    let off_plan = static_schedule(problem, problem.points()[0].id(), problem.min_budget())?;

    let mut core = IntermittentCore {
        scenario,
        policy,
        config,
        planner,
        cap: config.capacitor.clone(),
        dt,
        end_s,
        timeline: Timeline::new(&config.failures, end_s),
        plans,
        off_plan,
        on: false,
        forced_out: false,
        off_since: 0.0,
        wake_not_before: 0,
        on_until: 0,
        pending_wake: None,
        planned_hour: None,
        current_plan: None,
        hour_harvest: Energy::ZERO,
        hour_committed: 0.0,
        hour_last_plan: None,
        stats: ClockStats::default(),
        hours: Vec::with_capacity(total_hours),
        events: Vec::new(),
    };
    core.stats.initial_store_j = core.cap.energy().joules();

    // The hour loop: each hour's events, then the harvest edge that
    // closes it; the edge after the last hour is the trace end.
    let mut harvest = scenario.trace.iter();
    for h in 0..=total_hours {
        let edge = h as u64 * HOUR_S;
        while let Some((at, kind)) = core.timeline.pop_before(edge) {
            core.log(at, kind.tag());
            match kind {
                EventKind::Restore => {
                    core.advance_off(to_f64(at));
                    core.forced_out = false;
                    core.schedule_wake(to_f64(at));
                }
                EventKind::Failure => {
                    core.stats.forced_failures += 1;
                    core.forced_out = true;
                    if core.on {
                        // SIGKILL at the plug: the in-flight volatile
                        // window dies with the power. Epoch accounting
                        // already ran to `on_until`, so charging resumes
                        // from there.
                        core.stats.epochs_lost += 1;
                        core.on = false;
                        core.off_since = to_f64(at).max(to_f64(core.on_until));
                    } else {
                        core.advance_off(to_f64(at));
                    }
                    core.pending_wake = None;
                }
                EventKind::Wake => {
                    if core.pending_wake == Some(at) {
                        core.pending_wake = None;
                    }
                    if core.on || core.forced_out {
                        continue;
                    }
                    core.advance_off(to_f64(at));
                    if core.cap.can_turn_on() {
                        core.turn_on(at)?;
                    } else {
                        // Rates drifted (leak beat the estimate); recompute.
                        core.schedule_wake(to_f64(at));
                    }
                }
                // A forced failure left this epoch armed.
                EventKind::Epoch if !core.on => {}
                EventKind::Epoch => core.run_epoch(at)?,
            }
        }
        let hour_harvest = harvest.next();
        core.log(edge, hour_harvest.map_or("end", |_| "harvest-edge"));
        core.advance_off(to_f64(edge));
        if let Some(prev) = h.checked_sub(1) {
            core.finalize_hour(prev);
        }
        if let Some(hour_harvest) = hour_harvest {
            core.hour_harvest = hour_harvest;
            core.stats.harvest_offered_j += hour_harvest.joules();
            core.wake_not_before = 0;
            core.pending_wake = None;
            if !core.on {
                core.schedule_wake(to_f64(edge));
            }
        }
    }

    core.stats.final_store_j = core.cap.energy().joules();
    let energy_layer = match &core.planner {
        Some(planner) => planner.energy_layer(),
        None => "burst",
    };
    let report = SimReport::new(policy, energy_layer, problem.alpha(), core.hours);
    Ok(VdtRun {
        report,
        stats: core.stats,
        events: core.events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reap_core::OperatingPoint;
    use reap_harvest::HarvestTrace;
    use reap_units::Power;

    fn paper_points() -> Vec<OperatingPoint> {
        let specs = [
            (1u8, 0.94, 2.76),
            (2, 0.93, 2.30),
            (3, 0.92, 1.82),
            (4, 0.90, 1.64),
            (5, 0.76, 1.20),
        ];
        specs
            .iter()
            .map(|&(id, a, mw)| {
                OperatingPoint::new(id, format!("DP{id}"), a, Power::from_milliwatts(mw)).unwrap()
            })
            .collect()
    }

    fn teg_trace(seed: u64, days: u32) -> HarvestTrace {
        reap_harvest::SourceKind::BodyHeat
            .instantiate(seed)
            .generate(244, days)
            .unwrap()
    }

    #[test]
    fn timeline_orders_ties_restore_edge_failure_wake_epoch() {
        // One outage ends and the next begins on the edge at 3600, where
        // two copies of a wake and an epoch are due too; the last outage
        // runs past the trace end.
        let failures = [(1000, 3600), (3600, 3700), (7000, 9000)];
        let mut timeline = Timeline::new(&failures, 7200);
        timeline.push_wake(5000);
        timeline.push_wake(3600);
        timeline.push_wake(3600);
        // A failure left the epoch at 3600 armed; a turn-on there re-arms
        // it in place, so it pops once.
        timeline.arm_epoch(3600);
        timeline.arm_epoch(3600);
        let mut drain = |edge| {
            std::iter::from_fn(|| timeline.pop_before(edge))
                .map(|(at, kind)| (at, kind.tag()))
                .collect::<Vec<_>>()
        };
        // Only the restore comes before the edge at its own timestamp.
        assert_eq!(drain(3600), vec![(1000, "failure"), (3600, "restore")]);
        assert_eq!(
            drain(7200),
            vec![
                (3600, "failure"),
                (3600, "wake"),
                (3600, "wake"),
                (3600, "epoch"),
                (3700, "restore"),
                (5000, "wake"),
                (7000, "failure"),
                (7200, "restore"),
            ]
        );
        assert!(drain(7200).is_empty());
    }

    #[test]
    fn config_validates_taxes_against_the_hysteresis_band() {
        let cap = Capacitor::supercap_wearable();
        // Usable band is 0.23 J; a restore tax that large must fail.
        assert!(IntermittentConfig::new(
            cap.clone(),
            Energy::from_joules(0.002),
            Energy::from_joules(0.23),
        )
        .is_err());
        assert!(
            IntermittentConfig::new(cap.clone(), Energy::from_joules(-0.1), Energy::ZERO).is_err()
        );
        assert!(IntermittentConfig::new(
            cap,
            Energy::from_joules(0.002),
            Energy::from_joules(0.005)
        )
        .is_ok());
    }

    #[test]
    fn failure_windows_validate() {
        let ok = IntermittentConfig::wearable_default();
        assert!(ok.clone().with_failures(vec![(0, 10), (10, 20)]).is_ok());
        assert!(ok.clone().with_failures(vec![(10, 10)]).is_err());
        assert!(ok.clone().with_failures(vec![(0, 10), (5, 20)]).is_err());
        assert!(ok.with_failures(vec![(10, 20), (0, 5)]).is_err());
    }

    #[test]
    fn intermittent_policy_requires_intermittent_scenario() {
        let s = crate::Scenario::builder(teg_trace(1, 2))
            .points(paper_points())
            .build()
            .unwrap();
        let err = s.run(Policy::Intermittent).unwrap_err();
        assert!(matches!(err, SimError::InvalidParameter(_)));
        // The event core runs batteryless scenarios only, whatever the
        // policy.
        for policy in [Policy::Intermittent, Policy::Reap] {
            let err = s.run_event_driven(policy).unwrap_err();
            assert!(matches!(err, SimError::InvalidParameter(_)), "{policy}");
        }
    }

    #[test]
    fn intermittent_run_commits_work_and_balances_the_ledger() {
        let s = crate::Scenario::builder(teg_trace(3, 5))
            .points(paper_points())
            .dt_seconds(300)
            .intermittent(IntermittentConfig::wearable_default())
            .build()
            .unwrap();
        let run = s.run_event_driven(Policy::Intermittent).unwrap();
        assert_eq!(run.report.hours().len(), 5 * 24);
        assert!(run.stats.bursts > 0, "TEG harvest must boot the node");
        assert!(run.stats.epochs_committed > 0);
        assert!(
            run.stats.ledger_drift().abs() <= 1e-9,
            "ledger drift {} J",
            run.stats.ledger_drift()
        );
        for h in run.report.hours() {
            assert!((0.0..=1.0).contains(&h.realized_fraction));
            assert!(!h.battery_level.is_negative());
            assert!(h.battery_level.joules() <= 0.5445 + 1e-12);
        }
    }

    #[test]
    fn forced_failures_kill_and_the_node_recovers() {
        let config = IntermittentConfig::wearable_default()
            .with_failures(vec![(7200, 10800), (40_000, 50_000)])
            .unwrap();
        let s = crate::Scenario::builder(teg_trace(5, 2))
            .points(paper_points())
            .dt_seconds(300)
            .intermittent(config)
            .build()
            .unwrap();
        let run = s.run_event_driven(Policy::Intermittent).unwrap();
        assert_eq!(run.stats.forced_failures, 2);
        assert!(run.stats.ledger_drift().abs() <= 1e-9);
        // Work exists on both sides of the outages.
        assert!(run.stats.epochs_committed > 0);
    }

    #[test]
    fn hourly_policies_run_on_the_capacitor_too() {
        for policy in [
            Policy::Reap,
            Policy::Static(5),
            Policy::Horizon { lookahead: 4 },
        ] {
            let s = crate::Scenario::builder(teg_trace(7, 2))
                .points(paper_points())
                .dt_seconds(600)
                .intermittent(IntermittentConfig::wearable_default())
                .build()
                .unwrap();
            let run = s.run_event_driven(policy).unwrap();
            assert_eq!(run.report.hours().len(), 48, "{policy}");
            assert!(run.stats.ledger_drift().abs() <= 1e-9, "{policy}");
        }
    }

    #[test]
    fn event_log_is_recorded_when_traced() {
        let s = crate::Scenario::builder(teg_trace(9, 1))
            .points(paper_points())
            .dt_seconds(900)
            .intermittent(IntermittentConfig::wearable_default())
            .trace_events(true)
            .build()
            .unwrap();
        let run = s.run_event_driven(Policy::Intermittent).unwrap();
        assert_eq!(run.events.len() as u64, run.stats.events);
        assert_eq!(run.events.last().unwrap().kind, "end");
        // Timestamps are non-decreasing.
        assert!(run.events.windows(2).all(|w| w[0].at_s <= w[1].at_s));
    }
}
