//! The data-oriented fleet core: struct-of-arrays hour stepping.
//!
//! The scalar engine (`crate::engine`) simulates one user at a time,
//! with per-user heap state (boxed allocator, `Schedule`s, an
//! `HourRecord` per hour). That is the right shape for replaying one
//! user; it is the wrong shape for a million. This module batches the
//! **entire population through each simulated hour**:
//!
//! * fleet state lives in flat arrays (battery joules, EWMA slots,
//!   accumulators as `Vec<f64>`), stepped by tight per-hour passes that
//!   allocate nothing per user. Each pass cuts every column it touches
//!   to one length before its loop and keeps branches out of the loop
//!   body, so LLVM's loop vectorizer runs all four passes in packed
//!   lanes;
//! * every user's plan frontier is a run of [`Vertex`] records in one
//!   contiguous arena, laid out in the order the kernel steps users. The
//!   plan pass plans each hour's budget branch-free on the frontier's
//!   first segment ([`reap_core::first_segment`]) or at saturation, and
//!   runs [`reap_core::decide_vertices`] over the run only for budgets
//!   between the two. The build derives each user's draws
//!   ([`Fleet::user_draws`]) and hull ([`reap_core::push_frontier`]) on
//!   the worker pool, allocating nothing per user;
//! * users on the same harvest source share one base trace and store
//!   only their [`TracePerturbation`](reap_harvest::TracePerturbation)
//!   (16 bytes) instead of a materialized month;
//! * users are processed in shards of 256: one shard's state walks all
//!   hours before the next shard starts, so the working set stays
//!   cache-resident, and shards parallelize across worker threads.
//!
//! The kernel covers one configuration, the paper's runtime loop and the
//! one the committed fleet benchmarks run:
//! [`Policy::Reap`](crate::Policy::Reap) planning EWMA budgets
//! ([`AllocatorKind::Ewma`](crate::AllocatorKind::Ewma)) on an hourly
//! battery. Each hour is one straight-line pipeline (EWMA observe,
//! open-loop grant, plan, execute) that calls the same hour-step
//! functions as the scalar engine ([`reap_harvest::step`] for
//! allocation and execution, [`reap_core::first_segment`] and
//! [`reap_core::decide_vertices`] for planning) on the same values, so
//! per-user outcomes are bit-identical to [`Fleet::user_scenario`]
//! replay — a property the `soa_equivalence` tests pin bit for bit.
//! Every other fleet (static policies, MPC, sub-hour and batteryless
//! fleets) runs on the scalar engine, user by user, and
//! [`SoaFleet::new`] builds no per-user state for it.

use std::num::NonZeroUsize;

use reap_core::{decide_vertices, first_segment, push_frontier, PlanEval, Vertex};
use reap_harvest::step::{self, BATTERY_GAIN, EWMA_ALPHA};
use reap_harvest::{Battery, SourceKind};

use crate::fleet::Fleet;
use crate::matrix::parallel_map;
use crate::SimError;

/// Users per shard: large enough to amortize per-shard setup, small
/// enough that one shard's state stays cache-resident.
const SHARD_USERS: usize = 256;

/// Per-user final scalars of one fleet run — exactly what
/// [`FleetReport`](crate::FleetReport) aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UserOutcome {
    /// Mean realized accuracy per hour (`SimReport::mean_accuracy`).
    pub accuracy: f64,
    /// Realized active time over the whole trace duration, in `[0, 1]`.
    pub active_fraction: f64,
    /// Hours in which the user's plan browned out.
    pub brownout_hours: u32,
    /// Total energy harvested over the trace, in joules.
    pub harvested_j: f64,
}

/// A contiguous run of permuted users sharing `(base trace, phase)`, so
/// the hour kernel hoists the base-trace lookup out of the user loop.
#[derive(Debug, Clone, Copy)]
struct Group {
    start: usize,
    end: usize,
    trace: u32,
    phase: u32,
}

/// A fleet flattened into struct-of-arrays form, ready to step every
/// user through each simulated hour.
///
/// Built once per run from a [`Fleet`] (base-trace generation, the user
/// permutation and every user's frontier all happen here);
/// [`SoaFleet::run`] afterwards touches only flat arrays. A fleet the
/// kernel does not run gets an empty `SoaFleet` that only reports its
/// population.
#[derive(Debug, Default)]
pub struct SoaFleet {
    users: usize,
    hours: usize,
    days: u32,
    /// `true` for the one configuration the kernel runs (REAP planning
    /// EWMA budgets on an hourly battery).
    kernel: bool,
    // Problem constants (identical across users: the fleet fixes the
    // off power, the points' powers and the period for every user).
    floor_j: f64,
    /// The saturation budget: the most a virtual battery pays per hour.
    max_spend_j: f64,
    tp_s: f64,
    off_w: f64,
    // Battery constants (every fleet user starts from the same battery).
    cap_j: f64,
    init_j: f64,
    eff_c: f64,
    eff_d: f64,
    /// Shared base traces in joules, one per distinct source kind used.
    traces: Vec<Vec<f64>>,
    /// Permuted position -> original user index.
    perm: Vec<u32>,
    /// Per permuted position: trace gain.
    gain: Vec<f64>,
    /// Per permuted position: the index of its frontier below, which is
    /// the position itself. The column stays because
    /// `soa_bytes_per_user`, which `BENCH_fleet.json` and perfbench pin,
    /// counts it.
    cohort: Vec<u32>,
    /// Contiguous `(trace, phase)` runs over permuted positions.
    groups: Vec<Group>,
    /// Frontier vertices of every user, one interleaved arena in
    /// permuted order, so the hour kernel reads it in ascending offsets
    /// across a shard.
    verts: Vec<Vertex>,
    /// Per position: its vertex run is `verts[vert_off[c]..vert_off[c+1]]`
    /// (`users + 1` entries).
    vert_off: Vec<u32>,
    /// Per position: the plan at the budget floor. The plan pass plans
    /// the floor on the first frontier segment instead; the column stays
    /// because `soa_bytes_per_user` counts it.
    floor_plan: Vec<PlanEval>,
    /// Per position: the plan at frontier saturation.
    sat_plan: Vec<PlanEval>,
    /// Per position: the saturation budget.
    sat_budget: Vec<f64>,
    bytes_per_user: u32,
}

/// One shard's frontier data, built on a worker: its users' vertex runs
/// back to back and their constant plan regimes, in permuted order.
struct ShardFrontiers {
    verts: Vec<Vertex>,
    /// Per position: the end of its run in `verts`.
    ends: Vec<u32>,
    floor_plan: Vec<PlanEval>,
    sat_plan: Vec<PlanEval>,
    sat_budget: Vec<f64>,
}

impl SoaFleet {
    /// Flattens `fleet` into SoA form on the machine's available
    /// parallelism: generates the shared base traces, sorts users into
    /// `(source, phase)` groups and builds every user's frontier table
    /// when the fleet runs on the kernel. Any other fleet gets an empty
    /// `SoaFleet`.
    ///
    /// # Errors
    ///
    /// Propagates harvest construction failures, and
    /// [`Fleet::base_problem`]'s for invalid base points, exactly as
    /// per-user [`Fleet::user_scenario`] construction would.
    pub fn new(fleet: &Fleet) -> Result<SoaFleet, SimError> {
        SoaFleet::build(fleet, None)
    }

    /// [`SoaFleet::new`] on at most `max_threads` workers (`None` = the
    /// machine's available parallelism). The result does not depend on
    /// the worker count.
    pub(crate) fn build(
        fleet: &Fleet,
        max_threads: Option<NonZeroUsize>,
    ) -> Result<SoaFleet, SimError> {
        let users = fleet.users as usize;
        let hours = fleet.days as usize * 24;
        if !fleet.runs_on_kernel() {
            return Ok(SoaFleet {
                users,
                hours,
                days: fleet.days,
                ..SoaFleet::default()
            });
        }

        // One shared base trace per distinct source kind, in first-use
        // order; per-slot indirection covers repeated kinds.
        let mut kinds: Vec<SourceKind> = Vec::new();
        let mut slot_trace: Vec<u32> = Vec::with_capacity(fleet.sources.len());
        for &kind in &fleet.sources {
            let idx = match kinds.iter().position(|&k| k == kind) {
                Some(i) => i,
                None => {
                    kinds.push(kind);
                    kinds.len() - 1
                }
            };
            slot_trace.push(idx as u32);
        }
        let mut traces: Vec<Vec<f64>> = Vec::with_capacity(kinds.len());
        for &kind in &kinds {
            let base = fleet.base_trace(kind)?;
            traces.push(base.iter().map(|e| e.joules()).collect());
        }

        // The base points are validated once; every user's problem
        // shares its period and off power.
        let base = fleet.base_problem()?;
        let floor_j = base.min_budget().joules();
        let max_spend_j = base.saturation_budget().joules();
        let tp_s = base.period().seconds();
        let off_w = base.off_power().watts();

        // Permute users so same-(source, phase) runs are contiguous: the
        // kernel then reads one base-trace hour per run instead of per
        // user. Per-user arithmetic is order-independent, so this cannot
        // change any outcome bit. A counting sort over `(slot, phase)`
        // buckets, taking users in ascending order, gives the order of a
        // sort by `(slot, phase, user)`.
        let perturbations: Vec<_> = (0..fleet.users)
            .map(|u| fleet.user_perturbation(u))
            .collect();
        let slots = fleet.sources.len();
        let phases = perturbations
            .iter()
            .map(|p| p.phase_hours() as usize + 1)
            .max()
            .unwrap_or(1);
        let bucket = |u: usize| (u % slots) * phases + perturbations[u].phase_hours() as usize;
        let mut starts = vec![0usize; slots * phases + 1];
        for u in 0..users {
            starts[bucket(u) + 1] += 1;
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        let mut perm = vec![0u32; users];
        for u in 0..users {
            let at = &mut starts[bucket(u)];
            perm[*at] = u as u32;
            *at += 1;
        }
        let gain: Vec<f64> = perm
            .iter()
            .map(|&u| perturbations[u as usize].gain())
            .collect();
        let mut groups: Vec<Group> = Vec::new();
        for (pos, &u) in perm.iter().enumerate() {
            let trace = slot_trace[u as usize % slots];
            let phase = perturbations[u as usize].phase_hours();
            match groups.last_mut() {
                Some(g) if g.trace == trace && g.phase == phase => g.end = pos + 1,
                _ => groups.push(Group {
                    start: pos,
                    end: pos + 1,
                    trace,
                    phase,
                }),
            }
        }

        // Every user's plan data, a shard per task in permuted order: the
        // frontier's vertex run plus the two constant plan regimes, the
        // floor and saturation. The plan pass resolves a saturated hour
        // from the cached eval, which is bit-identical to evaluating the
        // frontier at any budget past saturation.
        let shards = parallel_map(users.div_ceil(SHARD_USERS), max_threads, |s| {
            let positions = &perm[s * SHARD_USERS..((s + 1) * SHARD_USERS).min(users)];
            let n = positions.len();
            let mut shard = ShardFrontiers {
                verts: Vec::with_capacity(n * (fleet.base_points.len() + 1)),
                ends: Vec::with_capacity(n),
                floor_plan: Vec::with_capacity(n),
                sat_plan: Vec::with_capacity(n),
                sat_budget: Vec::with_capacity(n),
            };
            let mut points = Vec::with_capacity(fleet.base_points.len());
            for &u in positions {
                let (_, alpha) = fleet.user_draws(u, &mut points);
                let start = shard.verts.len();
                push_frontier(&mut shard.verts, &points, alpha, tp_s, off_w);
                let run = &shard.verts[start..];
                let sb = run[run.len() - 1].budget_j;
                shard
                    .floor_plan
                    .push(decide_vertices(run, tp_s, off_w, floor_j).eval);
                shard
                    .sat_plan
                    .push(decide_vertices(run, tp_s, off_w, sb).eval);
                shard.sat_budget.push(sb);
                shard.ends.push(shard.verts.len() as u32);
            }
            shard
        });
        let mut verts = Vec::with_capacity(shards.iter().map(|s| s.verts.len()).sum());
        let mut vert_off = Vec::with_capacity(users + 1);
        let mut floor_plan = Vec::with_capacity(users);
        let mut sat_plan = Vec::with_capacity(users);
        let mut sat_budget = Vec::with_capacity(users);
        vert_off.push(0);
        for shard in shards {
            let at = verts.len() as u32;
            vert_off.extend(shard.ends.iter().map(|&end| at + end));
            verts.extend_from_slice(&shard.verts);
            floor_plan.extend_from_slice(&shard.floor_plan);
            sat_plan.extend_from_slice(&shard.sat_plan);
            sat_budget.extend_from_slice(&shard.sat_budget);
        }

        let battery = Battery::small_wearable();
        let mut soa = SoaFleet {
            users,
            hours,
            days: fleet.days,
            kernel: true,
            floor_j,
            max_spend_j,
            tp_s,
            off_w,
            cap_j: battery.capacity().joules(),
            init_j: battery.level().joules(),
            eff_c: battery.charge_efficiency(),
            eff_d: battery.discharge_efficiency(),
            traces,
            perm,
            gain,
            cohort: (0..fleet.users).collect(),
            groups,
            verts,
            vert_off,
            floor_plan,
            sat_plan,
            sat_budget,
            bytes_per_user: 0,
        };
        soa.bytes_per_user = soa.compute_bytes_per_user();
        Ok(soa)
    }

    /// The user count: every user plans on a frontier of their own. Kept
    /// only because `BENCH_fleet.json` and perfbench pin it.
    #[must_use]
    pub fn cohorts(&self) -> u32 {
        self.users as u32
    }

    /// Resident SoA bytes per user: per-user parameter, state and
    /// frontier arrays, plus the shared base traces amortized over the
    /// population. Rounded up; `0` for a fleet the kernel does not run.
    #[must_use]
    pub fn bytes_per_user(&self) -> u32 {
        self.bytes_per_user
    }

    /// `true` when the fleet runs on the kernel:
    /// [`Policy::Reap`](crate::Policy::Reap) on an hourly battery.
    /// `false` for every fleet [`Fleet::run`] steps user by user on the
    /// scalar engine (static policies,
    /// [`Policy::Horizon`](crate::Policy::Horizon), any batteryless or
    /// sub-hour fleet).
    #[must_use]
    pub fn supports_policy(&self) -> bool {
        self.kernel
    }

    fn compute_bytes_per_user(&self) -> u32 {
        let f = std::mem::size_of::<f64>();
        // Parameters: perm + gain + cohort.
        let mut per_user = 4 + f + 4;
        // Run state: real/virtual battery, last harvest, three f64
        // accumulators, brownout counter.
        per_user += 6 * f + 4;
        // EWMA slots plus the seeding sum.
        per_user += 24 * f + f;
        per_user += std::mem::size_of::<UserOutcome>();
        let mut shared = self.traces.iter().map(|t| t.len() * f).sum::<usize>();
        shared += self.groups.len() * std::mem::size_of::<Group>();
        shared += self.verts.len() * std::mem::size_of::<Vertex>() + self.vert_off.len() * 4;
        shared += (self.floor_plan.len() + self.sat_plan.len()) * std::mem::size_of::<PlanEval>()
            + self.sat_budget.len() * f;
        let total = per_user * self.users + shared;
        total.div_ceil(self.users).min(u32::MAX as usize) as u32
    }

    /// Steps every user through every hour, returning per-user outcomes
    /// in **original user order**. Shards run across up to `max_threads`
    /// workers (`None` = available parallelism); outcomes are
    /// bit-identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics when the fleet is not the kernel's configuration
    /// (`!self.supports_policy()`); [`Fleet::run`] routes those runs to
    /// the scalar engine instead.
    #[must_use]
    pub fn run(&self, max_threads: Option<NonZeroUsize>) -> Vec<UserOutcome> {
        self.run_in_shards(SHARD_USERS, max_threads)
    }

    /// [`SoaFleet::run`] over `shard`-user shards: outcomes do not depend
    /// on where the shard boundaries fall.
    fn run_in_shards(&self, shard: usize, max_threads: Option<NonZeroUsize>) -> Vec<UserOutcome> {
        assert!(
            self.supports_policy(),
            "the SoA kernel does not cover this fleet; use the scalar engine"
        );
        let runs = parallel_map(self.users.div_ceil(shard), max_threads, |s| {
            self.run_shard(s * shard, (s * shard + shard).min(self.users))
        });
        // Shard outputs in order are the permuted positions in order;
        // write them back to original user indices.
        let mut out = vec![UserOutcome::default(); self.users];
        for (&user, outcome) in self.perm.iter().zip(runs.into_iter().flatten()) {
            out[user as usize] = outcome;
        }
        out
    }

    /// Position `c`'s frontier: its run of vertices in the arena.
    fn frontier(&self, c: usize) -> &[Vertex] {
        &self.verts[self.vert_off[c] as usize..self.vert_off[c + 1] as usize]
    }

    /// Steps permuted positions `[a, b)` through every hour. All state is
    /// shard-local and heap-allocated once, before the hour loop.
    ///
    /// Each hour is four passes over the shard's columns: EWMA observe,
    /// allocate, plan and execute. Every pass cuts each column it touches
    /// to one length before its loop, so no element access carries a
    /// bounds check, and no loop body branches, pushes or exits early
    /// (the step functions merge each engine conditional into selects).
    /// LLVM's loop vectorizer then runs all four in packed lanes; only the
    /// plan pass's fallback, over the few users whose budget lies between
    /// the first frontier segment and saturation, stays scalar.
    fn run_shard(&self, a: usize, b: usize) -> Vec<UserOutcome> {
        let nu = b - a;
        let gain = &self.gain[a..b];
        // Groups clipped to this shard, rebased to shard-local indices.
        let groups: Vec<Group> = self
            .groups
            .iter()
            .filter(|g| g.start < b && g.end > a)
            .map(|g| Group {
                start: g.start.max(a) - a,
                end: g.end.min(b) - a,
                trace: g.trace,
                phase: g.phase,
            })
            .collect();
        let mut plan = ShardPlan::gather(self, a, b);

        // Mutable per-user state, flat.
        let mut bat = vec![self.init_j; nu];
        let mut vbat = vec![self.init_j; nu];
        let mut last_h = vec![0.0f64; nu];
        let mut acc_sum = vec![0.0f64; nu];
        let mut act_sum = vec![0.0f64; nu];
        let mut harv_sum = vec![0.0f64; nu];
        let mut brow = vec![0u32; nu];
        // EWMA slots, slot-major (`est[slot * nu + u]`), plus the running
        // seeded-slot sum backing the cold-start mean.
        let mut est = vec![0.0f64; 24 * nu];
        let mut est_sum = vec![0.0f64; nu];

        let (cap_j, eff_c, eff_d) = (self.cap_j, self.eff_c, self.eff_d);
        let (floor_j, max_spend_j) = (self.floor_j, self.max_spend_j);

        // Per-hour stage temporaries: the cold-start expectations, budgets
        // out of the allocate pass, plan scalars out of the plan pass.
        let mut cold_t = vec![0.0f64; nu];
        let mut budget_t = vec![0.0f64; nu];
        let mut pacc_t = vec![0.0f64; nu];
        let mut pact_t = vec![0.0f64; nu];
        let mut pen_t = vec![0.0f64; nu];

        for i in 0..self.hours {
            let day = i / 24;
            let hod = i % 24;

            // EWMA observe pass: every user folds last hour's harvest
            // into the previous slot — seeding it on the first day,
            // blending afterwards (`EwmaAllocator::allocate`). The very
            // first call carries no real sample and is discarded.
            if i >= 1 {
                let prev = (hod + 23) % 24;
                let est_prev = &mut est[prev * nu..prev * nu + nu];
                let last_h = &last_h[..nu];
                if i >= 25 {
                    for u in 0..nu {
                        est_prev[u] = step::blend(est_prev[u], last_h[u], EWMA_ALPHA);
                    }
                } else {
                    let est_sum = &mut est_sum[..nu];
                    est_prev.copy_from_slice(last_h);
                    for u in 0..nu {
                        est_sum[u] += last_h[u];
                    }
                }
            }

            // This hour's expected harvest: the slot estimate once every
            // slot is seeded; before that the mean of the seeded slots
            // (the sum accumulates in ascending slot order), and nothing
            // on the discarded first call.
            let expected = if i >= 24 {
                &est[hod * nu..hod * nu + nu]
            } else {
                if i >= 1 {
                    let i_f = i as f64;
                    let (cold, est_sum) = (&mut cold_t[..nu], &est_sum[..nu]);
                    for u in 0..nu {
                        cold[u] = est_sum[u] / i_f;
                    }
                }
                &cold_t[..nu]
            };

            // Allocate pass: allocator proposal against the *virtual*
            // battery, open-loop grant and virtual charge/spend
            // (`step::open_loop`), one loop per `(trace, phase)` group.
            for g in &groups {
                let src = (hod as u32 + g.phase) % 24;
                let base_e = self.traces[g.trace as usize][day * 24 + src as usize];
                let (lo, n) = (g.start, g.end - g.start);
                let (gain, expected) = (&gain[lo..lo + n], &expected[lo..lo + n]);
                let vbat = &mut vbat[lo..lo + n];
                let budget = &mut budget_t[lo..lo + n];
                let last_h = &mut last_h[lo..lo + n];
                for u in 0..n {
                    let h = base_e * gain[u];
                    let proposed = step::propose(expected[u], vbat[u], cap_j, BATTERY_GAIN);
                    (budget[u], vbat[u]) = step::open_loop(
                        vbat[u],
                        cap_j,
                        eff_c,
                        eff_d,
                        proposed,
                        floor_j,
                        max_spend_j,
                        h,
                    );
                    last_h[u] = h;
                }
            }

            // Plan pass: the scalar engine's schedule scalars, bit for bit.
            plan.plan(self, &budget_t, &mut pacc_t, &mut pact_t, &mut pen_t);

            // Execute pass: harvest first, then the real battery, browning
            // out proportionally (`step::execute`, the engine's hour loop
            // at one step per hour).
            let (pacc, pact, pen) = (&pacc_t[..nu], &pact_t[..nu], &pen_t[..nu]);
            let (bat, last_h, brow) = (&mut bat[..nu], &last_h[..nu], &mut brow[..nu]);
            let (acc_sum, act_sum) = (&mut acc_sum[..nu], &mut act_sum[..nu]);
            let harv_sum = &mut harv_sum[..nu];
            for u in 0..nu {
                let h = last_h[u];
                let (level, rf) = step::execute(bat[u], cap_j, eff_c, eff_d, h, pen[u]);
                bat[u] = level;
                acc_sum[u] += pacc[u] * rf;
                act_sum[u] += pact[u] * rf;
                brow[u] += u32::from(rf < 1.0);
                harv_sum[u] += h;
            }
        }

        let hours_f = self.hours as f64;
        let trace_hours = f64::from(self.days) * 24.0;
        (0..nu)
            .map(|u| UserOutcome {
                accuracy: acc_sum[u] / hours_f,
                active_fraction: (act_sum[u] / 3600.0) / trace_hours,
                brownout_hours: brow[u],
                harvested_j: harv_sum[u],
            })
            .collect()
    }
}

/// One shard's plan constants in columns, gathered from the arena once
/// per run so that the plan pass loads them in vector lanes: where each
/// user's first frontier segment ends and the point it blends into, and
/// the saturation budget and plan.
struct ShardPlan {
    /// The permuted position of the shard's first user.
    start: usize,
    /// Per user: the budget where the first segment ends, `-inf` for a
    /// frontier that does not start with the all-off vertex at the fleet
    /// floor followed by a point.
    seg_b: Vec<f64>,
    /// Per user: accuracy of the first segment's point.
    seg_acc: Vec<f64>,
    /// Per user: power of the first segment's point, in watts.
    seg_w: Vec<f64>,
    /// Per user: the saturation budget.
    sat_b: Vec<f64>,
    /// Per user: the plan at saturation, one column per aggregate.
    sat_acc: Vec<f64>,
    sat_act: Vec<f64>,
    sat_en: Vec<f64>,
    /// Per user, this hour: the budget lies past the first segment and
    /// short of saturation, or is NaN, so the frontier walk plans it.
    past: Vec<bool>,
}

impl ShardPlan {
    /// The plan columns of permuted positions `[a, b)`.
    fn gather(soa: &SoaFleet, a: usize, b: usize) -> ShardPlan {
        let n = b - a;
        let mut plan = ShardPlan {
            start: a,
            seg_b: Vec::with_capacity(n),
            seg_acc: Vec::with_capacity(n),
            seg_w: Vec::with_capacity(n),
            sat_b: Vec::with_capacity(n),
            sat_acc: Vec::with_capacity(n),
            sat_act: Vec::with_capacity(n),
            sat_en: Vec::with_capacity(n),
            past: vec![false; n],
        };
        for &c in &soa.cohort[a..b] {
            let c = c as usize;
            let (seg_b, seg_acc, seg_w) = match soa.frontier(c) {
                [off, seg, ..]
                    if !off.has_point && off.budget_j == soa.floor_j && seg.has_point =>
                {
                    (seg.budget_j, seg.accuracy, seg.power_w)
                }
                _ => (f64::NEG_INFINITY, 0.0, 0.0),
            };
            plan.seg_b.push(seg_b);
            plan.seg_acc.push(seg_acc);
            plan.seg_w.push(seg_w);
            let sat = soa.sat_plan[c];
            plan.sat_b.push(soa.sat_budget[c]);
            plan.sat_acc.push(sat.accuracy);
            plan.sat_act.push(sat.active_s);
            plan.sat_en.push(sat.energy_j);
        }
        plan
    }

    /// The plan pass: each user's [`decide_vertices`] plan at `budget`,
    /// one aggregate per output column.
    ///
    /// The first loop plans every user branch-free, with selects: on the
    /// first frontier segment ([`first_segment`], which also plans the
    /// floor and every budget below it) or at saturation (the cached
    /// plan), and flags the users whose budget lies between the two, or
    /// is NaN. The second loop walks the frontier for the flagged users
    /// only.
    fn plan(
        &mut self,
        soa: &SoaFleet,
        budget: &[f64],
        acc: &mut [f64],
        act: &mut [f64],
        en: &mut [f64],
    ) {
        let n = self.past.len();
        let (floor_j, tp, off_w) = (soa.floor_j, soa.tp_s, soa.off_w);
        let budget = &budget[..n];
        let (acc, act, en) = (&mut acc[..n], &mut act[..n], &mut en[..n]);
        let (seg_b, seg_acc, seg_w) = (&self.seg_b[..n], &self.seg_acc[..n], &self.seg_w[..n]);
        let (sat_b, sat_acc) = (&self.sat_b[..n], &self.sat_acc[..n]);
        let (sat_act, sat_en) = (&self.sat_act[..n], &self.sat_en[..n]);
        let past = &mut self.past[..n];
        for u in 0..n {
            let b = budget[u];
            // The segment's point; its id would only label the plan's
            // share, which this pass does not keep.
            let seg = Vertex {
                budget_j: seg_b[u],
                accuracy: seg_acc[u],
                power_w: seg_w[u],
                id: 0,
                has_point: true,
            };
            let first = first_segment(floor_j, &seg, tp, off_w, b).eval;
            let sat = b >= sat_b[u];
            acc[u] = if sat { sat_acc[u] } else { first.accuracy };
            act[u] = if sat { sat_act[u] } else { first.active_s };
            en[u] = if sat { sat_en[u] } else { first.energy_j };
            past[u] = !(b < seg_b[u] || sat);
        }
        for u in 0..n {
            if past[u] {
                let c = soa.cohort[self.start + u] as usize;
                let plan = decide_vertices(soa.frontier(c), tp, off_w, budget[u]).eval;
                (acc[u], act[u], en[u]) = (plan.accuracy, plan.active_s, plan.energy_j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Policy;
    use reap_core::{FrontierTable, OperatingPoint};
    use reap_harvest::splitmix64;
    use reap_units::Power;

    fn base_points() -> Vec<OperatingPoint> {
        vec![
            OperatingPoint::new(1, 0.94, Power::from_milliwatts(2.76)),
            OperatingPoint::new(5, 0.76, Power::from_milliwatts(1.20)),
        ]
    }

    fn fleet(users: u32, days: u32) -> Fleet {
        Fleet::builder(base_points())
            .users(users)
            .days(days)
            .seed(11)
            .build()
            .unwrap()
    }

    #[test]
    fn every_user_counts_as_a_cohort_of_their_own() {
        let f = fleet(16, 1);
        let soa = SoaFleet::new(&f).unwrap();
        assert_eq!(soa.cohorts(), 16);
        assert_eq!(soa.vert_off.len(), 17);
        assert!(soa.bytes_per_user() > 0);
        assert_eq!(f.run().unwrap().cohorts(), 16);
    }

    /// The bits of a vertex, so `-0.0` and `0.0` tell apart.
    fn bits(v: &Vertex) -> (u64, u64, u64, u8, bool) {
        (
            v.budget_j.to_bits(),
            v.accuracy.to_bits(),
            v.power_w.to_bits(),
            v.id,
            v.has_point,
        )
    }

    fn point(id: u8, accuracy: f64, mw: f64) -> OperatingPoint {
        OperatingPoint::new(id, accuracy, Power::from_milliwatts(mw))
    }

    #[test]
    fn arena_runs_equal_each_users_scalar_frontier() {
        let builder = |points| Fleet::builder(points).users(40).days(1).seed(5);
        let fleets = [
            builder(reap_device::paper_table2_operating_points()),
            builder(vec![point(3, 0.9, 1.8)]),
            // Equal powers tie on marginal power: the hull keeps the
            // heavier point only.
            builder(vec![point(1, 0.92, 2.0), point(2, 0.90, 2.0)]),
        ];
        for (i, f) in fleets.into_iter().enumerate() {
            let f = f.build().unwrap();
            let soa = SoaFleet::new(&f).unwrap();
            for (pos, &u) in soa.perm.iter().enumerate() {
                let table = f.user_scenario(u).unwrap().problem().frontier().table();
                assert_eq!(
                    soa.frontier(pos).iter().map(bits).collect::<Vec<_>>(),
                    table.vertices().iter().map(bits).collect::<Vec<_>>(),
                    "fleet {i}, user {u}"
                );
                assert_eq!(soa.cohort[pos] as usize, pos);
                assert_eq!(soa.floor_plan[pos], table.decide(soa.floor_j).eval);
                let saturation = table.vertices()[table.len() - 1].budget_j;
                assert_eq!(soa.sat_budget[pos], saturation);
                assert_eq!(soa.sat_plan[pos], table.decide(saturation).eval);
            }
        }
    }

    /// Budgets that probe every regime edge of `table`: NaN, the
    /// infinities and signed zeros, every breakpoint (the floor and
    /// saturation among them) with the floats on either side, and
    /// `random` draws between the floor and saturation.
    fn adversarial_budgets(table: &FrontierTable, seed: u64, random: u64) -> Vec<f64> {
        let mut budgets = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
        for v in table.vertices() {
            budgets.extend([v.budget_j.next_down(), v.budget_j, v.budget_j.next_up()]);
        }
        let (lo, hi) = (
            table.min_budget_j(),
            table.vertices()[table.len() - 1].budget_j,
        );
        budgets.extend((0..random).map(|k| {
            let unit =
                (splitmix64(seed.wrapping_mul(1 << 20) ^ k) >> 11) as f64 / (1u64 << 53) as f64;
            lo + unit * (hi - lo)
        }));
        budgets
    }

    #[test]
    fn plan_pass_matches_decide_bit_for_bit() {
        // Frontiers of five, two and one point(s); the last fleet's two
        // points tie on power, so its hull keeps one.
        let builder = |points| Fleet::builder(points).users(40).days(1).seed(5);
        let fleets = [
            builder(reap_device::paper_table2_operating_points()),
            builder(base_points()),
            builder(vec![point(3, 0.9, 1.8)]),
            builder(vec![point(1, 0.92, 2.0), point(2, 0.90, 2.0)]),
        ];
        for (i, f) in fleets.into_iter().enumerate() {
            let f = f.build().unwrap();
            let soa = SoaFleet::new(&f).unwrap();
            let n = soa.users;
            let tables: Vec<FrontierTable> = soa
                .perm
                .iter()
                .map(|&u| f.user_scenario(u).unwrap().problem().frontier().table())
                .collect();
            let lists: Vec<Vec<f64>> = (0..n)
                .map(|pos| adversarial_budgets(&tables[pos], pos as u64, 24))
                .collect();
            let mut plan = ShardPlan::gather(&soa, 0, n);
            let (mut acc, mut act, mut en) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            // Each user walks its whole list, offset from its neighbours
            // so that every vector of lanes mixes regimes.
            let rounds = lists.iter().map(Vec::len).max().unwrap();
            for r in 0..rounds {
                let budget: Vec<f64> = (0..n)
                    .map(|pos| lists[pos][(r + pos) % lists[pos].len()])
                    .collect();
                plan.plan(&soa, &budget, &mut acc, &mut act, &mut en);
                for pos in 0..n {
                    let want = tables[pos].decide(budget[pos]).eval;
                    assert_eq!(
                        [acc[pos], act[pos], en[pos]].map(f64::to_bits),
                        [want.accuracy, want.active_s, want.energy_j].map(f64::to_bits),
                        "fleet {i}, position {pos}, budget {:e} J",
                        budget[pos]
                    );
                }
            }
            // One float above the floor buys a run far shorter than
            // `DROP_S`, which every plan drops as noise.
            let budget = vec![soa.floor_j.next_up(); n];
            plan.plan(&soa, &budget, &mut acc, &mut act, &mut en);
            assert!(
                acc.iter().chain(&act).all(|&x| x.to_bits() == 0),
                "fleet {i}"
            );
        }
    }

    #[test]
    fn build_is_identical_on_any_worker_count() {
        // Three shards' worth of users, so workers split the build.
        let f = fleet(600, 1);
        let one = SoaFleet::build(&f, Some(NonZeroUsize::MIN)).unwrap();
        let outcomes = one.run(Some(NonZeroUsize::MIN));
        for threads in [2usize, 7] {
            let many = SoaFleet::build(&f, NonZeroUsize::new(threads)).unwrap();
            assert_eq!(
                format!("{many:?}"),
                format!("{one:?}"),
                "{threads}-worker build diverged"
            );
            assert_eq!(many.run(NonZeroUsize::new(threads)), outcomes);
        }
    }

    #[test]
    fn soa_outcomes_are_thread_count_invariant() {
        let f = fleet(23, 2);
        let soa = SoaFleet::new(&f).unwrap();
        let one = soa.run(Some(NonZeroUsize::MIN));
        for threads in [2usize, 4, 7] {
            let many = soa.run(Some(NonZeroUsize::new(threads).unwrap()));
            assert_eq!(one, many, "{threads}-thread SoA run diverged");
        }
    }

    #[test]
    fn odd_shard_sizes_produce_bit_identical_outcomes() {
        // Shards are the unit of parallelism and cache residency only:
        // slicing 21 users into 1-user, odd, or oversized shards must not
        // move a single bit of any outcome.
        let soa = SoaFleet::new(&fleet(21, 2)).unwrap();
        let baseline = soa.run(None);
        for shard in [1usize, 3, 7, 13, 1000] {
            for threads in [1usize, 2] {
                let sharded = soa.run_in_shards(shard, NonZeroUsize::new(threads));
                assert_eq!(sharded, baseline, "shard size {shard}, {threads} threads");
            }
        }
    }

    #[test]
    fn horizon_policy_reports_scalar_fallback() {
        let f = Fleet::builder(base_points())
            .users(4)
            .days(1)
            .policy(Policy::Horizon { lookahead: 6 })
            .build()
            .unwrap();
        let soa = SoaFleet::new(&f).unwrap();
        assert!(!soa.supports_policy());
        assert_eq!(soa.cohorts(), 4);
        // No per-user state for a fleet the kernel does not run.
        assert_eq!(soa.bytes_per_user(), 0);
        assert!(soa.perm.is_empty() && soa.verts.is_empty() && soa.traces.is_empty());
        let report = f.run().unwrap();
        assert_eq!((report.cohorts(), report.soa_bytes_per_user()), (4, 0));
    }
}
