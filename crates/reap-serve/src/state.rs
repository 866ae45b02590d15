//! Resident fleet state: the population the daemon serves from.
//!
//! The simulator rebuilds users from seeds every run; the daemon instead
//! holds each user's *live* policy state in memory — the EWMA diurnal
//! allocator, the virtual battery of the open-loop protocol, and running
//! accumulators — and advances it one observation at a time. Users are
//! derived from a [`Fleet`] (same seeds, same [`Fleet::user_draws`]
//! definition), so a daemon observing the exact hours a simulation ran
//! grants the exact budgets the simulation granted.
//!
//! Every user resolves decisions through their own [`FrontierTable`],
//! built once from their draws with the hull the SoA simulation core
//! uses. A `Decide` request is therefore a table walk, not an LP solve.
//! Every budget goes through the shared hour-step functions
//! ([`reap_harvest::step`]), exactly as in the simulation engines.
//!
//! Concurrency: users are striped over `S` shards (`user % S`), each
//! behind its own rank-ordered mutex ([`OrderedLock`], class
//! [`rank::SHARD`], sub-rank = shard index). Requests for different
//! shards proceed in parallel; fleet-wide operations (`Stats`,
//! checkpoint, restore) lock all shards in ascending index order — the
//! `ordered` same-rank discipline — and walk users in index order, so
//! their results are deterministic whatever the request interleaving
//! that got there.

use crate::locks::{rank, OrderedLock};

use reap_core::{FrontierTable, Schedule};
use reap_harvest::{step, Battery, BudgetAllocator, EwmaAllocator};
use reap_sim::Fleet;
use reap_units::Energy;

use crate::protocol::{ErrorCode, FleetStats, ProtocolError};

/// Sentinel for "no observation absorbed yet" in [`UserState::last_hour`].
pub(crate) const NO_HOUR: u32 = u32::MAX;

/// One user's live policy state.
#[derive(Debug, Clone)]
pub(crate) struct UserState {
    /// The Kansal-style diurnal budget allocator, warm.
    pub alloc: EwmaAllocator,
    /// The open-loop protocol's virtual battery (assumes every granted
    /// budget is fully spent).
    pub vbat: Battery,
    /// Harvest reported by the most recent observation (feeds the next
    /// allocation, exactly like the engine's `harvested_last_hour`).
    pub last_harvest: Energy,
    /// Hour-of-day of the most recent observation; [`NO_HOUR`] before
    /// the first.
    pub last_hour: u32,
    /// Observations absorbed.
    pub observations: u64,
    /// Running sum of harvested energy, joules.
    pub harvested_j: f64,
    /// Running sum of granted budgets, joules.
    pub budget_j: f64,
    /// Running sum of reported activity intensities.
    pub activity: f64,
    /// Newest observe sequence number applied for this user; `0` = none
    /// (client sequence numbers start at 1).
    pub last_seq: u64,
    /// Budget granted at `last_seq`, replayed verbatim when a retrying
    /// client resends the same sequence number.
    pub last_budget: f64,
    /// Index of the user's frontier table: the user's own index.
    pub cohort: u32,
}

/// One served allocation decision plus the budget it was decided at.
#[derive(Debug, Clone, Copy)]
pub struct DecideOutcome {
    /// The budget the user's frontier was evaluated at, joules.
    pub budget_j: f64,
    /// The plan: aggregates plus the (at most two) point shares.
    pub decision: Schedule,
}

/// A stripe of the population: users `u` with `u % shards == index`.
#[derive(Debug)]
struct Shard {
    users: Vec<UserState>,
}

/// The resident population, sharded for concurrent serving.
#[derive(Debug)]
pub struct FleetState {
    shards: Vec<OrderedLock<Shard>>,
    /// One frontier table per user, indexed by `UserState::cohort`.
    tables: Vec<FrontierTable>,
    users: u32,
    /// FNV-1a over the fleet configuration (user count, then per user
    /// the alpha bits, each point's id, accuracy and power bits, and the
    /// source label); snapshots embed it so a checkpoint can only restore
    /// into a state built from the same fleet.
    fingerprint: u64,
}

impl FleetState {
    /// Builds resident state for every user of `fleet`, one frontier
    /// table per user, striping users over `shards` mutexes. Runs on the
    /// calling thread.
    ///
    /// # Errors
    ///
    /// [`Fleet::base_problem`]'s [`reap_sim::SimError`] when the fleet's
    /// base points are invalid. A `shards` of zero is clamped up to one.
    pub fn new(fleet: &Fleet, shards: usize) -> Result<FleetState, reap_sim::SimError> {
        let users = fleet.users();
        let shards = shards.min(users as usize).max(1);
        // Validated once: a user's draws move only accuracies, so every
        // user's points are valid when the base points are.
        let base = fleet.base_problem()?;
        let (period_s, off_w) = (base.period().seconds(), base.off_power().watts());

        let mut fp = Fnv::new();
        fp.write_u64(u64::from(users));

        let mut tables: Vec<FrontierTable> = Vec::with_capacity(users as usize);
        let mut striped: Vec<Vec<UserState>> = vec![Vec::new(); shards];
        let mut points = Vec::new();
        for u in 0..users {
            let (_, alpha) = fleet.user_draws(u, &mut points);
            fp.write_u64(alpha.to_bits());
            for &(id, accuracy, power_w) in &points {
                fp.write_u64(u64::from(id));
                fp.write_u64(accuracy.to_bits());
                fp.write_u64(power_w.to_bits());
            }
            fp.write_bytes(fleet.user_source(u).label().as_bytes());
            tables.push(FrontierTable::new(&points, alpha, period_s, off_w));

            // reap-lint: allow(panic:index) -- `u % shards` is < shards == striped.len()
            striped[u as usize % shards].push(UserState {
                alloc: EwmaAllocator::new(),
                vbat: Battery::small_wearable(),
                last_harvest: Energy::ZERO,
                last_hour: NO_HOUR,
                observations: 0,
                harvested_j: 0.0,
                budget_j: 0.0,
                activity: 0.0,
                last_seq: 0,
                last_budget: 0.0,
                cohort: u,
            });
        }

        Ok(FleetState {
            shards: striped
                .into_iter()
                .enumerate()
                .map(|(i, users)| OrderedLock::new("shard", rank::SHARD, i as u32, Shard { users }))
                .collect(),
            tables,
            users,
            fingerprint: fp.finish(),
        })
    }

    /// Resident users.
    #[must_use]
    pub fn users(&self) -> u32 {
        self.users
    }

    /// The user count: every user has a frontier table of their own.
    /// Kept only because the `stats` response reports it and perfbench
    /// pins it.
    #[must_use]
    pub fn cohorts(&self) -> u32 {
        self.tables.len() as u32
    }

    /// The fleet-configuration fingerprint embedded in snapshots.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Runs `f` on user `user`'s state (under its shard lock) together
    /// with the frontier tables.
    fn with_user<T>(
        &self,
        user: u32,
        f: impl FnOnce(&mut UserState, &[FrontierTable]) -> T,
    ) -> Result<T, ProtocolError> {
        if user >= self.users {
            return Err(ProtocolError::new(
                ErrorCode::UnknownUser,
                format!("user {user} >= fleet size {}", self.users),
            ));
        }
        let shards = self.shards.len();
        // reap-lint: acquires(shard)
        // reap-lint: allow(panic:index) -- `user % shards` is < shards == self.shards.len()
        let mut shard = self.shards[user as usize % shards].lock();
        // reap-lint: allow(panic:index) -- striping invariant: user < self.users puts `user / shards` in this shard
        let state = &mut shard.users[user as usize / shards];
        Ok(f(state, &self.tables))
    }

    /// Absorbs one completed hour of `user`'s life — one open-loop
    /// protocol step, arithmetic-identical to the simulation engine's:
    /// the allocator proposes from the *previous* hour's harvest, the
    /// grant is clamped to what the virtual supply (battery plus this
    /// hour's harvest) can deliver but never below the reachable
    /// monitoring floor, then the virtual battery banks the harvest and
    /// spends the whole budget. Returns the granted budget in joules.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownUser`] for an out-of-range user;
    /// [`ErrorCode::BadRequest`] for a non-finite or negative harvest or
    /// a non-finite activity.
    pub fn observe(
        &self,
        user: u32,
        hour: u32,
        harvest_j: f64,
        activity: Option<f64>,
    ) -> Result<f64, ProtocolError> {
        self.observe_seq(user, hour, harvest_j, activity, None)
    }

    /// [`FleetState::observe`] with an optional client sequence number
    /// making the request idempotent: resending the user's newest applied
    /// sequence number replays the cached budget without touching state
    /// (the retrying client's at-most-once guarantee), while an older
    /// number is refused as stale. Sequence numbers start at 1 and must
    /// be strictly increasing per user.
    ///
    /// # Errors
    ///
    /// Everything [`FleetState::observe`] rejects, plus
    /// [`ErrorCode::BadRequest`] for `seq == 0` or a stale (already
    /// superseded) sequence number.
    pub fn observe_seq(
        &self,
        user: u32,
        hour: u32,
        harvest_j: f64,
        activity: Option<f64>,
        seq: Option<u64>,
    ) -> Result<f64, ProtocolError> {
        if !harvest_j.is_finite() || harvest_j < 0.0 {
            return Err(ProtocolError::new(
                ErrorCode::BadRequest,
                format!("harvest_j {harvest_j} must be finite and >= 0"),
            ));
        }
        if let Some(a) = activity {
            if !a.is_finite() {
                return Err(ProtocolError::new(
                    ErrorCode::BadRequest,
                    format!("activity {a} must be finite"),
                ));
            }
        }
        if seq == Some(0) {
            return Err(ProtocolError::new(
                ErrorCode::BadRequest,
                "seq 0 is reserved (sequence numbers start at 1)",
            ));
        }
        let hour = hour % 24;
        self.with_user(user, |state, tables| {
            if let Some(s) = seq {
                if s == state.last_seq {
                    // Duplicate delivery of the newest observe: replay
                    // the cached grant, apply nothing.
                    return Ok(state.last_budget);
                }
                if s < state.last_seq {
                    return Err(ProtocolError::new(
                        ErrorCode::BadRequest,
                        format!("stale seq {s} (newest applied is {})", state.last_seq),
                    ));
                }
            }
            // reap-lint: allow(panic:index) -- cohort indices are assigned from tables.len() at build
            let floor = Energy::from_joules(tables[state.cohort as usize].min_budget_j());
            let harvested = Energy::from_joules(harvest_j);
            let proposed = state.alloc.allocate(hour, state.last_harvest, &state.vbat);
            let budget = state.vbat.open_loop(proposed, floor, harvested);
            state.last_harvest = harvested;
            state.last_hour = hour;
            state.observations += 1;
            state.harvested_j += harvest_j;
            state.budget_j += budget.joules();
            state.activity += activity.unwrap_or(0.0);
            if let Some(s) = seq {
                state.last_seq = s;
                state.last_budget = budget.joules();
            }
            Ok(budget.joules())
        })?
    }

    /// Serves an allocation decision for `user`'s upcoming hour from the
    /// user's cached frontier. Read-only and idempotent: the proposal
    /// is computed on a throwaway clone of the allocator (exactly what
    /// the next [`FleetState::observe`] will propose), clamped to what
    /// the battery alone can deliver — the upcoming hour's harvest is
    /// not yet known at decide time — and resolved with one
    /// [`FrontierTable::decide`] walk.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownUser`] for an out-of-range user.
    pub fn decide(&self, user: u32) -> Result<DecideOutcome, ProtocolError> {
        self.with_user(user, |state, tables| {
            // reap-lint: allow(panic:index) -- cohort indices are assigned from tables.len() at build
            let table = &tables[state.cohort as usize];
            let next_hour = if state.last_hour == NO_HOUR {
                0
            } else {
                (state.last_hour + 1) % 24
            };
            let proposed = state
                .alloc
                .clone()
                .allocate(next_hour, state.last_harvest, &state.vbat);
            let budget_j = step::grant(
                proposed.joules(),
                table.min_budget_j(),
                state.vbat.deliverable().joules(),
            );
            DecideOutcome {
                budget_j,
                decision: table.decide(budget_j),
            }
        })
    }

    /// Computes the deterministic fleet statistics: running sums
    /// accumulated in user-index order (so the result is a pure function
    /// of the observation multiset per user, independent of request
    /// interleaving) plus the FNV-1a digest of every user's serialized
    /// resident state — the value the checkpoint bit-identity tests
    /// compare across restore.
    #[must_use]
    pub fn fleet_stats(&self) -> FleetStats {
        let mut stats = FleetStats {
            users: self.users,
            cohorts: self.cohorts(),
            observations: 0,
            harvested_j: 0.0,
            budget_j: 0.0,
            battery_j: 0.0,
            activity: 0.0,
            state_digest: 0,
        };
        let mut digest = Fnv::new();
        self.for_each_user_in_order(|state| {
            stats.observations += state.observations;
            stats.harvested_j += state.harvested_j;
            stats.budget_j += state.budget_j;
            stats.battery_j += state.vbat.level().joules();
            stats.activity += state.activity;
            digest.write_bytes(&crate::snapshot::user_record(state));
        });
        stats.state_digest = digest.finish();
        stats
    }

    /// Locks every shard — in ascending index order, the shard class's
    /// `ordered` discipline — and visits users in index order. The shard
    /// guards are all held for the duration, so the walk is an atomic
    /// fleet-wide read with respect to concurrent observes.
    pub(crate) fn for_each_user_in_order(&self, mut f: impl FnMut(&UserState)) {
        // reap-lint: acquires(shard, ordered)
        let guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        let shards = guards.len();
        for u in 0..self.users as usize {
            // reap-lint: allow(panic:index) -- `u % shards` < guards.len(); striping puts `u / shards` in-bounds
            f(&guards[u % shards].users[u / shards]);
        }
    }

    /// Locks every shard (ascending index order) and visits users mutably
    /// in index order — the restore path's atomic fleet-wide write.
    pub(crate) fn for_each_user_in_order_mut(&self, mut f: impl FnMut(&mut UserState)) {
        // reap-lint: acquires(shard, ordered)
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        let shards = guards.len();
        for u in 0..self.users as usize {
            // reap-lint: allow(panic:index) -- `u % shards` < guards.len(); striping puts `u / shards` in-bounds
            f(&mut guards[u % shards].users[u / shards]);
        }
    }
}

/// Incremental FNV-1a 64 — the same hash the bench fingerprints use;
/// tiny, dependency-free, and stable across platforms.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reap_units::Power as P;

    pub(crate) fn tiny_fleet(users: u32) -> Fleet {
        Fleet::builder(vec![
            reap_core::OperatingPoint::new(1, "DP1", 0.94, P::from_milliwatts(2.76)).unwrap(),
            reap_core::OperatingPoint::new(5, "DP5", 0.76, P::from_milliwatts(1.20)).unwrap(),
        ])
        .users(users)
        .days(1)
        .seed(7)
        .build()
        .unwrap()
    }

    #[test]
    fn builds_with_soa_matching_cohorts() {
        let fleet = tiny_fleet(10);
        let state = FleetState::new(&fleet, 4).unwrap();
        assert_eq!(state.users(), 10);
        // Distinct per-user alphas → every user its own cohort, exactly
        // what a fleet run reports.
        let report = fleet.run().unwrap();
        assert_eq!(state.cohorts(), report.cohorts());
    }

    #[test]
    fn uniform_fleet_counts_one_cohort_per_user_served_and_simulated() {
        // No accuracy spread and a pinned alpha: every user draws the
        // same frontier, and each still gets a table of their own, in
        // the daemon and in the SoA core alike.
        let fleet = Fleet::builder(reap_device::paper_table2_operating_points())
            .users(12)
            .days(1)
            .accuracy_spread(0.0)
            .alpha_range(1.0, 1.0)
            .build()
            .unwrap();
        let state = FleetState::new(&fleet, 3).unwrap();
        assert_eq!(state.cohorts(), 12);
        assert_eq!(reap_sim::SoaFleet::new(&fleet).unwrap().cohorts(), 12);
        assert_eq!(fleet.run().unwrap().cohorts(), 12);
    }

    #[test]
    fn fingerprints_restore_snapshots_of_earlier_builds() {
        // Values recorded when the state deduplicated cohorts: the same
        // words in the same order, so existing snapshots still restore.
        let state = FleetState::new(&tiny_fleet(10), 4).unwrap();
        assert_eq!(state.fingerprint(), 0xbc88_2dc6_e13f_0758);
        let paper = Fleet::builder(reap_device::paper_table2_operating_points())
            .users(16)
            .days(1)
            .seed(3)
            .build()
            .unwrap();
        let state = FleetState::new(&paper, 4).unwrap();
        assert_eq!(state.fingerprint(), 0xb4f2_14d6_c44d_ffe0);
    }

    #[test]
    fn invalid_base_points_fail_every_build_with_the_problem_error() {
        let point = |id, power| reap_core::OperatingPoint::new(id, "DP", 0.9, power).unwrap();
        let cases = [
            (
                vec![
                    point(1, P::from_milliwatts(2.76)),
                    point(1, P::from_milliwatts(1.2)),
                ],
                "duplicate operating point id 1",
            ),
            (
                vec![
                    point(1, P::from_milliwatts(2.76)),
                    point(2, P::from_microwatts(50.0)),
                ],
                "operating point 2 draws 50.0000 uW which does not exceed the off power 50.0000 uW",
            ),
            (
                vec![point(1, P::from_microwatts(20.0))],
                "operating point 1 draws 20.0000 uW which does not exceed the off power 50.0000 uW",
            ),
        ];
        for (points, message) in cases {
            let fleet = Fleet::builder(points).users(3).days(1).build().unwrap();
            let want =
                reap_sim::SimError::Core(reap_core::ReapError::InvalidParameter(message.into()));
            assert_eq!(reap_sim::SoaFleet::new(&fleet).unwrap_err(), want);
            assert_eq!(fleet.run().unwrap_err(), want);
            assert_eq!(FleetState::new(&fleet, 4).unwrap_err(), want);
        }
    }

    #[test]
    fn observe_matches_the_engine_budget_stream() {
        // Streaming a user's exact simulated hours through the resident
        // state must grant the exact budgets the simulation granted —
        // cross-checked here via the user's own harvest trace.
        let fleet = tiny_fleet(4);
        let state = FleetState::new(&fleet, 2).unwrap();
        for user in 0..4u32 {
            let scenario = fleet.user_scenario(user).unwrap();
            let report = scenario.run(reap_sim::Policy::Reap).unwrap();
            for (i, hour) in report.hours().iter().enumerate() {
                let granted = state
                    .observe(user, i as u32, hour.harvested.joules(), None)
                    .unwrap();
                assert_eq!(
                    granted.to_bits(),
                    hour.budget.joules().to_bits(),
                    "user {user} hour {i}: resident {granted} != engine {}",
                    hour.budget.joules()
                );
            }
        }
    }

    #[test]
    fn decide_is_idempotent_and_on_frontier() {
        let fleet = tiny_fleet(3);
        let state = FleetState::new(&fleet, 1).unwrap();
        for h in 0..30u32 {
            let _ = state.observe(1, h, if h % 24 < 12 { 2.0 } else { 0.0 }, None);
        }
        let a = state.decide(1).unwrap();
        let b = state.decide(1).unwrap();
        assert_eq!(a.budget_j.to_bits(), b.budget_j.to_bits());
        assert_eq!(a.decision, b.decision);
        // The decision's aggregates come straight from the frontier.
        assert!(a.decision.eval.accuracy >= 0.0 && a.decision.eval.accuracy <= 1.0);
        let total: f64 =
            a.decision.shares().iter().map(|s| s.seconds).sum::<f64>() + a.decision.off_s;
        assert!((total - 3600.0).abs() < 1e-6, "shares + off = {total}");
        // Deciding did not mutate state: stats digest unchanged.
        let before = state.fleet_stats();
        let _ = state.decide(1).unwrap();
        assert_eq!(state.fleet_stats(), before);
    }

    #[test]
    fn validation_rejects_bad_requests() {
        let fleet = tiny_fleet(2);
        let state = FleetState::new(&fleet, 1).unwrap();
        assert_eq!(
            state.observe(2, 0, 1.0, None).unwrap_err().code,
            ErrorCode::UnknownUser
        );
        assert_eq!(state.decide(9).unwrap_err().code, ErrorCode::UnknownUser);
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert_eq!(
                state.observe(0, 0, bad, None).unwrap_err().code,
                ErrorCode::BadRequest
            );
        }
        assert_eq!(
            state.observe(0, 0, 1.0, Some(f64::NAN)).unwrap_err().code,
            ErrorCode::BadRequest
        );
        // Nothing was absorbed by the rejected requests.
        assert_eq!(state.fleet_stats().observations, 0);
    }

    #[test]
    fn seq_observes_are_idempotent() {
        let fleet = tiny_fleet(2);
        let state = FleetState::new(&fleet, 1).unwrap();
        let a = state.observe_seq(0, 0, 1.5, Some(0.2), Some(1)).unwrap();
        let stats_after = state.fleet_stats();
        // Duplicate delivery: same grant, zero state change.
        for _ in 0..3 {
            let dup = state.observe_seq(0, 0, 1.5, Some(0.2), Some(1)).unwrap();
            assert_eq!(dup.to_bits(), a.to_bits());
            assert_eq!(state.fleet_stats(), stats_after);
        }
        // The next sequence number applies normally.
        let b = state.observe_seq(0, 1, 0.8, None, Some(2)).unwrap();
        assert_ne!(state.fleet_stats(), stats_after);
        let dup = state.observe_seq(0, 1, 0.8, None, Some(2)).unwrap();
        assert_eq!(dup.to_bits(), b.to_bits());
        // Stale and reserved sequence numbers are refused.
        assert_eq!(
            state
                .observe_seq(0, 2, 0.1, None, Some(1))
                .unwrap_err()
                .code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            state
                .observe_seq(0, 2, 0.1, None, Some(0))
                .unwrap_err()
                .code,
            ErrorCode::BadRequest
        );
        // Per-user isolation: user 1 has its own sequence space.
        state.observe_seq(1, 0, 0.4, None, Some(7)).unwrap();
        // Seq-less observes interleave freely (and never cache).
        let plain = state.observe(0, 2, 0.5, None).unwrap();
        assert!(plain.is_finite());
    }

    #[test]
    fn stats_are_shard_count_independent() {
        let fleet = tiny_fleet(9);
        let mk = |shards| {
            let state = FleetState::new(&fleet, shards).unwrap();
            for u in 0..9u32 {
                for h in 0..12u32 {
                    let _ = state.observe(u, h, f64::from(u + h), Some(0.25));
                }
            }
            state.fleet_stats()
        };
        let one = mk(1);
        for shards in [2usize, 3, 8, 64] {
            assert_eq!(mk(shards), one, "{shards} shards diverged");
        }
    }
}
