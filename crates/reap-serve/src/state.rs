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

use crate::protocol::{ErrorCode, FleetStats, ProtocolError, MAX_OBSERVE_VALUE};

/// Sentinel for "no observation absorbed yet" in [`LiveState::last_hour`].
pub(crate) const NO_HOUR: u32 = u32::MAX;

/// One user's live policy state: exactly the fields a snapshot record
/// stores, which [`crate::snapshot`] writes and reads in layout order.
#[derive(Debug, Clone)]
pub(crate) struct LiveState {
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
}

impl LiveState {
    /// A user that has observed nothing yet.
    fn new() -> LiveState {
        LiveState {
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
        }
    }
}

/// One served allocation decision plus the budget it was decided at.
#[derive(Debug, Clone, Copy)]
pub struct DecideOutcome {
    /// The budget the user's frontier was evaluated at, joules.
    pub budget_j: f64,
    /// The plan: aggregates plus the (at most two) point shares.
    pub decision: Schedule,
}

/// A stripe of the population: users `u` with `u % shards == index`, in
/// user order, each with the frontier table built from their draws.
#[derive(Debug)]
struct Shard {
    users: Vec<(FrontierTable, LiveState)>,
}

/// The resident population, sharded for concurrent serving.
#[derive(Debug)]
pub struct FleetState {
    shards: Vec<OrderedLock<Shard>>,
    users: u32,
    /// The most a virtual battery pays per hour: the base problem's
    /// saturation budget (a user's draws move only accuracies).
    max_spend: Energy,
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
        let mut points = Vec::new();
        let mut built = (0..users).map(|u| {
            let (_, alpha) = fleet.user_draws(u, &mut points);
            fp.write_u64(alpha.to_bits());
            for p in &points {
                fp.write_u64(u64::from(p.id()));
                fp.write_u64(p.accuracy().to_bits());
                fp.write_u64(p.power().watts().to_bits());
            }
            fp.write_bytes(fleet.user_source(u).label().as_bytes());
            let table = FrontierTable::new(&points, alpha, period_s, off_w);
            (table, LiveState::new())
        });
        // Round by round in user order: user `u` lands in stripe
        // `u % shards`, at position `u / shards`.
        let per_shard = (users as usize).div_ceil(shards);
        let mut striped: Vec<Vec<_>> = (0..shards).map(|_| Vec::with_capacity(per_shard)).collect();
        'fill: loop {
            for stripe in &mut striped {
                let Some(user) = built.next() else {
                    break 'fill;
                };
                stripe.push(user);
            }
        }

        Ok(FleetState {
            shards: striped
                .into_iter()
                .enumerate()
                .map(|(i, users)| OrderedLock::new("shard", rank::SHARD, i as u32, Shard { users }))
                .collect(),
            users,
            max_spend: base.saturation_budget(),
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
        self.users
    }

    /// The fleet-configuration fingerprint embedded in snapshots.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Runs `f` on user `user`'s frontier table and live state (under
    /// its shard lock).
    fn with_user<T>(
        &self,
        user: u32,
        f: impl FnOnce(&FrontierTable, &mut LiveState) -> T,
    ) -> Result<T, ProtocolError> {
        let (u, shards) = (user as usize, self.shards.len());
        if let Some(shard) = self.shards.get(u % shards) {
            // reap-lint: acquires(shard)
            let mut shard = shard.lock();
            if let Some((table, live)) = shard.users.get_mut(u / shards) {
                return Ok(f(table, live));
            }
        }
        Err(ProtocolError::new(
            ErrorCode::UnknownUser,
            format!("user {user} >= fleet size {}", self.users),
        ))
    }

    /// Absorbs one completed hour of `user`'s life — one open-loop
    /// protocol step, arithmetic-identical to the simulation engine's:
    /// the allocator proposes from the *previous* hour's harvest, the
    /// grant is clamped to what the virtual supply (battery plus this
    /// hour's harvest) can deliver but never below the reachable
    /// monitoring floor, then the virtual battery banks the harvest and
    /// spends the budget, at most the saturation budget. Returns the
    /// granted budget in joules.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownUser`] for an out-of-range user;
    /// [`ErrorCode::BadRequest`] for a non-finite or negative harvest, a
    /// non-finite activity, or either above the protocol's observe bound
    /// (1e200 in magnitude).
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
        let bound = MAX_OBSERVE_VALUE;
        if !(0.0..=bound).contains(&harvest_j) {
            let message = if harvest_j.is_finite() && harvest_j > bound {
                format!("harvest_j {harvest_j} exceeds the observe bound {bound:e}")
            } else {
                format!("harvest_j {harvest_j} must be finite and >= 0")
            };
            return Err(ProtocolError::new(ErrorCode::BadRequest, message));
        }
        if let Some(a) = activity.filter(|a| !(-bound..=bound).contains(a)) {
            let message = if a.is_finite() {
                format!("activity {a} exceeds the observe bound {bound:e} in magnitude")
            } else {
                format!("activity {a} must be finite")
            };
            return Err(ProtocolError::new(ErrorCode::BadRequest, message));
        }
        if seq == Some(0) {
            return Err(ProtocolError::new(
                ErrorCode::BadRequest,
                "seq 0 is reserved (sequence numbers start at 1)",
            ));
        }
        let hour = hour % 24;
        self.with_user(user, |table, live| {
            if let Some(s) = seq {
                if s == live.last_seq {
                    // Duplicate delivery of the newest observe: replay
                    // the cached grant, apply nothing.
                    return Ok(live.last_budget);
                }
                if s < live.last_seq {
                    return Err(ProtocolError::new(
                        ErrorCode::BadRequest,
                        format!("stale seq {s} (newest applied is {})", live.last_seq),
                    ));
                }
            }
            let floor = Energy::from_joules(table.min_budget_j());
            let harvested = Energy::from_joules(harvest_j);
            let proposed = live.alloc.allocate(hour, live.last_harvest, &live.vbat);
            let budget = live
                .vbat
                .open_loop(proposed, floor, self.max_spend, harvested);
            live.last_harvest = harvested;
            live.last_hour = hour;
            live.observations += 1;
            live.harvested_j += harvest_j;
            live.budget_j += budget.joules();
            live.activity += activity.unwrap_or(0.0);
            if let Some(s) = seq {
                live.last_seq = s;
                live.last_budget = budget.joules();
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
        self.with_user(user, |table, live| {
            let next_hour = if live.last_hour == NO_HOUR {
                0
            } else {
                (live.last_hour + 1) % 24
            };
            let proposed = live
                .alloc
                .clone()
                .allocate(next_hour, live.last_harvest, &live.vbat);
            let budget_j = step::grant(
                proposed.joules(),
                table.min_budget_j(),
                live.vbat.deliverable().joules(),
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
        self.for_each_user_in_order(|live| {
            stats.observations += live.observations;
            stats.harvested_j += live.harvested_j;
            stats.budget_j += live.budget_j;
            stats.battery_j += live.vbat.level().joules();
            stats.activity += live.activity;
            crate::snapshot::write_record(live, |field| digest.write_bytes(field));
        });
        stats.state_digest = digest.finish();
        stats
    }

    /// Locks every shard (in ascending index order, the shard class's
    /// `ordered` discipline) and visits users in index order: round by
    /// round, one user from each stripe, until a stripe runs out. The
    /// shard guards are all held for the duration, so the walk is an
    /// atomic fleet-wide read or write with respect to concurrent
    /// observes.
    pub(crate) fn for_each_user_in_order_mut(&self, mut f: impl FnMut(&mut LiveState)) {
        // reap-lint: acquires(shard, ordered)
        // reap-lint: holds(ring)
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        let mut stripes: Vec<_> = guards.iter_mut().map(|g| g.users.iter_mut()).collect();
        'walk: loop {
            for stripe in &mut stripes {
                let Some((_, live)) = stripe.next() else {
                    break 'walk;
                };
                f(live);
            }
        }
    }

    /// [`FleetState::for_each_user_in_order_mut`], read-only.
    pub(crate) fn for_each_user_in_order(&self, mut f: impl FnMut(&LiveState)) {
        self.for_each_user_in_order_mut(|live| f(live));
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
            reap_core::OperatingPoint::new(1, 0.94, P::from_milliwatts(2.76)),
            reap_core::OperatingPoint::new(5, 0.76, P::from_milliwatts(1.20)),
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
        // Each user gets a table of their own, in the daemon and in the
        // SoA core alike, and a fleet run counts the same. The builder no
        // longer pins alpha or the accuracy spread, so the fleet keeps
        // its per-user draws; neither core compares draws, so the count
        // cannot depend on them.
        let fleet = Fleet::builder(reap_device::paper_table2_operating_points())
            .users(12)
            .days(1)
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
        let point = |id, power| reap_core::OperatingPoint::new(id, 0.9, power);
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
            // A user's draw clamps this accuracy into range, so only the
            // base check can catch it.
            (
                vec![reap_core::OperatingPoint::new(
                    1,
                    1.5,
                    P::from_milliwatts(2.76),
                )],
                "accuracy 1.5 outside [0, 1]",
            ),
        ];
        for (points, message) in cases {
            let fleet = Fleet::builder(points.clone())
                .users(3)
                .days(1)
                .build()
                .unwrap();
            let want =
                reap_sim::SimError::Core(reap_core::ReapError::InvalidParameter(message.into()));
            assert_eq!(reap_sim::SoaFleet::new(&fleet).unwrap_err(), want);
            assert_eq!(fleet.run().unwrap_err(), want);
            assert_eq!(FleetState::new(&fleet, 4).unwrap_err(), want);
            // A fallback fleet runs user by user on the scalar engine.
            let mpc = Fleet::builder(points)
                .users(3)
                .days(1)
                .policy(reap_sim::Policy::Horizon { lookahead: 4 })
                .build()
                .unwrap();
            assert_eq!(mpc.run().unwrap_err(), want);
            assert_eq!(mpc.user_scenario(0).unwrap_err(), want);
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
    fn observes_cannot_overflow_a_running_sum() {
        // Each stream once drove a running sum to +inf: `restore` then
        // refused every later snapshot, and `stats` wrote a `null`.
        let state = FleetState::new(&tiny_fleet(2), 1).unwrap();
        let streams: [&[(f64, Option<f64>)]; 3] = [
            &[(f64::MAX, None); 2],
            &[(1e307, None); 48],
            &[(0.0, Some(f64::MAX)); 2],
        ];
        for stream in streams {
            for (hour, &(harvest_j, activity)) in stream.iter().enumerate() {
                let refused = state.observe(0, hour as u32, harvest_j, activity);
                assert_eq!(refused.unwrap_err().code, ErrorCode::BadRequest);
            }
        }
        assert_eq!(state.fleet_stats().observations, 0);
        // At the bound the sums stay finite and round-trip; past it the
        // observe is refused.
        let (bound, above) = (MAX_OBSERVE_VALUE, MAX_OBSERVE_VALUE.next_up());
        assert!(state.observe(0, 0, above, None).is_err());
        assert!(state.observe(0, 0, 1.0, Some(-above)).is_err());
        for hour in 0..48 {
            state.observe(hour % 2, hour, bound, Some(-bound)).unwrap();
        }
        let stats = state.fleet_stats();
        assert_eq!(stats.observations, 48);
        let fresh = FleetState::new(&tiny_fleet(2), 1).unwrap();
        crate::snapshot::restore(&fresh, &crate::snapshot::snapshot(&state)).unwrap();
        assert_eq!(fresh.fleet_stats(), stats);
        let frame = crate::protocol::Response::Stats {
            fleet: stats,
            server: crate::ServerMetrics::new().server_stats(),
        };
        assert!(crate::protocol::Response::decode(&frame.encode()).is_ok());
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
