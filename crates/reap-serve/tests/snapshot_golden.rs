//! Golden snapshot bytes: a scripted observation stream that sets every
//! field of the per-user record must snapshot to the exact bytes recorded
//! here, and restoring them must reproduce those bytes and the stats
//! digest. A refactor of the snapshot codec or of the resident state that
//! moves a byte fails this test.
//!
//! The fleet has 7 users in 3 shards, so the stripes are uneven (3, 2
//! and 2 users). The script covers a user observed for 30 hours (every
//! diurnal slot seeded), sequence-numbered observes with a duplicate,
//! observes with and without an activity, a user observed once (the
//! allocator's discarded first call) and a user never observed. Every
//! harvest is at most 3 J.

use reap_serve::{snapshot, FleetState};
use reap_sim::Fleet;

const USERS: u32 = 7;
const SHARDS: usize = 3;

/// Length and FNV-1a 64 of the snapshot bytes.
const SNAPSHOT_LEN: usize = 1916;
const SNAPSHOT_FNV: u64 = 0x2415_bcee_8077_0656;
/// `fleet_stats().state_digest` after the script.
const STATE_DIGEST: u64 = 0x063d_07ff_412b_c8a9;

fn fleet() -> Fleet {
    Fleet::builder(reap_device::paper_table2_operating_points())
        .users(USERS)
        .days(1)
        .seed(32)
        .build()
        .expect("valid fleet")
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A day-shaped harvest of at most 3 J: dark from 18:00 to 06:00.
fn harvest_j(user: u32, hour: u32) -> f64 {
    let h = hour % 24;
    if (6..18).contains(&h) {
        0.25 * f64::from((h + user) % 12) + 0.125
    } else {
        0.0
    }
}

fn scripted_state() -> FleetState {
    let state = FleetState::new(&fleet(), SHARDS).expect("state builds");
    // User 0: 30 hours, every slot seeded, activity on even hours only.
    for h in 0..30 {
        let activity = (h % 2 == 0).then_some(0.25 + f64::from(h) / 64.0);
        state.observe(0, h, harvest_j(0, h), activity).unwrap();
    }
    // User 1: sequence-numbered observes, the newest delivered twice.
    for (seq, h) in (1..=5).zip(7..12) {
        state
            .observe_seq(1, h, harvest_j(1, h), Some(0.5), Some(seq))
            .unwrap();
    }
    let granted = state.observe_seq(1, 12, 2.75, None, Some(9)).unwrap();
    let replayed = state.observe_seq(1, 12, 2.75, None, Some(9)).unwrap();
    assert_eq!(granted.to_bits(), replayed.to_bits());
    // User 2: one observe, the allocator's discarded first call.
    state.observe(2, 13, 1.5, Some(-0.125)).unwrap();
    // User 3 is never observed.
    // Users 4 to 6: a few hours each, seq and activity mixed.
    for u in 4..USERS {
        for h in 20..(26 + u) {
            let seq = (u != 5).then_some(u64::from(h));
            let activity = (u == 6).then_some(1.0 / f64::from(h));
            state
                .observe_seq(u, h, harvest_j(u, h), activity, seq)
                .unwrap();
        }
    }
    state
}

#[test]
fn scripted_stream_snapshots_to_the_golden_bytes() {
    let state = scripted_state();
    let bytes = snapshot::snapshot(&state);
    let digest = state.fleet_stats().state_digest;
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes), digest),
        (SNAPSHOT_LEN, SNAPSHOT_FNV, STATE_DIGEST),
        "snapshot length, snapshot FNV-1a 64, stats digest"
    );
    for shards in [1, SHARDS, 4] {
        let fresh = FleetState::new(&fleet(), shards).expect("state builds");
        assert_eq!(snapshot::restore(&fresh, &bytes), Ok(USERS));
        assert_eq!(snapshot::snapshot(&fresh), bytes, "{shards} shards");
        assert_eq!(fresh.fleet_stats(), state.fleet_stats(), "{shards} shards");
    }
}
