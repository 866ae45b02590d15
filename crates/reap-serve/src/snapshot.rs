//! Versioned binary snapshots of the resident population.
//!
//! Layout (all integers and floats little-endian):
//!
//! ```text
//! magic        8 bytes   b"REAPSNAP"
//! version      u32       SNAPSHOT_VERSION
//! fingerprint  u64       FleetState::fingerprint() of the writer
//! ewma_alpha   f64       allocator smoothing factor, always EWMA_ALPHA
//! users        u32       population size
//! records      users × RECORD_BYTES   per-user records, user-index order
//! digest       u64       FNV-1a over the records region
//! ```
//!
//! Each per-user record is fixed-size (268 bytes):
//!
//! ```text
//! flags        u32       bit 0: allocator first_call_done
//! last_hour    u32       hour-of-day of the last observation; u32::MAX = none
//! seen_mask    u32       DiurnalEwma seeded-slot bitmask (24 bits)
//! observations u64
//! vbat_level   f64       virtual-battery level, joules (exact bits)
//! last_harvest f64       joules
//! harvested_j  f64       running sum
//! budget_j     f64       running sum
//! activity     f64       running sum
//! last_seq     u64       newest observe sequence number applied; 0 = none
//! last_budget  f64       budget granted at last_seq (replayed on dup)
//! estimates    24 × f64  DiurnalEwma per-slot estimates (exact bits)
//! ```
//!
//! Every `f64` is stored as its exact bit pattern, and restore reinjects
//! those bits unmodified — so a restored population's subsequent budgets,
//! stats, and digest are *bit-identical* to the uninterrupted original
//! (the property the checkpoint tests pin). The fingerprint ties a
//! snapshot to the fleet configuration that wrote it: restoring into a
//! state built from a different fleet (different seed, size, points, or
//! sources) is refused rather than silently misapplied.

use std::io::{self, Write};
use std::path::{Path, PathBuf};

use reap_harvest::step::EWMA_ALPHA;
use reap_harvest::{Battery, DiurnalEwma, EwmaAllocator};
use reap_units::Energy;

use crate::fault::{CrashPoint, IoLayer, NoFaults};
use crate::protocol::{ErrorCode, ProtocolError};
use crate::state::{FleetState, Fnv, UserState, NO_HOUR};

/// Snapshot format version; bumped on any layout change (v2 added the
/// observe-replay fields `last_seq`/`last_budget`).
pub const SNAPSHOT_VERSION: u32 = 2;

/// The 8-byte magic opening every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"REAPSNAP";

/// Fixed size of one per-user record.
pub(crate) const RECORD_BYTES: usize = 4 + 4 + 4 + 8 + 5 * 8 + 8 + 8 + 24 * 8;

const HEADER_BYTES: usize = 8 + 4 + 8 + 8 + 4;

/// Serializes one user's resident state into its fixed-size record —
/// also the unit the stats digest hashes, so "digest equal" and
/// "snapshot equal" are the same statement.
pub(crate) fn user_record(state: &UserState) -> [u8; RECORD_BYTES] {
    let mut rec = [0u8; RECORD_BYTES];
    let mut at = 0usize;
    let mut put = |bytes: &[u8]| {
        // reap-lint: allow(panic:index) -- field offsets sum to RECORD_BYTES (debug-asserted below)
        rec[at..at + bytes.len()].copy_from_slice(bytes);
        at += bytes.len();
    };
    let flags: u32 = u32::from(state.alloc.first_call_done());
    put(&flags.to_le_bytes());
    put(&state.last_hour.to_le_bytes());
    let (estimates, seen_mask) = state.alloc.diurnal().to_parts();
    put(&seen_mask.to_le_bytes());
    put(&state.observations.to_le_bytes());
    put(&state.vbat.level().joules().to_le_bytes());
    put(&state.last_harvest.joules().to_le_bytes());
    put(&state.harvested_j.to_le_bytes());
    put(&state.budget_j.to_le_bytes());
    put(&state.activity.to_le_bytes());
    put(&state.last_seq.to_le_bytes());
    put(&state.last_budget.to_le_bytes());
    for e in estimates {
        put(&e.to_le_bytes());
    }
    debug_assert_eq!(at, RECORD_BYTES);
    rec
}

/// Serializes the whole population into snapshot bytes. Takes all shard
/// locks for the duration, so the snapshot is an atomic cut of the
/// fleet.
#[must_use]
pub fn snapshot(state: &FleetState) -> Vec<u8> {
    let users = state.users() as usize;
    let mut out = Vec::with_capacity(HEADER_BYTES + users * RECORD_BYTES + 8);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&state.fingerprint().to_le_bytes());
    out.extend_from_slice(&EWMA_ALPHA.to_le_bytes());
    out.extend_from_slice(&state.users().to_le_bytes());
    state.for_each_user_in_order(|u| out.extend_from_slice(&user_record(u)));
    let mut digest = Fnv::new();
    // reap-lint: allow(panic:index) -- the header was just written: out.len() >= HEADER_BYTES
    digest.write_bytes(&out[HEADER_BYTES..]);
    out.extend_from_slice(&digest.finish().to_le_bytes());
    out
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], ProtocolError> {
        if self.at + N > self.bytes.len() {
            return Err(ProtocolError::new(
                ErrorCode::Snapshot,
                format!("snapshot truncated at byte {}", self.at),
            ));
        }
        let mut buf = [0u8; N];
        // reap-lint: allow(panic:index) -- bounds checked on entry to take()
        buf.copy_from_slice(&self.bytes[self.at..self.at + N]);
        self.at += N;
        Ok(buf)
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_le_bytes(self.take()?))
    }
}

/// Replaces the whole population's resident state from snapshot bytes.
/// Validates magic, version, fleet fingerprint, user count, and the
/// trailing digest before touching any state, then rewrites every user
/// atomically (all shard locks held). Returns the number of users
/// restored.
///
/// # Errors
///
/// [`ErrorCode::Snapshot`] when the bytes are truncated or corrupt, the
/// version is unknown, the fingerprint does not match this state's
/// fleet, or a record carries an out-of-range value.
pub fn restore(state: &FleetState, bytes: &[u8]) -> Result<u32, ProtocolError> {
    let mut r = Reader { bytes, at: 0 };
    let magic: [u8; 8] = r.take()?;
    if magic != SNAPSHOT_MAGIC {
        return Err(ProtocolError::new(
            ErrorCode::Snapshot,
            "not a REAP snapshot (bad magic)",
        ));
    }
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(ProtocolError::new(
            ErrorCode::Snapshot,
            format!("snapshot version {version}, this build reads {SNAPSHOT_VERSION}"),
        ));
    }
    let fingerprint = r.u64()?;
    if fingerprint != state.fingerprint() {
        return Err(ProtocolError::new(
            ErrorCode::Snapshot,
            format!(
                "snapshot fingerprint {fingerprint:016x} does not match this fleet \
                 ({:016x}); it was written by a different configuration",
                state.fingerprint()
            ),
        ));
    }
    let ewma_alpha = r.f64()?;
    if ewma_alpha.to_bits() != EWMA_ALPHA.to_bits() {
        return Err(ProtocolError::new(
            ErrorCode::Snapshot,
            format!("snapshot allocator alpha {ewma_alpha} differs from this build's {EWMA_ALPHA}"),
        ));
    }
    let users = r.u32()?;
    if users != state.users() {
        return Err(ProtocolError::new(
            ErrorCode::Snapshot,
            format!("snapshot holds {users} users, this fleet {}", state.users()),
        ));
    }
    let records_len = users as usize * RECORD_BYTES;
    if bytes.len() != HEADER_BYTES + records_len + 8 {
        return Err(ProtocolError::new(
            ErrorCode::Snapshot,
            format!(
                "snapshot is {} bytes, expected {}",
                bytes.len(),
                HEADER_BYTES + records_len + 8
            ),
        ));
    }
    let mut digest = Fnv::new();
    // reap-lint: allow(panic:index) -- bytes.len() == HEADER_BYTES + records_len + 8 was just checked
    digest.write_bytes(&bytes[HEADER_BYTES..HEADER_BYTES + records_len]);
    // reap-lint: allow(panic:index) -- same length check: the tail slice is exactly 8 bytes
    let stored = match bytes[HEADER_BYTES + records_len..].try_into() {
        Ok(tail) => u64::from_le_bytes(tail),
        Err(_) => {
            return Err(ProtocolError::new(
                ErrorCode::Snapshot,
                "snapshot digest truncated",
            ));
        }
    };
    if digest.finish() != stored {
        return Err(ProtocolError::new(
            ErrorCode::Snapshot,
            "snapshot digest mismatch (corrupt records)",
        ));
    }

    // Decode every record before mutating anything, so a bad record
    // cannot leave the population half-restored.
    let mut decoded = Vec::with_capacity(users as usize);
    for user in 0..users {
        decoded.push(decode_record(&mut r, user)?);
    }

    let mut next = decoded.into_iter();
    state.for_each_user_in_order_mut(|u| {
        // reap-lint: allow(panic:expect) -- users == state.users() was validated; the walk yields exactly that many records
        let d = next.next().expect("one decoded record per user");
        u.alloc = d.alloc;
        u.vbat
            .set_level(d.vbat_level)
            // reap-lint: allow(panic:expect) -- decode_record already rejected levels outside [0, capacity]
            .expect("level validated during decode");
        u.last_harvest = d.last_harvest;
        u.last_hour = d.last_hour;
        u.observations = d.observations;
        u.harvested_j = d.harvested_j;
        u.budget_j = d.budget_j;
        u.activity = d.activity;
        u.last_seq = d.last_seq;
        u.last_budget = d.last_budget;
    });
    Ok(users)
}

struct DecodedUser {
    alloc: EwmaAllocator,
    vbat_level: Energy,
    last_harvest: Energy,
    last_hour: u32,
    observations: u64,
    harvested_j: f64,
    budget_j: f64,
    activity: f64,
    last_seq: u64,
    last_budget: f64,
}

fn decode_record(r: &mut Reader<'_>, user: u32) -> Result<DecodedUser, ProtocolError> {
    let bad = |what: &str| ProtocolError::new(ErrorCode::Snapshot, format!("user {user}: {what}"));
    let flags = r.u32()?;
    if flags > 1 {
        return Err(bad("unknown flag bits"));
    }
    let last_hour = r.u32()?;
    if last_hour != NO_HOUR && last_hour >= 24 {
        return Err(bad("last_hour out of range"));
    }
    let seen_mask = r.u32()?;
    if seen_mask >= 1 << 24 {
        return Err(bad("seen_mask has bits beyond slot 23"));
    }
    let observations = r.u64()?;
    let vbat_level = r.f64()?;
    let last_harvest = r.f64()?;
    let harvested_j = r.f64()?;
    let budget_j = r.f64()?;
    let activity = r.f64()?;
    let last_seq = r.u64()?;
    let last_budget = r.f64()?;
    if !last_budget.is_finite() {
        return Err(bad("non-finite last_budget"));
    }
    // The resident battery's capacity, so this check and `set_level`
    // on restore accept the same levels.
    let capacity_j = Battery::small_wearable().capacity().joules();
    if !vbat_level.is_finite() || !(0.0..=capacity_j).contains(&vbat_level) {
        return Err(bad("battery level outside [0, capacity]"));
    }
    if !last_harvest.is_finite() || last_harvest < 0.0 {
        return Err(bad("negative or non-finite last_harvest"));
    }
    for (name, v) in [
        ("harvested_j", harvested_j),
        ("budget_j", budget_j),
        ("activity", activity),
    ] {
        if !v.is_finite() {
            return Err(bad(&format!("non-finite {name}")));
        }
    }
    let mut estimates = [0.0f64; 24];
    for slot in &mut estimates {
        let e = r.f64()?;
        if !e.is_finite() {
            return Err(bad("non-finite EWMA estimate"));
        }
        *slot = e;
    }
    Ok(DecodedUser {
        alloc: EwmaAllocator::from_parts(
            DiurnalEwma::from_parts(estimates, seen_mask),
            flags & 1 == 1,
        ),
        vbat_level: Energy::from_joules(vbat_level),
        last_harvest: Energy::from_joules(last_harvest),
        last_hour,
        observations,
        harvested_j,
        budget_j,
        activity,
        last_seq,
        last_budget,
    })
}

// ---------------------------------------------------------------------
// Crash-safe persistence: atomic writes and the retained snapshot ring
// ---------------------------------------------------------------------

/// Fsyncs a directory so a rename inside it is durable. No-op off unix
/// (directory handles are not fsyncable portably).
fn fsync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        std::fs::File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

/// The parent directory of `path`, defaulting to `.` for bare filenames.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// Writes `bytes` to `path` crash-safely: write to `<path>.tmp`, fsync,
/// atomically rename over `path`, then fsync the parent directory so the
/// rename itself is durable. A crash at any point leaves either the old
/// `path` contents (plus possibly a torn `.tmp`, which [`restore`] would
/// refuse anyway) or the complete new contents — never a torn `path`.
///
/// # Errors
///
/// Any I/O failure along the way; on error the final `path` is untouched.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_atomic_with(path, bytes, &NoFaults).map(|_| ())
}

/// [`write_atomic`] with an [`IoLayer`] crash hook consulted at every
/// [`CrashPoint`]. Returns `Ok(true)` when the write completed, and
/// `Ok(false)` when the layer "killed" the writer mid-flight — the
/// filesystem is then left exactly as a real crash at that point would
/// leave it (that's what the kill-at-every-crash-point test exercises).
///
/// # Errors
///
/// Any genuine I/O failure along the way.
pub fn write_atomic_with<L: IoLayer>(path: &Path, bytes: &[u8], layer: &L) -> io::Result<bool> {
    let Some(name) = path.file_name() else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("snapshot path {path:?} has no file name"),
        ));
    };
    let mut tmp_name = name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);

    let mut file = std::fs::File::create(&tmp)?;
    if layer.crash_at(CrashPoint::TempCreated) {
        return Ok(false);
    }
    let half = bytes.len() / 2;
    // reap-lint: allow(panic:index) -- half = len / 2 <= len
    file.write_all(&bytes[..half])?;
    if layer.crash_at(CrashPoint::TempHalfWritten) {
        return Ok(false);
    }
    // reap-lint: allow(panic:index) -- half = len / 2 <= len
    file.write_all(&bytes[half..])?;
    if layer.crash_at(CrashPoint::TempWritten) {
        return Ok(false);
    }
    file.sync_all()?;
    if layer.crash_at(CrashPoint::TempSynced) {
        return Ok(false);
    }
    drop(file);
    std::fs::rename(&tmp, path)?;
    if layer.crash_at(CrashPoint::Renamed) {
        return Ok(false);
    }
    fsync_dir(parent_dir(path))?;
    Ok(true)
}

/// A retained ring of the last `keep` snapshots in one directory.
///
/// Files are named `ckpt-<seq>.reapsnap` with a monotonically increasing
/// sequence number; every write goes through [`write_atomic`] and then
/// prunes beyond the retention count. [`SnapshotRing::recover`] scans
/// newest-first for the first snapshot whose digest (and fingerprint,
/// version, …) validates, so recovery after any crash lands on the last
/// durable checkpoint — torn temp files and corrupt rings degrade to the
/// next-older snapshot instead of failing.
#[derive(Debug, Clone)]
pub struct SnapshotRing {
    dir: PathBuf,
    keep: usize,
}

/// What [`SnapshotRing::recover`] restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// The snapshot file that validated and was restored.
    pub path: PathBuf,
    /// Its ring sequence number.
    pub seq: u64,
    /// Users restored from it.
    pub users: u32,
    /// Newer ring files that failed validation and were skipped.
    pub skipped: usize,
}

impl SnapshotRing {
    /// Opens (creating if needed) a ring directory retaining the last
    /// `keep` snapshots (`keep` is clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn create(dir: impl Into<PathBuf>, keep: usize) -> io::Result<SnapshotRing> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SnapshotRing {
            dir,
            keep: keep.max(1),
        })
    }

    /// The ring directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Parses a ring filename back to its sequence number.
    fn parse_seq(name: &str) -> Option<u64> {
        name.strip_prefix("ckpt-")?
            .strip_suffix(".reapsnap")?
            .parse()
            .ok()
    }

    fn file_for(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{seq:010}.reapsnap"))
    }

    /// Ring entries as `(seq, path)`, oldest first.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures.
    pub fn entries(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(seq) = entry.file_name().to_str().and_then(Self::parse_seq) {
                out.push((seq, entry.path()));
            }
        }
        out.sort_unstable_by_key(|(seq, _)| *seq);
        Ok(out)
    }

    /// Snapshots `state` into the next ring slot ([`write_atomic`] under
    /// the hood), then prunes snapshots beyond the retention count and
    /// any stale temp files. Returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (the ring is unchanged on error).
    pub fn write(&self, state: &FleetState) -> io::Result<PathBuf> {
        self.write_with(state, &NoFaults)?
            .ok_or_else(|| io::Error::other("NoFaults cannot crash the writer mid-checkpoint"))
    }

    /// [`SnapshotRing::write`] with a crash hook; `Ok(None)` means the
    /// layer killed the writer mid-checkpoint (no pruning happens then —
    /// a real crash wouldn't prune either).
    ///
    /// # Errors
    ///
    /// Propagates genuine I/O failures.
    pub fn write_with<L: IoLayer>(
        &self,
        state: &FleetState,
        layer: &L,
    ) -> io::Result<Option<PathBuf>> {
        let next = self.entries()?.last().map_or(0, |(seq, _)| seq + 1);
        let path = self.file_for(next);
        if !write_atomic_with(&path, &snapshot(state), layer)? {
            return Ok(None);
        }
        self.prune()?;
        Ok(Some(path))
    }

    /// Removes snapshots beyond the retention count, plus stale `.tmp`
    /// leftovers from crashed writers.
    fn prune(&self) -> io::Result<()> {
        let entries = self.entries()?;
        if entries.len() > self.keep {
            // reap-lint: allow(panic:index) -- entries.len() > keep, so the range end is in-bounds
            for (_, path) in &entries[..entries.len() - self.keep] {
                let _ = std::fs::remove_file(path);
            }
        }
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().ends_with(".tmp") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(())
    }

    /// Scans the ring newest-first and restores `state` from the first
    /// snapshot that fully validates (magic, version, fingerprint,
    /// digest — via [`restore`], which never mutates on failure).
    /// `Ok(None)` means the ring holds no snapshot this state accepts;
    /// unreadable or torn files are skipped, not fatal.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures only.
    pub fn recover(&self, state: &FleetState) -> io::Result<Option<Recovery>> {
        let mut skipped = 0usize;
        for (seq, path) in self.entries()?.into_iter().rev() {
            let Ok(bytes) = std::fs::read(&path) else {
                skipped += 1;
                continue;
            };
            match restore(state, &bytes) {
                Ok(users) => {
                    return Ok(Some(Recovery {
                        path,
                        seq,
                        users,
                        skipped,
                    }));
                }
                Err(_) => skipped += 1,
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reap_sim::Fleet;
    use reap_units::Power;

    fn fleet(users: u32, seed: u64) -> Fleet {
        Fleet::builder(vec![
            reap_core::OperatingPoint::new(1, "DP1", 0.94, Power::from_milliwatts(2.76)).unwrap(),
            reap_core::OperatingPoint::new(5, "DP5", 0.76, Power::from_milliwatts(1.20)).unwrap(),
        ])
        .users(users)
        .days(1)
        .seed(seed)
        .build()
        .unwrap()
    }

    fn warmed(users: u32, seed: u64, hours: u32) -> FleetState {
        let state = FleetState::new(&fleet(users, seed), 3).unwrap();
        for u in 0..users {
            for h in 0..hours {
                let harvest = f64::from((u + h) % 5) * 0.7;
                let _ = state.observe(u, h, harvest, Some(0.1));
            }
        }
        state
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let state = warmed(6, 9, 30);
        let stats_before = state.fleet_stats();
        let bytes = snapshot(&state);

        // Restore into a *fresh* state built from the same fleet.
        let fresh = FleetState::new(&fleet(6, 9), 5).unwrap();
        assert_ne!(fresh.fleet_stats(), stats_before);
        assert_eq!(restore(&fresh, &bytes).unwrap(), 6);
        assert_eq!(fresh.fleet_stats(), stats_before);
        // And the two populations keep agreeing after more observations.
        for u in 0..6u32 {
            let a = state.observe(u, 6, 1.25, None).unwrap();
            let b = fresh.observe(u, 6, 1.25, None).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "user {u} diverged after restore");
        }
        assert_eq!(fresh.fleet_stats(), state.fleet_stats());
    }

    #[test]
    fn restore_refuses_foreign_and_corrupt_snapshots() {
        let state = warmed(4, 1, 10);
        let bytes = snapshot(&state);

        // Different seed → different fingerprint.
        let other = FleetState::new(&fleet(4, 2), 1).unwrap();
        assert_eq!(
            restore(&other, &bytes).unwrap_err().code,
            ErrorCode::Snapshot
        );
        // Different population size.
        let bigger = FleetState::new(&fleet(5, 1), 1).unwrap();
        assert_eq!(
            restore(&bigger, &bytes).unwrap_err().code,
            ErrorCode::Snapshot
        );

        let same = FleetState::new(&fleet(4, 1), 1).unwrap();
        // Truncation.
        assert!(restore(&same, &bytes[..bytes.len() - 1]).is_err());
        assert!(restore(&same, &[]).is_err());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(restore(&same, &bad).is_err());
        // Unknown version.
        let mut bad = bytes.clone();
        bad[8] = 99;
        assert!(restore(&same, &bad).is_err());
        // A flipped record byte breaks the digest.
        let mut bad = bytes.clone();
        let record_byte = 8 + 4 + 8 + 8 + 4 + 16;
        bad[record_byte] ^= 0x01;
        assert!(restore(&same, &bad).is_err());
        // None of the failed restores touched the target.
        assert_eq!(same.fleet_stats().observations, 0);
        // The pristine bytes still restore fine afterwards.
        assert_eq!(restore(&same, &bytes).unwrap(), 4);
        assert_eq!(same.fleet_stats(), state.fleet_stats());
    }

    #[test]
    fn record_size_matches_layout() {
        assert_eq!(RECORD_BYTES, 268);
        let state = warmed(1, 3, 2);
        assert_eq!(snapshot(&state).len(), 8 + 4 + 8 + 8 + 4 + 268 + 8);
    }

    #[test]
    fn seq_state_survives_the_round_trip() {
        let state = warmed(3, 11, 5);
        // Stamp a sequence-numbered observe, then snapshot.
        let granted = state.observe_seq(1, 5, 0.8, None, Some(42)).unwrap();
        let bytes = snapshot(&state);
        let fresh = FleetState::new(&fleet(3, 11), 2).unwrap();
        restore(&fresh, &bytes).unwrap();
        // Replaying the same seq on the restored state returns the cached
        // budget without reapplying.
        let obs_before = fresh.fleet_stats().observations;
        let replayed = fresh.observe_seq(1, 5, 0.8, None, Some(42)).unwrap();
        assert_eq!(replayed.to_bits(), granted.to_bits());
        assert_eq!(fresh.fleet_stats().observations, obs_before);
    }

    #[test]
    fn atomic_write_round_trips_and_replaces() {
        let dir = std::env::temp_dir().join(format!("reap-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.reapsnap");
        let state = warmed(2, 5, 4);
        write_atomic(&path, &snapshot(&state)).unwrap();
        let fresh = FleetState::new(&fleet(2, 5), 1).unwrap();
        restore(&fresh, &std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(fresh.fleet_stats(), state.fleet_stats());
        // Overwriting in place is just as atomic.
        let _ = state.observe(0, 9, 1.0, None);
        write_atomic(&path, &snapshot(&state)).unwrap();
        let fresh2 = FleetState::new(&fleet(2, 5), 1).unwrap();
        restore(&fresh2, &std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(fresh2.fleet_stats(), state.fleet_stats());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ring_retains_newest_and_prunes() {
        let dir = std::env::temp_dir().join(format!("reap-ring-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ring = SnapshotRing::create(&dir, 3).unwrap();
        let state = warmed(2, 8, 2);
        for h in 0..5u32 {
            let _ = state.observe(0, h, 0.5, None);
            ring.write(&state).unwrap();
        }
        let entries = ring.entries().unwrap();
        assert_eq!(entries.len(), 3, "ring prunes to the retention count");
        assert_eq!(
            entries.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        // Recovery restores the newest snapshot (the current state).
        let fresh = FleetState::new(&fleet(2, 8), 1).unwrap();
        let rec = ring.recover(&fresh).unwrap().unwrap();
        assert_eq!(rec.seq, 4);
        assert_eq!(rec.skipped, 0);
        assert_eq!(fresh.fleet_stats(), state.fleet_stats());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ring_recovery_skips_corrupt_newest() {
        let dir = std::env::temp_dir().join(format!("reap-ring-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ring = SnapshotRing::create(&dir, 4).unwrap();
        let state = warmed(2, 13, 3);
        ring.write(&state).unwrap();
        let stats_durable = state.fleet_stats();
        let _ = state.observe(1, 7, 2.0, None);
        let newest = ring.write(&state).unwrap();
        // Simulate a power-loss torn write: truncate the newest file.
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let fresh = FleetState::new(&fleet(2, 13), 1).unwrap();
        let rec = ring.recover(&fresh).unwrap().unwrap();
        assert_eq!(rec.skipped, 1, "torn newest snapshot was skipped");
        assert_eq!(fresh.fleet_stats(), stats_durable);
        // An empty or all-corrupt ring recovers to None, state untouched.
        let empty = SnapshotRing::create(dir.join("empty"), 2).unwrap();
        let blank = FleetState::new(&fleet(2, 13), 1).unwrap();
        assert!(empty.recover(&blank).unwrap().is_none());
        assert_eq!(blank.fleet_stats().observations, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killing_the_writer_at_every_crash_point_never_loses_durable_state() {
        use crate::fault::{FaultConfig, FaultPlan};
        use std::sync::Arc;

        for point in CrashPoint::ALL {
            let dir =
                std::env::temp_dir().join(format!("reap-crash-{:?}-{}", point, std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let ring = SnapshotRing::create(&dir, 4).unwrap();
            let state = warmed(3, 17, 6);

            // Checkpoint A completes normally: the durable baseline.
            ring.write(&state).unwrap();
            let stats_durable = state.fleet_stats();

            // More work arrives, then checkpoint B dies at `point`.
            for h in 6..10u32 {
                for u in 0..3u32 {
                    let _ = state.observe(u, h, 0.9, None);
                }
            }
            let stats_new = state.fleet_stats();
            let killer: Arc<FaultPlan> = Arc::new(FaultPlan::new(
                0,
                FaultConfig {
                    crash_at: Some(point),
                    ..FaultConfig::default()
                },
            ));
            assert_eq!(
                ring.write_with(&state, &killer).unwrap(),
                None,
                "{point:?}: the writer must report the injected crash"
            );

            // Recovery must land on a digest-valid snapshot: the new one
            // iff the rename completed, else the durable baseline —
            // never a torn file, never an error.
            let fresh = FleetState::new(&fleet(3, 17), 2).unwrap();
            let rec = ring
                .recover(&fresh)
                .unwrap()
                .unwrap_or_else(|| panic!("{point:?}: recovery found no valid snapshot"));
            let recovered = fresh.fleet_stats();
            // Only a crash after the rename leaves the new snapshot durable
            // under its final name.
            if point == CrashPoint::Renamed {
                assert_eq!(recovered, stats_new, "{point:?}");
                assert_eq!(rec.skipped, 0, "{point:?}");
            } else {
                assert_eq!(recovered, stats_durable, "{point:?}");
            }
            // A later checkpoint heals the ring (stale temp pruned).
            ring.write(&state).unwrap();
            let healed = FleetState::new(&fleet(3, 17), 2).unwrap();
            ring.recover(&healed).unwrap().unwrap();
            assert_eq!(healed.fleet_stats(), stats_new, "{point:?}");
            assert!(
                std::fs::read_dir(&dir).unwrap().all(|e| !e
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".tmp")),
                "{point:?}: prune removed the torn temp file"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
