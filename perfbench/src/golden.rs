//! Golden outputs for the tuning seed.
//!
//! Seed [`TUNING_SEED`] is the seed the workloads were tuned on; its
//! outputs are pinned here as FNV-1a digests. Every other seed is held
//! out: on it only the seed-independent checks run (thread-count
//! identity, run-to-run bit identity, the energy-ledger bound, the
//! served-versus-replayed state digest). Regenerate a digest by running
//! the workload on the tuning seed and copying the digest it prints to
//! stderr — only when a change is meant to alter the workload's output.

/// The seed the goldens below were recorded on.
pub const TUNING_SEED: u64 = 1;

/// Digest of the `{:?}` formatting of a fleet workload's part reports.
const REPORTS: [(&str, u64); 3] = [
    ("fleet-reap", 0xa803_1d56_673e_bd6a),
    ("fleet-mpc24", 0x574e_4b09_e7d1_bff6),
    ("fleet-intermittent", 0x88ff_4fc4_4c03_bb9d),
];

/// Summed `ClockStats` digest of fleet-intermittent.
const CLOCK: [(&str, u64); 1] = [("fleet-intermittent", 0xb28a_56d7_2472_35a3)];

/// `stats` state digest of serve-mixed after the in-process warm-up day.
const WARM_STATE: [(&str, u64); 1] = [("serve-mixed", 0xb12b_ccb1_c095_e49a)];

fn lookup(table: &[(&str, u64)], workload: &str, seed: u64) -> Option<u64> {
    (seed == TUNING_SEED)
        .then(|| table.iter().find(|(w, _)| *w == workload).map(|&(_, d)| d))
        .flatten()
}

#[must_use]
pub fn report_digest(workload: &str, seed: u64) -> Option<u64> {
    lookup(&REPORTS, workload, seed)
}

#[must_use]
pub fn clock_digest(workload: &str, seed: u64) -> Option<u64> {
    lookup(&CLOCK, workload, seed)
}

#[must_use]
pub fn warm_state_digest(workload: &str, seed: u64) -> Option<u64> {
    lookup(&WARM_STATE, workload, seed)
}
