//! A canonical byte encoding of simulation reports, shared by the golden
//! suites.
//!
//! `{:?}` text pins every value of a report, but also how each type
//! happens to print. This encoding pins the values alone, in a fixed
//! order of little-endian words, so a digest over it survives a change of
//! representation that keeps every number's bits.

use reap_sim::SimReport;

/// 64-bit FNV-1a, the digest the perfbench goldens use.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends `report`: the policy name, the energy-layer name and the
/// alpha bits; then per hour the day, hour, harvested, budget, realized
/// fraction and battery bits, followed by the plan — the
/// `(id, accuracy, seconds)` bits of each share in id order, the off
/// seconds, the period and the energy.
pub fn encode_report(out: &mut Vec<u8>, report: &SimReport) {
    put_str(out, &report.policy_name());
    put_str(out, report.allocator_name());
    put_f64(out, report.alpha());
    put_u64(out, report.hours().len() as u64);
    for h in report.hours() {
        put_u64(out, u64::from(h.day));
        put_u64(out, u64::from(h.hour));
        put_f64(out, h.harvested.joules());
        put_f64(out, h.budget.joules());
        put_f64(out, h.realized_fraction);
        put_f64(out, h.battery_level.joules());
        let plan = &h.planned;
        let shares = plan.shares();
        put_u64(out, shares.len() as u64);
        for s in shares {
            put_u64(out, u64::from(s.id));
            put_f64(out, s.accuracy);
            put_f64(out, s.seconds);
        }
        put_f64(out, plan.off_time().seconds());
        put_f64(out, plan.period().seconds());
        put_f64(out, plan.energy().joules());
    }
}
