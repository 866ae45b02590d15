//! The energy half of the hour step, written once.
//!
//! Every engine runs the same per-period pipeline (Sec. 3.2 of the
//! paper): an allocator proposes a budget from the expected harvest and
//! the battery's distance from its target, the grant is clamped to what
//! the supply can deliver, the store banks the harvest and pays for the
//! plan, and execution browns out proportionally when supply falls
//! short. The scalar engine, the struct-of-arrays fleet kernels, and the
//! resident serving state all call these functions, so each rule and each
//! tuning constant below has exactly one definition.
//!
//! The functions are pure and work on plain `f64` joules. Each performs
//! the same floating-point operations in the same order wherever it is
//! called, which is what keeps the engines bit-identical to one another.

/// Weight of the newest sample in the allocators' and forecasters'
/// diurnal EWMA, as in Kansal et al.
pub const EWMA_ALPHA: f64 = 0.5;

/// Fraction of the battery's distance from its target that the EWMA and
/// uniform-daily allocators budget per hour.
pub const BATTERY_GAIN: f64 = 0.1;

/// Fraction of the battery's distance from its target that the greedy
/// allocator budgets per hour.
pub const GREEDY_GAIN: f64 = 0.25;

/// The level the allocators steer the battery toward, as a fraction of
/// its capacity.
pub const BATTERY_TARGET: f64 = 0.5;

/// Brownout tolerance in joules: a delivery within this much of the
/// deficit still counts as a fully realized step.
pub const BROWNOUT_EPS_J: f64 = 1e-12;

/// The allocator proposal: the expected harvest plus `gain` times the
/// battery's distance from [`BATTERY_TARGET`] of its capacity, never
/// negative.
#[inline]
#[must_use]
pub fn propose(expected_j: f64, level_j: f64, capacity_j: f64, gain: f64) -> f64 {
    let correction = (level_j - capacity_j * BATTERY_TARGET) * gain;
    (expected_j + correction).max(0.0)
}

/// One EWMA update: blends `sample` into `estimate` with weight `alpha`
/// on the sample.
#[inline]
#[must_use]
pub fn blend(estimate: f64, sample: f64, alpha: f64) -> f64 {
    (1.0 - alpha) * estimate + alpha * sample
}

/// The closed-loop floor clamp: the proposal, raised to the monitoring
/// `floor` whenever `supply_j` can still provide it.
#[inline]
#[must_use]
pub fn floor_clamp(proposed_j: f64, floor_j: f64, supply_j: f64) -> f64 {
    proposed_j.max(floor_j.min(supply_j))
}

/// The open-loop grant: the proposal capped at what `supply_j` can
/// deliver, then floor-clamped like [`floor_clamp`].
#[inline]
#[must_use]
pub fn grant(proposed_j: f64, floor_j: f64, supply_j: f64) -> f64 {
    floor_clamp(proposed_j.min(supply_j), floor_j, supply_j)
}

/// One open-loop allocation step against a *virtual* store: the
/// proposal is granted against the supply (the store's deliverable
/// energy plus the step's harvest, see [`grant`]), then the store banks
/// the harvest and pays the grant, but never more than `max_spend_j`,
/// what the highest-power point draws running the whole step (the
/// problem's saturation budget): no plan can spend more, and a store
/// that paid for energy no load can draw would starve later steps.
/// Returns the grant and the store's new level.
#[inline]
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    level_j: f64,
    capacity_j: f64,
    charge_eff: f64,
    discharge_eff: f64,
    proposed_j: f64,
    floor_j: f64,
    max_spend_j: f64,
    harvested_j: f64,
) -> (f64, f64) {
    let budget = grant(proposed_j, floor_j, level_j * discharge_eff + harvested_j);
    let level = level_j + charge(level_j, capacity_j, charge_eff, harvested_j);
    let spent = budget.min(max_spend_j);
    (budget, level - discharge(level, discharge_eff, spent))
}

/// Energy a store at `level_j` keeps when charged with `input_j`
/// (before `efficiency`), capped by the headroom to `capacity_j`. Add it
/// to the level.
#[inline]
#[must_use]
pub fn charge(level_j: f64, capacity_j: f64, efficiency: f64, input_j: f64) -> f64 {
    (input_j * efficiency).min(capacity_j - level_j)
}

/// Energy a store at `level_j` gives up to deliver `output_j` at
/// `efficiency`, capped by the level. Subtract it from the level; the
/// load receives `drawn * efficiency`.
#[inline]
#[must_use]
pub fn discharge(level_j: f64, efficiency: f64, output_j: f64) -> f64 {
    (output_j / efficiency).min(level_j)
}

/// Executes one step against a battery: the load draws from the
/// incoming harvest first and then from the store, and the surplus
/// charges the store. Returns the new level and the realized fraction of
/// `needed_j` in `[0, 1]`, which falls below 1 in proportion to the
/// shortfall when the store runs dry (beyond [`BROWNOUT_EPS_J`]).
///
/// Branch-free on the charge/deficit split: on a charging step the
/// deficit is exactly zero, so the discharge is a no-op, and vice versa.
#[inline]
#[must_use]
pub fn execute(
    level_j: f64,
    capacity_j: f64,
    charge_eff: f64,
    discharge_eff: f64,
    harvested_j: f64,
    needed_j: f64,
) -> (f64, f64) {
    let surplus = (harvested_j - needed_j).max(0.0);
    let level = level_j + charge(level_j, capacity_j, charge_eff, surplus);
    let deficit = (needed_j - harvested_j).max(0.0);
    let drawn = discharge(level, discharge_eff, deficit);
    let delivered = drawn * discharge_eff;
    let fraction = if delivered + BROWNOUT_EPS_J < deficit && needed_j > 0.0 {
        ((harvested_j + delivered) / needed_j).clamp(0.0, 1.0)
    } else {
        1.0
    };
    (level - drawn, fraction)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposal_corrects_toward_half_capacity() {
        // At the target the proposal is the expectation itself.
        assert_eq!(propose(4.0, 30.0, 60.0, GREEDY_GAIN), 4.0);
        // A full battery spends a quarter of its 30 J surplus.
        assert_eq!(propose(4.0, 60.0, 60.0, GREEDY_GAIN), 11.5);
        // A deep deficit never proposes a negative budget.
        assert_eq!(propose(0.0, 0.0, 60.0, BATTERY_GAIN), 0.0);
    }

    #[test]
    fn clamps_respect_supply_and_floor() {
        // Open loop caps at the supply, closed loop does not.
        assert_eq!(grant(5.0, 0.18, 2.0), 2.0);
        assert_eq!(floor_clamp(5.0, 0.18, 2.0), 5.0);
        // Both raise a starved proposal to the floor when supply allows…
        assert_eq!(grant(0.0, 0.18, 2.0), 0.18);
        assert_eq!(floor_clamp(0.0, 0.18, 2.0), 0.18);
        // …and only as far as the supply reaches otherwise.
        assert_eq!(grant(0.0, 0.18, 0.1), 0.1);
    }

    #[test]
    fn open_loop_banks_the_harvest_and_pays_the_grant() {
        // 5 J proposed, 10 J stored + 2 J harvest: granted in full.
        assert_eq!(
            open_loop(10.0, 60.0, 1.0, 1.0, 5.0, 0.18, 9.936, 2.0),
            (5.0, 7.0)
        );
        // An empty store grants only the hour's harvest.
        assert_eq!(
            open_loop(0.0, 60.0, 1.0, 1.0, 5.0, 0.18, 9.936, 2.0),
            (2.0, 0.0)
        );
    }

    #[test]
    fn open_loop_pays_no_more_than_the_spend_cap() {
        // 20 J granted from 30 J stored + 2 J harvest, but the store pays
        // only the 9.936 J cap.
        let (grant, level) = open_loop(30.0, 60.0, 1.0, 1.0, 20.0, 0.18, 9.936, 2.0);
        assert_eq!(grant, 20.0);
        assert_eq!(level, 32.0 - 9.936);
    }

    #[test]
    fn charge_and_discharge_respect_the_store() {
        assert_eq!(charge(9.0, 10.0, 1.0, 3.0), 1.0);
        assert_eq!(charge(0.0, 100.0, 0.8, 10.0), 8.0);
        assert_eq!(discharge(4.0, 1.0, 6.0), 4.0);
        assert_eq!(discharge(10.0, 0.5, 2.0), 4.0);
    }

    #[test]
    fn execute_browns_out_in_proportion_to_the_shortfall() {
        // Surplus: the plan runs and the rest is banked.
        assert_eq!(execute(10.0, 60.0, 1.0, 1.0, 3.0, 1.0), (12.0, 1.0));
        // Deficit covered by the store.
        assert_eq!(execute(10.0, 60.0, 1.0, 1.0, 1.0, 3.0), (8.0, 1.0));
        // Deficit beyond the store: 1 J harvest + 1 J stored of 4 J.
        assert_eq!(execute(1.0, 60.0, 1.0, 1.0, 1.0, 4.0), (0.0, 0.5));
        // A zero-energy plan always completes.
        assert_eq!(execute(0.0, 60.0, 1.0, 1.0, 0.0, 0.0), (0.0, 1.0));
    }

    #[test]
    fn blend_weights_the_newest_sample() {
        assert_eq!(blend(2.0, 4.0, EWMA_ALPHA), 3.0);
        assert_eq!(blend(2.0, 4.0, 1.0), 4.0);
    }
}
