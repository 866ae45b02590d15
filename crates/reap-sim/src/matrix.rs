//! The parallel scenario executor: policies × scenarios fanned out over
//! OS threads.
//!
//! The figure/table binaries and month-long comparisons run the same
//! hour-by-hour engine over many (scenario, policy) pairs. Each pair is
//! independent, so [`run_matrix`] executes every pair on a scoped worker
//! pool; each run steps its own allocator, exactly as [`Scenario::run`]
//! does. Results are returned in deterministic (scenario-major, policy
//! order) layout and are bit-identical to sequential [`Scenario::run`]
//! calls: parallelism changes only which core runs a pair, never the
//! arithmetic inside it. The pool, [`parallel_map`], is the crate's only
//! one: fleets run on it too.

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::engine::{self, Policy};
use crate::{Scenario, SimError, SimReport};

/// Runs every `policy` over every `scenario` in parallel.
///
/// Returns `reports[s][p]`: the report for `scenarios[s]` under
/// `policies[p]`. Worker threads are capped at the machine's available
/// parallelism (and at the number of pairs).
///
/// # Errors
///
/// Propagates the first engine error in (scenario, policy) order —
/// e.g. a [`Policy::Static`] id missing from a scenario's problem.
pub fn run_matrix(
    scenarios: &[Scenario],
    policies: &[Policy],
) -> Result<Vec<Vec<SimReport>>, SimError> {
    run_matrix_with_threads(scenarios, policies, None)
}

/// [`run_matrix`] with an explicit worker-thread cap.
///
/// `max_threads = None` uses the machine's available parallelism;
/// `Some(n)` caps the pool at `n` workers (always additionally capped at
/// the number of pairs). The *results are bit-identical for every thread
/// count*: parallelism changes only which core runs a pair, never the
/// arithmetic inside it.
fn run_matrix_with_threads(
    scenarios: &[Scenario],
    policies: &[Policy],
    max_threads: Option<NonZeroUsize>,
) -> Result<Vec<Vec<SimReport>>, SimError> {
    if scenarios.is_empty() || policies.is_empty() {
        return Ok(scenarios.iter().map(|_| Vec::new()).collect());
    }

    let jobs = scenarios.len() * policies.len();
    let results = parallel_map(jobs, max_threads, |job| {
        let (s, p) = (job / policies.len(), job % policies.len());
        engine::run(&scenarios[s], policies[p])
    });
    let mut flat = results.into_iter();
    let mut reports = Vec::with_capacity(scenarios.len());
    for _ in scenarios {
        reports.push(
            flat.by_ref()
                .take(policies.len())
                .collect::<Result<_, _>>()?,
        );
    }
    Ok(reports)
}

/// Maps `f` over `0..items` on a scoped pool of up to `max_threads`
/// workers (`None` = the machine's available parallelism; never more
/// than `items`) and returns the results in index order. Workers claim
/// indices from a shared counter, so uneven items balance. The calling
/// thread is one of the workers: with one, nothing is spawned.
pub(crate) fn parallel_map<T: Send>(
    items: usize,
    max_threads: Option<NonZeroUsize>,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let workers = max_threads
        .or_else(|| std::thread::available_parallelism().ok())
        .map_or(1, NonZeroUsize::get)
        .min(items);
    let next = AtomicUsize::new(0);
    let claim = || {
        std::iter::repeat_with(|| next.fetch_add(1, Ordering::Relaxed))
            .take_while(|&i| i < items)
            .map(|i| (i, f(i)))
            .collect::<Vec<_>>()
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        let mut done = claim();
        for helper in helpers {
            done.extend(helper.join().unwrap_or_else(|e| resume_unwind(e)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BudgetMode;
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
            .map(|&(id, a, mw)| OperatingPoint::new(id, a, Power::from_milliwatts(mw)))
            .collect()
    }

    fn scenario(seed: u64, alpha: f64) -> Scenario {
        Scenario::builder(HarvestTrace::september_like(seed))
            .points(paper_points())
            .alpha(alpha)
            .build()
            .unwrap()
    }

    #[test]
    fn matrix_is_bit_identical_to_sequential_runs() {
        let scenarios = [scenario(11, 1.0), scenario(12, 2.0)];
        let policies = [Policy::Reap, Policy::Static(1), Policy::Static(5)];
        let matrix = run_matrix(&scenarios, &policies).unwrap();
        assert_eq!(matrix.len(), scenarios.len());
        for (s, row) in scenarios.iter().zip(&matrix) {
            assert_eq!(row.len(), policies.len());
            for (&policy, report) in policies.iter().zip(row) {
                assert_eq!(report, &s.run(policy).unwrap(), "{policy} diverged");
            }
        }
    }

    #[test]
    fn thread_cap_never_changes_results() {
        let scenarios = [scenario(21, 1.0), scenario(22, 0.5)];
        let policies = [Policy::Reap, Policy::Static(3)];
        let unbounded = run_matrix_with_threads(&scenarios, &policies, None).unwrap();
        for threads in [1usize, 2, 7] {
            let capped = run_matrix_with_threads(
                &scenarios,
                &policies,
                Some(std::num::NonZeroUsize::new(threads).unwrap()),
            )
            .unwrap();
            assert_eq!(capped, unbounded, "{threads}-thread run diverged");
        }
    }

    #[test]
    fn matrix_handles_closed_loop_scenarios() {
        let closed = Scenario::builder(HarvestTrace::september_like(13))
            .points(paper_points())
            .budget_mode(BudgetMode::ClosedLoop)
            .build()
            .unwrap();
        let matrix = run_matrix(std::slice::from_ref(&closed), &[Policy::Reap]).unwrap();
        assert_eq!(matrix[0][0], closed.run(Policy::Reap).unwrap());
    }

    #[test]
    fn matrix_propagates_unknown_point_errors() {
        let err = run_matrix(&[scenario(14, 1.0)], &[Policy::Reap, Policy::Static(99)]);
        assert!(matches!(err, Err(SimError::Core(_))));
    }

    #[test]
    fn parallel_map_returns_results_in_index_order() {
        let squares =
            |items, threads| parallel_map(items, NonZeroUsize::new(threads), |i| i * i + 1);
        let expected: Vec<usize> = (0..23).map(|i| i * i + 1).collect();
        for threads in [1, 2, 7] {
            assert!(squares(0, threads).is_empty(), "{threads} threads");
            assert_eq!(squares(1, threads), [1], "{threads} threads");
            // More items than workers: each worker claims several.
            assert_eq!(squares(23, threads), expected, "{threads} threads");
        }
    }

    #[test]
    fn parallel_map_runs_one_worker_inline() {
        let caller = std::thread::current().id();
        let on = |items, threads| {
            parallel_map(items, NonZeroUsize::new(threads), |_| {
                std::thread::current().id()
            })
        };
        assert_eq!(on(5, 1), vec![caller; 5]);
        // One item is one worker, whatever the cap.
        assert_eq!(on(1, 4), vec![caller]);
    }

    #[test]
    fn empty_inputs_yield_empty_matrices() {
        assert!(run_matrix(&[], &[Policy::Reap]).unwrap().is_empty());
        let rows = run_matrix(&[scenario(15, 1.0)], &[]).unwrap();
        assert_eq!(rows, vec![Vec::new()]);
    }
}
