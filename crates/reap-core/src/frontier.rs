//! The precomputed budget→schedule frontier.
//!
//! The REAP LP has only two constraints, so its optimal value is a
//! *concave piecewise-linear* function of the energy budget, and the
//! optimal basis changes only at a handful of budget breakpoints (the
//! region boundaries of the paper's Fig. 5). This module precomputes that
//! structure once per `(points, alpha)` and answers every subsequent solve
//! with a binary search plus linear interpolation — `O(log K)` per call
//! with zero LP work.
//!
//! # Derivation
//!
//! Eliminate `t_off = TP - sum t_i` and divide by `TP`. Writing
//! `f_i = t_i / TP` for the fraction of the period spent at point `i`
//! (with `f_off` the off fraction), the problem becomes: choose a convex
//! combination of the "points" `(m_i, w_i)` — marginal power
//! `m_i = P_i - P_off` against objective weight `w_i = a_i^alpha` — plus
//! the off state `(0, 0)`, maximizing the combined weight subject to the
//! combined marginal power not exceeding `x = (Eb - P_off*TP) / TP`.
//!
//! The achievable set is the convex hull of `{(0,0)} ∪ {(m_i, w_i)}`, so
//! the optimum is the **upper concave hull** of those points evaluated at
//! `x`. Hull vertices are the LP's vertex schedules: "run one point for
//! the whole period" (or stay off), and
//! every budget between two adjacent breakpoints mixes the two bracketing
//! vertices — which is why the LP optimum never activates more than two
//! points. Beyond the last vertex (the best-weight point) extra energy
//! buys nothing and the objective saturates.

use reap_units::Energy;

use crate::operating_point::weight;
use crate::problem::check_budget;
use crate::schedule::Run;
use crate::{ReapError, ReapProblem, Schedule};

/// Precomputed concave budget→schedule frontier for one `(points, alpha)`.
///
/// Construction is [`push_frontier`]'s `O(N²)` insertion sort and
/// monotone hull scan, over a handful of points. The frontier is a
/// [`FrontierTable`] plus what the table lacks: the `alpha` its
/// weights were built for, which [`PlanFrontier::objective_at`] needs,
/// and the budget checks [`PlanFrontier::solve`] reports. Each solve
/// afterwards is one [`decide_vertices`] walk over the `K <= N + 1`
/// retained vertices. Equivalence with the tableau simplex is enforced by
/// unit and property tests (`|Δ objective| < 1e-9`).
///
/// The frontier is valid for the exact `(points, alpha, period, P_off)` it
/// was built from: a new `alpha` means a new frontier, built from
/// [`ReapProblem::with_alpha`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanFrontier {
    table: FrontierTable,
    alpha: f64,
}

impl PlanFrontier {
    /// Builds the frontier for `problem` (infallible: the problem was
    /// validated at construction).
    #[must_use]
    pub fn new(problem: &ReapProblem) -> PlanFrontier {
        let points: Vec<(u8, f64, f64)> = problem
            .points()
            .iter()
            .map(|p| (p.id(), p.accuracy(), p.power().watts()))
            .collect();
        PlanFrontier {
            table: FrontierTable::new(
                &points,
                problem.alpha(),
                problem.period().seconds(),
                problem.off_power().watts(),
            ),
            alpha: problem.alpha(),
        }
    }

    /// The `alpha` the frontier was built for.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Exact optimal objective `J` at `budget`: the objective of the
    /// schedule [`PlanFrontier::solve`] returns.
    ///
    /// # Errors
    ///
    /// Same as [`PlanFrontier::solve`].
    pub fn objective_at(&self, budget: Energy) -> Result<f64, ReapError> {
        self.solve(budget).map(|s| s.objective(self.alpha))
    }

    /// Exact optimal schedule at `budget`: the segment that brackets the
    /// budget, interpolated between its two vertex schedules.
    ///
    /// # Errors
    ///
    /// * [`ReapError::BudgetTooSmall`] below the `P_off * TP` floor.
    /// * [`ReapError::InvalidParameter`] for a non-finite budget.
    pub fn solve(&self, budget: Energy) -> Result<Schedule, ReapError> {
        check_budget(budget, Energy::from_joules(self.table.min_budget_j))?;
        Ok(self.table.decide(budget.joules()))
    }

    /// The frontier's [`FrontierTable`], for batched pointer-free
    /// evaluation. Consumes the frontier, so the table is built once and
    /// never copied.
    #[must_use]
    pub fn table(self) -> FrontierTable {
        self.table
    }
}

/// One breakpoint of a [`FrontierTable`]: the budget at which a vertex
/// schedule is the exact optimum, and the point that runs the whole
/// period there.
///
/// Plain data in one 32-byte record, so batched callers can pack many
/// frontiers into one contiguous arena ([`push_frontier`]) and evaluate
/// them with [`decide_vertices`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vertex {
    /// Breakpoint budget in joules.
    pub budget_j: f64,
    /// Accuracy of the point (0 for the all-off vertex).
    pub accuracy: f64,
    /// Power draw of the point in watts (0 for the all-off vertex).
    pub power_w: f64,
    /// Id of the point (0 for the all-off vertex).
    pub id: u8,
    /// Whether a point runs here (`false` = the all-off vertex).
    pub has_point: bool,
}

impl Vertex {
    /// This vertex's point running for `seconds` (`None` for the all-off
    /// vertex).
    #[inline]
    fn run(&self, seconds: f64) -> Option<Run> {
        self.has_point.then_some(Run {
            id: self.id,
            accuracy: self.accuracy,
            power_w: self.power_w,
            seconds,
        })
    }
}

/// Appends to `out` the frontier of `points`, each an `(id, accuracy,
/// power_w)` triple drawing more than `off_w`, weighted by `alpha` over
/// a period of `period_s` seconds: the vertices of the upper concave
/// hull of the off state `(0, 0)` and every point's `(P_i - P_off,
/// a_i^alpha)`, ascending by budget, the all-off vertex at the floor
/// `off_w * period_s` first. The one hull every frontier is built with:
/// [`FrontierTable::new`] calls it, and batched callers call it to pack
/// many frontiers into one arena. It allocates only when `out` grows.
pub fn push_frontier(
    out: &mut Vec<Vertex>,
    points: &[(u8, f64, f64)],
    alpha: f64,
    period_s: f64,
    off_w: f64,
) {
    // The candidates are written straight into `out`, so the build needs
    // no scratch: until the budgets are filled in at the end, a record's
    // `budget_j` holds its weight `a^alpha`, and its marginal power is
    // `power_w - off_w` (0 for the off state, pushed last).
    let start = out.len();
    out.extend(points.iter().map(|&(id, accuracy, power_w)| Vertex {
        budget_j: weight(accuracy, alpha),
        accuracy,
        power_w,
        id,
        has_point: true,
    }));
    out.push(Vertex {
        budget_j: 0.0,
        accuracy: 0.0,
        power_w: 0.0,
        id: 0,
        has_point: false,
    });
    let marginal = |v: &Vertex| if v.has_point { v.power_w - off_w } else { 0.0 };
    let cands = &mut out[start..];

    // Stable insertion sort by ascending marginal power, then descending
    // weight: a frontier has a handful of points.
    for i in 1..cands.len() {
        let c = cands[i];
        let (m, w) = (marginal(&c), c.budget_j);
        let mut j = i;
        while j > 0 {
            let (pm, pw) = (marginal(&cands[j - 1]), cands[j - 1].budget_j);
            if !(m < pm || (m == pm && w > pw)) {
                break;
            }
            cands[j] = cands[j - 1];
            j -= 1;
        }
        cands[j] = c;
    }

    // Upper concave hull, monotone-scan style, compacted in place: the
    // hull so far is `cands[..len]`. Dominated points (no weight gain for
    // the extra power) never enter; interior points of a segment are
    // popped when the incoming slope stops decreasing.
    let mut len = 0;
    for i in 0..cands.len() {
        let c = cands[i];
        let (cm, cw) = (marginal(&c), c.budget_j);
        // Strictly more power for no strictly better weight.
        if len > 0 && cw <= cands[len - 1].budget_j {
            continue;
        }
        while len >= 2 {
            let (a, b) = (&cands[len - 2], &cands[len - 1]);
            let (am, aw, bm, bw) = (marginal(a), a.budget_j, marginal(b), b.budget_j);
            // Keep b only if the slope a→b strictly exceeds b→c.
            if (bw - aw) * (cm - bm) > (cw - bw) * (bm - am) {
                break;
            }
            len -= 1;
        }
        cands[len] = c;
        len += 1;
    }
    out.truncate(start + len);

    // Each hull vertex runs its point (or nothing) for the whole period,
    // which is optimal exactly at its breakpoint budget.
    let floor_j = off_w * period_s;
    for v in &mut out[start..] {
        v.budget_j = floor_j + marginal(v) * period_s;
    }
}

/// The optimal plan at `budget_j` over a frontier's `vertices` (ascending
/// budgets, the all-off vertex at the floor first), for a period of
/// `period_s` seconds with off-state power `off_w`, without allocating.
///
/// The budget's bracketing segment mixes its two vertex schedules
/// linearly; the off time complements the mixed active time.
/// Sub-floor (and NaN) budgets clamp up to the floor: a starved period
/// plans all-off (the device browns out; it cannot do better).
///
/// # Panics
///
/// Panics on an empty vertex slice.
#[inline]
#[must_use]
pub fn decide_vertices(vertices: &[Vertex], period_s: f64, off_w: f64, budget_j: f64) -> Schedule {
    let tp = period_s;
    // `f64::max` maps NaN to the floor too, matching `Energy::max`.
    let b = budget_j.max(vertices[0].budget_j);
    // The first segment (the off vertex blending into the cheapest
    // point) absorbs most interior budgets, so it skips the general walk
    // below; the arithmetic is the walk's for that segment, term for
    // term.
    if vertices.len() >= 2
        && b < vertices[1].budget_j
        && !vertices[0].has_point
        && vertices[1].has_point
    {
        let lo_b = vertices[0].budget_j;
        let lambda = ((b - lo_b) / (vertices[1].budget_j - lo_b)).clamp(0.0, 1.0);
        let t = lambda * tp;
        let run = if lambda > 0.0 {
            vertices[1].run(t)
        } else {
            None
        };
        return Schedule::new([run, None], tp - t, tp, off_w);
    }

    let last = vertices.len() - 1;
    let (k, lambda) = if last == 0 {
        (0, 0.0)
    } else if b >= vertices[last].budget_j {
        (last - 1, 1.0)
    } else {
        // First vertex with budget > b, counted over the ascending
        // budgets without a data-dependent branch.
        let mut hi = 1;
        for v in &vertices[1..last] {
            hi += usize::from(v.budget_j <= b);
        }
        let lo_b = vertices[hi - 1].budget_j;
        (
            hi - 1,
            ((b - lo_b) / (vertices[hi].budget_j - lo_b)).clamp(0.0, 1.0),
        )
    };
    let lo = vertices[k].run((1.0 - lambda) * tp);
    let hi = if lambda > 0.0 {
        vertices[(k + 1).min(last)].run(lambda * tp)
    } else {
        None
    };
    // The off time complements the *raw* active time: the drop rule
    // applies after.
    let active = lo.map_or(0.0, |r| r.seconds) + hi.map_or(0.0, |r| r.seconds);
    Schedule::new([lo, hi], tp - active, tp, off_w)
}

/// Flat, pointer-free form of a [`PlanFrontier`] for batched evaluation:
/// one [`Vertex`] record per breakpoint, so a hot loop evaluating
/// thousands of cached frontiers touches only contiguous memory.
///
/// Built once per `(points, alpha)` with [`FrontierTable::new`] or
/// [`PlanFrontier::table`];
/// each [`FrontierTable::decide`] afterwards is a short scan over the
/// `K <= N + 1` breakpoints (frontiers are tiny — a handful of vertices
/// — so the scan beats binary search) followed by the interpolation.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierTable {
    /// Breakpoints, ascending by budget (`vertices[0]` is the all-off
    /// vertex at the floor).
    vertices: Vec<Vertex>,
    tp_s: f64,
    off_w: f64,
    /// `vertices[0].budget_j`, kept inline: a per-user floor lookup over
    /// many tables then never touches the vertex heap.
    min_budget_j: f64,
}

impl FrontierTable {
    /// The frontier table of `points` ([`push_frontier`]'s `(id,
    /// accuracy, power_w)` triples, each drawing more than `off_w`) under
    /// `alpha` for a period of `period_s` seconds.
    #[must_use]
    pub fn new(points: &[(u8, f64, f64)], alpha: f64, period_s: f64, off_w: f64) -> FrontierTable {
        let mut vertices = Vec::with_capacity(points.len() + 1);
        push_frontier(&mut vertices, points, alpha, period_s, off_w);
        FrontierTable {
            vertices,
            tp_s: period_s,
            off_w,
            min_budget_j: off_w * period_s,
        }
    }

    /// The budget floor `P_off * TP` in joules (the first breakpoint).
    #[must_use]
    pub fn min_budget_j(&self) -> f64 {
        self.min_budget_j
    }

    /// Number of frontier breakpoints.
    #[must_use]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Always `false`: a table retains at least the all-off vertex.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The breakpoints, ascending by budget.
    #[must_use]
    pub fn vertices(&self) -> &[Vertex] {
        &self.vertices
    }

    /// The optimal plan at `budget_j` ([`decide_vertices`] over this
    /// table): the one REAP planner every engine runs each period — the
    /// scalar engine, the SoA kernel (over its packed arena) and the
    /// daemon. It is the schedule [`PlanFrontier::solve`] returns for
    /// `budget_j.max(min_budget_j())`, bit for bit.
    ///
    /// Sub-floor (and non-finite) budgets clamp up to the floor, which is
    /// why this is infallible where [`PlanFrontier::solve`] is not: a
    /// starved period plans all-off instead of failing.
    #[must_use]
    pub fn decide(&self, budget_j: f64) -> Schedule {
        decide_vertices(&self.vertices, self.tp_s, self.off_w, budget_j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OperatingPoint;
    use reap_units::Power;

    impl PlanFrontier {
        /// The breakpoint budgets, ascending. The first is the budget floor
        /// `P_off * TP`; the last is the saturation budget beyond which the
        /// objective is constant. Between two adjacent breakpoints the optimal
        /// basis is fixed and the schedule interpolates linearly.
        fn breakpoints(&self) -> Vec<Energy> {
            self.table
                .vertices
                .iter()
                .map(|v| Energy::from_joules(v.budget_j))
                .collect()
        }
    }

    fn point(id: u8, acc: f64, mw: f64) -> OperatingPoint {
        OperatingPoint::new(id, format!("DP{id}"), acc, Power::from_milliwatts(mw)).unwrap()
    }

    fn paper_problem(alpha: f64) -> ReapProblem {
        ReapProblem::builder()
            .alpha(alpha)
            .points(vec![
                point(1, 0.94, 2.76),
                point(2, 0.93, 2.30),
                point(3, 0.92, 1.82),
                point(4, 0.90, 1.64),
                point(5, 0.76, 1.20),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn breakpoints_span_floor_to_saturation() {
        let p = paper_problem(1.0);
        let f = p.frontier();
        let bp = f.breakpoints();
        assert!(bp.len() >= 2);
        assert!((bp[0].joules() - p.min_budget().joules()).abs() < 1e-12);
        // The last breakpoint is where the best-weight point (DP1 at
        // alpha = 1) fills the period: exactly the saturation budget.
        assert!((bp.last().unwrap().joules() - p.saturation_budget().joules()).abs() < 1e-9);
        for w in bp.windows(2) {
            assert!(w[0] < w[1], "breakpoints not ascending: {bp:?}");
        }
    }

    #[test]
    fn matches_simplex_everywhere_including_breakpoints() {
        for alpha in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0] {
            let p = paper_problem(alpha);
            let f = p.frontier();
            let mut budgets: Vec<f64> = vec![0.18, 0.5, 1.0, 3.0, 4.3, 5.0, 6.5, 9.936, 12.0];
            // Exactly at and just around every breakpoint.
            for b in f.breakpoints() {
                budgets.push(b.joules());
                budgets.push(b.joules() + 1e-6);
                budgets.push((b.joules() - 1e-6).max(p.min_budget().joules()));
            }
            for b in budgets {
                let budget = Energy::from_joules(b);
                let simplex = p.solve(budget).unwrap();
                let fast = f.solve(budget).unwrap();
                assert!(
                    (simplex.objective(alpha) - fast.objective(alpha)).abs() < 1e-9,
                    "alpha {alpha} budget {b}: simplex {} vs frontier {}",
                    simplex.objective(alpha),
                    fast.objective(alpha)
                );
                assert!(fast.is_feasible(budget, 1e-6), "infeasible at {b} J");
                assert!(
                    (f.objective_at(budget).unwrap() - fast.objective(alpha)).abs() < 1e-12,
                    "objective_at disagrees with solve at {b} J"
                );
            }
        }
    }

    #[test]
    fn mixes_at_most_two_points_and_respects_regions() {
        let p = paper_problem(1.0);
        let f = p.frontier();
        // Region 1: DP5 alone, duty-cycled.
        let s3 = f.solve(Energy::from_joules(3.0)).unwrap();
        assert_eq!(s3.shares().len(), 1);
        assert_eq!(s3.shares()[0].id, 5);
        assert!(s3.off_time().seconds() > 0.0);
        // Region 2: the paper's 5 J checkpoint mixes DP4/DP5 42%/58%.
        let s5 = f.solve(Energy::from_joules(5.0)).unwrap();
        assert_eq!(s5.shares().len(), 2);
        assert!((s5.fraction_for(4) - 0.42).abs() < 0.02);
        assert!((s5.fraction_for(5) - 0.58).abs() < 0.02);
        // Saturation: DP1 all period, and more budget changes nothing.
        let sat = f.solve(Energy::from_joules(11.0)).unwrap();
        assert!((sat.fraction_for(1) - 1.0).abs() < 1e-9);
        assert_eq!(sat, f.solve(Energy::from_joules(500.0)).unwrap());
    }

    #[test]
    fn rejects_bad_budgets() {
        let f = paper_problem(1.0).frontier();
        assert!(matches!(
            f.solve(Energy::from_joules(0.1)),
            Err(ReapError::BudgetTooSmall { .. })
        ));
        assert!(matches!(
            f.solve(Energy::from_joules(f64::NAN)),
            Err(ReapError::InvalidParameter(_))
        ));
        assert!(f.objective_at(Energy::from_joules(0.1)).is_err());
    }

    #[test]
    fn solve_many_equals_individual_solves() {
        let p = paper_problem(2.0);
        let budgets: Vec<Energy> = [0.18, 1.0, 4.0, 7.0, 12.0]
            .iter()
            .map(|&j| Energy::from_joules(j))
            .collect();
        let batch = p.solve_many(&budgets).unwrap();
        for (b, s) in budgets.iter().zip(&batch) {
            assert_eq!(s, &p.frontier().solve(*b).unwrap());
            assert!((s.objective(2.0) - p.solve(*b).unwrap().objective(2.0)).abs() < 1e-9);
        }
        // One bad budget fails the whole batch.
        assert!(p.solve_many(&[Energy::from_joules(0.01)]).is_err());
    }

    #[test]
    fn zero_weight_frontier_degenerates_to_off() {
        // accuracy 0 with alpha > 0 gives every point zero weight; the
        // frontier collapses to the off vertex and stays optimal (the
        // objective is 0 no matter what runs).
        let p = ReapProblem::builder()
            .alpha(2.0)
            .point(OperatingPoint::new(1, "Z", 0.0, Power::from_milliwatts(1.0)).unwrap())
            .build()
            .unwrap();
        let f = p.frontier();
        let s = f.solve(Energy::from_joules(5.0)).unwrap();
        assert!(s.shares().is_empty());
        assert_eq!(f.objective_at(Energy::from_joules(5.0)).unwrap(), 0.0);
        assert_eq!(
            s.objective(2.0),
            p.solve(Energy::from_joules(5.0)).unwrap().objective(2.0)
        );
    }

    #[test]
    fn table_eval_matches_solve_bit_for_bit() {
        // The table is every engine's REAP planner: its plan must equal
        // the validated solve at the floor-clamped budget exactly, across
        // alphas, budgets, breakpoints, the saturated tail, and sub-floor
        // budgets (which plan all-off).
        for alpha in [0.0, 0.5, 1.0, 2.0, 4.0] {
            let p = paper_problem(alpha);
            let f = p.frontier();
            let breakpoints = f.breakpoints();
            let t = f.clone().table();
            assert_eq!(t.len(), breakpoints.len());
            assert!(!t.is_empty());
            assert_eq!(t.min_budget_j(), p.min_budget().joules());
            let mut budgets: Vec<f64> = vec![0.18, 0.19, 1.0, 3.0, 3.7, 5.0, 9.936, 20.0];
            for b in &breakpoints {
                for d in [-1e-9, 0.0, 1e-9, 1e-7] {
                    budgets.push(b.joules() + d);
                }
            }
            budgets.push(0.0);
            budgets.push(0.05);
            for b in budgets {
                let s = f
                    .solve(Energy::from_joules(b.max(t.min_budget_j())))
                    .unwrap();
                assert_eq!(t.decide(b), s, "plan at {b} J");
            }
            let off = t.decide(0.0);
            assert!(off.shares().is_empty());
            assert_eq!(off.off_s, p.period().seconds());
        }
    }

    #[test]
    fn table_decide_shares_match_solve_allocations() {
        // The decide path must serve exactly the schedule `solve` builds
        // for every valid budget: same shares (post drop rule, ascending
        // id), same off time, same aggregates.
        for alpha in [0.5, 1.0, 2.0] {
            let p = paper_problem(alpha);
            let f = p.frontier();
            let t = f.clone().table();
            let mut budgets: Vec<f64> = vec![0.18, 1.0, 3.0, 5.0, 9.936, 20.0];
            for b in f.breakpoints() {
                budgets.push(b.joules());
                budgets.push(b.joules() + 1e-7);
            }
            for b in budgets {
                let d = t.decide(b);
                assert!(d.shares().len() <= 2);
                let s = f
                    .solve(Energy::from_joules(b.max(t.min_budget_j())))
                    .unwrap();
                assert_eq!(d, s, "plan at {b} J");
            }
        }
    }

    #[test]
    fn raising_alpha_brings_dp1_in_at_3_joules() {
        let p = ReapProblem::builder()
            .points(vec![point(1, 0.94, 2.76), point(5, 0.76, 1.20)])
            .build()
            .unwrap();
        let budget = Energy::from_joules(3.0);
        // alpha = 1 at 3 J: all DP5 (best accuracy per joule).
        let low = p.frontier().solve(budget).unwrap();
        assert!(low.fraction_for(5) > 0.0);
        assert_eq!(low.fraction_for(1), 0.0);
        // Strongly accuracy-weighted: DP1 becomes worth it.
        let high = p.with_alpha(8.0).unwrap().frontier().solve(budget).unwrap();
        assert!(
            high.fraction_for(1) > 0.0,
            "alpha=8 should favour DP1: {high}"
        );
    }

    #[test]
    fn vertex_records_pack_into_32_bytes() {
        // The fleet arena sizes its footprint off this record.
        assert_eq!(std::mem::size_of::<Vertex>(), 32);
        let t = paper_problem(1.0).frontier().table();
        assert_eq!(t.vertices().len(), t.len());
        assert_eq!(t.vertices()[0].budget_j, t.min_budget_j());
        assert!(!t.vertices()[0].has_point);
    }

    #[test]
    fn table_eval_handles_degenerate_frontiers() {
        // Zero-weight frontier: single off vertex, every budget yields
        // the all-off plan (off-state energy only).
        let p = ReapProblem::builder()
            .alpha(2.0)
            .point(OperatingPoint::new(1, "Z", 0.0, Power::from_milliwatts(1.0)).unwrap())
            .build()
            .unwrap();
        let t = p.frontier().table();
        let e = t.decide(5.0).eval;
        assert_eq!(e.accuracy, 0.0);
        assert_eq!(e.active_s, 0.0);
        let s = p.frontier().solve(Energy::from_joules(5.0)).unwrap();
        assert_eq!(e.energy_j, s.energy().joules());
        // NaN budgets clamp to the floor, matching `Energy::max`.
        assert_eq!(t.decide(f64::NAN), t.decide(t.min_budget_j()));
    }

    #[test]
    fn dominated_and_duplicate_points_are_pruned() {
        // DP "bad" costs more power for less weight; "twin" duplicates
        // DP "good"'s power with lower accuracy. Neither may appear.
        let p = ReapProblem::builder()
            .points(vec![
                point(1, 0.90, 1.5),
                OperatingPoint::new(2, "bad", 0.5, Power::from_milliwatts(2.5)).unwrap(),
                OperatingPoint::new(3, "twin", 0.7, Power::from_milliwatts(1.5)).unwrap(),
            ])
            .build()
            .unwrap();
        let f = p.frontier();
        for b in [0.5, 2.0, 4.0, 6.0] {
            let s = f.solve(Energy::from_joules(b)).unwrap();
            for share in s.shares() {
                assert_eq!(share.id, 1, "dominated point ran at {b} J");
            }
            let simplex = p.solve(Energy::from_joules(b)).unwrap();
            assert!((s.objective(1.0) - simplex.objective(1.0)).abs() < 1e-9);
        }
    }
}
