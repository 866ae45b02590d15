//! Two-phase tableau simplex implementation.
//!
//! The tableau layout mirrors the description in Algorithm 1 of the REAP
//! paper: constraint rows followed by a cost row; each iteration finds the
//! pivot column with the largest cost-row entry, finds the pivot row with
//! the minimum ratio test, pivots, and stops when the cost row has no
//! positive entry. The tableau is dense and laid out in 64-byte cache
//! lines: each row starts on a line and is padded to whole lines, and a
//! pivot divides and eliminates only the lines of its pivot row that
//! hold a non-zero cell or the right-hand side, with the bits of a full
//! textbook update.

use crate::error::LpError;
use crate::problem::{ConstraintRow, Direction, LpProblem, Relation};
use crate::solution::LpSolution;

/// Pivot-column selection rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PivotRule {
    /// Dantzig's rule: enter the column with the largest reduced cost.
    /// This is the "largest value in the last row" rule of the paper's
    /// Algorithm 1. Fast in practice, can cycle on degenerate problems
    /// (the solver auto-falls back to Bland when it detects stalling).
    #[default]
    Dantzig,
    /// Bland's rule: enter the lowest-index improving column. Slower but
    /// provably cycle-free.
    Bland,
}

/// Tuning knobs for the simplex solver.
#[derive(Debug, Clone, PartialEq)]
pub struct SimplexOptions {
    /// Hard cap on pivots across both phases. Mirrors the `max. iterations`
    /// input of the paper's Algorithm 1.
    pub max_iterations: usize,
    /// Numerical tolerance used for reduced-cost and ratio tests.
    pub tol: f64,
    /// Initial pivot rule (may degrade to Bland on degeneracy).
    pub pivot_rule: PivotRule,
    /// After this many consecutive degenerate pivots, switch to Bland's
    /// rule until the next non-degenerate pivot, which restores
    /// `pivot_rule`; each phase starts from `pivot_rule`. This still
    /// guarantees termination: a cycle is made of degenerate pivots
    /// only, and once this many have run in a row Bland's rule, which
    /// cannot cycle, picks every pivot until one makes progress.
    pub degenerate_switch: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_iterations: 10_000,
            tol: 1e-9,
            pivot_rule: PivotRule::Dantzig,
            degenerate_switch: 32,
        }
    }
}

/// Cells per line: one 64-byte cache line of `f64`s.
const LINE: usize = 8;

/// Simplex tableau, stored row-major in one buffer of 64-byte lines.
///
/// Each row holds `width` entries: the columns `[structural |
/// slack/surplus | artificial]`, then the right-hand side. The first
/// `basis.len()` rows are the constraint rows; the last row is the cost
/// row, with `c_j - z_j` (reduced cost) in column `j` and `-z` (negated
/// objective value) in the right-hand-side slot. Every column left of
/// the right-hand side may enter the basis: phase 2 runs after the
/// artificial columns are dropped.
///
/// Every row starts on a 64-byte boundary of `cells` (at `origin`, the
/// buffer's first one) and is padded with zeros to `stride`, a whole
/// number of `LINE`s, so each line of a row is one cache line. The
/// readers (`row`, `rows`, `obj`) never see the padding.
///
/// A pivot updates every entry it touches on its own (`x /= piv`, then
/// `x -= f * p`) in the same order as a textbook tableau would, and
/// rustc never contracts `x - f * p` into a fused multiply-add, so the
/// vectorized line loops below produce the same bits as scalar ones. It
/// skips the pivot row's dead lines (every cell ±0, right-hand side
/// elsewhere): there `x - f * (±0)` keeps every non-zero `x` and can
/// only flip a zero's sign, and no zero's sign reaches a non-zero cell,
/// a decision or the right-hand side (see `pivot`). A column is updated
/// only from its own cells and the pivot column's non-zero factors, so
/// dropping columns leaves every other cell as it was.
struct Tableau {
    cells: Vec<f64>,
    origin: usize,
    stride: usize,
    basis: Vec<usize>,
    width: usize,
    /// The start columns of the current pivot row's live lines, then
    /// unused slots.
    live: Vec<usize>,
    /// The rows a pivot eliminates from (non-zero factor), then unused
    /// slots.
    eliminated: Vec<usize>,
}

enum PivotOutcome {
    Optimal,
    Unbounded,
    Pivoted { degenerate: bool },
}

impl Tableau {
    /// A zeroed tableau of `rows` rows of `width` cells, basis empty.
    fn zeroed(rows: usize, width: usize) -> Tableau {
        let stride = width.next_multiple_of(LINE);
        let mut cells = vec![0.0; rows * stride + LINE - 1];
        // An `f64` is 8-byte aligned, so the buffer's first 64-byte
        // boundary lies a whole number of cells in.
        let misaligned = cells.as_ptr().addr() / std::mem::size_of::<f64>() % LINE;
        let origin = (LINE - misaligned) % LINE;
        cells.truncate(origin + rows * stride);
        Tableau {
            cells,
            origin,
            stride,
            basis: Vec::with_capacity(rows.saturating_sub(1)),
            width,
            live: vec![0; stride / LINE],
            eliminated: vec![0; rows],
        }
    }

    /// The initial tableau of `problem` and its first artificial column.
    ///
    /// Rows are normalized to rhs >= 0 (negating a row flips its
    /// relation) and the problem's terms are scattered into a zeroed
    /// tableau; the cost row stays zero until the first `price_out`. A
    /// negated row holds -0.0 wherever its terms leave a zero, as
    /// negating it densely would.
    fn new(problem: &LpProblem) -> (Tableau, usize) {
        let n = problem.num_vars();
        let m = problem.num_constraints();
        let relation = |c: &ConstraintRow| {
            if c.rhs < 0.0 {
                c.relation.flipped()
            } else {
                c.relation
            }
        };
        let rows = &problem.constraints;
        let n_slack = rows.iter().filter(|c| relation(c) != Relation::Eq).count();
        let n_art = rows.iter().filter(|c| relation(c) != Relation::Le).count();
        let artificial_start = n + n_slack;
        let n_total = n + n_slack + n_art;

        let mut tab = Tableau::zeroed(m + 1, n_total + 1);
        let mut slack_cursor = n;
        let mut art_cursor = artificial_start;
        for (i, c) in rows.iter().enumerate() {
            let row = tab.row_mut(i);
            if c.rhs < 0.0 {
                row[..n].fill(-0.0);
                for &(j, a) in &c.terms {
                    row[j] = -a;
                }
                row[n_total] = -c.rhs;
            } else {
                for &(j, a) in &c.terms {
                    row[j] = a;
                }
                row[n_total] = c.rhs;
            }
            let basic = match relation(c) {
                Relation::Le => {
                    row[slack_cursor] = 1.0;
                    slack_cursor += 1;
                    slack_cursor - 1
                }
                Relation::Ge => {
                    row[slack_cursor] = -1.0;
                    slack_cursor += 1;
                    row[art_cursor] = 1.0;
                    art_cursor += 1;
                    art_cursor - 1
                }
                Relation::Eq => {
                    row[art_cursor] = 1.0;
                    art_cursor += 1;
                    art_cursor - 1
                }
            };
            tab.basis.push(basic);
        }
        (tab, artificial_start)
    }

    fn rhs_index(&self) -> usize {
        self.width - 1
    }

    /// The rows, the cost row last, each `stride` cells from a 64-byte
    /// boundary.
    fn grid(&self) -> &[f64] {
        &self.cells[self.origin..]
    }

    /// Row `i` (the cost row at `i == basis.len()`), without its padding.
    fn row(&self, i: usize) -> &[f64] {
        &self.grid()[i * self.stride..][..self.width]
    }

    fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.cells[self.origin + i * self.stride..][..self.width]
    }

    /// The constraint rows, in order.
    fn rows(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.grid()[..self.basis.len() * self.stride]
            .chunks_exact(self.stride)
            .map(|row| &row[..self.width])
    }

    /// The cost row.
    fn obj(&self) -> &[f64] {
        self.row(self.basis.len())
    }

    /// Rebuilds the cost row for the cost `cost(j)` of each column `j`,
    /// pricing out the current basis so all basic columns have zero
    /// reduced cost. `cost` also prices a basic artificial whose column
    /// was dropped (one left in a redundant row after phase 1).
    fn price_out(&mut self, cost: impl Fn(usize) -> f64) {
        let (rows, obj) = self.cells[self.origin..].split_at_mut(self.basis.len() * self.stride);
        let obj = &mut obj[..self.width];
        let (reduced, rhs) = obj.split_at_mut(self.width - 1);
        for (j, r) in reduced.iter_mut().enumerate() {
            *r = cost(j);
        }
        rhs[0] = 0.0;
        for (row, &b) in rows.chunks_exact(self.stride).zip(&self.basis) {
            let cb = cost(b);
            if cb != 0.0 {
                for (o, &a) in obj.iter_mut().zip(row) {
                    *o -= cb * a;
                }
            }
        }
    }

    /// Drops the columns from `keep` up to the right-hand side from every
    /// row, the cost row included, re-packing the rows in place at the
    /// narrower stride with zeroed padding.
    fn drop_columns_from(&mut self, keep: usize) {
        let width = keep + 1;
        let stride = width.next_multiple_of(LINE);
        let grid = &mut self.cells[self.origin..];
        for i in 0..=self.basis.len() {
            let (from, to) = (i * self.stride, i * stride);
            let rhs = grid[from + self.width - 1];
            grid.copy_within(from..from + keep, to);
            grid[to + keep] = rhs;
            grid[to + width..to + stride].fill(0.0);
        }
        self.cells
            .truncate(self.origin + (self.basis.len() + 1) * stride);
        self.width = width;
        self.stride = stride;
    }

    /// Selects the entering column, or `None` at optimality.
    fn entering_column(&self, rule: PivotRule, tol: f64) -> Option<usize> {
        let candidates = &self.obj()[..self.rhs_index()];
        match rule {
            // Ties go to the lowest column: the largest reduced cost
            // above `tol`, then the first column holding it.
            PivotRule::Dantzig => {
                let best = lane_max(candidates, tol);
                if best > tol {
                    first_index_of(candidates, best)
                } else {
                    None
                }
            }
            PivotRule::Bland => candidates.iter().position(|&r| r > tol),
        }
    }

    /// Minimum-ratio test for the entering column `q`. Ties are broken by
    /// the smallest basis index (a lexicographic-flavoured rule that, with
    /// Bland's entering rule, prevents cycling).
    fn leaving_row(&self, q: usize, tol: f64) -> Option<usize> {
        let rhs = self.rhs_index();
        let mut best: Option<(usize, f64)> = None;
        for (i, row) in self.rows().enumerate() {
            let a = row[q];
            if a > tol {
                let ratio = row[rhs] / a;
                match best {
                    None => best = Some((i, ratio)),
                    Some((bi, br)) => {
                        if ratio < br - tol
                            || ((ratio - br).abs() <= tol && self.basis[i] < self.basis[bi])
                        {
                            best = Some((i, ratio));
                        }
                    }
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Performs the pivot on `(p, q)`: normalizes row `p`, eliminates column
    /// `q` from every other row, the cost row included.
    ///
    /// Only the rows with a non-zero factor are updated, and only on the
    /// pivot row's live lines, the lines it divides: each line holding a
    /// non-zero cell, and the line holding the right-hand side. A dead line's pivot cells are ±0, where the full update
    /// would compute `x - f * (±0)`: that is `x` itself for every
    /// non-zero `x` and can flip only a zero's sign. A zero's sign never
    /// reaches a non-zero cell (`±0 - f * p` is `-(f * p)`), a decision
    /// (the scans, the ratio test and every tolerance test treat +0 and
    /// -0 alike) or the right-hand side (its line is always live and
    /// reads only its own cells, the factor and the pivot). So every
    /// status, pivot count, objective and value bit is the full
    /// update's while the tableau stays finite.
    fn pivot(&mut self, p: usize, q: usize) {
        let (stride, rhs_line) = (self.stride, self.rhs_index() / LINE * LINE);
        let grid = &mut self.cells[self.origin..];
        // The lists are built branch-free: each slot is written, and the
        // count moves past it only when it belongs to the list.
        let mut rows = 0;
        for (i, row) in grid.chunks_exact(stride).enumerate() {
            self.eliminated[rows] = i;
            rows += usize::from((row[q] != 0.0) & (i != p));
        }
        let (before, rest) = grid.split_at_mut(p * stride);
        let (pivot_row, after) = rest.split_at_mut(stride);
        let piv = pivot_row[q];
        debug_assert!(piv.abs() > 0.0, "pivot on zero element");
        let mut lines = 0;
        for (start, line) in (0..stride).step_by(LINE).zip(pivot_row.chunks_exact(LINE)) {
            self.live[lines] = start;
            let nonzero = line.iter().fold(false, |any, &x| any | (x != 0.0));
            lines += usize::from(nonzero | (start == rhs_line));
        }
        let live = &self.live[..lines];
        for &start in live {
            for x in &mut pivot_row[start..start + LINE] {
                *x /= piv;
            }
        }
        let pivot_row: &[f64] = pivot_row;
        for &i in &self.eliminated[..rows] {
            let row = if i < p {
                &mut before[i * stride..][..stride]
            } else {
                &mut after[(i - p - 1) * stride..][..stride]
            };
            let factor = row[q];
            for &start in live {
                let pivot_line = load(&pivot_row[start..start + LINE]);
                let cells = &mut row[start..start + LINE];
                let mut line = load(cells);
                for (x, pv) in line.iter_mut().zip(pivot_line) {
                    *x -= factor * pv;
                }
                cells.copy_from_slice(&line);
            }
            row[q] = 0.0; // kill round-off in the eliminated column
        }
        self.basis[p] = q;
    }

    /// One simplex step: choose pivot column and row, pivot.
    fn step(&mut self, rule: PivotRule, tol: f64) -> PivotOutcome {
        let Some(q) = self.entering_column(rule, tol) else {
            return PivotOutcome::Optimal;
        };
        let Some(p) = self.leaving_row(q, tol) else {
            return PivotOutcome::Unbounded;
        };
        let degenerate = self.row(p)[self.rhs_index()].abs() <= tol;
        self.pivot(p, q);
        PivotOutcome::Pivoted { degenerate }
    }
}

/// One line of cells as an array: loading a row's line and the pivot
/// row's before storing lets each line update compile to packed
/// multiply/subtract pairs.
fn load(cells: &[f64]) -> [f64; LINE] {
    let mut line = [0.0; LINE];
    line.copy_from_slice(cells);
    line
}

/// The first index of `values` holding `target`, found a line at a
/// time: one packed compare per line until the line that holds it.
fn first_index_of(values: &[f64], target: f64) -> Option<usize> {
    let mut start = 0;
    for line in values.chunks_exact(LINE) {
        if line.iter().fold(false, |any, &v| any | (v == target)) {
            break;
        }
        start += LINE;
    }
    values[start..]
        .iter()
        .position(|&v| v == target)
        .map(|j| start + j)
}

/// The largest of `values` and `floor`, NaNs skipped: `v > max` keeps
/// each lane's maximum, the select a packed max instruction computes, so
/// the 16 independent lanes vectorize.
fn lane_max(values: &[f64], floor: f64) -> f64 {
    const LANES: usize = 16;
    let mut lanes = [floor; LANES];
    let chunks = values.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (max, &v) in lanes.iter_mut().zip(chunk) {
            *max = if v > *max { v } else { *max };
        }
    }
    lanes
        .iter()
        .chain(tail)
        .fold(floor, |max, &v| if v > max { v } else { max })
}

/// Driver for the pivot loop of one phase.
fn run_phase(
    tab: &mut Tableau,
    options: &SimplexOptions,
    iterations: &mut usize,
) -> Result<bool, LpError> {
    let mut rule = options.pivot_rule;
    let mut degenerate_run = 0usize;
    loop {
        if *iterations >= options.max_iterations {
            return Err(LpError::IterationLimit {
                limit: options.max_iterations,
            });
        }
        match tab.step(rule, options.tol) {
            PivotOutcome::Optimal => return Ok(true),
            PivotOutcome::Unbounded => return Ok(false),
            PivotOutcome::Pivoted { degenerate } => {
                *iterations += 1;
                if degenerate {
                    degenerate_run += 1;
                    if degenerate_run >= options.degenerate_switch {
                        rule = PivotRule::Bland;
                    }
                } else {
                    degenerate_run = 0;
                    rule = options.pivot_rule;
                }
            }
        }
    }
}

/// Solves `problem` with the two-phase simplex method.
pub(crate) fn solve(problem: &LpProblem, options: &SimplexOptions) -> Result<LpSolution, LpError> {
    let n = problem.num_vars();
    let (mut tab, artificial_start) = Tableau::new(problem);
    let n_total = tab.rhs_index();

    let mut iterations = 0usize;

    // --- Phase 1: drive artificials to zero (maximize -sum of artificials).
    if artificial_start < n_total {
        tab.price_out(|j| if j < artificial_start { 0.0 } else { -1.0 });
        let finished = run_phase(&mut tab, options, &mut iterations)?;
        debug_assert!(finished, "phase-1 objective is bounded by construction");
        let z1 = -tab.obj()[tab.rhs_index()];
        if z1 < -options.tol.max(1e-7) {
            return Ok(LpSolution::infeasible(iterations));
        }
        // Drive any residual basic artificials (at value zero) out of the
        // basis so phase 2 cannot be polluted by them. If a row has no
        // eligible pivot it is redundant; the artificial stays basic at 0,
        // which is harmless because artificial columns cannot enter
        // phase 2.
        for i in 0..tab.basis.len() {
            if tab.basis[i] >= artificial_start {
                let pivot_col = tab.row(i)[..artificial_start]
                    .iter()
                    .position(|a| a.abs() > options.tol.max(1e-8));
                if let Some(q) = pivot_col {
                    tab.pivot(i, q);
                    iterations += 1;
                }
            }
        }
        // Phase 2 never reads an artificial column again: drop them.
        tab.drop_columns_from(artificial_start);
    }

    // --- Phase 2: optimize the real objective (internally always maximize).
    let sign = match problem.direction {
        Direction::Maximize => 1.0,
        Direction::Minimize => -1.0,
    };
    tab.price_out(|j| problem.objective.get(j).map_or(0.0, |&o| sign * o));
    let finished = run_phase(&mut tab, options, &mut iterations)?;
    if !finished {
        return Ok(LpSolution::unbounded(iterations));
    }

    // --- Extract the solution.
    let mut x = vec![0.0; n];
    let rhs = tab.rhs_index();
    for (row, &b) in tab.rows().zip(&tab.basis) {
        if b < n {
            x[b] = row[rhs];
        }
    }
    // Clean tiny negative round-off so downstream consumers see x >= 0.
    for v in &mut x {
        if *v < 0.0 && *v > -1e-7 {
            *v = 0.0;
        }
    }
    let objective = sign * -tab.obj()[rhs];
    Ok(LpSolution::optimal(objective, x, iterations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LpStatus, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    fn bits(cells: &[f64]) -> Vec<u64> {
        cells.iter().map(|c| c.to_bits()).collect()
    }

    #[test]
    fn scattered_terms_fill_the_dense_tableau_bit_for_bit() {
        // Explicit -0.0 and +0.0 coefficients in rows negated for a
        // negative right-hand side and in rows kept as written: each
        // structural cell holds the bits a dense copy (or a dense
        // negation) of the row would, and so does the right-hand side.
        let rows: [(&[f64], Relation, f64); 5] = [
            (&[-1.0, -0.0, 0.0, -1.0], Relation::Le, -2.0),
            (&[0.0, 1.0, -0.0, 1.0], Relation::Ge, 1.0),
            (&[1.0, -1.0, 0.0, -0.0], Relation::Eq, -0.0),
            (&[-0.0, 0.0, -2.0, 0.0], Relation::Eq, -3.0),
            (&[0.0, -0.0, 0.0, 0.0], Relation::Ge, -1.0),
        ];
        let mut p = LpProblem::maximize(&[1.0, 2.0, -1.0, 0.5]);
        for &(coeffs, relation, rhs) in &rows {
            p.subject_to(coeffs, relation, rhs).unwrap();
        }
        let (tab, _) = Tableau::new(&p);
        for (i, &(coeffs, _, rhs)) in rows.iter().enumerate() {
            let negate = |a: f64| if rhs < 0.0 { -a } else { a };
            let dense: Vec<f64> = coeffs.iter().map(|&a| negate(a)).collect();
            assert_eq!(bits(&tab.row(i)[..4]), bits(&dense), "row {i}");
            assert_eq!(tab.row(i)[tab.rhs_index()].to_bits(), negate(rhs).to_bits());
        }
    }

    /// A tableau holding `rows` (the cost row last) with `basis`.
    fn tableau(rows: &[&[f64]], basis: Vec<usize>) -> Tableau {
        let mut tab = Tableau::zeroed(rows.len(), rows[0].len());
        for (i, cells) in rows.iter().enumerate() {
            tab.row_mut(i).copy_from_slice(cells);
        }
        tab.basis = basis;
        tab
    }

    /// Every row starts on a 64-byte boundary, the stride is whole lines
    /// covering the width, and every padding cell is +0.0.
    fn assert_line_layout(tab: &Tableau) {
        assert_eq!(tab.stride % LINE, 0);
        assert!(tab.width <= tab.stride && tab.stride < tab.width + LINE);
        let rows = tab.basis.len() + 1;
        assert_eq!(tab.grid().len(), rows * tab.stride);
        for (i, row) in tab.grid().chunks_exact(tab.stride).enumerate() {
            assert_eq!(
                row.as_ptr().addr() % 64,
                0,
                "row {i} is off a 64-byte boundary"
            );
            assert_eq!(
                bits(&row[tab.width..]),
                vec![0; tab.stride - tab.width],
                "row {i}'s padding"
            );
        }
    }

    #[test]
    fn rows_start_on_cache_lines_with_zeroed_padding() {
        // Widths 5 to 28 before the artificial drop and 4 to 19 after it:
        // every residue mod 8 on both sides. Phase 1 runs first, and the
        // padding is dirtied before the drop, which must re-zero it.
        let (mut before, mut after) = ([false; LINE], [false; LINE]);
        for n in 1..=16 {
            let mut p = LpProblem::minimize(&vec![1.0; n]);
            let ones = vec![1.0; n];
            p.subject_to(&ones, Relation::Ge, 2.0).unwrap();
            p.subject_to(&ones, Relation::Le, 9.0).unwrap();
            for j in 0..n / 2 {
                let mut unit = vec![0.0; n];
                unit[j] = 1.0;
                p.subject_to(&unit, Relation::Eq, 0.5).unwrap();
            }
            let (mut tab, artificial_start) = Tableau::new(&p);
            assert_line_layout(&tab);
            before[tab.width % LINE] = true;
            tab.price_out(|j| if j < artificial_start { 0.0 } else { -1.0 });
            let finished = run_phase(&mut tab, &SimplexOptions::default(), &mut 0).unwrap();
            assert!(finished);
            let (width, stride) = (tab.width, tab.stride);
            for row in tab.cells[tab.origin..].chunks_exact_mut(stride) {
                row[width..].fill(-0.0);
            }
            tab.drop_columns_from(artificial_start);
            assert_eq!(tab.width, artificial_start + 1);
            assert_line_layout(&tab);
            after[tab.width % LINE] = true;
        }
        assert_eq!((before, after), ([true; LINE], [true; LINE]));
    }

    #[test]
    fn a_pivot_skips_the_pivot_rows_dead_lines_and_matches_the_full_update_elsewhere() {
        // Width 17: two lines of columns, then the right-hand side alone
        // in the third line. The pivot row's second line holds only +0.0
        // and -0.0, so that line of every row is left as it was; every
        // other cell gets the bits of `x /= piv`, then `x -= f * p`.
        let pivot_row: [f64; 17] = [
            1.5, -4.0, 0.0, 2.0, -0.0, 0.0, 0.25, 3.0, //
            0.0, -0.0, 0.0, 0.0, -0.0, 0.0, 0.0, -0.0, //
            6.0,
        ];
        let row_a: [f64; 17] = [
            2.0, 1.0, -0.0, 0.5, 0.0, 7.0, -0.0, 1.0, //
            3.0, -0.0, -0.0, -2.5, -0.0, 1e-300, 0.0, 9.0, //
            4.0,
        ];
        let row_b: [f64; 17] = [
            0.0, 5.0, 1.0, -1.0, 2.0, 0.0, 0.0, 0.0, //
            -1.0, 4.0, -0.0, 0.0, 0.0, 0.0, 8.0, -0.0, //
            3.0,
        ];
        let cost: [f64; 17] = [
            -0.0, 3.0, 0.0, -2.0, 0.0, 1.0, -0.0, 0.5, //
            -0.0, 0.0, 1.0, -0.0, 2.0, 0.0, -0.0, 0.0, //
            -5.0,
        ];
        let rows: [&[f64]; 4] = [&row_a, &pivot_row, &row_b, &cost];
        let mut tab = tableau(&rows, vec![17, 18, 19]);
        let (p, q) = (1, 1);
        tab.pivot(p, q);
        assert_eq!(tab.basis, [17, 1, 19]);
        // The right-hand side's line carries padding through the update:
        // it stays zero, of either sign.
        for row in tab.grid().chunks_exact(tab.stride) {
            assert!(row[17..].iter().all(|&x| x == 0.0));
        }

        let piv = pivot_row[q];
        let divided: Vec<f64> = pivot_row.iter().map(|&x| x / piv).collect();
        for (i, &before) in rows.iter().enumerate() {
            let mut full: Vec<f64> = before.to_vec();
            if i == p {
                full.clone_from(&divided);
            } else if before[q] != 0.0 {
                for (x, &pv) in full.iter_mut().zip(&divided) {
                    *x -= before[q] * pv;
                }
                full[q] = 0.0;
            }
            let after = tab.row(i);
            for j in (0..8).chain([16]) {
                assert_eq!(after[j].to_bits(), full[j].to_bits(), "row {i}, column {j}");
            }
            for j in 8..16 {
                assert_eq!(
                    after[j].to_bits(),
                    before[j].to_bits(),
                    "row {i}, column {j}"
                );
                assert_eq!(
                    after[j], full[j],
                    "row {i}, column {j} moved off zero's sign"
                );
            }
        }
        // The full update flips the sign of a zero on the dead line: the
        // skip is not a no-op there, only a sign-of-zero change.
        assert_eq!(tab.row(0)[10].to_bits(), (-0.0f64).to_bits());
        assert_eq!((row_a[10] - row_a[q] * divided[10]).to_bits(), 0);
    }

    #[test]
    fn dropping_the_artificial_columns_keeps_every_other_cell() {
        let mut p = LpProblem::minimize(&[2.0, 3.0, 1.0]);
        p.subject_to(&[1.0, 1.0, 1.0], Relation::Ge, 10.0).unwrap();
        p.subject_to(&[1.0, 0.0, -1.0], Relation::Eq, 3.0).unwrap();
        p.subject_to(&[0.0, 1.0, 1.0], Relation::Le, 8.0).unwrap();
        let (mut tab, artificial_start) = Tableau::new(&p);
        tab.price_out(|j| if j < artificial_start { 0.0 } else { -1.0 });
        let before: Vec<Vec<f64>> = (0..4).map(|i| tab.row(i).to_vec()).collect();
        tab.drop_columns_from(artificial_start);
        assert_eq!(tab.width, artificial_start + 1);
        assert_line_layout(&tab);
        for (i, old) in before.iter().enumerate() {
            let new = tab.row(i);
            assert_eq!(
                bits(&old[..artificial_start]),
                bits(&new[..artificial_start])
            );
            assert_eq!(
                old[old.len() - 1].to_bits(),
                new[artificial_start].to_bits()
            );
        }
    }

    #[test]
    fn dantzig_enters_the_first_column_of_the_largest_reduced_cost() {
        // 19 reduced costs: the lanes and the tail both see the maximum,
        // NaN and values at or below the tolerance never enter.
        let mut reduced = vec![0.5; 19];
        reduced[3] = f64::NAN;
        reduced[5] = 2.0;
        reduced[11] = 2.0;
        reduced[17] = 2.0;
        let mut cells = reduced.clone();
        cells.push(0.0);
        let tab = tableau(&[&cells], Vec::new());
        assert_eq!(tab.entering_column(PivotRule::Dantzig, 1e-9), Some(5));
        assert_eq!(tab.entering_column(PivotRule::Bland, 1e-9), Some(0));
        assert_eq!(tab.entering_column(PivotRule::Dantzig, 2.0), None);
        assert_eq!(tab.entering_column(PivotRule::Dantzig, f64::NAN), None);
        // The first column of the largest reduced cost in the second
        // line, then in the tail.
        cells[5] = 0.5;
        assert_eq!(
            tableau(&[&cells], Vec::new()).entering_column(PivotRule::Dantzig, 1e-9),
            Some(11)
        );
        cells[11] = 0.5;
        assert_eq!(
            tableau(&[&cells], Vec::new()).entering_column(PivotRule::Dantzig, 1e-9),
            Some(17)
        );
        let tail_only = tableau(&[&[0.0, -1.0, 3.0, 0.0]], Vec::new());
        assert_eq!(tail_only.entering_column(PivotRule::Dantzig, 1e-9), Some(2));
        let optimal = tableau(&[&[-0.0, 1e-9, -3.0, 0.0]], Vec::new());
        assert_eq!(optimal.entering_column(PivotRule::Dantzig, 1e-9), None);
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y ; x <= 4 ; 2y <= 12 ; 3x + 2y <= 18 -> z* = 36 at (2, 6).
        let mut p = LpProblem::maximize(&[3.0, 5.0]);
        p.subject_to(&[1.0, 0.0], Relation::Le, 4.0).unwrap();
        p.subject_to(&[0.0, 2.0], Relation::Le, 12.0).unwrap();
        p.subject_to(&[3.0, 2.0], Relation::Le, 18.0).unwrap();
        let s = p.solve().unwrap();
        assert_eq!(s.status(), LpStatus::Optimal);
        assert_close(s.objective(), 36.0);
        assert_close(s.values()[0], 2.0);
        assert_close(s.values()[1], 6.0);
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y ; x + y >= 10 ; x >= 3 -> z* = 2*10? No:
        // with x >= 3, cheapest is x = 10, y = 0 -> z = 20.
        let mut p = LpProblem::minimize(&[2.0, 3.0]);
        p.subject_to(&[1.0, 1.0], Relation::Ge, 10.0).unwrap();
        p.subject_to(&[1.0, 0.0], Relation::Ge, 3.0).unwrap();
        let s = p.solve().unwrap();
        assert_eq!(s.status(), LpStatus::Optimal);
        assert_close(s.objective(), 20.0);
        assert_close(s.values()[0], 10.0);
    }

    #[test]
    fn equality_constraints_solved_via_phase_one() {
        // max x + 2y ; x + y = 5 ; x <= 3 -> optimum (0, 5), z = 10.
        let mut p = LpProblem::maximize(&[1.0, 2.0]);
        p.subject_to(&[1.0, 1.0], Relation::Eq, 5.0).unwrap();
        p.subject_to(&[1.0, 0.0], Relation::Le, 3.0).unwrap();
        let s = p.solve().unwrap();
        assert_eq!(s.status(), LpStatus::Optimal);
        assert_close(s.objective(), 10.0);
        assert_close(s.values()[0], 0.0);
        assert_close(s.values()[1], 5.0);
    }

    #[test]
    fn infeasible_detected() {
        // x <= 1 and x >= 2 cannot both hold.
        let mut p = LpProblem::maximize(&[1.0]);
        p.subject_to(&[1.0], Relation::Le, 1.0).unwrap();
        p.subject_to(&[1.0], Relation::Ge, 2.0).unwrap();
        let s = p.solve().unwrap();
        assert_eq!(s.status(), LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // max x with only x >= 1: unbounded above.
        let mut p = LpProblem::maximize(&[1.0]);
        p.subject_to(&[1.0], Relation::Ge, 1.0).unwrap();
        let s = p.solve().unwrap();
        assert_eq!(s.status(), LpStatus::Unbounded);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // -x - y <= -2  is  x + y >= 2.
        let mut p = LpProblem::minimize(&[1.0, 1.0]);
        p.subject_to(&[-1.0, -1.0], Relation::Le, -2.0).unwrap();
        let s = p.solve().unwrap();
        assert_eq!(s.status(), LpStatus::Optimal);
        assert_close(s.objective(), 2.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate LP (multiple constraints active at the origin
        // vertex). Beale's cycling example adapted to our API.
        let mut p = LpProblem::maximize(&[0.75, -150.0, 0.02, -6.0]);
        p.subject_to(&[0.25, -60.0, -0.04, 9.0], Relation::Le, 0.0)
            .unwrap();
        p.subject_to(&[0.5, -90.0, -0.02, 3.0], Relation::Le, 0.0)
            .unwrap();
        p.subject_to(&[0.0, 0.0, 1.0, 0.0], Relation::Le, 1.0)
            .unwrap();
        let s = p.solve().unwrap();
        assert_eq!(s.status(), LpStatus::Optimal);
        assert_close(s.objective(), 0.05);
    }

    #[test]
    fn bland_rule_finds_same_optimum() {
        let mut p = LpProblem::maximize(&[3.0, 5.0]);
        p.subject_to(&[1.0, 0.0], Relation::Le, 4.0).unwrap();
        p.subject_to(&[0.0, 2.0], Relation::Le, 12.0).unwrap();
        p.subject_to(&[3.0, 2.0], Relation::Le, 18.0).unwrap();
        let opts = SimplexOptions {
            pivot_rule: PivotRule::Bland,
            ..SimplexOptions::default()
        };
        let s = p.solve_with(&opts).unwrap();
        assert_close(s.objective(), 36.0);
    }

    #[test]
    fn iteration_limit_is_an_error() {
        let mut p = LpProblem::maximize(&[3.0, 5.0]);
        p.subject_to(&[1.0, 1.0], Relation::Le, 4.0).unwrap();
        let opts = SimplexOptions {
            max_iterations: 0,
            ..SimplexOptions::default()
        };
        assert_eq!(
            p.solve_with(&opts).unwrap_err(),
            LpError::IterationLimit { limit: 0 }
        );
    }

    #[test]
    fn redundant_equality_rows_are_tolerated() {
        // Duplicate equality rows leave a basic artificial at zero in a
        // redundant row; the solver must still find the optimum.
        let mut p = LpProblem::maximize(&[1.0, 1.0]);
        p.subject_to(&[1.0, 1.0], Relation::Eq, 3.0).unwrap();
        p.subject_to(&[2.0, 2.0], Relation::Eq, 6.0).unwrap();
        let s = p.solve().unwrap();
        assert_eq!(s.status(), LpStatus::Optimal);
        assert_close(s.objective(), 3.0);
    }

    #[test]
    fn reap_shaped_problem_matches_paper_checkpoint() {
        // The REAP LP at Eb = 5 J, alpha = 1 with the paper's five design
        // points: the optimum mixes DP4 (42%) and DP5 (58%) of the hour.
        // Variables: [t1..t5, t_off] in seconds; powers in mW; budget in mJ.
        let tp = 3600.0;
        let acc = [94.0, 93.0, 92.0, 90.0, 76.0];
        let pw = [2.76, 2.30, 1.82, 1.64, 1.20];
        let p_off = 0.05;
        let mut obj: Vec<f64> = acc.iter().map(|a| a / tp).collect();
        obj.push(0.0); // t_off contributes nothing
        let mut p = LpProblem::maximize(&obj);
        p.subject_to(&[1.0, 1.0, 1.0, 1.0, 1.0, 1.0], Relation::Eq, tp)
            .unwrap();
        p.subject_to(
            &[pw[0], pw[1], pw[2], pw[3], pw[4], p_off],
            Relation::Le,
            5000.0,
        )
        .unwrap();
        let s = p.solve().unwrap();
        assert_eq!(s.status(), LpStatus::Optimal);
        let t4 = s.values()[3] / tp;
        let t5 = s.values()[4] / tp;
        assert!((t4 - 0.42).abs() < 0.02, "t4 fraction = {t4}");
        assert!((t5 - 0.58).abs() < 0.02, "t5 fraction = {t5}");
        // No other DP is used and the device never turns off at 5 J.
        assert!(s.values()[0] < 1e-6);
        assert!(s.values()[1] < 1e-6);
        assert!(s.values()[2] < 1e-6);
        assert!(s.values()[5] < 1e-6);
    }

    #[test]
    fn solution_is_feasible_for_original_problem() {
        let mut p = LpProblem::maximize(&[1.0, 4.0, 2.0]);
        p.subject_to(&[5.0, 2.0, 2.0], Relation::Le, 145.0).unwrap();
        p.subject_to(&[4.0, 8.0, -8.0], Relation::Le, 260.0)
            .unwrap();
        p.subject_to(&[1.0, 1.0, 4.0], Relation::Le, 190.0).unwrap();
        let s = p.solve().unwrap();
        assert_eq!(s.status(), LpStatus::Optimal);
        assert!(p.is_feasible(s.values(), 1e-6));
        assert_close(p.objective_value(s.values()), s.objective());
    }
}
