//! A weighted **Unate Covering Problem** (UCP) solver.
//!
//! The second phase of the DAC-2002 synthesis algorithm selects, from the
//! candidate arc implementations `S`, a minimum-cost subset that implements
//! every constraint arc. The paper maps this to a weighted UCP — rows are
//! constraint arcs, columns are candidate implementations, the entry
//! `(i, j)` is 1 when candidate `j` implements arc `i`, and each column is
//! weighted by its implementation cost — and points at the state-of-the-art
//! solvers of Goldberg et al. (ref. \[4\], branch-and-bound with "negative
//! thinking") and Liao/Devadas (ref. \[8\], LP lower bounds). This crate is a
//! from-scratch solver in that tradition:
//!
//! * the classic **reductions** — essential columns, row dominance, column
//!   dominance — applied to closure at every search node;
//! * a **maximal-independent-set lower bound** for pruning;
//! * best-first **branch-and-bound** on the hardest row;
//! * a **greedy** heuristic (used both standalone and as the initial upper
//!   bound) and an **exhaustive oracle** for testing.
//!
//! # Examples
//!
//! ```
//! use ccs_covering::{CoverMatrix, Search};
//! use ccs_exec::Executor;
//!
//! // Rows 0..3; three candidate columns.
//! let mut m = CoverMatrix::new(3);
//! m.add_column(5.0, [0, 1]);
//! m.add_column(5.0, [1, 2]);
//! m.add_column(7.0, [0, 1, 2]);
//! let (cover, stats) = m
//!     .solve(Search::Complete { seed: None }, &Executor::serial())
//!     .unwrap();
//! assert_eq!(cover.cost, 7.0);
//! assert_eq!(cover.columns, vec![2]);
//! assert!(stats.proven_optimal);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;

use bitset::BitSet;
use ccs_exec::{ExecStats, Executor};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Errors returned by the covering solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum CoverError {
    /// A row is covered by no column; no cover exists. Carries the row id.
    Infeasible(usize),
    /// A column weight was non-finite or not strictly positive.
    InvalidWeight(f64),
    /// A column referenced a row outside `0..n_rows`.
    RowOutOfRange(usize),
    /// The exhaustive oracle refuses instances with too many columns.
    TooLarge(usize),
}

impl fmt::Display for CoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverError::Infeasible(r) => write!(f, "row {r} is covered by no column"),
            CoverError::InvalidWeight(w) => {
                write!(f, "column weight {w} is not strictly positive and finite")
            }
            CoverError::RowOutOfRange(r) => write!(f, "row index {r} out of range"),
            CoverError::TooLarge(c) => {
                write!(f, "exhaustive solver limited to 25 columns, got {c}")
            }
        }
    }
}

impl std::error::Error for CoverError {}

/// A solution: the selected columns (ascending) and their total weight.
#[derive(Debug, Clone, PartialEq)]
pub struct Cover {
    /// Indices of selected columns, in ascending order.
    pub columns: Vec<usize>,
    /// Sum of the selected columns' weights.
    pub cost: f64,
}

/// How far [`CoverMatrix::solve`] searches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Search<'a> {
    /// Search to completion; the returned cover is proven optimal.
    ///
    /// A `seed` warm-starts the search from a known cover: it must be a
    /// feasible cover of the matrix (e.g. the selection from a previous
    /// solve over a lightly edited instance). Its cost `B` is an upper
    /// bound on the optimum, so subtrees whose lower bound already
    /// exceeds `B` are pruned without waiting for the incumbent to
    /// tighten — on a near-unchanged matrix most of the tree dies at
    /// the root. Seed prunes are decided at deterministic expansion
    /// time, never at racy pickup time.
    ///
    /// **Result-identical to the unseeded search**: the seed influences
    /// pruning only, never the incumbent, and the extra prune is strict
    /// (`cost + lb > B`), so it can only remove subtrees in which every
    /// solution costs strictly more than the known cover — never the
    /// first-visited optimum the unseeded search would return. The one
    /// place this could diverge is a pruned subtree whose bound lies
    /// within floating-point noise of `B` (a tight bound on the
    /// optimum's own path evaluates a few ulps above `B` on large
    /// weights); the search tracks the minimum pruned bound and re-runs
    /// unseeded on the same executor whenever a prune lands inside a
    /// dead band that scales with `B`'s magnitude, so the guarantee
    /// holds unconditionally. Only [`SolveStats`] may differ (fewer
    /// nodes, `seed_prunes > 0`). An infeasible or invalid seed is not
    /// an error: it is ignored.
    Complete {
        /// Columns of a known feasible cover, or `None` for a cold
        /// search.
        seed: Option<&'a [usize]>,
    },
    /// Anytime search: explore at most this many branch-and-bound
    /// nodes and return the best cover found;
    /// [`SolveStats::proven_optimal`] reports whether the search
    /// completed. The budget is split across subtree tasks in
    /// deterministic contiguous slices, so the result at a given budget
    /// is identical at every thread count, and a bigger budget never
    /// returns a worse cover. At budget 0 the greedy cover comes back.
    Budget(u64),
}

/// Search statistics from the exact solver.
///
/// Every field is identical at every thread count except
/// [`exec`](Self::exec) and [`dominance_ns`](Self::dominance_ns), which
/// depend on scheduling and wall clocks; equality (`PartialEq`)
/// compares only the deterministic fields so outcome comparisons stay
/// meaningful across executors. [`counters`](Self::counters) names the
/// deterministic counts once for every report that carries them.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveStats {
    /// Branch-and-bound nodes visited (expansion nodes plus the nodes
    /// of every subtree the deterministic fold kept).
    pub nodes: u64,
    /// Columns selected because they were essential.
    pub essentials: u64,
    /// Columns removed by column dominance.
    pub dominated_columns: u64,
    /// Rows removed by row dominance.
    pub dominated_rows: u64,
    /// Subtrees pruned by the lower bound.
    pub bound_prunes: u64,
    /// Subtrees pruned by the warm-start seed bound (0 unless the solve
    /// was seeded via [`Search::Complete`]).
    pub seed_prunes: u64,
    /// Times the incumbent (best cover so far) improved during the
    /// search — 0 means the greedy seed was already optimal.
    pub incumbent_updates: u64,
    /// Independent subtree tasks the root expansion produced for the
    /// parallel sweep. The split runs at every thread count (serial
    /// included), so this is a property of the instance, not of the
    /// executor.
    pub subtrees: u64,
    /// Strict improvements of the global best during the fixed-order
    /// fold of subtree results.
    pub shared_bound_tightenings: u64,
    /// Executor telemetry of the subtree sweep (tasks, steals, busy
    /// time), summed over a discarded seeded sweep when the search
    /// re-ran cold. Its task count is fixed for a given thread count;
    /// the rest is schedule-dependent. Ignored by `PartialEq`.
    pub exec: ExecStats,
    /// Wall-clock nanoseconds spent in the dominance reductions.
    /// Schedule-dependent; ignored by `PartialEq`.
    pub dominance_ns: u64,
    /// `true` when the search ran to completion — the returned cover is
    /// proven optimal. `false` only under [`Search::Budget`] after
    /// hitting the node budget.
    pub proven_optimal: bool,
    /// Cost of the [greedy](CoverMatrix::solve_greedy) cover the search
    /// starts from as its first incumbent.
    pub greedy_cost: f64,
}

impl SolveStats {
    /// The deterministic counters under their metric names: the one
    /// list every report of these counts derives from. `proven_optimal`,
    /// `greedy_cost` and the schedule-dependent fields stay out.
    pub fn counters(&self) -> [(&'static str, u64); 9] {
        [
            ("covering.bnb_nodes", self.nodes),
            ("covering.essentials", self.essentials),
            ("covering.dominated_columns", self.dominated_columns),
            ("covering.dominated_rows", self.dominated_rows),
            ("covering.bound_prunes", self.bound_prunes),
            ("covering.seed_prunes", self.seed_prunes),
            ("covering.incumbent_updates", self.incumbent_updates),
            ("covering.subtrees", self.subtrees),
            (
                "covering.shared_bound_tightenings",
                self.shared_bound_tightenings,
            ),
        ]
    }
}

impl PartialEq for SolveStats {
    fn eq(&self, other: &Self) -> bool {
        // `exec` and `dominance_ns` are deliberately left
        // out: they vary run-to-run, and two solves that explored the
        // same tree must compare equal.
        self.nodes == other.nodes
            && self.essentials == other.essentials
            && self.dominated_columns == other.dominated_columns
            && self.dominated_rows == other.dominated_rows
            && self.bound_prunes == other.bound_prunes
            && self.seed_prunes == other.seed_prunes
            && self.incumbent_updates == other.incumbent_updates
            && self.subtrees == other.subtrees
            && self.shared_bound_tightenings == other.shared_bound_tightenings
            && self.proven_optimal == other.proven_optimal
            && self.greedy_cost.to_bits() == other.greedy_cost.to_bits()
    }
}

impl Eq for SolveStats {}

/// A weighted unate covering matrix.
///
/// Rows are the objects to cover (constraint arcs); columns are weighted
/// candidate sets (candidate arc implementations).
#[derive(Debug, Clone)]
pub struct CoverMatrix {
    n_rows: usize,
    weights: Vec<f64>,
    cols: Vec<BitSet>,
}

impl CoverMatrix {
    /// Creates a matrix with `n_rows` rows and no columns.
    pub fn new(n_rows: usize) -> Self {
        CoverMatrix {
            n_rows,
            weights: Vec::new(),
            cols: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// Adds a column covering `rows` with the given `weight`; returns its
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not strictly positive and finite, or a row is
    /// out of range (these are programming errors when assembling the
    /// matrix, not runtime conditions).
    pub fn add_column<I: IntoIterator<Item = usize>>(&mut self, weight: f64, rows: I) -> usize {
        assert!(
            weight.is_finite() && weight > 0.0,
            "column weight must be strictly positive and finite, got {weight}"
        );
        let mut set = BitSet::new(self.n_rows);
        for r in rows {
            assert!(r < self.n_rows, "row {r} out of range {}", self.n_rows);
            set.insert(r);
        }
        self.cols.push(set);
        self.weights.push(weight);
        self.cols.len() - 1
    }

    /// The weight of column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not a column index.
    pub fn weight(&self, c: usize) -> f64 {
        self.weights[c]
    }

    /// The rows covered by column `c`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not a column index.
    pub fn rows_of(&self, c: usize) -> Vec<usize> {
        self.cols[c].iter().collect()
    }

    /// Returns a copy of the matrix without the `excluded` columns, plus
    /// the mapping from new column indices back to the original ones
    /// (`map[new] == old`).
    ///
    /// This is the exclusion filter used by resilience analysis: fragile
    /// candidates (e.g. high-order mergings whose shared trunk is a single
    /// point of failure) are removed and the covering re-solved over the
    /// remaining columns.
    ///
    /// # Panics
    ///
    /// Panics if an excluded index is not a column (a programming error
    /// when assembling the exclusion set, not a runtime condition).
    pub fn without_columns(&self, excluded: &[usize]) -> (CoverMatrix, Vec<usize>) {
        let mut drop = vec![false; self.cols.len()];
        for &c in excluded {
            assert!(
                c < self.cols.len(),
                "column {c} out of range {}",
                self.cols.len()
            );
            drop[c] = true;
        }
        let mut m = CoverMatrix::new(self.n_rows);
        let mut map = Vec::new();
        for (c, set) in self.cols.iter().enumerate() {
            if !drop[c] {
                m.cols.push(set.clone());
                m.weights.push(self.weights[c]);
                map.push(c);
            }
        }
        (m, map)
    }

    /// Checks that `columns` covers every row; returns the total cost.
    ///
    /// # Errors
    ///
    /// [`CoverError::Infeasible`] naming the first uncovered row;
    /// [`CoverError::RowOutOfRange`] if a column index is invalid (reported
    /// with the offending index).
    pub fn validate_cover(&self, columns: &[usize]) -> Result<f64, CoverError> {
        let mut covered = BitSet::new(self.n_rows);
        let mut cost = 0.0;
        for &c in columns {
            if c >= self.cols.len() {
                return Err(CoverError::RowOutOfRange(c));
            }
            covered.union(&self.cols[c]);
            cost += self.weights[c];
        }
        for r in 0..self.n_rows {
            if !covered.contains(r) {
                return Err(CoverError::Infeasible(r));
            }
        }
        Ok(cost)
    }

    /// Minimum-weight cover by branch-and-bound, with the subtree sweep
    /// run on `exec`.
    ///
    /// [`Search::Complete`] runs the search to completion, so the cover
    /// is proven optimal; [`Search::Budget`] returns the best cover found
    /// within a node budget (see the variants for the seed and budget
    /// semantics). The cover and every deterministic [`SolveStats`]
    /// field are byte-identical at every thread count; only wall clock,
    /// [`exec`](SolveStats::exec) and
    /// [`dominance_ns`](SolveStats::dominance_ns) vary.
    ///
    /// # Errors
    ///
    /// [`CoverError::Infeasible`] when some row has no covering column.
    pub fn solve(
        &self,
        search: Search<'_>,
        exec: &Executor,
    ) -> Result<(Cover, SolveStats), CoverError> {
        match search {
            Search::Complete { seed } => {
                let bound = seed
                    .and_then(|cols| self.validate_cover(cols).ok())
                    .filter(|b| b.is_finite());
                self.solve_inner(u64::MAX, bound, exec)
            }
            Search::Budget(node_limit) => self.solve_inner(node_limit, None, exec),
        }
    }

    /// The shared search pipeline: a serial, deterministic expansion of
    /// the root into independent subtree tasks, a parallel sweep of the
    /// tasks over `exec` (pruned racily against a shared incumbent), and
    /// a fixed-order fold of the results. The split-and-fold runs at
    /// every thread count — serial included — so cross-thread identity
    /// is structural, not a special case.
    fn solve_inner(
        &self,
        node_limit: u64,
        seed_bound: Option<f64>,
        exec: &Executor,
    ) -> Result<(Cover, SolveStats), CoverError> {
        // Greedy upper bound seeds the search (and guarantees a valid
        // result even at node_limit = 0).
        let greedy = self.solve_greedy()?;
        let mut ctx = SearchCtx::new(self, node_limit, seed_bound, (greedy.cost, greedy.columns));
        let tasks = self.expand_tasks(&mut ctx);
        let SearchCtx {
            best: start,
            mut stats,
            budget: remaining,
            seed,
            ..
        } = ctx;
        stats.subtrees = tasks.len() as u64;
        stats.greedy_cost = greedy.cost;
        let mut min_pruned = seed.as_ref().map_or(f64::INFINITY, |s| s.min_pruned);
        let mut best = start.clone();

        if !tasks.is_empty() {
            // Deterministic per-subtree node budgets: contiguous
            // near-equal slices of whatever the expansion left, so how
            // far a given subtree may search depends only on
            // (instance, node_limit), never on scheduling. Slice sizes
            // are monotone in the total, preserving the anytime
            // guarantee that a bigger budget never returns a worse
            // cover.
            let budgets: Vec<u64> = if node_limit == u64::MAX {
                vec![u64::MAX; tasks.len()]
            } else {
                let mut b = vec![0u64; tasks.len()];
                let ranges = ccs_exec::chunk_ranges(remaining as usize, tasks.len());
                for (i, (s, e)) in ranges.into_iter().enumerate() {
                    b[i] = (e - s) as u64;
                }
                b
            };
            // The shared incumbent starts from the expansion-phase best
            // — never from the warm-start seed, whose cost can exceed
            // what a budgeted search will actually find, which would
            // break the skip ⟹ exclude invariant below.
            let shared = SharedBound::new(start.0);
            let (mut results, exec_stats) = exec.par_map_stats(&tasks, |i, frame| {
                // Racy pickup skip. Safe because the shared bound only
                // tightens and every published value is the cost of a
                // feasible cover, so at any instant it is >= the final
                // cost `C`: a skipped task has `bound > S + band(S) >=
                // C + band(C)` and is exactly the kind the fold below
                // discards. A stale read can only fail to skip — the
                // fold then discards the wasted result — never skip a
                // subtree the fold would keep.
                let s_now = shared.get();
                if frame.bound > s_now + band(s_now) {
                    return SubtreeOut::skipped();
                }
                self.run_subtree(frame, budgets[i], &start, seed_bound, Some(&shared))
            });
            stats.exec = exec_stats;

            // Final cost is an order-free min over whatever ran, so it
            // is the same value under any schedule (skipped tasks
            // provably contain nothing below it).
            let mut c_final = start.0;
            for o in &results {
                if let Some((c, _)) = &o.best {
                    c_final = c_final.min(*c);
                }
            }
            // Safety net for the invariant the skip relies on: a task
            // that was racily skipped but would be kept by the fold is
            // unreachable by construction, but if it ever happened we
            // re-run it serially here (deterministically, in task
            // order) rather than silently merging a hole.
            for (i, o) in results.iter_mut().enumerate() {
                if !o.ran && tasks[i].bound <= c_final + band(c_final) {
                    debug_assert!(false, "racy skip dropped a fold-included subtree");
                    *o = self.run_subtree(&tasks[i], budgets[i], &start, seed_bound, None);
                    if let Some((c, _)) = &o.best {
                        c_final = c_final.min(*c);
                    }
                }
            }

            // Fixed-order fold: task index order, independent of which
            // worker finished when. A subtree is merged iff its
            // deterministic bound admits the final cost; everything
            // else — skipped or ran-and-wasted — is recorded as one
            // fold-level bound prune so the merged stats are identical
            // under every schedule.
            let inc_band = band(c_final);
            for (i, o) in results.iter().enumerate() {
                if tasks[i].bound > c_final + inc_band {
                    stats.bound_prunes += 1;
                    continue;
                }
                debug_assert!(o.ran, "included subtree must have run");
                stats.nodes += o.stats.nodes;
                stats.essentials += o.stats.essentials;
                stats.dominated_columns += o.stats.dominated_columns;
                stats.dominated_rows += o.stats.dominated_rows;
                stats.bound_prunes += o.stats.bound_prunes;
                stats.seed_prunes += o.stats.seed_prunes;
                stats.incumbent_updates += o.stats.incumbent_updates;
                stats.dominance_ns += o.stats.dominance_ns;
                stats.proven_optimal &= o.stats.proven_optimal;
                min_pruned = min_pruned.min(o.min_pruned);
                if let Some((c, cols)) = &o.best {
                    if *c < best.0 {
                        best = (*c, cols.clone());
                        stats.shared_bound_tightenings += 1;
                    }
                }
            }
        }

        if let Some(b) = seed_bound {
            // Dead band around `B` where a seed prune is not trustworthy:
            // `cost + lb` carries a few ulps of rounding error, so a
            // subtree on the optimum's own path (where the dual-ascent
            // bound is tight and `cost + lb` is mathematically exactly
            // `B`) can evaluate fractionally above `B` and be pruned.
            // The band must therefore scale with the bound's magnitude —
            // an absolute epsilon silently breaks on million-scale
            // weights. Any prune inside the band discards the seeded
            // search entirely and redoes it cold, so identity with the
            // unseeded solve is unconditional. (Subtrees the fold
            // excluded can keep their seed prunes to themselves: their
            // bound proves they hold nothing at or below the final
            // cost, so no prune inside them can have hidden it.)
            if min_pruned <= b + band(b) {
                let (cover, mut cold) = self.solve_inner(node_limit, None, exec)?;
                cold.exec.merge(&stats.exec);
                return Ok((cover, cold));
            }
        }
        let (cost, mut columns) = best;
        columns.sort_unstable();
        columns.dedup();
        // Recompute the cost from the final column set for exactness.
        let cost_check: f64 = columns.iter().map(|&c| self.weights[c]).sum();
        debug_assert!((cost - cost_check).abs() < 1e-9 * cost_check.abs().max(1.0));
        Ok((
            Cover {
                columns,
                cost: cost_check,
            },
            stats,
        ))
    }

    /// Greedy heuristic: repeatedly select the column minimizing
    /// `weight / newly-covered-rows`.
    ///
    /// The result is a valid cover (or an error), typically within a log
    /// factor of optimal; used as the exact solver's initial upper bound
    /// and as a baseline in benchmarks.
    ///
    /// # Errors
    ///
    /// [`CoverError::Infeasible`] when some row has no covering column.
    pub fn solve_greedy(&self) -> Result<Cover, CoverError> {
        self.check_feasible()?;
        let mut uncovered = BitSet::full(self.n_rows);
        let mut chosen = Vec::new();
        let mut cost = 0.0;
        while !uncovered.is_empty() {
            let mut best: Option<(f64, usize)> = None; // (ratio, col)
            for (c, rows) in self.cols.iter().enumerate() {
                let gain = rows.intersection_count(&uncovered);
                if gain == 0 {
                    continue;
                }
                let ratio = self.weights[c] / gain as f64;
                if best.is_none_or(|(r, bc)| ratio < r || (ratio == r && c < bc)) {
                    best = Some((ratio, c));
                }
            }
            let (_, c) = best.expect("feasibility checked above");
            chosen.push(c);
            cost += self.weights[c];
            uncovered.subtract(&self.cols[c]);
        }
        chosen.sort_unstable();
        Ok(Cover {
            columns: chosen,
            cost,
        })
    }

    /// Exhaustive oracle over all `2^n_cols` subsets — test use only.
    ///
    /// # Errors
    ///
    /// [`CoverError::TooLarge`] beyond 25 columns;
    /// [`CoverError::Infeasible`] when no subset covers all rows.
    pub fn solve_exhaustive(&self) -> Result<Cover, CoverError> {
        let n = self.cols.len();
        if n > 25 {
            return Err(CoverError::TooLarge(n));
        }
        self.check_feasible()?;
        let mut best: Option<(f64, u32)> = None;
        for mask in 0u32..(1u32 << n) {
            let mut covered = BitSet::new(self.n_rows);
            let mut cost = 0.0;
            for c in 0..n {
                if mask & (1 << c) != 0 {
                    covered.union(&self.cols[c]);
                    cost += self.weights[c];
                }
            }
            if covered.count() == self.n_rows && best.is_none_or(|(bc, _)| cost < bc) {
                best = Some((cost, mask));
            }
        }
        let (cost, mask) = best.expect("feasible: the full column set covers every row");
        let columns = (0..n).filter(|c| mask & (1 << c) != 0).collect();
        Ok(Cover { columns, cost })
    }

    fn check_feasible(&self) -> Result<(), CoverError> {
        'rows: for r in 0..self.n_rows {
            for c in &self.cols {
                if c.contains(r) {
                    continue 'rows;
                }
            }
            return Err(CoverError::Infeasible(r));
        }
        Ok(())
    }

    /// Applies the classic reductions (essentials, column dominance,
    /// row dominance) to closure.
    ///
    /// `covs` is the per-row coverage scratch (`covs[r]` = active
    /// columns covering row `r`, indexed by row id). It is rebuilt once
    /// at node entry and then maintained incrementally: taking an
    /// essential removes exactly the rows it covers (so no surviving
    /// row's set mentions it), and a column-dominance removal repairs
    /// only the rows that column covered. The old code rebuilt every
    /// coverage set from scratch on every outer pass —
    /// O(passes · R · C) — which dominated reduction time on deep trees.
    /// On `Open` the scratch is guaranteed current (the final pass
    /// always runs row dominance unchanged), so the caller branches
    /// straight from it.
    fn reduce(
        &self,
        mut rows: BitSet,
        mut cols: BitSet,
        mut cost: f64,
        chosen: &mut Vec<usize>,
        stats: &mut SolveStats,
        covs: &mut [BitSet],
    ) -> Reduced {
        for r in rows.iter() {
            covs[r].clear();
        }
        for c in cols.iter() {
            for r in self.cols[c].iter() {
                if rows.contains(r) {
                    covs[r].insert(c);
                }
            }
        }
        loop {
            let mut changed = false;

            // Essential columns: a row covered by exactly one column.
            // Apply all essentials found in one sweep.
            let mut essentials: Vec<usize> = Vec::new();
            for r in rows.iter() {
                match covs[r].count() {
                    0 => return Reduced::DeadEnd,
                    1 => essentials.push(covs[r].iter().next().expect("count == 1")),
                    _ => {}
                }
            }
            essentials.sort_unstable();
            essentials.dedup();
            for c in essentials {
                if !cols.contains(c) {
                    continue; // already taken this sweep
                }
                stats.essentials += 1;
                chosen.push(c);
                cost += self.weights[c];
                rows.subtract(&self.cols[c]);
                cols.remove(c);
                changed = true;
            }

            if rows.is_empty() {
                return Reduced::Covered(cost);
            }

            // Column dominance costs O(C²) per pass; above this many
            // active columns the pass would dominate the node time, and
            // skipping it only weakens pruning, never correctness.
            const COL_DOMINANCE_LIMIT: usize = 320;

            if !changed && cols.count() <= COL_DOMINANCE_LIMIT {
                // Column dominance: drop c2 when some c1 covers at least
                // the same active rows no more expensively (ties keep the
                // lower-indexed column). Batch-removed in one pass; the
                // tie-break makes mutual domination impossible. The
                // masked-subset test runs straight off the column sets —
                // no per-column `clone` + `intersect` temporaries.
                let t0 = Instant::now();
                let active: Vec<usize> = cols.iter().collect();
                for &c2 in &active {
                    for &c1 in &active {
                        if c1 == c2 {
                            continue;
                        }
                        let cheaper = self.weights[c1] < self.weights[c2]
                            || (self.weights[c1] == self.weights[c2] && c1 < c2);
                        if cheaper && self.cols[c2].is_subset_masked(&self.cols[c1], &rows) {
                            cols.remove(c2);
                            for r in self.cols[c2].iter() {
                                if rows.contains(r) {
                                    covs[r].remove(c2);
                                }
                            }
                            stats.dominated_columns += 1;
                            changed = true;
                            break;
                        }
                    }
                }
                stats.dominance_ns += t0.elapsed().as_nanos() as u64;
            }

            if !changed {
                // Row dominance: if every column covering r2 also covers
                // r1, r1 is implied by r2 and can be dropped. Batched; the
                // index tie-break keeps one of an identical pair.
                let t0 = Instant::now();
                let active_rows: Vec<usize> = rows.iter().collect();
                for &r1 in &active_rows {
                    for &r2 in &active_rows {
                        if r1 == r2 || !rows.contains(r2) {
                            continue;
                        }
                        let implies = covs[r2].is_subset(&covs[r1]);
                        let tie = covs[r1].count() == covs[r2].count();
                        if implies && (!tie || r2 < r1) {
                            rows.remove(r1);
                            stats.dominated_rows += 1;
                            changed = true;
                            break;
                        }
                    }
                }
                stats.dominance_ns += t0.elapsed().as_nanos() as u64;
            }

            if !changed {
                return Reduced::Open { rows, cols, cost };
            }
        }
    }

    /// Visits one search node. Expansion and subtree search both go
    /// through here, so every node-level decision is made in this one
    /// function. It spends one unit of node budget, reduces the
    /// node to closure (pushing the columns the reductions take onto
    /// `ctx.chosen`; the caller restores the path), records a covered
    /// leaf as the new incumbent (publishing it to `ctx.shared`), and
    /// applies the incumbent and seed prunes to the node's bound. A node
    /// that survives comes back with its branch options: the active
    /// columns covering the hardest row, cheapest first.
    fn visit(&self, rows: BitSet, cols: BitSet, cost: f64, ctx: &mut SearchCtx) -> Option<Open> {
        if ctx.budget == 0 {
            ctx.stats.proven_optimal = false;
            return None;
        }
        ctx.budget -= 1;
        ctx.stats.nodes += 1;
        let (rows, cols, cost) = match self.reduce(
            rows,
            cols,
            cost,
            &mut ctx.chosen,
            &mut ctx.stats,
            &mut ctx.covs,
        ) {
            Reduced::DeadEnd => return None,
            Reduced::Covered(cost) => {
                if cost < ctx.best.0 {
                    ctx.best = (cost, ctx.chosen.clone());
                    ctx.stats.incumbent_updates += 1;
                    if let Some(s) = ctx.shared {
                        s.tighten(cost);
                    }
                }
                return None;
            }
            Reduced::Open { rows, cols, cost } => (rows, cols, cost),
        };
        if ctx.prune(cost + self.dual_ascent_bound(&rows, &cols)) {
            return None;
        }
        // `reduce` left `covs` current, so both the covering counts and
        // the option list come straight off the scratch; the option Vec
        // itself is pooled (handed back through `SearchCtx::recycle`)
        // instead of allocated per node.
        let branch_row = rows
            .iter()
            .min_by_key(|&r| ctx.covs[r].count())
            .expect("rows non-empty");
        let mut options = ctx.options_pool.pop().unwrap_or_default();
        options.extend(ctx.covs[branch_row].iter());
        options.sort_by(|&a, &b| self.weights[a].total_cmp(&self.weights[b]));
        Some(Open {
            rows,
            cols,
            cost,
            options,
        })
    }

    /// Searches the subtree below one node depth-first. Prunes only
    /// against the *local* incumbent in `ctx` (never reading `shared`),
    /// so the nodes, reductions, and prunes a given subtree records are
    /// a pure function of its frame — identical under every schedule.
    /// Local improvements are published to `shared` for other workers'
    /// pickup-time skips.
    fn branch(&self, rows: BitSet, cols: BitSet, cost: f64, ctx: &mut SearchCtx) {
        let chosen_mark = ctx.chosen.len();
        if let Some(mut node) = self.visit(rows, cols, cost, ctx) {
            for (c, rows, cols, cost) in node.children(self) {
                ctx.chosen.push(c);
                self.branch(rows, cols, cost, ctx);
                ctx.chosen.pop();
            }
            ctx.recycle(node.options);
        }
        ctx.chosen.truncate(chosen_mark);
    }

    /// Serially expands the root into independent subtree task frames:
    /// the root's branch options become tasks, and when that fan-out is
    /// too narrow to feed a worker pool, each depth-1 frame is split
    /// once more (depth cap 2). Terminals and prunes met during
    /// expansion are handled inline, so `ctx.best`, the seed state, and
    /// all counters evolve exactly as a serial search visiting the same
    /// nodes would — and because expansion runs before any worker
    /// exists, every one of those decisions is deterministic.
    fn expand_tasks(&self, ctx: &mut SearchCtx) -> Vec<Frame> {
        let root = Frame {
            rows: BitSet::full(self.n_rows),
            cols: BitSet::full(self.cols.len()),
            cost: 0.0,
            chosen: Vec::new(),
            bound: 0.0,
        };
        let mut tasks = Vec::new();
        self.expand_node(root, ctx, &mut tasks);
        if tasks.len() < MIN_SUBTREE_TASKS {
            let frames = std::mem::take(&mut tasks);
            for f in frames {
                self.expand_node(f, ctx, &mut tasks);
            }
        }
        tasks
    }

    /// Visits one node like [`branch`](Self::branch) but pushes the
    /// surviving children onto `out` as subtree frames instead of
    /// recursing. Each child carries its deterministic lower bound
    /// (path cost + dual ascent over its unreduced submatrix); children
    /// already beaten by the current best or the warm-start seed die
    /// here, at expansion time, so no pickup-time decision ever depends
    /// on the seed.
    fn expand_node(&self, frame: Frame, ctx: &mut SearchCtx, out: &mut Vec<Frame>) {
        ctx.chosen = frame.chosen;
        let Some(mut node) = self.visit(frame.rows, frame.cols, frame.cost, ctx) else {
            return;
        };
        for (c, rows, cols, cost) in node.children(self) {
            let bound = cost + self.dual_ascent_bound(&rows, &cols);
            if !ctx.prune(bound) {
                let mut chosen = ctx.chosen.clone();
                chosen.push(c);
                out.push(Frame {
                    rows,
                    cols,
                    cost,
                    chosen,
                    bound,
                });
            }
        }
        ctx.recycle(node.options);
    }

    /// Runs one subtree task to completion (within its node budget)
    /// from the shared starting incumbent. Pure with respect to its
    /// inputs apart from publishing improvements to `shared`, which no
    /// local decision ever reads back.
    fn run_subtree(
        &self,
        frame: &Frame,
        budget: u64,
        start: &(f64, Vec<usize>),
        seed_bound: Option<f64>,
        shared: Option<&SharedBound>,
    ) -> SubtreeOut {
        let mut ctx = SearchCtx::new(self, budget, seed_bound, start.clone());
        ctx.chosen = frame.chosen.clone();
        ctx.shared = shared;
        self.branch(frame.rows.clone(), frame.cols.clone(), frame.cost, &mut ctx);
        SubtreeOut {
            best: (ctx.stats.incumbent_updates > 0).then_some(ctx.best),
            stats: ctx.stats,
            min_pruned: ctx.seed.map_or(f64::INFINITY, |s| s.min_pruned),
            ran: true,
        }
    }

    /// Lower bound by dual ascent on the LP relaxation (the spirit of
    /// Liao/Devadas' LP lower bounds, ref. [8] of the paper): maintain
    /// row duals `u_r ≥ 0` with `Σ_{r ∈ rows(c)} u_r ≤ w_c` for every
    /// active column; any cover costs at least `Σ u_r`. Rows are raised
    /// hardest-first; with disjoint rows this reduces to the classic
    /// maximal-independent-set bound, and it is strictly stronger when
    /// columns overlap.
    fn dual_ascent_bound(&self, rows: &BitSet, cols: &BitSet) -> f64 {
        let active_cols: Vec<usize> = cols.iter().collect();
        // covering[k] = indices into active_cols of columns covering row k.
        let mut order: Vec<(usize, Vec<usize>)> = rows
            .iter()
            .map(|r| {
                let cov: Vec<usize> = active_cols
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| self.cols[c].contains(r))
                    .map(|(i, _)| i)
                    .collect();
                (r, cov)
            })
            .collect();
        order.sort_by_key(|(_, cov)| cov.len());
        let ascend = |order: &[&(usize, Vec<usize>)]| -> f64 {
            let mut slack: Vec<f64> = active_cols.iter().map(|&c| self.weights[c]).collect();
            let mut bound = 0.0;
            for (_, cov) in order {
                let raise = cov.iter().map(|&i| slack[i]).fold(f64::INFINITY, f64::min);
                if raise <= 0.0 || !raise.is_finite() {
                    continue;
                }
                bound += raise;
                for &i in cov {
                    slack[i] -= raise;
                }
            }
            bound
        };
        // The ascent is order-sensitive; try hardest-first and
        // easiest-first and keep the better bound.
        let fwd: Vec<&(usize, Vec<usize>)> = order.iter().collect();
        let rev: Vec<&(usize, Vec<usize>)> = order.iter().rev().collect();
        ascend(&fwd).max(ascend(&rev))
    }
}

/// Warm-start state threaded through the branch-and-bound: the seed
/// cover's cost (a proven upper bound on the optimum) and the minimum
/// `cost + lb` over subtrees it pruned, used post-search to detect the
/// dead-band case where the seeded search must be discarded.
struct SeedPrune {
    bound: f64,
    min_pruned: f64,
}

/// Root expansion keeps splitting (to depth 2) until it has at least
/// this many subtree tasks, so a worker pool has enough independent
/// units to balance across.
const MIN_SUBTREE_TASKS: usize = 8;

/// Relative dead band around a bound `b` inside which floating-point
/// comparisons against it are not trustworthy (a few ulps of summation
/// noise on large weights); scales with the magnitude, see
/// [`Search::Complete`].
fn band(b: f64) -> f64 {
    1e-9 * b.abs().max(1.0)
}

/// Result of reducing one node to closure.
enum Reduced {
    /// Some row lost its last covering column — no solution below here.
    DeadEnd,
    /// Every row got covered by essentials; carries the final cost.
    Covered(f64),
    /// Reduction converged with work left: branch on `rows`/`cols`.
    Open {
        rows: BitSet,
        cols: BitSet,
        cost: f64,
    },
}

/// A node that survived its [visit](CoverMatrix::visit): what is left
/// to cover and the columns to branch on.
struct Open {
    rows: BitSet,
    cols: BitSet,
    cost: f64,
    /// Active columns covering the branch row, cheapest first.
    options: Vec<usize>,
}

impl Open {
    /// The children in branch order as `(column, rows, cols, cost)`:
    /// child `i` takes option `i` and excludes options `0..i`. Any
    /// cover must use one of the covering columns, so trying them in
    /// turn while excluding the ones already tried is complete and
    /// never revisits a solution.
    fn children<'a>(
        &'a mut self,
        m: &'a CoverMatrix,
    ) -> impl Iterator<Item = (usize, BitSet, BitSet, f64)> + 'a {
        let Open {
            rows,
            cols,
            cost,
            options,
        } = self;
        options.iter().map(move |&c| {
            cols.remove(c);
            let mut sub_rows = rows.clone();
            sub_rows.subtract(&m.cols[c]);
            (c, sub_rows, cols.clone(), *cost + m.weights[c])
        })
    }
}

/// One independent subtree task produced by root expansion.
struct Frame {
    rows: BitSet,
    cols: BitSet,
    /// Path cost of the choices in `chosen`.
    cost: f64,
    /// Columns committed on the path from the root (branch choices plus
    /// essentials taken by reductions along the way).
    chosen: Vec<usize>,
    /// Deterministic lower bound on every solution in this subtree:
    /// `cost` plus the dual-ascent bound over the unreduced submatrix,
    /// computed at expansion time. Drives both the racy pickup skip and
    /// the fixed-order fold's inclusion test.
    bound: f64,
}

/// What a subtree task reports back to the fold.
struct SubtreeOut {
    /// The subtree's final incumbent, `Some` only when it improved on
    /// the shared starting cover.
    best: Option<(f64, Vec<usize>)>,
    stats: SolveStats,
    /// Minimum `cost + lb` over the subtree's seed prunes (`∞` when
    /// unseeded or nothing was pruned).
    min_pruned: f64,
    /// `false` when the racy pickup skip dropped the task before it ran.
    ran: bool,
}

impl SubtreeOut {
    fn skipped() -> SubtreeOut {
        SubtreeOut {
            best: None,
            stats: SolveStats::default(),
            min_pruned: f64::INFINITY,
            ran: false,
        }
    }
}

/// Mutable state of one (serial) search: the expansion phase uses one,
/// and every subtree task gets its own, so nothing here is ever shared
/// between workers.
struct SearchCtx<'a> {
    /// The incumbent: the cheapest cover found so far (cost, columns).
    best: (f64, Vec<usize>),
    stats: SolveStats,
    budget: u64,
    seed: Option<SeedPrune>,
    /// Column choices on the current DFS path.
    chosen: Vec<usize>,
    /// Per-row coverage scratch, reused across all nodes of this
    /// search (see [`CoverMatrix::reduce`]).
    covs: Vec<BitSet>,
    /// Pool of branch-option Vecs, reused instead of allocating one per
    /// node (a parent's list stays checked out while its children
    /// recurse, so this is a stack, not a single slot).
    options_pool: Vec<Vec<usize>>,
    /// The cross-worker incumbent to publish improvements to; `None`
    /// during expansion and in the serial safety-net path.
    shared: Option<&'a SharedBound>,
}

impl<'a> SearchCtx<'a> {
    fn new(
        m: &CoverMatrix,
        budget: u64,
        seed_bound: Option<f64>,
        best: (f64, Vec<usize>),
    ) -> SearchCtx<'a> {
        SearchCtx {
            best,
            stats: SolveStats {
                proven_optimal: true,
                ..SolveStats::default()
            },
            budget,
            seed: seed_bound.map(|bound| SeedPrune {
                bound,
                min_pruned: f64::INFINITY,
            }),
            chosen: Vec::new(),
            covs: vec![BitSet::new(m.cols.len()); m.n_rows],
            options_pool: Vec::new(),
            shared: None,
        }
    }

    /// Decides whether a subtree whose every solution costs at least
    /// `bound` dies, and counts the prune. The incumbent prune comes
    /// first; the warm-start prune only ever adds to it. That one is
    /// strict (`>`): with `seed.bound` the cost of a known feasible
    /// cover, a subtree whose every solution costs strictly more can
    /// never contain the answer, but an exact tie with the seed must
    /// still be explored because the unseeded search would explore it.
    fn prune(&mut self, bound: f64) -> bool {
        if bound >= self.best.0 - 1e-12 {
            self.stats.bound_prunes += 1;
            return true;
        }
        if let Some(s) = &mut self.seed {
            if bound > s.bound {
                s.min_pruned = s.min_pruned.min(bound);
                self.stats.seed_prunes += 1;
                return true;
            }
        }
        false
    }

    /// Returns a branch-option list to the pool.
    fn recycle(&mut self, mut options: Vec<usize>) {
        options.clear();
        self.options_pool.push(options);
    }
}

/// Monotone-tightening shared upper bound, stored as the bit pattern of
/// a non-negative `f64` in an `AtomicU64` (for non-negative IEEE-754
/// doubles, numeric order and unsigned bit-pattern order coincide, so
/// CAS-min on bits is min on costs). Written by workers on local
/// incumbent improvements; read racily only at task pickup — a stale
/// read is always an over-estimate, which can only make the skip more
/// conservative.
struct SharedBound(AtomicU64);

impl SharedBound {
    fn new(cost: f64) -> SharedBound {
        debug_assert!(cost >= 0.0 || cost.is_infinite());
        SharedBound(AtomicU64::new(cost.to_bits()))
    }

    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn tighten(&self, cost: f64) {
        debug_assert!(cost >= 0.0);
        let bits = cost.to_bits();
        let mut cur = self.0.load(Ordering::Relaxed);
        while bits < cur {
            match self
                .0
                .compare_exchange_weak(cur, bits, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const COLD: Search<'static> = Search::Complete { seed: None };

    fn solve(m: &CoverMatrix, search: Search<'_>) -> Result<(Cover, SolveStats), CoverError> {
        m.solve(search, &Executor::serial())
    }

    fn exact(m: &CoverMatrix) -> Result<Cover, CoverError> {
        solve(m, COLD).map(|(c, _)| c)
    }

    #[test]
    fn empty_matrix_has_empty_cover() {
        let m = CoverMatrix::new(0);
        let c = exact(&m).unwrap();
        assert!(c.columns.is_empty());
        assert_eq!(c.cost, 0.0);
        assert!(m.solve_greedy().unwrap().columns.is_empty());
        assert!(m.solve_exhaustive().unwrap().columns.is_empty());
    }

    #[test]
    fn single_row_single_column() {
        let mut m = CoverMatrix::new(1);
        m.add_column(3.0, [0]);
        let c = exact(&m).unwrap();
        assert_eq!(c.columns, vec![0]);
        assert_eq!(c.cost, 3.0);
    }

    #[test]
    fn infeasible_row_reported() {
        let mut m = CoverMatrix::new(2);
        m.add_column(1.0, [0]);
        assert_eq!(exact(&m), Err(CoverError::Infeasible(1)));
        assert_eq!(m.solve_greedy(), Err(CoverError::Infeasible(1)));
        assert_eq!(m.solve_exhaustive(), Err(CoverError::Infeasible(1)));
    }

    #[test]
    fn prefers_cheap_combination_over_big_column() {
        let mut m = CoverMatrix::new(3);
        m.add_column(2.0, [0]);
        m.add_column(2.0, [1]);
        m.add_column(2.0, [2]);
        m.add_column(7.0, [0, 1, 2]);
        let c = exact(&m).unwrap();
        assert_eq!(c.columns, vec![0, 1, 2]);
        assert_eq!(c.cost, 6.0);
    }

    #[test]
    fn prefers_big_column_when_cheaper() {
        let mut m = CoverMatrix::new(3);
        m.add_column(3.0, [0]);
        m.add_column(3.0, [1]);
        m.add_column(3.0, [2]);
        m.add_column(7.0, [0, 1, 2]);
        let c = exact(&m).unwrap();
        assert_eq!(c.columns, vec![3]);
        assert_eq!(c.cost, 7.0);
    }

    #[test]
    fn greedy_can_be_suboptimal_but_valid() {
        // Classic greedy trap: one medium column looks best by ratio.
        let mut m = CoverMatrix::new(4);
        m.add_column(3.5, [0, 1, 2, 3]); // ratio 0.875 — greedy takes it
        m.add_column(2.0, [0, 1]);
        m.add_column(1.0, [2, 3]);
        let g = m.solve_greedy().unwrap();
        assert!(m.validate_cover(&g.columns).is_ok());
        let e = exact(&m).unwrap();
        assert_eq!(e.cost, 3.0);
        assert!(g.cost >= e.cost);
    }

    #[test]
    fn validate_cover_detects_gaps() {
        let mut m = CoverMatrix::new(2);
        let c0 = m.add_column(1.0, [0]);
        let c1 = m.add_column(1.0, [1]);
        assert_eq!(m.validate_cover(&[c0]), Err(CoverError::Infeasible(1)));
        assert_eq!(m.validate_cover(&[c0, c1]), Ok(2.0));
        assert_eq!(m.validate_cover(&[9]), Err(CoverError::RowOutOfRange(9)));
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_weight_rejected() {
        CoverMatrix::new(1).add_column(0.0, [0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_row_rejected() {
        CoverMatrix::new(1).add_column(1.0, [5]);
    }

    #[test]
    fn exhaustive_rejects_large_instances() {
        let mut m = CoverMatrix::new(1);
        for _ in 0..26 {
            m.add_column(1.0, [0]);
        }
        assert_eq!(m.solve_exhaustive(), Err(CoverError::TooLarge(26)));
    }

    #[test]
    fn without_columns_changes_optimum_and_maps_back() {
        let mut m = CoverMatrix::new(3);
        m.add_column(3.0, [0]);
        m.add_column(3.0, [1]);
        m.add_column(3.0, [2]);
        m.add_column(7.0, [0, 1, 2]); // optimal when present
        assert_eq!(exact(&m).unwrap().columns, vec![3]);

        let (sub, map) = m.without_columns(&[3]);
        assert_eq!(sub.n_cols(), 3);
        assert_eq!(map, vec![0, 1, 2]);
        let c = exact(&sub).unwrap();
        assert_eq!(c.cost, 9.0);
        let original: Vec<usize> = c.columns.iter().map(|&i| map[i]).collect();
        assert_eq!(original, vec![0, 1, 2]);
        // The mapped-back cover is valid against the full matrix.
        assert_eq!(m.validate_cover(&original), Ok(9.0));
    }

    #[test]
    fn without_columns_can_make_rows_infeasible() {
        let mut m = CoverMatrix::new(2);
        m.add_column(1.0, [0]);
        m.add_column(1.0, [1]);
        let (sub, map) = m.without_columns(&[1]);
        assert_eq!(map, vec![0]);
        assert_eq!(exact(&sub), Err(CoverError::Infeasible(1)));
    }

    #[test]
    fn without_columns_tolerates_duplicate_exclusions() {
        let mut m = CoverMatrix::new(1);
        m.add_column(1.0, [0]);
        m.add_column(2.0, [0]);
        let (sub, map) = m.without_columns(&[0, 0]);
        assert_eq!(map, vec![1]);
        assert_eq!(exact(&sub).unwrap().cost, 2.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn without_columns_rejects_bad_index() {
        let mut m = CoverMatrix::new(1);
        m.add_column(1.0, [0]);
        let _ = m.without_columns(&[7]);
    }

    #[test]
    fn stats_reflect_reductions() {
        let mut m = CoverMatrix::new(2);
        m.add_column(1.0, [0]); // essential for row 0
        m.add_column(1.0, [1]); // essential for row 1
        let (c, stats) = solve(&m, COLD).unwrap();
        assert_eq!(c.cost, 2.0);
        assert!(stats.essentials >= 1);
        assert!(stats.nodes >= 1);
    }

    #[test]
    fn subtree_sweep_reports_busy_time_that_equality_ignores() {
        // A ring of pair columns with uneven weights: no essentials,
        // no dominance, and the root bound does not close the gap, so
        // the root expands into subtree tasks.
        let mut m = CoverMatrix::new(6);
        for r in 0..6 {
            m.add_column(1.0 + (r % 3) as f64 * 0.1, [r, (r + 1) % 6]);
        }
        let (c, stats) = solve(&m, COLD).unwrap();
        assert_eq!(c.columns.len(), 3);
        assert!(stats.subtrees > 0, "{stats:?}");
        assert!(stats.exec.busy > std::time::Duration::ZERO, "{stats:?}");
        assert!(stats.exec.tasks > 0, "{stats:?}");
        let mut other = stats;
        other.exec.busy += std::time::Duration::from_secs(1);
        assert_eq!(other, stats);
    }

    #[test]
    fn duplicate_identical_columns_keep_one() {
        let mut m = CoverMatrix::new(2);
        m.add_column(4.0, [0, 1]);
        m.add_column(4.0, [0, 1]);
        let c = exact(&m).unwrap();
        assert_eq!(c.columns.len(), 1);
        assert_eq!(c.cost, 4.0);
    }

    #[test]
    fn useless_empty_column_never_selected() {
        let mut m = CoverMatrix::new(1);
        m.add_column(0.1, std::iter::empty());
        m.add_column(5.0, [0]);
        let c = exact(&m).unwrap();
        assert_eq!(c.columns, vec![1]);
    }

    #[test]
    fn anytime_zero_budget_returns_greedy() {
        let mut m = CoverMatrix::new(4);
        m.add_column(3.5, [0, 1, 2, 3]);
        m.add_column(2.0, [0, 1]);
        m.add_column(1.0, [2, 3]);
        let (cover, stats) = solve(&m, Search::Budget(0)).unwrap();
        assert!(!stats.proven_optimal);
        assert!(m.validate_cover(&cover.columns).is_ok());
        // Zero exploration → the greedy seed comes back, and the stats
        // report its cost without a second greedy solve.
        assert_eq!(cover.cost, m.solve_greedy().unwrap().cost);
        assert_eq!(stats.greedy_cost.to_bits(), cover.cost.to_bits());
    }

    #[test]
    fn anytime_full_budget_proves_optimality() {
        let mut m = CoverMatrix::new(3);
        m.add_column(2.0, [0]);
        m.add_column(2.0, [1]);
        m.add_column(2.0, [2]);
        m.add_column(7.0, [0, 1, 2]);
        let (cover, stats) = solve(&m, Search::Budget(u64::MAX)).unwrap();
        assert!(stats.proven_optimal);
        assert_eq!(cover.cost, 6.0);
    }

    #[test]
    fn anytime_result_improves_monotonically_with_budget() {
        // Build a mildly adversarial instance and check budgets only help.
        let mut m = CoverMatrix::new(6);
        for r in 0..6 {
            m.add_column(2.0 + r as f64 * 0.1, [r]);
        }
        m.add_column(5.5, [0, 1, 2]);
        m.add_column(5.5, [3, 4, 5]);
        m.add_column(9.0, [0, 2, 4]);
        m.add_column(9.0, [1, 3, 5]);
        let mut last = f64::INFINITY;
        for budget in [0u64, 2, 8, 32, 1 << 20] {
            let (cover, _) = solve(&m, Search::Budget(budget)).unwrap();
            assert!(cover.cost <= last + 1e-9, "budget {budget} regressed");
            last = cover.cost;
        }
        assert_eq!(last, m.solve_exhaustive().unwrap().cost);
    }

    #[test]
    fn seeded_solve_matches_unseeded_and_prunes() {
        let mut m = CoverMatrix::new(4);
        m.add_column(3.5, [0, 1, 2, 3]);
        m.add_column(2.0, [0, 1]);
        m.add_column(1.0, [2, 3]);
        let (cold, _) = solve(&m, COLD).unwrap();
        // Seed with the optimum itself: identical cover back.
        let (warm, warm_stats) = solve(
            &m,
            Search::Complete {
                seed: Some(&cold.columns),
            },
        )
        .unwrap();
        assert_eq!(warm.columns, cold.columns);
        assert_eq!(warm.cost.to_bits(), cold.cost.to_bits());
        assert!(warm_stats.proven_optimal);
        // Seed with a valid but worse cover: still identical.
        let (warm2, _) = solve(&m, Search::Complete { seed: Some(&[0]) }).unwrap();
        assert_eq!(warm2.columns, cold.columns);
    }

    #[test]
    fn seeded_solve_ignores_invalid_seed() {
        let mut m = CoverMatrix::new(2);
        m.add_column(1.0, [0]);
        m.add_column(1.0, [1]);
        let (cold, _) = solve(&m, COLD).unwrap();
        // Not a cover (misses row 1) and an out-of-range column: both
        // fall back to the plain solve instead of erroring.
        let (a, s) = solve(&m, Search::Complete { seed: Some(&[0]) }).unwrap();
        assert_eq!(a.columns, cold.columns);
        assert_eq!(s.seed_prunes, 0);
        let (b, _) = solve(&m, Search::Complete { seed: Some(&[99]) }).unwrap();
        assert_eq!(b.columns, cold.columns);
    }

    /// Random instance generator for oracle comparison. Weights come in
    /// two regimes — unit scale and million scale (real link costs are
    /// distance x bandwidth and easily reach 1e6) — because floating-
    /// point dead bands that work at unit scale can silently break on
    /// large weights.
    fn random_instance() -> impl Strategy<Value = CoverMatrix> {
        (1usize..7, 1usize..10, 0usize..2).prop_flat_map(|(rows, cols, big)| {
            let scale = if big == 1 { 1e6 } else { 1.0 };
            let col = (0.5f64..10.0, proptest::collection::vec(0..rows, 1..=rows));
            proptest::collection::vec(col, cols).prop_map(move |cs| {
                let mut m = CoverMatrix::new(rows);
                for (w, rws) in cs {
                    m.add_column(w * scale, rws);
                }
                m
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Exact solver matches the exhaustive oracle on random instances.
        #[test]
        fn exact_matches_oracle(m in random_instance()) {
            match (exact(&m), m.solve_exhaustive()) {
                (Ok(e), Ok(o)) => {
                    // Relative tolerance: at million-scale weights a few
                    // ulps of summation noise exceed any absolute epsilon.
                    prop_assert!((e.cost - o.cost).abs() < 1e-9 * o.cost.abs().max(1.0),
                        "exact {} vs oracle {}", e.cost, o.cost);
                    prop_assert!(m.validate_cover(&e.columns).is_ok());
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "disagree: {a:?} vs {b:?}"),
            }
        }

        /// Greedy always returns a valid (if suboptimal) cover.
        #[test]
        fn greedy_valid_and_no_better_than_exact(m in random_instance()) {
            if let Ok(g) = m.solve_greedy() {
                prop_assert!(m.validate_cover(&g.columns).is_ok());
                let e = exact(&m).unwrap();
                prop_assert!(g.cost >= e.cost - 1e-9 * e.cost.abs().max(1.0));
            }
        }

        /// Seeding with any feasible cover returns the exact solver's
        /// cover bit-for-bit — the warm-start identity the incremental
        /// engine is built on.
        #[test]
        fn seeded_is_bit_identical_to_unseeded(m in random_instance()) {
            if let Ok(g) = m.solve_greedy() {
                let (cold, _) = solve(&m, COLD).unwrap();
                for seed in [&g.columns, &cold.columns] {
                    let (warm, _) = solve(&m, Search::Complete { seed: Some(seed) }).unwrap();
                    prop_assert_eq!(&warm.columns, &cold.columns);
                    prop_assert_eq!(warm.cost.to_bits(), cold.cost.to_bits());
                }
            }
        }
    }
}
