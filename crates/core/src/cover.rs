//! Covering-matrix assembly and global selection (paper Section 3,
//! step 2).
//!
//! Rows are constraint arcs, columns are [`Candidate`]s, and the entry
//! `(i, j)` is 1 when candidate `j` implements arc `i`. The weighted
//! unate covering problem is handed to `ccs-covering`.

use crate::error::SynthesisError;
use crate::placement::Candidate;
use ccs_covering::{CoverError, CoverMatrix, Search, SolveStats};
use ccs_exec::Executor;
use ccs_obs::ledger::{self, Cause, DecisionEvent};

/// Which UCP solver the pipeline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoverStrategy {
    /// Exact branch-and-bound (default — the paper's choice).
    #[default]
    Exact,
    /// Greedy ratio heuristic (baseline / very large instances).
    Greedy,
    /// Branch-and-bound with a node budget: returns the best cover found
    /// within the budget; [`ccs_covering::SolveStats::proven_optimal`]
    /// reports whether the search actually completed.
    Anytime {
        /// Maximum branch-and-bound nodes to explore.
        node_limit: u64,
    },
}

/// The outcome of the covering step.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverOutcome {
    /// Indices (into the candidate slice) of the selected candidates.
    pub selected: Vec<usize>,
    /// Total cost of the selection (sum of candidate costs).
    pub cost: f64,
    /// Matrix dimensions `(rows, cols)` actually solved.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Exact-solver statistics (`None` for greedy).
    pub stats: Option<SolveStats>,
}

impl CoverOutcome {
    /// The step's deterministic counters: the matrix shape, then
    /// [`SolveStats::counters`] when the exact solver ran. The recorder
    /// stream and the synthesis run record both derive from this list.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        [
            ("covering.rows", self.rows as u64),
            ("covering.cols", self.cols as u64),
        ]
        .into_iter()
        .chain(self.stats.iter().flat_map(SolveStats::counters))
    }
}

/// Floor for column weights: Assumption 2.1 demands strictly positive
/// costs, and the UCP solver enforces it; free candidates (e.g. an
/// on-chip wire below critical length) are clamped to this.
const MIN_WEIGHT: f64 = 1e-9;

/// Builds the covering matrix over `candidates` for `n_arcs` rows.
///
/// # Panics
///
/// Panics if a candidate cost is `+inf`. The selectors reject every
/// non-finite cost with a typed error before building the matrix.
pub fn build_matrix(candidates: &[Candidate], n_arcs: usize) -> CoverMatrix {
    let mut m = CoverMatrix::new(n_arcs);
    for c in candidates {
        m.add_column(c.cost.max(MIN_WEIGHT), c.arcs.iter().copied());
    }
    m
}

/// Selects the minimum-cost subset of `candidates` covering all `n_arcs`
/// constraint arcs, running the branch-and-bound over `exec`.
///
/// The root branch options expand into independent subtree tasks that
/// the executor's workers race through under a shared incumbent bound.
/// The returned selection, ledger events, and deterministic statistics
/// are byte-identical at every worker count — only wall clock and the
/// scheduling-dependent [`SolveStats::exec`]/
/// [`SolveStats::dominance_ns`] fields vary.
///
/// `seed` warm-starts the exact solver from the candidate indices of a
/// known feasible cover (typically the previous selection of an
/// incremental re-synthesis session). It bounds the search but never
/// changes the returned selection (see [`Search::Complete`]); an
/// invalid or infeasible seed is ignored, and non-exact strategies
/// ignore the seed entirely.
///
/// # Errors
///
/// [`SynthesisError::Cover`] when a candidate cost is not finite (an
/// overflowed link or node cost), when the matrix is infeasible (an arc
/// with no candidate — cannot happen when the point-to-point candidates
/// are included), or when the solver otherwise fails.
pub fn select_seeded_on(
    candidates: &[Candidate],
    n_arcs: usize,
    strategy: CoverStrategy,
    seed: Option<&[usize]>,
    exec: &Executor,
) -> Result<CoverOutcome, SynthesisError> {
    select_inner(candidates, n_arcs, strategy, |_, _| false, seed, exec)
}

/// Like [`select_seeded_on`] without a seed, on the serial executor,
/// but removes every candidate for which `excluded` returns `true`
/// before solving the covering problem.
///
/// Used by resilience analysis to re-cover with fragile candidates
/// (e.g. high-order mergings whose shared trunk is a single point of
/// failure) filtered out. Returned indices are into the *original*
/// `candidates` slice.
///
/// # Errors
///
/// As [`select_seeded_on`], and when the surviving columns no longer
/// cover every arc.
pub fn select_excluding<F>(
    candidates: &[Candidate],
    n_arcs: usize,
    strategy: CoverStrategy,
    excluded: F,
) -> Result<CoverOutcome, SynthesisError>
where
    F: Fn(usize, &Candidate) -> bool,
{
    select_inner(
        candidates,
        n_arcs,
        strategy,
        excluded,
        None,
        &Executor::serial(),
    )
}

fn select_inner<F>(
    candidates: &[Candidate],
    n_arcs: usize,
    strategy: CoverStrategy,
    excluded: F,
    seed: Option<&[usize]>,
    exec: &Executor,
) -> Result<CoverOutcome, SynthesisError>
where
    F: Fn(usize, &Candidate) -> bool,
{
    if let Some(c) = candidates.iter().find(|c| !c.cost.is_finite()) {
        return Err(CoverError::InvalidWeight(c.cost).into());
    }
    let full = build_matrix(candidates, n_arcs);
    let excluded_cols: Vec<usize> = candidates
        .iter()
        .enumerate()
        .filter(|&(i, c)| excluded(i, c))
        .map(|(i, _)| i)
        .collect();
    // Solve the original matrix directly when nothing is excluded —
    // the common (synthesis) path pays no column-copy.
    let (m, map) = if excluded_cols.is_empty() {
        (full, (0..candidates.len()).collect())
    } else {
        full.without_columns(&excluded_cols)
    };
    if ccs_obs::enabled() && !excluded_cols.is_empty() {
        ccs_obs::counter("covering.excluded_cols", excluded_cols.len() as u64);
    }
    let profile_solve = ccs_obs::profile::scope("solve_cover");
    // The seed's indices live in the candidate (= unexcluded column)
    // index space, so it only applies when no column was removed.
    let seed = seed.filter(|_| excluded_cols.is_empty());
    let search = match strategy {
        CoverStrategy::Exact => Some(Search::Complete { seed }),
        CoverStrategy::Anytime { node_limit } => Some(Search::Budget(node_limit)),
        CoverStrategy::Greedy => None,
    };
    let (cover, stats) = match search {
        Some(search) => m.solve(search, exec).map(|(c, s)| (c, Some(s)))?,
        None => (m.solve_greedy()?, None),
    };
    drop(profile_solve);
    // Map submatrix columns back to original candidate indices and
    // report the true candidate cost sum (unclamped).
    let selected: Vec<usize> = cover.columns.iter().map(|&i| map[i]).collect();
    let outcome = CoverOutcome {
        cost: selected.iter().map(|&i| candidates[i].cost).sum(),
        selected,
        rows: m.n_rows(),
        cols: m.n_cols(),
        stats,
    };
    if ccs_obs::enabled() {
        for (name, value) in outcome.counters() {
            ccs_obs::counter(name, value);
        }
        if let Some(s) = &stats {
            // Work-stealing count is scheduling-dependent (informational
            // in metrics diffs); dominance time is a wall-clock gauge.
            ccs_obs::counter("covering.steals", s.exec.steals);
            ccs_obs::gauge("covering.dominance_ns", s.dominance_ns as f64);
            // How far off the greedy heuristic — the search's starting
            // incumbent — would have been.
            if cover.cost > 0.0 {
                ccs_obs::gauge("covering.greedy_gap", s.greedy_cost / cover.cost - 1.0);
            }
        }
    }
    if ledger::enabled() {
        // Provenance: one event per candidate column that survived to
        // the solver, split by the solver's verdict. `index` is the
        // position in the original candidate slice — the same index
        // placement.kept events carry.
        for (col, &orig) in map.iter().enumerate() {
            let c = &candidates[orig];
            let cause = if cover.columns.contains(&col) {
                Cause::CoveringSelected
            } else {
                Cause::CoveringRejected
            };
            ledger::emit(DecisionEvent::new(
                cause,
                c.arcs.iter().map(|&a| a as u32).collect(),
                c.cost,
                0.0,
                format!("index={orig}"),
            ));
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintGraph;
    use crate::library::wan_paper_library;
    use crate::placement::{merge_candidate, point_to_point_candidate};
    use crate::units::Bandwidth;
    use ccs_geom::{Norm, Point2};

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    fn cluster_graph() -> ConstraintGraph {
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let s0 = b.add_port("A", Point2::new(0.0, 0.0));
        let s1 = b.add_port("B", Point2::new(5.0, 0.0));
        let d = b.add_port("D", Point2::new(64.8, 76.4));
        b.add_channel(s0, d, mbps(10.0)).unwrap();
        b.add_channel(s1, d, mbps(10.0)).unwrap();
        b.build().unwrap()
    }

    fn select(
        cands: &[Candidate],
        strategy: CoverStrategy,
    ) -> Result<CoverOutcome, SynthesisError> {
        select_seeded_on(cands, 2, strategy, None, &Executor::serial())
    }

    fn candidates(g: &ConstraintGraph) -> Vec<Candidate> {
        let lib = wan_paper_library();
        let mut cands = vec![
            point_to_point_candidate(g, &lib, 0).unwrap(),
            point_to_point_candidate(g, &lib, 1).unwrap(),
        ];
        if let Some(m) = merge_candidate(g, &lib, &[0, 1]).unwrap() {
            cands.push(m);
        }
        cands
    }

    #[test]
    fn matrix_shape_matches_candidates() {
        let g = cluster_graph();
        let cands = candidates(&g);
        let m = build_matrix(&cands, 2);
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.n_cols(), cands.len());
        assert_eq!(m.rows_of(2), vec![0, 1]); // merge column covers both
    }

    #[test]
    fn exact_selection_picks_cheapest_cover() {
        let g = cluster_graph();
        let cands = candidates(&g);
        let out = select(&cands, CoverStrategy::Exact).unwrap();
        let direct: f64 = cands[0].cost + cands[1].cost;
        let merged = cands[2].cost;
        let expect = direct.min(merged);
        assert!((out.cost - expect).abs() < 1e-6);
        assert!(out.stats.is_some());
        // Selected set actually covers both arcs.
        let mut covered = [false; 2];
        for &i in &out.selected {
            for &a in &cands[i].arcs {
                covered[a] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn greedy_selection_is_valid() {
        let g = cluster_graph();
        let cands = candidates(&g);
        let exact = select(&cands, CoverStrategy::Exact).unwrap();
        let greedy = select(&cands, CoverStrategy::Greedy).unwrap();
        assert!(greedy.stats.is_none());
        assert!(greedy.cost >= exact.cost - 1e-9);
    }

    #[test]
    fn excluding_merges_falls_back_to_point_to_point() {
        let g = cluster_graph();
        let cands = candidates(&g);
        assert_eq!(cands.len(), 3, "expected the merge candidate to exist");
        let out =
            select_excluding(&cands, 2, CoverStrategy::Exact, |_, c| c.arcs.len() > 1).unwrap();
        // Only the two point-to-point columns survive, and the selected
        // indices refer to the original candidate slice.
        assert_eq!(out.cols, 2);
        let mut sel = out.selected.clone();
        sel.sort_unstable();
        assert_eq!(sel, vec![0, 1]);
        let direct = cands[0].cost + cands[1].cost;
        assert!((out.cost - direct).abs() < 1e-6);
    }

    #[test]
    fn excluding_nothing_matches_select() {
        let g = cluster_graph();
        let cands = candidates(&g);
        let a = select(&cands, CoverStrategy::Exact).unwrap();
        let b = select_excluding(&cands, 2, CoverStrategy::Exact, |_, _| false).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn excluding_everything_is_infeasible() {
        let g = cluster_graph();
        let cands = candidates(&g);
        let err = select_excluding(&cands, 2, CoverStrategy::Exact, |_, _| true).unwrap_err();
        assert!(matches!(err, SynthesisError::Cover(_)));
    }

    #[test]
    fn infeasible_when_arc_uncovered() {
        let g = cluster_graph();
        let cands = vec![point_to_point_candidate(&g, &wan_paper_library(), 0).unwrap()];
        let err = select(&cands, CoverStrategy::Exact).unwrap_err();
        assert!(matches!(err, SynthesisError::Cover(_)));
    }

    #[test]
    fn overflowed_cost_is_a_typed_error() {
        // A finite library cost times a long enough distance overflows
        // to `inf`; the matrix must never see it.
        let g = cluster_graph();
        let mut cands = candidates(&g);
        cands[1].cost = f64::INFINITY;
        let err = select(&cands, CoverStrategy::Exact).unwrap_err();
        assert_eq!(
            err,
            SynthesisError::Cover(CoverError::InvalidWeight(f64::INFINITY))
        );
        let err = select_excluding(&cands, 2, CoverStrategy::Greedy, |_, _| false).unwrap_err();
        assert!(matches!(
            err,
            SynthesisError::Cover(CoverError::InvalidWeight(_))
        ));
    }

    #[test]
    fn zero_cost_candidates_are_clamped_not_rejected() {
        // On-chip wires below critical length cost 0; the matrix must
        // still accept them.
        let g = cluster_graph();
        let mut c = point_to_point_candidate(&g, &wan_paper_library(), 0).unwrap();
        c.cost = 0.0;
        let m = build_matrix(&[c], 2);
        assert!(m.weight(0) > 0.0);
    }
}
