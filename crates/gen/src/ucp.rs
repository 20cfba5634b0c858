//! Large unate-covering instances for the parallel branch-and-bound
//! benchmarks and the CI determinism gate.
//!
//! The generator builds disjoint odd cycles: rows are the vertices of
//! `cycles` cycles of odd length `len`, and each column covers one
//! adjacent vertex pair. An odd cycle carries an LP integrality gap of
//! ½ (the fractional optimum picks every edge at ½; the integer
//! optimum needs `⌈len/2⌉` edges), so the dual-ascent lower bound
//! cannot close the root and the solver genuinely branches — one
//! root-level subtree fan-out per instance, unlike block-structured
//! matrices that reduce away without search. Column weights are
//! perturbed deterministically so the optimum is unique and every
//! tie-break is exercised identically at any thread count.

use ccs_covering::CoverMatrix;

/// Builds the disjoint-odd-cycle covering instance: `cycles * len`
/// rows and columns, column `i` of cycle `c` covering rows
/// `(c*len + i, c*len + (i+1) mod len)` at weight `1 + i_global/10⁴`.
///
/// # Panics
///
/// Panics unless `cycles >= 1` and `len` is odd and at least 3.
pub fn odd_cycles(cycles: usize, len: usize) -> CoverMatrix {
    assert!(cycles >= 1, "need at least one cycle");
    assert!(
        len >= 3 && len % 2 == 1,
        "cycle length must be odd and >= 3"
    );
    let mut m = CoverMatrix::new(cycles * len);
    let mut idx = 0usize;
    for c in 0..cycles {
        let base = c * len;
        for i in 0..len {
            m.add_column(1.0 + idx as f64 * 1e-4, [base + i, base + (i + 1) % len]);
            idx += 1;
        }
    }
    m
}

/// Like [`odd_cycles`], padded with `pad` extra singleton rows, each
/// covered by exactly one dedicated column. The padding inflates the
/// matrix past the ≥1k-column mark the `covering_par` bench case and
/// the CI determinism gate want, while leaving the search tree exactly
/// the cyclic core's: every padded row is essential, so the root
/// reduction takes all `pad` columns in one pass and the branching
/// explores odd cycles only. (Padding the *branched* rows instead —
/// e.g. with chord columns — destroys the essential cascade that keeps
/// the tree at `O(2^cycles)` and explodes the node count.)
///
/// # Panics
///
/// As [`odd_cycles`].
pub fn odd_cycles_padded(cycles: usize, len: usize, pad: usize) -> CoverMatrix {
    assert!(cycles >= 1, "need at least one cycle");
    assert!(
        len >= 3 && len % 2 == 1,
        "cycle length must be odd and >= 3"
    );
    let core = cycles * len;
    let mut m = CoverMatrix::new(core + pad);
    let mut idx = 0usize;
    for c in 0..cycles {
        let base = c * len;
        for i in 0..len {
            m.add_column(1.0 + idx as f64 * 1e-4, [base + i, base + (i + 1) % len]);
            idx += 1;
        }
    }
    for p in 0..pad {
        m.add_column(1.0 + idx as f64 * 1e-4, [core + p]);
        idx += 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_covering::Search;
    use ccs_exec::Executor;

    const COLD: Search<'static> = Search::Complete { seed: None };

    #[test]
    fn instance_shape_and_feasibility() {
        let m = odd_cycles(3, 7);
        assert_eq!(m.n_rows(), 21);
        assert_eq!(m.n_cols(), 21);
        // Each cycle needs ceil(7/2) = 4 edges; greedy is feasible.
        let g = m.solve_greedy().expect("feasible");
        assert!(g.columns.len() >= 12);
    }

    #[test]
    fn exact_optimum_is_ceil_half_per_cycle() {
        let m = odd_cycles(2, 5);
        let (cover, stats) = m.solve(COLD, &Executor::serial()).expect("solvable");
        assert_eq!(cover.columns.len(), 6); // 2 * ceil(5/2)
        assert!(stats.proven_optimal);
        // The integrality gap forces real branching.
        assert!(stats.nodes > 1, "expected branching, got {stats:?}");
    }

    #[test]
    fn padding_leaves_the_search_tree_alone() {
        let padded = odd_cycles_padded(2, 5, 40);
        assert_eq!(padded.n_rows(), 50);
        assert_eq!(padded.n_cols(), 50);
        let (cover, stats) = padded.solve(COLD, &Executor::serial()).expect("solvable");
        // All padding columns are essential plus the cyclic optimum.
        assert_eq!(cover.columns.len(), 40 + 6);
        assert!(stats.proven_optimal);
        assert!(stats.essentials >= 40);
        // The padded instance branches exactly like the bare core.
        let (_, bare) = odd_cycles(2, 5)
            .solve(COLD, &Executor::serial())
            .expect("solvable");
        assert_eq!(stats.subtrees, bare.subtrees);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_cycle_length_panics() {
        let _ = odd_cycles(1, 4);
    }
}
