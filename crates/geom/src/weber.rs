//! Single-hub Weber-point solvers.
//!
//! Placing a merge hub (a mux, demux or repeater station) so the total
//! link cost of the star around it is minimal is the classic *weighted
//! Weber problem*: minimize `Σ wᵢ·‖xᵢ − m‖` over hub positions `m`. The
//! weights are per-length link costs, so the optimum is exactly the
//! cheapest hub location. The paper solves this as part of deriving the
//! "exact structure" of each candidate arc implementation (Section 3).
//!
//! * Under the **Manhattan** norm the problem separates per coordinate and
//!   is solved *exactly* by weighted medians.
//! * Under the **Chebyshev** norm a 45° rotation turns it into a Manhattan
//!   problem, also solved exactly.
//! * Under the **Euclidean** norm we run the Weiszfeld fixed-point
//!   iteration with the Vardi–Zhang correction at anchor points; the
//!   objective is convex, so the iteration converges to the global optimum.

use crate::{Aabb, Norm, Point2};

/// Convergence tolerance (in coordinate units) for the Weiszfeld iteration.
const WEISZFELD_TOL: f64 = 1e-9;
/// Hard cap on Weiszfeld iterations; convergence is typically < 100.
const WEISZFELD_MAX_ITER: usize = 1_000;

/// A weighted Weber (geometric-median) problem instance.
///
/// # Examples
///
/// ```
/// use ccs_geom::{Norm, Point2, weber::WeberProblem};
///
/// // Three equally weighted terminals of an equilateral-ish star.
/// let p = WeberProblem::new(vec![
///     (Point2::new(0.0, 0.0), 1.0),
///     (Point2::new(4.0, 0.0), 1.0),
///     (Point2::new(2.0, 3.0), 1.0),
/// ]);
/// let hub = p.solve(Norm::Euclidean);
/// // The optimum is interior and no worse than any terminal.
/// assert!(p.cost(hub, Norm::Euclidean) <= p.cost(Point2::new(0.0, 0.0), Norm::Euclidean));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeberProblem {
    anchors: Vec<(Point2, f64)>,
}

impl WeberProblem {
    /// Creates a problem from `(position, weight)` anchors.
    ///
    /// # Panics
    ///
    /// Panics if `anchors` is empty, any weight is negative or non-finite,
    /// or any position is non-finite.
    pub fn new(anchors: Vec<(Point2, f64)>) -> Self {
        assert!(
            !anchors.is_empty(),
            "Weber problem needs at least one anchor"
        );
        for &(p, w) in &anchors {
            assert!(p.is_finite(), "non-finite anchor position {p}");
            assert!(w.is_finite() && w >= 0.0, "invalid anchor weight {w}");
        }
        WeberProblem { anchors }
    }

    /// The `(position, weight)` anchors of the problem.
    pub fn anchors(&self) -> &[(Point2, f64)] {
        &self.anchors
    }

    /// Objective value `Σ wᵢ·‖xᵢ − m‖` for a candidate hub `m`.
    pub fn cost(&self, m: Point2, norm: Norm) -> f64 {
        self.anchors
            .iter()
            .map(|&(p, w)| w * norm.distance(p, m))
            .sum()
    }

    /// Solves for the optimal hub position under `norm`.
    ///
    /// Manhattan and Chebyshev solutions are exact; the Euclidean solution
    /// is within [`f64`] round-off of the global optimum (the objective is
    /// convex and the iteration monotone).
    pub fn solve(&self, norm: Norm) -> Point2 {
        match norm {
            Norm::Euclidean => self.solve_euclidean(),
            Norm::Manhattan => self.solve_manhattan(),
            Norm::Chebyshev => self.solve_chebyshev(),
        }
    }

    fn solve_manhattan(&self) -> Point2 {
        let xs: Vec<(f64, f64)> = self.anchors.iter().map(|&(p, w)| (p.x, w)).collect();
        let ys: Vec<(f64, f64)> = self.anchors.iter().map(|&(p, w)| (p.y, w)).collect();
        let x = crate::median::weighted_median(&xs).unwrap_or(self.anchors[0].0.x);
        let y = crate::median::weighted_median(&ys).unwrap_or(self.anchors[0].0.y);
        Point2::new(x, y)
    }

    fn solve_chebyshev(&self) -> Point2 {
        // L∞ in (x, y) equals L1 in the rotated frame (u, v) = (x+y, x−y)/…
        // — with u = x + y and v = x − y, ‖·‖∞ = (|Δu| + |Δv|)/2, so the
        // optimum is the coordinate-wise weighted median in (u, v).
        let us: Vec<(f64, f64)> = self.anchors.iter().map(|&(p, w)| (p.x + p.y, w)).collect();
        let vs: Vec<(f64, f64)> = self.anchors.iter().map(|&(p, w)| (p.x - p.y, w)).collect();
        let u = crate::median::weighted_median(&us).unwrap_or(0.0);
        let v = crate::median::weighted_median(&vs).unwrap_or(0.0);
        Point2::new((u + v) / 2.0, (u - v) / 2.0)
    }

    fn solve_euclidean(&self) -> Point2 {
        let y = self.solve_euclidean_fast(WEISZFELD_MAX_ITER);
        // Weiszfeld converges only linearly (slowly for near-collinear
        // anchor sets); a pattern-search polish pins down the optimum.
        self.polish(y, Norm::Euclidean)
    }

    /// Weiszfeld iteration without the polish step — used internally by
    /// the alternating two-hub solver, which polishes jointly at the end.
    pub(crate) fn solve_euclidean_fast(&self, max_iter: usize) -> Point2 {
        weiszfeld_fast(&self.anchors, max_iter)
    }

    /// Greedy pattern search from `start`, shrinking the step until 1e-9
    /// (bounded by an evaluation budget so degenerate zigzags terminate).
    fn polish(&self, start: Point2, norm: Norm) -> Point2 {
        let extent = self
            .anchors
            .iter()
            .map(|&(p, _)| norm.distance(p, start))
            .fold(1.0, f64::max);
        let dirs = [
            Point2::new(1.0, 0.0),
            Point2::new(-1.0, 0.0),
            Point2::new(0.0, 1.0),
            Point2::new(0.0, -1.0),
            Point2::new(1.0, 1.0),
            Point2::new(-1.0, -1.0),
            Point2::new(1.0, -1.0),
            Point2::new(-1.0, 1.0),
        ];
        let mut best = start;
        let mut best_cost = self.cost(best, norm);
        let mut h = extent / 8.0;
        let mut budget = 4_000usize;
        while h > 1e-9 && budget > 0 {
            let mut improved = false;
            for &d in &dirs {
                budget = budget.saturating_sub(1);
                let cand = best + d * h;
                let c = self.cost(cand, norm);
                if c + 1e-13 < best_cost {
                    best = cand;
                    best_cost = c;
                    improved = true;
                }
            }
            if !improved {
                h /= 2.0;
            }
        }
        best
    }
}

/// Weiszfeld iteration over a borrowed anchor slice — the allocation-free
/// core behind [`WeberProblem::solve_euclidean_fast`], also driven
/// directly by the two-hub solver's alternation loop (which mutates one
/// anchor in place between calls instead of rebuilding the problem).
pub(crate) fn weiszfeld_fast(anchors: &[(Point2, f64)], max_iter: usize) -> Point2 {
    if anchors.iter().any(|&(_, w)| w <= 0.0) {
        // Zero-weight anchors must not feed the Vardi–Zhang correction;
        // this cold path filters them out exactly as before.
        let active: Vec<(Point2, f64)> =
            anchors.iter().copied().filter(|&(_, w)| w > 0.0).collect();
        if active.is_empty() {
            return anchors[0].0;
        }
        if active.len() == 1 {
            return active[0].0;
        }
        return weiszfeld_iterate(&active, anchors_centroid(anchors), max_iter);
    }
    if anchors.len() == 1 {
        return anchors[0].0;
    }
    weiszfeld_iterate(anchors, anchors_centroid(anchors), max_iter)
}

/// Weiszfeld iteration from the start point `y` — the warm entry beside
/// [`weiszfeld_fast`], which always restarts from the centroid. The
/// two-hub solver's warm alternation passes the current hub, so a call
/// after one anchor moved a little takes a few steps instead of a full
/// descent. Zero-weight anchors are inert here: the Vardi–Zhang branch
/// adds their weight (0) and the mean skips them.
pub(crate) fn weiszfeld_iterate(
    active: &[(Point2, f64)],
    mut y: Point2,
    max_iter: usize,
) -> Point2 {
    for _ in 0..max_iter {
        let next = weiszfeld_step(active, y);
        if (next - y).len() < WEISZFELD_TOL {
            return next;
        }
        y = next;
    }
    y
}

/// Weighted centroid of the full anchor set (the Weiszfeld start point).
fn anchors_centroid(anchors: &[(Point2, f64)]) -> Point2 {
    let tw: f64 = anchors.iter().map(|&(_, w)| w).sum();
    if tw <= 0.0 {
        return anchors[0].0;
    }
    let mut c = Point2::ORIGIN;
    for &(p, w) in anchors {
        c = c + p * w;
    }
    c / tw
}

/// One Weiszfeld step with the Vardi–Zhang correction when the iterate
/// coincides with an anchor.
fn weiszfeld_step(anchors: &[(Point2, f64)], y: Point2) -> Point2 {
    const COINCIDE: f64 = 1e-12;
    let mut num = Point2::ORIGIN;
    let mut den = 0.0;
    let mut coincident_weight = 0.0;
    let mut subgrad = Point2::ORIGIN;
    for &(p, w) in anchors {
        let d = (p - y).len();
        if d < COINCIDE {
            coincident_weight += w;
        } else {
            num = num + p * (w / d);
            den += w / d;
            subgrad = subgrad + (p - y) * (w / d);
        }
    }
    if den == 0.0 {
        // All active anchors coincide with y: y is optimal.
        return y;
    }
    let t = num / den;
    if coincident_weight == 0.0 {
        return t;
    }
    // Vardi–Zhang: if the pull of the other anchors does not exceed the
    // coincident weight, y is the optimum; otherwise step a damped amount.
    let r = subgrad.len();
    if r <= coincident_weight {
        y
    } else {
        y + (t - y) * (1.0 - coincident_weight / r)
    }
}

/// Brute-force oracle: the best point of an `n × n` grid over `bounds`.
///
/// Exponentially slower than [`WeberProblem::solve`]; intended for tests
/// and for visual sanity checks, not production use.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn grid_search(problem: &WeberProblem, bounds: Aabb, n: usize, norm: Norm) -> Point2 {
    assert!(n >= 2, "grid must have at least 2 points per axis");
    let mut best = bounds.min;
    let mut best_cost = f64::INFINITY;
    for i in 0..n {
        for j in 0..n {
            let p = Point2::new(
                bounds.min.x + bounds.width() * (i as f64) / ((n - 1) as f64),
                bounds.min.y + bounds.height() * (j as f64) / ((n - 1) as f64),
            );
            let c = problem.cost(p, norm);
            if c < best_cost {
                best_cost = c;
                best = p;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn square() -> WeberProblem {
        WeberProblem::new(vec![
            (Point2::new(0.0, 0.0), 1.0),
            (Point2::new(2.0, 0.0), 1.0),
            (Point2::new(2.0, 2.0), 1.0),
            (Point2::new(0.0, 2.0), 1.0),
        ])
    }

    #[test]
    fn unit_square_center_all_norms() {
        let p = square();
        for n in Norm::ALL {
            let m = p.solve(n);
            assert!(m.approx_eq(Point2::new(1.0, 1.0), 1e-6), "{n}: got {m}");
        }
    }

    #[test]
    fn single_anchor_is_its_own_optimum() {
        let p = WeberProblem::new(vec![(Point2::new(3.0, -4.0), 2.5)]);
        for n in Norm::ALL {
            assert!(p.solve(n).approx_eq(Point2::new(3.0, -4.0), 1e-12));
        }
    }

    #[test]
    fn two_anchors_euclidean_on_segment() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(10.0, 0.0);
        let p = WeberProblem::new(vec![(a, 1.0), (b, 1.0)]);
        let m = p.solve(Norm::Euclidean);
        // Any point on the segment is optimal; cost must equal the span.
        assert!((p.cost(m, Norm::Euclidean) - 10.0).abs() < 1e-9);
        assert!(m.y.abs() < 1e-9 && m.x >= -1e-9 && m.x <= 10.0 + 1e-9);
    }

    #[test]
    fn dominant_weight_pins_optimum_to_anchor() {
        // If one anchor holds more than half the total weight the Weber
        // point is that anchor (majority theorem), for every norm.
        let heavy = Point2::new(1.0, 1.0);
        let p = WeberProblem::new(vec![
            (heavy, 10.0),
            (Point2::new(9.0, 3.0), 1.0),
            (Point2::new(-4.0, 7.0), 2.0),
        ]);
        for n in Norm::ALL {
            assert!(p.solve(n).approx_eq(heavy, 1e-7), "{n}");
        }
    }

    #[test]
    fn fermat_point_of_equilateral_triangle() {
        let h = 3f64.sqrt();
        let p = WeberProblem::new(vec![
            (Point2::new(-1.0, 0.0), 1.0),
            (Point2::new(1.0, 0.0), 1.0),
            (Point2::new(0.0, h), 1.0),
        ]);
        let m = p.solve(Norm::Euclidean);
        // Fermat point = centroid for an equilateral triangle.
        assert!(m.approx_eq(Point2::new(0.0, h / 3.0), 1e-6), "got {m}");
    }

    #[test]
    fn manhattan_median_is_exact() {
        let p = WeberProblem::new(vec![
            (Point2::new(0.0, 0.0), 1.0),
            (Point2::new(10.0, 1.0), 1.0),
            (Point2::new(3.0, 8.0), 1.0),
        ]);
        let m = p.solve(Norm::Manhattan);
        assert_eq!(m, Point2::new(3.0, 1.0));
    }

    #[test]
    fn zero_weight_anchor_ignored() {
        let p = WeberProblem::new(vec![
            (Point2::new(0.0, 0.0), 1.0),
            (Point2::new(100.0, 100.0), 0.0),
        ]);
        assert!(p.solve(Norm::Euclidean).approx_eq(Point2::ORIGIN, 1e-9));
    }

    #[test]
    #[should_panic(expected = "at least one anchor")]
    fn empty_problem_panics() {
        let _ = WeberProblem::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "invalid anchor weight")]
    fn negative_weight_panics() {
        let _ = WeberProblem::new(vec![(Point2::ORIGIN, -1.0)]);
    }

    #[test]
    fn grid_search_agrees_on_square() {
        let p = square();
        let bounds = Aabb::new(Point2::new(-1.0, -1.0), Point2::new(3.0, 3.0));
        let g = grid_search(&p, bounds, 41, Norm::Euclidean);
        assert!(g.approx_eq(Point2::new(1.0, 1.0), 0.11));
    }

    fn anchors_strategy() -> impl Strategy<Value = Vec<(Point2, f64)>> {
        proptest::collection::vec(
            ((-50.0..50.0f64, -50.0..50.0f64), 0.1..5.0f64)
                .prop_map(|((x, y), w)| (Point2::new(x, y), w)),
            1..12,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The analytic solution is never worse than a 60×60 grid oracle.
        #[test]
        fn solver_beats_grid_oracle(anchors in anchors_strategy()) {
            let p = WeberProblem::new(anchors.clone());
            let bounds = Aabb::from_points(anchors.iter().map(|a| a.0))
                .unwrap()
                .inflated(1.0);
            for n in Norm::ALL {
                let m = p.solve(n);
                let g = grid_search(&p, bounds, 60, n);
                prop_assert!(
                    p.cost(m, n) <= p.cost(g, n) + 1e-6,
                    "{n}: solver {} vs grid {}", p.cost(m, n), p.cost(g, n)
                );
            }
        }

        /// The optimum lies inside the anchors' bounding box (true for all
        /// three norms by convexity and coordinate monotonicity).
        #[test]
        fn optimum_inside_bbox(anchors in anchors_strategy()) {
            let p = WeberProblem::new(anchors.clone());
            let bounds = Aabb::from_points(anchors.iter().map(|a| a.0))
                .unwrap()
                .inflated(1e-6);
            for n in [Norm::Euclidean, Norm::Manhattan] {
                let m = p.solve(n);
                prop_assert!(bounds.contains(m), "{n}: {m} outside {bounds:?}");
            }
        }

        /// Local perturbations never improve the returned optimum.
        #[test]
        fn perturbation_never_improves(anchors in anchors_strategy()) {
            let p = WeberProblem::new(anchors);
            for n in Norm::ALL {
                let m = p.solve(n);
                let c = p.cost(m, n);
                for (dx, dy) in [(0.01, 0.0), (-0.01, 0.0), (0.0, 0.01), (0.0, -0.01),
                                 (0.5, 0.5), (-0.5, 0.5)] {
                    let c2 = p.cost(m + Point2::new(dx, dy), n);
                    prop_assert!(c <= c2 + 1e-7, "{n}: {c} > {c2}");
                }
            }
        }
    }
}
