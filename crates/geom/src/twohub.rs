//! Two-hub placement: the geometry of a k-way arc merging.
//!
//! A k-way merging realizes k constraint arcs `(uᵢ, vᵢ)` as: a branch link
//! from each source `uᵢ` to a mux hub `M₁`, a shared trunk (the paper's
//! *common path* `q*`) from `M₁` to a demux hub `M₂`, and a branch link
//! from `M₂` to each destination `vᵢ`. With per-length link prices as
//! weights, the cheapest hubs minimize
//!
//! ```text
//! f(M₁, M₂) = Σᵢ aᵢ‖uᵢ − M₁‖ + q·‖M₁ − M₂‖ + Σᵢ bᵢ‖M₂ − vᵢ‖
//! ```
//!
//! `f` is jointly convex (a sum of norms of affine maps). Under the
//! Manhattan norm it separates per coordinate into convex piecewise-linear
//! 1-D problems whose optima lie on breakpoints, so those are solved
//! *exactly*; Chebyshev reduces to Manhattan by a 45° rotation. The smooth
//! Euclidean case uses alternating Weber solves followed by a joint
//! pattern-search polish.

use crate::{Norm, Point2};

/// Convergence threshold on the objective between alternating sweeps.
const TWOHUB_TOL: f64 = 1e-9;
/// Maximum alternating sweeps; convergence is typically < 40.
const TWOHUB_MAX_ITER: usize = 80;
/// Weiszfeld steps per hub per sweep of the warm alternation. Starting
/// from the current hub, a few steps track the moving trunk anchor; a
/// full descent per sweep (as the cold solve runs) bought no accuracy
/// on seeded WANs and cost ~1.8× the placement time.
const WARM_INNER_STEPS: usize = 8;

/// A two-hub (mux/demux) placement problem.
///
/// # Examples
///
/// ```
/// use ccs_geom::{Norm, Point2, twohub::TwoHubProblem};
///
/// // Three channels from a cluster on the left all target the same
/// // destination far right; branch links cost 2/unit, the shared trunk 4.
/// let dest = Point2::new(100.0, 2.0);
/// let p = TwoHubProblem::new(
///     vec![
///         (Point2::new(0.0, 0.0), 2.0),
///         (Point2::new(0.0, 4.0), 2.0),
///         (Point2::new(2.0, 2.0), 2.0),
///     ],
///     vec![(dest, 2.0), (dest, 2.0), (dest, 2.0)],
///     4.0,
/// );
/// let sol = p.solve(Norm::Euclidean);
/// // The demux hub collapses onto the shared destination (the three
/// // destination branches outweigh the trunk) and the mux sits in the
/// // source cluster.
/// assert!(sol.hub_b.approx_eq(dest, 1e-4));
/// assert!(sol.hub_a.x < 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TwoHubProblem {
    sources: Vec<(Point2, f64)>,
    sinks: Vec<(Point2, f64)>,
    trunk_weight: f64,
}

/// The result of a [`TwoHubProblem::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoHubSolution {
    /// Position of the source-side hub (mux).
    pub hub_a: Point2,
    /// Position of the destination-side hub (demux).
    pub hub_b: Point2,
    /// Objective value at the returned hubs.
    pub cost: f64,
    /// Number of alternating sweeps performed (0 for the exact solvers).
    pub iterations: usize,
    /// Objective decrease of the final alternating sweep — the
    /// convergence residual left when iteration stopped (0 for the exact
    /// breakpoint solvers, which have none).
    pub residual: f64,
}

impl TwoHubProblem {
    /// Creates a problem from weighted sources, weighted sinks, and the
    /// trunk's per-length weight.
    ///
    /// # Panics
    ///
    /// Panics if either terminal set is empty, or any weight is negative
    /// or non-finite.
    pub fn new(sources: Vec<(Point2, f64)>, sinks: Vec<(Point2, f64)>, trunk_weight: f64) -> Self {
        assert!(
            !sources.is_empty(),
            "two-hub problem needs at least one source"
        );
        assert!(!sinks.is_empty(), "two-hub problem needs at least one sink");
        assert!(
            trunk_weight.is_finite() && trunk_weight >= 0.0,
            "invalid trunk weight {trunk_weight}"
        );
        for &(p, w) in sources.iter().chain(&sinks) {
            assert!(p.is_finite(), "non-finite terminal {p}");
            assert!(w.is_finite() && w >= 0.0, "invalid terminal weight {w}");
        }
        TwoHubProblem {
            sources,
            sinks,
            trunk_weight,
        }
    }

    /// The weighted source terminals.
    pub fn sources(&self) -> &[(Point2, f64)] {
        &self.sources
    }

    /// The weighted sink terminals.
    pub fn sinks(&self) -> &[(Point2, f64)] {
        &self.sinks
    }

    /// The trunk's per-length weight.
    pub fn trunk_weight(&self) -> f64 {
        self.trunk_weight
    }

    /// Objective value for a candidate hub pair.
    pub fn cost(&self, hub_a: Point2, hub_b: Point2, norm: Norm) -> f64 {
        let src = self.src_sum(hub_a, norm);
        let dst = self.dst_sum(hub_b, norm);
        src + dst + self.trunk_weight * norm.distance(hub_a, hub_b)
    }

    /// The source half of the objective — depends on `hub_a` only.
    fn src_sum(&self, hub_a: Point2, norm: Norm) -> f64 {
        self.sources
            .iter()
            .map(|&(p, w)| w * norm.distance(p, hub_a))
            .sum()
    }

    /// The sink half of the objective — depends on `hub_b` only.
    fn dst_sum(&self, hub_b: Point2, norm: Norm) -> f64 {
        self.sinks
            .iter()
            .map(|&(p, w)| w * norm.distance(hub_b, p))
            .sum()
    }

    /// Solves for the optimal hub pair under `norm`.
    ///
    /// Manhattan and Chebyshev solutions are exact (breakpoint
    /// enumeration); the Euclidean solution is the alternating-Weber
    /// optimum polished by a joint pattern search.
    pub fn solve(&self, norm: Norm) -> TwoHubSolution {
        match norm {
            Norm::Euclidean => self.solve_euclidean(false),
            Norm::Manhattan => self.solve_manhattan(),
            Norm::Chebyshev => self.solve_chebyshev(),
        }
    }

    fn solve_manhattan(&self) -> TwoHubSolution {
        let sx: Vec<(f64, f64)> = self.sources.iter().map(|&(p, w)| (p.x, w)).collect();
        let tx: Vec<(f64, f64)> = self.sinks.iter().map(|&(p, w)| (p.x, w)).collect();
        let sy: Vec<(f64, f64)> = self.sources.iter().map(|&(p, w)| (p.y, w)).collect();
        let ty: Vec<(f64, f64)> = self.sinks.iter().map(|&(p, w)| (p.y, w)).collect();
        let (ax, bx, _) = solve_1d(&sx, &tx, self.trunk_weight);
        let (ay, by, _) = solve_1d(&sy, &ty, self.trunk_weight);
        let hub_a = Point2::new(ax, ay);
        let hub_b = Point2::new(bx, by);
        TwoHubSolution {
            hub_a,
            hub_b,
            cost: self.cost(hub_a, hub_b, Norm::Manhattan),
            iterations: 0,
            residual: 0.0,
        }
    }

    fn solve_chebyshev(&self) -> TwoHubSolution {
        // With u = x + y, v = x − y: ‖Δ‖∞ = (|Δu| + |Δv|)/2, so solve two
        // Manhattan 1-D problems with halved weights and rotate back.
        let su: Vec<(f64, f64)> = self
            .sources
            .iter()
            .map(|&(p, w)| (p.x + p.y, w / 2.0))
            .collect();
        let tu: Vec<(f64, f64)> = self
            .sinks
            .iter()
            .map(|&(p, w)| (p.x + p.y, w / 2.0))
            .collect();
        let sv: Vec<(f64, f64)> = self
            .sources
            .iter()
            .map(|&(p, w)| (p.x - p.y, w / 2.0))
            .collect();
        let tv: Vec<(f64, f64)> = self
            .sinks
            .iter()
            .map(|&(p, w)| (p.x - p.y, w / 2.0))
            .collect();
        let (au, bu, _) = solve_1d(&su, &tu, self.trunk_weight / 2.0);
        let (av, bv, _) = solve_1d(&sv, &tv, self.trunk_weight / 2.0);
        let hub_a = Point2::new((au + av) / 2.0, (au - av) / 2.0);
        let hub_b = Point2::new((bu + bv) / 2.0, (bu - bv) / 2.0);
        TwoHubSolution {
            hub_a,
            hub_b,
            cost: self.cost(hub_a, hub_b, Norm::Chebyshev),
            iterations: 0,
            residual: 0.0,
        }
    }

    /// [`solve`](Self::solve), but each Weber step of the Euclidean
    /// alternation starts from the current hub instead of restarting
    /// from its anchors' centroid, and runs a few Weiszfeld steps
    /// rather than a full descent. Between two sweeps only one anchor
    /// (the other hub) moves, so this takes a fraction of the work.
    ///
    /// It aims at the same convex minimum but does not reproduce
    /// `solve`'s bits, nor is its cost bounded against `solve`'s: where
    /// both stall at a kink (a hub on a terminal, a collapsed trunk)
    /// they can end 1e-5 to 1e-2 apart, in either direction. Use it
    /// where any near-optimal pair will do, e.g. as the point of
    /// [`euclidean_lower_bound`](Self::euclidean_lower_bound).
    /// Manhattan and Chebyshev are exact either way, so there this is
    /// `solve`.
    pub fn solve_warm(&self, norm: Norm) -> TwoHubSolution {
        match norm {
            Norm::Euclidean => self.solve_euclidean(true),
            _ => self.solve(norm),
        }
    }

    fn solve_euclidean(&self, warm: bool) -> TwoHubSolution {
        // The objective is jointly convex in (hub_a, hub_b) — every term
        // is a nonnegative multiple of a norm of an affine expression —
        // so alternating descent from any start reaches the global basin,
        // and the joint pattern-search polish crosses the nonsmooth stall
        // points (a hub pinned on an anchor, a collapsed trunk) that
        // alternation cannot. One start therefore suffices.
        let mut sol = self.alternate_from(centroid(&self.sources), centroid(&self.sinks), warm);
        self.polish(&mut sol, Norm::Euclidean);
        sol
    }

    /// Alternating Weber sweeps from `(hub_a, hub_b)`; with `warm`, each
    /// inner Weiszfeld starts from the hub it replaces.
    fn alternate_from(&self, mut hub_a: Point2, mut hub_b: Point2, warm: bool) -> TwoHubSolution {
        let norm = Norm::Euclidean;
        let mut cost = self.cost(hub_a, hub_b, norm);
        let mut iterations = 0;
        let mut residual = 0.0;
        // Each half step optimizes one hub with the other fixed (the
        // trunk end acts as one more weighted anchor, kept in the last
        // slot and updated in place — no per-iteration rebuild). The fast
        // (unpolished) Weber solve suffices here — the joint pattern
        // search at the end removes the residual error.
        let mut a_anchors = self.sources.clone();
        a_anchors.push((hub_b, self.trunk_weight));
        let mut b_anchors = self.sinks.clone();
        b_anchors.push((hub_a, self.trunk_weight));
        let weber = |anchors: &[(Point2, f64)], hub: Point2| {
            if warm {
                crate::weber::weiszfeld_iterate(anchors, hub, WARM_INNER_STEPS)
            } else {
                crate::weber::weiszfeld_fast(anchors, 200)
            }
        };
        for it in 0..TWOHUB_MAX_ITER {
            iterations = it + 1;
            *a_anchors.last_mut().expect("sources nonempty") = (hub_b, self.trunk_weight);
            hub_a = weber(&a_anchors, hub_a);

            *b_anchors.last_mut().expect("sinks nonempty") = (hub_a, self.trunk_weight);
            hub_b = weber(&b_anchors, hub_b);

            let next = self.cost(hub_a, hub_b, norm);
            residual = (cost - next).max(0.0);
            if cost - next < TWOHUB_TOL * cost.max(1.0) {
                cost = next;
                break;
            }
            cost = next;
        }
        TwoHubSolution {
            hub_a,
            hub_b,
            cost,
            iterations,
            residual,
        }
    }

    /// A certified lower bound on the Euclidean optimum `min f` over all
    /// hub pairs, from weak duality at the hub pair `(hub_a, hub_b)`:
    /// valid for any pair, and tight when the pair is near-optimal.
    ///
    /// Write `f = Σₖ wₖ‖rₖ‖` with residuals `rₖ` affine in the hubs
    /// (`A − uᵢ`, `A − B`, `B − vⱼ`). For any dual vectors `‖yₖ‖ ≤ wₖ`,
    /// `wₖ‖rₖ(x*)‖ ≥ ⟨yₖ, rₖ(x*)⟩`, and summing gives
    ///
    /// ```text
    /// f(x*) ≥ Σₖ ⟨yₖ, rₖ(x)⟩ + ⟨G, x* − x⟩ ≥ Σₖ ⟨yₖ, rₖ(x)⟩ − ‖G‖·D
    /// ```
    ///
    /// where `G = (G_A, G_B)` sums the duals each hub sees (the trunk's
    /// enters A as `+y` and B as `−y`) and `D` bounds `‖x* − x‖`.
    /// Projecting both hubs onto the convex hull of the terminals never
    /// raises `f`, so some optimum lies in hull × hull and
    /// `D² = D_A² + D_B²`, with `D_h` the largest distance from hub `h`
    /// to a terminal.
    ///
    /// A term farther than `δ` from its kink takes the gradient
    /// direction `yₖ = wₖ rₖ/‖rₖ‖`, so `⟨yₖ, rₖ⟩ = wₖ‖rₖ‖`. The others
    /// (a hub on a terminal, a collapsed trunk) are *free*: their duals
    /// are chosen to shrink `‖G‖`, giving up at most `2wₖ‖rₖ‖` each. The
    /// free terminal terms of one hub together span the ball of radius
    /// `Σ wₖ`, so only the trunk's dual needs a search. The best bound
    /// over `δ = 0` and each term's length is returned.
    pub fn euclidean_lower_bound(&self, hub_a: Point2, hub_b: Point2) -> f64 {
        let norm = Norm::Euclidean;
        let reach_of = |hub: Point2| {
            self.sources
                .iter()
                .chain(&self.sinks)
                .map(|&(p, _)| norm.distance(p, hub))
                .fold(0.0, f64::max)
        };
        let (d_a, d_b) = (reach_of(hub_a), reach_of(hub_b));
        let reach = (d_a * d_a + d_b * d_b).sqrt();
        let trunk = hub_a - hub_b;
        let q = self.trunk_weight;
        // `v` less the nearest point of the ball of radius `c`.
        let shrink = |v: Point2, c: f64| {
            let len = v.len();
            if len > c {
                v * (1.0 - c / len)
            } else {
                Point2::ORIGIN
            }
        };
        // The nearest point to `y` of the disk around `centre`.
        let project = |y: Point2, centre: Point2, radius: f64| y - shrink(y - centre, radius);
        // Candidate radii: 0 (every term smooth), then each term's
        // length, freeing that term and every nearer one.
        let lengths = self
            .sources
            .iter()
            .map(|&(u, _)| (hub_a - u).len())
            .chain(self.sinks.iter().map(|&(v, _)| (hub_b - v).len()))
            .chain([trunk.len()]);
        let mut best = f64::NEG_INFINITY;
        for delta in [0.0].into_iter().chain(lengths) {
            // Smooth terms add their value and dual to `value` and the
            // hub's sum; free terms add their weight to the hub's
            // capacity and `w·r` to its moment.
            let mut value = 0.0;
            let (mut a0, mut b0) = (Point2::ORIGIN, Point2::ORIGIN);
            let (mut cap_a, mut cap_b) = (0.0, 0.0);
            let (mut mom_a, mut mom_b) = (Point2::ORIGIN, Point2::ORIGIN);
            let mut term = |r: Point2, w: f64, g: &mut Point2, cap: &mut f64, mom: &mut Point2| {
                let len = r.len();
                if len > delta {
                    value += w * len;
                    *g = *g + r * (w / len);
                } else {
                    *cap += w;
                    *mom = *mom + r * w;
                }
            };
            for &(u, w) in &self.sources {
                term(hub_a - u, w, &mut a0, &mut cap_a, &mut mom_a);
            }
            for &(v, w) in &self.sinks {
                term(hub_b - v, w, &mut b0, &mut cap_b, &mut mom_b);
            }
            let len = trunk.len();
            let trunk_free = len <= delta;
            if !trunk_free {
                value += q * len;
                let y = trunk * (q / len);
                a0 = a0 + y;
                b0 = b0 - y;
            }
            // The bound for a free trunk dual `y`: each hub's free terminal
            // duals absorb what they can of its sum, `Y = −clip(sum)`,
            // split in proportion to weight (`yₖ = Y·wₖ/cap`, inside each
            // ball), which adds `⟨Y, moment⟩/cap`; the rest is `G`.
            let bound = |y: Point2| {
                let mut freed = y.dot(trunk);
                let mut g2 = 0.0;
                for (sum, cap, mom) in [(a0 + y, cap_a, mom_a), (b0 - y, cap_b, mom_b)] {
                    let g = shrink(sum, cap);
                    if cap > 0.0 {
                        freed += (g - sum).dot(mom) / cap;
                    }
                    g2 += g.len2();
                }
                value + freed - g2.sqrt() * reach
            };
            best = best.max(bound(Point2::ORIGIN));
            if trunk_free {
                // G vanishes iff y lies in all three disks: ‖a0 + y‖ ≤
                // cap_a, ‖b0 − y‖ ≤ cap_b and ‖y‖ ≤ q. Alternating
                // projections find such a y when one exists; any y
                // inside the trunk's disk gives a valid bound.
                let mut y = Point2::ORIGIN;
                for _ in 0..64 {
                    let last = y;
                    y = project(y, -a0, cap_a);
                    y = project(y, b0, cap_b);
                    y = project(y, Point2::ORIGIN, q);
                    if y == last {
                        break;
                    }
                }
                best = best.max(bound(y));
            }
        }
        best
    }

    /// Joint pattern-search polish: escapes the rare stall points of
    /// alternating minimization (e.g. a hub pinned on an anchor).
    fn polish(&self, sol: &mut TwoHubSolution, norm: Norm) {
        let extent = self
            .sources
            .iter()
            .chain(&self.sinks)
            .map(|&(p, _)| norm.distance(p, sol.hub_a))
            .fold(1.0, f64::max);
        let mut h = extent / 4.0;
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
        // cost(a, b) = (src_sum(a) + dst_sum(b)) + q·‖a − b‖, with the
        // same association as `cost`; caching the incumbent's half sums
        // lets a probe that moves only one hub recompute only its half.
        let mut src = self.src_sum(sol.hub_a, norm);
        let mut dst = self.dst_sum(sol.hub_b, norm);
        let mut budget = 12_000usize;
        while h > 1e-9 && budget > 0 {
            let mut improved = false;
            for &d in &dirs {
                // Move kinds: hub_a alone, hub_b alone, both jointly.
                for kind in 0..3u8 {
                    budget = budget.saturating_sub(1);
                    let (da, db) = match kind {
                        0 => (d * h, Point2::ORIGIN),
                        1 => (Point2::ORIGIN, d * h),
                        _ => (d * h, d * h),
                    };
                    let a = sol.hub_a + da;
                    let b = sol.hub_b + db;
                    let new_src = if kind == 1 {
                        src
                    } else {
                        self.src_sum(a, norm)
                    };
                    let new_dst = if kind == 0 {
                        dst
                    } else {
                        self.dst_sum(b, norm)
                    };
                    let c = new_src + new_dst + self.trunk_weight * norm.distance(a, b);
                    if c + 1e-12 < sol.cost {
                        sol.hub_a = a;
                        sol.hub_b = b;
                        sol.cost = c;
                        src = new_src;
                        dst = new_dst;
                        improved = true;
                    }
                }
            }
            if !improved {
                h /= 2.0;
            }
        }
    }
}

/// Exact 1-D two-hub solve: minimize
/// `Σ aᵢ|sᵢ − m₁| + q|m₁ − m₂| + Σ bⱼ|tⱼ − m₂|`.
///
/// The objective is convex piecewise linear, so an optimum exists with both
/// hubs on breakpoints (sample coordinates); all pairs are enumerated.
fn solve_1d(sources: &[(f64, f64)], sinks: &[(f64, f64)], q: f64) -> (f64, f64, f64) {
    let mut breaks: Vec<f64> = sources.iter().chain(sinks).map(|&(x, _)| x).collect();
    breaks.sort_by(f64::total_cmp);
    breaks.dedup();
    let eval = |m1: f64, m2: f64| -> f64 {
        let s: f64 = sources.iter().map(|&(x, w)| w * (x - m1).abs()).sum();
        let t: f64 = sinks.iter().map(|&(x, w)| w * (x - m2).abs()).sum();
        s + t + q * (m1 - m2).abs()
    };
    let mut best = (breaks[0], breaks[0], eval(breaks[0], breaks[0]));
    for &m1 in &breaks {
        for &m2 in &breaks {
            let c = eval(m1, m2);
            if c < best.2 {
                best = (m1, m2, c);
            }
        }
    }
    best
}

fn centroid(pts: &[(Point2, f64)]) -> Point2 {
    let tw: f64 = pts.iter().map(|&(_, w)| w).sum();
    if tw <= 0.0 {
        return pts[0].0;
    }
    let mut c = Point2::ORIGIN;
    for &(p, w) in pts {
        c = c + p * w;
    }
    c / tw
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn degenerate_single_source_single_sink() {
        // One source, one sink, trunk cheaper than branches: the trunk
        // should span (almost) the whole distance, hubs at the terminals.
        let s = Point2::new(0.0, 0.0);
        let t = Point2::new(10.0, 0.0);
        let p = TwoHubProblem::new(vec![(s, 5.0)], vec![(t, 5.0)], 1.0);
        let sol = p.solve(Norm::Euclidean);
        assert!((sol.cost - 10.0).abs() < 1e-6, "cost {}", sol.cost);
        assert!(sol.hub_a.approx_eq(s, 1e-4));
        assert!(sol.hub_b.approx_eq(t, 1e-4));
    }

    #[test]
    fn expensive_trunk_collapses_hubs() {
        // Trunk far more expensive than branches: the hubs coincide and the
        // trunk has zero length.
        let p = TwoHubProblem::new(
            vec![(Point2::new(0.0, 0.0), 1.0), (Point2::new(0.0, 2.0), 1.0)],
            vec![(Point2::new(4.0, 1.0), 1.0)],
            1_000.0,
        );
        let sol = p.solve(Norm::Euclidean);
        assert!(
            Norm::Euclidean.distance(sol.hub_a, sol.hub_b) < 1e-6,
            "hubs should coincide: {} vs {}",
            sol.hub_a,
            sol.hub_b
        );
    }

    #[test]
    fn shared_destination_puts_demux_at_destination() {
        // Three 10 Mbps channels into the same destination D: the cheapest
        // demux position is D itself, so the "common path" ends at D — the
        // shape of the paper's WAN solution (Fig. 4).
        let d = Point2::new(64.8, 76.4);
        let p = TwoHubProblem::new(
            vec![
                (Point2::new(0.0, 0.0), 2.0),
                (Point2::new(5.0, 0.0), 2.0),
                (Point2::new(-2.8, 4.6), 2.0),
            ],
            vec![(d, 2.0), (d, 2.0), (d, 2.0)],
            4.0,
        );
        let sol = p.solve(Norm::Euclidean);
        assert!(sol.hub_b.approx_eq(d, 1e-4), "demux at {}", sol.hub_b);
        // The mux must sit near the source cluster, not near D.
        assert!(
            Norm::Euclidean.distance(sol.hub_a, Point2::new(0.7, 1.5)) < 6.0,
            "mux at {}",
            sol.hub_a
        );
    }

    #[test]
    fn manhattan_solution_is_exact() {
        let p = TwoHubProblem::new(
            vec![(Point2::new(0.0, 0.0), 1.0), (Point2::new(0.0, 10.0), 1.0)],
            vec![(Point2::new(20.0, 5.0), 1.0)],
            1.5,
        );
        let sol = p.solve(Norm::Manhattan);
        // Verify against perturbations around the solution.
        for dx in [-0.5, 0.0, 0.5] {
            for dy in [-0.5, 0.0, 0.5] {
                let c = p.cost(
                    sol.hub_a + Point2::new(dx, dy),
                    sol.hub_b + Point2::new(dy, dx),
                    Norm::Manhattan,
                );
                assert!(sol.cost <= c + 1e-9);
            }
        }
    }

    #[test]
    fn chebyshev_matches_rotated_manhattan_cost() {
        let p = TwoHubProblem::new(
            vec![(Point2::new(0.0, 0.0), 1.0), (Point2::new(3.0, 7.0), 2.0)],
            vec![(Point2::new(10.0, 2.0), 1.0)],
            2.0,
        );
        let sol = p.solve(Norm::Chebyshev);
        let recomputed = p.cost(sol.hub_a, sol.hub_b, Norm::Chebyshev);
        assert!((sol.cost - recomputed).abs() < 1e-9);
        // Coarse optimality check.
        for dx in [-1.0, 1.0] {
            let c = p.cost(sol.hub_a + Point2::new(dx, 0.0), sol.hub_b, Norm::Chebyshev);
            assert!(sol.cost <= c + 1e-9);
        }
    }

    #[test]
    fn lower_bound_is_tight_at_the_warm_optimum() {
        // A smooth optimum (the doc example's cluster, spread out) and a
        // kinked one (the demux on the shared destination): either way
        // the bound at the warm hubs is within 1e-6 of their cost.
        let dest = Point2::new(100.0, 2.0);
        for sinks in [
            vec![
                (Point2::new(90.0, -5.0), 2.0),
                (Point2::new(95.0, 9.0), 2.0),
            ],
            vec![(dest, 2.0), (dest, 2.0), (dest, 2.0)],
        ] {
            let p = TwoHubProblem::new(
                vec![
                    (Point2::new(0.0, 0.0), 2.0),
                    (Point2::new(0.0, 4.0), 2.0),
                    (Point2::new(2.0, 2.0), 2.0),
                ],
                sinks,
                3.0,
            );
            let warm = p.solve_warm(Norm::Euclidean);
            let lb = p.euclidean_lower_bound(warm.hub_a, warm.hub_b);
            assert!(lb <= warm.cost, "bound {lb} above {}", warm.cost);
            assert!(
                lb >= warm.cost * (1.0 - 1e-6),
                "bound {lb} vs {}",
                warm.cost
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn empty_sources_panic() {
        let _ = TwoHubProblem::new(vec![], vec![(Point2::ORIGIN, 1.0)], 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid trunk weight")]
    fn negative_trunk_weight_panics() {
        let _ = TwoHubProblem::new(
            vec![(Point2::ORIGIN, 1.0)],
            vec![(Point2::ORIGIN, 1.0)],
            -2.0,
        );
    }

    fn terminals(n: usize) -> impl Strategy<Value = Vec<(Point2, f64)>> {
        proptest::collection::vec(
            ((-30.0..30.0f64, -30.0..30.0f64), 0.5..4.0f64)
                .prop_map(|((x, y), w)| (Point2::new(x, y), w)),
            1..n,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Perturbing either hub never improves the returned solution.
        #[test]
        fn local_optimality(
            sources in terminals(6),
            sinks in terminals(6),
            trunk in 0.1..8.0f64,
        ) {
            let p = TwoHubProblem::new(sources, sinks, trunk);
            for norm in [Norm::Euclidean, Norm::Manhattan] {
                let sol = p.solve(norm);
                for (dx, dy) in [(0.05, 0.0), (-0.05, 0.0), (0.0, 0.05), (0.0, -0.05),
                                 (1.0, 1.0), (-1.0, 1.0)] {
                    let d = Point2::new(dx, dy);
                    prop_assert!(sol.cost <= p.cost(sol.hub_a + d, sol.hub_b, norm) + 1e-6);
                    prop_assert!(sol.cost <= p.cost(sol.hub_a, sol.hub_b + d, norm) + 1e-6);
                    prop_assert!(sol.cost <= p.cost(sol.hub_a + d, sol.hub_b + d, norm) + 1e-6);
                }
            }
        }

        /// The objective reported equals an independent recomputation.
        #[test]
        fn reported_cost_is_consistent(
            sources in terminals(5),
            sinks in terminals(5),
            trunk in 0.0..5.0f64,
        ) {
            let p = TwoHubProblem::new(sources, sinks, trunk);
            let sol = p.solve(Norm::Euclidean);
            let recomputed = p.cost(sol.hub_a, sol.hub_b, Norm::Euclidean);
            prop_assert!((sol.cost - recomputed).abs() < 1e-9);
        }

        /// The certified bound never exceeds the cost of any hub pair:
        /// the cold and warm solutions, or an arbitrary pair — taken
        /// at an arbitrary pair too, since its validity must not rest
        /// on the point being near-optimal. Placement's warm dominance
        /// proof rests on exactly this.
        #[test]
        fn lower_bound_never_exceeds_a_solution(
            sources in terminals(6),
            sinks in terminals(6),
            trunk in 0.0..8.0f64,
            a in (-40.0..40.0f64, -40.0..40.0f64),
            b in (-40.0..40.0f64, -40.0..40.0f64),
        ) {
            let p = TwoHubProblem::new(sources, sinks, trunk);
            let (a, b) = (Point2::new(a.0, a.1), Point2::new(b.0, b.1));
            let cold = p.solve(Norm::Euclidean);
            let warm = p.solve_warm(Norm::Euclidean);
            let least = cold.cost.min(warm.cost).min(p.cost(a, b, Norm::Euclidean));
            for (x, y) in [(cold.hub_a, cold.hub_b), (warm.hub_a, warm.hub_b), (a, b)] {
                let lb = p.euclidean_lower_bound(x, y);
                // Rounding at an exact optimum can lift it ~1e-16.
                prop_assert!(lb <= least * (1.0 + 1e-12), "bound {lb} above cost {least}");
            }
            for norm in [Norm::Manhattan, Norm::Chebyshev] {
                prop_assert_eq!(p.solve_warm(norm), p.solve(norm));
            }
        }

        /// Manhattan: the exact solver is never worse than alternating
        /// coordinate medians started from the terminals.
        #[test]
        fn manhattan_never_worse_than_terminal_hubs(
            sources in terminals(5),
            sinks in terminals(5),
            trunk in 0.1..5.0f64,
        ) {
            let p = TwoHubProblem::new(sources.clone(), sinks.clone(), trunk);
            let sol = p.solve(Norm::Manhattan);
            for &(s, _) in &sources {
                for &(t, _) in &sinks {
                    prop_assert!(sol.cost <= p.cost(s, t, Norm::Manhattan) + 1e-9);
                }
            }
        }
    }
}
