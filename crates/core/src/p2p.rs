//! Optimum point-to-point arc implementations (paper Def. 2.6/2.7,
//! Lemma 2.1).
//!
//! Implementing a single constraint arc in isolation composes at most
//! three mechanisms:
//!
//! * **arc matching** — one library link spans the whole channel;
//! * **K-way segmentation** — repeaters split a channel longer than any
//!   link can span;
//! * **K-way duplication** — parallel lanes (plus a demux/mux pair) carry
//!   a channel faster than any link.
//!
//! [`best_plan`] searches every library link with the cheapest feasible
//! combination of the three and returns the minimum-cost plan; applying it
//! independently to every arc yields the *optimum point-to-point
//! implementation graph* whose cost is exactly the sum of the per-arc
//! costs (Lemma 2.1).

use crate::constraint::{ArcId, ConstraintGraph};
use crate::error::SynthesisError;
use crate::library::{Library, LinkCost, LinkId, NodeKind, SegmentationPolicy};
use crate::units::Bandwidth;

/// The structural class of a point-to-point plan (Def. 2.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImplKind {
    /// One link instance (`hops == 1 && lanes == 1`).
    Matching,
    /// A chain of links joined by repeaters (`hops > 1`).
    Segmentation,
    /// Parallel lanes joined by a demux/mux pair (`lanes > 1`).
    Duplication,
    /// Both mechanisms at once.
    SegmentedDuplication,
}

/// A costed point-to-point implementation plan for one arc.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct P2pPlan {
    /// The library link used.
    pub link: LinkId,
    /// Segments in series per lane.
    pub hops: u32,
    /// Parallel lanes.
    pub lanes: u32,
    /// Repeater instances per lane.
    pub repeaters_per_lane: u32,
    /// Total cost: links + repeaters + (for `lanes > 1`) demux + mux.
    pub cost: f64,
    /// Structural class.
    pub kind: ImplKind,
}

impl P2pPlan {
    /// Total repeater instances across all lanes.
    pub fn total_repeaters(&self) -> u32 {
        self.repeaters_per_lane * self.lanes
    }

    /// Total link instances (segments × lanes).
    pub fn total_links(&self) -> u32 {
        self.hops * self.lanes
    }

    /// Whether the plan needs a demux/mux pair.
    pub fn needs_mux_demux(&self) -> bool {
        self.lanes > 1
    }
}

/// Computes the minimum-cost point-to-point plan for a span of `distance`
/// carrying `bandwidth` (the `findBestPointToPointImplementation` routine
/// of the paper's Fig. 2).
///
/// # Errors
///
/// * [`SynthesisError::MissingRepeater`] — every feasible link needs
///   segmentation but the library has no repeater;
/// * [`SynthesisError::MissingMuxDemux`] — duplication required but mux or
///   demux missing;
/// * [`SynthesisError::NoFeasibleLink`] — no link works at all;
/// * [`SynthesisError::InvalidDistance`] — `distance` is not positive
///   and finite.
///
/// The `arc` id only labels the error.
///
/// # Examples
///
/// ```
/// use ccs_core::library::wan_paper_library;
/// use ccs_core::p2p::{best_plan, ImplKind};
/// use ccs_core::units::Bandwidth;
/// use ccs_core::constraint::ArcId;
///
/// let lib = wan_paper_library();
/// // A 10 Mb/s channel over 3.6 km fits the radio link directly.
/// let plan = best_plan(&lib, 3.6, Bandwidth::from_mbps(10.0), ArcId(0)).unwrap();
/// assert_eq!(plan.kind, ImplKind::Matching);
/// assert!((plan.cost - 7200.0).abs() < 1e-9); // $2000/km × 3.6 km
/// ```
pub fn best_plan(
    library: &Library,
    distance: f64,
    bandwidth: Bandwidth,
    arc: ArcId,
) -> Result<P2pPlan, SynthesisError> {
    best_plan_limited(library, distance, bandwidth, None, arc)
}

/// [`best_plan`] under an optional hop bound: plans needing more than
/// `max_hops` link instances in series are rejected (the latency
/// extension — see [`crate::constraint::Channel::max_hops`]).
///
/// # Errors
///
/// As [`best_plan`], plus [`SynthesisError::HopBoundInfeasible`] when
/// feasible plans exist but all exceed the bound.
pub fn best_plan_limited(
    library: &Library,
    distance: f64,
    bandwidth: Bandwidth,
    max_hops: Option<u32>,
    arc: ArcId,
) -> Result<P2pPlan, SynthesisError> {
    if !(distance.is_finite() && distance > 0.0) {
        return Err(SynthesisError::InvalidDistance(arc, distance));
    }
    ccs_obs::counter("p2p.plans", 1);
    let mut best: Option<P2pPlan> = None;
    let mut saw_missing_repeater = false;
    let mut saw_missing_muxdemux = false;
    let mut saw_hop_bound = false;

    for (id, link) in library.links() {
        let Some(lanes) = link.bandwidth.lanes_for(bandwidth) else {
            continue;
        };
        let (hops, reps) = hops_and_repeaters(distance, link.max_length, library.segmentation());
        if max_hops.is_some_and(|m| hops > m) {
            saw_hop_bound = true;
            continue;
        }
        if reps > 0 && !library.has_node(NodeKind::Repeater) {
            saw_missing_repeater = true;
            continue;
        }
        if lanes > 1 && !(library.has_node(NodeKind::Mux) && library.has_node(NodeKind::Demux)) {
            saw_missing_muxdemux = true;
            continue;
        }
        let lane_link_cost = match link.cost {
            LinkCost::PerLength(rate) => rate * distance,
            LinkCost::PerSegment(c) => c * hops as f64,
        };
        let rep_cost = library.node_cost(NodeKind::Repeater).unwrap_or(0.0);
        let mut cost = lanes as f64 * (lane_link_cost + reps as f64 * rep_cost);
        if lanes > 1 {
            cost += library.node_cost(NodeKind::Mux).unwrap_or(0.0)
                + library.node_cost(NodeKind::Demux).unwrap_or(0.0);
        }
        let kind = match (hops > 1, lanes > 1) {
            (false, false) => ImplKind::Matching,
            (true, false) => ImplKind::Segmentation,
            (false, true) => ImplKind::Duplication,
            (true, true) => ImplKind::SegmentedDuplication,
        };
        let plan = P2pPlan {
            link: id,
            hops,
            lanes,
            repeaters_per_lane: reps,
            cost,
            kind,
        };
        let better = best.as_ref().is_none_or(|b| {
            plan.cost < b.cost - 1e-12
                || ((plan.cost - b.cost).abs() <= 1e-12 && plan.total_links() < b.total_links())
        });
        if better {
            best = Some(plan);
        }
    }

    best.ok_or(if saw_hop_bound {
        SynthesisError::HopBoundInfeasible(arc)
    } else if saw_missing_repeater && !saw_missing_muxdemux {
        SynthesisError::MissingRepeater(arc)
    } else if saw_missing_muxdemux {
        SynthesisError::MissingMuxDemux(arc)
    } else {
        SynthesisError::NoFeasibleLink(arc)
    })
}

/// Segments and repeaters for a span of `distance` over links capped at
/// `max_length`, under the library's [`SegmentationPolicy`].
fn hops_and_repeaters(distance: f64, max_length: f64, policy: SegmentationPolicy) -> (u32, u32) {
    if max_length.is_infinite() || distance <= max_length * (1.0 + 1e-12) {
        return (1, 0);
    }
    match policy {
        SegmentationPolicy::MinimalRepeaters => {
            let hops = (distance / max_length - 1e-12).ceil().max(1.0) as u32;
            (hops, hops - 1)
        }
        SegmentationPolicy::RepeaterPerCriticalLength => {
            let reps = (distance / max_length + 1e-12).floor() as u32;
            (reps + 1, reps)
        }
    }
}

/// Best point-to-point plans for every arc of `graph` — the optimum
/// point-to-point implementation graph of Def. 2.6, whose cost is the sum
/// of the individual plan costs (Lemma 2.1).
///
/// # Errors
///
/// Propagates the first per-arc failure from [`best_plan`].
pub fn best_plans(
    graph: &ConstraintGraph,
    library: &Library,
) -> Result<Vec<P2pPlan>, SynthesisError> {
    graph
        .arcs()
        .map(|(id, a)| best_plan_limited(library, a.distance, a.bandwidth, a.max_hops, id))
        .collect()
}

/// Checks Assumption 2.1 on `graph` × `library`: for every pair of arcs,
/// `d(a) ≤ d(a′) ∧ b(a) ≤ b(a′)` must imply
/// `C(P(a)) ≤ C(P(a′))`, and every cost must be positive. Returns the
/// first offending pair, or `None` when the assumption holds.
///
/// # Errors
///
/// Propagates [`best_plan`] failures.
pub fn check_assumption(
    graph: &ConstraintGraph,
    library: &Library,
) -> Result<Option<(ArcId, ArcId)>, SynthesisError> {
    let plans = best_plans(graph, library)?;
    let arcs: Vec<_> = graph.arcs().collect();
    for (i, &(ai, ca)) in arcs.iter().enumerate() {
        if plans[i].cost <= 0.0 {
            return Ok(Some((ai, ai)));
        }
        for (j, &(aj, cb)) in arcs.iter().enumerate() {
            if i == j {
                continue;
            }
            let dominated = ca.distance <= cb.distance + 1e-12
                && ca.bandwidth.as_mbps() <= cb.bandwidth.as_mbps() + 1e-12;
            if dominated && plans[i].cost > plans[j].cost + 1e-9 {
                return Ok(Some((ai, aj)));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::{soc_paper_library, wan_paper_library, Library, Link};
    use ccs_geom::{Norm, Point2};

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    #[test]
    fn matching_picks_cheapest_feasible_link() {
        let lib = wan_paper_library();
        let plan = best_plan(&lib, 100.0, mbps(10.0), ArcId(0)).unwrap();
        // Radio ($2000/km) beats optical ($4000/km) at 10 Mb/s.
        assert_eq!(lib.link(plan.link).name, "radio");
        assert_eq!(plan.kind, ImplKind::Matching);
        assert_eq!(plan.cost, 200_000.0);
    }

    #[test]
    fn high_bandwidth_switches_to_optical() {
        let lib = wan_paper_library();
        // 30 Mb/s: radio needs 3 lanes (cost 3×2000×d), optical 1 lane
        // (4000×d) — optical wins.
        let plan = best_plan(&lib, 10.0, mbps(30.0), ArcId(0)).unwrap();
        assert_eq!(lib.link(plan.link).name, "optical");
        assert_eq!(plan.lanes, 1);
        assert_eq!(plan.cost, 40_000.0);
    }

    #[test]
    fn duplication_when_cheaper_than_upgrade() {
        let lib = wan_paper_library();
        // 20 Mb/s: radio ×2 lanes = $4000/km == optical $4000/km; the
        // tie-break prefers fewer total links, so optical matching wins.
        let plan = best_plan(&lib, 5.0, mbps(20.0), ArcId(0)).unwrap();
        assert_eq!(plan.cost, 20_000.0);
        assert_eq!(plan.total_links(), 1);
        assert_eq!(lib.link(plan.link).name, "optical");
    }

    #[test]
    fn segmentation_on_chip() {
        let lib = soc_paper_library(0.6);
        // A 2.0 mm wire: the paper's formula ⌊2.0/0.6⌋ = 3 repeaters.
        let plan = best_plan(&lib, 2.0, mbps(100.0), ArcId(0)).unwrap();
        assert_eq!(plan.kind, ImplKind::Segmentation);
        assert_eq!(plan.repeaters_per_lane, 3);
        assert_eq!(plan.hops, 4);
        assert_eq!(plan.cost, 3.0); // repeaters cost 1 each, wire is free
    }

    #[test]
    fn on_chip_exact_multiple_counts_full_repeaters() {
        let lib = soc_paper_library(0.6);
        // d = 1.2 = 2 × l_crit: the paper counts ⌊1.2/0.6⌋ = 2 repeaters.
        let plan = best_plan(&lib, 1.2, mbps(1.0), ArcId(0)).unwrap();
        assert_eq!(plan.repeaters_per_lane, 2);
    }

    #[test]
    fn short_wire_needs_no_repeater() {
        let lib = soc_paper_library(0.6);
        let plan = best_plan(&lib, 0.5, mbps(1.0), ArcId(0)).unwrap();
        assert_eq!(plan.kind, ImplKind::Matching);
        assert_eq!(plan.cost, 0.0);
    }

    #[test]
    fn minimal_repeaters_policy() {
        let lib = Library::builder()
            .link(Link::per_length_capped("seg", mbps(100.0), 10.0, 1.0))
            .node(NodeKind::Repeater, 5.0)
            .build()
            .unwrap();
        // 25 units over 10-unit links: 3 segments, 2 repeaters.
        let plan = best_plan(&lib, 25.0, mbps(50.0), ArcId(0)).unwrap();
        assert_eq!(plan.hops, 3);
        assert_eq!(plan.repeaters_per_lane, 2);
        assert_eq!(plan.cost, 25.0 + 2.0 * 5.0);
    }

    #[test]
    fn missing_repeater_reported() {
        let lib = Library::builder()
            .link(Link::per_length_capped("short", mbps(10.0), 1.0, 1.0))
            .build()
            .unwrap();
        let err = best_plan(&lib, 5.0, mbps(5.0), ArcId(3)).unwrap_err();
        assert_eq!(err, SynthesisError::MissingRepeater(ArcId(3)));
    }

    #[test]
    fn missing_mux_demux_reported() {
        let lib = Library::builder()
            .link(Link::per_length("thin", mbps(1.0), 1.0))
            .build()
            .unwrap();
        let err = best_plan(&lib, 5.0, mbps(5.0), ArcId(2)).unwrap_err();
        assert_eq!(err, SynthesisError::MissingMuxDemux(ArcId(2)));
    }

    #[test]
    fn segmented_duplication_combined() {
        let lib = Library::builder()
            .link(Link::per_length_capped("l", mbps(10.0), 10.0, 1.0))
            .node(NodeKind::Repeater, 2.0)
            .node(NodeKind::Mux, 3.0)
            .node(NodeKind::Demux, 3.0)
            .build()
            .unwrap();
        // 25 units, 25 Mb/s: 3 lanes × 3 hops.
        let plan = best_plan(&lib, 25.0, mbps(25.0), ArcId(0)).unwrap();
        assert_eq!(plan.kind, ImplKind::SegmentedDuplication);
        assert_eq!(plan.lanes, 3);
        assert_eq!(plan.hops, 3);
        assert_eq!(plan.total_repeaters(), 6);
        // 3 lanes × (25 length + 2 reps × 2) + mux + demux
        assert_eq!(plan.cost, 3.0 * (25.0 + 4.0) + 6.0);
    }

    #[test]
    fn best_plans_covers_all_arcs_lemma_2_1() {
        let mut b = crate::constraint::ConstraintGraph::builder(Norm::Euclidean);
        let p0 = b.add_port("A", Point2::new(0.0, 0.0));
        let p1 = b.add_port("B", Point2::new(5.0, 0.0));
        let p2 = b.add_port("C", Point2::new(0.0, 7.0));
        b.add_channel(p0, p1, mbps(10.0)).unwrap();
        b.add_channel(p1, p2, mbps(10.0)).unwrap();
        let g = b.build().unwrap();
        let lib = wan_paper_library();
        let plans = best_plans(&g, &lib).unwrap();
        assert_eq!(plans.len(), 2);
        // Lemma 2.1: graph cost equals sum of independent plan costs.
        let total: f64 = plans.iter().map(|p| p.cost).sum();
        assert!(total > 0.0);
        assert_eq!(total, plans[0].cost + plans[1].cost);
    }

    #[test]
    fn assumption_holds_for_paper_libraries() {
        let mut b = crate::constraint::ConstraintGraph::builder(Norm::Euclidean);
        let p0 = b.add_port("A", Point2::new(0.0, 0.0));
        let p1 = b.add_port("B", Point2::new(5.0, 0.0));
        let p2 = b.add_port("C", Point2::new(0.0, 100.0));
        b.add_channel(p0, p1, mbps(10.0)).unwrap();
        b.add_channel(p0, p2, mbps(10.0)).unwrap();
        b.add_channel(p1, p2, mbps(10.0)).unwrap();
        let g = b.build().unwrap();
        assert_eq!(check_assumption(&g, &wan_paper_library()).unwrap(), None);
    }

    #[test]
    fn zero_distance_rejected() {
        let lib = wan_paper_library();
        for bad in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            let err = best_plan(&lib, bad, mbps(1.0), ArcId(2)).unwrap_err();
            assert!(
                matches!(err, SynthesisError::InvalidDistance(ArcId(2), _)),
                "{bad}: {err:?}"
            );
        }
    }

    /// Two-tier library: a cheap short link that needs segmentation and a
    /// pricier long-haul link that spans anything in one hop.
    fn two_tier_library() -> Library {
        Library::builder()
            .link(Link::per_length_capped("short", mbps(100.0), 10.0, 1.0))
            .link(Link::per_length("longhaul", mbps(100.0), 3.0))
            .node(NodeKind::Repeater, 0.0)
            .build()
            .unwrap()
    }

    #[test]
    fn hop_bound_switches_to_long_haul() {
        let lib = two_tier_library();
        // 25 units: unconstrained → 3 segmented cheap hops ($25).
        let free = best_plan(&lib, 25.0, mbps(10.0), ArcId(0)).unwrap();
        assert_eq!(free.hops, 3);
        assert_eq!(lib.link(free.link).name, "short");
        // Bounded to one hop → the long-haul link despite 3× the price.
        let tight =
            crate::p2p::best_plan_limited(&lib, 25.0, mbps(10.0), Some(1), ArcId(0)).unwrap();
        assert_eq!(tight.hops, 1);
        assert_eq!(lib.link(tight.link).name, "longhaul");
        assert!(tight.cost > free.cost);
    }

    #[test]
    fn unreachable_hop_bound_is_reported() {
        let lib = Library::builder()
            .link(Link::per_length_capped("short", mbps(100.0), 10.0, 1.0))
            .node(NodeKind::Repeater, 0.0)
            .build()
            .unwrap();
        let err =
            crate::p2p::best_plan_limited(&lib, 25.0, mbps(10.0), Some(2), ArcId(4)).unwrap_err();
        assert_eq!(err, SynthesisError::HopBoundInfeasible(ArcId(4)));
    }

    #[test]
    fn hop_bound_of_one_keeps_matching_plans() {
        let lib = wan_paper_library();
        let plan =
            crate::p2p::best_plan_limited(&lib, 50.0, mbps(10.0), Some(1), ArcId(0)).unwrap();
        assert_eq!(plan.kind, ImplKind::Matching);
    }
}
