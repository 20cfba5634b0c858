//! Candidate arc implementations: topology and cost (paper Section 3's
//! "simple nonlinear optimization problem").
//!
//! A surviving merge subset only becomes a *candidate* once its exact
//! structure is known: where the mux/demux hubs sit, which links realize
//! each branch and the common path, and what it all costs. The paper
//! solves a small constrained optimization per candidate; here that is
//! the two-hub solver [`ccs_geom::twohub::TwoHubProblem`] run under the
//! constraint graph's norm, with per-length link prices as weights,
//! followed by exact per-segment costing through the point-to-point
//! engine ([`crate::p2p`]).

use crate::constraint::{ArcId, ConstraintGraph, PortId};
use crate::error::SynthesisError;
use crate::library::{Library, NodeKind};
use crate::p2p::{best_plan, P2pPlan};
use crate::units::Bandwidth;
use ccs_exec::ShardedCache;
use ccs_geom::twohub::{TwoHubProblem, TwoHubSolution};
use ccs_geom::weber::WeberProblem;
use ccs_geom::{Norm, Point2};

/// Lengths below this are treated as a coincident hub/port (no link).
const ZERO_LEN: f64 = 1e-9;

/// A structural endpoint of a candidate segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A computational vertex `χ(v)` (a port of the constraint graph).
    Port(PortId),
    /// The source-side merge hub (mux).
    HubA,
    /// The destination-side merge hub (demux).
    HubB,
}

/// One costed point-to-point stretch inside a candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentPlan {
    /// Structural start.
    pub from: Endpoint,
    /// Structural end.
    pub to: Endpoint,
    /// Start position.
    pub from_pos: Point2,
    /// End position.
    pub to_pos: Point2,
    /// Segment length under the graph norm.
    pub length: f64,
    /// Aggregate bandwidth the segment must carry.
    pub demand: Bandwidth,
    /// The point-to-point plan implementing the stretch.
    pub plan: P2pPlan,
    /// Constraint arcs (by index) routed over this segment.
    pub arcs: Vec<usize>,
}

/// The structural class of a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CandidateKind {
    /// A single-arc point-to-point implementation (Def. 2.6/2.7).
    PointToPoint,
    /// A k-way merging through a shared common path (Def. 2.8).
    Merging {
        /// The merge order `k ≥ 2`.
        k: usize,
    },
}

/// Which library nodes realize a merging's hubs.
///
/// The paper's library includes *switches* that "while being able to act
/// as a repeater, enable the connection of multiple links": when the two
/// hubs coincide (a star rather than a dumbbell) a single switch can
/// replace the mux/demux pair — chosen whenever it is available and
/// cheaper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HubHardware {
    /// A mux at hub A and a demux at hub B (the general dumbbell).
    MuxDemux,
    /// One switch at the shared hub position (star topologies only).
    SingleSwitch,
}

/// A fully costed candidate arc implementation — one prospective column
/// of the covering matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Covered constraint arcs (sorted indices).
    pub arcs: Vec<usize>,
    /// Structural class.
    pub kind: CandidateKind,
    /// Mux hub position (merging only).
    pub hub_a: Option<Point2>,
    /// Demux hub position (merging only).
    pub hub_b: Option<Point2>,
    /// The costed segments.
    pub segments: Vec<SegmentPlan>,
    /// Which library nodes realize the hubs (merging only; meaningless
    /// for point-to-point candidates, where it stays `MuxDemux`).
    pub hub_hardware: HubHardware,
    /// Hub node costs (merging only; per-segment node costs such as
    /// repeaters live inside each segment's plan cost).
    pub node_cost: f64,
    /// Total cost `C(P)`.
    pub cost: f64,
}

impl Candidate {
    /// Total repeaters across all segments.
    pub fn total_repeaters(&self) -> u32 {
        self.segments.iter().map(|s| s.plan.total_repeaters()).sum()
    }

    /// Total link instances across all segments.
    pub fn total_links(&self) -> u32 {
        self.segments.iter().map(|s| s.plan.total_links()).sum()
    }
}

/// Builds the optimum point-to-point candidate for one arc.
///
/// # Errors
///
/// Propagates [`best_plan`] errors — a point-to-point implementation must
/// exist for synthesis to be feasible at all.
pub fn point_to_point_candidate(
    graph: &ConstraintGraph,
    library: &Library,
    arc_idx: usize,
) -> Result<Candidate, SynthesisError> {
    // One profiler call per arc, independent of chunking/threads.
    let _profile = ccs_obs::profile::scope("plan_arc");
    let id = ArcId(arc_idx as u32);
    let arc = graph.arc(id);
    let plan =
        crate::p2p::best_plan_limited(library, arc.distance, arc.bandwidth, arc.max_hops, id)?;
    let (from_pos, to_pos) = graph.arc_endpoints(id);
    let segment = SegmentPlan {
        from: Endpoint::Port(arc.src),
        to: Endpoint::Port(arc.dst),
        from_pos,
        to_pos,
        length: arc.distance,
        demand: arc.bandwidth,
        plan,
        arcs: vec![arc_idx],
    };
    Ok(Candidate {
        arcs: vec![arc_idx],
        kind: CandidateKind::PointToPoint,
        hub_a: None,
        hub_b: None,
        hub_hardware: HubHardware::MuxDemux,
        node_cost: 0.0,
        cost: plan.cost,
        segments: vec![segment],
    })
}

/// Shared memoization for candidate construction across one synthesis
/// run (valid for a single `(graph, library)` pair).
///
/// The same constraint arc appears in many surviving merge subsets, and
/// every appearance re-derives the arc's hub-placement weight — the
/// [`effective_rate`] scan over the whole link library that feeds the
/// Weber/two-hub solves. The cache keys that solve input by the demand's
/// bit pattern, so across a placement fan-out each distinct demand is
/// priced exactly once no matter how many subsets (or worker threads)
/// ask. Values are pure functions of the key, so concurrent lookups are
/// deterministic by construction.
#[derive(Debug, Default)]
pub struct PlacementCache {
    rates: ShardedCache<u64, Option<f64>>,
    floors: ShardedCache<u64, f64>,
}

impl PlacementCache {
    /// An empty, unbounded cache (the right default for a one-shot
    /// synthesis run, whose distinct demand count is bounded by the
    /// instance).
    pub fn new() -> PlacementCache {
        PlacementCache::default()
    }

    /// An empty cache bounded to `per_shard` entries per shard (16
    /// shards per table), for long-running processes that share one
    /// cache across many requests. Eviction is deterministic — see
    /// [`ShardedCache::bounded`].
    pub fn bounded(per_shard: usize) -> PlacementCache {
        PlacementCache {
            rates: ShardedCache::bounded(per_shard),
            floors: ShardedCache::bounded(per_shard),
        }
    }

    /// Total entries evicted from both tables so far.
    pub fn evictions(&self) -> u64 {
        self.rates.evictions() + self.floors.evictions()
    }

    /// Memoized [`effective_rate`].
    pub fn effective_rate(&self, library: &Library, demand: Bandwidth) -> Option<f64> {
        self.rates
            .get_or_insert_with(demand.as_mbps().to_bits(), || {
                effective_rate(library, demand)
            })
    }

    /// Memoized [`rate_floor`].
    pub fn rate_floor(&self, library: &Library, demand: Bandwidth) -> f64 {
        self.floors
            .get_or_insert_with(demand.as_mbps().to_bits(), || rate_floor(library, demand))
    }

    /// Distinct demands priced so far.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Whether nothing has been priced yet.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }
}

/// The cheapest per-unit-length price at which the library can carry
/// `demand` — the linear surrogate used as a hub-placement weight.
///
/// Returns `None` when no link can carry the demand even with
/// duplication.
pub fn effective_rate(library: &Library, demand: Bandwidth) -> Option<f64> {
    let rep_cost = library.node_cost(NodeKind::Repeater).unwrap_or(0.0);
    library
        .links()
        .filter_map(|(_, l)| {
            let lanes = l.bandwidth.lanes_for(demand)? as f64;
            let mut rate = l.rate_per_length() * lanes;
            if l.max_length.is_finite() {
                // Amortized repeater price per unit length.
                rate += lanes * rep_cost / l.max_length;
            }
            Some(rate)
        })
        .min_by(f64::total_cmp)
}

/// A *true* lower bound on the per-unit-length cost of carrying
/// `demand` over any distance with this library.
///
/// Unlike [`effective_rate`] — a placement *weight* that folds amortized
/// repeater prices in — this keeps only what every feasible plan must
/// pay: `lanes_for(demand)` lanes of the link's unavoidable per-length
/// charge (the rate for per-length links, `cost / max_length` for
/// length-capped per-segment links since a span of `d` needs at least
/// `d / max_length` segments, and `0` for unbounded per-segment links
/// whose one flat segment can span anything). Repeater and duplication
/// surcharges only raise real plans above this floor.
///
/// Returns [`f64::INFINITY`] when no link can carry the demand — the
/// exact feasibility condition under which [`effective_rate`] returns
/// `None`.
pub fn rate_floor(library: &Library, demand: Bandwidth) -> f64 {
    library
        .links()
        .filter_map(|(_, l)| {
            let lanes = l.bandwidth.lanes_for(demand)? as f64;
            let per_len = match l.cost {
                crate::library::LinkCost::PerLength(rate) => rate,
                crate::library::LinkCost::PerSegment(c) => {
                    if l.max_length.is_finite() && l.max_length > 0.0 {
                        c / l.max_length
                    } else {
                        0.0
                    }
                }
            };
            Some(lanes * per_len)
        })
        .min_by(f64::total_cmp)
        .unwrap_or(f64::INFINITY)
}

/// A cheap geometric lower bound on [`merge_candidate`]'s cost for
/// `subset`, used to gate the Weber/two-hub solves (see
/// [`MergeConfig::lb_gate`](crate::merging::MergeConfig::lb_gate)).
///
/// With `r_a = rate_floor(b(a))`, `r_T = rate_floor(Σ b(a))` and hub
/// positions `A`, `B` at trunk distance `T`, any merge implementation
/// costs at least
///
/// ```text
/// node_floor + Σ_a r_a·(|s_a A| + |B t_a|) + r_T·T
/// ```
///
/// and per arc the route triangle inequality gives
/// `|s_a A| + T + |B t_a| ≥ d(a)`, so with `λ = min(1, r_T / Σ_a r_a)`
/// each arc satisfies `r_a·max(0, d(a) − T) + λ·r_a·T ≥ λ·r_a·d(a)`
/// (split on `T ≤ d(a)`). Summing and using `r_T·T ≥ λ·(Σ r_a)·T`:
///
/// ```text
/// cost ≥ node_floor + λ·Σ_a r_a·d(a)
/// ```
///
/// for *any* hub placement — no assumption on rate monotonicity in
/// demand. The returned bound scales that by `(1 − 1e-9)` to absorb
/// zero-length segment trimming (`ZERO_LEN`) and hop-count slop.
///
/// Returns [`f64::INFINITY`] when the subset is structurally infeasible
/// (no hub hardware, or some demand no link can carry) — exactly the
/// cases where [`merge_candidate`] returns `Ok(None)`.
pub fn merge_cost_lower_bound(
    graph: &ConstraintGraph,
    library: &Library,
    subset: &[usize],
    cache: &PlacementCache,
) -> f64 {
    debug_assert!(subset.len() >= 2, "a merging needs at least two arcs");
    let Some((_, node_floor)) = HubOffer::of(library).star() else {
        return f64::INFINITY;
    };
    let trunk_demand: Bandwidth = subset
        .iter()
        .map(|&i| graph.arc(ArcId(i as u32)).bandwidth)
        .sum();
    let trunk_floor = cache.rate_floor(library, trunk_demand);
    if trunk_floor.is_infinite() {
        return f64::INFINITY;
    }
    let mut sum_rate = 0.0;
    let mut sum_rate_dist = 0.0;
    for &i in subset {
        let a = graph.arc(ArcId(i as u32));
        let r = cache.rate_floor(library, a.bandwidth);
        if r.is_infinite() {
            return f64::INFINITY;
        }
        sum_rate += r;
        sum_rate_dist += r * a.distance;
    }
    let lambda = if sum_rate > 0.0 {
        (trunk_floor / sum_rate).min(1.0)
    } else {
        1.0
    };
    (node_floor + lambda * sum_rate_dist) * (1.0 - 1e-9)
}

/// Why a merge subset has no implementation with a given library —
/// the provenance recorded when placement declares a subset
/// infeasible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InfeasibleReason {
    /// The library offers neither a mux/demux pair nor a switch, so no
    /// hub can exist at all.
    NoHubHardware,
    /// Some stretch (branch or trunk) has a demand no library link can
    /// carry, or no link covers its length.
    UnroutableDemand,
    /// Every priced topology put some member arc over its hop bound.
    HopLimitExceeded,
}

impl InfeasibleReason {
    /// A stable machine-readable id, used in ledger `detail` tags.
    pub fn id(self) -> &'static str {
        match self {
            InfeasibleReason::NoHubHardware => "no_hub_hardware",
            InfeasibleReason::UnroutableDemand => "unroutable_demand",
            InfeasibleReason::HopLimitExceeded => "hop_limit_exceeded",
        }
    }
}

/// The hub hardware a library offers — the one place placement reads
/// it. The a-priori bound, the warm certificate, the priced topologies
/// and the solve-skip count all derive from these two prices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HubOffer {
    /// Mux + demux price, when both are on offer (the dumbbell).
    muxdemux: Option<f64>,
    /// Switch price, when on offer.
    switch: Option<f64>,
}

impl HubOffer {
    pub(crate) fn of(library: &Library) -> HubOffer {
        HubOffer {
            muxdemux: match (
                library.node_cost(NodeKind::Mux),
                library.node_cost(NodeKind::Demux),
            ) {
                (Some(m), Some(d)) => Some(m + d),
                _ => None,
            },
            switch: library.node_cost(NodeKind::Switch),
        }
    }

    /// The star's hardware and price: a single switch when it is on
    /// offer and no dearer than the pair, else a co-located mux/demux.
    /// Its price is also the cheapest hub hardware of the library, the
    /// lower bound's node floor. `None`: no hub can exist at all.
    fn star(self) -> Option<(HubHardware, f64)> {
        match (self.switch, self.muxdemux) {
            (Some(s), Some(md)) if s <= md => Some((HubHardware::SingleSwitch, s)),
            (Some(s), None) => Some((HubHardware::SingleSwitch, s)),
            (_, Some(md)) => Some((HubHardware::MuxDemux, md)),
            (None, None) => None,
        }
    }

    /// Placement solves one priced subset costs: the star's Weber solve,
    /// plus the dumbbell's two-hub solve when mux and demux are on offer.
    pub(crate) fn solves_per_subset(self) -> u64 {
        match (self.muxdemux, self.switch) {
            (Some(_), _) => 2,
            (None, Some(_)) => 1,
            (None, None) => 0,
        }
    }
}

/// Builds the k-way merge candidate for `subset` (arc indices, sorted).
///
/// Returns `Ok(None)` when the merging is structurally infeasible with
/// this library (no mux/demux, or some stretch cannot be implemented) —
/// such subsets are simply not candidates, which is not an error.
///
/// # Errors
///
/// Currently never returns `Err`; the `Result` keeps room for future
/// hard failures and symmetry with
/// [`point_to_point_candidate`].
///
/// # Panics
///
/// Panics if `subset` has fewer than two arcs or contains an invalid
/// index.
pub fn merge_candidate(
    graph: &ConstraintGraph,
    library: &Library,
    subset: &[usize],
) -> Result<Option<Candidate>, SynthesisError> {
    merge_candidate_explained(graph, library, subset, &PlacementCache::new()).map(Result::ok)
}

/// [`merge_candidate`] with a shared [`PlacementCache`] (for callers
/// that price many subsets of the same graph/library pair, possibly
/// from several threads at once), and an infeasible subset reports
/// *why* (`Ok(Err(reason))`) instead of a bare `None` — the provenance
/// the decision ledger records for `ccs explain`.
///
/// # Errors
///
/// Same contract as [`merge_candidate`].
///
/// # Panics
///
/// Panics if `subset` has fewer than two arcs or contains an invalid
/// index.
pub fn merge_candidate_explained(
    graph: &ConstraintGraph,
    library: &Library,
    subset: &[usize],
    cache: &PlacementCache,
) -> Result<Result<Candidate, InfeasibleReason>, SynthesisError> {
    // One profiler call per subset, independent of chunking/threads.
    let _profile = ccs_obs::profile::scope("solve_merge");
    let hubs = HubOffer::of(library);
    let merge = match Merge::new(graph, library, subset, cache, hubs) {
        Ok(m) => m,
        Err(reason) => return Ok(Err(reason)),
    };

    // The reason reported when every attempted topology fails (each
    // failed attempt overwrites it, so the star's reason wins when both
    // topologies were priced — deterministic either way).
    let mut why = InfeasibleReason::UnroutableDemand;

    // Topology 1: the general dumbbell (two hubs, mux/demux required).
    let dumbbell = match hubs.muxdemux {
        Some(md) => {
            let sol = merge.place(false);
            match merge.build(sol.hub_a, sol.hub_b, md, HubHardware::MuxDemux)? {
                Ok(c) => Some(c),
                Err(reason) => {
                    why = reason;
                    None
                }
            }
        }
        None => None,
    };

    // Topology 2: the star (one shared hub).
    let star = match merge.star()? {
        Ok(c) => Some(c),
        Err(reason) => {
            why = reason;
            None
        }
    };

    Ok(match (dumbbell, star) {
        (Some(d), Some(s)) => Ok(if s.cost < d.cost { s } else { d }),
        (Some(c), None) | (None, Some(c)) => Ok(c),
        (None, None) => Err(why),
    })
}

/// Proves, without the cold solve, that `subset`'s merge candidate
/// costs at least `threshold`, and returns the proven lower bound on
/// its cost.
///
/// [`merge_candidate_explained`] keeps the cheaper of the star and the
/// dumbbell. The star is priced here by the same code, so its cost is
/// the one the cold solve would get. For the dumbbell, the hubs come
/// from the warm-started two-hub solve ([`TwoHubProblem::solve_warm`]),
/// and [`TwoHubProblem::euclidean_lower_bound`] turns them into a
/// bound on the optimum of the objective with [`rate_floor`] weights.
/// Every priced segment costs at least its floor times its length, so
/// the bound plus the mux/demux price holds for the dumbbell at *any*
/// hubs, the cold solve's included — less the `ZERO_LEN` stubs the
/// builder trims, and lowered by a relative 1e-9 for rounding.
///
/// `None` means "not proven": the star is infeasible or below
/// `threshold`, the bound falls short, or the dumbbell is not solved
/// iteratively (a non-Euclidean norm, whose solvers are exact, or no
/// mux/demux pair). The caller then runs [`merge_candidate_explained`]
/// and uses only its result, so every kept candidate and every
/// infeasibility verdict comes from the cold solve. A feasible star
/// also rules out an `Infeasible` cold verdict for a proven subset.
pub(crate) fn merge_dominated_warm(
    graph: &ConstraintGraph,
    library: &Library,
    subset: &[usize],
    cache: &PlacementCache,
    threshold: f64,
) -> Option<f64> {
    let hubs = HubOffer::of(library);
    let md = hubs.muxdemux.filter(|_| graph.norm() == Norm::Euclidean)?;
    // One profiler call per subset, independent of chunking/threads.
    let _profile = ccs_obs::profile::scope("warm_certify");
    let merge = Merge::new(graph, library, subset, cache, hubs).ok()?;
    let star = merge.star().ok()?.ok()?.cost;
    if star < threshold {
        return None;
    }
    let sol = merge.place(true);
    let floor = |demand| cache.rate_floor(library, demand);
    let weighted = |ends: &[(Point2, f64)]| -> Vec<(Point2, f64)> {
        ends.iter()
            .zip(&merge.arcs)
            .map(|(&(p, _), (_, a))| (p, floor(a.bandwidth)))
            .collect()
    };
    let trunk_floor = floor(merge.trunk_demand);
    let floors = TwoHubProblem::new(
        weighted(&merge.sources),
        weighted(&merge.sinks),
        trunk_floor,
    );
    let stubs: f64 = merge
        .arcs
        .iter()
        .map(|(_, a)| 2.0 * floor(a.bandwidth))
        .sum();
    let dumbbell =
        md + floors.euclidean_lower_bound(sol.hub_a, sol.hub_b) - ZERO_LEN * (stubs + trunk_floor);
    let bound = (dumbbell - dumbbell.abs() * 1e-9).min(star);
    (bound >= threshold).then_some(bound)
}

/// One merge subset, ready to place: its member arcs, trunk demand and
/// placement weights. Shared by the cold solve and the warm proof.
struct Merge<'a> {
    graph: &'a ConstraintGraph,
    library: &'a Library,
    subset: &'a [usize],
    hubs: HubOffer,
    arcs: Vec<(usize, &'a crate::constraint::Channel)>,
    trunk_demand: Bandwidth,
    trunk_rate: f64,
    sources: Vec<(Point2, f64)>,
    sinks: Vec<(Point2, f64)>,
}

impl<'a> Merge<'a> {
    fn new(
        graph: &'a ConstraintGraph,
        library: &'a Library,
        subset: &'a [usize],
        cache: &PlacementCache,
        hubs: HubOffer,
    ) -> Result<Merge<'a>, InfeasibleReason> {
        assert!(subset.len() >= 2, "a merging needs at least two arcs");
        if hubs.star().is_none() {
            return Err(InfeasibleReason::NoHubHardware);
        }
        let arcs: Vec<_> = subset
            .iter()
            .map(|&i| (i, graph.arc(ArcId(i as u32))))
            .collect();
        let trunk_demand: Bandwidth = arcs.iter().map(|(_, a)| a.bandwidth).sum();
        // Hub placement with per-length price weights.
        let trunk_rate = cache
            .effective_rate(library, trunk_demand)
            .ok_or(InfeasibleReason::UnroutableDemand)?;
        let mut sources = Vec::with_capacity(arcs.len());
        let mut sinks = Vec::with_capacity(arcs.len());
        for (_, a) in &arcs {
            let rate = cache
                .effective_rate(library, a.bandwidth)
                .ok_or(InfeasibleReason::UnroutableDemand)?;
            sources.push((graph.position(a.src), rate));
            sinks.push((graph.position(a.dst), rate));
        }
        Ok(Merge {
            graph,
            library,
            subset,
            hubs,
            arcs,
            trunk_demand,
            trunk_rate,
            sources,
            sinks,
        })
    }

    /// The dumbbell's two-hub solve, warm-started when `warm`.
    fn place(&self, warm: bool) -> TwoHubSolution {
        let problem = TwoHubProblem::new(self.sources.clone(), self.sinks.clone(), self.trunk_rate);
        let norm = self.graph.norm();
        let sol = if warm {
            problem.solve_warm(norm)
        } else {
            problem.solve(norm)
        };
        if ccs_obs::enabled() {
            ccs_obs::counter("placement.twohub_solves", 1);
            ccs_obs::counter("placement.twohub_iterations", sol.iterations as u64);
            ccs_obs::gauge("placement.twohub_residual", sol.residual);
        }
        sol
    }

    /// The star: one shared hub at the Weber point of every terminal.
    /// A single switch can realize it; a co-located mux/demux pair is
    /// the fallback when the switch is absent or pricier.
    fn star(&self) -> Result<Result<Candidate, InfeasibleReason>, SynthesisError> {
        let anchors: Vec<(Point2, f64)> = self.sources.iter().chain(&self.sinks).copied().collect();
        let hub = WeberProblem::new(anchors).solve(self.graph.norm());
        ccs_obs::counter("placement.weber_solves", 1);
        let (hw, node_cost) = self.hubs.star().expect("checked in Merge::new");
        self.build(hub, hub, node_cost, hw)
    }

    /// Prices one concrete merge topology; `Err(reason)` when some
    /// stretch cannot be implemented with this library or a hop bound
    /// is exceeded.
    fn build(
        &self,
        hub_a: Point2,
        hub_b: Point2,
        node_cost: f64,
        hub_hardware: HubHardware,
    ) -> Result<Result<Candidate, InfeasibleReason>, SynthesisError> {
        let Merge {
            graph,
            library,
            subset,
            ref arcs,
            trunk_demand,
            ..
        } = *self;
        let norm = graph.norm();
        let mut segments = Vec::new();
        let mut cost = node_cost;

        // Source branches.
        for (idx, a) in arcs {
            let pos = graph.position(a.src);
            let len = norm.distance(pos, hub_a);
            if len <= ZERO_LEN {
                continue;
            }
            let Ok(plan) = best_plan(library, len, a.bandwidth, ArcId(*idx as u32)) else {
                return Ok(Err(InfeasibleReason::UnroutableDemand));
            };
            cost += plan.cost;
            segments.push(SegmentPlan {
                from: Endpoint::Port(a.src),
                to: Endpoint::HubA,
                from_pos: pos,
                to_pos: hub_a,
                length: len,
                demand: a.bandwidth,
                plan,
                arcs: vec![*idx],
            });
        }

        // Common path (trunk). A star topology has none by construction.
        let trunk_len = norm.distance(hub_a, hub_b);
        if trunk_len > ZERO_LEN {
            let Ok(plan) = best_plan(library, trunk_len, trunk_demand, ArcId(subset[0] as u32))
            else {
                return Ok(Err(InfeasibleReason::UnroutableDemand));
            };
            cost += plan.cost;
            segments.push(SegmentPlan {
                from: Endpoint::HubA,
                to: Endpoint::HubB,
                from_pos: hub_a,
                to_pos: hub_b,
                length: trunk_len,
                demand: trunk_demand,
                plan,
                arcs: subset.to_vec(),
            });
        }

        // Destination branches.
        for (idx, a) in arcs {
            let pos = graph.position(a.dst);
            let len = norm.distance(hub_b, pos);
            if len <= ZERO_LEN {
                continue;
            }
            let Ok(plan) = best_plan(library, len, a.bandwidth, ArcId(*idx as u32)) else {
                return Ok(Err(InfeasibleReason::UnroutableDemand));
            };
            cost += plan.cost;
            segments.push(SegmentPlan {
                from: Endpoint::HubB,
                to: Endpoint::Port(a.dst),
                from_pos: hub_b,
                to_pos: pos,
                length: len,
                demand: a.bandwidth,
                plan,
                arcs: vec![*idx],
            });
        }

        // Latency extension: a member arc's end-to-end hops are the sum over
        // the segments that carry it; exceeding its bound disqualifies the
        // whole merging (we do not re-plan segments under tighter budgets).
        for (idx, a) in arcs {
            if let Some(limit) = a.max_hops {
                let hops: u32 = segments
                    .iter()
                    .filter(|s| s.arcs.contains(idx))
                    .map(|s| s.plan.hops)
                    .sum();
                if hops > limit {
                    return Ok(Err(InfeasibleReason::HopLimitExceeded));
                }
            }
        }

        Ok(Ok(Candidate {
            arcs: subset.to_vec(),
            kind: CandidateKind::Merging { k: subset.len() },
            hub_a: Some(hub_a),
            hub_b: Some(hub_b),
            segments,
            hub_hardware,
            node_cost,
            cost,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintGraph;
    use crate::library::{wan_paper_library, Library, Link};
    use ccs_geom::Norm;

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    /// Three 10 Mb/s channels from a tight cluster to one far node —
    /// the shape of the paper's winning merge {a4, a5, a6}.
    fn cluster_to_far() -> ConstraintGraph {
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let s0 = b.add_port("A", Point2::new(0.0, 0.0));
        let s1 = b.add_port("B", Point2::new(5.0, 0.0));
        let s2 = b.add_port("C", Point2::new(-2.8, 4.6));
        let d = b.add_port("D", Point2::new(64.8, 76.4));
        b.add_channel(s0, d, mbps(10.0)).unwrap();
        b.add_channel(s1, d, mbps(10.0)).unwrap();
        b.add_channel(s2, d, mbps(10.0)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn p2p_candidate_mirrors_best_plan() {
        let g = cluster_to_far();
        let lib = wan_paper_library();
        let c = point_to_point_candidate(&g, &lib, 0).unwrap();
        assert_eq!(c.kind, CandidateKind::PointToPoint);
        assert_eq!(c.arcs, vec![0]);
        assert_eq!(c.segments.len(), 1);
        let d = g.arc(ArcId(0)).distance;
        assert!((c.cost - 2000.0 * d).abs() < 1e-6); // radio at $2000/km
        assert!(c.hub_a.is_none());
        assert_eq!(c.total_links(), 1);
    }

    #[test]
    fn effective_rate_picks_cheapest_feasible() {
        let lib = wan_paper_library();
        // 10 Mb/s: radio 1 lane at 2000.
        assert_eq!(effective_rate(&lib, mbps(10.0)), Some(2000.0));
        // 30 Mb/s: radio ×3 = 6000 vs optical 4000 → optical.
        assert_eq!(effective_rate(&lib, mbps(30.0)), Some(4000.0));
        // 22 Mb/s: radio ×2 = 4000 ties optical 4000.
        assert_eq!(effective_rate(&lib, mbps(22.0)), Some(4000.0));
    }

    #[test]
    fn merge_of_shared_destination_beats_p2p_sum() {
        let g = cluster_to_far();
        let lib = wan_paper_library();
        let merged = merge_candidate(&g, &lib, &[0, 1, 2]).unwrap().unwrap();
        assert_eq!(merged.kind, CandidateKind::Merging { k: 3 });
        let p2p_sum: f64 = (0..3)
            .map(|i| point_to_point_candidate(&g, &lib, i).unwrap().cost)
            .sum();
        assert!(
            merged.cost < p2p_sum,
            "merge {} should beat p2p sum {}",
            merged.cost,
            p2p_sum
        );
        // The demux hub should sit at the shared destination: all
        // destination branches have zero length, so no segment ends at a
        // destination port.
        let d_pos = Point2::new(64.8, 76.4);
        assert!(merged.hub_b.unwrap().approx_eq(d_pos, 1e-3));
        // Trunk demand is the sum (30 Mb/s) → optical (radio is 11 Mb/s).
        let trunk = merged
            .segments
            .iter()
            .find(|s| s.from == Endpoint::HubA && s.to == Endpoint::HubB)
            .expect("trunk segment");
        assert_eq!(trunk.demand, mbps(30.0));
        assert_eq!(lib.link(trunk.plan.link).name, "optical");
        assert_eq!(trunk.arcs, vec![0, 1, 2]);
    }

    #[test]
    fn merge_without_mux_is_not_a_candidate() {
        let g = cluster_to_far();
        let lib = Library::builder()
            .link(Link::per_length("radio", mbps(11.0), 2000.0))
            .link(Link::per_length(
                "optical",
                Bandwidth::from_gbps(1.0),
                4000.0,
            ))
            .node(NodeKind::Repeater, 0.0)
            .build()
            .unwrap();
        assert_eq!(merge_candidate(&g, &lib, &[0, 1]).unwrap(), None);
    }

    #[test]
    fn hub_node_costs_are_charged() {
        let g = cluster_to_far();
        let lib = Library::builder()
            .link(Link::per_length("radio", mbps(11.0), 2000.0))
            .link(Link::per_length(
                "optical",
                Bandwidth::from_gbps(1.0),
                4000.0,
            ))
            .node(NodeKind::Repeater, 0.0)
            .node(NodeKind::Mux, 500.0)
            .node(NodeKind::Demux, 700.0)
            .build()
            .unwrap();
        let free = merge_candidate(&g, &wan_paper_library(), &[0, 1, 2])
            .unwrap()
            .unwrap();
        let paid = merge_candidate(&g, &lib, &[0, 1, 2]).unwrap().unwrap();
        assert_eq!(paid.node_cost, 1200.0);
        assert!((paid.cost - free.cost - 1200.0).abs() < 1.0);
    }

    #[test]
    fn segment_arcs_trace_routing() {
        let g = cluster_to_far();
        let lib = wan_paper_library();
        let merged = merge_candidate(&g, &lib, &[0, 1, 2]).unwrap().unwrap();
        // Each arc must appear in at least one branch or the trunk.
        for i in 0..3 {
            assert!(
                merged.segments.iter().any(|s| s.arcs.contains(&i)),
                "arc {i} unrouted"
            );
        }
        // Total cost decomposes into segments + hubs.
        let seg_sum: f64 = merged.segments.iter().map(|s| s.plan.cost).sum();
        assert!((merged.cost - seg_sum - merged.node_cost).abs() < 1e-9);
    }

    #[test]
    fn far_apart_merge_is_costed_but_unattractive() {
        // Two channels in opposite directions across the plane: a merge
        // exists structurally but must cost more than the p2p pair.
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let s0 = b.add_port("s0", Point2::new(0.0, 0.0));
        let t0 = b.add_port("t0", Point2::new(100.0, 0.0));
        let s1 = b.add_port("s1", Point2::new(100.0, 50.0));
        let t1 = b.add_port("t1", Point2::new(0.0, 50.0));
        b.add_channel(s0, t0, mbps(10.0)).unwrap();
        b.add_channel(s1, t1, mbps(10.0)).unwrap();
        let g = b.build().unwrap();
        let lib = wan_paper_library();
        let merged = merge_candidate(&g, &lib, &[0, 1]).unwrap().unwrap();
        let p2p_sum: f64 = (0..2)
            .map(|i| point_to_point_candidate(&g, &lib, i).unwrap().cost)
            .sum();
        assert!(merged.cost >= p2p_sum - 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least two arcs")]
    fn singleton_merge_panics() {
        let g = cluster_to_far();
        let _ = merge_candidate(&g, &wan_paper_library(), &[0]);
    }

    /// A library whose only hub hardware is a switch.
    fn switch_only_library() -> Library {
        Library::builder()
            .link(Link::per_length("radio", mbps(11.0), 2000.0))
            .link(Link::per_length(
                "optical",
                Bandwidth::from_gbps(1.0),
                4000.0,
            ))
            .node(NodeKind::Repeater, 0.0)
            .node(NodeKind::Switch, 10.0)
            .build()
            .unwrap()
    }

    #[test]
    fn switch_enables_merging_without_mux_demux() {
        // No mux/demux: the dumbbell is unavailable, but the star with a
        // single switch still produces a candidate.
        let g = cluster_to_far();
        let c = merge_candidate(&g, &switch_only_library(), &[0, 1, 2])
            .unwrap()
            .expect("switch star is a candidate");
        assert_eq!(c.hub_hardware, HubHardware::SingleSwitch);
        assert_eq!(c.node_cost, 10.0);
        // Star topology: hubs coincide, no trunk segment.
        assert_eq!(c.hub_a, c.hub_b);
        assert!(c
            .segments
            .iter()
            .all(|s| !(s.from == Endpoint::HubA && s.to == Endpoint::HubB)));
    }

    #[test]
    fn dumbbell_beats_star_when_trunk_pays() {
        // With mux/demux available, the shared-destination merge keeps
        // the dumbbell (its optical trunk is the whole point).
        let g = cluster_to_far();
        let lib = wan_paper_library();
        let c = merge_candidate(&g, &lib, &[0, 1, 2]).unwrap().unwrap();
        assert_eq!(c.hub_hardware, HubHardware::MuxDemux);
    }

    #[test]
    fn cheap_switch_wins_cost_tie_on_star() {
        // Expensive mux/demux vs cheap switch: when the merge shape is a
        // star anyway, the switch hardware is chosen.
        let lib = Library::builder()
            .link(Link::per_length("radio", mbps(11.0), 2000.0))
            .link(Link::per_length(
                "optical",
                Bandwidth::from_gbps(1.0),
                4000.0,
            ))
            .node(NodeKind::Repeater, 0.0)
            .node(NodeKind::Mux, 400.0)
            .node(NodeKind::Demux, 400.0)
            .node(NodeKind::Switch, 100.0)
            .build()
            .unwrap();
        // Crossing channels: the natural hub is the shared crossing point
        // and the trunk collapses.
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let s0 = b.add_port("s0", Point2::new(0.0, 0.0));
        let t0 = b.add_port("t0", Point2::new(10.0, 10.0));
        let s1 = b.add_port("s1", Point2::new(0.0, 10.0));
        let t1 = b.add_port("t1", Point2::new(10.0, 0.0));
        b.add_channel(s0, t0, mbps(10.0)).unwrap();
        b.add_channel(s1, t1, mbps(10.0)).unwrap();
        let g = b.build().unwrap();
        let c = merge_candidate(&g, &lib, &[0, 1]).unwrap().unwrap();
        assert_eq!(c.hub_hardware, HubHardware::SingleSwitch);
        assert_eq!(c.node_cost, 100.0);
    }

    #[test]
    fn rate_floor_drops_repeater_amortization() {
        let lib = wan_paper_library();
        assert_eq!(rate_floor(&lib, mbps(10.0)), 2000.0);
        assert_eq!(rate_floor(&lib, mbps(30.0)), 4000.0);
        // A length-capped per-segment wire floors at cost / max_length
        // per lane; effective_rate adds the amortized repeaters on top.
        let wire = Library::builder()
            .link(Link::fixed_length("w", Bandwidth::from_gbps(1.0), 0.5, 3.0))
            .node(NodeKind::Repeater, 7.0)
            .build()
            .unwrap();
        assert_eq!(rate_floor(&wire, mbps(10.0)), 6.0);
        assert!(effective_rate(&wire, mbps(10.0)).unwrap() > 6.0);
        // An unbounded per-segment link has no unavoidable per-length
        // charge at all.
        let flat = Library::builder()
            .link(Link {
                name: "flat".into(),
                bandwidth: Bandwidth::from_gbps(1.0),
                max_length: f64::INFINITY,
                cost: crate::library::LinkCost::PerSegment(3.0),
            })
            .build()
            .unwrap();
        assert_eq!(rate_floor(&flat, mbps(10.0)), 0.0);
    }

    #[test]
    fn lower_bound_never_exceeds_solved_cost() {
        let g = cluster_to_far();
        let lib = wan_paper_library();
        let cache = PlacementCache::new();
        for subset in [vec![0, 1], vec![0, 2], vec![1, 2], vec![0, 1, 2]] {
            let lb = merge_cost_lower_bound(&g, &lib, &subset, &cache);
            let c = merge_candidate_explained(&g, &lib, &subset, &cache)
                .unwrap()
                .unwrap();
            assert!(
                lb <= c.cost + 1e-9,
                "lb {lb} > cost {} for {subset:?}",
                c.cost
            );
        }
    }

    #[test]
    fn lower_bound_is_infinite_without_hub_hardware() {
        let g = cluster_to_far();
        let lib = Library::builder()
            .link(Link::per_length("radio", mbps(11.0), 2000.0))
            .node(NodeKind::Repeater, 0.0)
            .build()
            .unwrap();
        assert!(merge_cost_lower_bound(&g, &lib, &[0, 1], &PlacementCache::new()).is_infinite());
    }

    #[test]
    fn equal_rate_pair_bound_reaches_p2p_sum() {
        // Two equal-bandwidth arcs: the trunk floor is twice the member
        // floor (two radio lanes), so λ = 1 and the bound reaches the
        // members' p2p sum — exactly the pairs the lb-gate skips without
        // running a solve.
        let g = cluster_to_far();
        let lib = wan_paper_library();
        let cache = PlacementCache::new();
        let lb = merge_cost_lower_bound(&g, &lib, &[0, 1], &cache);
        let p2p_sum: f64 = (0..2)
            .map(|i| point_to_point_candidate(&g, &lib, i).unwrap().cost)
            .sum();
        assert!(lb >= p2p_sum * (1.0 - 1e-6), "lb {lb} vs p2p {p2p_sum}");
    }

    #[test]
    fn star_never_beats_p2p_on_links() {
        // Triangle inequality: routing each arc via a shared hub cannot
        // shorten it, so a star merge's link cost is ≥ the p2p sum — the
        // reason SingleSwitch candidates only matter for hardware cost
        // comparisons and mux-less libraries.
        let g = cluster_to_far();
        let lib = switch_only_library();
        let star = merge_candidate(&g, &lib, &[0, 1, 2]).unwrap().unwrap();
        let p2p_sum: f64 = (0..3)
            .map(|i| point_to_point_candidate(&g, &lib, i).unwrap().cost)
            .sum();
        let star_links = star.cost - star.node_cost;
        assert!(star_links >= p2p_sum - 1e-6);
    }
}
