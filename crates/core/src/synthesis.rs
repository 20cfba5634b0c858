//! The end-to-end synthesis pipeline (the paper's two-phase algorithm).
//!
//! [`Synthesizer::run`] executes:
//!
//! 1. Γ/Δ matrix computation ([`crate::matrices`]);
//! 2. optimum point-to-point candidates for every arc ([`crate::p2p`],
//!    [`crate::placement`]);
//! 3. merge-candidate enumeration with the paper's pruning theorems
//!    ([`crate::merging`]);
//! 4. hub placement and exact costing of every surviving merge subset
//!    ([`crate::placement`]), with an additional *cost dominance* filter
//!    (a merging never cheaper than its members' point-to-point sum can
//!    be dropped exactly) — subsets whose cheap geometric lower bound
//!    ([`crate::placement::merge_cost_lower_bound`]) already reaches the
//!    dominance threshold skip the solve outright
//!    ([`MergeConfig::lb_gate`]), and on Euclidean instances a certified
//!    bound from a cheap warm-started solve proves most of the rest
//!    dominated before the exact (cold) solve would run;
//! 5. weighted unate covering over all candidates ([`crate::cover`]);
//! 6. assembly of the final implementation graph
//!    ([`crate::implementation`]).

use crate::constraint::{Channel, ConstraintGraph, Port, PortId};
use crate::cover::{select_seeded_on, CoverStrategy};
use crate::error::SynthesisError;
use crate::implementation::ImplementationGraph;
use crate::library::Library;
use crate::matrices::DistanceMatrices;
use crate::merging::{enumerate_with, MergeConfig, MergeStats};
use crate::placement::{
    merge_candidate_explained, merge_cost_lower_bound, merge_dominated_warm,
    point_to_point_candidate, Candidate, HubOffer, InfeasibleReason, PlacementCache,
};
use crate::units::Bandwidth;
use ccs_exec::{CancelToken, Executor};
use ccs_geom::Point2;
use ccs_obs::ledger::{self, Cause, DecisionEvent};
use ccs_obs::PhaseRecord;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Tunable knobs of the pipeline. The default reproduces the paper.
#[derive(Debug, Clone, Default)]
pub struct SynthesisConfig {
    /// Merge-candidate enumeration configuration.
    pub merge: MergeConfig,
    /// Which UCP solver selects the global solution.
    pub cover: CoverStrategy,
    /// Drop merge candidates costing at least the sum of their members'
    /// point-to-point costs (exact, loses no optimality).
    pub keep_dominated: bool,
    /// Verify Assumption 2.1 before running (O(|A|²) extra work) and fail
    /// fast when the library violates it.
    pub check_assumption: bool,
    /// Worker threads for the parallel phases (p2p, merging sweeps, hub
    /// placement). `0` resolves through [`ccs_exec::default_threads`]
    /// (the `CCS_THREADS` environment variable, else the machine's
    /// available parallelism). Results are bit-identical for every
    /// thread count.
    pub threads: usize,
    /// Cooperative cancellation: the pipeline polls this token at phase
    /// boundaries and per sweep item and aborts with
    /// [`SynthesisError::Cancelled`] once it is cancelled. The default
    /// token is never cancelled.
    pub cancel: CancelToken,
    /// A placement-rate cache shared across runs (the `ccs serve`
    /// daemon reuses one per library so repeated demands are priced
    /// once per process, not once per request). Cached values are pure
    /// functions of `(library, demand)`, so sharing cannot perturb
    /// results — but a cache must only ever be shared between runs
    /// using the *same* library. `None` gives each run a private cache.
    pub shared_cache: Option<Arc<PlacementCache>>,
}

/// Configs compare by value for the plain knobs; the cancel token and
/// shared cache compare by identity (they are handles, not values).
impl PartialEq for SynthesisConfig {
    fn eq(&self, other: &Self) -> bool {
        self.merge == other.merge
            && self.cover == other.cover
            && self.keep_dominated == other.keep_dominated
            && self.check_assumption == other.check_assumption
            && self.threads == other.threads
            && self.cancel == other.cancel
            && match (&self.shared_cache, &other.shared_cache) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (None, None) => true,
                _ => false,
            }
    }
}

/// Statistics collected during one synthesis run.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisStats {
    /// Number of constraint arcs.
    pub arc_count: usize,
    /// Cost of the pure point-to-point solution (Def. 2.6 baseline).
    pub p2p_cost: f64,
    /// Enumeration statistics (per-k counts, prunes, Theorem 3.1 drops).
    pub merge_stats: MergeStats,
    /// Placement tallies (infeasible, dominated, gated subsets).
    pub placement: PlacementStats,
    /// Exact-solver statistics, when the exact solver ran.
    pub ucp_stats: Option<ccs_covering::SolveStats>,
    /// Wall-clock time of the run (its `total` span).
    pub elapsed: Duration,
    /// The six pipeline phases in execution order (`p2p`, `matrices`,
    /// `merging`, `placement`, `covering`, `assembly`), each with its
    /// wall time and — for the four executor phases — summed worker
    /// CPU time. The same figures reach the [`ccs_obs`] recorder as
    /// the spans `<phase>` and `<phase>.cpu`.
    pub phases: Vec<PhaseRecord>,
    /// Worker threads used by the parallel phases (resolved, ≥ 1).
    pub threads: usize,
    /// Named per-phase counters, derived deterministically from this
    /// run alone: `p2p.candidates`, the lists of
    /// [`MergeStats::counters`], [`PlacementStats::counters`] and
    /// [`CoverOutcome::counters`](crate::cover::CoverOutcome::counters),
    /// and on a warm run the `resynth.*_reused` counts. Each value is
    /// the one the [`ccs_obs`] counter stream receives. Scheduling-
    /// dependent executor metrics (steal counts, queue depths) are
    /// deliberately excluded; only `exec.threads` and `exec.tasks`
    /// appear, and both are fixed for a given thread count.
    pub counters: BTreeMap<String, u64>,
}

/// The output of a synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The minimum-cost architecture.
    pub implementation: ImplementationGraph,
    /// The selected candidates, in covering order.
    pub selected: Vec<Candidate>,
    /// All candidates considered by the covering step (point-to-point
    /// first, then mergings in enumeration order).
    pub candidates: Vec<Candidate>,
    /// The Γ/Δ matrices of the instance.
    pub matrices: DistanceMatrices,
    /// Run statistics.
    pub stats: SynthesisStats,
}

impl SynthesisResult {
    /// Total cost of the selected architecture.
    pub fn total_cost(&self) -> f64 {
        self.implementation.total_cost()
    }

    /// Cost saving of the synthesized architecture relative to the pure
    /// point-to-point solution, as a fraction in `[0, 1)`.
    pub fn saving_vs_p2p(&self) -> f64 {
        if self.stats.p2p_cost <= 0.0 {
            return 0.0;
        }
        1.0 - self.total_cost() / self.stats.p2p_cost
    }
}

/// The synthesis facade: borrows a constraint graph and a library, runs
/// the full pipeline on [`run`](Self::run).
///
/// # Examples
///
/// See the [crate-level quickstart](crate).
#[derive(Debug, Clone)]
pub struct Synthesizer<'a> {
    graph: &'a ConstraintGraph,
    library: &'a Library,
    config: SynthesisConfig,
}

impl<'a> Synthesizer<'a> {
    /// Creates a synthesizer with the default (paper-faithful)
    /// configuration.
    pub fn new(graph: &'a ConstraintGraph, library: &'a Library) -> Self {
        Synthesizer {
            graph,
            library,
            config: SynthesisConfig::default(),
        }
    }

    /// Replaces the configuration.
    #[must_use]
    pub fn with_config(mut self, config: SynthesisConfig) -> Self {
        self.config = config;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &SynthesisConfig {
        &self.config
    }

    /// Runs the full pipeline.
    ///
    /// # Errors
    ///
    /// * per-arc infeasibility from [`crate::p2p::best_plan`]
    ///   ([`SynthesisError::NoFeasibleLink`] and friends);
    /// * [`SynthesisError::AssumptionViolated`] when
    ///   [`SynthesisConfig::check_assumption`] is set and fails;
    /// * [`SynthesisError::Cover`] from the covering solver.
    pub fn run(&self) -> Result<SynthesisResult, SynthesisError> {
        self.run_impl(None)
    }

    /// Pipeline body shared by cold runs ([`run`](Self::run), `session
    /// = None`) and warm re-synthesis ([`SynthesisSession`], `session =
    /// Some`). A warm run reuses the session's cached point-to-point
    /// candidates and placement verdicts (both pure functions of their
    /// member arcs and the library — [`SynthesisSession::apply_edits`]
    /// has already dropped every entry an edit could have touched) and
    /// seeds the covering solver with the previous selection. None of
    /// the reuse can change a single result bit: cached values are the
    /// bits a recompute would produce, they are folded in the same
    /// order, and [`select_seeded_on`] is result-identical to an unseeded
    /// solve by construction.
    fn run_impl(
        &self,
        mut session: Option<&mut SessionState>,
    ) -> Result<SynthesisResult, SynthesisError> {
        let warm = session.is_some();
        // The whole run is the `total` span and profiles as one
        // `synthesize` tree. Each phase below is one `ccs_obs::phase`
        // guard, finished at phase end so siblings never nest; an early
        // return or unwind closes whatever is open, so a failed run
        // still reports the phases it entered.
        let run = ccs_obs::run_phase("total", "synthesize");
        let mut phases = Vec::with_capacity(6);
        let graph = self.graph;
        let library = self.library;
        let exec = Executor::new(self.config.threads);
        let threads = exec.threads();
        let cancel = &self.config.cancel;
        if cancel.is_cancelled() {
            return Err(SynthesisError::Cancelled);
        }

        if self.config.check_assumption {
            if let Some((a, b)) = crate::p2p::check_assumption(graph, library)? {
                return Err(SynthesisError::AssumptionViolated(a, b));
            }
        }

        // Phase 1a: optimum point-to-point candidates (always included —
        // they make the covering matrix feasible by construction). The
        // sweep fans out per arc; folding the slot-ordered results keeps
        // the accumulated p2p cost and the first reported error
        // identical to a serial loop.
        let mut phase = ccs_obs::phase("p2p");
        let arc_idxs: Vec<usize> = (0..graph.arc_count()).collect();
        let (p2p_results, p2p_exec) = {
            let cached: Option<&[Option<Candidate>]> = session
                .as_deref()
                .map(|s| s.p2p.as_slice())
                .filter(|p| p.len() == graph.arc_count());
            exec.par_map_stats(&arc_idxs, |_, &i| {
                if cancel.is_cancelled() {
                    return Err(SynthesisError::Cancelled);
                }
                if let Some(c) = cached.and_then(|p| p[i].as_ref()) {
                    return Ok((c.clone(), true));
                }
                point_to_point_candidate(graph, library, i).map(|c| (c, false))
            })
        };
        phase.add_cpu(p2p_exec.busy);
        let mut candidates: Vec<Candidate> = Vec::with_capacity(p2p_results.len());
        let mut p2p_cost = 0.0;
        let mut p2p_reused = 0u64;
        for r in p2p_results {
            let (c, reused) = r?;
            p2p_cost += c.cost;
            p2p_reused += u64::from(reused);
            candidates.push(c);
        }
        phases.push(phase.finish());
        // The run record: each deterministic counter enters it where the
        // recorder stream receives it, so the two carry one value and a
        // failed run has still streamed every phase it finished.
        let mut counters = BTreeMap::new();
        record(&mut counters, [("p2p.candidates", candidates.len() as u64)]);
        if warm {
            // Reuse counts are pure functions of the edit and the
            // previous state, so they belong in the deterministic map.
            record(&mut counters, [("resynth.p2p_reused", p2p_reused)]);
        }

        if cancel.is_cancelled() {
            return Err(SynthesisError::Cancelled);
        }

        // Phase 1b: merge candidates — Γ/Δ matrices, pruned enumeration,
        // then hub placement and exact costing of every survivor.
        let phase = ccs_obs::phase("matrices");
        let matrices = DistanceMatrices::compute(graph);
        phases.push(phase.finish());

        let mut phase = ccs_obs::phase("merging");
        let enumeration = enumerate_with(graph, library, &matrices, &self.config.merge, &exec);
        phase.add_cpu(enumeration.stats.exec.busy);
        phases.push(phase.finish());
        counters.extend(enumeration.stats.counters());
        if cancel.is_cancelled() {
            return Err(SynthesisError::Cancelled);
        }

        // Hub placement fans out per surviving subset; the shared cache
        // memoizes per-demand placement weights across subsets and
        // workers. Each worker classifies its subset into a verdict;
        // infeasibility/dominance accounting folds the ordered verdicts
        // serially, so counts and kept candidates match a serial run
        // exactly.
        let mut phase = ccs_obs::phase("placement");
        let subsets: Vec<&Vec<usize>> = enumeration.all_subsets().collect();
        let cache: Arc<PlacementCache> = self
            .config
            .shared_cache
            .clone()
            .unwrap_or_else(|| Arc::new(PlacementCache::new()));
        let cache = &*cache;
        // Lower-bound gate: a subset whose cheap geometric bound already
        // reaches the dominance threshold below cannot yield a kept
        // candidate (any real solve costs at least the bound), so the
        // Weber/two-hub iteration is skipped outright. The decision is a
        // pure function of the subset, so it is thread-count invariant.
        let keep_dominated = self.config.keep_dominated;
        let lb_gate = self.config.merge.lb_gate && !keep_dominated;
        let (placed, placement_exec) = {
            let verdicts = session.as_deref().map(|s| &s.verdicts);
            exec.par_map_stats(&subsets, |_, s| {
                if cancel.is_cancelled() {
                    return Err(SynthesisError::Cancelled);
                }
                if let Some(m) = verdicts {
                    let key: Vec<u32> = s.iter().map(|&i| i as u32).collect();
                    if let Some(v) = m.get(&key[..]) {
                        return Ok((v.clone(), true));
                    }
                }
                let member_sum: f64 = s.iter().map(|&i| candidates[i].cost).sum();
                // Hub placement converges to ~1e-9; savings below a
                // relative 1e-6 are numerical noise, not real wins.
                let threshold = member_sum * (1.0 - 1e-6) - 1e-12;
                if lb_gate {
                    // One profiler call per subset, independent of chunking.
                    let _profile = ccs_obs::profile::scope("lb_gate");
                    let lb = merge_cost_lower_bound(graph, library, s, cache);
                    if lb >= threshold {
                        return Ok((Verdict::Gated { lb, member_sum }, false));
                    }
                }
                // Warm certificate: a certified lower bound from a cheap
                // warm-started solve proves dominance; anything else falls
                // through to the cold solve, whose result alone is used.
                if !keep_dominated {
                    if let Some(cost) = merge_dominated_warm(graph, library, s, cache, threshold) {
                        let verdict = Verdict::Dominated {
                            cost,
                            member_sum,
                            warm: true,
                        };
                        return Ok((verdict, false));
                    }
                }
                let verdict = match merge_candidate_explained(graph, library, s, cache)? {
                    Err(reason) => Verdict::Infeasible(reason),
                    Ok(c) if !keep_dominated && c.cost >= threshold => Verdict::Dominated {
                        cost: c.cost,
                        member_sum,
                        warm: false,
                    },
                    Ok(candidate) => Verdict::Kept {
                        candidate,
                        member_sum,
                    },
                };
                Ok((verdict, false))
            })
        };
        phase.add_cpu(placement_exec.busy);
        let ledger_on = ledger::enabled();
        let subset_arcs = |s: &[usize]| -> Vec<u32> { s.iter().map(|&i| i as u32).collect() };
        let mut placement = PlacementStats::default();
        let mut verdicts_reused = 0u64;
        // Fresh solves and cache hits are one verdict type, so the
        // counting and candidate-push order below is literally the same
        // code on both paths.
        for (subset, r) in subsets.iter().zip(placed) {
            let (verdict, reused) = r?;
            verdicts_reused += u64::from(reused);
            if warm && !reused {
                if let Some(s) = session.as_deref_mut() {
                    s.verdicts
                        .insert(subset_arcs(subset).into_boxed_slice(), verdict.clone());
                }
            }
            placement.count(&verdict);
            if ledger_on {
                let (cause, a, b, detail) = verdict.ledger(reused, subset.len(), candidates.len());
                ledger::emit(DecisionEvent::new(cause, subset_arcs(subset), a, b, detail));
            }
            if let Verdict::Kept { candidate, .. } = verdict {
                candidates.push(candidate);
            }
        }
        // A library-global fact, so the skip count is deterministic.
        placement.solves_skipped = placement.lb_gated * HubOffer::of(library).solves_per_subset();
        phases.push(phase.finish());
        record(&mut counters, placement.counters());
        if warm {
            record(
                &mut counters,
                [("resynth.verdicts_reused", verdicts_reused)],
            );
        }

        if cancel.is_cancelled() {
            return Err(SynthesisError::Cancelled);
        }

        // Phase 2: weighted unate covering.
        let mut phase = ccs_obs::phase("covering");
        // A warm run seeds the exact solver with the previous cover,
        // mapped from arc lists to this run's column indices (arc lists
        // are unique across candidates: p2p columns are singletons in
        // arc order, merge subsets are distinct by enumeration). A
        // selection that no longer maps — or no longer covers — is
        // rejected by the solver's seed validation, never trusted.
        let prev_cols: Option<Vec<usize>> = session
            .as_deref()
            .and_then(|s| s.prev_selected.as_ref())
            .map(|prev| {
                let by_arcs: HashMap<&[usize], usize> = candidates
                    .iter()
                    .enumerate()
                    .map(|(i, c)| (c.arcs.as_slice(), i))
                    .collect();
                prev.iter()
                    .filter_map(|arcs| by_arcs.get(arcs.as_slice()).copied())
                    .collect()
            });
        let outcome = select_seeded_on(
            &candidates,
            graph.arc_count(),
            self.config.cover,
            prev_cols.as_deref(),
            &exec,
        )?;
        // Always handed in (zero when no exact sweep ran), so the
        // `covering.cpu` span is present for every strategy.
        phase.add_cpu(outcome.stats.map_or(Duration::ZERO, |s| s.exec.busy));
        counters.extend(outcome.counters().map(|(name, v)| (name.to_string(), v)));
        let selected: Vec<Candidate> = outcome
            .selected
            .iter()
            .map(|&i| candidates[i].clone())
            .collect();
        phases.push(phase.finish());

        // Assemble the architecture.
        let phase = ccs_obs::phase("assembly");
        let implementation = ImplementationGraph::build(graph, library, &selected);
        phases.push(phase.finish());
        let elapsed = run.finish().wall;

        // Both are fixed for a given thread count; steal counts and
        // queue depths are scheduling-dependent and stay out of the map.
        ccs_obs::gauge("exec.threads", threads as f64);
        counters.insert("exec.threads".to_string(), threads as u64);
        let covering_tasks = outcome.stats.map_or(0, |s| s.exec.tasks);
        counters.insert(
            "exec.tasks".to_string(),
            p2p_exec.tasks + enumeration.stats.exec.tasks + placement_exec.tasks + covering_tasks,
        );

        // Persist this run's state for the next warm re-synthesis. The
        // first `arc_count` candidates are exactly the per-arc p2p
        // columns; the k = 2 survivors are the merge-neighborhood
        // adjacency used for the dirty-region counter.
        if let Some(state) = session {
            state.p2p = candidates[..graph.arc_count()]
                .iter()
                .cloned()
                .map(Some)
                .collect();
            state.prev_selected = Some(selected.iter().map(|c| c.arcs.clone()).collect());
            state.pairs = enumeration
                .all_subsets()
                .filter(|s| s.len() == 2)
                .map(|s| (s[0] as u32, s[1] as u32))
                .collect();
        }
        let stats = SynthesisStats {
            arc_count: graph.arc_count(),
            p2p_cost,
            merge_stats: enumeration.stats,
            placement,
            ucp_stats: outcome.stats,
            elapsed,
            phases,
            threads,
            counters,
        };
        Ok(SynthesisResult {
            implementation,
            selected,
            candidates,
            matrices,
            stats,
        })
    }
}

/// One edit applied by [`SynthesisSession::resynthesize`]. Arcs are
/// addressed by index (insertion order, the same indices reports and
/// ledger events use); ports by name. No edit adds or removes arcs, so
/// arc indices are stable across the life of a session.
#[derive(Debug, Clone)]
pub enum Edit {
    /// Change the required bandwidth of an arc.
    ArcRate {
        /// Arc index.
        arc: usize,
        /// New required bandwidth (must be positive).
        bandwidth: Bandwidth,
    },
    /// Change (or clear, with `None`) the hop bound of an arc.
    ArcBound {
        /// Arc index.
        arc: usize,
        /// New hop bound; `None` removes the bound.
        max_hops: Option<u32>,
    },
    /// Move the named module/port to a new position (dirties every
    /// incident arc — their distances, and thus every candidate that
    /// contains them, change).
    MovePort {
        /// Port name as given to the builder.
        port: String,
        /// New position in application units.
        position: Point2,
    },
    /// Replace the component library. Every cached candidate priced
    /// against the old library is invalidated, and the session swaps in
    /// a fresh placement cache (a cache must never be shared across
    /// libraries).
    SetLibrary(Library),
}

/// A cached placement outcome for one merge subset: the classification
/// the serial accounting fold would reach, plus the data its ledger
/// event and counters need. Pure function of the member arcs and the
/// library, so it stays valid exactly until one of those changes.
#[derive(Debug, Clone)]
enum Verdict {
    /// Skipped by the lower-bound gate.
    Gated { lb: f64, member_sum: f64 },
    /// Structurally infeasible with this library.
    Infeasible(InfeasibleReason),
    /// Solved, but never cheaper than its members' p2p sum; `warm` when
    /// the warm certificate decided it (`cost` is then its certified
    /// lower bound on the merged cost).
    Dominated {
        cost: f64,
        member_sum: f64,
        warm: bool,
    },
    /// Solved and kept as a covering column.
    Kept {
        candidate: Candidate,
        member_sum: f64,
    },
}

impl Verdict {
    /// The verdict's decision-ledger record `(cause, a, b, detail)` for
    /// a `k`-subset; a `reused` verdict is filed as
    /// [`Cause::ResynthReused`]. `index` is the candidate-slice position
    /// a kept candidate takes — the index the covering phase (and its
    /// ledger events) will refer to.
    fn ledger(&self, reused: bool, k: usize, index: usize) -> (Cause, f64, f64, String) {
        let (cause, a, b, detail) = match self {
            Verdict::Gated { lb, member_sum } => {
                (Cause::PlacementLbGated, *lb, *member_sum, format!("k={k}"))
            }
            Verdict::Infeasible(reason) => (
                Cause::PlacementInfeasible,
                0.0,
                0.0,
                format!("k={k},{}", reason.id()),
            ),
            Verdict::Dominated {
                cost,
                member_sum,
                warm,
            } => (
                Cause::PlacementDominated,
                *cost,
                *member_sum,
                if *warm {
                    format!("k={k},warm")
                } else {
                    format!("k={k}")
                },
            ),
            Verdict::Kept {
                candidate,
                member_sum,
            } => (
                Cause::PlacementKept,
                candidate.cost,
                *member_sum,
                format!("k={k},index={index}"),
            ),
        };
        let cause = if reused { Cause::ResynthReused } else { cause };
        (cause, a, b, detail)
    }
}

/// Placement-phase tallies of one run over the merge subsets that
/// survived enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlacementStats {
    /// Subsets that survived pruning but were structurally infeasible
    /// with this library.
    pub infeasible_merges: u64,
    /// Merge candidates dropped by the cost-dominance filter.
    pub dominated_dropped: u64,
    /// Subsets whose placement solve was skipped by the lower-bound
    /// gate ([`MergeConfig::lb_gate`]); such subsets are provably
    /// dominated (or infeasible) and are counted here instead of in
    /// [`infeasible_merges`](Self::infeasible_merges) /
    /// [`dominated_dropped`](Self::dominated_dropped).
    pub lb_gated: u64,
    /// Weber/two-hub solver invocations avoided by the lower-bound gate
    /// (`lb_gated ×` solves one subset costs with this library).
    pub solves_skipped: u64,
    /// Subsets the warm certificate settled as dominated without a cold
    /// solve (also counted in
    /// [`dominated_dropped`](Self::dominated_dropped)).
    pub warm_certified: u64,
    /// Subsets whose verdict came from the cold solve (infeasible,
    /// cold-dominated or kept). `lb_gated + warm_certified +
    /// cold_solves` is the surviving subset count.
    pub cold_solves: u64,
}

impl PlacementStats {
    /// The tallies under their metric names: the one list the recorder
    /// stream and [`SynthesisStats::counters`] both derive from.
    pub fn counters(&self) -> [(&'static str, u64); 6] {
        [
            ("placement.infeasible_merges", self.infeasible_merges),
            ("placement.dominated_dropped", self.dominated_dropped),
            ("placement.lb_gated", self.lb_gated),
            ("placement.solves_skipped", self.solves_skipped),
            ("placement.warm_certified", self.warm_certified),
            ("placement.cold_solves", self.cold_solves),
        ]
    }

    /// Tallies one verdict of the placement fold.
    fn count(&mut self, verdict: &Verdict) {
        match verdict {
            Verdict::Gated { .. } => self.lb_gated += 1,
            Verdict::Dominated { warm: true, .. } => {
                self.dominated_dropped += 1;
                self.warm_certified += 1;
            }
            Verdict::Infeasible(_) => {
                self.infeasible_merges += 1;
                self.cold_solves += 1;
            }
            Verdict::Dominated { warm: false, .. } => {
                self.dominated_dropped += 1;
                self.cold_solves += 1;
            }
            Verdict::Kept { .. } => self.cold_solves += 1,
        }
    }
}

/// Persistent warm-start state of a [`SynthesisSession`], keyed by
/// subset signature (the sorted member-arc indices as `u32`, matching
/// the flat arenas of [`crate::bits`]).
#[derive(Debug, Default)]
struct SessionState {
    /// Cached point-to-point candidate per arc; `None` marks a dirty
    /// arc awaiting recompute.
    p2p: Vec<Option<Candidate>>,
    /// Cached placement verdict per surviving merge subset.
    verdicts: HashMap<Box<[u32]>, Verdict>,
    /// Arc lists of the previous cover — the seed for the next exact
    /// solve. Kept even across edits: the solver re-validates the seed
    /// against the new matrix and ignores it when it no longer covers.
    prev_selected: Option<Vec<Vec<usize>>>,
    /// The k = 2 merge survivors of the previous run: the
    /// merge-neighborhood adjacency from which the dirty region of an
    /// edit is measured.
    pairs: Vec<(u32, u32)>,
}

/// An incremental re-synthesis session: owns a constraint graph and a
/// library, and re-runs the pipeline after edits while reusing every
/// cached result the edit provably did not touch.
///
/// Reuse is *invisible in the results*: a warm
/// [`resynthesize`](Self::resynthesize) returns bit-identical
/// implementation, selection, and candidates to a cold
/// [`Synthesizer::run`] on the same (edited) instance, at every thread
/// count. What changes is the work: clean arcs skip their p2p solve,
/// clean merge subsets skip hub placement, and the covering solver is
/// warm-started from the previous cover (see
/// [`ccs_covering::Search::Complete`] for why the seed
/// cannot change the answer).
///
/// Invalidation is edit-driven, before the run: an arc-rate or
/// hop-bound edit dirties that arc; a port move dirties every incident
/// arc; a library swap dirties everything. A cached entry is dropped
/// iff its member set intersects the dirty arcs (or the library
/// changed); each drop is recorded in the decision ledger under
/// `resynth.invalidated`, each reuse under `resynth.reused`.
///
/// # Examples
///
/// ```
/// use ccs_core::synthesis::{Edit, SynthesisConfig, SynthesisSession};
/// use ccs_core::library::wan_paper_library;
/// use ccs_core::units::Bandwidth;
/// # use ccs_core::constraint::ConstraintGraph;
/// # use ccs_geom::{Norm, Point2};
/// # let mut b = ConstraintGraph::builder(Norm::Euclidean);
/// # let s = b.add_port("s", Point2::new(0.0, 0.0));
/// # let t = b.add_port("t", Point2::new(10.0, 0.0));
/// # b.add_channel(s, t, Bandwidth::from_mbps(5.0)).unwrap();
/// # let graph = b.build().unwrap();
/// let mut session =
///     SynthesisSession::new(graph, wan_paper_library(), SynthesisConfig::default());
/// let cold = session.resynthesize(&[])?; // first run populates the caches
/// let warm = session.resynthesize(&[Edit::ArcRate {
///     arc: 0,
///     bandwidth: Bandwidth::from_mbps(7.5),
/// }])?;
/// assert_eq!(warm.stats.arc_count, cold.stats.arc_count);
/// # Ok::<(), ccs_core::error::SynthesisError>(())
/// ```
#[derive(Debug)]
pub struct SynthesisSession {
    graph: ConstraintGraph,
    library: Library,
    config: SynthesisConfig,
    state: SessionState,
}

impl SynthesisSession {
    /// Creates a session over an instance. The first
    /// [`resynthesize`](Self::resynthesize) call is a cold run that
    /// populates the caches. When `config` carries no
    /// [`shared_cache`](SynthesisConfig::shared_cache), the session
    /// installs a private one so placement solves persist across edits.
    pub fn new(graph: ConstraintGraph, library: Library, mut config: SynthesisConfig) -> Self {
        if config.shared_cache.is_none() {
            config.shared_cache = Some(Arc::new(PlacementCache::new()));
        }
        SynthesisSession {
            graph,
            library,
            config,
            state: SessionState::default(),
        }
    }

    /// The current (post-edit) constraint graph.
    pub fn graph(&self) -> &ConstraintGraph {
        &self.graph
    }

    /// The current library.
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// The session configuration. Immutable by design: changing pruning
    /// or covering knobs mid-session would invalidate every cached
    /// verdict, so a new configuration means a new session. The cancel
    /// token is the exception — see [`set_cancel`](Self::set_cancel).
    pub fn config(&self) -> &SynthesisConfig {
        &self.config
    }

    /// Replaces the cancel token polled by subsequent runs (a served
    /// session needs a fresh token per request). Cancellation identity
    /// has no effect on results, so this cannot stale any cache.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.config.cancel = cancel;
    }

    /// Applies `edits` and re-runs the pipeline warm.
    ///
    /// An empty edit list re-synthesizes the unchanged instance (the
    /// second such call reuses everything and is dominated by the
    /// covering solve). On [`SynthesisError::InvalidEdit`] the session
    /// is left exactly as it was — edits are validated against copies
    /// and committed only when the edited instance builds.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::InvalidEdit`] for an unknown arc index or port
    /// name, or when the edited instance fails graph validation (zero
    /// bandwidth, coincident ports, zero hop bound); otherwise the same
    /// errors as [`Synthesizer::run`].
    pub fn resynthesize(&mut self, edits: &[Edit]) -> Result<SynthesisResult, SynthesisError> {
        self.apply_edits(edits)?;
        Synthesizer {
            graph: &self.graph,
            library: &self.library,
            config: self.config.clone(),
        }
        .run_impl(Some(&mut self.state))
    }

    /// Validates and commits `edits`, then drops every cached entry the
    /// edit could have touched. Runs inside the caller's observability
    /// scope: emits `resynth.*` counters (edit, dirty-region, and
    /// invalidation tallies) and one `resynth.invalidated` ledger event
    /// per dropped entry. Serial, so ledger and counters are identical
    /// at every thread count.
    fn apply_edits(&mut self, edits: &[Edit]) -> Result<(), SynthesisError> {
        let n = self.graph.arc_count();
        let mut dirty = vec![false; n];
        let mut library_changed = false;
        if !edits.is_empty() {
            // Work on copies; commit only after the rebuilt graph
            // validates, so a bad edit leaves the session untouched.
            let mut ports: Vec<Port> = self.graph.ports().map(|(_, p)| p.clone()).collect();
            let mut arcs: Vec<Channel> = self.graph.arcs().map(|(_, a)| *a).collect();
            let mut library = None;
            for e in edits {
                match e {
                    Edit::ArcRate { arc, bandwidth } => {
                        let a = arcs.get_mut(*arc).ok_or_else(|| {
                            SynthesisError::InvalidEdit(format!("unknown arc {arc}"))
                        })?;
                        a.bandwidth = *bandwidth;
                        dirty[*arc] = true;
                    }
                    Edit::ArcBound { arc, max_hops } => {
                        let a = arcs.get_mut(*arc).ok_or_else(|| {
                            SynthesisError::InvalidEdit(format!("unknown arc {arc}"))
                        })?;
                        a.max_hops = *max_hops;
                        dirty[*arc] = true;
                    }
                    Edit::MovePort { port, position } => {
                        let idx = ports.iter().position(|p| p.name == *port).ok_or_else(|| {
                            SynthesisError::InvalidEdit(format!("unknown port {port:?}"))
                        })?;
                        ports[idx].position = *position;
                        let pid = PortId(idx as u32);
                        for (i, a) in arcs.iter().enumerate() {
                            if a.src == pid || a.dst == pid {
                                dirty[i] = true;
                            }
                        }
                    }
                    Edit::SetLibrary(lib) => {
                        library = Some(lib.clone());
                        library_changed = true;
                    }
                }
            }
            // Rebuild through the builder: recomputes arc distances
            // from the (possibly moved) positions and re-runs full
            // validation. Insertion order is preserved, so every port
            // and arc keeps its index.
            let mut b = ConstraintGraph::builder(self.graph.norm());
            let pids: Vec<PortId> = ports
                .iter()
                .map(|p| b.add_port(p.name.clone(), p.position))
                .collect();
            for a in &arcs {
                b.add_channel_limited(
                    pids[a.src.index()],
                    pids[a.dst.index()],
                    a.bandwidth,
                    a.max_hops,
                )
                .map_err(|e| SynthesisError::InvalidEdit(e.to_string()))?;
            }
            self.graph = b
                .build()
                .map_err(|e| SynthesisError::InvalidEdit(e.to_string()))?;
            if let Some(lib) = library {
                self.library = lib;
            }
        }

        let ledger_on = ledger::enabled();
        let mut invalidated = 0u64;
        if library_changed {
            for (i, slot) in self.state.p2p.iter_mut().enumerate() {
                if slot.take().is_some() {
                    invalidated += 1;
                    if ledger_on {
                        ledger::emit(DecisionEvent::new(
                            Cause::ResynthInvalidated,
                            vec![i as u32],
                            0.0,
                            0.0,
                            "p2p,library".to_string(),
                        ));
                    }
                }
            }
            self.state.p2p.clear();
            for (key, _) in self.state.verdicts.drain() {
                invalidated += 1;
                if ledger_on {
                    ledger::emit(DecisionEvent::new(
                        Cause::ResynthInvalidated,
                        key.to_vec(),
                        0.0,
                        0.0,
                        "merge,library".to_string(),
                    ));
                }
            }
            // Cached placement rates are functions of the library; a
            // swapped library gets a fresh cache.
            self.config.shared_cache = Some(Arc::new(PlacementCache::new()));
        } else {
            for (i, d) in dirty.iter().enumerate() {
                if !*d {
                    continue;
                }
                if let Some(slot) = self.state.p2p.get_mut(i) {
                    if slot.take().is_some() {
                        invalidated += 1;
                        if ledger_on {
                            ledger::emit(DecisionEvent::new(
                                Cause::ResynthInvalidated,
                                vec![i as u32],
                                0.0,
                                0.0,
                                "p2p,edit".to_string(),
                            ));
                        }
                    }
                }
            }
            self.state.verdicts.retain(|key, _| {
                let hit = key.iter().any(|&a| dirty[a as usize]);
                if hit {
                    invalidated += 1;
                    if ledger_on {
                        ledger::emit(DecisionEvent::new(
                            Cause::ResynthInvalidated,
                            key.to_vec(),
                            0.0,
                            0.0,
                            "merge,edit".to_string(),
                        ));
                    }
                }
                !hit
            });
        }

        if ccs_obs::enabled() {
            // The dirty region: edited arcs plus their merge neighbors
            // (the locality bound on how far an edit propagates).
            let dirty_count = dirty.iter().filter(|&&d| d).count();
            let mut region = dirty.clone();
            for &(a, b) in &self.state.pairs {
                if dirty[a as usize] {
                    region[b as usize] = true;
                }
                if dirty[b as usize] {
                    region[a as usize] = true;
                }
            }
            let region_count = region.iter().filter(|&&d| d).count();
            ccs_obs::counter("resynth.edits", edits.len() as u64);
            ccs_obs::counter("resynth.dirty_arcs", dirty_count as u64);
            ccs_obs::counter("resynth.region_arcs", region_count as u64);
            ccs_obs::counter("resynth.invalidated", invalidated);
        }
        Ok(())
    }
}

/// Emits `counters` to the recorder stream and keeps them in the run
/// record ([`SynthesisStats::counters`]), so both carry one value.
fn record<'a>(run: &mut BTreeMap<String, u64>, counters: impl IntoIterator<Item = (&'a str, u64)>) {
    for (name, value) in counters {
        ccs_obs::counter(name, value);
        run.insert(name.to_string(), value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::verify;
    use crate::library::{wan_paper_library, Library, Link, NodeKind};
    use crate::units::Bandwidth;
    use ccs_geom::{Norm, Point2};

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    /// Three channels from a cluster to a far node plus one unrelated
    /// channel — merging the cluster should win.
    fn cluster_instance() -> ConstraintGraph {
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let a = b.add_port("A", Point2::new(0.0, 0.0));
        let c = b.add_port("B", Point2::new(5.0, 0.0));
        let e = b.add_port("C", Point2::new(-2.8, 4.6));
        let d = b.add_port("D", Point2::new(64.8, 76.4));
        let x = b.add_port("X", Point2::new(200.0, 0.0));
        let y = b.add_port("Y", Point2::new(203.0, 0.0));
        b.add_channel(a, d, mbps(10.0)).unwrap();
        b.add_channel(c, d, mbps(10.0)).unwrap();
        b.add_channel(e, d, mbps(10.0)).unwrap();
        b.add_channel(x, y, mbps(10.0)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn end_to_end_beats_p2p_and_verifies() {
        let g = cluster_instance();
        let lib = wan_paper_library();
        let r = Synthesizer::new(&g, &lib).run().unwrap();
        assert!(r.total_cost() < r.stats.p2p_cost, "merging should pay off");
        assert!(r.saving_vs_p2p() > 0.0);
        assert!(verify(&g, &lib, &r.implementation).is_empty());
        // Every arc covered exactly by the selection.
        let mut covered = [false; 4];
        for c in &r.selected {
            for &a in &c.arcs {
                covered[a] = true;
            }
        }
        assert!(covered.iter().all(|&x| x));
    }

    #[test]
    fn merged_trio_is_selected() {
        let g = cluster_instance();
        let lib = wan_paper_library();
        let r = Synthesizer::new(&g, &lib).run().unwrap();
        // The three clustered channels share one merge candidate.
        assert!(
            r.selected.iter().any(|c| c.arcs == vec![0, 1, 2]),
            "expected 3-way merge in {:?}",
            r.selected
                .iter()
                .map(|c| c.arcs.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn anytime_cover_matches_exact_with_budget() {
        let g = cluster_instance();
        let lib = wan_paper_library();
        let exact = Synthesizer::new(&g, &lib).run().unwrap();
        let cfg = SynthesisConfig {
            cover: CoverStrategy::Anytime {
                node_limit: 1 << 20,
            },
            ..SynthesisConfig::default()
        };
        let any = Synthesizer::new(&g, &lib).with_config(cfg).run().unwrap();
        assert!((any.total_cost() - exact.total_cost()).abs() < 1e-6);
        assert!(any.stats.ucp_stats.expect("stats present").proven_optimal);
    }

    #[test]
    fn greedy_cover_is_no_better_than_exact() {
        let g = cluster_instance();
        let lib = wan_paper_library();
        let exact = Synthesizer::new(&g, &lib).run().unwrap();
        let cfg = SynthesisConfig {
            cover: CoverStrategy::Greedy,
            ..SynthesisConfig::default()
        };
        let greedy = Synthesizer::new(&g, &lib).with_config(cfg).run().unwrap();
        assert!(greedy.total_cost() >= exact.total_cost() - 1e-6);
        assert!(greedy.stats.ucp_stats.is_none());
    }

    #[test]
    fn keep_dominated_increases_columns_not_cost() {
        let g = cluster_instance();
        let lib = wan_paper_library();
        let lean = Synthesizer::new(&g, &lib).run().unwrap();
        let cfg = SynthesisConfig {
            keep_dominated: true,
            ..SynthesisConfig::default()
        };
        let fat = Synthesizer::new(&g, &lib).with_config(cfg).run().unwrap();
        assert!(fat.candidates.len() >= lean.candidates.len());
        assert!((fat.total_cost() - lean.total_cost()).abs() < 1e-6);
    }

    #[test]
    fn stats_are_coherent() {
        let g = cluster_instance();
        let lib = wan_paper_library();
        let r = Synthesizer::new(&g, &lib).run().unwrap();
        assert_eq!(r.stats.arc_count, 4);
        assert_eq!(r.stats.counters["covering.rows"], 4);
        assert_eq!(r.stats.counters["covering.cols"], r.candidates.len() as u64);
        assert!(r.stats.p2p_cost > 0.0);
        // The far pair (arc 3) never merges: deactivated at level 2.
        assert_eq!(r.stats.merge_stats.deactivated_at[3], Some(2));
    }

    #[test]
    fn assumption_check_passes_on_paper_library() {
        let g = cluster_instance();
        let lib = wan_paper_library();
        let cfg = SynthesisConfig {
            check_assumption: true,
            ..SynthesisConfig::default()
        };
        let r = Synthesizer::new(&g, &lib).with_config(cfg).run();
        assert!(r.is_ok());
    }

    #[test]
    fn infeasible_arc_propagates() {
        // A library with only a short link and no repeater cannot span
        // the channels.
        let lib = Library::builder()
            .link(Link::per_length_capped("short", mbps(100.0), 0.5, 1.0))
            .node(NodeKind::Mux, 0.0)
            .node(NodeKind::Demux, 0.0)
            .build()
            .unwrap();
        let g = cluster_instance();
        let err = Synthesizer::new(&g, &lib).run().unwrap_err();
        assert!(matches!(err, SynthesisError::MissingRepeater(_)));
    }

    #[test]
    fn hop_bounds_disable_merging_and_still_verify() {
        // Three clustered channels that would merge (branch + trunk = 2
        // hops each) are pinned to one hop: the merge candidate becomes
        // infeasible and everything stays point-to-point.
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let a = b.add_port("A", Point2::new(0.0, 0.0));
        let c = b.add_port("B", Point2::new(5.0, 0.0));
        let e = b.add_port("C", Point2::new(-2.8, 4.6));
        let d = b.add_port("D", Point2::new(64.8, 76.4));
        for src in [a, c, e] {
            b.add_channel_limited(src, d, mbps(10.0), Some(1)).unwrap();
        }
        let g = b.build().unwrap();
        let lib = wan_paper_library();
        let r = Synthesizer::new(&g, &lib).run().unwrap();
        assert_eq!(r.total_cost(), r.stats.p2p_cost);
        assert!(r
            .selected
            .iter()
            .all(|c| matches!(c.kind, crate::placement::CandidateKind::PointToPoint)));
        assert!(crate::check::verify(&g, &lib, &r.implementation).is_empty());

        // With a 2-hop budget the merge is allowed again (branch + trunk).
        let mut b2 = ConstraintGraph::builder(Norm::Euclidean);
        let a2 = b2.add_port("A", Point2::new(0.0, 0.0));
        let c2 = b2.add_port("B", Point2::new(5.0, 0.0));
        let e2 = b2.add_port("C", Point2::new(-2.8, 4.6));
        let d2 = b2.add_port("D", Point2::new(64.8, 76.4));
        for src in [a2, c2, e2] {
            b2.add_channel_limited(src, d2, mbps(10.0), Some(2))
                .unwrap();
        }
        let g2 = b2.build().unwrap();
        let r2 = Synthesizer::new(&g2, &lib).run().unwrap();
        assert!(r2.total_cost() < r2.stats.p2p_cost);
        assert!(crate::check::verify(&g2, &lib, &r2.implementation).is_empty());
    }

    #[test]
    fn lb_gate_skips_pair_solves_without_changing_results() {
        let g = cluster_instance();
        let lib = wan_paper_library();
        let gated = Synthesizer::new(&g, &lib).run().unwrap();
        // Equal-bandwidth pairs have no economy of scale (λ = 1), so
        // every surviving pair is gated; mux + demux on offer means two
        // solves avoided per gated subset.
        assert!(gated.stats.placement.lb_gated > 0, "gate should fire");
        assert_eq!(
            gated.stats.placement.solves_skipped,
            gated.stats.placement.lb_gated * 2
        );
        let cfg = SynthesisConfig {
            merge: MergeConfig {
                lb_gate: false,
                ..MergeConfig::default()
            },
            ..SynthesisConfig::default()
        };
        let ungated = Synthesizer::new(&g, &lib).with_config(cfg).run().unwrap();
        assert_eq!(ungated.stats.placement.lb_gated, 0);
        assert_eq!(ungated.stats.placement.solves_skipped, 0);
        // Gating only reclassifies subsets the dominance/infeasibility
        // filters would discard after the solve — never the kept ones.
        assert_eq!(
            gated.stats.placement.lb_gated
                + gated.stats.placement.infeasible_merges
                + gated.stats.placement.dominated_dropped,
            ungated.stats.placement.infeasible_merges + ungated.stats.placement.dominated_dropped
        );
        let arcs = |r: &SynthesisResult| {
            r.selected
                .iter()
                .map(|c| c.arcs.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(arcs(&gated), arcs(&ungated));
        assert_eq!(gated.total_cost(), ungated.total_cost());
        assert_eq!(gated.candidates.len(), ungated.candidates.len());
    }

    #[test]
    fn keep_dominated_disables_the_gate() {
        let g = cluster_instance();
        let lib = wan_paper_library();
        let cfg = SynthesisConfig {
            keep_dominated: true,
            ..SynthesisConfig::default()
        };
        let r = Synthesizer::new(&g, &lib).with_config(cfg).run().unwrap();
        // With dominated candidates kept, every solve must actually run.
        assert_eq!(r.stats.placement.lb_gated, 0);
        assert_eq!(r.stats.placement.solves_skipped, 0);
    }

    #[test]
    fn cancelled_token_aborts_with_no_result() {
        let g = cluster_instance();
        let lib = wan_paper_library();
        let cfg = SynthesisConfig::default();
        cfg.cancel.cancel();
        let err = Synthesizer::new(&g, &lib)
            .with_config(cfg)
            .run()
            .unwrap_err();
        assert_eq!(err, SynthesisError::Cancelled);
        assert_eq!(err.to_string(), "synthesis cancelled");
    }

    #[test]
    fn shared_cache_reuse_is_invisible_in_results() {
        let g = cluster_instance();
        let lib = wan_paper_library();
        let private = Synthesizer::new(&g, &lib).run().unwrap();
        let cache = std::sync::Arc::new(PlacementCache::new());
        let cfg = SynthesisConfig {
            shared_cache: Some(cache.clone()),
            ..SynthesisConfig::default()
        };
        // Two runs against one cache: the second hits warm entries.
        let first = Synthesizer::new(&g, &lib)
            .with_config(cfg.clone())
            .run()
            .unwrap();
        let warm = cache.len();
        assert!(warm > 0, "shared cache should be populated");
        let second = Synthesizer::new(&g, &lib).with_config(cfg).run().unwrap();
        assert_eq!(cache.len(), warm, "second run re-prices nothing");
        for r in [&first, &second] {
            assert_eq!(r.total_cost(), private.total_cost());
            assert_eq!(r.stats.counters, private.stats.counters);
            let arcs = |x: &SynthesisResult| {
                x.selected
                    .iter()
                    .map(|c| c.arcs.clone())
                    .collect::<Vec<_>>()
            };
            assert_eq!(arcs(r), arcs(&private));
        }
    }

    /// Structural equality of everything the topology report derives
    /// from: selection, candidate pool, and exact total cost bits.
    fn assert_same_result(warm: &SynthesisResult, cold: &SynthesisResult) {
        assert_eq!(warm.selected, cold.selected);
        assert_eq!(warm.candidates, cold.candidates);
        assert_eq!(warm.total_cost().to_bits(), cold.total_cost().to_bits());
        assert_eq!(warm.stats.p2p_cost.to_bits(), cold.stats.p2p_cost.to_bits());
    }

    #[test]
    fn session_warm_rerun_reuses_everything_and_matches_cold() {
        let g = cluster_instance();
        let lib = wan_paper_library();
        let cold = Synthesizer::new(&g, &lib).run().unwrap();
        let mut session = SynthesisSession::new(g.clone(), lib.clone(), SynthesisConfig::default());
        let first = session.resynthesize(&[]).unwrap();
        let second = session.resynthesize(&[]).unwrap();
        assert_same_result(&first, &cold);
        assert_same_result(&second, &cold);
        // The second run recomputed nothing.
        assert_eq!(second.stats.counters["resynth.p2p_reused"], 4);
        let p = second.stats.placement;
        let total_verdicts = p.lb_gated
            + p.infeasible_merges
            + p.dominated_dropped
            + (second.candidates.len() - second.stats.arc_count) as u64;
        assert_eq!(
            second.stats.counters["resynth.verdicts_reused"],
            total_verdicts
        );
        assert!(total_verdicts > 0, "instance should have merge subsets");
    }

    #[test]
    fn session_arc_edits_match_cold_run_on_edited_instance() {
        let g = cluster_instance();
        let lib = wan_paper_library();
        let mut session = SynthesisSession::new(g.clone(), lib.clone(), SynthesisConfig::default());
        session.resynthesize(&[]).unwrap();
        let warm = session
            .resynthesize(&[
                Edit::ArcRate {
                    arc: 3,
                    bandwidth: mbps(20.0),
                },
                Edit::ArcBound {
                    arc: 0,
                    max_hops: Some(4),
                },
            ])
            .unwrap();
        // Cold reference: the edited instance built from scratch.
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let a = b.add_port("A", Point2::new(0.0, 0.0));
        let c = b.add_port("B", Point2::new(5.0, 0.0));
        let e = b.add_port("C", Point2::new(-2.8, 4.6));
        let d = b.add_port("D", Point2::new(64.8, 76.4));
        let x = b.add_port("X", Point2::new(200.0, 0.0));
        let y = b.add_port("Y", Point2::new(203.0, 0.0));
        b.add_channel_limited(a, d, mbps(10.0), Some(4)).unwrap();
        b.add_channel(c, d, mbps(10.0)).unwrap();
        b.add_channel(e, d, mbps(10.0)).unwrap();
        b.add_channel(x, y, mbps(20.0)).unwrap();
        let edited = b.build().unwrap();
        let cold = Synthesizer::new(&edited, &lib).run().unwrap();
        assert_same_result(&warm, &cold);
        // Arcs 1 and 2 stayed clean, so their p2p solves were reused.
        assert!(warm.stats.counters["resynth.p2p_reused"] >= 2);
        assert!(verify(session.graph(), &lib, &warm.implementation).is_empty());
    }

    #[test]
    fn session_port_move_matches_cold_run() {
        let g = cluster_instance();
        let lib = wan_paper_library();
        let mut session = SynthesisSession::new(g.clone(), lib.clone(), SynthesisConfig::default());
        session.resynthesize(&[]).unwrap();
        let new_pos = Point2::new(70.0, 70.0);
        let warm = session
            .resynthesize(&[Edit::MovePort {
                port: "D".to_string(),
                position: new_pos,
            }])
            .unwrap();
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let a = b.add_port("A", Point2::new(0.0, 0.0));
        let c = b.add_port("B", Point2::new(5.0, 0.0));
        let e = b.add_port("C", Point2::new(-2.8, 4.6));
        let d = b.add_port("D", new_pos);
        let x = b.add_port("X", Point2::new(200.0, 0.0));
        let y = b.add_port("Y", Point2::new(203.0, 0.0));
        b.add_channel(a, d, mbps(10.0)).unwrap();
        b.add_channel(c, d, mbps(10.0)).unwrap();
        b.add_channel(e, d, mbps(10.0)).unwrap();
        b.add_channel(x, y, mbps(10.0)).unwrap();
        let edited = b.build().unwrap();
        let cold = Synthesizer::new(&edited, &lib).run().unwrap();
        assert_same_result(&warm, &cold);
        // D touches arcs 0..3; only the X→Y arc's p2p solve survives.
        assert_eq!(warm.stats.counters["resynth.p2p_reused"], 1);
    }

    #[test]
    fn session_library_swap_invalidates_everything() {
        let g = cluster_instance();
        let lib = wan_paper_library();
        let mut session = SynthesisSession::new(g.clone(), lib, SynthesisConfig::default());
        session.resynthesize(&[]).unwrap();
        // A different library: one long cheap link plus free nodes.
        let lib2 = Library::builder()
            .link(Link::per_length("fiber", mbps(200.0), 1.0))
            .node(NodeKind::Repeater, 10.0)
            .node(NodeKind::Mux, 5.0)
            .node(NodeKind::Demux, 5.0)
            .build()
            .unwrap();
        let warm = session
            .resynthesize(&[Edit::SetLibrary(lib2.clone())])
            .unwrap();
        let cold = Synthesizer::new(&g, &lib2).run().unwrap();
        assert_same_result(&warm, &cold);
        assert_eq!(warm.stats.counters["resynth.p2p_reused"], 0);
        assert_eq!(warm.stats.counters["resynth.verdicts_reused"], 0);
        assert!(verify(&g, &lib2, &warm.implementation).is_empty());
    }

    #[test]
    fn session_invalid_edit_leaves_session_intact() {
        let g = cluster_instance();
        let lib = wan_paper_library();
        let cold = Synthesizer::new(&g, &lib).run().unwrap();
        let mut session = SynthesisSession::new(g, lib, SynthesisConfig::default());
        session.resynthesize(&[]).unwrap();
        for bad in [
            Edit::ArcRate {
                arc: 99,
                bandwidth: mbps(1.0),
            },
            Edit::MovePort {
                port: "nope".to_string(),
                position: Point2::new(0.0, 0.0),
            },
            // Moving X onto Y makes arc 3 zero-length: rejected by
            // graph validation, not applied.
            Edit::MovePort {
                port: "X".to_string(),
                position: Point2::new(203.0, 0.0),
            },
        ] {
            let err = session
                .resynthesize(std::slice::from_ref(&bad))
                .unwrap_err();
            assert!(matches!(err, SynthesisError::InvalidEdit(_)), "{err}");
        }
        // The session still answers, unchanged, fully warm.
        let after = session.resynthesize(&[]).unwrap();
        assert_same_result(&after, &cold);
        assert_eq!(after.stats.counters["resynth.p2p_reused"], 4);
    }

    #[test]
    fn session_results_are_thread_count_invariant() {
        let g = cluster_instance();
        let lib = wan_paper_library();
        let run_at = |threads: usize| {
            let cfg = SynthesisConfig {
                threads,
                ..SynthesisConfig::default()
            };
            let mut session = SynthesisSession::new(g.clone(), lib.clone(), cfg);
            session.resynthesize(&[]).unwrap();
            session
                .resynthesize(&[Edit::ArcRate {
                    arc: 1,
                    bandwidth: mbps(25.0),
                }])
                .unwrap()
        };
        let t1 = run_at(1);
        let t4 = run_at(4);
        assert_same_result(&t1, &t4);
        assert_eq!(t1.stats.counters["resynth.p2p_reused"], 3);
        assert_eq!(
            t1.stats.counters["resynth.verdicts_reused"],
            t4.stats.counters["resynth.verdicts_reused"]
        );
    }

    #[test]
    fn single_channel_system_is_trivially_p2p() {
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let s = b.add_port("s", Point2::new(0.0, 0.0));
        let t = b.add_port("t", Point2::new(10.0, 0.0));
        b.add_channel(s, t, mbps(5.0)).unwrap();
        let g = b.build().unwrap();
        let lib = wan_paper_library();
        let r = Synthesizer::new(&g, &lib).run().unwrap();
        assert_eq!(r.selected.len(), 1);
        assert_eq!(r.total_cost(), r.stats.p2p_cost);
        assert_eq!(r.candidates.len(), 1); // no merge candidates at all
    }
}
