//! Fault-injection resilience sweeps over synthesized architectures.
//!
//! Synthesis optimizes cost under the assumption that every link works;
//! this module asks what the optimum *costs in fragility*. It sweeps
//! lane-group failure scenarios — exhaustive N-1 plus budgeted N-k —
//! through [`NetSim`], fanning the scenarios out over
//! [`ccs_exec::Executor::par_map`] so results are bit-identical for
//! every thread count, then aggregates the outcomes:
//!
//! * per-scenario delivered fraction for every constraint arc, blackout
//!   sets, and min/mean degradation;
//! * a criticality ranking of every lane group (how much traffic dies
//!   when that group does);
//! * a cost-vs-resilience frontier obtained by re-running the covering
//!   step with high-order merge candidates excluded — the paper's
//!   cheapest architectures concentrate traffic on shared trunks, and
//!   the frontier quantifies what buying back redundancy costs.
//!
//! The whole report serializes to the deterministic `ccs-resilience-v1`
//! JSON section via [`resilience_json`], designed to sit next to the
//! `ccs-topology-v1` section inside a `--metrics-json` document.

use crate::NetSim;
use ccs_core::constraint::ConstraintGraph;
use ccs_core::cover::{select_excluding, CoverStrategy};
use ccs_core::error::SynthesisError;
use ccs_core::implementation::ImplementationGraph;
use ccs_core::library::Library;
use ccs_core::placement::Candidate;
use ccs_core::synthesis::SynthesisResult;
use ccs_exec::Executor;
use ccs_obs::json::Value;
use std::collections::BTreeMap;

/// Schema identifier of the [`resilience_json`] document.
pub const RESILIENCE_SCHEMA: &str = "ccs-resilience-v1";

/// Sweep configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Largest simultaneous-failure order `k` swept. `k = 1` (the
    /// default) is always exhaustive over every lane group; orders
    /// `2..=max_k` are enumerated lexicographically under
    /// [`scenario_budget`](Self::scenario_budget).
    pub max_k: usize,
    /// Cap on the number of N-k scenarios (`k >= 2`) simulated; hitting
    /// it sets [`ResilienceReport::truncated`] — never silent.
    pub scenario_budget: usize,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            max_k: 1,
            scenario_budget: 4096,
        }
    }
}

/// The simulated outcome of one failure scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The lane groups failed in this scenario (sorted).
    pub failed: Vec<u32>,
    /// Delivered fraction (`delivered / demand`) per constraint arc, in
    /// arc order. `1.0` means unaffected; `0.0` means blacked out.
    pub delivered_fraction: Vec<f64>,
    /// Arc indices whose route was severed outright.
    pub blackouts: Vec<usize>,
    /// Minimum delivered fraction across arcs (worst single channel).
    pub min_fraction: f64,
    /// Mean delivered fraction across arcs (system-wide degradation —
    /// this is the metric that separates a merged trunk, which takes
    /// all its channels down at once, from independent duplicated
    /// links, which lose one channel at a time).
    pub mean_fraction: f64,
}

/// How much the architecture suffers when one lane group fails.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupCriticality {
    /// The lane group.
    pub group: u32,
    /// Channels blacked out by its failure.
    pub blackout_arcs: usize,
    /// Minimum delivered fraction under its failure.
    pub min_fraction: f64,
    /// Mean delivered fraction under its failure.
    pub mean_fraction: f64,
    /// Baseline demand routed over the group, Mb/s.
    pub demand_mbps: f64,
    /// Aggregate capacity of the group, Mb/s.
    pub capacity_mbps: f64,
}

/// The aggregated result of a resilience sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Lane groups in the architecture.
    pub group_count: u32,
    /// Constraint arcs in the instance.
    pub arc_count: usize,
    /// Largest failure order swept.
    pub max_k: usize,
    /// Whether the N-k enumeration hit the scenario budget.
    pub truncated: bool,
    /// Whether the unfailed architecture satisfies every constraint.
    pub baseline_satisfied: bool,
    /// Every simulated scenario: the `group_count` N-1 singletons in
    /// group order first, then N-k combinations lexicographically.
    pub scenarios: Vec<ScenarioOutcome>,
    /// Every lane group ranked most-critical first (by blackout count,
    /// then mean delivered fraction, then group id).
    pub criticality: Vec<GroupCriticality>,
    /// Worst (lowest) per-scenario `min_fraction`.
    pub worst_min_fraction: f64,
    /// Worst (lowest) per-scenario `mean_fraction`.
    pub worst_mean_fraction: f64,
    /// Index into [`scenarios`](Self::scenarios) of the worst scenario
    /// (by mean fraction; first such index, deterministically).
    pub worst_scenario: usize,
}

impl ResilienceReport {
    /// The `p`-th percentile (`0.0..=100.0`) of per-scenario mean
    /// delivered fraction, by nearest-rank on the sorted scenario list.
    /// Returns `1.0` for an empty sweep (nothing degrades nothing).
    pub fn percentile_mean_fraction(&self, p: f64) -> f64 {
        if self.scenarios.is_empty() {
            return 1.0;
        }
        let mut fractions: Vec<f64> = self.scenarios.iter().map(|s| s.mean_fraction).collect();
        fractions.sort_by(f64::total_cmp);
        let n = fractions.len();
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
        fractions[rank.saturating_sub(1).min(n - 1)]
    }
}

/// Runs the failure sweep: exhaustive N-1, then lexicographic N-k up to
/// `cfg.max_k` capped by `cfg.scenario_budget`. Scenario simulation fans
/// out over `exec`; the scenario list and all aggregation are
/// deterministic, so the report (and its JSON) is bit-identical for
/// every thread count.
pub fn analyze(
    graph: &ConstraintGraph,
    imp: &ImplementationGraph,
    cfg: &ResilienceConfig,
    exec: &Executor,
) -> ResilienceReport {
    let _phase = ccs_obs::phase("resilience.sweep");
    let group_count = imp.group_count();
    let arc_count = graph.arc_count();

    let (scenarios_failed, truncated) = scenario_list(group_count, cfg);
    let outcomes = exec.par_map(&scenarios_failed, |_, failed| {
        let report = NetSim::new(graph, imp)
            .with_failed_groups(failed.iter().copied())
            .run();
        let mut delivered_fraction = Vec::with_capacity(arc_count);
        let mut blackouts = Vec::new();
        for (i, f) in report.flows.iter().enumerate() {
            let frac = if f.demand.as_mbps() <= 0.0 {
                1.0
            } else {
                (f.delivered.as_mbps() / f.demand.as_mbps()).clamp(0.0, 1.0)
            };
            delivered_fraction.push(frac);
            if f.blackout {
                blackouts.push(i);
            }
        }
        let min_fraction = delivered_fraction.iter().copied().fold(1.0_f64, f64::min);
        let mean_fraction = if delivered_fraction.is_empty() {
            1.0
        } else {
            delivered_fraction.iter().sum::<f64>() / delivered_fraction.len() as f64
        };
        ScenarioOutcome {
            failed: failed.clone(),
            delivered_fraction,
            blackouts,
            min_fraction,
            mean_fraction,
        }
    });

    let baseline = NetSim::new(graph, imp).run();
    let baseline_satisfied = baseline.all_satisfied();

    // The first `group_count` outcomes are the N-1 singletons in group
    // order; pair them with baseline group loads for the ranking.
    let mut criticality: Vec<GroupCriticality> = (0..group_count)
        .map(|g| {
            let o = &outcomes[g as usize];
            debug_assert_eq!(o.failed, vec![g]);
            let load = baseline.groups.iter().find(|l| l.group == g);
            GroupCriticality {
                group: g,
                blackout_arcs: o.blackouts.len(),
                min_fraction: o.min_fraction,
                mean_fraction: o.mean_fraction,
                demand_mbps: load.map_or(0.0, |l| l.demand.as_mbps()),
                capacity_mbps: load.map_or(0.0, |l| l.capacity.as_mbps()),
            }
        })
        .collect();
    criticality.sort_by(|a, b| {
        b.blackout_arcs
            .cmp(&a.blackout_arcs)
            .then(a.mean_fraction.total_cmp(&b.mean_fraction))
            .then(a.min_fraction.total_cmp(&b.min_fraction))
            .then(a.group.cmp(&b.group))
    });

    let mut worst_min_fraction = 1.0_f64;
    let mut worst_mean_fraction = 1.0_f64;
    let mut worst_scenario = 0usize;
    for (i, o) in outcomes.iter().enumerate() {
        worst_min_fraction = worst_min_fraction.min(o.min_fraction);
        if o.mean_fraction < worst_mean_fraction {
            worst_mean_fraction = o.mean_fraction;
            worst_scenario = i;
        }
    }

    if ccs_obs::enabled() {
        ccs_obs::counter("resilience.scenarios", outcomes.len() as u64);
        ccs_obs::counter(
            "resilience.blackout_flows",
            outcomes.iter().map(|o| o.blackouts.len() as u64).sum(),
        );
        ccs_obs::counter("resilience.truncated", u64::from(truncated));
        ccs_obs::gauge("resilience.worst_mean_fraction", worst_mean_fraction);
        ccs_obs::gauge("resilience.worst_min_fraction", worst_min_fraction);
    }

    ResilienceReport {
        group_count,
        arc_count,
        max_k: cfg.max_k,
        truncated,
        baseline_satisfied,
        scenarios: outcomes,
        criticality,
        worst_min_fraction,
        worst_mean_fraction,
        worst_scenario,
    }
}

/// Builds the deterministic scenario list: every N-1 singleton in group
/// order, then each order `k` in `2..=max_k` lexicographically until the
/// budget is spent. Returns the list and whether it was truncated.
fn scenario_list(group_count: u32, cfg: &ResilienceConfig) -> (Vec<Vec<u32>>, bool) {
    let n = group_count as usize;
    let mut scenarios: Vec<Vec<u32>> = (0..group_count).map(|g| vec![g]).collect();
    let mut truncated = false;
    let mut spent = 0usize;
    'orders: for k in 2..=cfg.max_k.min(n) {
        let mut idx: Vec<usize> = (0..k).collect();
        loop {
            if spent >= cfg.scenario_budget {
                truncated = true;
                break 'orders;
            }
            scenarios.push(idx.iter().map(|&i| i as u32).collect());
            spent += 1;
            // Advance to the next lexicographic k-combination of 0..n:
            // find the rightmost index not yet at its maximum, bump it,
            // and reset everything to its right.
            let mut i = k;
            while i > 0 && idx[i - 1] == i - 1 + n - k {
                i -= 1;
            }
            if i == 0 {
                continue 'orders;
            }
            idx[i - 1] += 1;
            for j in i..k {
                idx[j] = idx[j - 1] + 1;
            }
        }
    }
    (scenarios, truncated)
}

/// One point on the cost-vs-resilience frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// Largest merge order the covering was allowed to use (`1` =
    /// point-to-point/duplication only, no shared trunks).
    pub allowed_k: usize,
    /// Total architecture cost at this point.
    pub cost: f64,
    /// Cost overhead relative to the unrestricted optimum, as a
    /// fraction (`0.08` = 8% more expensive).
    pub overhead: f64,
    /// Worst per-scenario min delivered fraction under N-1.
    pub worst_min_fraction: f64,
    /// Worst per-scenario mean delivered fraction under N-1.
    pub worst_mean_fraction: f64,
    /// Most channels blacked out by any single group failure.
    pub max_blackout_arcs: usize,
}

/// Sweeps the cost-vs-resilience frontier: for every allowed merge
/// order from the optimum's own largest merging down to 1, re-runs the
/// covering step with fragile (higher-order) merge candidates excluded,
/// rebuilds the architecture, and N-1-sweeps it. Points are returned
/// most-merged first; cost is non-decreasing as `allowed_k` shrinks
/// (each step solves a more constrained covering exactly).
///
/// # Errors
///
/// Propagates covering failures ([`SynthesisError::Cover`]) — cannot
/// happen in practice because point-to-point candidates (order 1) are
/// always present and feasible.
pub fn cost_resilience_frontier(
    graph: &ConstraintGraph,
    library: &Library,
    result: &SynthesisResult,
    exec: &Executor,
) -> Result<Vec<FrontierPoint>, SynthesisError> {
    let _phase = ccs_obs::phase("resilience.frontier");
    let cfg = ResilienceConfig::default(); // N-1 only: frontier points compare like-for-like
    let baseline_cost = result.total_cost();
    let merge_order = |c: &Candidate| c.arcs.len();
    let top_k = result.selected.iter().map(merge_order).max().unwrap_or(1);

    let mut points = Vec::with_capacity(top_k);
    for allowed_k in (1..=top_k).rev() {
        let (imp, cost) = if allowed_k == top_k {
            (result.implementation.clone(), baseline_cost)
        } else {
            let outcome = select_excluding(
                &result.candidates,
                graph.arc_count(),
                CoverStrategy::Exact,
                |_, c| merge_order(c) > allowed_k,
            )?;
            let chosen: Vec<Candidate> = outcome
                .selected
                .iter()
                .map(|&i| result.candidates[i].clone())
                .collect();
            let imp = ImplementationGraph::build(graph, library, &chosen);
            let cost = imp.total_cost();
            (imp, cost)
        };
        let sweep = analyze(graph, &imp, &cfg, exec);
        points.push(FrontierPoint {
            allowed_k,
            cost,
            overhead: if baseline_cost > 0.0 {
                cost / baseline_cost - 1.0
            } else {
                0.0
            },
            worst_min_fraction: sweep.worst_min_fraction,
            worst_mean_fraction: sweep.worst_mean_fraction,
            max_blackout_arcs: sweep.criticality.first().map_or(0, |c| c.blackout_arcs),
        });
    }
    Ok(points)
}

/// Picks the most resilient frontier point whose cost overhead stays
/// within `max_overhead` (a fraction; `0.15` = 15%). Resilience is
/// judged by worst mean delivered fraction, ties broken by fewer
/// worst-case blackouts, then lower cost, then larger `allowed_k`.
/// Returns the index into `points`, or `None` when no point qualifies
/// (cannot happen when the unrestricted optimum itself is included —
/// its overhead is zero).
pub fn pick_within_overhead(points: &[FrontierPoint], max_overhead: f64) -> Option<usize> {
    points
        .iter()
        .enumerate()
        .filter(|(_, p)| p.overhead <= max_overhead + 1e-9)
        .max_by(|(ia, a), (ib, b)| {
            a.worst_mean_fraction
                .total_cmp(&b.worst_mean_fraction)
                .then(b.max_blackout_arcs.cmp(&a.max_blackout_arcs))
                .then(b.cost.total_cmp(&a.cost))
                .then(a.allowed_k.cmp(&b.allowed_k))
                // max_by keeps the *last* max; prefer the earlier
                // (more merged) index on full ties for determinism.
                .then(ib.cmp(ia))
        })
        .map(|(i, _)| i)
}

/// Serializes the report to the `ccs-resilience-v1` JSON section.
///
/// Every value is derived from the deterministic sweep — no wall-clock
/// or host-dependent data — so the emitted bytes are identical across
/// runs and thread counts, which the CI determinism gate diffs.
pub fn resilience_json(report: &ResilienceReport) -> Value {
    let mut doc = BTreeMap::new();
    doc.insert("schema".into(), Value::Str(RESILIENCE_SCHEMA.into()));
    doc.insert(
        "group_count".into(),
        Value::Num(f64::from(report.group_count)),
    );
    doc.insert("arc_count".into(), Value::Num(report.arc_count as f64));
    doc.insert("max_k".into(), Value::Num(report.max_k as f64));
    doc.insert("truncated".into(), Value::Bool(report.truncated));
    doc.insert(
        "baseline_satisfied".into(),
        Value::Bool(report.baseline_satisfied),
    );
    doc.insert(
        "scenario_count".into(),
        Value::Num(report.scenarios.len() as f64),
    );
    doc.insert(
        "worst_min_fraction".into(),
        Value::Num(report.worst_min_fraction),
    );
    doc.insert(
        "worst_mean_fraction".into(),
        Value::Num(report.worst_mean_fraction),
    );

    let mut percentiles = BTreeMap::new();
    for (name, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0)] {
        percentiles.insert(
            name.to_string(),
            Value::Num(report.percentile_mean_fraction(p)),
        );
    }
    doc.insert("mean_fraction_percentiles".into(), Value::Obj(percentiles));

    // The worst scenario in full detail (per-arc delivered fractions);
    // the rest as summaries to keep the document bounded.
    if let Some(worst) = report.scenarios.get(report.worst_scenario) {
        let mut w = BTreeMap::new();
        w.insert(
            "failed".into(),
            Value::Arr(
                worst
                    .failed
                    .iter()
                    .map(|&g| Value::Num(f64::from(g)))
                    .collect(),
            ),
        );
        w.insert(
            "delivered_fraction".into(),
            Value::Arr(
                worst
                    .delivered_fraction
                    .iter()
                    .map(|&f| Value::Num(f))
                    .collect(),
            ),
        );
        w.insert(
            "blackouts".into(),
            Value::Arr(
                worst
                    .blackouts
                    .iter()
                    .map(|&a| Value::Num(a as f64))
                    .collect(),
            ),
        );
        w.insert("min_fraction".into(), Value::Num(worst.min_fraction));
        w.insert("mean_fraction".into(), Value::Num(worst.mean_fraction));
        doc.insert("worst_scenario".into(), Value::Obj(w));
    }

    doc.insert(
        "criticality".into(),
        Value::Arr(
            report
                .criticality
                .iter()
                .map(|c| {
                    let mut m = BTreeMap::new();
                    m.insert("group".into(), Value::Num(f64::from(c.group)));
                    m.insert("blackout_arcs".into(), Value::Num(c.blackout_arcs as f64));
                    m.insert("min_fraction".into(), Value::Num(c.min_fraction));
                    m.insert("mean_fraction".into(), Value::Num(c.mean_fraction));
                    m.insert("demand_mbps".into(), Value::Num(c.demand_mbps));
                    m.insert("capacity_mbps".into(), Value::Num(c.capacity_mbps));
                    Value::Obj(m)
                })
                .collect(),
        ),
    );

    doc.insert(
        "scenarios".into(),
        Value::Arr(
            report
                .scenarios
                .iter()
                .map(|s| {
                    let mut m = BTreeMap::new();
                    m.insert(
                        "failed".into(),
                        Value::Arr(s.failed.iter().map(|&g| Value::Num(f64::from(g))).collect()),
                    );
                    m.insert("blackout_arcs".into(), Value::Num(s.blackouts.len() as f64));
                    m.insert("min_fraction".into(), Value::Num(s.min_fraction));
                    m.insert("mean_fraction".into(), Value::Num(s.mean_fraction));
                    Value::Obj(m)
                })
                .collect(),
        ),
    );

    Value::Obj(doc)
}

/// Serializes a frontier to JSON: an array of points plus the chosen
/// index (when a `--max-cost-overhead` budget selected one).
pub fn frontier_json(
    points: &[FrontierPoint],
    chosen: Option<usize>,
    max_overhead: Option<f64>,
) -> Value {
    let mut doc = BTreeMap::new();
    doc.insert(
        "points".into(),
        Value::Arr(
            points
                .iter()
                .map(|p| {
                    let mut m = BTreeMap::new();
                    m.insert("allowed_k".into(), Value::Num(p.allowed_k as f64));
                    m.insert("cost".into(), Value::Num(p.cost));
                    m.insert("overhead".into(), Value::Num(p.overhead));
                    m.insert(
                        "worst_min_fraction".into(),
                        Value::Num(p.worst_min_fraction),
                    );
                    m.insert(
                        "worst_mean_fraction".into(),
                        Value::Num(p.worst_mean_fraction),
                    );
                    m.insert(
                        "max_blackout_arcs".into(),
                        Value::Num(p.max_blackout_arcs as f64),
                    );
                    Value::Obj(m)
                })
                .collect(),
        ),
    );
    match chosen {
        Some(i) => doc.insert("chosen".into(), Value::Num(i as f64)),
        None => doc.insert("chosen".into(), Value::Null),
    };
    match max_overhead {
        Some(b) => doc.insert("max_overhead".into(), Value::Num(b)),
        None => doc.insert("max_overhead".into(), Value::Null),
    };
    Value::Obj(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_core::library::wan_paper_library;
    use ccs_core::prelude::*;

    fn mbps(x: f64) -> Bandwidth {
        Bandwidth::from_mbps(x)
    }

    /// Three clustered sources far from a clustered pair of sinks — the
    /// shape that makes merging profitable — plus one independent far
    /// pair so the architecture has both a shared trunk and a private
    /// link.
    fn mixed_graph() -> ConstraintGraph {
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let s0 = b.add_port("s0", Point2::new(0.0, 0.0));
        let s1 = b.add_port("s1", Point2::new(2.0, 0.0));
        let s2 = b.add_port("s2", Point2::new(0.0, 2.0));
        let t0 = b.add_port("t0", Point2::new(100.0, 0.0));
        let t1 = b.add_port("t1", Point2::new(102.0, 0.0));
        let t2 = b.add_port("t2", Point2::new(100.0, 2.0));
        let u = b.add_port("u", Point2::new(0.0, 300.0));
        let v = b.add_port("v", Point2::new(80.0, 300.0));
        b.add_channel(s0, t0, mbps(3.0)).unwrap();
        b.add_channel(s1, t1, mbps(3.0)).unwrap();
        b.add_channel(s2, t2, mbps(3.0)).unwrap();
        b.add_channel(u, v, mbps(8.0)).unwrap();
        b.build().unwrap()
    }

    fn synthesize(g: &ConstraintGraph, max_k: Option<usize>) -> SynthesisResult {
        let lib = wan_paper_library();
        let mut config = SynthesisConfig::default();
        config.merge.max_k = max_k;
        Synthesizer::new(g, &lib).with_config(config).run().unwrap()
    }

    #[test]
    fn sweep_is_bit_identical_across_thread_counts() {
        let g = mixed_graph();
        let r = synthesize(&g, None);
        let cfg = ResilienceConfig {
            max_k: 2,
            scenario_budget: 64,
        };
        let serial = analyze(&g, &r.implementation, &cfg, &Executor::serial());
        let parallel = analyze(&g, &r.implementation, &cfg, &Executor::new(4));
        assert_eq!(serial, parallel);
        let mut a = String::new();
        let mut b = String::new();
        resilience_json(&serial).write_pretty(&mut a, 0);
        resilience_json(&parallel).write_pretty(&mut b, 0);
        assert_eq!(a, b, "JSON bytes must match across thread counts");
    }

    #[test]
    fn criticality_ranks_every_group_exactly_once() {
        let g = mixed_graph();
        let r = synthesize(&g, None);
        let report = analyze(
            &g,
            &r.implementation,
            &ResilienceConfig::default(),
            &Executor::serial(),
        );
        assert!(report.baseline_satisfied);
        assert_eq!(report.criticality.len(), report.group_count as usize);
        let mut groups: Vec<u32> = report.criticality.iter().map(|c| c.group).collect();
        groups.sort_unstable();
        let expect: Vec<u32> = (0..report.group_count).collect();
        assert_eq!(groups, expect);
        // Ranking is most-critical first.
        for w in report.criticality.windows(2) {
            assert!(
                w[0].blackout_arcs >= w[1].blackout_arcs
                    || w[0].mean_fraction <= w[1].mean_fraction + 1e-12
            );
        }
    }

    #[test]
    fn n1_sweep_covers_each_group_as_singleton() {
        let g = mixed_graph();
        let r = synthesize(&g, None);
        let report = analyze(
            &g,
            &r.implementation,
            &ResilienceConfig::default(),
            &Executor::serial(),
        );
        assert_eq!(report.scenarios.len(), report.group_count as usize);
        for (i, s) in report.scenarios.iter().enumerate() {
            assert_eq!(s.failed, vec![i as u32]);
            // Failing a live group must hurt something.
            assert!(s.min_fraction < 1.0);
        }
        assert!(!report.truncated);
    }

    #[test]
    fn scenario_budget_truncates_nk_enumeration() {
        let (list, truncated) = scenario_list(
            6,
            &ResilienceConfig {
                max_k: 2,
                scenario_budget: 5,
            },
        );
        // 6 singletons + 5 of the C(6,2)=15 pairs.
        assert_eq!(list.len(), 11);
        assert!(truncated);
        assert_eq!(list[6], vec![0, 1]);
        assert_eq!(list[10], vec![0, 5]);
    }

    #[test]
    fn full_pair_enumeration_is_lexicographic_and_complete() {
        let (list, truncated) = scenario_list(
            4,
            &ResilienceConfig {
                max_k: 2,
                scenario_budget: 1000,
            },
        );
        assert!(!truncated);
        let pairs: Vec<Vec<u32>> = list[4..].to_vec();
        assert_eq!(
            pairs,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3],
            ]
        );
    }

    #[test]
    fn merged_trunk_degrades_worse_than_duplication_only() {
        let g = mixed_graph();
        let merged = synthesize(&g, None);
        let duplicated = synthesize(&g, Some(1));
        assert!(
            merged.selected.iter().any(|c| c.arcs.len() > 1),
            "instance must actually merge for this test to bite"
        );
        assert!(merged.total_cost() <= duplicated.total_cost() + 1e-9);

        let cfg = ResilienceConfig::default();
        let exec = Executor::serial();
        let rm = analyze(&g, &merged.implementation, &cfg, &exec);
        let rd = analyze(&g, &duplicated.implementation, &cfg, &exec);
        // The merged trunk carries several channels: its single failure
        // kills them all, so the worst mean delivered fraction is
        // strictly lower than for independent per-channel links.
        assert!(
            rm.worst_mean_fraction < rd.worst_mean_fraction - 1e-9,
            "merged {} should degrade worse than duplicated {}",
            rm.worst_mean_fraction,
            rd.worst_mean_fraction
        );
    }

    #[test]
    fn frontier_trades_cost_for_resilience() {
        let g = mixed_graph();
        let r = synthesize(&g, None);
        let exec = Executor::serial();
        let lib = wan_paper_library();
        let points = cost_resilience_frontier(&g, &lib, &r, &exec).unwrap();
        assert!(!points.is_empty());
        assert_eq!(points[0].overhead, 0.0);
        // allowed_k strictly decreases; cost never does.
        for w in points.windows(2) {
            assert_eq!(w[0].allowed_k, w[1].allowed_k + 1);
            assert!(w[1].cost >= w[0].cost - 1e-9);
            assert!(w[1].overhead >= -1e-12);
        }
        // The duplication-only endpoint is at least as resilient as the
        // fully merged optimum.
        let last = points.last().unwrap();
        assert!(last.worst_mean_fraction >= points[0].worst_mean_fraction - 1e-12);
    }

    #[test]
    fn pick_within_overhead_prefers_resilience_under_budget() {
        let points = vec![
            FrontierPoint {
                allowed_k: 3,
                cost: 100.0,
                overhead: 0.0,
                worst_min_fraction: 0.0,
                worst_mean_fraction: 0.25,
                max_blackout_arcs: 3,
            },
            FrontierPoint {
                allowed_k: 2,
                cost: 105.0,
                overhead: 0.05,
                worst_min_fraction: 0.0,
                worst_mean_fraction: 0.50,
                max_blackout_arcs: 2,
            },
            FrontierPoint {
                allowed_k: 1,
                cost: 130.0,
                overhead: 0.30,
                worst_min_fraction: 0.0,
                worst_mean_fraction: 0.75,
                max_blackout_arcs: 1,
            },
        ];
        // Generous budget: take the most resilient point.
        assert_eq!(pick_within_overhead(&points, 0.5), Some(2));
        // Tight budget: the 5%-overhead point wins.
        assert_eq!(pick_within_overhead(&points, 0.10), Some(1));
        // Zero budget: only the optimum qualifies.
        assert_eq!(pick_within_overhead(&points, 0.0), Some(0));
        assert_eq!(pick_within_overhead(&[], 1.0), None);
    }

    #[test]
    fn json_document_is_schema_tagged_and_complete() {
        let g = mixed_graph();
        let r = synthesize(&g, None);
        let report = analyze(
            &g,
            &r.implementation,
            &ResilienceConfig::default(),
            &Executor::serial(),
        );
        let doc = resilience_json(&report);
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(RESILIENCE_SCHEMA));
        assert_eq!(
            doc.get("group_count").unwrap().as_num(),
            Some(f64::from(report.group_count))
        );
        let crit = match doc.get("criticality").unwrap() {
            Value::Arr(a) => a,
            other => panic!("criticality must be an array, got {other:?}"),
        };
        assert_eq!(crit.len(), report.group_count as usize);
        // Round-trips through the parser.
        let mut text = String::new();
        doc.write_pretty(&mut text, 0);
        let parsed = ccs_obs::json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut report = ResilienceReport {
            group_count: 0,
            arc_count: 0,
            max_k: 1,
            truncated: false,
            baseline_satisfied: true,
            scenarios: Vec::new(),
            criticality: Vec::new(),
            worst_min_fraction: 1.0,
            worst_mean_fraction: 1.0,
            worst_scenario: 0,
        };
        assert_eq!(report.percentile_mean_fraction(50.0), 1.0);
        for f in [0.2, 0.4, 0.6, 0.8, 1.0] {
            report.scenarios.push(ScenarioOutcome {
                failed: vec![0],
                delivered_fraction: vec![f],
                blackouts: vec![],
                min_fraction: f,
                mean_fraction: f,
            });
        }
        assert_eq!(report.percentile_mean_fraction(0.0), 0.2);
        assert_eq!(report.percentile_mean_fraction(50.0), 0.6);
        assert_eq!(report.percentile_mean_fraction(90.0), 1.0);
        assert_eq!(report.percentile_mean_fraction(100.0), 1.0);
    }
}
