//! The warm dominance certificate in placement is a pure optimization.
//!
//! On Euclidean instances a subset whose certified lower bound (from a
//! cheap warm-started two-hub solve) reaches the dominance threshold is
//! dropped without the exact (cold) solve. These tests check the two
//! facts that make that safe and observable:
//!
//! - every warm-certified subset is also `Dominated` when solved cold,
//!   and the recorded bound never exceeds the cold candidate's cost;
//! - `lb_gated + warm_certified + cold_solves` accounts for every
//!   surviving subset, byte-identically at every thread count.

use ccs::core::constraint::ConstraintGraph;
use ccs::core::library::{soc_paper_library, wan_paper_library, Library};
use ccs::core::placement::{merge_candidate_explained, PlacementCache};
use ccs::core::synthesis::{SynthesisConfig, SynthesisResult, Synthesizer};
use ccs::gen::random::{clustered_wan, soc_floorplan, ClusteredWanConfig, SocConfig};
use ccs::gen::wan;
use ccs::obs::ledger::Cause;
use ccs::obs::scope::{self, RequestObs};

/// The paper WAN and `ccs gen wan --seed 1..=8`.
fn wan_instances() -> Vec<(String, ConstraintGraph)> {
    let mut out = vec![("paper wan".to_string(), wan::paper_instance())];
    for seed in 1..=8 {
        let cfg = ClusteredWanConfig {
            seed,
            ..ClusteredWanConfig::default()
        };
        out.push((format!("gen wan --seed {seed}"), clustered_wan(&cfg)));
    }
    out
}

fn run(g: &ConstraintGraph, lib: &Library, threads: usize) -> SynthesisResult {
    let cfg = SynthesisConfig {
        threads,
        ..SynthesisConfig::default()
    };
    Synthesizer::new(g, lib)
        .with_config(cfg)
        .run()
        .expect("synthesis succeeds")
}

#[test]
fn warm_certified_subsets_are_dominated_when_solved_cold() {
    let lib = wan_paper_library();
    let mut certified = 0u64;
    for (name, g) in wan_instances() {
        // A ledger large enough to keep every event of the cause.
        let obs = RequestObs::new(None, Some(1 << 20));
        let guard = scope::enter(obs.clone());
        let r = run(&g, &lib, 2);
        drop(guard);
        let ledger = obs.take_ledger().expect("scoped ledger collected");
        let dominated = ledger.cause(Cause::PlacementDominated);
        assert_eq!(dominated.sampled() as u64, dominated.count, "{name}");
        let cache = PlacementCache::new();
        let mut warm = 0u64;
        for e in dominated.events() {
            if !e.detail.split(',').any(|t| t == "warm") {
                continue;
            }
            warm += 1;
            let subset: Vec<usize> = e.arcs.iter().map(|&a| a as usize).collect();
            let member_sum = e.bound;
            let threshold = member_sum * (1.0 - 1e-6) - 1e-12;
            let cold = merge_candidate_explained(&g, &lib, &subset, &cache)
                .expect("placement never errs")
                .unwrap_or_else(|why| panic!("{name} {subset:?}: cold infeasible ({why:?})"));
            assert!(
                cold.cost >= threshold,
                "{name} {subset:?}: certified dominated, but cold keeps it at {} < {threshold}",
                cold.cost
            );
            assert!(
                e.cost <= cold.cost,
                "{name} {subset:?}: bound {} above the cold cost {}",
                e.cost,
                cold.cost
            );
        }
        assert_eq!(warm, r.stats.placement.warm_certified, "{name}");
        certified += warm;
    }
    assert!(certified > 0, "the certificate never fired");
}

#[test]
fn placement_counters_account_for_every_subset_at_every_thread_count() {
    let soc = soc_floorplan(&SocConfig {
        seed: 7,
        channels: 14,
        ..SocConfig::default()
    });
    let mut cases: Vec<(String, ConstraintGraph, Library)> = wan_instances()
        .into_iter()
        .take(4)
        .map(|(name, g)| (name, g, wan_paper_library()))
        .collect();
    cases.push(("gen soc --seed 7".to_string(), soc, soc_paper_library(0.6)));
    for (name, g, lib) in cases {
        let serial = run(&g, &lib, 1);
        let parallel = run(&g, &lib, 4);
        for r in [&serial, &parallel] {
            let p = r.stats.placement;
            let surviving: usize = r.stats.merge_stats.counts.iter().map(|c| c.1).sum();
            assert_eq!(
                p.lb_gated + p.warm_certified + p.cold_solves,
                surviving as u64,
                "{name}"
            );
            assert!(p.warm_certified <= p.dominated_dropped, "{name}");
            for key in ["placement.warm_certified", "placement.cold_solves"] {
                assert!(r.stats.counters.contains_key(key), "{name}: {key}");
            }
        }
        assert_eq!(serial.stats.placement, parallel.stats.placement, "{name}");
        if g.norm() != ccs::geom::Norm::Euclidean {
            // Exact solvers: the warm step never runs.
            assert_eq!(serial.stats.placement.warm_certified, 0, "{name}");
        }
    }
}
