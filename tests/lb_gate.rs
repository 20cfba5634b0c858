//! Property: the lower-bound gate (`MergeConfig::lb_gate`) is a pure
//! optimization. For any instance, running with the gate on and off
//! must produce the identical selected cover, identical total cost
//! (to the last f64 bit), and a byte-identical `ccs-topology-v1`
//! document. The gate may only skip placement solves whose outcome
//! (infeasible or dominated) cannot change the candidate pool the
//! covering step sees.

use ccs::core::constraint::ConstraintGraph;
use ccs::core::library::{soc_paper_library, wan_paper_library, Library};
use ccs::core::report::topology_json;
use ccs::core::synthesis::{SynthesisConfig, SynthesisResult, Synthesizer};
use ccs::gen::random::{clustered_wan, soc_floorplan, ClusteredWanConfig, SocConfig};
use proptest::prelude::*;

fn run(g: &ConstraintGraph, lib: &Library, lb_gate: bool) -> SynthesisResult {
    let mut sc = SynthesisConfig::default();
    sc.merge.lb_gate = lb_gate;
    Synthesizer::new(g, lib)
        .with_config(sc)
        .run()
        .expect("synthesis succeeds")
}

/// Asserts the two runs are result-identical: same candidates, same
/// selection, bit-equal costs, byte-equal topology document.
fn assert_gate_invariant(g: &ConstraintGraph, lib: &Library) -> (SynthesisResult, SynthesisResult) {
    let gated = run(g, lib, true);
    let ungated = run(g, lib, false);

    assert_eq!(gated.candidates.len(), ungated.candidates.len());
    for (a, b) in gated.candidates.iter().zip(&ungated.candidates) {
        assert_eq!(a.arcs, b.arcs);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "cost bits differ");
    }
    let sel = |r: &SynthesisResult| {
        r.selected
            .iter()
            .map(|c| c.arcs.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(sel(&gated), sel(&ungated));
    assert_eq!(gated.total_cost().to_bits(), ungated.total_cost().to_bits());

    // Every gated subset would have been infeasible or dominated: the
    // three buckets are a reclassification of the same population.
    assert_eq!(
        gated.stats.placement.lb_gated
            + gated.stats.placement.infeasible_merges
            + gated.stats.placement.dominated_dropped,
        ungated.stats.placement.infeasible_merges + ungated.stats.placement.dominated_dropped
    );
    assert_eq!(ungated.stats.placement.lb_gated, 0);
    assert_eq!(ungated.stats.placement.solves_skipped, 0);

    let render = |r: &SynthesisResult| {
        let mut out = String::new();
        topology_json(r, g, lib).write_pretty(&mut out, 0);
        out
    };
    let doc = render(&gated);
    assert_eq!(doc, render(&ungated));
    assert!(doc.contains("ccs-topology-v1"));
    (gated, ungated)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Seeded clustered-WAN instances: gate on vs off is result-identical.
    #[test]
    fn lb_gate_is_result_invariant_on_wan(
        seed in 1u64..1000,
        clusters in 2usize..4,
        nodes in 2usize..4,
        channels in 4usize..10,
    ) {
        let cfg = ClusteredWanConfig {
            clusters,
            nodes_per_cluster: nodes,
            channels,
            seed,
            ..ClusteredWanConfig::default()
        };
        let g = clustered_wan(&cfg);
        assert_gate_invariant(&g, &wan_paper_library());
    }

    /// Seeded SoC floorplans (Manhattan norm, on-chip library): the same
    /// invariant holds on the other cost regime, where short wires cost
    /// nothing and the node floor dominates.
    #[test]
    fn lb_gate_is_result_invariant_on_soc(
        seed in 1u64..1000,
        modules in 4usize..9,
        channels in 5usize..12,
    ) {
        let cfg = SocConfig { modules, channels, seed, ..SocConfig::default() };
        let g = soc_floorplan(&cfg);
        assert_gate_invariant(&g, &soc_paper_library(1.0));
    }
}

/// On a clustered WAN the gate actually fires: equal-rate co-located
/// pairs have a lower bound meeting the dominance threshold, so some
/// placement solves are skipped — and each skipped subset saves one
/// mux+demux solve and one switch solve with the paper library.
#[test]
fn lb_gate_fires_on_clustered_wan() {
    let cfg = ClusteredWanConfig {
        clusters: 3,
        nodes_per_cluster: 3,
        channels: 12,
        seed: 20020610,
        ..ClusteredWanConfig::default()
    };
    let g = clustered_wan(&cfg);
    let gated = run(&g, &wan_paper_library(), true);
    assert!(
        gated.stats.placement.lb_gated > 0,
        "expected the LB gate to skip at least one subset"
    );
    assert_eq!(
        gated.stats.placement.solves_skipped,
        gated.stats.placement.lb_gated * 2,
        "paper library has mux+demux and switch: two solves per subset"
    );
}
