//! Determinism of the parallel synthesis pipeline: for any instance,
//! `--threads 1` and `--threads N` must produce *bit-identical* results
//! — same survivor sets, same candidate costs (to the last f64 bit),
//! same cover selection, same serialized topology. This is the in-repo
//! counterpart of the CI determinism gate, which diffs the
//! `ccs-topology-v1` sections of two real CLI runs byte-for-byte.

use ccs::core::report::topology_json;
use ccs::core::synthesis::{SynthesisConfig, SynthesisResult, Synthesizer};
use ccs::gen::random::{clustered_wan, ClusteredWanConfig};
use ccs::gen::wan;
use proptest::prelude::*;

fn wan_cfg_strategy() -> impl Strategy<Value = ClusteredWanConfig> {
    (1u64..1000, 2usize..4, 2usize..4, 4usize..10).prop_map(|(seed, clusters, nodes, channels)| {
        ClusteredWanConfig {
            clusters,
            nodes_per_cluster: nodes,
            channels,
            seed,
            ..ClusteredWanConfig::default()
        }
    })
}

fn run_with_threads(cfg: &ClusteredWanConfig, threads: usize) -> SynthesisResult {
    let g = clustered_wan(cfg);
    let lib = wan::paper_library();
    let sc = SynthesisConfig {
        threads,
        ..SynthesisConfig::default()
    };
    Synthesizer::new(&g, &lib)
        .with_config(sc)
        .run()
        .expect("synthesis succeeds")
}

/// Asserts bitwise equality of two runs on everything that is promised
/// to be deterministic (i.e. all state except executor telemetry and
/// timings).
fn assert_bit_identical(a: &SynthesisResult, b: &SynthesisResult) {
    // Enumeration: identical survivor structure and exact counters.
    assert_eq!(a.stats.merge_stats.counts, b.stats.merge_stats.counts);
    assert_eq!(a.stats.merge_stats.levels, b.stats.merge_stats.levels);
    assert_eq!(
        a.stats.merge_stats.deactivated_at,
        b.stats.merge_stats.deactivated_at
    );
    assert_eq!(
        a.stats.merge_stats.truncated_at_k,
        b.stats.merge_stats.truncated_at_k
    );

    // Candidates: same order, same arcs, bit-equal costs.
    assert_eq!(a.candidates.len(), b.candidates.len());
    for (ca, cb) in a.candidates.iter().zip(&b.candidates) {
        assert_eq!(ca.arcs, cb.arcs);
        assert_eq!(ca.kind, cb.kind);
        assert_eq!(ca.cost.to_bits(), cb.cost.to_bits(), "cost bits differ");
        assert_eq!(ca.node_cost.to_bits(), cb.node_cost.to_bits());
    }

    // Selection and accounting.
    let sel = |r: &SynthesisResult| {
        r.selected
            .iter()
            .map(|c| c.arcs.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(sel(a), sel(b));
    assert_eq!(a.total_cost().to_bits(), b.total_cost().to_bits());
    assert_eq!(a.stats.p2p_cost.to_bits(), b.stats.p2p_cost.to_bits());
    assert_eq!(a.stats.infeasible_merges, b.stats.infeasible_merges);
    assert_eq!(a.stats.dominated_dropped, b.stats.dominated_dropped);
    assert_eq!(a.stats.lb_gated, b.stats.lb_gated);
    assert_eq!(a.stats.solves_skipped, b.stats.solves_skipped);
    assert_eq!(a.stats.ucp_cols, b.stats.ucp_cols);
    assert_eq!(a.stats.ucp_rows, b.stats.ucp_rows);

    // The covering solver's subtree fan-out and fold-level bound
    // improvements are instance properties, independent of who ran
    // the subtrees.
    for key in ["covering.subtrees", "covering.shared_bound_tightenings"] {
        assert_eq!(
            a.stats.counters.get(key),
            b.stats.counters.get(key),
            "{key} differs across thread counts"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full pipeline is bit-identical across thread counts.
    #[test]
    fn synthesis_is_bit_identical_across_thread_counts(cfg in wan_cfg_strategy()) {
        let serial = run_with_threads(&cfg, 1);
        for threads in [2usize, 4] {
            let par = run_with_threads(&cfg, threads);
            assert_bit_identical(&serial, &par);
            prop_assert_eq!(par.stats.threads, threads);
        }
        prop_assert_eq!(serial.stats.threads, 1);
    }

    /// The serialized `ccs-topology-v1` document — what the CI gate
    /// diffs — is byte-equal across thread counts.
    #[test]
    fn topology_document_is_byte_equal(cfg in wan_cfg_strategy()) {
        let g = clustered_wan(&cfg);
        let lib = wan::paper_library();
        let render = |threads: usize| {
            let sc = SynthesisConfig { threads, ..SynthesisConfig::default() };
            let r = Synthesizer::new(&g, &lib).with_config(sc).run().expect("synthesis");
            let mut out = String::new();
            topology_json(&r, &g, &lib).write_pretty(&mut out, 0);
            out
        };
        let one = render(1);
        prop_assert_eq!(&render(4), &one);
        prop_assert!(one.contains("ccs-topology-v1"));
    }
}

/// Deterministic counters include the executor's task count but never
/// its scheduling-dependent steal count.
#[test]
fn exec_counters_present_but_steals_excluded() {
    let cfg = ClusteredWanConfig::default();
    let r = run_with_threads(&cfg, 4);
    assert_eq!(r.stats.counters.get("exec.threads"), Some(&4));
    assert!(r.stats.counters.contains_key("exec.tasks"));
    assert!(!r.stats.counters.contains_key("exec.steals"));
    assert!(r.stats.counters.contains_key("merging.k2.examined"));
    assert!(r.stats.counters.contains_key("covering.subtrees"));
    assert!(!r.stats.counters.contains_key("covering.steals"));
}

/// Pins the covering search on a seeded SoC floorplan, the workload
/// where branch-and-bound dominates the run: the cover's cost bits and
/// the deterministic search counters must not move, at one worker or
/// two. A change to node visiting, bounding or pruning order shows up
/// here before it shows up in a benchmark.
#[test]
fn soc_covering_search_is_pinned() {
    use ccs::gen::random::{soc_floorplan, SocConfig};
    let g = soc_floorplan(&SocConfig {
        seed: 7,
        channels: 14,
        ..SocConfig::default()
    });
    let lib = ccs::gen::mpeg4::paper_library();
    for threads in [1usize, 2] {
        let sc = SynthesisConfig {
            threads,
            ..SynthesisConfig::default()
        };
        let r = Synthesizer::new(&g, &lib)
            .with_config(sc)
            .run()
            .expect("synthesis");
        let s = r.stats.ucp_stats.expect("exact covering reports stats");
        let cost: f64 = r.selected.iter().map(|c| c.cost).sum();
        // A stronger bound may lower the node and prune counts (update
        // them with that change); the cost bits must never move.
        assert_eq!(cost.to_bits(), 0x4048_8000_0000_0000, "threads={threads}");
        assert_eq!(r.stats.ucp_cols, 133, "threads={threads}");
        let counters = [
            ("bnb_nodes", s.nodes, 1548),
            ("bound_prunes", s.bound_prunes, 1288),
            ("subtrees", s.subtrees, 7),
            ("essentials", s.essentials, 94),
            ("incumbent_updates", s.incumbent_updates, 7),
        ];
        for (name, got, want) in counters {
            assert_eq!(got, want, "covering.{name} moved at threads={threads}");
        }
    }
}
