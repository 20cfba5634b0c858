//! Human-readable reports: the paper-style tables and run summaries
//! consumed by the benchmark harness and the examples.

use crate::constraint::{ArcId, ConstraintGraph};
use crate::library::{Library, NodeKind};
use crate::matrices::{DistanceMatrices, Matrix};
use crate::placement::{Candidate, CandidateKind, Endpoint, HubHardware};
use crate::synthesis::{SynthesisResult, SynthesisStats};
use ccs_obs::json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Schema identifier of the [`topology_json`] document.
pub const TOPOLOGY_SCHEMA: &str = "ccs-topology-v1";

/// Renders the synthesized architecture as a machine-readable JSON
/// document (schema [`TOPOLOGY_SCHEMA`]).
///
/// The document is a pure function of the synthesis *result* — costs,
/// selected candidates, hub positions, per-segment plans — and contains
/// no timings, counters, or other scheduling-dependent data. Because
/// synthesis is bit-identical across thread counts, serializing this
/// value yields byte-equal text for `--threads 1` and `--threads N`;
/// the CI determinism gate diffs exactly this section.
pub fn topology_json(
    result: &SynthesisResult,
    graph: &ConstraintGraph,
    library: &Library,
) -> Value {
    let mut doc = BTreeMap::new();
    doc.insert("schema".into(), Value::Str(TOPOLOGY_SCHEMA.into()));
    doc.insert(
        "arc_count".into(),
        Value::Num(result.stats.arc_count as f64),
    );
    doc.insert("total_cost".into(), Value::Num(result.total_cost()));
    doc.insert("p2p_cost".into(), Value::Num(result.stats.p2p_cost));
    doc.insert(
        "candidate_count".into(),
        Value::Num(result.candidates.len() as f64),
    );
    doc.insert(
        "selected".into(),
        Value::Arr(
            result
                .selected
                .iter()
                .map(|c| candidate_json(c, graph, library))
                .collect(),
        ),
    );
    Value::Obj(doc)
}

fn endpoint_json(e: Endpoint, graph: &ConstraintGraph) -> Value {
    Value::Str(match e {
        Endpoint::Port(p) => graph.port(p).name.clone(),
        Endpoint::HubA => "hub_a".to_string(),
        Endpoint::HubB => "hub_b".to_string(),
    })
}

fn point_json(p: ccs_geom::Point2) -> Value {
    Value::Arr(vec![Value::Num(p.x), Value::Num(p.y)])
}

fn candidate_json(c: &Candidate, graph: &ConstraintGraph, library: &Library) -> Value {
    let mut o = BTreeMap::new();
    o.insert(
        "arcs".into(),
        Value::Arr(c.arcs.iter().map(|&i| Value::Num(i as f64)).collect()),
    );
    match c.kind {
        CandidateKind::PointToPoint => {
            o.insert("kind".into(), Value::Str("p2p".into()));
        }
        CandidateKind::Merging { k } => {
            o.insert("kind".into(), Value::Str("merge".into()));
            o.insert("k".into(), Value::Num(k as f64));
            o.insert(
                "hub_hardware".into(),
                Value::Str(
                    match c.hub_hardware {
                        HubHardware::MuxDemux => "mux_demux",
                        HubHardware::SingleSwitch => "single_switch",
                    }
                    .into(),
                ),
            );
            if let Some(h) = c.hub_a {
                o.insert("hub_a".into(), point_json(h));
            }
            if let Some(h) = c.hub_b {
                o.insert("hub_b".into(), point_json(h));
            }
        }
    }
    o.insert("cost".into(), Value::Num(c.cost));
    o.insert("node_cost".into(), Value::Num(c.node_cost));
    o.insert(
        "segments".into(),
        Value::Arr(
            c.segments
                .iter()
                .map(|sg| {
                    let mut s = BTreeMap::new();
                    s.insert("from".into(), endpoint_json(sg.from, graph));
                    s.insert("to".into(), endpoint_json(sg.to, graph));
                    s.insert("length".into(), Value::Num(sg.length));
                    s.insert("demand_mbps".into(), Value::Num(sg.demand.as_mbps()));
                    s.insert(
                        "link".into(),
                        Value::Str(library.link(sg.plan.link).name.clone()),
                    );
                    s.insert("hops".into(), Value::Num(f64::from(sg.plan.hops)));
                    s.insert("lanes".into(), Value::Num(f64::from(sg.plan.lanes)));
                    s.insert(
                        "repeaters_per_lane".into(),
                        Value::Num(f64::from(sg.plan.repeaters_per_lane)),
                    );
                    s.insert("cost".into(), Value::Num(sg.plan.cost));
                    s.insert(
                        "arcs".into(),
                        Value::Arr(sg.arcs.iter().map(|&i| Value::Num(i as f64)).collect()),
                    );
                    Value::Obj(s)
                })
                .collect(),
        ),
    );
    Value::Obj(o)
}

/// Renders the constraint graph's arcs in a compact table.
pub fn arcs_table(graph: &ConstraintGraph) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>4} {:>12} {:>12} {:>10} {:>14}",
        "arc", "from", "to", "d(a)", "b(a)"
    );
    for (id, a) in graph.arcs() {
        let _ = writeln!(
            s,
            "{:>4} {:>12} {:>12} {:>10.2} {:>14}",
            id.to_string(),
            graph.port(a.src).name,
            graph.port(a.dst).name,
            a.distance,
            a.bandwidth.to_string(),
        );
    }
    s
}

/// Renders Table 1 (the Γ matrix) in the paper's layout.
pub fn table_gamma(m: &DistanceMatrices) -> String {
    m.format_upper(Matrix::Gamma)
}

/// Renders Table 2 (the Δ matrix) in the paper's layout.
pub fn table_delta(m: &DistanceMatrices) -> String {
    m.format_upper(Matrix::Delta)
}

/// Renders the merge-slack upper triangle `ε = Γ − Δ`: positive entries
/// are Lemma-3.1-mergeable pairs, marked with `*`.
pub fn table_slack(m: &DistanceMatrices) -> String {
    let n = m.len();
    let mut s = String::new();
    let _ = write!(s, "{:>6}", "");
    for j in 0..n {
        let _ = write!(s, "{:>10}", format!("a{}", j + 1));
    }
    s.push('\n');
    for i in 0..n {
        let _ = write!(s, "{:>6}", format!("a{}", i + 1));
        for j in 0..n {
            if j > i {
                let slack = m.slack(i, j);
                let mark = if slack > 1e-12 { "*" } else { " " };
                let _ = write!(s, "{:>9.2}{mark}", slack);
            } else {
                let _ = write!(s, "{:>10}", "");
            }
        }
        s.push('\n');
    }
    s
}

/// Renders a one-line-per-candidate summary of the selected architecture.
pub fn selection_summary(
    result: &SynthesisResult,
    graph: &ConstraintGraph,
    library: &Library,
) -> String {
    let mut s = String::new();
    for c in &result.selected {
        let arcs: Vec<String> = c
            .arcs
            .iter()
            .map(|&i| ArcId(i as u32).to_string())
            .collect();
        match c.kind {
            CandidateKind::PointToPoint => {
                let seg = &c.segments[0];
                let _ = writeln!(
                    s,
                    "  {} -> point-to-point via {} (cost {:.2})",
                    arcs.join(","),
                    library.link(seg.plan.link).name,
                    c.cost
                );
            }
            CandidateKind::Merging { k } => {
                let trunk = c
                    .segments
                    .iter()
                    .find(|sg| {
                        sg.from == crate::placement::Endpoint::HubA
                            && sg.to == crate::placement::Endpoint::HubB
                    })
                    .map(|sg| library.link(sg.plan.link).name.as_str())
                    .unwrap_or("<zero-length trunk>");
                let _ = writeln!(
                    s,
                    "  {} -> {k}-way merge, trunk {} (cost {:.2})",
                    arcs.join(","),
                    trunk,
                    c.cost
                );
            }
        }
    }
    let _ = writeln!(s, "  total cost {:.2}", result.total_cost());
    let _ = writeln!(
        s,
        "  point-to-point baseline {:.2} (saving {:.1}%)",
        result.stats.p2p_cost,
        result.saving_vs_p2p() * 100.0
    );
    let _ = writeln!(
        s,
        "  nodes: {} repeaters, {} mux, {} demux",
        result.implementation.repeater_count(),
        result.implementation.count_nodes(NodeKind::Mux),
        result.implementation.count_nodes(NodeKind::Demux),
    );
    let _ = graph; // reserved for richer per-arc reporting
    s
}

/// Renders the "where did the time go" table: per-phase wall-clock
/// share of the run and, for the executor phases, summed worker CPU
/// time, followed by the run's per-phase counters.
pub fn phase_table(stats: &SynthesisStats) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>12} {:>12} {:>7} {:>12}",
        "phase", "wall", "share", "cpu"
    );
    let total = stats.elapsed;
    let share = |d: Duration| {
        if total.is_zero() {
            0.0
        } else {
            100.0 * d.as_secs_f64() / total.as_secs_f64()
        }
    };
    let mut row = |name: &str, wall: Duration, cpu: Option<Duration>| {
        let cpu = cpu.map_or_else(|| "-".to_string(), |c| format!("{c:.2?}"));
        let _ = writeln!(
            s,
            "{:>12} {:>12} {:>6.1}% {:>12}",
            name,
            format!("{wall:.2?}"),
            share(wall),
            cpu
        );
    };
    for p in &stats.phases {
        row(p.name, p.wall, p.cpu);
    }
    // Phase boundaries exclude argument checking and stats assembly;
    // show the remainder so the shares visibly sum to 100%.
    let accounted: Duration = stats.phases.iter().map(|p| p.wall).sum();
    row("other", total.saturating_sub(accounted), None);
    row("total", total, None);
    if !stats.counters.is_empty() {
        let _ = writeln!(s, "  counters:");
        for (name, value) in &stats.counters {
            let _ = writeln!(s, "    {name} = {value}");
        }
    }
    s
}

/// Renders the per-k merge-candidate counts ("thirteen 2-way, …").
pub fn candidate_counts(result: &SynthesisResult) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "  {} point-to-point candidates", result.stats.arc_count);
    for &(k, n) in &result.stats.merge_stats.counts {
        let _ = writeln!(s, "  {n} {k}-way merge candidates");
    }
    if let Some(k) = result.stats.merge_stats.truncated_at_k {
        let _ = writeln!(s, "  (enumeration truncated at k = {k})");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::wan_paper_library;
    use crate::synthesis::Synthesizer;
    use crate::units::Bandwidth;
    use ccs_geom::{Norm, Point2};

    fn instance() -> (ConstraintGraph, Library) {
        let mut b = ConstraintGraph::builder(Norm::Euclidean);
        let a = b.add_port("A", Point2::new(0.0, 0.0));
        let c = b.add_port("B", Point2::new(5.0, 0.0));
        let d = b.add_port("D", Point2::new(64.8, 76.4));
        b.add_channel(a, d, Bandwidth::from_mbps(10.0)).unwrap();
        b.add_channel(c, d, Bandwidth::from_mbps(10.0)).unwrap();
        (b.build().unwrap(), wan_paper_library())
    }

    #[test]
    fn arcs_table_lists_every_arc() {
        let (g, _) = instance();
        let t = arcs_table(&g);
        assert!(t.contains("a1"));
        assert!(t.contains("a2"));
        assert!(t.contains("10.000 Mb/s"));
    }

    #[test]
    fn matrix_tables_render() {
        let (g, _) = instance();
        let m = DistanceMatrices::compute(&g);
        assert!(table_gamma(&m).contains("a2"));
        assert!(table_delta(&m).contains("a2"));
    }

    #[test]
    fn slack_table_marks_mergeable_pairs() {
        let (g, _) = instance();
        let m = DistanceMatrices::compute(&g);
        let t = table_slack(&m);
        // The two co-sourced channels have large positive slack.
        assert!(t.contains('*'), "{t}");
        assert!(t.contains("a2"));
    }

    #[test]
    fn phase_table_lists_every_phase_and_counters() {
        let (g, lib) = instance();
        let r = Synthesizer::new(&g, &lib).run().unwrap();
        let t = phase_table(&r.stats);
        for name in [
            "p2p",
            "matrices",
            "merging",
            "placement",
            "covering",
            "assembly",
            "other",
            "total",
        ] {
            assert!(t.contains(name), "missing {name} in:\n{t}");
        }
        assert!(t.contains("cpu"), "{t}");
        assert!(t.contains("counters:"), "{t}");
        assert!(t.contains("merging.k2.examined"), "{t}");
    }

    #[test]
    fn topology_json_is_deterministic_and_complete() {
        let (g, lib) = instance();
        let r = Synthesizer::new(&g, &lib).run().unwrap();
        let doc = topology_json(&r, &g, &lib);
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("ccs-topology-v1")
        );
        assert_eq!(doc.get("arc_count").and_then(Value::as_num), Some(2.0));
        assert_eq!(
            doc.get("total_cost").and_then(Value::as_num),
            Some(r.total_cost())
        );
        let selected = match doc.get("selected") {
            Some(Value::Arr(v)) => v,
            other => panic!("selected missing: {other:?}"),
        };
        assert_eq!(selected.len(), r.selected.len());
        for (v, c) in selected.iter().zip(&r.selected) {
            assert_eq!(v.get("cost").and_then(Value::as_num), Some(c.cost));
            match v.get("kind").and_then(Value::as_str) {
                Some("merge") => assert!(v.get("hub_a").is_some()),
                Some("p2p") => assert!(v.get("k").is_none()),
                other => panic!("bad kind {other:?}"),
            }
        }
        // Serializing twice yields byte-equal text (BTreeMap ordering).
        let mut a = String::new();
        let mut b = String::new();
        doc.write_pretty(&mut a, 0);
        topology_json(&r, &g, &lib).write_pretty(&mut b, 0);
        assert_eq!(a, b);
        assert!(a.contains("\"segments\""), "{a}");
    }

    #[test]
    fn summary_mentions_selection_and_totals() {
        let (g, lib) = instance();
        let r = Synthesizer::new(&g, &lib).run().unwrap();
        let s = selection_summary(&r, &g, &lib);
        assert!(s.contains("total cost"));
        assert!(s.contains("baseline"));
        let c = candidate_counts(&r);
        assert!(c.contains("point-to-point candidates"));
    }
}
