//! Robustness and failure-injection tests across crates: the verifier and
//! the simulator must catch broken architectures, and the public model
//! layer must lower cleanly.

use ccs::core::check::{verify, Violation};
use ccs::core::implementation::ImplementationGraph;
use ccs::core::model::SystemSpec;
use ccs::core::placement::point_to_point_candidate;
use ccs::core::synthesis::Synthesizer;
use ccs::gen::wan;
use ccs::netsim::NetSim;
use ccs::prelude::*;

fn wan_synthesis() -> (
    ccs::core::constraint::ConstraintGraph,
    Library,
    ImplementationGraph,
) {
    let g = wan::paper_instance();
    let lib = wan::paper_library();
    let imp = Synthesizer::new(&g, &lib)
        .run()
        .expect("synthesis")
        .implementation;
    (g, lib, imp)
}

#[test]
fn verifier_catches_missing_arc() {
    let (g, lib, _) = wan_synthesis();
    // Build an architecture implementing only the first arc.
    let only_first = vec![point_to_point_candidate(&g, &lib, 0).expect("feasible")];
    let broken = ImplementationGraph::build(&g, &lib, &only_first);
    let violations = verify(&g, &lib, &broken);
    assert!(violations
        .iter()
        .any(|v| matches!(v, Violation::MissingRoute(_))));
    // Seven arcs are unimplemented.
    assert_eq!(
        violations
            .iter()
            .filter(|v| matches!(v, Violation::MissingRoute(_)))
            .count(),
        7
    );
}

#[test]
fn verifier_catches_underprovisioned_bandwidth() {
    let (_, lib, imp) = wan_synthesis();
    // Re-verify the same architecture against a hotter demand set.
    let mut b = ConstraintGraph::builder(Norm::Euclidean);
    for (i, &(src, dst)) in wan::ARCS.iter().enumerate() {
        let out = b.add_port(
            format!("{}.out{}", wan::NODE_NAMES[src], i),
            Point2::new(wan::NODES[src].0, wan::NODES[src].1),
        );
        let inp = b.add_port(
            format!("{}.in{}", wan::NODE_NAMES[dst], i),
            Point2::new(wan::NODES[dst].0, wan::NODES[dst].1),
        );
        b.add_channel(out, inp, Bandwidth::from_gbps(2.0)).unwrap();
    }
    let hot = b.build().unwrap();
    let violations = verify(&hot, &lib, &imp);
    assert!(violations
        .iter()
        .any(|v| matches!(v, Violation::InsufficientBandwidth { .. })));
}

#[test]
fn every_single_group_failure_is_detected() {
    let (g, _, imp) = wan_synthesis();
    let baseline = NetSim::new(&g, &imp).run();
    assert!(baseline.all_satisfied());
    for group in 0..imp.group_count() {
        let failed = NetSim::new(&g, &imp).with_failed_group(group).run();
        assert!(
            failed.unsatisfied().count() >= 1,
            "failing group {group} went unnoticed"
        );
    }
}

#[test]
fn system_spec_lowers_and_synthesizes() {
    let mut spec = SystemSpec::new(Norm::Euclidean);
    let hub = spec.add_module("hub", Point2::new(0.0, 0.0));
    for i in 0..4 {
        let leaf = spec.add_module(
            format!("leaf{i}"),
            Point2::new(10.0 + i as f64, 5.0 * i as f64),
        );
        spec.connect(hub, leaf, Bandwidth::from_mbps(5.0));
        spec.connect(leaf, hub, Bandwidth::from_mbps(2.0));
    }
    let g = spec.to_constraint_graph().expect("lowering succeeds");
    assert_eq!(g.arc_count(), 8);
    let lib = wan::paper_library();
    let r = Synthesizer::new(&g, &lib).run().expect("synthesis");
    assert!(verify(&g, &lib, &r.implementation).is_empty());
    let sim = NetSim::new(&g, &r.implementation).run();
    assert!(sim.all_satisfied());
}

#[test]
fn assumption_check_rejects_zero_cost_arcs() {
    // The monotonicity half of Assumption 2.1 holds by construction for
    // any library (the per-arc optimum is a min of functions that are
    // non-decreasing in distance and bandwidth), so the reachable
    // violation is `C(P(a)) = 0`: a channel shorter than the critical
    // length costs nothing under the on-chip library (wire free, no
    // repeater needed). The check must flag it.
    let lib = ccs::core::library::soc_paper_library(0.6);
    let mut b = ConstraintGraph::builder(Norm::Manhattan);
    let a = b.add_port("a", Point2::new(0.0, 0.0));
    let c = b.add_port("b", Point2::new(0.3, 0.0)); // below l_crit → free
    b.add_channel(a, c, Bandwidth::from_mbps(100.0)).unwrap();
    let g = b.build().unwrap();

    let cfg = ccs::core::synthesis::SynthesisConfig {
        check_assumption: true,
        ..Default::default()
    };
    let err = Synthesizer::new(&g, &lib)
        .with_config(cfg)
        .run()
        .expect_err("zero-cost arc detected");
    assert!(matches!(
        err,
        ccs::core::error::SynthesisError::AssumptionViolated(_, _)
    ));

    // Without the opt-in check the pipeline still works (the covering
    // matrix clamps zero weights).
    let ok = Synthesizer::new(&g, &lib)
        .run()
        .expect("synthesis succeeds");
    assert_eq!(ok.total_cost(), 0.0);
}

#[test]
fn dot_exports_are_well_formed() {
    let (_, _, imp) = wan_synthesis();
    let dot = imp.to_dot("wan");
    assert!(dot.starts_with("digraph wan {"));
    assert_eq!(dot.matches("->").count(), imp.graph().edge_count());
}

#[test]
fn multi_lane_trunk_merge_builds_verifies_and_simulates() {
    // Three 600 Mb/s channels into one node: the merged trunk needs
    // 1800 Mb/s, i.e. two optical lanes — duplication nested inside a
    // merging. Theorem 3.2 assumes a single-link common path and would
    // prune this subset (DESIGN.md §3.5), so the bandwidth prune is
    // disabled; the builder, verifier and both simulators must agree.
    let mut b = ConstraintGraph::builder(Norm::Euclidean);
    let a = b.add_port("A", Point2::new(0.0, 0.0));
    let c = b.add_port("B", Point2::new(5.0, 0.0));
    let e = b.add_port("C", Point2::new(-2.8, 4.6));
    let d = b.add_port("D", Point2::new(64.8, 76.4));
    for src in [a, c, e] {
        b.add_channel(src, d, Bandwidth::from_mbps(600.0)).unwrap();
    }
    let g = b.build().unwrap();
    let lib = wan::paper_library();
    let mut cfg = ccs::core::synthesis::SynthesisConfig::default();
    cfg.merge.bandwidth_prune = false;
    let r = Synthesizer::new(&g, &lib)
        .with_config(cfg)
        .run()
        .expect("synthesis succeeds");

    // The three channels merge and the trunk is duplicated.
    let merged = r
        .selected
        .iter()
        .find(|cand| cand.arcs.len() == 3)
        .expect("3-way merge selected");
    let trunk = merged
        .segments
        .iter()
        .find(|s| {
            s.from == ccs::core::placement::Endpoint::HubA
                && s.to == ccs::core::placement::Endpoint::HubB
        })
        .expect("trunk exists");
    assert_eq!(trunk.plan.lanes, 2, "trunk must duplicate");
    assert!(r.total_cost() < r.stats.p2p_cost);

    // Structure: the duplication adds its own demux/mux pair around the
    // trunk lanes, on top of the merge's hub pair.
    assert!(verify(&g, &lib, &r.implementation).is_empty());
    assert_eq!(r.implementation.count_nodes(NodeKind::Mux), 2);
    assert_eq!(r.implementation.count_nodes(NodeKind::Demux), 2);

    // Both simulators deliver all demands.
    let fluid = NetSim::new(&g, &r.implementation).run();
    assert!(fluid.all_satisfied());
    let cfg = ccs::netsim::packet::PacketSimConfig {
        packet_bits: 65_536.0,
        horizon_us: 4_000.0,
        ..Default::default()
    };
    let packets = ccs::netsim::packet::simulate(&g, &r.implementation, &cfg);
    assert!(packets.meets_demands(&g, &cfg), "{packets:#?}");
}

#[test]
fn synthesis_is_deterministic() {
    // Same inputs → identical architectures, costs, and rendered reports
    // (reproducibility is a headline claim of this repository).
    let g = wan::paper_instance();
    let lib = wan::paper_library();
    let a = Synthesizer::new(&g, &lib).run().expect("first run");
    let b = Synthesizer::new(&g, &lib).run().expect("second run");
    assert_eq!(a.total_cost(), b.total_cost());
    assert_eq!(
        ccs::core::report::selection_summary(&a, &g, &lib),
        ccs::core::report::selection_summary(&b, &g, &lib)
    );
    assert_eq!(a.implementation.to_dot("x"), b.implementation.to_dot("x"));
}

#[test]
fn overflowing_port_distance_is_a_typed_error_in_cli_and_serve() {
    // Every coordinate is finite, so the instance parses, but the arc
    // from (0, 0) to (1e308, 0) is longer than an f64 can hold once
    // squared: its Euclidean length is infinite.
    let lib = ccs::gen::io::library_to_string(&wan::paper_library());
    let normal = ccs::gen::io::instance_to_string(&wan::paper_instance());
    let mut lines: Vec<String> = normal.lines().map(str::to_string).collect();
    // The second port line is the destination of the first channel.
    let dst = lines.iter().position(|l| l.starts_with("port ")).unwrap() + 1;
    let name = lines[dst].split_whitespace().nth(1).unwrap().to_string();
    lines[dst] = format!("port {name} 1e308 0");
    let inst = lines.join("\n") + "\n";
    let expected = "distances must be positive and finite";

    let dir = std::env::temp_dir().join(format!("ccs-robustness-far-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (inst_path, lib_path) = (dir.join("far.ccs"), dir.join("lib.ccs"));
    std::fs::write(&inst_path, &inst).unwrap();
    std::fs::write(&lib_path, &lib).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccs"))
        .arg("synth")
        .arg("--instance")
        .arg(&inst_path)
        .arg("--library")
        .arg(&lib_path)
        .output()
        .expect("ccs runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(expected), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);

    // Served: one counted error response, and the worker survives to
    // answer the next request.
    use ccs::obs::json::{self, Value};
    use ccs::serve::{Engine, ResponseSink, ServeConfig, REQUEST_SCHEMA};
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex};
    #[derive(Default)]
    struct Lines(Mutex<Vec<String>>);
    impl ResponseSink for Lines {
        fn send_line(&self, line: &str) {
            self.0.lock().unwrap().push(line.trim_end().to_string());
        }
    }
    let synth = |id: &str, instance: &str| {
        let mut obj = BTreeMap::new();
        obj.insert("schema".to_string(), Value::Str(REQUEST_SCHEMA.to_string()));
        obj.insert("id".to_string(), Value::Str(id.to_string()));
        obj.insert("kind".to_string(), Value::Str("synth".to_string()));
        obj.insert("instance".to_string(), Value::Str(instance.to_string()));
        obj.insert("library".to_string(), Value::Str(lib.clone()));
        let mut line = String::new();
        Value::Obj(obj).write_compact(&mut line);
        line
    };
    let engine = Engine::new(&ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let lines = Arc::new(Lines::default());
    let sink: Arc<dyn ResponseSink> = lines.clone();
    engine.submit_line(&synth("far", &inst), &sink);
    engine.submit_line(&synth("ok", &normal), &sink);
    engine.close();
    engine.worker_loop();
    let docs: Vec<Value> = lines
        .0
        .lock()
        .unwrap()
        .iter()
        .map(|l| json::parse(l).unwrap())
        .collect();
    assert_eq!(docs.len(), 2);
    assert_eq!(docs[0].get("id").unwrap().as_str(), Some("far"));
    assert_eq!(docs[0].get("status").unwrap().as_str(), Some("error"));
    assert!(docs[0]
        .get("error")
        .and_then(Value::as_str)
        .unwrap()
        .contains(expected));
    assert_eq!(docs[1].get("status").unwrap().as_str(), Some("ok"));
    let summary = engine.summary();
    assert_eq!((summary.errors, summary.served), (1, 1));
}

#[test]
fn overflowing_candidate_cost_is_a_typed_error() {
    // Every number is finite, but 1e300 per unit length over a 1e10
    // link overflows the point-to-point candidate's cost to `inf`.
    let lib = "ccs-library v1\nsegmentation minimal\nlink radio 11 inf per-length 1e300\n\
               node repeater 0\nnode mux 0\nnode demux 0\n";
    let inst = "ccs-instance v1\nnorm euclidean\nport a 0 0\nport b 1e10 0\nchannel 0 1 5\n";
    let dir = std::env::temp_dir().join(format!("ccs-robustness-cost-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (inst_path, lib_path) = (dir.join("inst.ccs"), dir.join("lib.ccs"));
    std::fs::write(&inst_path, inst).unwrap();
    std::fs::write(&lib_path, lib).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccs"))
        .arg("synth")
        .arg("--instance")
        .arg(&inst_path)
        .arg("--library")
        .arg(&lib_path)
        .output()
        .expect("ccs runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("column weight inf is not strictly positive and finite"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn gen_rejects_degenerate_sizes_without_panicking() {
    for (args, flag) in [
        ("soc --modules 1", "--modules"),
        ("soc --modules 0", "--modules"),
        ("soc --channels 0", "--channels"),
        ("wan --channels 0", "--channels"),
        ("wan --clusters 0", "--clusters"),
        ("wan --nodes-per-cluster 0", "--nodes-per-cluster"),
        (
            "wan --clusters 1 --nodes-per-cluster 1",
            "--nodes-per-cluster",
        ),
        // Above the caps: rejected before the generator allocates.
        ("wan --channels 10001", "--channels"),
        ("wan --channels 18446744073709551615", "--channels"),
        ("wan --clusters 1001", "--clusters"),
        ("wan --nodes-per-cluster 1001", "--nodes-per-cluster"),
        ("soc --channels 10001", "--channels"),
        ("soc --modules 10001", "--modules"),
        ("soc --modules 18446744073709551615", "--modules"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccs"))
            .arg("gen")
            .args(args.split_whitespace())
            .output()
            .expect("ccs runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "gen {args}: {stderr}");
        assert!(stderr.contains(flag), "gen {args}: {stderr}");
        assert!(!stderr.contains("panicked"), "gen {args}: {stderr}");
        assert!(out.stdout.is_empty(), "gen {args} generated output");
    }
}
