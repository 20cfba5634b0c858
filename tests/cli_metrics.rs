//! End-to-end check of the observability surface: `ccs synth
//! --metrics-json` on the paper's WAN example must produce a valid
//! `ccs-metrics-v1` document whose phase timings and pruning counters
//! line up with the in-process [`SynthesisStats`] the run reports.
//!
//! The recorder is process-global, so every test that installs one (via
//! the CLI flags) holds `RECORDER_LOCK`, and assertions are on key
//! presence and plausibility rather than exact counts.

use ccs::obs::json::Value;
use ccs::obs::Metrics;
use std::sync::Mutex;

static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn run(cmdline: &str) -> Result<String, String> {
    let argv: Vec<String> = cmdline.split_whitespace().map(str::to_string).collect();
    ccs::cli::run(&argv)
}

/// Writes the built-in WAN example to temp files, returns their paths.
fn wan_files(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("ccs-metrics-test-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("wan.ccs");
    let lib = dir.join("wan-lib.ccs");
    std::fs::write(&inst, run("example instance wan").unwrap()).unwrap();
    std::fs::write(&lib, run("example library wan").unwrap()).unwrap();
    (inst, lib)
}

const PHASES: [&str; 7] = [
    "p2p",
    "matrices",
    "merging",
    "placement",
    "covering",
    "assembly",
    "total",
];

#[test]
fn synth_metrics_json_document_is_complete_and_consistent() {
    let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (inst, lib) = wan_files("synth");
    let metrics = inst.with_file_name("metrics.json");
    run(&format!(
        "synth --instance {} --library {} --metrics-json {}",
        inst.display(),
        lib.display(),
        metrics.display()
    ))
    .unwrap();

    let text = std::fs::read_to_string(&metrics).unwrap();
    let doc = ccs::obs::json::parse(&text).expect("metrics file is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some(ccs::obs::METRICS_SCHEMA)
    );

    // Every pipeline phase appears with a plausible wall-clock entry,
    // and "total" dominates each individual phase.
    let m = Metrics::from_json(&doc).expect("round-trips through Metrics");
    for name in PHASES {
        let stat = m
            .spans
            .get(name)
            .unwrap_or_else(|| panic!("missing phase {name}: {text}"));
        assert!(stat.calls >= 1, "{name} never recorded");
    }
    let total = m.spans["total"].total_ns;
    for name in PHASES {
        assert!(
            m.spans[name].total_ns <= total,
            "{name} exceeds total: {text}"
        );
    }

    // The pruning counters from every stage made it into the document.
    for key in [
        "matrices.pairs",
        "p2p.plans",
        "merging.k2.examined",
        "merging.k2.survivors",
        "placement.twohub_solves",
        "placement.weber_solves",
        "covering.rows",
        "covering.cols",
        "covering.bnb_nodes",
    ] {
        assert!(
            m.counters.contains_key(key),
            "missing counter {key}: {text}"
        );
    }
    // The WAN instance has 8 arcs, so the matrices phase touched 64 pairs
    // at least once (parallel tests may add more).
    assert!(m.counters["matrices.pairs"] >= 64, "{text}");
    // The two-hub placement solver converged: tiny residual gauge.
    if let Some(r) = m.gauges.get("placement.twohub_residual") {
        assert!(*r >= 0.0 && *r < 1.0, "implausible residual {r}");
    }
}

#[test]
fn simulate_metrics_json_includes_simulation_span() {
    let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (inst, lib) = wan_files("simulate");
    let metrics = inst.with_file_name("sim-metrics.json");
    run(&format!(
        "simulate --instance {} --library {} --metrics-json {}",
        inst.display(),
        lib.display(),
        metrics.display()
    ))
    .unwrap();
    let text = std::fs::read_to_string(&metrics).unwrap();
    let doc = ccs::obs::json::parse(&text).expect("valid JSON");
    let m = Metrics::from_json(&doc).expect("valid metrics document");
    assert!(m.spans.contains_key("simulate"), "{text}");
    assert!(m.spans.contains_key("total"), "{text}");
}

#[test]
fn stats_counters_match_metrics_document_without_any_recorder() {
    // SynthesisStats.counters is built from the run's own return values,
    // so it must carry the same pruning story even when no recorder is
    // installed (the default, zero-overhead configuration). The lock
    // keeps the other tests' recorders out, and this run's phases out
    // of their documents.
    let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = ccs::gen::wan::paper_instance();
    let lib = ccs::gen::wan::paper_library();
    let r = ccs::core::synthesis::Synthesizer::new(&g, &lib)
        .run()
        .unwrap();
    for key in [
        "p2p.candidates",
        "merging.k2.examined",
        "merging.k2.survivors",
        "covering.rows",
        "covering.cols",
        "covering.bnb_nodes",
    ] {
        assert!(
            r.stats.counters.contains_key(key),
            "missing counter {key}: {:?}",
            r.stats.counters
        );
    }
    assert_eq!(r.stats.counters["p2p.candidates"], 8);
    assert_eq!(r.stats.counters["covering.rows"], 8);
    // Phase timings are populated, in pipeline order, and bounded by
    // the total; exactly the four executor phases carry CPU time.
    let names: Vec<&str> = r.stats.phases.iter().map(|p| p.name).collect();
    assert_eq!(names, PHASES[..6]);
    for p in &r.stats.phases {
        assert!(p.wall <= r.stats.elapsed, "{} exceeds elapsed", p.name);
        let executor = matches!(p.name, "p2p" | "merging" | "placement" | "covering");
        assert_eq!(p.cpu.is_some(), executor, "{}", p.name);
    }
}

/// Runs `f` under a request scope recording into a fresh collector and
/// returns its result with the counters the stream received.
fn streamed<T>(f: impl FnOnce() -> T) -> (T, std::collections::BTreeMap<String, u64>) {
    let collector = ccs::obs::Collector::new();
    let obs = ccs::obs::scope::RequestObs::new(Some(collector.clone()), None);
    let guard = ccs::obs::scope::enter(obs);
    let out = f();
    drop(guard);
    (out, collector.snapshot().counters)
}

/// Every counter of the run record must be in the recorder stream with
/// the same value. `exec.threads` is a gauge in the stream.
fn assert_record_matches_stream(
    what: &str,
    r: &ccs::core::synthesis::SynthesisResult,
    stream: &std::collections::BTreeMap<String, u64>,
) {
    for (name, &value) in &r.stats.counters {
        if name == "exec.threads" {
            continue;
        }
        assert_eq!(stream.get(name), Some(&value), "{what}: counter {name}");
    }
}

#[test]
fn stats_counters_equal_the_recorder_stream() {
    use ccs::core::synthesis::{Edit, SynthesisConfig, SynthesisSession, Synthesizer};
    use ccs::gen::random::{soc_floorplan, SocConfig};
    let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let soc = soc_floorplan(&SocConfig {
        seed: 7,
        channels: 14,
        ..SocConfig::default()
    });
    let instances = [
        (
            "wan",
            ccs::gen::wan::paper_instance(),
            ccs::gen::wan::paper_library(),
        ),
        ("soc", soc, ccs::gen::mpeg4::paper_library()),
    ];
    for (name, graph, library) in &instances {
        for threads in [1, 2] {
            let config = SynthesisConfig {
                threads,
                ..SynthesisConfig::default()
            };
            let (r, stream) = streamed(|| {
                Synthesizer::new(graph, library)
                    .with_config(config.clone())
                    .run()
            });
            let r = r.unwrap();
            assert_record_matches_stream(&format!("{name} t{threads}"), &r, &stream);
            if *name == "soc" {
                // The covering sweep fans out, so its tasks count too.
                assert!(r.stats.counters["covering.subtrees"] > 0);
            }
        }
    }
    // A warm, seeded re-synthesis adds the reuse counts.
    let (_, graph, library) = &instances[1];
    let mut session =
        SynthesisSession::new(graph.clone(), library.clone(), SynthesisConfig::default());
    session.resynthesize(&[]).unwrap();
    let edit = Edit::ArcRate {
        arc: 2,
        bandwidth: ccs::core::units::Bandwidth::from_mbps(250.0),
    };
    let (r, stream) = streamed(|| session.resynthesize(&[edit]));
    let r = r.unwrap();
    assert!(r.stats.counters["resynth.verdicts_reused"] > 0);
    assert_record_matches_stream("soc warm", &r, &stream);
}

#[test]
fn failing_synth_still_reports_the_phases_it_entered() {
    let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (inst, _) = wan_files("failing");
    // Radio links only and no mux/demux: the first arc that needs
    // duplication fails the p2p phase.
    let lib = inst.with_file_name("radio-lib.ccs");
    std::fs::write(
        &lib,
        "ccs-library v1\nlink radio 1 inf per-length 2000\nnode repeater 0\n",
    )
    .unwrap();
    let metrics = inst.with_file_name("failing-metrics.json");
    let err = run(&format!(
        "synth --instance {} --library {} --metrics-json {}",
        inst.display(),
        lib.display(),
        metrics.display()
    ))
    .unwrap_err();
    assert!(err.contains("mux/demux"), "{err}");

    let text = std::fs::read_to_string(&metrics).unwrap();
    let doc = ccs::obs::json::parse(&text).expect("partial document is valid JSON");
    let m = Metrics::from_json(&doc).expect("valid metrics document");
    // Presence only: a recorder-less run in a parallel test may add to
    // the same global recorder.
    for name in ["p2p", "total"] {
        assert!(m.spans.contains_key(name), "missing phase {name}: {text}");
    }
    assert!(m.counters.contains_key("alloc.p2p.allocs"), "{text}");
}
