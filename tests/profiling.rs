//! End-to-end checks of the profiling and allocation-accounting layer:
//! `ccs synth --metrics-json` must embed a `ccs-profile-v1` call tree
//! whose scheduling-independent view (names + call counts) is
//! byte-identical across thread counts, a live `"alloc"` section (this
//! test binary installs the counting allocator), and `--profile-folded`
//! must emit flamegraph-ready folded stacks.
//!
//! The profiler and recorder are process-global, so every test that
//! runs the CLI holds `SESSION_LOCK`.

use ccs::obs::json::Value;
use std::sync::Mutex;

#[global_allocator]
static ALLOC: ccs::obs::alloc::CountingAlloc = ccs::obs::alloc::CountingAlloc::new();

static SESSION_LOCK: Mutex<()> = Mutex::new(());

fn run(cmdline: &str) -> Result<String, String> {
    let argv: Vec<String> = cmdline.split_whitespace().map(str::to_string).collect();
    ccs::cli::run(&argv)
}

/// Writes a seeded WAN instance + the paper library to temp files.
fn wan_files(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("ccs-profiling-test-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("wan.ccs");
    let lib = dir.join("wan-lib.ccs");
    std::fs::write(&inst, run("gen wan --seed 42 --channels 10").unwrap()).unwrap();
    std::fs::write(&lib, run("example library wan").unwrap()).unwrap();
    (inst, lib)
}

fn synth_metrics(
    inst: &std::path::Path,
    lib: &std::path::Path,
    threads: usize,
    tag: &str,
) -> Value {
    let metrics = inst.with_file_name(format!("metrics-{tag}-{threads}.json"));
    run(&format!(
        "synth --instance {} --library {} --threads {threads} --metrics-json {}",
        inst.display(),
        lib.display(),
        metrics.display()
    ))
    .unwrap();
    let text = std::fs::read_to_string(&metrics).unwrap();
    ccs::obs::json::parse(&text).expect("metrics file is valid JSON")
}

#[test]
fn profile_section_has_the_expected_call_tree() {
    let _guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (inst, lib) = wan_files("tree");
    let doc = synth_metrics(&inst, &lib, 1, "tree");

    let profile = doc.get("profile").expect("profile section");
    assert_eq!(
        profile.get("schema").and_then(Value::as_str),
        Some(ccs::obs::profile::PROFILE_SCHEMA)
    );
    let tree = ccs::obs::profile::ProfileNode::from_json(profile.get("tree").expect("tree"))
        .expect("tree parses back");
    let synth = &tree.children["synthesize"];
    assert_eq!(synth.calls, 1);
    for phase in [
        "p2p",
        "matrices",
        "merging",
        "placement",
        "covering",
        "assembly",
    ] {
        assert!(
            synth.children.contains_key(phase),
            "missing phase {phase} in {:?}",
            synth.children.keys().collect::<Vec<_>>()
        );
    }
    // Leaf scopes: one plan_arc per arc (10 channels), pairs under
    // merging, solve_cover under covering.
    let p2p = &synth.children["p2p"];
    assert_eq!(p2p.children["plan_arc"].calls, 10);
    assert!(synth.children["merging"].children.contains_key("pairs"));
    assert_eq!(synth.children["covering"].children["solve_cover"].calls, 1);
    // Wall times are present and sane: total >= self, min <= max.
    assert!(synth.total_ns >= synth.self_ns());
    let plan = &p2p.children["plan_arc"];
    assert!(plan.min_ns <= plan.max_ns);
}

#[test]
fn profile_counts_are_byte_identical_across_thread_counts() {
    let _guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (inst, lib) = wan_files("det");

    let mut rendered = Vec::new();
    for threads in [1, 4] {
        let doc = synth_metrics(&inst, &lib, threads, "det");
        // One span per phase, plus a CPU span per executor phase.
        let phases: Vec<&str> = doc
            .get("phases")
            .and_then(Value::as_obj)
            .expect("phases section")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            phases,
            [
                "assembly",
                "covering",
                "covering.cpu",
                "matrices",
                "merging",
                "merging.cpu",
                "p2p",
                "p2p.cpu",
                "placement",
                "placement.cpu",
                "total",
            ],
            "--threads {threads}"
        );
        let counts = doc
            .get("profile")
            .and_then(|p| p.get("counts"))
            .expect("counts view");
        let mut text = String::new();
        counts.write_compact(&mut text);
        assert!(
            !text.contains("ns"),
            "counts view must be timing-free: {text}"
        );
        rendered.push(text);
    }
    assert_eq!(
        rendered[0], rendered[1],
        "profile call counts must be byte-identical for --threads 1 vs 4"
    );
}

#[test]
fn alloc_section_reports_live_counters() {
    let _guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (inst, lib) = wan_files("alloc");
    let doc = synth_metrics(&inst, &lib, 2, "alloc");

    let alloc = doc.get("alloc").expect("alloc section");
    assert_eq!(alloc.get("tracking"), Some(&Value::Bool(true)));
    let allocs = alloc.get("allocs").and_then(Value::as_num).unwrap();
    assert!(allocs > 0.0, "the counting allocator must have seen work");
    let peak = alloc
        .get("peak_live_bytes")
        .and_then(Value::as_num)
        .unwrap();
    let live = alloc.get("live_bytes").and_then(Value::as_num).unwrap();
    assert!(peak >= live, "peak {peak} must dominate live {live}");

    // Per-phase deltas flow through the counter stream.
    let counters = doc.get("counters").expect("counters");
    for phase in ["p2p", "merging", "placement", "covering"] {
        assert!(
            counters.get(&format!("alloc.{phase}.allocs")).is_some(),
            "missing alloc.{phase}.allocs"
        );
    }
}

#[test]
fn profile_folded_writes_flamegraph_stacks() {
    let _guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (inst, lib) = wan_files("folded");
    let folded = inst.with_file_name("profile.folded");
    run(&format!(
        "synth --instance {} --library {} --threads 2 --profile-folded {}",
        inst.display(),
        lib.display(),
        folded.display()
    ))
    .unwrap();

    let text = std::fs::read_to_string(&folded).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty());
    for line in &lines {
        let (stack, ns) = line.rsplit_once(' ').expect("'path;to;scope <ns>' format");
        assert!(!stack.is_empty());
        ns.parse::<u64>()
            .unwrap_or_else(|_| panic!("numeric self_ns in {line:?}"));
    }
    assert!(lines.iter().any(|l| l.starts_with("synthesize ")), "{text}");
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("synthesize;p2p;plan_arc ")),
        "{text}"
    );
}

#[test]
fn dash_paths_mean_stdout_and_leave_no_files() {
    let _guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (inst, lib) = wan_files("stdout");
    let cwd_dash = std::path::Path::new("-");
    // `-` must not be created as a file in the working directory.
    let existed_before = cwd_dash.exists();
    run(&format!(
        "synth --instance {} --library {} --metrics-json - --profile-folded -",
        inst.display(),
        lib.display()
    ))
    .unwrap();
    assert_eq!(
        cwd_dash.exists(),
        existed_before,
        "'-' must go to stdout, not a file"
    );
}

#[test]
fn panicking_run_still_writes_partial_metrics() {
    let _guard = SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Simulate a mid-pipeline panic: a recorder session is live, some
    // phases have reported, then the pipeline unwinds. The ObsSession
    // drop must still produce a parseable document with what it has.
    let dir = std::env::temp_dir().join("ccs-profiling-test-panic");
    std::fs::create_dir_all(&dir).unwrap();
    let (inst, lib) = wan_files("panic");
    let metrics = dir.join("partial.json");

    // An unwritable metrics path errors out *after* synthesis — the
    // session Drop ran with the file write failing, which must not
    // panic or poison the global recorder for the next run.
    let bad = run(&format!(
        "synth --instance {} --library {} --metrics-json /nonexistent-dir/x/y.json",
        inst.display(),
        lib.display()
    ));
    assert!(bad.is_err());

    // The recorder/profiler are fully torn down: a follow-up run works
    // and writes a complete document.
    let doc = {
        run(&format!(
            "synth --instance {} --library {} --metrics-json {}",
            inst.display(),
            lib.display(),
            metrics.display()
        ))
        .unwrap();
        let text = std::fs::read_to_string(&metrics).unwrap();
        ccs::obs::json::parse(&text).expect("valid JSON")
    };
    assert!(doc.get("profile").is_some());
    assert!(doc.get("alloc").is_some());
}
