//! Bench baselines (`ccs-bench-v1`) and the perf-regression gate.
//!
//! [`run_preset`] times a fixed set of pipeline workloads (median/IQR
//! over repetitions, swept over thread counts, with per-run allocation
//! deltas and one embedded `ccs-profile-v1` call tree per case) and
//! renders the result as a `ccs-bench-v1` JSON document — written to
//! `BENCH_<preset>.json` by the `ccs-bench` binary and committed as the
//! repository's performance trajectory.
//!
//! [`compare`] diffs two such documents and reports every metric where
//! the current run regressed beyond a tolerance — the `ccs-bench
//! compare` exit status drives the CI `perf-gate` job. Wall times and
//! allocation counts get separate tolerances: allocation counts are
//! near-deterministic per thread count (small scheduling-dependent
//! wiggle from worker buffers), wall times are as noisy as the machine.

use ccs_core::constraint::ConstraintGraph;
use ccs_core::library::Library;
use ccs_core::matrices::DistanceMatrices;
use ccs_core::synthesis::{Edit, SynthesisConfig, SynthesisSession, Synthesizer};
use ccs_core::units::Bandwidth;
use ccs_obs::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Schema identifier of bench-baseline documents.
pub const BENCH_SCHEMA: &str = "ccs-bench-v1";

/// The preset names accepted by [`run_preset`].
pub const PRESETS: [&str; 2] = ["quick", "full"];

/// One benchmarked workload: a name and the instance it solves.
struct Case {
    name: &'static str,
    /// Builds the (graph, library, base config) for this case.
    build: fn() -> (ConstraintGraph, Library, SynthesisConfig),
    /// What to measure — the full pipeline or a single phase.
    work: Work,
}

enum Work {
    /// A full `Synthesizer::run`.
    Synth,
    /// Γ/Δ matrix computation only.
    Matrices,
    /// Synthesis plus an exhaustive N-1 resilience sweep.
    ResilienceN1,
    /// A batch of requests through the `ccs serve` engine (the thread
    /// count is the worker-slot count); reports request throughput and
    /// p99 latency as extra `serve` metrics, plus the telemetry A/A
    /// pair, which is measured once per case outside the timed reps.
    Serve,
    /// A cold `SynthesisSession` fill followed by a warm single-arc
    /// rate edit; reports both wall times as extra `resynth` metrics.
    /// [`compare`] gates the ratio: the warm re-synthesis must stay
    /// under a tenth of the cold run.
    ResynthWarm,
    /// An exact covering solve of a ≥1k-column unate-covering instance
    /// whose odd-cycle integrality gap forces real branch-and-bound —
    /// the workload the parallel subtree sweep exists for. The perf
    /// gate reads `covering.subtrees` from the profiled counters (the
    /// parallel path must actually fire) and checks the t4-vs-t1
    /// wall-time ratio across the thread sweep.
    CoveringPar,
}

impl Work {
    /// Thread-entry key the workload's extra metrics are filed under.
    fn extras_section(&self) -> &'static str {
        match self {
            Work::Serve => "serve",
            Work::ResynthWarm => "resynth",
            _ => "extras",
        }
    }

    /// Extra metrics measured once per case, outside the timed reps:
    /// checks on the measurement itself rather than part of the
    /// workload. Filed under the first thread count's entry.
    fn untimed_extras(&self) -> Result<Vec<(&'static str, u64)>, String> {
        match self {
            Work::Serve => {
                let [ctl, off] = serve_telemetry_aa()?;
                Ok(vec![("telemetry_ctl_ns", ctl), ("telemetry_off_ns", off)])
            }
            _ => Ok(Vec::new()),
        }
    }
}

fn paper_wan() -> (ConstraintGraph, Library, SynthesisConfig) {
    (
        ccs_gen::wan::paper_instance(),
        ccs_gen::wan::paper_library(),
        SynthesisConfig::default(),
    )
}

fn seeded_wan() -> (ConstraintGraph, Library, SynthesisConfig) {
    let cfg = ccs_gen::random::ClusteredWanConfig {
        seed: 42,
        channels: 12,
        ..Default::default()
    };
    let mut synth = SynthesisConfig::default();
    synth.merge.max_k = Some(4);
    (
        ccs_gen::random::clustered_wan(&cfg),
        ccs_gen::wan::paper_library(),
        synth,
    )
}

fn seeded_wan_large() -> (ConstraintGraph, Library, SynthesisConfig) {
    let cfg = ccs_gen::random::ClusteredWanConfig {
        seed: 7,
        channels: 24,
        ..Default::default()
    };
    let mut synth = SynthesisConfig::default();
    synth.merge.max_k = Some(4);
    (
        ccs_gen::random::clustered_wan(&cfg),
        ccs_gen::wan::paper_library(),
        synth,
    )
}

fn cases_for(preset: &str) -> Result<Vec<Case>, String> {
    let quick = vec![
        Case {
            name: "synth_wan_paper",
            build: paper_wan,
            work: Work::Synth,
        },
        Case {
            name: "synth_wan_seeded",
            build: seeded_wan,
            work: Work::Synth,
        },
        Case {
            name: "matrices_seeded",
            build: seeded_wan_large,
            work: Work::Matrices,
        },
        Case {
            name: "resilience_n1",
            build: seeded_wan,
            work: Work::ResilienceN1,
        },
        Case {
            name: "serve_engine",
            build: paper_wan, // unused; the serve load builds its own batch
            work: Work::Serve,
        },
        Case {
            name: "resynth_warm",
            build: seeded_wan,
            work: Work::ResynthWarm,
        },
        Case {
            name: "covering_par",
            build: paper_wan, // unused; the workload builds its own matrix
            work: Work::CoveringPar,
        },
    ];
    match preset {
        "quick" => Ok(quick),
        "full" => {
            let mut cases = quick;
            cases.push(Case {
                name: "synth_wan_seeded_large",
                build: seeded_wan_large,
                work: Work::Synth,
            });
            Ok(cases)
        }
        other => Err(format!(
            "unknown preset {other:?} (expected one of {PRESETS:?})"
        )),
    }
}

/// The parallel-covering workload's matrix: disjoint odd cycles (a real
/// integrality gap, so the solver branches) padded with singleton rows
/// past the 1k-column mark. Shared between the `covering_par` bench
/// case and the `ccs-bench covering` determinism driver so both solve
/// the same instance. Debug builds (the test suite) shrink it: the
/// unoptimized bitset kernels take ~30s on the full matrix, which would
/// dominate the schema test. Timing documents and the CI byte-diffs
/// only come from the release binary, which always gets the full
/// instance.
pub fn covering_par_instance() -> ccs_covering::CoverMatrix {
    if cfg!(debug_assertions) {
        ccs_gen::ucp::odd_cycles_padded(6, 7, 100)
    } else {
        ccs_gen::ucp::odd_cycles_padded(13, 15, 860)
    }
}

/// Per-run output of a case: the deterministic synthesis counters
/// (empty for non-synthesis workloads) plus workload-specific extra
/// metrics (the serve case's latency/throughput figures; empty
/// elsewhere).
struct CaseRun {
    counters: BTreeMap<String, u64>,
    extras: BTreeMap<String, u64>,
}

impl CaseRun {
    fn counters(counters: BTreeMap<String, u64>) -> CaseRun {
        CaseRun {
            counters,
            extras: BTreeMap::new(),
        }
    }
}

/// Executes one case once. Errors only on pipeline failure (a broken
/// workload, not a slow one).
fn run_case(case: &Case, threads: usize) -> Result<CaseRun, String> {
    let (graph, library, mut config) = (case.build)();
    config.threads = threads;
    match case.work {
        Work::Matrices => {
            let m = DistanceMatrices::compute(&graph);
            std::hint::black_box(&m);
            Ok(CaseRun::counters(BTreeMap::new()))
        }
        Work::Synth => {
            // A collector scrapes the covering phase's allocation
            // delta off the obs stream: scratch reuse in the solver is
            // gated on this number staying down, which the case-wide
            // allocator totals (every phase summed) would wash out.
            let collector = ccs_obs::Collector::new();
            ccs_obs::set_recorder(collector.clone());
            let r = Synthesizer::new(&graph, &library).with_config(config).run();
            ccs_obs::clear_recorder();
            let r = r.map_err(|e| format!("{}: {e}", case.name))?;
            std::hint::black_box(&r);
            let metrics = collector.snapshot();
            let mut extras = BTreeMap::new();
            for (counter, extra) in [
                ("alloc.covering.allocs", "alloc_covering_allocs"),
                ("alloc.covering.bytes", "alloc_covering_bytes"),
            ] {
                extras.insert(
                    extra.to_string(),
                    metrics.counters.get(counter).copied().unwrap_or(0),
                );
            }
            Ok(CaseRun {
                counters: r.stats.counters,
                extras,
            })
        }
        Work::ResilienceN1 => {
            let r = Synthesizer::new(&graph, &library)
                .with_config(config)
                .run()
                .map_err(|e| format!("{}: {e}", case.name))?;
            let exec = ccs_exec::Executor::new(threads);
            let cfg = ccs_netsim::resilience::ResilienceConfig::default();
            let sweep = ccs_netsim::resilience::analyze(&graph, &r.implementation, &cfg, &exec);
            std::hint::black_box(&sweep);
            Ok(CaseRun::counters(r.stats.counters))
        }
        Work::Serve => serve_load(threads),
        Work::ResynthWarm => {
            let mut session = SynthesisSession::new(graph, library, config);
            let t0 = Instant::now();
            session
                .resynthesize(&[])
                .map_err(|e| format!("{} (cold): {e}", case.name))?;
            let cold_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let edit = Edit::ArcRate {
                arc: 2,
                bandwidth: Bandwidth::from_mbps(25.0),
            };
            let t1 = Instant::now();
            let r = session
                .resynthesize(&[edit])
                .map_err(|e| format!("{} (warm): {e}", case.name))?;
            let warm_ns = u64::try_from(t1.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let mut extras = BTreeMap::new();
            extras.insert("cold_ns".to_string(), cold_ns);
            extras.insert("warm_ns".to_string(), warm_ns);
            Ok(CaseRun {
                counters: r.stats.counters,
                extras,
            })
        }
        Work::CoveringPar => {
            let m = covering_par_instance();
            let exec = ccs_exec::Executor::new(threads);
            let (cover, stats) = m
                .solve(ccs_covering::Search::Complete { seed: None }, &exec)
                .map_err(|e| format!("{}: {e}", case.name))?;
            std::hint::black_box(&cover);
            let mut counters = BTreeMap::new();
            counters.insert("covering.bnb_nodes".to_string(), stats.nodes);
            counters.insert("covering.subtrees".to_string(), stats.subtrees);
            counters.insert(
                "covering.shared_bound_tightenings".to_string(),
                stats.shared_bound_tightenings,
            );
            counters.insert("covering.bound_prunes".to_string(), stats.bound_prunes);
            counters.insert(
                "covering.proven_optimal".to_string(),
                u64::from(stats.proven_optimal),
            );
            Ok(CaseRun::counters(counters))
        }
    }
}

/// Requests in every `serve_engine` batch.
const SERVE_REQUESTS: usize = 24;

/// Passes over the request set in the `serve_engine` A/A pair; each
/// arm keeps its fastest latency per request (see [`serve_telemetry_aa`]).
const SERVE_AA_PASSES: usize = 8;

/// The `serve_engine` batch: seeded 5-channel WAN synths with mixed
/// priorities, every other one recording a ledger.
fn serve_requests() -> Vec<ccs::serve::Request> {
    let library = ccs_gen::io::library_to_string(&ccs_gen::wan::paper_library());
    (0..SERVE_REQUESTS)
        .map(|i| {
            let cfg = ccs_gen::random::ClusteredWanConfig {
                seed: 900 + i as u64,
                channels: 5,
                ..Default::default()
            };
            ccs::serve::Request {
                id: format!("b{i}"),
                kind: ccs::serve::RequestKind::Synth,
                instance: ccs_gen::io::instance_to_string(&ccs_gen::random::clustered_wan(&cfg)),
                library: library.clone(),
                priority: (i % 3) as i64,
                threads: Some(1),
                greedy: false,
                max_k: None,
                lb_gate: true,
                ledger: i % 2 == 0,
                fail_k: None,
                scenario_budget: None,
                max_cost_overhead: None,
                target: None,
                session: None,
                edits: Vec::new(),
            }
        })
        .collect()
}

/// Fails unless `engine` answered each of its `requests` without an
/// error.
fn check_served(engine: &ccs::serve::Engine, requests: usize) -> Result<(), String> {
    let summary = engine.summary();
    if summary.served != requests as u64 || summary.errors != 0 {
        return Err(format!(
            "serve_engine: expected {requests} served responses, got {summary:?}"
        ));
    }
    Ok(())
}

/// Pushes a fixed batch of requests through an in-process `ccs serve`
/// engine with `workers` request slots and reports end-to-end request
/// latency (p99, submission to response, queueing included) and
/// throughput. This is the wire-format-free core of the daemon — the
/// TCP transport adds only the syscalls.
///
/// The batch runs with telemetry on. It also scrapes the server-side
/// p99 from the same `ccs-serve-stats-v1` document the wire `stats` op
/// serves and cross-checks it against the client-side measurement
/// within the histogram's bucket resolution — a drifting estimator
/// fails the bench run itself.
fn serve_load(workers: usize) -> Result<CaseRun, String> {
    use ccs::serve::{Engine, ResponseSink, ServeConfig};
    use std::sync::{Arc, Mutex};

    struct LatencySink {
        start: Instant,
        done_ns: Mutex<Vec<u64>>,
    }
    impl ResponseSink for LatencySink {
        fn send_line(&self, _line: &str) {
            let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.done_ns.lock().unwrap().push(ns);
        }
    }

    let engine = Engine::new(&ServeConfig::default());
    let sink = Arc::new(LatencySink {
        start: Instant::now(),
        done_ns: Mutex::new(Vec::with_capacity(SERVE_REQUESTS)),
    });
    let dyn_sink: Arc<dyn ResponseSink> = sink.clone();
    for req in serve_requests() {
        engine.submit(req, &dyn_sink);
    }
    engine.close();
    let mut handles = Vec::with_capacity(workers.max(1));
    for _ in 0..workers.max(1) {
        let engine = engine.clone();
        handles.push(std::thread::spawn(move || engine.worker_loop()));
    }
    for h in handles {
        h.join().map_err(|_| "serve worker panicked".to_string())?;
    }
    let on_ns = u64::try_from(sink.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    check_served(&engine, SERVE_REQUESTS)?;
    let mut done = sink.done_ns.lock().unwrap().clone();
    done.sort_unstable();

    let p99 = done[((done.len() - 1) * 99) / 100];
    let req_per_sec = (SERVE_REQUESTS as f64 / (on_ns.max(1) as f64 / 1e9)) as u64;

    // Server-side p99 from the telemetry-on engine, read through the
    // same document the wire `{"op":"stats"}` request serves.
    let stats = engine.stats_json();
    let stats_p99 = stats
        .get("ops")
        .and_then(|o| o.get("synth"))
        .and_then(|o| o.get("total"))
        .and_then(|o| o.get("lifetime"))
        .and_then(|o| o.get("p99_ns"))
        .and_then(ccs_obs::json::Value::as_num)
        .ok_or("serve_engine: stats document has no synth total p99")? as u64;
    // Cross-check against the client-side order statistic of the SAME
    // rank the histogram estimates (ceil(q*n), not the floor-indexed
    // p99 reported above). All requests enqueue at ~t=0, so client
    // completion times and server total latencies measure the same
    // thing up to submission skew: the bound is the histogram's
    // relative bucket error plus a small absolute slack.
    let rank = ((0.99 * SERVE_REQUESTS as f64).ceil() as usize).clamp(1, SERVE_REQUESTS);
    let client_p99 = done[rank - 1];
    let tolerance = (2.0 * ccs::obs::hist::RELATIVE_ERROR * client_p99 as f64) as u64 + 2_000_000;
    if stats_p99.abs_diff(client_p99) > tolerance {
        return Err(format!(
            "serve_engine: server-side p99 {stats_p99}ns disagrees with the \
             client-side measurement {client_p99}ns beyond bucket resolution \
             (+-{tolerance}ns)"
        ));
    }

    let mut extras = BTreeMap::new();
    extras.insert("p99_ns".to_string(), p99);
    extras.insert("req_per_sec".to_string(), req_per_sec);
    extras.insert("stats_p99_ns".to_string(), stats_p99);
    extras.insert("telemetry_on_ns".to_string(), on_ns);
    Ok(CaseRun {
        counters: BTreeMap::new(),
        extras,
    })
}

/// The A/A pair behind the `compare` telemetry-overhead gate: returns
/// `[control, off]` nanoseconds for two telemetry-off arms, which must
/// agree within [`TELEMETRY_OFF_MAX_OVERHEAD`].
///
/// A shared machine's speed drifts by tens of percent between batches,
/// so the arms are not two back-to-back batches. They run the
/// [`serve_requests`] in interleaved pairs, one request at a time, each
/// on a fresh engine drained on this thread, so both arms share one
/// thread and one starting state. The order within a pair alternates
/// with the request and the pass. Each arm keeps its fastest latency
/// per request over [`SERVE_AA_PASSES`] passes and reports their sum.
fn serve_telemetry_aa() -> Result<[u64; 2], String> {
    use ccs::serve::{Engine, ResponseSink, ServeConfig};
    use std::sync::Arc;

    struct Discard;
    impl ResponseSink for Discard {
        fn send_line(&self, _line: &str) {}
    }
    let discard: Arc<dyn ResponseSink> = Arc::new(Discard);
    let mut best = [[u64::MAX; SERVE_REQUESTS]; 2];
    for pass in 0..SERVE_AA_PASSES {
        for (i, req) in serve_requests().into_iter().enumerate() {
            let first = (i + pass) % 2;
            for arm in [first, 1 - first] {
                let engine = Engine::new(&ServeConfig {
                    telemetry: false,
                    ..ServeConfig::default()
                });
                let t0 = Instant::now();
                engine.submit(req.clone(), &discard);
                engine.close();
                engine.worker_loop();
                let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                best[arm][i] = best[arm][i].min(ns);
                check_served(&engine, 1)?;
            }
        }
    }
    Ok(best.map(|arm| arm.iter().sum()))
}

fn median_u64(sorted: &[u64]) -> u64 {
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    }
}

/// Interquartile range of a sorted sample (dispersion robust to the
/// occasional scheduler hiccup).
fn iqr_u64(sorted: &[u64]) -> u64 {
    let n = sorted.len();
    if n < 4 {
        return sorted.last().copied().unwrap_or(0) - sorted.first().copied().unwrap_or(0);
    }
    sorted[(3 * (n - 1)) / 4] - sorted[(n - 1) / 4]
}

fn num(n: u64) -> Value {
    Value::Num(n as f64)
}

/// Runs every case of `preset` `reps` times per thread count and
/// renders the `ccs-bench-v1` document.
///
/// # Errors
///
/// Unknown preset, empty `threads`, or a failing workload.
pub fn run_preset(preset: &str, reps: usize, threads: &[usize]) -> Result<Value, String> {
    if threads.is_empty() {
        return Err("at least one thread count is required".to_string());
    }
    let reps = reps.max(1);
    let cases = cases_for(preset)?;

    let mut cases_obj = BTreeMap::new();
    for case in &cases {
        let mut threads_obj = BTreeMap::new();
        let mut untimed = case.work.untimed_extras()?;
        for &t in threads {
            // One untimed warmup settles caches and the allocator.
            run_case(case, t)?;
            let mut walls = Vec::with_capacity(reps);
            let mut allocs = Vec::with_capacity(reps);
            let mut bytes = Vec::with_capacity(reps);
            let mut extra_samples: BTreeMap<String, Vec<u64>> = BTreeMap::new();
            for (k, v) in std::mem::take(&mut untimed) {
                extra_samples.entry(k.to_string()).or_default().push(v);
            }
            for _ in 0..reps {
                let a0 = ccs_obs::alloc::stats();
                let t0 = Instant::now();
                let run = run_case(case, t)?;
                let wall = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                let delta = ccs_obs::alloc::stats().delta_since(&a0);
                walls.push(wall);
                allocs.push(delta.allocs);
                bytes.push(delta.alloc_bytes);
                for (k, v) in run.extras {
                    extra_samples.entry(k).or_default().push(v);
                }
            }
            walls.sort_unstable();
            allocs.sort_unstable();
            bytes.sort_unstable();

            let mut wall_obj = BTreeMap::new();
            wall_obj.insert("median".to_string(), num(median_u64(&walls)));
            wall_obj.insert("iqr".to_string(), num(iqr_u64(&walls)));
            wall_obj.insert("min".to_string(), num(walls[0]));
            wall_obj.insert("max".to_string(), num(walls[walls.len() - 1]));
            let mut alloc_obj = BTreeMap::new();
            alloc_obj.insert("allocs_median".to_string(), num(median_u64(&allocs)));
            alloc_obj.insert("alloc_bytes_median".to_string(), num(median_u64(&bytes)));
            let mut entry = BTreeMap::new();
            entry.insert("wall_ns".to_string(), Value::Obj(wall_obj));
            entry.insert("alloc".to_string(), Value::Obj(alloc_obj));
            if !extra_samples.is_empty() {
                let mut extras_obj = BTreeMap::new();
                for (k, mut samples) in extra_samples {
                    samples.sort_unstable();
                    extras_obj.insert(format!("{k}_median"), num(median_u64(&samples)));
                }
                entry.insert(
                    case.work.extras_section().to_string(),
                    Value::Obj(extras_obj),
                );
            }
            threads_obj.insert(format!("t{t}"), Value::Obj(entry));
        }

        // One profiled run (first thread count) embeds the call tree
        // and the run's deterministic pipeline counters — the perf gate
        // reads these to prove optimizations (e.g. the placement
        // lower-bound gate) are actually firing, not just not crashing.
        ccs_obs::profile::start();
        let counters = run_case(case, threads[0])?.counters;
        let tree = ccs_obs::profile::stop();

        let mut case_obj = BTreeMap::new();
        case_obj.insert("threads".to_string(), Value::Obj(threads_obj));
        case_obj.insert(
            "counters".to_string(),
            Value::Obj(counters.into_iter().map(|(k, v)| (k, num(v))).collect()),
        );
        let mut profile_obj = BTreeMap::new();
        profile_obj.insert(
            "schema".to_string(),
            Value::Str(ccs_obs::profile::PROFILE_SCHEMA.to_string()),
        );
        profile_obj.insert("tree".to_string(), tree.to_json());
        profile_obj.insert("counts".to_string(), tree.counts_json());
        case_obj.insert("profile".to_string(), Value::Obj(profile_obj));
        cases_obj.insert(case.name.to_string(), Value::Obj(case_obj));
    }

    let mut doc = BTreeMap::new();
    doc.insert("schema".to_string(), Value::Str(BENCH_SCHEMA.to_string()));
    doc.insert("preset".to_string(), Value::Str(preset.to_string()));
    doc.insert("reps".to_string(), num(reps as u64));
    doc.insert(
        "thread_counts".to_string(),
        Value::Arr(threads.iter().map(|&t| num(t as u64)).collect()),
    );
    doc.insert("cases".to_string(), Value::Obj(cases_obj));
    // Process-lifetime allocator totals (zeros without the counting
    // allocator installed; `tracking` says which).
    doc.insert("alloc".to_string(), ccs_obs::alloc::stats().to_json());
    Ok(Value::Obj(doc))
}

/// One metric that regressed beyond tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Case name (e.g. `synth_wan_seeded`).
    pub case: String,
    /// Thread-sweep key (e.g. `t4`).
    pub threads: String,
    /// Metric name (`wall_ns.median`, `alloc.allocs_median`, ...).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Relative change in percent (positive = slower/bigger).
    pub change_pct: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} {}: {} -> {} (+{:.1}%)",
            self.case, self.threads, self.metric, self.baseline, self.current, self.change_pct
        )
    }
}

fn lookup<'v>(doc: &'v Value, path: &[&str]) -> Option<&'v Value> {
    let mut v = doc;
    for key in path {
        v = v.get(key)?;
    }
    Some(v)
}

/// Warm re-synthesis must finish inside this fraction of the cold run
/// for the incremental engine to count as incremental at all. Enforced
/// on the *current* document by [`compare`], independent of any
/// baseline drift.
pub const RESYNTH_WARM_MAX_FRACTION: f64 = 0.10;

/// Budget for the serve engine's telemetry-disabled path, as a
/// fraction of the telemetry-off control batch: the A/A pair the serve
/// case reports (`telemetry_ctl_ns` / `telemetry_off_ns`) must agree
/// within 1%, the same budget the ledger experiment holds its disabled
/// path to. Enforced together with an absolute floor
/// ([`TELEMETRY_OFF_MIN_DELTA_NS`]) so scheduler noise on a fast batch
/// cannot trip the gate.
pub const TELEMETRY_OFF_MAX_OVERHEAD: f64 = 0.01;

/// Absolute slack under which a telemetry A/A delta is never a
/// regression (see [`TELEMETRY_OFF_MAX_OVERHEAD`]).
pub const TELEMETRY_OFF_MIN_DELTA_NS: f64 = 10_000_000.0;

/// Compares `current` against `baseline` (both `ccs-bench-v1`).
/// Returns every metric of the baseline whose current value exceeds it
/// by more than the applicable tolerance (`wall_tol_pct` for wall
/// times, `alloc_tol_pct` for allocation metrics). Only slowdowns
/// count; getting faster is never a regression. Extra cases in
/// `current` are ignored; a baseline case or thread count missing from
/// `current` is an error (the gate must not silently shrink).
///
/// Additionally gates the current document's own `resynth` sections:
/// wherever a thread entry reports `cold_ns_median`/`warm_ns_median`,
/// the warm time must stay under [`RESYNTH_WARM_MAX_FRACTION`] of the
/// cold time — a warm-started re-synthesis that costs as much as a
/// cold run is a regression even if the baseline had the same defect.
/// Likewise for the serve engine's telemetry A/A pair: a reported
/// `telemetry_off_ns_median` exceeding `telemetry_ctl_ns_median` by
/// more than [`TELEMETRY_OFF_MAX_OVERHEAD`] (and the absolute floor)
/// fails on the current run alone.
///
/// # Errors
///
/// Schema mismatch or a baseline case/thread/metric absent from
/// `current`.
pub fn compare(
    baseline: &Value,
    current: &Value,
    wall_tol_pct: f64,
    alloc_tol_pct: f64,
) -> Result<Vec<Regression>, String> {
    for (label, doc) in [("baseline", baseline), ("current", current)] {
        match doc.get("schema").and_then(Value::as_str) {
            Some(BENCH_SCHEMA) => {}
            other => {
                return Err(format!(
                    "{label}: expected schema {BENCH_SCHEMA:?}, got {other:?}"
                ))
            }
        }
    }
    let base_cases = baseline
        .get("cases")
        .and_then(Value::as_obj)
        .ok_or("baseline: missing cases object")?;

    // (subpath within a thread entry, tolerance selector)
    let metrics: [(&[&str], bool); 3] = [
        (&["wall_ns", "median"], false),
        (&["alloc", "allocs_median"], true),
        (&["alloc", "alloc_bytes_median"], true),
    ];
    // Optional metrics: compared only when the baseline has them, so
    // older baselines predating a metric still gate; a baseline metric
    // missing from `current` is an error like any other.
    // `higher_is_better` flips the regression direction (throughput
    // figures regress by shrinking); `is_alloc` selects the allocation
    // tolerance instead of the wall-time one.
    let optional: [(&[&str], bool, bool); 7] = [
        (&["serve", "p99_ns_median"], false, false),
        (&["serve", "req_per_sec_median"], true, false),
        (&["serve", "stats_p99_ns_median"], false, false),
        (&["resynth", "cold_ns_median"], false, false),
        (&["resynth", "warm_ns_median"], false, false),
        // Covering-phase allocation delta of the synthesis cases: the
        // solver's scratch reuse must not silently regress into
        // per-node allocation churn.
        (&["extras", "alloc_covering_allocs_median"], false, true),
        (&["extras", "alloc_covering_bytes_median"], false, true),
    ];

    let mut regressions = Vec::new();
    for (case, base_case) in base_cases {
        let base_threads = base_case
            .get("threads")
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("baseline case {case}: missing threads object"))?;
        for (tkey, base_entry) in base_threads {
            let cur_entry = lookup(current, &["cases", case, "threads", tkey])
                .ok_or_else(|| format!("current is missing case {case} threads {tkey}"))?;
            for (path, is_alloc) in &metrics {
                let metric = path.join(".");
                let base_v = lookup(base_entry, path)
                    .and_then(Value::as_num)
                    .ok_or_else(|| format!("baseline {case}/{tkey}: missing {metric}"))?;
                let cur_v = lookup(cur_entry, path)
                    .and_then(Value::as_num)
                    .ok_or_else(|| format!("current {case}/{tkey}: missing {metric}"))?;
                if base_v <= 0.0 {
                    // Untracked allocator (or an instant phase) in the
                    // baseline: no meaningful ratio, skip.
                    continue;
                }
                let tol = if *is_alloc {
                    alloc_tol_pct
                } else {
                    wall_tol_pct
                };
                if cur_v > base_v * (1.0 + tol / 100.0) {
                    regressions.push(Regression {
                        case: case.clone(),
                        threads: tkey.clone(),
                        metric,
                        baseline: base_v,
                        current: cur_v,
                        change_pct: (cur_v / base_v - 1.0) * 100.0,
                    });
                }
            }
            for (path, higher_is_better, is_alloc) in &optional {
                let metric = path.join(".");
                let Some(base_v) = lookup(base_entry, path).and_then(Value::as_num) else {
                    continue; // baseline predates this metric
                };
                let cur_v = lookup(cur_entry, path)
                    .and_then(Value::as_num)
                    .ok_or_else(|| format!("current {case}/{tkey}: missing {metric}"))?;
                if base_v <= 0.0 {
                    // No meaningful baseline ratio; nothing to gate.
                    continue;
                }
                let tol_pct = if *is_alloc {
                    alloc_tol_pct
                } else {
                    wall_tol_pct
                };
                if cur_v <= 0.0 {
                    if *is_alloc {
                        // A zeroed allocation figure is a run without
                        // the counting allocator, not a lost metric.
                        continue;
                    }
                    // A metric the baseline tracked has zeroed out —
                    // the workload silently stopped measuring it, which
                    // must fail loudly rather than slip past the gate.
                    return Err(format!(
                        "current {case}/{tkey}: {metric} is {cur_v} but baseline recorded {base_v}"
                    ));
                }
                let worse = if *higher_is_better {
                    cur_v < base_v / (1.0 + tol_pct / 100.0)
                } else {
                    cur_v > base_v * (1.0 + tol_pct / 100.0)
                };
                if worse {
                    let ratio = if *higher_is_better {
                        base_v / cur_v
                    } else {
                        cur_v / base_v
                    };
                    regressions.push(Regression {
                        case: case.clone(),
                        threads: tkey.clone(),
                        metric,
                        baseline: base_v,
                        current: cur_v,
                        change_pct: (ratio - 1.0) * 100.0,
                    });
                }
            }
        }
    }

    // Property gate on the current run: warm re-synthesis must stay
    // under RESYNTH_WARM_MAX_FRACTION of the cold fill. Checked on
    // `current` (not against the baseline) so a slow warm path fails
    // even on the run that first introduces it.
    if let Some(cur_cases) = current.get("cases").and_then(Value::as_obj) {
        for (case, cur_case) in cur_cases {
            let Some(cur_threads) = cur_case.get("threads").and_then(Value::as_obj) else {
                continue;
            };
            for (tkey, entry) in cur_threads {
                let cold = lookup(entry, &["resynth", "cold_ns_median"]).and_then(Value::as_num);
                let warm = lookup(entry, &["resynth", "warm_ns_median"]).and_then(Value::as_num);
                let (Some(cold), Some(warm)) = (cold, warm) else {
                    continue;
                };
                if cold <= 0.0 {
                    return Err(format!(
                        "current {case}/{tkey}: resynth.cold_ns_median is {cold}; \
                         cannot gate the warm/cold ratio"
                    ));
                }
                let cap_pct = RESYNTH_WARM_MAX_FRACTION * 100.0;
                let pct = warm / cold * 100.0;
                if pct >= cap_pct {
                    regressions.push(Regression {
                        case: case.clone(),
                        threads: tkey.clone(),
                        metric: "resynth.warm_pct_of_cold".to_string(),
                        baseline: cap_pct,
                        current: pct,
                        change_pct: (pct / cap_pct - 1.0) * 100.0,
                    });
                }
            }
        }
    }

    // Property gate on the current run: the serve engine's disabled
    // telemetry path must cost nothing. Wherever a thread entry reports
    // the A/A pair (`telemetry_ctl_ns_median` / `telemetry_off_ns_median`,
    // both with telemetry off), their delta must stay within
    // TELEMETRY_OFF_MAX_OVERHEAD — like the resynth gate, checked on
    // `current` alone so a costly disabled path fails on the run that
    // introduces it.
    if let Some(cur_cases) = current.get("cases").and_then(Value::as_obj) {
        for (case, cur_case) in cur_cases {
            let Some(cur_threads) = cur_case.get("threads").and_then(Value::as_obj) else {
                continue;
            };
            for (tkey, entry) in cur_threads {
                let ctl =
                    lookup(entry, &["serve", "telemetry_ctl_ns_median"]).and_then(Value::as_num);
                let off =
                    lookup(entry, &["serve", "telemetry_off_ns_median"]).and_then(Value::as_num);
                let (Some(ctl), Some(off)) = (ctl, off) else {
                    continue;
                };
                if ctl <= 0.0 {
                    return Err(format!(
                        "current {case}/{tkey}: serve.telemetry_ctl_ns_median is {ctl}; \
                         cannot gate the telemetry-off overhead"
                    ));
                }
                let overhead = (off - ctl) / ctl;
                let delta = off - ctl;
                if overhead > TELEMETRY_OFF_MAX_OVERHEAD && delta > TELEMETRY_OFF_MIN_DELTA_NS {
                    let cap_pct = TELEMETRY_OFF_MAX_OVERHEAD * 100.0;
                    regressions.push(Regression {
                        case: case.clone(),
                        threads: tkey.clone(),
                        metric: "serve.telemetry_off_overhead_pct".to_string(),
                        baseline: cap_pct,
                        current: overhead * 100.0,
                        change_pct: (overhead * 100.0 / cap_pct - 1.0) * 100.0,
                    });
                }
            }
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_doc(wall: u64, allocs: u64) -> Value {
        let text = format!(
            r#"{{"schema":"ccs-bench-v1","preset":"quick","reps":3,
                "cases":{{"c":{{"threads":{{"t1":{{
                    "wall_ns":{{"median":{wall},"iqr":0,"min":{wall},"max":{wall}}},
                    "alloc":{{"allocs_median":{allocs},"alloc_bytes_median":{}}}
                }}}}}}}}}}"#,
            allocs * 64
        );
        ccs_obs::json::parse(&text).expect("valid test doc")
    }

    #[test]
    fn identical_documents_pass() {
        let doc = tiny_doc(1_000_000, 5_000);
        assert_eq!(compare(&doc, &doc, 10.0, 5.0).unwrap(), Vec::new());
    }

    #[test]
    fn slowdown_beyond_tolerance_is_reported() {
        let base = tiny_doc(1_000_000, 5_000);
        let slow = tiny_doc(10_000_000, 5_000);
        let regs = compare(&base, &slow, 100.0, 5.0).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "wall_ns.median");
        assert!(regs[0].change_pct > 800.0);
        // Within tolerance: the same 10x is fine at 1000%.
        assert!(compare(&base, &slow, 1000.0, 5.0).unwrap().is_empty());
    }

    #[test]
    fn allocation_growth_uses_its_own_tolerance() {
        let base = tiny_doc(1_000_000, 5_000);
        let fat = tiny_doc(1_000_000, 6_000);
        let regs = compare(&base, &fat, 400.0, 5.0).unwrap();
        assert_eq!(regs.len(), 2, "{regs:?}"); // allocs + bytes
        assert!(regs.iter().all(|r| r.metric.starts_with("alloc.")));
        assert!(compare(&base, &fat, 400.0, 25.0).unwrap().is_empty());
    }

    #[test]
    fn speedups_are_never_regressions() {
        let base = tiny_doc(1_000_000, 5_000);
        let fast = tiny_doc(100, 50);
        assert!(compare(&base, &fast, 1.0, 1.0).unwrap().is_empty());
    }

    fn serve_doc(wall: u64, p99: u64, req_s: u64) -> Value {
        let text = format!(
            r#"{{"schema":"ccs-bench-v1","preset":"quick","reps":3,
                "cases":{{"serve_engine":{{"threads":{{"t1":{{
                    "wall_ns":{{"median":{wall},"iqr":0,"min":{wall},"max":{wall}}},
                    "alloc":{{"allocs_median":10,"alloc_bytes_median":640}},
                    "serve":{{"p99_ns_median":{p99},"req_per_sec_median":{req_s}}}
                }}}}}}}}}}"#
        );
        ccs_obs::json::parse(&text).expect("valid test doc")
    }

    #[test]
    fn serve_metrics_gate_in_both_directions() {
        let base = serve_doc(1_000_000, 500_000, 100);
        // Identity is clean.
        assert!(compare(&base, &base, 10.0, 10.0).unwrap().is_empty());
        // Latency regression: p99 doubles.
        let slow = serve_doc(1_000_000, 1_000_000, 100);
        let regs = compare(&base, &slow, 10.0, 10.0).unwrap();
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].metric, "serve.p99_ns_median");
        assert!(regs[0].change_pct > 90.0);
        // Throughput regression: req/s halves (p99 unchanged).
        let starved = serve_doc(1_000_000, 500_000, 50);
        let regs = compare(&base, &starved, 10.0, 10.0).unwrap();
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].metric, "serve.req_per_sec_median");
        assert!(regs[0].change_pct > 90.0);
        // Both within tolerance pass.
        let wiggle = serve_doc(1_000_000, 520_000, 96);
        assert!(compare(&base, &wiggle, 10.0, 10.0).unwrap().is_empty());
    }

    #[test]
    fn optional_serve_metrics_are_skipped_when_baseline_predates_them() {
        // A baseline without the serve section still gates the rest...
        let old = tiny_doc(1_000_000, 5_000);
        let mut new_text = String::new();
        old.write_compact(&mut new_text);
        assert!(compare(&old, &old, 10.0, 10.0).unwrap().is_empty());
        // ...but a baseline WITH serve metrics that the current run
        // dropped is an error, not a silent pass.
        let with = serve_doc(1_000_000, 500_000, 100);
        let without = ccs_obs::json::parse(
            r#"{"schema":"ccs-bench-v1","cases":{"serve_engine":{"threads":{"t1":{
                "wall_ns":{"median":1000000,"iqr":0,"min":1000000,"max":1000000},
                "alloc":{"allocs_median":10,"alloc_bytes_median":640}
            }}}}}"#,
        )
        .unwrap();
        assert!(compare(&with, &without, 10.0, 10.0).is_err());
        // The reverse (new metric, old baseline) is fine.
        assert!(compare(&without, &with, 10.0, 10.0).unwrap().is_empty());
    }

    #[test]
    fn optional_metric_zeroing_out_is_an_error() {
        // Baseline tracked a positive p99; the current run reports 0 —
        // the workload silently stopped measuring. Must error, not skip.
        let base = serve_doc(1_000_000, 500_000, 100);
        let zeroed = serve_doc(1_000_000, 0, 100);
        let err = compare(&base, &zeroed, 10.0, 10.0).unwrap_err();
        assert!(err.contains("p99_ns_median"), "{err}");
        // The other direction stays a skip: a zero *baseline* has no
        // meaningful ratio, and the current positive value is progress.
        assert!(compare(&zeroed, &base, 10.0, 10.0).unwrap().is_empty());
    }

    fn telemetry_doc(ctl: u64, off: u64) -> Value {
        let text = format!(
            r#"{{"schema":"ccs-bench-v1","preset":"quick","reps":3,
                "cases":{{"serve_engine":{{"threads":{{"t1":{{
                    "wall_ns":{{"median":1000000,"iqr":0,"min":1000000,"max":1000000}},
                    "alloc":{{"allocs_median":10,"alloc_bytes_median":640}},
                    "serve":{{"telemetry_ctl_ns_median":{ctl},"telemetry_off_ns_median":{off}}}
                }}}}}}}}}}"#
        );
        ccs_obs::json::parse(&text).expect("valid test doc")
    }

    #[test]
    fn telemetry_off_overhead_gates_the_current_document() {
        // A/A pair agreeing within the budget passes.
        let good = telemetry_doc(2_000_000_000, 2_010_000_000);
        assert!(compare(&good, &good, 10.0, 10.0).unwrap().is_empty());
        // 5% overhead (100ms on a 2s batch) fails, baseline or not.
        let bad = telemetry_doc(2_000_000_000, 2_100_000_000);
        let regs = compare(&bad, &bad, 1000.0, 1000.0).unwrap();
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].metric, "serve.telemetry_off_overhead_pct");
        assert_eq!(regs[0].case, "serve_engine");
        assert!((regs[0].current - 5.0).abs() < 1e-9);
        // Over 1% relative but under the absolute floor: scheduler
        // noise on a fast batch, never a regression.
        let fast = telemetry_doc(100_000_000, 105_000_000);
        assert!(compare(&fast, &fast, 1000.0, 1000.0).unwrap().is_empty());
        // The disabled path getting FASTER than control is obviously
        // fine (A/A noise can land either way).
        let inverted = telemetry_doc(2_000_000_000, 1_900_000_000);
        assert!(compare(&inverted, &inverted, 1000.0, 1000.0)
            .unwrap()
            .is_empty());
        // A zero control median cannot be gated: error.
        let degenerate = telemetry_doc(0, 0);
        assert!(compare(&good, &degenerate, 10.0, 10.0).is_err());
    }

    fn resynth_doc(cold: u64, warm: u64) -> Value {
        let text = format!(
            r#"{{"schema":"ccs-bench-v1","preset":"quick","reps":3,
                "cases":{{"resynth_warm":{{"threads":{{"t1":{{
                    "wall_ns":{{"median":{},"iqr":0,"min":{},"max":{}}},
                    "alloc":{{"allocs_median":10,"alloc_bytes_median":640}},
                    "resynth":{{"cold_ns_median":{cold},"warm_ns_median":{warm}}}
                }}}}}}}}}}"#,
            cold + warm,
            cold + warm,
            cold + warm
        );
        ccs_obs::json::parse(&text).expect("valid test doc")
    }

    #[test]
    fn resynth_warm_ratio_gates_the_current_document() {
        // Comfortably incremental: 1% of cold passes.
        let good = resynth_doc(1_000_000, 10_000);
        assert!(compare(&good, &good, 10.0, 10.0).unwrap().is_empty());
        // Warm at 50% of cold fails the property gate even when the
        // baseline carries the identical defect.
        let bad = resynth_doc(1_000_000, 500_000);
        let regs = compare(&bad, &bad, 1000.0, 1000.0).unwrap();
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].metric, "resynth.warm_pct_of_cold");
        assert_eq!(regs[0].case, "resynth_warm");
        assert!((regs[0].current - 50.0).abs() < 1e-9);
        // Exactly at the cap is still a failure (strictly under).
        let at_cap = resynth_doc(1_000_000, 100_000);
        assert_eq!(compare(&good, &at_cap, 1000.0, 1000.0).unwrap().len(), 1);
        // A zero cold median cannot be gated: error.
        let degenerate = resynth_doc(0, 0);
        assert!(compare(&good, &degenerate, 10.0, 10.0).is_err());
        // Warm-time regression against the baseline is also gated (the
        // optional-metric path): warm doubling beyond tolerance reports.
        let slower_warm = resynth_doc(1_000_000, 20_000);
        let regs = compare(&good, &slower_warm, 10.0, 10.0).unwrap();
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].metric, "resynth.warm_ns_median");
    }

    fn covering_alloc_doc(allocs: u64, bytes: u64) -> Value {
        let text = format!(
            r#"{{"schema":"ccs-bench-v1","preset":"quick","reps":3,
                "cases":{{"synth_wan_seeded":{{"threads":{{"t1":{{
                    "wall_ns":{{"median":1000000,"iqr":0,"min":1000000,"max":1000000}},
                    "alloc":{{"allocs_median":10,"alloc_bytes_median":640}},
                    "extras":{{"alloc_covering_allocs_median":{allocs},
                               "alloc_covering_bytes_median":{bytes}}}
                }}}}}}}}}}"#
        );
        ccs_obs::json::parse(&text).expect("valid test doc")
    }

    #[test]
    fn covering_alloc_extras_gate_with_alloc_tolerance() {
        let base = covering_alloc_doc(1_000, 64_000);
        // Identity is clean.
        assert!(compare(&base, &base, 10.0, 10.0).unwrap().is_empty());
        // Covering-phase allocation churn doubling fails at the alloc
        // tolerance even when the wall tolerance would forgive it.
        let churny = covering_alloc_doc(2_000, 128_000);
        let regs = compare(&base, &churny, 1000.0, 10.0).unwrap();
        assert_eq!(regs.len(), 2, "{regs:?}");
        assert!(regs
            .iter()
            .all(|r| r.metric.starts_with("extras.alloc_covering_")));
        // ...and passes once the alloc tolerance covers it.
        assert!(compare(&base, &churny, 1000.0, 120.0).unwrap().is_empty());
        // A zeroed current value is a run without the counting
        // allocator, not a dropped metric: skipped, not an error.
        let untracked = covering_alloc_doc(0, 0);
        assert!(compare(&base, &untracked, 10.0, 10.0).unwrap().is_empty());
    }

    #[test]
    fn zero_baseline_metrics_are_skipped() {
        let base = tiny_doc(1_000_000, 0); // untracked allocator
        let cur = tiny_doc(1_000_000, 9_999_999);
        assert!(compare(&base, &cur, 10.0, 1.0).unwrap().is_empty());
    }

    #[test]
    fn missing_case_in_current_errors() {
        let base = tiny_doc(1_000, 10);
        let empty = ccs_obs::json::parse(r#"{"schema":"ccs-bench-v1","cases":{}}"#).unwrap();
        assert!(compare(&base, &empty, 10.0, 10.0).is_err());
        assert!(compare(&empty, &base, 10.0, 10.0).unwrap().is_empty());
    }

    #[test]
    fn schema_mismatch_errors() {
        let base = tiny_doc(1_000, 10);
        let bad = ccs_obs::json::parse(r#"{"schema":"nope","cases":{}}"#).unwrap();
        assert!(compare(&bad, &base, 10.0, 10.0).is_err());
        assert!(compare(&base, &bad, 10.0, 10.0).is_err());
    }

    #[test]
    fn quick_preset_produces_schema_document() {
        let doc = run_preset("quick", 1, &[1]).expect("preset runs");
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some(BENCH_SCHEMA)
        );
        let cases = doc.get("cases").and_then(Value::as_obj).expect("cases");
        for name in [
            "synth_wan_paper",
            "synth_wan_seeded",
            "matrices_seeded",
            "resilience_n1",
            "serve_engine",
            "resynth_warm",
            "covering_par",
        ] {
            let case = cases.get(name).unwrap_or_else(|| panic!("case {name}"));
            let t1 = case.get("threads").and_then(|t| t.get("t1")).expect("t1");
            assert!(
                t1.get("wall_ns")
                    .and_then(|w| w.get("median"))
                    .and_then(Value::as_num)
                    .unwrap()
                    > 0.0,
                "{name} must take measurable time"
            );
            assert!(case.get("profile").and_then(|p| p.get("counts")).is_some());
            let counters = case
                .get("counters")
                .and_then(Value::as_obj)
                .expect("counters");
            if name.starts_with("synth") {
                assert!(
                    counters
                        .get("placement.lb_gated")
                        .and_then(Value::as_num)
                        .is_some(),
                    "{name} must report the LB-gate counter"
                );
            } else if name.starts_with("matrices") {
                assert!(counters.is_empty());
            } else if name == "covering_par" {
                // The parallel branch-and-bound must actually fan out;
                // a zero here means the subtree sweep stopped firing
                // and the thread sweep is benchmarking serial code.
                for counter in ["covering.subtrees", "covering.proven_optimal"] {
                    assert!(
                        counters
                            .get(counter)
                            .and_then(Value::as_num)
                            .map(|n| n > 0.0)
                            .unwrap_or(false),
                        "{name} must report a positive {counter}"
                    );
                }
            }
            if name == "serve_engine" {
                let serve = t1.get("serve").expect("serve metrics");
                for metric in ["p99_ns_median", "req_per_sec_median"] {
                    assert!(
                        serve.get(metric).and_then(Value::as_num).unwrap() > 0.0,
                        "{metric} must be positive"
                    );
                }
            }
            if name == "resynth_warm" {
                let resynth = t1.get("resynth").expect("resynth metrics");
                let cold = resynth
                    .get("cold_ns_median")
                    .and_then(Value::as_num)
                    .expect("cold_ns_median");
                let warm = resynth
                    .get("warm_ns_median")
                    .and_then(Value::as_num)
                    .expect("warm_ns_median");
                assert!(cold > 0.0 && warm > 0.0);
                assert!(
                    warm < cold * RESYNTH_WARM_MAX_FRACTION,
                    "warm re-synthesis must beat {}% of cold (warm {warm}ns, cold {cold}ns)",
                    RESYNTH_WARM_MAX_FRACTION * 100.0
                );
                let counters = case
                    .get("counters")
                    .and_then(Value::as_obj)
                    .expect("counters");
                assert!(
                    counters
                        .get("resynth.p2p_reused")
                        .and_then(Value::as_num)
                        .map(|n| n > 0.0)
                        .unwrap_or(false),
                    "the warm run must actually reuse p2p candidates"
                );
            }
        }
        // Identity comparison of a real document is clean.
        assert_eq!(compare(&doc, &doc, 0.0, 0.0).unwrap(), Vec::new());

        assert!(run_preset("bogus", 1, &[1]).is_err());
        assert!(run_preset("quick", 1, &[]).is_err());
    }

    #[test]
    fn median_and_iqr_helpers() {
        assert_eq!(median_u64(&[]), 0);
        assert_eq!(median_u64(&[5]), 5);
        assert_eq!(median_u64(&[1, 3]), 2);
        assert_eq!(median_u64(&[1, 2, 9]), 2);
        // n < 4 falls back to the full range.
        assert_eq!(iqr_u64(&[10, 50]), 40);
        // n = 4: q1 at index 0, q3 at index 2 — the outlier at the top
        // quartile is excluded.
        assert_eq!(iqr_u64(&[1, 2, 3, 100]), 2);
        // n = 5: q1 at index 1, q3 at index 3.
        assert_eq!(iqr_u64(&[1, 10, 20, 30, 1000]), 20);
    }
}
