//! The `ccs` command-line interface (logic; the binary in `src/bin/ccs.rs`
//! is a thin wrapper so everything here is testable in-process).
//!
//! ```text
//! ccs synth    --instance net.ccs --library lib.ccs [--greedy] [--max-k N] [--dot]
//!              [--threads N] [--trace] [--metrics-json FILE] [--profile-folded FILE]
//! ccs resynth  --instance net.ccs --library lib.ccs [--edit SPEC ...] [--cold-check]
//!              [--greedy] [--max-k N] [--threads N] [--metrics-json FILE]
//! ccs verify   --instance net.ccs --library lib.ccs
//! ccs simulate --instance net.ccs --library lib.ccs [--fail-group N] [--packets]
//!              [--threads N] [--trace] [--metrics-json FILE]
//! ccs analyze  --instance net.ccs --library lib.ccs [--fail-k K] [--scenario-budget N]
//!              [--max-cost-overhead PCT] [--threads N] [--trace] [--metrics-json FILE]
//! ccs tables   --instance net.ccs
//! ccs explain  --ledger run.ledger.json --hub N | --candidate a,b,... | --arc N
//! ccs diff     first.json second.json
//! ccs example  instance wan|mpeg4   # print a built-in instance file
//! ccs example  library  wan|soc     # print a built-in library file
//! ccs gen      wan|soc [--seed N] [--channels N] ...   # seeded random instance
//! ccs serve    [--listen ADDR] [--workers N] [--request-threads N]
//!              [--cache-capacity N] [--ledger-cap N] [--no-telemetry]
//!              [--stats-interval SECS] [--stats-log FILE] [--slow-ms N] [--slow-log FILE]
//! ccs top      ADDR [--interval SECS] [--once] [--json]
//! ```
//!
//! Instance and library files use the plain-text format of
//! [`ccs_gen::io`]. `--trace` streams every observability event as one
//! JSON line on standard error; `--metrics-json FILE` writes the
//! aggregated `ccs-metrics-v1` document (per-phase wall-clock timings,
//! pruning counters, convergence gauges, the `ccs-profile-v1` call
//! tree under `"profile"`, and allocator counters under `"alloc"`) to
//! `FILE` after the run — for `synth` it additionally embeds the
//! deterministic `ccs-topology-v1` section under the `"topology"` key,
//! and for `analyze` both that and the `ccs-resilience-v1` section
//! under the `"resilience"` key. `--profile-folded FILE` writes the
//! same call tree in folded-stack format for flamegraph rendering;
//! these flags accept `-` to mean standard output.
//!
//! `--ledger FILE` records the decision-provenance ledger during the
//! run and writes it as a `ccs-ledger-v1` document: exact per-cause
//! decision counts plus a bounded, thread-count-invariant sample of
//! the decisions themselves. `ccs explain` answers provenance queries
//! against such a document ([`crate::explain`]), and `ccs diff`
//! compares two recorded runs and attributes the first divergence to
//! the earliest differing decision ([`crate::diff`]).
//!
//! `analyze` synthesizes the instance, then sweeps lane-group failure
//! scenarios through the network simulator: exhaustive N-1, plus
//! N-k combinations up to `--fail-k` capped by `--scenario-budget`.
//! `--max-cost-overhead PCT` additionally sweeps the cost-vs-resilience
//! frontier (re-covering with high-order merge candidates excluded) and
//! recommends the most resilient architecture within the cost budget.
//!
//! `--threads N` sets the worker count of the parallel synthesis phases
//! (default: available parallelism, or the `CCS_THREADS` environment
//! variable). Synthesis output is bit-identical for every `N`.
//!
//! `ccs resynth` exercises the incremental re-synthesis engine
//! ([`ccs_core::synthesis::SynthesisSession`]): it synthesizes the
//! instance cold, applies each `--edit SPEC` (in order:
//! `arc_rate:IDX:MBPS`, `arc_bound:IDX:HOPS|none`, `move:PORT:X,Y`,
//! `library:FILE`), and re-synthesizes warm — reusing every cached
//! point-to-point candidate and placement verdict whose inputs the
//! edits did not touch. `--cold-check` additionally runs a cold
//! synthesis of the edited instance in-process and fails unless the
//! warm `ccs-topology-v1` document is byte-identical to it.
//!
//! `ccs serve` runs the long-lived synthesis daemon ([`crate::serve`]):
//! JSON-lines requests over stdin or TCP, answered with responses that
//! embed the same `ccs-topology-v1` / `ccs-resilience-v1` /
//! `ccs-ledger-v1` documents the one-shot commands produce,
//! byte-identical in canonical form. A running server also answers
//! `{"op":"stats"}` with its `ccs-serve-stats-v1` fleet-telemetry
//! document, and `ccs top ADDR` renders that as a live terminal table
//! ([`crate::top`]).

use ccs_core::constraint::ConstraintGraph;
use ccs_core::cover::CoverStrategy;
use ccs_core::library::Library;
use ccs_core::matrices::DistanceMatrices;
use ccs_core::report;
use ccs_core::synthesis::{Edit, SynthesisConfig, SynthesisSession, Synthesizer};
use ccs_core::units::Bandwidth;
use ccs_gen::io;
use ccs_geom::Point2;
use std::fmt::Write as _;

/// Usage text printed on `help` or argument errors.
pub const USAGE: &str = "\
usage:
  ccs synth    --instance FILE --library FILE [--greedy] [--max-k N] [--dot]
               [--no-lb-gate] [--threads N] [--trace] [--metrics-json FILE]
  ccs resynth  --instance FILE --library FILE [--edit SPEC ...] [--cold-check]
               [--greedy] [--max-k N] [--no-lb-gate] [--threads N] [--trace]
               [--metrics-json FILE] [--ledger FILE]
  ccs verify   --instance FILE --library FILE
  ccs simulate --instance FILE --library FILE [--fail-group N] [--packets]
               [--threads N] [--trace] [--metrics-json FILE]
  ccs analyze  --instance FILE --library FILE [--fail-k K] [--scenario-budget N]
               [--max-cost-overhead PCT] [--greedy] [--max-k N]
               [--no-lb-gate] [--threads N] [--trace] [--metrics-json FILE]
  ccs tables   --instance FILE
  ccs explain  --ledger FILE (--hub N | --candidate a,b,... | --arc N)
  ccs diff     FIRST.json SECOND.json
  ccs example  instance wan|mpeg4
  ccs example  library  wan|soc
  ccs gen      wan [--seed N] [--channels N] [--clusters N] [--nodes-per-cluster N]
  ccs gen      soc [--seed N] [--channels N] [--modules N]
  ccs serve    [--listen ADDR] [--workers N] [--request-threads N]
               [--cache-capacity N] [--ledger-cap N] [--no-telemetry]
               [--stats-interval SECS] [--stats-log FILE]
               [--slow-ms N] [--slow-log FILE]
  ccs top      ADDR [--interval SECS] [--once] [--json]
  ccs help

parallelism:
  --threads N          worker threads for the parallel synthesis phases
                       (default: available parallelism or $CCS_THREADS);
                       results are bit-identical for every N

performance:
  --no-lb-gate         disable the lower-bound gate that skips hub-placement
                       solves for provably dominated merge subsets (results
                       are identical either way; the flag exists to measure
                       the gate and to debug it)

incremental re-synthesis (ccs resynth):
  --edit SPEC          an edit to apply before the warm re-synthesis
                       (repeatable, applied in order):
                         arc_rate:IDX:MBPS      change arc IDX's bandwidth
                         arc_bound:IDX:HOPS     change arc IDX's hop bound
                         arc_bound:IDX:none     drop arc IDX's hop bound
                         move:PORT:X,Y          move the named port
                         library:FILE           swap in a new library file
  --cold-check         also synthesize the edited instance cold and fail
                       unless the warm topology is byte-identical to it

resilience (ccs analyze):
  --fail-k K           largest simultaneous lane-group failure order swept
                       (default 1 = exhaustive N-1 only)
  --scenario-budget N  cap on N-k scenarios for k >= 2 (default 4096;
                       hitting it is reported, never silent)
  --max-cost-overhead PCT
                       also sweep the cost-vs-resilience frontier and pick
                       the most resilient architecture within PCT percent
                       cost overhead over the unrestricted optimum

observability:
  --trace              stream each pipeline event as one JSON line on stderr
  --metrics-json FILE  write the aggregated ccs-metrics-v1 document to FILE
                       (synth embeds the ccs-topology-v1 selection under
                       the \"topology\" key; analyze adds ccs-resilience-v1
                       under \"resilience\"; always includes the
                       ccs-profile-v1 call tree under \"profile\" and the
                       allocator counters under \"alloc\")
  --profile-folded FILE
                       write the hierarchical profile in folded-stack
                       format (one \"path;to;scope <self_ns>\" line per
                       tree node) for flamegraph rendering
                       FILE may be \"-\" for stdout (both flags)
  --ledger FILE        record the decision-provenance ledger and write it
                       as a ccs-ledger-v1 document: exact per-cause counts
                       plus a bounded, thread-count-invariant sample of the
                       pruning/placement/covering decisions themselves
                       (synth, simulate and analyze; off by default)

service (ccs serve):
  reads ccs-request-v1 JSON lines (kind: synth, analyze, ping, cancel,
  shutdown) and answers each with one ccs-response-v1 line embedding the
  request's own ccs-metrics-v1 document (plus ccs-ledger-v1 on request);
  topology and ledger output is byte-identical to a one-shot run
  --listen ADDR        accept requests over TCP on ADDR (e.g.
                       127.0.0.1:7477; port 0 picks a free port, printed
                       on stdout); default is stdin/stdout JSON lines
  --workers N          concurrent request slots (default: min(4, cores))
  --request-threads N  default per-request synthesis threads (default 1;
                       a request's \"threads\" field overrides it)
  --cache-capacity N   per-shard capacity of the shared placement caches
                       (default 512 entries x 16 shards per table)
  --ledger-cap N       per-cause sample cap of returned ledgers (default
                       256, the one-shot cap; lower caps trade provenance
                       detail for response size)

service telemetry (ccs serve / ccs top):
  a running server answers {\"op\":\"stats\"} inline (never queued behind
  synthesis work) with a ccs-serve-stats-v1 document: per-op queue-wait /
  run / total latency histograms over last-10s, last-60s and lifetime
  windows, queue and in-flight gauges with high-watermarks, placement-
  cache hit/miss/eviction tallies; wall-clock and self-declared
  non-deterministic, never part of the byte-identity contracts
  --no-telemetry       disable histogram and gauge collection (cheap
                       always-on tallies remain; stats still answers)
  --stats-interval SECS
                       append one compact stats line per interval to
                       --stats-log (stderr without one)
  --slow-ms N          capture requests slower than N ms end-to-end
                       (default 1000 once --slow-log is set)
  --slow-log FILE      bounded JSONL of slow-request captures (id, op,
                       timings, the response's embedded ccs-metrics-v1)
  ccs top ADDR         poll a server's stats op and render a live
                       refreshing table (req/s, p50/p90/p99 per op, queue
                       depth, cache hit rate, uptime); --interval SECS
                       sets the refresh period, --once prints one frame
                       and exits, --json prints raw stats documents

provenance (ccs explain / ccs diff):
  ccs explain answers queries against a recorded ledger:
  --hub N              why does the N-th selected candidate exist?
  --candidate a,b,...  what happened to the merge subset with these arcs?
  --arc N              which selected candidate implements arc N?
  ccs diff compares two recorded documents (ccs-metrics-v1,
  ccs-topology-v1 or ccs-ledger-v1) and reports the first diverging
  decision; it exits non-zero on divergence
";

/// Runs the CLI on `args` (without the program name); returns the text to
/// print on success.
///
/// # Errors
///
/// A human-readable message (exit the process with a non-zero status).
pub fn run(args: &[String]) -> Result<String, String> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("synth") => synth(&parse_flags(it)?),
        Some("resynth") => resynth_cmd(&parse_flags(it)?),
        Some("verify") => verify_cmd(&parse_flags(it)?),
        Some("simulate") => simulate_cmd(&parse_flags(it)?),
        Some("analyze") => analyze_cmd(&parse_flags(it)?),
        Some("tables") => tables(&parse_flags(it)?),
        Some("explain") => explain_cmd(&parse_flags(it)?),
        Some("diff") => diff_cmd(&it.collect::<Vec<_>>()),
        Some("example") => example(&it.collect::<Vec<_>>()),
        Some("gen") => gen(&it.collect::<Vec<_>>()),
        Some("serve") => serve_cmd(&it.collect::<Vec<_>>()),
        Some("top") => crate::top::top_cmd(&it.collect::<Vec<_>>()),
        Some("help") | None => Ok(USAGE.to_string()),
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

#[derive(Debug, Default)]
struct Flags {
    instance: Option<String>,
    library: Option<String>,
    greedy: bool,
    max_k: Option<usize>,
    dot: bool,
    packets: bool,
    fail_group: Option<u32>,
    fail_k: Option<usize>,
    scenario_budget: Option<usize>,
    max_cost_overhead: Option<f64>,
    trace: bool,
    metrics_json: Option<String>,
    profile_folded: Option<String>,
    ledger: Option<String>,
    threads: Option<usize>,
    no_lb_gate: bool,
    edits: Vec<String>,
    cold_check: bool,
    hub: Option<usize>,
    candidate: Option<Vec<u32>>,
    arc: Option<u32>,
}

fn parse_flags<'a>(mut it: impl Iterator<Item = &'a str>) -> Result<Flags, String> {
    let mut f = Flags::default();
    while let Some(tok) = it.next() {
        match tok {
            "--instance" => f.instance = Some(required(&mut it, tok)?.to_string()),
            "--library" => f.library = Some(required(&mut it, tok)?.to_string()),
            "--greedy" => f.greedy = true,
            "--dot" => f.dot = true,
            "--packets" => f.packets = true,
            "--no-lb-gate" => f.no_lb_gate = true,
            "--edit" => f.edits.push(required(&mut it, tok)?.to_string()),
            "--cold-check" => f.cold_check = true,
            "--trace" => f.trace = true,
            "--metrics-json" => f.metrics_json = Some(required(&mut it, tok)?.to_string()),
            "--profile-folded" => f.profile_folded = Some(required(&mut it, tok)?.to_string()),
            "--ledger" => f.ledger = Some(required(&mut it, tok)?.to_string()),
            "--hub" => {
                f.hub = Some(
                    required(&mut it, tok)?
                        .parse()
                        .map_err(|_| "--hub needs an integer".to_string())?,
                )
            }
            "--candidate" => {
                let list = required(&mut it, tok)?;
                let arcs: Result<Vec<u32>, _> =
                    list.split(',').map(|s| s.trim().parse::<u32>()).collect();
                f.candidate = Some(
                    arcs.map_err(|_| "--candidate needs a comma-separated arc list".to_string())?,
                );
            }
            "--arc" => {
                f.arc = Some(
                    required(&mut it, tok)?
                        .parse()
                        .map_err(|_| "--arc needs an integer".to_string())?,
                )
            }
            "--max-k" => {
                f.max_k = Some(
                    required(&mut it, tok)?
                        .parse()
                        .map_err(|_| "--max-k needs an integer".to_string())?,
                )
            }
            "--threads" => {
                f.threads = Some(
                    required(&mut it, tok)?
                        .parse()
                        .map_err(|_| "--threads needs an integer".to_string())?,
                )
            }
            "--fail-group" => {
                f.fail_group = Some(
                    required(&mut it, tok)?
                        .parse()
                        .map_err(|_| "--fail-group needs an integer".to_string())?,
                )
            }
            "--fail-k" => {
                f.fail_k = Some(
                    required(&mut it, tok)?
                        .parse()
                        .map_err(|_| "--fail-k needs an integer".to_string())?,
                )
            }
            "--scenario-budget" => {
                f.scenario_budget = Some(
                    required(&mut it, tok)?
                        .parse()
                        .map_err(|_| "--scenario-budget needs an integer".to_string())?,
                )
            }
            "--max-cost-overhead" => {
                let pct: f64 = required(&mut it, tok)?
                    .parse()
                    .map_err(|_| "--max-cost-overhead needs a number (percent)".to_string())?;
                if !pct.is_finite() || pct < 0.0 {
                    return Err("--max-cost-overhead must be a non-negative percent".to_string());
                }
                f.max_cost_overhead = Some(pct);
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(f)
}

fn required<'a>(it: &mut impl Iterator<Item = &'a str>, flag: &str) -> Result<&'a str, String> {
    it.next().ok_or(format!("{flag} needs a value"))
}

fn load_instance(f: &Flags) -> Result<ConstraintGraph, String> {
    let path = f.instance.as_ref().ok_or("--instance is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    io::instance_from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_library(f: &Flags) -> Result<Library, String> {
    let path = f.library.as_ref().ok_or("--library is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    io::library_from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Writes `text` to `path`, where `"-"` means standard output (so runs
/// can be piped without temp files).
fn write_output(path: &str, text: &str) -> Result<(), String> {
    if path == "-" {
        use std::io::Write as _;
        std::io::stdout()
            .write_all(text.as_bytes())
            .map_err(|e| format!("cannot write to stdout: {e}"))
    } else {
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
    }
}

/// Recorder session for `--trace` / `--metrics-json` /
/// `--profile-folded`: installs the process-global recorder (and starts
/// the hierarchical profiler) on start, and always tears both down
/// again — via [`ObsSession::finish`] on success, via `Drop` when
/// synthesis errors out or panics mid-run. The `Drop` path still writes
/// the requested outputs best-effort, so a failing run leaves a usable
/// partial metrics document.
struct ObsSession {
    collector: Option<std::sync::Arc<ccs_obs::Collector>>,
    metrics_path: Option<String>,
    folded_path: Option<String>,
    ledger_path: Option<String>,
    profiling: bool,
    installed: bool,
}

impl ObsSession {
    fn start(f: &Flags) -> ObsSession {
        let mut sinks: Vec<std::sync::Arc<dyn ccs_obs::Record>> = Vec::new();
        if f.trace {
            sinks.push(ccs_obs::JsonLinesRecorder::stderr());
        }
        let collector = f.metrics_json.as_ref().map(|_| {
            let c = ccs_obs::Collector::new();
            sinks.push(c.clone());
            c
        });
        let installed = !sinks.is_empty();
        if let [sink] = &sinks[..] {
            ccs_obs::set_recorder(sink.clone());
        } else if installed {
            ccs_obs::set_recorder(ccs_obs::Fanout::new(sinks));
        }
        let profiling = f.metrics_json.is_some() || f.profile_folded.is_some();
        if profiling {
            ccs_obs::profile::start();
        }
        if f.ledger.is_some() {
            ccs_obs::ledger::install(ccs_obs::ledger::DEFAULT_CAP);
        }
        ObsSession {
            collector,
            metrics_path: f.metrics_json.clone(),
            folded_path: f.profile_folded.clone(),
            ledger_path: f.ledger.clone(),
            profiling,
            installed,
        }
    }

    /// Stops recording and writes the metrics document, if one was
    /// requested.
    fn finish(self) -> Result<(), String> {
        self.finish_with(Vec::new())
    }

    /// [`finish`](Self::finish), embedding each named deterministic
    /// section (e.g. `"topology"` → `ccs-topology-v1`, `"resilience"` →
    /// `ccs-resilience-v1`) at the top level of the metrics document.
    fn finish_with(
        mut self,
        sections: Vec<(&'static str, ccs_obs::json::Value)>,
    ) -> Result<(), String> {
        self.write_outputs(sections)
    }

    /// Tears down the global recorder/profiler and writes every
    /// requested output. Idempotent: each field is taken, so the `Drop`
    /// re-entry after an explicit finish is a no-op.
    fn write_outputs(
        &mut self,
        sections: Vec<(&'static str, ccs_obs::json::Value)>,
    ) -> Result<(), String> {
        if self.installed {
            // The allocator's high-water mark, recorded as a gauge so
            // run comparisons (`ccs diff`) can attribute memory
            // regressions; must land before the recorder is torn down.
            ccs_obs::gauge(
                "alloc.peak_live_bytes",
                ccs_obs::alloc::stats().peak_live_bytes as f64,
            );
            ccs_obs::clear_recorder();
            self.installed = false;
        }
        let profile = if self.profiling {
            self.profiling = false;
            Some(ccs_obs::profile::stop())
        } else {
            None
        };
        if let (Some(collector), Some(path)) = (self.collector.take(), self.metrics_path.take()) {
            let mut doc = collector.snapshot().to_json();
            if let ccs_obs::json::Value::Obj(map) = &mut doc {
                if let Some(tree) = &profile {
                    map.insert("profile".to_string(), profile_section(tree));
                }
                map.insert("alloc".to_string(), ccs_obs::alloc::stats().to_json());
                for (name, section) in sections {
                    map.insert(name.to_string(), section);
                }
            }
            let mut text = doc.to_string();
            text.push('\n');
            write_output(&path, &text)?;
        }
        if let Some(path) = self.folded_path.take() {
            let mut folded = String::new();
            if let Some(tree) = &profile {
                tree.write_folded(&mut folded);
            }
            write_output(&path, &folded)?;
        }
        if let Some(path) = self.ledger_path.take() {
            let ledger = ccs_obs::ledger::take()
                .unwrap_or_else(|| ccs_obs::ledger::Ledger::new(ccs_obs::ledger::DEFAULT_CAP));
            let mut text = ledger.to_json().to_string();
            text.push('\n');
            write_output(&path, &text)?;
        }
        Ok(())
    }
}

/// The `"profile"` section of the metrics document: the full call tree
/// under `"tree"` plus the scheduling-independent `"counts"` view
/// (names and call counts only), which is byte-identical for every
/// `--threads` value.
fn profile_section(tree: &ccs_obs::profile::ProfileNode) -> ccs_obs::json::Value {
    let mut obj = std::collections::BTreeMap::new();
    obj.insert(
        "schema".to_string(),
        ccs_obs::json::Value::Str(ccs_obs::profile::PROFILE_SCHEMA.to_string()),
    );
    obj.insert("tree".to_string(), tree.to_json());
    obj.insert("counts".to_string(), tree.counts_json());
    ccs_obs::json::Value::Obj(obj)
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        // Error/panic path: still emit what was collected (partial
        // metrics are how a failed run gets diagnosed), but best-effort.
        let _ = self.write_outputs(Vec::new());
    }
}

fn configured(f: &Flags) -> SynthesisConfig {
    let mut cfg = SynthesisConfig::default();
    if f.greedy {
        cfg.cover = CoverStrategy::Greedy;
    }
    cfg.merge.max_k = f.max_k;
    cfg.merge.lb_gate = !f.no_lb_gate;
    cfg.threads = f.threads.unwrap_or(0);
    cfg
}

fn synth(f: &Flags) -> Result<String, String> {
    let g = load_instance(f)?;
    let lib = load_library(f)?;
    let obs = ObsSession::start(f);
    let r = Synthesizer::new(&g, &lib)
        .with_config(configured(f))
        .run()
        .map_err(|e| e.to_string())?;
    obs.finish_with(vec![("topology", report::topology_json(&r, &g, &lib))])?;
    let mut out = String::new();
    let _ = writeln!(out, "{}", report::arcs_table(&g));
    let _ = writeln!(out, "{}", report::candidate_counts(&r));
    let _ = writeln!(out, "{}", report::selection_summary(&r, &g, &lib));
    let _ = writeln!(out, "{}", report::phase_table(&r.stats));
    if f.dot {
        let _ = writeln!(out, "{}", r.implementation.to_dot("ccs"));
    }
    Ok(out)
}

/// Parses one `--edit SPEC` (see [`USAGE`]) into a session [`Edit`].
fn parse_edit_spec(spec: &str) -> Result<Edit, String> {
    let bad = |why: String| format!("bad --edit {spec:?}: {why}");
    let (op, rest) = spec
        .split_once(':')
        .ok_or_else(|| bad("expected OP:ARGS".to_string()))?;
    match op {
        "arc_rate" => {
            let (arc, mbps) = rest
                .split_once(':')
                .ok_or_else(|| bad("expected arc_rate:IDX:MBPS".to_string()))?;
            let arc: usize = arc
                .parse()
                .map_err(|_| bad("IDX must be an integer".to_string()))?;
            let mbps: f64 = mbps
                .parse()
                .map_err(|_| bad("MBPS must be a number".to_string()))?;
            if !mbps.is_finite() || mbps <= 0.0 {
                return Err(bad("MBPS must be finite and positive".to_string()));
            }
            Ok(Edit::ArcRate {
                arc,
                bandwidth: Bandwidth::from_mbps(mbps),
            })
        }
        "arc_bound" => {
            let (arc, hops) = rest
                .split_once(':')
                .ok_or_else(|| bad("expected arc_bound:IDX:HOPS|none".to_string()))?;
            let arc: usize = arc
                .parse()
                .map_err(|_| bad("IDX must be an integer".to_string()))?;
            let max_hops = if hops == "none" {
                None
            } else {
                Some(
                    hops.parse()
                        .map_err(|_| bad("HOPS must be an integer or `none`".to_string()))?,
                )
            };
            Ok(Edit::ArcBound { arc, max_hops })
        }
        "move" => {
            // Port names may contain dots but never colons, so the last
            // colon always separates the name from the coordinates.
            let (port, xy) = rest
                .rsplit_once(':')
                .ok_or_else(|| bad("expected move:PORT:X,Y".to_string()))?;
            if port.is_empty() {
                return Err(bad("PORT must be non-empty".to_string()));
            }
            let (x, y) = xy
                .split_once(',')
                .ok_or_else(|| bad("expected X,Y coordinates".to_string()))?;
            let x: f64 = x
                .parse()
                .map_err(|_| bad("X must be a number".to_string()))?;
            let y: f64 = y
                .parse()
                .map_err(|_| bad("Y must be a number".to_string()))?;
            if !x.is_finite() || !y.is_finite() {
                return Err(bad("coordinates must be finite".to_string()));
            }
            Ok(Edit::MovePort {
                port: port.to_string(),
                position: Point2::new(x, y),
            })
        }
        "library" => {
            let text = std::fs::read_to_string(rest)
                .map_err(|e| bad(format!("cannot read {rest}: {e}")))?;
            let lib = io::library_from_str(&text).map_err(|e| bad(format!("{rest}: {e}")))?;
            Ok(Edit::SetLibrary(lib))
        }
        other => Err(bad(format!("unknown edit op {other:?}"))),
    }
}

fn resynth_cmd(f: &Flags) -> Result<String, String> {
    let g = load_instance(f)?;
    let lib = load_library(f)?;
    let edits: Vec<Edit> = f
        .edits
        .iter()
        .map(|s| parse_edit_spec(s))
        .collect::<Result<_, _>>()?;
    let obs = ObsSession::start(f);
    let mut session = SynthesisSession::new(g, lib, configured(f));
    // The cold run on the unedited instance fills the session's caches;
    // the edited run then exercises the dirty-region warm path.
    session.resynthesize(&[]).map_err(|e| e.to_string())?;
    let r = session.resynthesize(&edits).map_err(|e| e.to_string())?;
    let topology = report::topology_json(&r, session.graph(), session.library());

    let mut out = String::new();
    let _ = writeln!(out, "{}", report::candidate_counts(&r));
    let _ = writeln!(
        out,
        "{}",
        report::selection_summary(&r, session.graph(), session.library())
    );
    let _ = writeln!(out, "{}", report::phase_table(&r.stats));
    let reused_p2p = r
        .stats
        .counters
        .get("resynth.p2p_reused")
        .copied()
        .unwrap_or(0);
    let reused_verdicts = r
        .stats
        .counters
        .get("resynth.verdicts_reused")
        .copied()
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "resynth: {} edit(s); reused {reused_p2p} p2p candidate(s) \
         and {reused_verdicts} placement verdict(s)",
        edits.len()
    );

    if f.cold_check {
        let cold = Synthesizer::new(session.graph(), session.library())
            .with_config(configured(f))
            .run()
            .map_err(|e| e.to_string())?;
        let cold_topology = report::topology_json(&cold, session.graph(), session.library());
        let render = |v: &ccs_obs::json::Value| {
            let mut s = String::new();
            v.write_pretty(&mut s, 0);
            s
        };
        if render(&topology) != render(&cold_topology) {
            return Err("cold check FAILED: warm topology differs from a cold run \
                 on the edited instance"
                .to_string());
        }
        let _ = writeln!(out, "cold check: warm topology byte-identical to cold run");
    }
    obs.finish_with(vec![("topology", topology)])?;
    Ok(out)
}

fn verify_cmd(f: &Flags) -> Result<String, String> {
    let g = load_instance(f)?;
    let lib = load_library(f)?;
    let r = Synthesizer::new(&g, &lib)
        .with_config(configured(f))
        .run()
        .map_err(|e| e.to_string())?;
    let violations = ccs_core::check::verify(&g, &lib, &r.implementation);
    if violations.is_empty() {
        Ok(format!(
            "OK: {} arcs implemented at cost {:.2}; 0 violations\n",
            g.arc_count(),
            r.total_cost()
        ))
    } else {
        let mut msg = format!("{} violations:\n", violations.len());
        for v in violations {
            let _ = writeln!(msg, "  {v}");
        }
        Err(msg)
    }
}

fn simulate_cmd(f: &Flags) -> Result<String, String> {
    let g = load_instance(f)?;
    let lib = load_library(f)?;
    let obs = ObsSession::start(f);
    let r = Synthesizer::new(&g, &lib)
        .with_config(configured(f))
        .run()
        .map_err(|e| e.to_string())?;
    let phase = ccs_obs::phase("simulate");
    let mut out = String::new();
    if f.packets {
        let cfg = ccs_netsim::packet::PacketSimConfig {
            failed_groups: f.fail_group.into_iter().collect(),
            ..Default::default()
        };
        let sim = ccs_netsim::packet::simulate(&g, &r.implementation, &cfg);
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>12} {:>14}",
            "arc", "delivered", "goodput", "avg lat us"
        );
        for c in &sim.channels {
            let _ = writeln!(
                out,
                "{:>6} {:>10} {:>9.1} Mb/s {:>14.1}",
                c.arc.to_string(),
                c.delivered,
                c.throughput_mbps,
                c.avg_latency_us
            );
        }
        let _ = writeln!(out, "demands met: {}", sim.meets_demands(&g, &cfg));
    } else {
        let mut sim = ccs_netsim::NetSim::new(&g, &r.implementation);
        if let Some(gid) = f.fail_group {
            sim = sim.with_failed_group(gid);
        }
        let report = sim.run();
        let _ = writeln!(
            out,
            "{:>6} {:>14} {:>14} {:>12}",
            "arc", "demand", "delivered", "latency us"
        );
        for fl in &report.flows {
            let _ = writeln!(
                out,
                "{:>6} {:>14} {:>14} {:>12.1}",
                fl.arc.to_string(),
                fl.demand.to_string(),
                fl.delivered.to_string(),
                fl.latency_us
            );
        }
        let _ = writeln!(out, "all satisfied: {}", report.all_satisfied());
        let _ = writeln!(
            out,
            "peak utilization: {:.1}%",
            report.max_utilization() * 100.0
        );
    }
    drop(phase);
    obs.finish()?;
    Ok(out)
}

fn analyze_cmd(f: &Flags) -> Result<String, String> {
    use ccs_netsim::resilience;

    let g = load_instance(f)?;
    let lib = load_library(f)?;
    let obs = ObsSession::start(f);
    let r = Synthesizer::new(&g, &lib)
        .with_config(configured(f))
        .run()
        .map_err(|e| e.to_string())?;
    let exec = ccs_exec::Executor::new(f.threads.unwrap_or(0));
    let mut cfg = resilience::ResilienceConfig {
        max_k: f.fail_k.unwrap_or(1).max(1),
        ..Default::default()
    };
    if let Some(b) = f.scenario_budget {
        cfg.scenario_budget = b;
    }
    let sweep = resilience::analyze(&g, &r.implementation, &cfg, &exec);
    let mut resilience_doc = resilience::resilience_json(&sweep);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "resilience: {} lane groups, {} arcs, {} scenarios (N-1 exhaustive, max k = {}{})",
        sweep.group_count,
        sweep.arc_count,
        sweep.scenarios.len(),
        sweep.max_k,
        if sweep.truncated { ", budget hit" } else { "" }
    );
    let _ = writeln!(out, "baseline satisfied: {}", sweep.baseline_satisfied);
    if let Some(worst) = sweep.scenarios.get(sweep.worst_scenario) {
        let failed: Vec<String> = worst.failed.iter().map(u32::to_string).collect();
        let _ = writeln!(
            out,
            "worst scenario: fail group(s) {} -> {}/{} arcs black out, \
             min delivered {:.1}%, mean delivered {:.1}%",
            failed.join(","),
            worst.blackouts.len(),
            sweep.arc_count,
            worst.min_fraction * 100.0,
            worst.mean_fraction * 100.0
        );
    }
    let _ = writeln!(
        out,
        "mean delivered percentiles: p50 {:.1}%  p90 {:.1}%  p99 {:.1}%",
        sweep.percentile_mean_fraction(50.0) * 100.0,
        sweep.percentile_mean_fraction(90.0) * 100.0,
        sweep.percentile_mean_fraction(99.0) * 100.0
    );
    let _ = writeln!(out, "criticality (most critical first):");
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>7} {:>7} {:>12} {:>12}",
        "group", "blackouts", "min%", "mean%", "demand", "capacity"
    );
    for c in &sweep.criticality {
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>7.1} {:>7.1} {:>7.1} Mb/s {:>7.1} Mb/s",
            c.group,
            c.blackout_arcs,
            c.min_fraction * 100.0,
            c.mean_fraction * 100.0,
            c.demand_mbps,
            c.capacity_mbps
        );
    }

    if let Some(pct) = f.max_cost_overhead {
        let budget = pct / 100.0;
        let points =
            resilience::cost_resilience_frontier(&g, &lib, &r, &exec).map_err(|e| e.to_string())?;
        let chosen = resilience::pick_within_overhead(&points, budget);
        let _ = writeln!(out, "\ncost-resilience frontier (budget: +{pct:.1}% cost):");
        let _ = writeln!(
            out,
            "{:>9} {:>12} {:>9} {:>11} {:>10}",
            "allowed k", "cost", "overhead", "worst mean%", "blackouts"
        );
        for (i, p) in points.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:>9} {:>12.2} {:>8.1}% {:>11.1} {:>10}{}",
                p.allowed_k,
                p.cost,
                p.overhead * 100.0,
                p.worst_mean_fraction * 100.0,
                p.max_blackout_arcs,
                if Some(i) == chosen { "  <- chosen" } else { "" }
            );
        }
        if let Some(i) = chosen {
            let p = &points[i];
            let _ = writeln!(
                out,
                "chosen: allowed k = {} (cost {:.2}, +{:.1}%, worst mean delivered {:.1}%)",
                p.allowed_k,
                p.cost,
                p.overhead * 100.0,
                p.worst_mean_fraction * 100.0
            );
        }
        if let ccs_obs::json::Value::Obj(map) = &mut resilience_doc {
            map.insert(
                "frontier".to_string(),
                resilience::frontier_json(&points, chosen, Some(budget)),
            );
        }
    }

    obs.finish_with(vec![
        ("topology", report::topology_json(&r, &g, &lib)),
        ("resilience", resilience_doc),
    ])?;
    Ok(out)
}

fn tables(f: &Flags) -> Result<String, String> {
    let g = load_instance(f)?;
    let m = DistanceMatrices::compute(&g);
    let mut out = String::new();
    let _ = writeln!(out, "{}", report::arcs_table(&g));
    let _ = writeln!(out, "Gamma:\n{}", report::table_gamma(&m));
    let _ = writeln!(out, "Delta:\n{}", report::table_delta(&m));
    Ok(out)
}

fn explain_cmd(f: &Flags) -> Result<String, String> {
    let path = f
        .ledger
        .as_ref()
        .ok_or("--ledger is required (a ccs-ledger-v1 file from a --ledger run)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let ledger = crate::explain::load_ledger(&text).map_err(|e| format!("{path}: {e}"))?;
    let query = match (f.hub, &f.candidate, f.arc) {
        (Some(n), None, None) => crate::explain::Query::Hub(n),
        (None, Some(arcs), None) => crate::explain::Query::Candidate(arcs.clone()),
        (None, None, Some(a)) => crate::explain::Query::Arc(a),
        _ => {
            return Err(format!(
                "explain needs exactly one of --hub N, --candidate a,b,... or --arc N\n{USAGE}"
            ))
        }
    };
    crate::explain::explain(&ledger, &query)
}

fn diff_cmd(rest: &[&str]) -> Result<String, String> {
    let [a, b] = rest else {
        return Err(format!("usage: ccs diff FIRST.json SECOND.json\n{USAGE}"));
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let outcome = crate::diff::diff_texts(a, &read(a)?, b, &read(b)?)?;
    if outcome.diverged {
        // Non-zero exit on divergence, like diff(1).
        Err(outcome.report)
    } else {
        Ok(outcome.report)
    }
}

fn example(rest: &[&str]) -> Result<String, String> {
    match rest {
        ["instance", "wan"] => Ok(io::instance_to_string(&ccs_gen::wan::paper_instance())),
        ["instance", "mpeg4"] => Ok(io::instance_to_string(&ccs_gen::mpeg4::paper_instance())),
        ["library", "wan"] => Ok(io::library_to_string(&ccs_gen::wan::paper_library())),
        ["library", "soc"] => Ok(io::library_to_string(&ccs_gen::mpeg4::paper_library())),
        _ => Err(format!(
            "usage: ccs example instance wan|mpeg4  |  ccs example library wan|soc\n{USAGE}"
        )),
    }
}

fn gen(rest: &[&str]) -> Result<String, String> {
    let usage = format!("usage: ccs gen wan|soc [--seed N] [--channels N] ...\n{USAGE}");
    let (kind, flags) = rest.split_first().ok_or_else(|| usage.clone())?;
    let mut opts = std::collections::BTreeMap::new();
    let mut it = flags.iter();
    while let Some(&tok) = it.next() {
        let Some(name) = tok.strip_prefix("--") else {
            return Err(usage.clone());
        };
        let value: u64 = it
            .next()
            .ok_or(format!("{tok} needs a value"))?
            .parse()
            .map_err(|_| format!("{tok} needs an integer"))?;
        opts.insert(name.to_string(), value);
    }
    let mut take = |name: &str| opts.remove(name);
    let graph = match *kind {
        "wan" => {
            let mut cfg = ccs_gen::random::ClusteredWanConfig::default();
            if let Some(v) = take("seed") {
                cfg.seed = v;
            }
            if let Some(v) = take("channels") {
                cfg.channels = v as usize;
            }
            if let Some(v) = take("clusters") {
                cfg.clusters = v as usize;
            }
            if let Some(v) = take("nodes-per-cluster") {
                cfg.nodes_per_cluster = v as usize;
            }
            gen_within(
                kind,
                &[
                    ("channels", cfg.channels, 1, GEN_MAX_ITEMS),
                    ("clusters", cfg.clusters, 1, GEN_MAX_CLUSTERS),
                    (
                        "nodes-per-cluster",
                        cfg.nodes_per_cluster,
                        1,
                        GEN_MAX_CLUSTERS,
                    ),
                ],
            )?;
            if cfg.clusters == 1 && cfg.nodes_per_cluster == 1 {
                // A channel joins two distinct nodes.
                return Err(
                    "ccs gen wan: --clusters 1 needs --nodes-per-cluster of at least 2".into(),
                );
            }
            ccs_gen::random::clustered_wan(&cfg)
        }
        "soc" => {
            let mut cfg = ccs_gen::random::SocConfig::default();
            if let Some(v) = take("seed") {
                cfg.seed = v;
            }
            if let Some(v) = take("channels") {
                cfg.channels = v as usize;
            }
            if let Some(v) = take("modules") {
                cfg.modules = v as usize;
            }
            gen_within(
                kind,
                &[
                    ("channels", cfg.channels, 1, GEN_MAX_ITEMS),
                    ("modules", cfg.modules, 2, GEN_MAX_ITEMS),
                ],
            )?;
            ccs_gen::random::soc_floorplan(&cfg)
        }
        _ => return Err(usage),
    };
    if let Some(unknown) = opts.keys().next() {
        return Err(format!("unknown ccs gen {kind} flag --{unknown}"));
    }
    Ok(io::instance_to_string(&graph))
}

/// Upper bound on `ccs gen`'s `--channels` and `--modules`: far above
/// any instance synthesis can finish, low enough that generation
/// allocates a few megabytes at most.
const GEN_MAX_ITEMS: usize = 10_000;
/// Upper bound on `--clusters` and `--nodes-per-cluster`, so the WAN
/// node table stays at most a million entries.
const GEN_MAX_CLUSTERS: usize = 1_000;

/// Rejects the first `(flag, value, min, max)` whose value lies outside
/// `min..=max`, before any allocation: the generators assert the lower
/// bounds, and a huge size would allocate without limit.
fn gen_within(kind: &str, flags: &[(&str, usize, usize, usize)]) -> Result<(), String> {
    for &(flag, value, min, max) in flags {
        if value < min {
            return Err(format!(
                "ccs gen {kind}: --{flag} must be at least {min}, got {value}"
            ));
        }
        if value > max {
            return Err(format!(
                "ccs gen {kind}: --{flag} must be at most {max}, got {value}"
            ));
        }
    }
    Ok(())
}

fn serve_cmd(rest: &[&str]) -> Result<String, String> {
    let mut cfg = crate::serve::ServeConfig::default();
    let mut it = rest.iter();
    while let Some(&tok) = it.next() {
        let mut value =
            || -> Result<&str, String> { it.next().copied().ok_or(format!("{tok} needs a value")) };
        match tok {
            "--listen" => cfg.listen = Some(value()?.to_string()),
            "--workers" => {
                cfg.workers = value()?
                    .parse()
                    .map_err(|_| "--workers needs an integer".to_string())?;
            }
            "--request-threads" => {
                cfg.request_threads = value()?
                    .parse()
                    .map_err(|_| "--request-threads needs an integer".to_string())?;
            }
            "--cache-capacity" => {
                cfg.cache_per_shard = value()?
                    .parse()
                    .map_err(|_| "--cache-capacity needs an integer".to_string())?;
            }
            "--ledger-cap" => {
                cfg.ledger_cap = value()?
                    .parse()
                    .map_err(|_| "--ledger-cap needs an integer".to_string())?;
            }
            "--no-telemetry" => cfg.telemetry = false,
            "--stats-interval" => {
                cfg.stats_interval = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--stats-interval needs seconds".to_string())?,
                );
            }
            "--stats-log" => cfg.stats_log = Some(value()?.into()),
            "--slow-ms" => {
                cfg.slow_ms = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--slow-ms needs milliseconds".to_string())?,
                );
            }
            "--slow-log" => cfg.slow_log = Some(value()?.into()),
            other => return Err(format!("unknown ccs serve flag {other:?}\n{USAGE}")),
        }
    }
    let server = crate::serve::Server::bind(cfg)?;
    let summary = server.run()?;
    // Stdout stays pure JSON lines in stdin mode; the human-readable
    // wrap-up goes to stderr.
    eprintln!(
        "ccs serve: done ({} served, {} cancelled, {} errors)",
        summary.served, summary.cancelled, summary.errors
    );
    Ok(String::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn help_and_empty_print_usage() {
        assert_eq!(run(&args("help")).unwrap(), USAGE);
        assert_eq!(run(&[]).unwrap(), USAGE);
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&args("frobnicate")).is_err());
        assert!(run(&args("synth --bogus")).is_err());
    }

    #[test]
    fn example_outputs_parse_back() {
        for spec in ["instance wan", "instance mpeg4"] {
            let text = run(&args(&format!("example {spec}"))).unwrap();
            assert!(io::instance_from_str(&text).is_ok(), "{spec}");
        }
        for spec in ["library wan", "library soc"] {
            let text = run(&args(&format!("example {spec}"))).unwrap();
            assert!(io::library_from_str(&text).is_ok(), "{spec}");
        }
    }

    #[test]
    fn end_to_end_on_temp_files() {
        let dir = std::env::temp_dir().join("ccs-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("wan.ccs");
        let lib = dir.join("wan-lib.ccs");
        std::fs::write(&inst, run(&args("example instance wan")).unwrap()).unwrap();
        std::fs::write(&lib, run(&args("example library wan")).unwrap()).unwrap();
        let base = format!("--instance {} --library {}", inst.display(), lib.display());

        let synth_out = run(&args(&format!("synth {base}"))).unwrap();
        assert!(synth_out.contains("3-way merge"));
        assert!(synth_out.contains("total cost"));

        let verify_out = run(&args(&format!("verify {base}"))).unwrap();
        assert!(verify_out.contains("0 violations"));

        let sim_out = run(&args(&format!("simulate {base}"))).unwrap();
        assert!(sim_out.contains("all satisfied: true"));

        let tables_out = run(&args(&format!("tables --instance {}", inst.display()))).unwrap();
        assert!(tables_out.contains("Gamma"));
        assert!(tables_out.contains("Delta"));
    }

    #[test]
    fn synth_flags_max_k_and_dot() {
        let dir = std::env::temp_dir().join("ccs-cli-test3");
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("wan.ccs");
        let lib = dir.join("wan-lib.ccs");
        std::fs::write(&inst, run(&args("example instance wan")).unwrap()).unwrap();
        std::fs::write(&lib, run(&args("example library wan")).unwrap()).unwrap();
        let base = format!("--instance {} --library {}", inst.display(), lib.display());

        // --max-k 2 forbids the paper's 3-way merge.
        let out = run(&args(&format!("synth {base} --max-k 2"))).unwrap();
        assert!(!out.contains("3-way merge"), "{out}");

        // --dot appends a Graphviz rendering.
        let out = run(&args(&format!("synth {base} --dot"))).unwrap();
        assert!(out.contains("digraph ccs"));

        // --packets switches the simulator.
        let out = run(&args(&format!("simulate {base} --packets"))).unwrap();
        assert!(out.contains("demands met: true"));

        // Bad numeric flags are rejected.
        assert!(run(&args(&format!("synth {base} --max-k x"))).is_err());
    }

    #[test]
    fn no_lb_gate_flag_is_result_invariant() {
        let dir = std::env::temp_dir().join("ccs-cli-test-lbgate");
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("wan.ccs");
        let lib = dir.join("wan-lib.ccs");
        std::fs::write(&inst, run(&args("example instance wan")).unwrap()).unwrap();
        std::fs::write(&lib, run(&args("example library wan")).unwrap()).unwrap();
        let base = format!("--instance {} --library {}", inst.display(), lib.display());

        // The gate only skips work: the synthesis report up to the
        // (wall-clock) phase table is identical either way.
        let head = |s: &str| {
            s.lines()
                .take_while(|l| !l.contains("wall"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let gated = run(&args(&format!("synth {base}"))).unwrap();
        let ungated = run(&args(&format!("synth {base} --no-lb-gate"))).unwrap();
        assert!(head(&gated).contains("3-way merge"));
        assert_eq!(head(&gated), head(&ungated));
    }

    #[test]
    fn metrics_json_flag_writes_schema_document() {
        let dir = std::env::temp_dir().join("ccs-cli-test4");
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("wan.ccs");
        let lib = dir.join("wan-lib.ccs");
        let metrics = dir.join("metrics.json");
        std::fs::write(&inst, run(&args("example instance wan")).unwrap()).unwrap();
        std::fs::write(&lib, run(&args("example library wan")).unwrap()).unwrap();

        // --trace together with --metrics-json exercises the fanout.
        let out = run(&args(&format!(
            "synth --instance {} --library {} --trace --metrics-json {}",
            inst.display(),
            lib.display(),
            metrics.display()
        )))
        .unwrap();
        // The human-readable side: the "where did the time go" table.
        assert!(out.contains("phase"), "{out}");
        assert!(out.contains("counters:"), "{out}");

        // The machine-readable side: a valid ccs-metrics-v1 document.
        let text = std::fs::read_to_string(&metrics).unwrap();
        let doc = ccs_obs::json::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(ccs_obs::json::Value::as_str),
            Some(ccs_obs::METRICS_SCHEMA)
        );
        let phases = doc.get("phases").expect("phases object");
        for name in [
            "p2p",
            "matrices",
            "merging",
            "placement",
            "covering",
            "assembly",
            "total",
        ] {
            assert!(phases.get(name).is_some(), "missing phase {name}: {text}");
        }
        let counters = doc.get("counters").expect("counters object");
        assert!(counters.get("merging.k2.examined").is_some(), "{text}");
        assert!(counters.get("covering.bnb_nodes").is_some(), "{text}");

        // Missing value is rejected.
        let base = format!("--instance {} --library {}", inst.display(), lib.display());
        assert!(run(&args(&format!("synth {base} --metrics-json"))).is_err());
    }

    #[test]
    fn gen_outputs_parse_back_and_are_seeded() {
        let a = run(&args("gen wan --seed 7 --channels 6")).unwrap();
        let b = run(&args("gen wan --seed 7 --channels 6")).unwrap();
        let c = run(&args("gen wan --seed 8 --channels 6")).unwrap();
        assert_eq!(a, b, "same seed must generate identical instances");
        assert_ne!(a, c, "different seeds should differ");
        assert!(io::instance_from_str(&a).is_ok());

        let soc = run(&args("gen soc --seed 3 --modules 6 --channels 8")).unwrap();
        assert!(io::instance_from_str(&soc).is_ok());

        assert!(run(&args("gen")).is_err());
        assert!(run(&args("gen mesh")).is_err());
        assert!(run(&args("gen wan --seed")).is_err());
        assert!(run(&args("gen wan --bogus 3")).is_err());
    }

    #[test]
    fn threads_flag_does_not_change_output() {
        let dir = std::env::temp_dir().join("ccs-cli-test5");
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("wan.ccs");
        let lib = dir.join("wan-lib.ccs");
        std::fs::write(
            &inst,
            run(&args("gen wan --seed 11 --channels 10")).unwrap(),
        )
        .unwrap();
        std::fs::write(&lib, run(&args("example library wan")).unwrap()).unwrap();
        let base = format!("--instance {} --library {}", inst.display(), lib.display());

        // The human-readable selection and costs must be identical for
        // every thread count (timings differ, so compare the summary
        // section only via verify's stable one-liner).
        let serial = run(&args(&format!("verify {base} --threads 1"))).unwrap();
        let parallel = run(&args(&format!("verify {base} --threads 4"))).unwrap();
        assert_eq!(serial, parallel);
        assert!(run(&args(&format!("synth {base} --threads x"))).is_err());
    }

    #[test]
    fn synth_metrics_embed_deterministic_topology() {
        let dir = std::env::temp_dir().join("ccs-cli-test6");
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("wan.ccs");
        let lib = dir.join("wan-lib.ccs");
        std::fs::write(&inst, run(&args("gen wan --seed 5 --channels 9")).unwrap()).unwrap();
        std::fs::write(&lib, run(&args("example library wan")).unwrap()).unwrap();

        let mut sections = Vec::new();
        for threads in [1, 4] {
            let metrics = dir.join(format!("metrics-{threads}.json"));
            run(&args(&format!(
                "synth --instance {} --library {} --threads {threads} --metrics-json {}",
                inst.display(),
                lib.display(),
                metrics.display()
            )))
            .unwrap();
            let text = std::fs::read_to_string(&metrics).unwrap();
            let doc = ccs_obs::json::parse(&text).expect("valid JSON");
            let topo = doc.get("topology").expect("topology section");
            assert_eq!(
                topo.get("schema").and_then(ccs_obs::json::Value::as_str),
                Some("ccs-topology-v1")
            );
            assert!(topo
                .get("total_cost")
                .and_then(ccs_obs::json::Value::as_num)
                .is_some());
            let mut rendered = String::new();
            topo.write_pretty(&mut rendered, 0);
            sections.push(rendered);
        }
        assert_eq!(
            sections[0], sections[1],
            "topology must be byte-identical across thread counts"
        );
    }

    #[test]
    fn analyze_reports_criticality_and_embeds_resilience_json() {
        let dir = std::env::temp_dir().join("ccs-cli-test7");
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("wan.ccs");
        let lib = dir.join("wan-lib.ccs");
        let metrics = dir.join("metrics.json");
        std::fs::write(&inst, run(&args("example instance wan")).unwrap()).unwrap();
        std::fs::write(&lib, run(&args("example library wan")).unwrap()).unwrap();

        let out = run(&args(&format!(
            "analyze --instance {} --library {} --metrics-json {}",
            inst.display(),
            lib.display(),
            metrics.display()
        )))
        .unwrap();
        assert!(out.contains("baseline satisfied: true"), "{out}");
        assert!(out.contains("criticality (most critical first):"), "{out}");
        assert!(out.contains("worst scenario:"), "{out}");

        let text = std::fs::read_to_string(&metrics).unwrap();
        let doc = ccs_obs::json::parse(&text).expect("valid JSON");
        let res = doc.get("resilience").expect("resilience section");
        assert_eq!(
            res.get("schema").and_then(ccs_obs::json::Value::as_str),
            Some(ccs_netsim::resilience::RESILIENCE_SCHEMA)
        );
        assert!(doc.get("topology").is_some(), "topology rides along");
        let groups = res
            .get("group_count")
            .and_then(ccs_obs::json::Value::as_num)
            .unwrap();
        match res.get("criticality").unwrap() {
            ccs_obs::json::Value::Arr(a) => {
                assert_eq!(a.len(), groups as usize, "every group is ranked")
            }
            other => panic!("criticality must be an array, got {other:?}"),
        }
    }

    #[test]
    fn analyze_resilience_is_byte_identical_across_threads() {
        let dir = std::env::temp_dir().join("ccs-cli-test8");
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("wan.ccs");
        let lib = dir.join("wan-lib.ccs");
        std::fs::write(
            &inst,
            run(&args("gen wan --seed 13 --channels 10")).unwrap(),
        )
        .unwrap();
        std::fs::write(&lib, run(&args("example library wan")).unwrap()).unwrap();

        let mut sections = Vec::new();
        for threads in [1, 4] {
            let metrics = dir.join(format!("metrics-{threads}.json"));
            run(&args(&format!(
                "analyze --instance {} --library {} --threads {threads} \
                 --fail-k 2 --scenario-budget 32 --metrics-json {}",
                inst.display(),
                lib.display(),
                metrics.display()
            )))
            .unwrap();
            let text = std::fs::read_to_string(&metrics).unwrap();
            let doc = ccs_obs::json::parse(&text).expect("valid JSON");
            let mut rendered = String::new();
            doc.get("resilience")
                .expect("resilience section")
                .write_pretty(&mut rendered, 0);
            sections.push(rendered);
        }
        assert_eq!(
            sections[0], sections[1],
            "resilience must be byte-identical across thread counts"
        );
    }

    #[test]
    fn analyze_frontier_flag_recommends_within_budget() {
        let dir = std::env::temp_dir().join("ccs-cli-test9");
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("wan.ccs");
        let lib = dir.join("wan-lib.ccs");
        let metrics = dir.join("metrics.json");
        std::fs::write(&inst, run(&args("example instance wan")).unwrap()).unwrap();
        std::fs::write(&lib, run(&args("example library wan")).unwrap()).unwrap();

        // A huge budget always admits the duplication-only endpoint.
        let out = run(&args(&format!(
            "analyze --instance {} --library {} --max-cost-overhead 1000 --metrics-json {}",
            inst.display(),
            lib.display(),
            metrics.display()
        )))
        .unwrap();
        assert!(out.contains("cost-resilience frontier"), "{out}");
        assert!(out.contains("chosen: allowed k ="), "{out}");

        let text = std::fs::read_to_string(&metrics).unwrap();
        let doc = ccs_obs::json::parse(&text).expect("valid JSON");
        let frontier = doc
            .get("resilience")
            .and_then(|r| r.get("frontier"))
            .expect("frontier embedded");
        assert!(frontier.get("points").is_some());
        assert!(frontier
            .get("chosen")
            .and_then(ccs_obs::json::Value::as_num)
            .is_some());

        // Bad values are rejected.
        let base = format!("--instance {} --library {}", inst.display(), lib.display());
        assert!(run(&args(&format!("analyze {base} --max-cost-overhead -5"))).is_err());
        assert!(run(&args(&format!("analyze {base} --fail-k x"))).is_err());
        assert!(run(&args(&format!("analyze {base} --scenario-budget"))).is_err());
    }

    #[test]
    fn resynth_applies_edits_and_passes_cold_check() {
        let dir = std::env::temp_dir().join("ccs-cli-resynth");
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("wan.ccs");
        let lib = dir.join("wan-lib.ccs");
        let inst_text = run(&args("gen wan --seed 11 --channels 10")).unwrap();
        std::fs::write(&inst, &inst_text).unwrap();
        std::fs::write(&lib, run(&args("example library wan")).unwrap()).unwrap();
        let base = format!("--instance {} --library {}", inst.display(), lib.display());

        // Arc edits re-synthesize warm and match an in-process cold run.
        let out = run(&args(&format!(
            "resynth {base} --edit arc_rate:0:25 --edit arc_bound:1:none --cold-check"
        )))
        .unwrap();
        assert!(out.contains("resynth: 2 edit(s)"), "{out}");
        assert!(
            out.contains("cold check: warm topology byte-identical"),
            "{out}"
        );
        assert!(
            !out.contains("reused 0 p2p"),
            "warm run must reuse candidates: {out}"
        );

        // A port move (name taken from the generated instance) as well.
        let port = inst_text
            .lines()
            .find_map(|l| l.strip_prefix("port "))
            .and_then(|l| l.split_whitespace().next())
            .expect("instance has ports");
        let out = run(&args(&format!(
            "resynth {base} --edit move:{port}:3.5,-2.25 --cold-check"
        )))
        .unwrap();
        assert!(out.contains("resynth: 1 edit(s)"), "{out}");
        assert!(out.contains("byte-identical"), "{out}");

        // A library swap invalidates everything but still cold-checks.
        let lib2 = dir.join("wan-lib2.ccs");
        std::fs::write(&lib2, run(&args("example library soc")).unwrap()).unwrap();
        let out = run(&args(&format!(
            "resynth {base} --edit library:{} --cold-check",
            lib2.display()
        )))
        .unwrap();
        assert!(out.contains("reused 0 p2p candidate(s)"), "{out}");

        // No edits at all is the pure warm-rerun identity check.
        let out = run(&args(&format!("resynth {base} --cold-check"))).unwrap();
        assert!(out.contains("resynth: 0 edit(s)"), "{out}");
    }

    #[test]
    fn resynth_edit_specs_are_validated() {
        let dir = std::env::temp_dir().join("ccs-cli-resynth2");
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("wan.ccs");
        let lib = dir.join("wan-lib.ccs");
        std::fs::write(&inst, run(&args("example instance wan")).unwrap()).unwrap();
        std::fs::write(&lib, run(&args("example library wan")).unwrap()).unwrap();
        let base = format!("--instance {} --library {}", inst.display(), lib.display());

        for spec in [
            "bogus:1:2",
            "arc_rate",
            "arc_rate:x:5",
            "arc_rate:0:-3",
            "arc_rate:0:inf",
            "arc_bound:0:x",
            "move:A:1",
            "move::1,2",
            "move:A:1,nan-ish",
            "library:/nonexistent.ccs",
        ] {
            let e = run(&args(&format!("resynth {base} --edit {spec}"))).unwrap_err();
            assert!(
                e.contains("--edit") || e.contains("bad --edit"),
                "{spec}: {e}"
            );
        }
        // Structurally valid spec referencing a missing arc fails at
        // application time with the session's own error.
        let e = run(&args(&format!("resynth {base} --edit arc_rate:999:5"))).unwrap_err();
        assert!(e.contains("invalid edit"), "{e}");
        // --edit without a value is rejected by the flag parser.
        assert!(run(&args(&format!("resynth {base} --edit"))).is_err());
    }

    #[test]
    fn missing_files_are_reported() {
        let e = run(&args(
            "synth --instance /nonexistent.ccs --library /nonexistent.ccs",
        ))
        .unwrap_err();
        assert!(e.contains("cannot read"));
    }

    #[test]
    fn failed_group_simulation_reports_unsatisfied() {
        let dir = std::env::temp_dir().join("ccs-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("wan.ccs");
        let lib = dir.join("wan-lib.ccs");
        std::fs::write(&inst, run(&args("example instance wan")).unwrap()).unwrap();
        std::fs::write(&lib, run(&args("example library wan")).unwrap()).unwrap();
        let out = run(&args(&format!(
            "simulate --instance {} --library {} --fail-group 0",
            inst.display(),
            lib.display()
        )))
        .unwrap();
        assert!(out.contains("all satisfied: false"));
    }
}
