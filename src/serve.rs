//! `ccs serve`: a long-running synthesis service.
//!
//! One-shot `ccs synth` pays process startup and cold caches on every
//! request. The daemon amortizes both: it accepts a stream of
//! synthesis/analyze requests as JSON lines (`ccs-request-v1`) over
//! stdin or a TCP listener, multiplexes them onto a fixed pool of
//! worker threads through a priority [`JobQueue`], and answers each
//! with one `ccs-response-v1` JSON line.
//!
//! Three properties carry over from the rest of the workspace:
//!
//! * **Determinism.** A request's topology and ledger documents are
//!   byte-identical (in canonical form) whether the request is served
//!   concurrently with 31 others, served alone, or run via one-shot
//!   `ccs synth`. Per-request observability scoping
//!   ([`ccs_obs::scope`]) keeps concurrent requests from
//!   cross-contaminating metrics; the shared placement cache memoizes
//!   only pure functions of `(library, demand)`, so cache hits cannot
//!   perturb results.
//! * **Bounded memory.** The per-library placement caches are
//!   [`PlacementCache::bounded`] with deterministic eviction, and at
//!   most [`MAX_LIBRARIES`] libraries are cached at once, so a
//!   long-running daemon cannot leak.
//! * **Cooperative cancellation.** A `cancel` request flips the
//!   target's [`CancelToken`]; the pipeline aborts at the next poll
//!   and the response is a bare `"status":"cancelled"` line — a
//!   cancelled request never writes a response body (no metrics, no
//!   topology, no ledger).
//!
//! Graceful shutdown (`kind":"shutdown"`) stops intake, drains every
//! queued and in-flight request to a real response, then answers the
//! shutdown request itself last with serve counters.
//!
//! # Fleet telemetry
//!
//! The daemon keeps a [`Telemetry`] registry: per-op queue-wait /
//! run-time / total-latency histograms ([`ccs_obs::hist`]) with
//! "last 10 s / last 60 s / lifetime" rolling windows, queue-depth and
//! in-flight gauges with high-watermarks, placement-cache hit/miss/
//! eviction counts, and error/cancel/rejection tallies. A live server
//! answers a `{"op":"stats"}` line (handled inline by the reader
//! thread, like ping — never queued behind synthesis work) with a
//! [`STATS_SCHEMA`] document; `--stats-interval`/`--stats-log` emit
//! the same document periodically as JSON lines, and `--slow-ms N`
//! with `--slow-log FILE` captures requests slower than N ms to a
//! bounded on-disk JSONL. Telemetry is wall-clock and **explicitly
//! outside every byte-identity contract**: it never enters response
//! bodies, metrics, topology or ledger documents, and the stats
//! document declares itself non-deterministic (`"deterministic":
//! false`). With `telemetry: false` the daemon skips all clock reads
//! and histogram work — the disabled path holds the same ≤1% overhead
//! budget as the decision ledger (gated by `ccs-bench compare`).

use ccs_core::cover::CoverStrategy;
use ccs_core::error::SynthesisError;
use ccs_core::placement::PlacementCache;
use ccs_core::report;
use ccs_core::synthesis::{Edit, SynthesisConfig, SynthesisSession, Synthesizer};
use ccs_core::units::Bandwidth;
use ccs_exec::{CancelToken, Executor, JobQueue};
use ccs_gen::io;
use ccs_geom::Point2;
use ccs_obs::hist::{Snapshot, Windowed};
use ccs_obs::json::{self, Value};
use ccs_obs::scope::RequestObs;
use ccs_obs::{Collector, Record};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::{BufRead, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Schema identifier of request lines.
pub const REQUEST_SCHEMA: &str = "ccs-request-v1";
/// Schema identifier of response lines.
pub const RESPONSE_SCHEMA: &str = "ccs-response-v1";
/// Schema identifier of the telemetry snapshot document.
pub const STATS_SCHEMA: &str = "ccs-serve-stats-v1";
/// Schema identifier of slow-request capture lines.
pub const SLOW_SCHEMA: &str = "ccs-serve-slow-v1";

/// Most recent slow-request entries retained in memory; the on-disk
/// JSONL is compacted back to this many lines whenever it reaches
/// four times the cap, so the file is bounded at `4 * SLOW_LOG_CAP`
/// entries.
pub const SLOW_LOG_CAP: usize = 256;

/// Default per-shard capacity of each shared placement cache (16
/// shards per table; see [`PlacementCache::bounded`]).
pub const DEFAULT_CACHE_PER_SHARD: usize = 512;

/// Most distinct libraries with live shared caches. Beyond this the
/// cache for the largest library fingerprint is dropped — a
/// content-determined rule, like the placement cache's own eviction.
pub const MAX_LIBRARIES: usize = 16;

/// Most live incremental re-synthesis sessions. Beyond this the
/// session with the largest id is dropped (same content-determined
/// rule as the library caches).
pub const MAX_SESSIONS: usize = 16;

/// Longest request line the daemon reads, in bytes (excluding the
/// newline). The largest requests the tests and CI send are seeded WAN
/// and SoC instances of a few tens of kilobytes, so the cap leaves a
/// wide margin while bounding what one line can make a reader buffer.
/// A longer line gets one `error` response and is skipped.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Recently completed request ids remembered for late-duplicate
/// rejection. A bounded ring: beyond this the oldest completed id may
/// be reused again without an error.
const COMPLETED_IDS_CAP: usize = 4096;

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Full synthesis; the response embeds `ccs-topology-v1`.
    Synth,
    /// Synthesis plus a resilience sweep; the response embeds both
    /// `ccs-topology-v1` and `ccs-resilience-v1`.
    Analyze,
    /// Incremental re-synthesis against a named server-side
    /// [`SynthesisSession`]: applies `edits`, reuses everything the
    /// edits did not touch, answers with the same body as `synth`.
    Resynth,
    /// Liveness probe; answered immediately, never queued.
    Ping,
    /// Telemetry snapshot ([`STATS_SCHEMA`]); answered immediately by
    /// the reader thread, never queued behind synthesis work. Also
    /// accepted in the minimal `{"op":"stats"}` form (no schema/id).
    Stats,
    /// Cancels the in-flight or queued request named by `target`.
    Cancel,
    /// Graceful shutdown: drain everything, answer this last.
    Shutdown,
}

impl RequestKind {
    fn id(self) -> &'static str {
        match self {
            RequestKind::Synth => "synth",
            RequestKind::Analyze => "analyze",
            RequestKind::Resynth => "resynth",
            RequestKind::Ping => "ping",
            RequestKind::Stats => "stats",
            RequestKind::Cancel => "cancel",
            RequestKind::Shutdown => "shutdown",
        }
    }

    /// Histogram slot for ops whose latency is tracked.
    fn op_index(self) -> Option<usize> {
        match self {
            RequestKind::Synth => Some(0),
            RequestKind::Analyze => Some(1),
            RequestKind::Resynth => Some(2),
            _ => None,
        }
    }
}

/// Names of the per-op telemetry slots, in [`RequestKind::op_index`]
/// order.
const OP_NAMES: [&str; 3] = ["synth", "analyze", "resynth"];

/// One edit of a `resynth` request, as parsed off the wire (converted
/// to a [`ccs_core::synthesis::Edit`] when the job runs — the library
/// text, in particular, is only parsed then).
#[derive(Debug, Clone, PartialEq)]
pub enum EditSpec {
    /// `{"op":"arc_rate","arc":N,"mbps":X}`
    ArcRate {
        /// Arc index.
        arc: usize,
        /// New bandwidth in Mb/s (finite, positive).
        mbps: f64,
    },
    /// `{"op":"arc_bound","arc":N,"hops":H}` (`hops` null/absent clears)
    ArcBound {
        /// Arc index.
        arc: usize,
        /// New hop bound; `None` removes the bound.
        hops: Option<u32>,
    },
    /// `{"op":"move","port":"NAME","x":X,"y":Y}`
    MovePort {
        /// Port name.
        port: String,
        /// New x position.
        x: f64,
        /// New y position.
        y: f64,
    },
    /// `{"op":"library","text":"..."}` — replace the library.
    Library {
        /// Library file text ([`ccs_gen::io`] format).
        text: String,
    },
}

/// One parsed `ccs-request-v1` line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: String,
    /// What to do.
    pub kind: RequestKind,
    /// Instance text ([`ccs_gen::io`] format); synth/analyze only.
    pub instance: String,
    /// Library text ([`ccs_gen::io`] format); synth/analyze only.
    pub library: String,
    /// Scheduling priority (higher runs first; default 0).
    pub priority: i64,
    /// Worker threads for this request's parallel phases (`None` =
    /// the server's per-request default).
    pub threads: Option<usize>,
    /// Use the greedy covering solver.
    pub greedy: bool,
    /// Merge-enumeration level cap.
    pub max_k: Option<usize>,
    /// Lower-bound gate (defaults on, like the CLI).
    pub lb_gate: bool,
    /// Collect and return a `ccs-ledger-v1` document.
    pub ledger: bool,
    /// analyze: largest simultaneous failure order (default 1).
    pub fail_k: Option<usize>,
    /// analyze: N-k scenario cap.
    pub scenario_budget: Option<usize>,
    /// analyze: sweep the cost-resilience frontier within this percent
    /// overhead.
    pub max_cost_overhead: Option<f64>,
    /// cancel: the id of the request to cancel.
    pub target: Option<String>,
    /// resynth: the server-side session name. The first request for a
    /// session must also carry `instance` and `library`.
    pub session: Option<String>,
    /// resynth: edits to apply before re-synthesizing (may be empty).
    pub edits: Vec<EditSpec>,
}

/// A parse/validation failure, with the request id when one was
/// recoverable from the line.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// The `id` field, when the line parsed far enough to have one.
    pub id: Option<String>,
    /// Human-readable reason.
    pub message: String,
}

fn fail(id: Option<&str>, message: impl Into<String>) -> RequestError {
    RequestError {
        id: id.map(str::to_string),
        message: message.into(),
    }
}

/// Parses and validates one request line.
///
/// # Errors
///
/// [`RequestError`] with the offending line's id when recoverable.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let doc = json::parse(line).map_err(|e| fail(None, format!("invalid JSON: {e}")))?;
    let id = doc.get("id").and_then(Value::as_str).map(str::to_string);
    // The minimal telemetry probe: `{"op":"stats"}` (or the regular
    // `"kind":"stats"`), with schema and id optional. A stats read
    // must stay answerable by the dumbest possible client — a
    // monitoring script with netcat.
    let op_or_kind = doc
        .get("kind")
        .and_then(Value::as_str)
        .or_else(|| doc.get("op").and_then(Value::as_str));
    if op_or_kind == Some("stats") {
        return Ok(stats_request(id.unwrap_or_default()));
    }
    match doc.get("schema").and_then(Value::as_str) {
        Some(REQUEST_SCHEMA) => {}
        Some(other) => {
            return Err(fail(
                id.as_deref(),
                format!("unsupported schema {other:?} (expected {REQUEST_SCHEMA:?})"),
            ))
        }
        None => return Err(fail(id.as_deref(), "missing \"schema\"")),
    }
    let Some(id) = id else {
        return Err(fail(None, "missing \"id\" (a string)"));
    };
    let kind = match doc.get("kind").and_then(Value::as_str) {
        Some("synth") => RequestKind::Synth,
        Some("analyze") => RequestKind::Analyze,
        Some("resynth") => RequestKind::Resynth,
        Some("ping") => RequestKind::Ping,
        Some("cancel") => RequestKind::Cancel,
        Some("shutdown") => RequestKind::Shutdown,
        Some(other) => return Err(fail(Some(&id), format!("unknown kind {other:?}"))),
        None => return Err(fail(Some(&id), "missing \"kind\"")),
    };
    let str_field = |key: &str| doc.get(key).and_then(Value::as_str).map(str::to_string);
    let num_field = |key: &str| -> Result<Option<f64>, RequestError> {
        match doc.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(Value::Num(n)) => Ok(Some(*n)),
            Some(_) => Err(fail(Some(&id), format!("{key:?} must be a number"))),
        }
    };
    let usize_field = |key: &str| -> Result<Option<usize>, RequestError> {
        match num_field(key)? {
            None => Ok(None),
            Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(Some(n as usize)),
            Some(_) => Err(fail(
                Some(&id),
                format!("{key:?} must be a non-negative integer"),
            )),
        }
    };
    let bool_field = |key: &str, default: bool| -> Result<bool, RequestError> {
        match doc.get(key) {
            None | Some(Value::Null) => Ok(default),
            Some(Value::Bool(b)) => Ok(*b),
            Some(_) => Err(fail(Some(&id), format!("{key:?} must be a boolean"))),
        }
    };

    let mut req = Request {
        id: id.clone(),
        kind,
        instance: String::new(),
        library: String::new(),
        priority: num_field("priority")?.unwrap_or(0.0) as i64,
        threads: usize_field("threads")?,
        greedy: bool_field("greedy", false)?,
        max_k: usize_field("max_k")?,
        lb_gate: bool_field("lb_gate", true)?,
        ledger: bool_field("ledger", false)?,
        fail_k: usize_field("fail_k")?,
        scenario_budget: usize_field("scenario_budget")?,
        max_cost_overhead: num_field("max_cost_overhead")?,
        target: str_field("target"),
        session: str_field("session"),
        edits: Vec::new(),
    };
    if let Some(pct) = req.max_cost_overhead {
        if !pct.is_finite() || pct < 0.0 {
            return Err(fail(
                Some(&id),
                "\"max_cost_overhead\" must be a non-negative percent",
            ));
        }
    }
    match kind {
        RequestKind::Synth | RequestKind::Analyze => {
            req.instance = str_field("instance")
                .ok_or_else(|| fail(Some(&id), "missing \"instance\" (instance file text)"))?;
            req.library = str_field("library")
                .ok_or_else(|| fail(Some(&id), "missing \"library\" (library file text)"))?;
        }
        RequestKind::Resynth => {
            if req.session.is_none() {
                return Err(fail(
                    Some(&id),
                    "resynth needs \"session\" (a session name)",
                ));
            }
            // instance/library are optional here: required only on the
            // request that creates the session (checked at run time).
            req.instance = str_field("instance").unwrap_or_default();
            req.library = str_field("library").unwrap_or_default();
            req.edits = parse_edits(&doc, &id)?;
        }
        RequestKind::Cancel => {
            if req.target.is_none() {
                return Err(fail(Some(&id), "cancel needs \"target\" (a request id)"));
            }
        }
        RequestKind::Ping | RequestKind::Stats | RequestKind::Shutdown => {}
    }
    Ok(req)
}

/// The parsed form of a stats probe with correlation id `id` (may be
/// empty: the minimal `{"op":"stats"}` probe has none).
fn stats_request(id: String) -> Request {
    Request {
        id,
        kind: RequestKind::Stats,
        instance: String::new(),
        library: String::new(),
        priority: 0,
        threads: None,
        greedy: false,
        max_k: None,
        lb_gate: true,
        ledger: false,
        fail_k: None,
        scenario_budget: None,
        max_cost_overhead: None,
        target: None,
        session: None,
        edits: Vec::new(),
    }
}

/// Parses the `edits` array of a resynth request (absent/null = empty).
fn parse_edits(doc: &Value, id: &str) -> Result<Vec<EditSpec>, RequestError> {
    let items = match doc.get("edits") {
        None | Some(Value::Null) => return Ok(Vec::new()),
        Some(Value::Arr(items)) => items,
        Some(_) => return Err(fail(Some(id), "\"edits\" must be an array")),
    };
    let mut edits = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let bad = |why: String| fail(Some(id), format!("edits[{i}]: {why}"));
        let num = |key: &str| -> Result<f64, RequestError> {
            match item.get(key) {
                Some(Value::Num(n)) => Ok(*n),
                _ => Err(bad(format!("missing numeric {key:?}"))),
            }
        };
        let arc = |key: &str| -> Result<usize, RequestError> {
            let n = num(key)?;
            if n >= 0.0 && n.fract() == 0.0 {
                Ok(n as usize)
            } else {
                Err(bad(format!("{key:?} must be a non-negative integer")))
            }
        };
        let text = |key: &str| -> Result<String, RequestError> {
            item.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(format!("missing string {key:?}")))
        };
        match item.get("op").and_then(Value::as_str) {
            Some("arc_rate") => {
                let mbps = num("mbps")?;
                if !mbps.is_finite() || mbps <= 0.0 {
                    return Err(bad("\"mbps\" must be finite and positive".to_string()));
                }
                edits.push(EditSpec::ArcRate {
                    arc: arc("arc")?,
                    mbps,
                });
            }
            Some("arc_bound") => {
                let hops = match item.get("hops") {
                    None | Some(Value::Null) => None,
                    Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u32),
                    Some(_) => {
                        return Err(bad(
                            "\"hops\" must be a non-negative integer or null".to_string()
                        ))
                    }
                };
                edits.push(EditSpec::ArcBound {
                    arc: arc("arc")?,
                    hops,
                });
            }
            Some("move") => {
                let (x, y) = (num("x")?, num("y")?);
                if !x.is_finite() || !y.is_finite() {
                    return Err(bad("positions must be finite".to_string()));
                }
                edits.push(EditSpec::MovePort {
                    port: text("port")?,
                    x,
                    y,
                });
            }
            Some("library") => edits.push(EditSpec::Library {
                text: text("text")?,
            }),
            Some(other) => return Err(bad(format!("unknown op {other:?}"))),
            None => return Err(bad("missing \"op\"".to_string())),
        }
    }
    Ok(edits)
}

/// A line-atomic sink for response lines (one complete JSON line per
/// call, concurrently usable from every worker).
pub trait ResponseSink: Send + Sync {
    /// Writes one line (already `\n`-terminated).
    fn send_line(&self, line: &str);
}

/// A sink over any writer; lines are written and flushed under a lock.
pub struct WriterSink<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> WriterSink<W> {
    /// Wraps `out`.
    pub fn new(out: W) -> Arc<WriterSink<W>> {
        Arc::new(WriterSink {
            out: Mutex::new(out),
        })
    }
}

impl<W: Write + Send> ResponseSink for WriterSink<W> {
    fn send_line(&self, line: &str) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        // A dead peer must not take the daemon down with it.
        let _ = out.write_all(line.as_bytes());
        let _ = out.flush();
    }
}

fn send_value(sink: &dyn ResponseSink, value: &Value) {
    let mut line = String::new();
    value.write_compact(&mut line);
    line.push('\n');
    sink.send_line(&line);
}

fn response_base(id: &str, status: &str) -> BTreeMap<String, Value> {
    let mut obj = BTreeMap::new();
    obj.insert(
        "schema".to_string(),
        Value::Str(RESPONSE_SCHEMA.to_string()),
    );
    obj.insert("id".to_string(), Value::Str(id.to_string()));
    obj.insert("status".to_string(), Value::Str(status.to_string()));
    obj
}

/// An error response; `id` is `null` when the line had none.
pub fn error_response(id: Option<&str>, message: &str) -> Value {
    let mut obj = response_base(id.unwrap_or(""), "error");
    if id.is_none() {
        obj.insert("id".to_string(), Value::Null);
    }
    obj.insert("error".to_string(), Value::Str(message.to_string()));
    Value::Obj(obj)
}

fn cancelled_response(req: &Request) -> Value {
    let mut obj = response_base(&req.id, "cancelled");
    obj.insert("kind".to_string(), Value::Str(req.kind.id().to_string()));
    Value::Obj(obj)
}

/// One [`SLOW_SCHEMA`] JSONL entry: id, op, outcome, the three
/// telemetry timings, and the response's embedded `ccs-metrics-v1`
/// (when the request produced one).
fn slow_entry(req: &Request, response: &Value, queue_wait: u64, run: u64, total: u64) -> String {
    let mut obj = BTreeMap::new();
    obj.insert("schema".to_string(), Value::Str(SLOW_SCHEMA.to_string()));
    obj.insert("id".to_string(), Value::Str(req.id.clone()));
    obj.insert("op".to_string(), Value::Str(req.kind.id().to_string()));
    if let Value::Obj(map) = response {
        if let Some(status) = map.get("status") {
            obj.insert("status".to_string(), status.clone());
        }
        if let Some(metrics) = map.get("metrics") {
            obj.insert("metrics".to_string(), metrics.clone());
        }
    }
    obj.insert("queue_wait_ns".to_string(), Value::Num(queue_wait as f64));
    obj.insert("run_ns".to_string(), Value::Num(run as f64));
    obj.insert("total_ns".to_string(), Value::Num(total as f64));
    let mut line = String::new();
    Value::Obj(obj).write_compact(&mut line);
    line
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP listen address (e.g. `"127.0.0.1:0"`); `None` = stdin mode.
    pub listen: Option<String>,
    /// Concurrent request slots (worker threads popping the queue);
    /// `0` resolves to `min(4, available parallelism)`.
    pub workers: usize,
    /// Default per-request synthesis threads when a request does not
    /// say; `0` resolves through [`ccs_exec::default_threads`]. The
    /// daemon default is 1: with several request slots busy,
    /// intra-request parallelism oversubscribes the machine.
    pub request_threads: usize,
    /// Per-shard capacity of the shared placement caches.
    pub cache_per_shard: usize,
    /// Per-cause sample cap of returned ledgers (must match the
    /// one-shot CLI's cap for byte-identical documents).
    pub ledger_cap: usize,
    /// Collect service telemetry (histograms, gauges, windows).
    /// Disabling skips every clock read and histogram record; counters
    /// that feed the shutdown ack (cache hits/misses, rejections) stay
    /// live either way.
    pub telemetry: bool,
    /// Emit one [`STATS_SCHEMA`] JSON line to [`ServeConfig::stats_log`]
    /// every this many seconds (`None` = no periodic emission).
    pub stats_interval: Option<u64>,
    /// Destination of the periodic stats lines.
    pub stats_log: Option<PathBuf>,
    /// Capture requests with total latency at or above this many
    /// milliseconds to [`ServeConfig::slow_log`] (`None` = default
    /// threshold of 1000 ms when a slow log is configured).
    pub slow_ms: Option<u64>,
    /// Destination JSONL of slow-request captures (`None` = capture
    /// disabled). Bounded on disk at `4 *` [`SLOW_LOG_CAP`] entries.
    pub slow_log: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: None,
            workers: 0,
            request_threads: 1,
            cache_per_shard: DEFAULT_CACHE_PER_SHARD,
            ledger_cap: ccs_obs::ledger::DEFAULT_CAP,
            telemetry: true,
            stats_interval: None,
            stats_log: None,
            slow_ms: None,
            slow_log: None,
        }
    }
}

impl ServeConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            ccs_exec::available().min(4)
        }
    }
}

/// Counters reported by the shutdown response and [`Server::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests answered with a full body.
    pub served: u64,
    /// Requests answered `"cancelled"`.
    pub cancelled: u64,
    /// Lines answered `"error"`.
    pub errors: u64,
    /// Requests refused before queueing (duplicate ids, submissions
    /// after shutdown began). A subset of `errors`.
    pub rejected: u64,
    /// Wall-clock nanoseconds since the engine started.
    pub uptime_ns: u64,
    /// Most jobs ever waiting in the queue at once (0 with telemetry
    /// disabled).
    pub queue_depth_hwm: u64,
    /// Most jobs ever executing at once (0 with telemetry disabled).
    pub inflight_hwm: u64,
    /// Shared placement-cache table hits (request-level: a synth whose
    /// library already has a shared cache).
    pub cache_hits: u64,
    /// Shared placement-cache table misses (a fresh cache was built).
    pub cache_misses: u64,
}

struct Job {
    req: Request,
    cancel: CancelToken,
    sink: Arc<dyn ResponseSink>,
    /// Telemetry-clock enqueue time; `None` with telemetry disabled.
    enqueued_ns: Option<u64>,
}

/// Per-op latency histograms: how long jobs waited in the queue, how
/// long they ran, and the end-to-end total, each with rolling windows.
#[derive(Debug, Default)]
struct OpTelemetry {
    queue_wait: Windowed,
    run: Windowed,
    total: Windowed,
}

/// The service-telemetry registry: everything behind the
/// [`STATS_SCHEMA`] document. Wall-clock, outside all byte-identity
/// contracts; see the module docs.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    start: Instant,
    ops: [OpTelemetry; 3],
    queue_depth: AtomicU64,
    queue_depth_hwm: AtomicU64,
    inflight: AtomicU64,
    inflight_hwm: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    rejected: AtomicU64,
}

impl Telemetry {
    fn new(enabled: bool) -> Telemetry {
        Telemetry {
            enabled,
            start: Instant::now(),
            ops: Default::default(),
            queue_depth: AtomicU64::new(0),
            queue_depth_hwm: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            inflight_hwm: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_evictions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Whether histogram/gauge collection is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the engine started (the telemetry clock).
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn enqueued(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_hwm.fetch_max(depth, Ordering::Relaxed);
    }

    fn started(&self) {
        // A job popped by a worker: off the queue, onto the in-flight
        // gauge. Saturating: a queued-then-cancelled job still pops.
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            });
        let inflight = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        self.inflight_hwm.fetch_max(inflight, Ordering::Relaxed);
    }

    fn finished(&self) {
        let _ = self
            .inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            });
    }

    fn record_op(&self, op: usize, queue_wait: u64, run: u64, total: u64, now_ns: u64) {
        let slot = &self.ops[op];
        slot.queue_wait.record(queue_wait, now_ns);
        slot.run.record(run, now_ns);
        slot.total.record(total, now_ns);
    }

    fn window_json(snap: &Snapshot, span_secs: f64) -> Value {
        let mut obj = BTreeMap::new();
        let count = snap.count();
        obj.insert("count".to_string(), Value::Num(count as f64));
        obj.insert(
            "rate_per_sec".to_string(),
            Value::Num(if span_secs > 0.0 {
                count as f64 / span_secs
            } else {
                0.0
            }),
        );
        obj.insert("mean_ns".to_string(), Value::Num(snap.mean() as f64));
        obj.insert("min_ns".to_string(), Value::Num(snap.min() as f64));
        obj.insert("max_ns".to_string(), Value::Num(snap.max() as f64));
        for (name, q) in [("p50_ns", 0.50), ("p90_ns", 0.90), ("p99_ns", 0.99)] {
            obj.insert(name.to_string(), Value::Num(snap.quantile(q) as f64));
        }
        Value::Obj(obj)
    }

    fn metric_json(w: &Windowed, now_ns: u64) -> Value {
        let uptime_secs = now_ns as f64 / 1e9;
        let mut obj = BTreeMap::new();
        obj.insert(
            "last_10s".to_string(),
            Self::window_json(&w.window(now_ns, 10_000_000_000), uptime_secs.min(10.0)),
        );
        obj.insert(
            "last_60s".to_string(),
            Self::window_json(&w.window(now_ns, 60_000_000_000), uptime_secs.min(60.0)),
        );
        obj.insert(
            "lifetime".to_string(),
            Self::window_json(&w.lifetime(), uptime_secs),
        );
        Value::Obj(obj)
    }

    fn ops_json(&self, now_ns: u64) -> Value {
        let mut ops = BTreeMap::new();
        for (name, slot) in OP_NAMES.iter().zip(&self.ops) {
            let mut op = BTreeMap::new();
            op.insert(
                "queue_wait".to_string(),
                Self::metric_json(&slot.queue_wait, now_ns),
            );
            op.insert("run".to_string(), Self::metric_json(&slot.run, now_ns));
            op.insert("total".to_string(), Self::metric_json(&slot.total, now_ns));
            ops.insert((*name).to_string(), Value::Obj(op));
        }
        Value::Obj(ops)
    }
}

/// Bounded on-disk capture of slow requests. The in-memory ring keeps
/// the last [`SLOW_LOG_CAP`] entry lines; appends go straight to the
/// file until it holds `4 * SLOW_LOG_CAP` lines, at which point it is
/// compacted back to the ring's contents — so disk stays bounded and
/// the most recent slow requests always survive.
struct SlowLog {
    path: PathBuf,
    threshold_ns: u64,
    state: Mutex<SlowState>,
}

#[derive(Default)]
struct SlowState {
    recent: VecDeque<String>,
    on_disk: u64,
}

impl SlowLog {
    fn new(path: PathBuf, threshold_ns: u64) -> SlowLog {
        SlowLog {
            path,
            threshold_ns,
            state: Mutex::new(SlowState::default()),
        }
    }

    fn capture(&self, line: String) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.recent.push_back(line.clone());
        while state.recent.len() > SLOW_LOG_CAP {
            state.recent.pop_front();
        }
        // A full disk or unwritable path must never take a worker
        // down; the capture is best-effort by design.
        if state.on_disk as usize >= 4 * SLOW_LOG_CAP {
            let mut all = String::new();
            for l in &state.recent {
                all.push_str(l);
                all.push('\n');
            }
            if std::fs::write(&self.path, all).is_ok() {
                state.on_disk = state.recent.len() as u64;
            }
        } else {
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)
                .and_then(|mut f| writeln!(f, "{line}"));
            if appended.is_ok() {
                state.on_disk += 1;
            }
        }
    }
}

/// What [`Engine::submit_line`] did with a line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submit {
    /// Queued for a worker (synth/analyze).
    Queued,
    /// Answered inline (ping, cancel, errors).
    Handled,
    /// A shutdown request: the caller must stop intake, drain, then
    /// call [`Engine::shutdown_ack`] with this id and sink.
    Shutdown(String),
}

/// The request engine: a priority queue of jobs, the in-flight cancel
/// registry, and the per-library shared placement caches. Transport
/// (stdin/TCP) lives in [`Server`]; the engine is transport-agnostic,
/// which is what the interleaving tests exercise in-process.
pub struct Engine {
    queue: JobQueue<Job>,
    inflight: Mutex<HashMap<String, CancelToken>>,
    /// Per-library shared placement caches, keyed by the FNV-1a
    /// fingerprint of the library text. The full text is stored
    /// alongside and verified on every hit: a 64-bit fingerprint can
    /// collide, and serving another library's placement solves would
    /// silently corrupt results.
    caches: Mutex<BTreeMap<u64, (String, Arc<PlacementCache>)>>,
    /// Named incremental re-synthesis sessions (`resynth` requests).
    sessions: Mutex<BTreeMap<String, Arc<Mutex<SynthesisSession>>>>,
    /// Recently completed request ids: a late duplicate (an id reused
    /// after its request already answered) is rejected like an
    /// in-flight duplicate, instead of interleaving two responses
    /// under one id.
    completed: Mutex<CompletedIds>,
    request_threads: usize,
    cache_per_shard: usize,
    ledger_cap: usize,
    served: AtomicU64,
    cancelled: AtomicU64,
    errors: AtomicU64,
    telemetry: Telemetry,
    slow: Option<SlowLog>,
}

/// A bounded insertion-ordered set of recently completed request ids.
#[derive(Default)]
struct CompletedIds {
    set: HashSet<String>,
    order: VecDeque<String>,
}

impl CompletedIds {
    fn insert(&mut self, id: String) {
        if self.set.insert(id.clone()) {
            self.order.push_back(id);
            while self.order.len() > COMPLETED_IDS_CAP {
                if let Some(old) = self.order.pop_front() {
                    self.set.remove(&old);
                }
            }
        }
    }

    fn contains(&self, id: &str) -> bool {
        self.set.contains(id)
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("queued", &self.queue.len())
            .field("summary", &self.summary())
            .finish_non_exhaustive()
    }
}

/// FNV-1a over a byte string (the library fingerprint).
fn fingerprint(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Engine {
    /// A fresh engine for `cfg`.
    pub fn new(cfg: &ServeConfig) -> Arc<Engine> {
        Arc::new(Engine {
            queue: JobQueue::new(),
            inflight: Mutex::new(HashMap::new()),
            caches: Mutex::new(BTreeMap::new()),
            sessions: Mutex::new(BTreeMap::new()),
            completed: Mutex::new(CompletedIds::default()),
            request_threads: cfg.request_threads,
            cache_per_shard: cfg.cache_per_shard.max(1),
            ledger_cap: cfg.ledger_cap.max(1),
            served: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            telemetry: Telemetry::new(cfg.telemetry),
            slow: cfg.slow_log.as_ref().map(|path| {
                SlowLog::new(
                    path.clone(),
                    cfg.slow_ms.unwrap_or(1000).saturating_mul(1_000_000),
                )
            }),
        })
    }

    /// The counters so far.
    pub fn summary(&self) -> ServeSummary {
        let t = &self.telemetry;
        ServeSummary {
            served: self.served.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            rejected: t.rejected.load(Ordering::Relaxed),
            uptime_ns: t.now_ns(),
            queue_depth_hwm: t.queue_depth_hwm.load(Ordering::Relaxed),
            inflight_hwm: t.inflight_hwm.load(Ordering::Relaxed),
            cache_hits: t.cache_hits.load(Ordering::Relaxed),
            cache_misses: t.cache_misses.load(Ordering::Relaxed),
        }
    }

    /// The service telemetry registry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The full [`STATS_SCHEMA`] document: lifetime counters, queue and
    /// in-flight gauges (live values, plus high-watermarks when
    /// telemetry is on), placement-cache tallies, and per-op latency
    /// histograms over last-10s / last-60s / lifetime windows. The
    /// document is wall-clock and self-declared non-deterministic —
    /// never diff it for byte identity.
    pub fn stats_json(&self) -> Value {
        let t = &self.telemetry;
        let now = t.now_ns();
        let mut obj = BTreeMap::new();
        obj.insert("schema".to_string(), Value::Str(STATS_SCHEMA.to_string()));
        obj.insert("deterministic".to_string(), Value::Bool(false));
        obj.insert("telemetry".to_string(), Value::Bool(t.enabled));
        obj.insert("uptime_ns".to_string(), Value::Num(now as f64));
        obj.insert(
            "served".to_string(),
            Value::Num(self.served.load(Ordering::Relaxed) as f64),
        );
        obj.insert(
            "cancelled".to_string(),
            Value::Num(self.cancelled.load(Ordering::Relaxed) as f64),
        );
        obj.insert(
            "errors".to_string(),
            Value::Num(self.errors.load(Ordering::Relaxed) as f64),
        );
        obj.insert(
            "rejected".to_string(),
            Value::Num(t.rejected.load(Ordering::Relaxed) as f64),
        );
        let mut queue = BTreeMap::new();
        queue.insert("depth".to_string(), Value::Num(self.queue.len() as f64));
        queue.insert(
            "depth_hwm".to_string(),
            Value::Num(t.queue_depth_hwm.load(Ordering::Relaxed) as f64),
        );
        let inflight = self
            .inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len();
        queue.insert("inflight".to_string(), Value::Num(inflight as f64));
        queue.insert(
            "inflight_hwm".to_string(),
            Value::Num(t.inflight_hwm.load(Ordering::Relaxed) as f64),
        );
        obj.insert("queue".to_string(), Value::Obj(queue));
        let mut cache = BTreeMap::new();
        cache.insert(
            "hits".to_string(),
            Value::Num(t.cache_hits.load(Ordering::Relaxed) as f64),
        );
        cache.insert(
            "misses".to_string(),
            Value::Num(t.cache_misses.load(Ordering::Relaxed) as f64),
        );
        cache.insert(
            "evictions".to_string(),
            Value::Num(t.cache_evictions.load(Ordering::Relaxed) as f64),
        );
        let libraries = self.caches.lock().unwrap_or_else(|e| e.into_inner()).len();
        cache.insert("libraries".to_string(), Value::Num(libraries as f64));
        obj.insert("cache".to_string(), Value::Obj(cache));
        let sessions = self
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len();
        obj.insert("sessions".to_string(), Value::Num(sessions as f64));
        obj.insert("ops".to_string(), t.ops_json(now));
        Value::Obj(obj)
    }

    /// Jobs queued but not yet picked up.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The shared placement cache for this library text, creating (and
    /// bounding the library set) as needed. On a fingerprint collision
    /// (the stored text differs from `library_text`) the entry is NOT
    /// served: the caller gets a fresh private cache instead, so a
    /// colliding library can never observe another library's solves.
    fn cache_for(&self, library_text: &str) -> Arc<PlacementCache> {
        let key = fingerprint(library_text);
        let mut caches = self.caches.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((text, cache)) = caches.get(&key) {
            if text == library_text {
                self.telemetry.cache_hits.fetch_add(1, Ordering::Relaxed);
                return cache.clone();
            }
            // Collision: the slot belongs to a different library. Hand
            // out an unshared cache — correctness over reuse.
            self.telemetry.cache_misses.fetch_add(1, Ordering::Relaxed);
            return Arc::new(PlacementCache::bounded(self.cache_per_shard));
        }
        self.telemetry.cache_misses.fetch_add(1, Ordering::Relaxed);
        let cache = Arc::new(PlacementCache::bounded(self.cache_per_shard));
        caches.insert(key, (library_text.to_string(), cache.clone()));
        while caches.len() > MAX_LIBRARIES {
            // Deterministic bound: drop the largest fingerprint (the
            // BTreeMap's last key), independent of arrival order.
            let last = *caches.keys().next_back().expect("non-empty");
            caches.remove(&last);
            self.telemetry
                .cache_evictions
                .fetch_add(1, Ordering::Relaxed);
        }
        cache
    }

    /// Parses one line and dispatches it. Ping/cancel/errors are
    /// answered inline; synth/analyze are queued.
    pub fn submit_line(&self, line: &str, sink: &Arc<dyn ResponseSink>) -> Submit {
        match parse_request(line) {
            Ok(req) => self.submit(req, sink),
            Err(e) => self.reject(e.id.as_deref(), &e.message, sink),
        }
    }

    /// Answers a line that never became a request with one counted
    /// `error` response.
    fn reject(&self, id: Option<&str>, message: &str, sink: &Arc<dyn ResponseSink>) -> Submit {
        self.errors.fetch_add(1, Ordering::Relaxed);
        send_value(sink.as_ref(), &error_response(id, message));
        Submit::Handled
    }

    /// Dispatches an already-parsed request.
    pub fn submit(&self, req: Request, sink: &Arc<dyn ResponseSink>) -> Submit {
        match req.kind {
            RequestKind::Ping => {
                let mut obj = response_base(&req.id, "ok");
                obj.insert("kind".to_string(), Value::Str("ping".to_string()));
                send_value(sink.as_ref(), &Value::Obj(obj));
                Submit::Handled
            }
            RequestKind::Stats => {
                // Answered inline by the reader thread, like ping: a
                // stats read must never queue behind synthesis work.
                let mut obj = response_base(&req.id, "ok");
                obj.insert("kind".to_string(), Value::Str("stats".to_string()));
                obj.insert("stats".to_string(), self.stats_json());
                send_value(sink.as_ref(), &Value::Obj(obj));
                Submit::Handled
            }
            RequestKind::Cancel => {
                let target = req.target.as_deref().unwrap_or("");
                let token = {
                    let inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
                    inflight.get(target).cloned()
                };
                let found = token.is_some();
                if let Some(token) = token {
                    token.cancel();
                }
                let mut obj = response_base(&req.id, "ok");
                obj.insert("kind".to_string(), Value::Str("cancel".to_string()));
                obj.insert("target".to_string(), Value::Str(target.to_string()));
                obj.insert("found".to_string(), Value::Bool(found));
                send_value(sink.as_ref(), &Value::Obj(obj));
                Submit::Handled
            }
            RequestKind::Shutdown => Submit::Shutdown(req.id),
            RequestKind::Synth | RequestKind::Analyze | RequestKind::Resynth => {
                let cancel = CancelToken::new();
                {
                    let completed = self.completed.lock().unwrap_or_else(|e| e.into_inner());
                    if completed.contains(&req.id) {
                        drop(completed);
                        self.errors.fetch_add(1, Ordering::Relaxed);
                        self.telemetry.rejected.fetch_add(1, Ordering::Relaxed);
                        send_value(
                            sink.as_ref(),
                            &error_response(Some(&req.id), "duplicate id (already completed)"),
                        );
                        return Submit::Handled;
                    }
                }
                {
                    let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
                    if inflight.contains_key(&req.id) {
                        drop(inflight);
                        self.errors.fetch_add(1, Ordering::Relaxed);
                        self.telemetry.rejected.fetch_add(1, Ordering::Relaxed);
                        send_value(
                            sink.as_ref(),
                            &error_response(Some(&req.id), "duplicate in-flight id"),
                        );
                        return Submit::Handled;
                    }
                    inflight.insert(req.id.clone(), cancel.clone());
                }
                let priority = req.priority;
                let id = req.id.clone();
                let enqueued_ns = self.telemetry.enabled.then(|| self.telemetry.now_ns());
                let job = Job {
                    req,
                    cancel,
                    sink: sink.clone(),
                    enqueued_ns,
                };
                match self.queue.push(priority, job) {
                    Ok(()) => {
                        if self.telemetry.enabled {
                            self.telemetry.enqueued();
                        }
                        Submit::Queued
                    }
                    Err(_job) => {
                        self.inflight
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .remove(&id);
                        self.errors.fetch_add(1, Ordering::Relaxed);
                        self.telemetry.rejected.fetch_add(1, Ordering::Relaxed);
                        send_value(
                            sink.as_ref(),
                            &error_response(Some(&id), "server is shutting down"),
                        );
                        Submit::Handled
                    }
                }
            }
        }
    }

    /// Pops and runs jobs until the queue is closed and drained. Each
    /// worker thread of the server runs this loop.
    pub fn worker_loop(&self) {
        while let Some(job) = self.queue.pop() {
            self.run_job(job);
        }
    }

    /// Stops intake: queued jobs still drain, new pushes are rejected.
    pub fn close(&self) {
        self.queue.close();
    }

    /// Sends the final shutdown response (call after every worker has
    /// drained).
    pub fn shutdown_ack(&self, id: &str, sink: &Arc<dyn ResponseSink>) {
        let s = self.summary();
        let mut obj = response_base(id, "ok");
        obj.insert("kind".to_string(), Value::Str("shutdown".to_string()));
        obj.insert("served".to_string(), Value::Num(s.served as f64));
        obj.insert("cancelled".to_string(), Value::Num(s.cancelled as f64));
        obj.insert("errors".to_string(), Value::Num(s.errors as f64));
        obj.insert("rejected".to_string(), Value::Num(s.rejected as f64));
        obj.insert("uptime_ns".to_string(), Value::Num(s.uptime_ns as f64));
        obj.insert(
            "queue_depth_hwm".to_string(),
            Value::Num(s.queue_depth_hwm as f64),
        );
        obj.insert(
            "inflight_hwm".to_string(),
            Value::Num(s.inflight_hwm as f64),
        );
        obj.insert("cache_hits".to_string(), Value::Num(s.cache_hits as f64));
        obj.insert(
            "cache_misses".to_string(),
            Value::Num(s.cache_misses as f64),
        );
        send_value(sink.as_ref(), &Value::Obj(obj));
    }

    fn run_job(&self, job: Job) {
        let t = &self.telemetry;
        let started_ns = job.enqueued_ns.map(|_| t.now_ns());
        if t.enabled {
            t.started();
        }
        let response = if job.cancel.is_cancelled() {
            // Cancelled while still queued: never started, no body.
            self.cancelled.fetch_add(1, Ordering::Relaxed);
            cancelled_response(&job.req)
        } else {
            self.execute(&job)
        };
        if t.enabled {
            t.finished();
        }
        // Unregister before responding: a cancel that loses the race
        // reports found=false rather than cancelling a finished id.
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&job.req.id);
        // Remember the id: a late reuse is rejected, not interleaved.
        self.completed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(job.req.id.clone());
        send_value(job.sink.as_ref(), &response);
        // Record latencies after responding: telemetry never delays the
        // answer. `enqueued_ns` is `None` with telemetry disabled, so
        // the whole block (including the slow capture) is skipped.
        if let (Some(enqueued), Some(started), Some(op)) =
            (job.enqueued_ns, started_ns, job.req.kind.op_index())
        {
            let done = t.now_ns();
            let queue_wait = started.saturating_sub(enqueued);
            let run = done.saturating_sub(started);
            let total = done.saturating_sub(enqueued);
            t.record_op(op, queue_wait, run, total, done);
            if let Some(slow) = &self.slow {
                if total >= slow.threshold_ns {
                    slow.capture(slow_entry(&job.req, &response, queue_wait, run, total));
                }
            }
        }
    }

    /// Runs one synth/analyze job to a response value. The whole run
    /// executes inside the request's observability scope, so its
    /// metrics and ledger are exactly what a one-shot run of the same
    /// request records.
    fn execute(&self, job: &Job) -> Value {
        if job.req.kind == RequestKind::Resynth {
            return self.execute_resynth(job);
        }
        let req = &job.req;
        let fail = |msg: &str| {
            self.errors.fetch_add(1, Ordering::Relaxed);
            error_response(Some(&req.id), msg)
        };
        let graph = match io::instance_from_str(&req.instance) {
            Ok(g) => g,
            Err(e) => return fail(&format!("instance: {e}")),
        };
        let library = match io::library_from_str(&req.library) {
            Ok(l) => l,
            Err(e) => return fail(&format!("library: {e}")),
        };

        let collector = Collector::new();
        let obs = RequestObs::new(
            Some(collector.clone() as Arc<dyn Record>),
            req.ledger.then_some(self.ledger_cap),
        );
        let guard = ccs_obs::scope::enter(obs.clone());

        let threads = req.threads.unwrap_or(self.request_threads);
        let mut cfg = SynthesisConfig::default();
        if req.greedy {
            cfg.cover = CoverStrategy::Greedy;
        }
        cfg.merge.max_k = req.max_k;
        cfg.merge.lb_gate = req.lb_gate;
        cfg.threads = threads;
        cfg.cancel = job.cancel.clone();
        cfg.shared_cache = Some(self.cache_for(&req.library));
        let result = Synthesizer::new(&graph, &library).with_config(cfg).run();
        let r = match result {
            Ok(r) => r,
            Err(SynthesisError::Cancelled) => {
                drop(guard);
                self.cancelled.fetch_add(1, Ordering::Relaxed);
                return cancelled_response(req);
            }
            Err(e) => {
                drop(guard);
                return fail(&e.to_string());
            }
        };

        let mut sections: Vec<(&str, Value)> =
            vec![("topology", report::topology_json(&r, &graph, &library))];
        if req.kind == RequestKind::Analyze {
            use ccs_netsim::resilience;
            if job.cancel.is_cancelled() {
                drop(guard);
                self.cancelled.fetch_add(1, Ordering::Relaxed);
                return cancelled_response(req);
            }
            let exec = Executor::new(threads);
            let mut rcfg = resilience::ResilienceConfig {
                max_k: req.fail_k.unwrap_or(1).max(1),
                ..Default::default()
            };
            if let Some(b) = req.scenario_budget {
                rcfg.scenario_budget = b;
            }
            let sweep = resilience::analyze(&graph, &r.implementation, &rcfg, &exec);
            let mut doc = resilience::resilience_json(&sweep);
            if let Some(pct) = req.max_cost_overhead {
                let budget = pct / 100.0;
                let points = match resilience::cost_resilience_frontier(&graph, &library, &r, &exec)
                {
                    Ok(p) => p,
                    Err(e) => {
                        drop(guard);
                        return fail(&e.to_string());
                    }
                };
                let chosen = resilience::pick_within_overhead(&points, budget);
                if let Value::Obj(map) = &mut doc {
                    map.insert(
                        "frontier".to_string(),
                        resilience::frontier_json(&points, chosen, Some(budget)),
                    );
                }
            }
            sections.push(("resilience", doc));
        }

        // Stop recording before snapshotting so the response's metrics
        // document is complete and stable.
        drop(guard);
        let mut metrics = collector.snapshot().to_json();
        if let Value::Obj(map) = &mut metrics {
            for (name, section) in sections {
                map.insert(name.to_string(), section);
            }
        }
        let mut obj = response_base(&req.id, "ok");
        obj.insert("kind".to_string(), Value::Str(req.kind.id().to_string()));
        obj.insert("metrics".to_string(), metrics);
        if req.ledger {
            if let Some(ledger) = obs.take_ledger() {
                obj.insert("ledger".to_string(), ledger.to_json());
            }
        }
        self.served.fetch_add(1, Ordering::Relaxed);
        Value::Obj(obj)
    }

    /// Looks up (or creates) the named session for a resynth request.
    fn session_for(
        &self,
        req: &Request,
        cancel: &CancelToken,
    ) -> Result<Arc<Mutex<SynthesisSession>>, String> {
        let name = req.session.as_deref().unwrap_or("");
        let mut sessions = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(slot) = sessions.get(name) {
            return Ok(slot.clone());
        }
        if req.instance.is_empty() || req.library.is_empty() {
            return Err(format!(
                "unknown session {name:?}: the first resynth for a session needs \
                 \"instance\" and \"library\""
            ));
        }
        let graph = io::instance_from_str(&req.instance).map_err(|e| format!("instance: {e}"))?;
        let library = io::library_from_str(&req.library).map_err(|e| format!("library: {e}"))?;
        // The session pins its configuration (pruning and covering
        // knobs fix which verdicts are cacheable); later requests only
        // swap the cancel token.
        let mut cfg = SynthesisConfig::default();
        if req.greedy {
            cfg.cover = CoverStrategy::Greedy;
        }
        cfg.merge.max_k = req.max_k;
        cfg.merge.lb_gate = req.lb_gate;
        cfg.threads = req.threads.unwrap_or(self.request_threads);
        cfg.cancel = cancel.clone();
        cfg.shared_cache = Some(self.cache_for(&req.library));
        let slot = Arc::new(Mutex::new(SynthesisSession::new(graph, library, cfg)));
        sessions.insert(name.to_string(), slot.clone());
        while sessions.len() > MAX_SESSIONS {
            let last = sessions.keys().next_back().expect("non-empty").clone();
            sessions.remove(&last);
        }
        Ok(slot)
    }

    /// Runs one resynth job: find/create the session, apply the edits,
    /// re-synthesize warm, answer with the same body as `synth` (the
    /// topology document is byte-identical to a cold run of the edited
    /// instance). Concurrent resynths on one session serialize on the
    /// session lock.
    fn execute_resynth(&self, job: &Job) -> Value {
        let req = &job.req;
        let fail = |msg: &str| {
            self.errors.fetch_add(1, Ordering::Relaxed);
            error_response(Some(&req.id), msg)
        };
        let slot = match self.session_for(req, &job.cancel) {
            Ok(slot) => slot,
            Err(e) => return fail(&e),
        };
        // Library edits parse outside the obs scope, like synth inputs.
        let mut edits = Vec::with_capacity(req.edits.len());
        for spec in &req.edits {
            edits.push(match spec {
                EditSpec::ArcRate { arc, mbps } => Edit::ArcRate {
                    arc: *arc,
                    bandwidth: Bandwidth::from_mbps(*mbps),
                },
                EditSpec::ArcBound { arc, hops } => Edit::ArcBound {
                    arc: *arc,
                    max_hops: *hops,
                },
                EditSpec::MovePort { port, x, y } => Edit::MovePort {
                    port: port.clone(),
                    position: Point2::new(*x, *y),
                },
                EditSpec::Library { text } => match io::library_from_str(text) {
                    Ok(lib) => Edit::SetLibrary(lib),
                    Err(e) => return fail(&format!("library edit: {e}")),
                },
            });
        }

        let collector = Collector::new();
        let obs = RequestObs::new(
            Some(collector.clone() as Arc<dyn Record>),
            req.ledger.then_some(self.ledger_cap),
        );
        let guard = ccs_obs::scope::enter(obs.clone());
        let mut session = slot.lock().unwrap_or_else(|e| e.into_inner());
        session.set_cancel(job.cancel.clone());
        let r = match session.resynthesize(&edits) {
            Ok(r) => r,
            Err(SynthesisError::Cancelled) => {
                drop(guard);
                self.cancelled.fetch_add(1, Ordering::Relaxed);
                return cancelled_response(req);
            }
            Err(e) => {
                drop(guard);
                return fail(&e.to_string());
            }
        };
        let topology = report::topology_json(&r, session.graph(), session.library());
        drop(session);
        drop(guard);

        let mut metrics = collector.snapshot().to_json();
        if let Value::Obj(map) = &mut metrics {
            map.insert("topology".to_string(), topology);
        }
        let mut obj = response_base(&req.id, "ok");
        obj.insert("kind".to_string(), Value::Str("resynth".to_string()));
        if let Some(name) = &req.session {
            obj.insert("session".to_string(), Value::Str(name.clone()));
        }
        obj.insert("metrics".to_string(), metrics);
        if req.ledger {
            if let Some(ledger) = obs.take_ledger() {
                obj.insert("ledger".to_string(), ledger.to_json());
            }
        }
        self.served.fetch_add(1, Ordering::Relaxed);
        Value::Obj(obj)
    }
}

/// (shutdown id, sink to answer on) once a shutdown request arrives.
type PendingShutdown = Option<(String, Arc<dyn ResponseSink>)>;

/// The daemon: an [`Engine`] plus a transport (stdin or TCP).
pub struct Server {
    engine: Arc<Engine>,
    listener: Option<TcpListener>,
    cfg: ServeConfig,
}

impl Server {
    /// Builds the server, binding the TCP listener when
    /// [`ServeConfig::listen`] is set (port 0 picks a free port;
    /// [`Server::local_addr`] reports the resolved address).
    ///
    /// # Errors
    ///
    /// A human-readable message when binding fails.
    pub fn bind(cfg: ServeConfig) -> Result<Server, String> {
        let listener = match &cfg.listen {
            Some(addr) => {
                Some(TcpListener::bind(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?)
            }
            None => None,
        };
        Ok(Server {
            engine: Engine::new(&cfg),
            listener,
            cfg,
        })
    }

    /// The bound TCP address, in TCP mode.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.listener.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// The engine (for in-process drivers and tests).
    pub fn engine(&self) -> Arc<Engine> {
        self.engine.clone()
    }

    /// Runs the serve loop to completion (EOF on stdin, or a shutdown
    /// request) and returns the final counters. In TCP mode the
    /// resolved listen address is announced on stdout as one
    /// `ccs serve: listening on ADDR` line before accepting.
    ///
    /// # Errors
    ///
    /// A human-readable message on transport failure.
    pub fn run(self) -> Result<ServeSummary, String> {
        let workers = self.cfg.resolved_workers();
        let engine = self.engine;
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let engine = engine.clone();
            handles.push(std::thread::spawn(move || engine.worker_loop()));
        }

        // Periodic stats emission: one compact ccs-serve-stats-v1 line
        // per interval, appended to --stats-log (stderr without one).
        let stats_stop = Arc::new(AtomicBool::new(false));
        let stats_emitter = self.cfg.stats_interval.map(|secs| {
            let engine = engine.clone();
            let stop = stats_stop.clone();
            let path = self.cfg.stats_log.clone();
            std::thread::spawn(move || {
                let interval = Duration::from_secs(secs.max(1));
                let mut next = Instant::now() + interval;
                while !stop.load(Ordering::Acquire) {
                    // Sleep in short slices so shutdown never waits a
                    // full interval for this thread.
                    std::thread::sleep(Duration::from_millis(50));
                    if Instant::now() < next {
                        continue;
                    }
                    next = Instant::now() + interval;
                    let mut line = String::new();
                    engine.stats_json().write_compact(&mut line);
                    line.push('\n');
                    match &path {
                        Some(path) => {
                            let _ = std::fs::OpenOptions::new()
                                .create(true)
                                .append(true)
                                .open(path)
                                .and_then(|mut f| f.write_all(line.as_bytes()));
                        }
                        None => {
                            let _ = std::io::stderr().write_all(line.as_bytes());
                        }
                    }
                }
            })
        });

        // (shutdown id, sink to answer on) once a shutdown arrives.
        let pending_shutdown: PendingShutdown = match self.listener {
            None => {
                let sink: Arc<dyn ResponseSink> = WriterSink::new(std::io::stdout());
                read_requests(&engine, std::io::stdin().lock(), &sink)
                    .map_err(|e| format!("stdin: {e}"))?
                    .map(|id| (id, sink))
            }
            Some(listener) => {
                let addr = listener
                    .local_addr()
                    .map_err(|e| format!("listener address: {e}"))?;
                {
                    let mut out = std::io::stdout();
                    let _ = writeln!(out, "ccs serve: listening on {addr}");
                    let _ = out.flush();
                }
                listener
                    .set_nonblocking(true)
                    .map_err(|e| format!("listener: {e}"))?;
                let stop = Arc::new(AtomicBool::new(false));
                let pending: Arc<Mutex<PendingShutdown>> = Arc::new(Mutex::new(None));
                while !stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            let engine = engine.clone();
                            let stop = stop.clone();
                            let pending = pending.clone();
                            // Readers block on their own sockets; they
                            // are not joined — the process (or test)
                            // ends with connections closed by peers.
                            std::thread::spawn(move || {
                                serve_connection(&engine, stream, &stop, &pending);
                            });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(e) => return Err(format!("accept: {e}")),
                    }
                }
                let taken = pending.lock().unwrap_or_else(|e| e.into_inner()).take();
                taken
            }
        };

        // Drain: no new jobs, queued ones finish, workers exit.
        engine.close();
        for h in handles {
            let _ = h.join();
        }
        stats_stop.store(true, Ordering::Release);
        if let Some(h) = stats_emitter {
            let _ = h.join();
        }
        if let Some((id, sink)) = pending_shutdown {
            engine.shutdown_ack(&id, &sink);
        }
        Ok(engine.summary())
    }
}

fn serve_connection(
    engine: &Engine,
    stream: TcpStream,
    stop: &AtomicBool,
    pending: &Mutex<PendingShutdown>,
) {
    // Accepted sockets must block regardless of the listener's mode.
    // Without TCP_NODELAY, Nagle's algorithm holds a response written
    // while an earlier one on the same connection is still unacknowledged
    // until the peer's delayed ACK (up to ~40 ms) arrives.
    if stream
        .set_nonblocking(false)
        .and_then(|()| stream.set_nodelay(true))
        .is_err()
    {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let sink: Arc<dyn ResponseSink> = WriterSink::new(write_half);
    // A read error drops the connection like end of input.
    if let Ok(Some(id)) = read_requests(engine, std::io::BufReader::new(stream), &sink) {
        *pending.lock().unwrap_or_else(|e| e.into_inner()) = Some((id, sink));
        stop.store(true, Ordering::Release);
    }
}

/// The request loop of both transports: reads newline-terminated lines
/// from `reader` and submits each to `engine`, answering on `sink`.
/// Returns the id of a shutdown request (reading stops there), `None`
/// at end of input, or the first read error.
///
/// Lines are read with a bound of [`MAX_LINE_BYTES`]: a longer line
/// gets one `error` response (`"id": null`), the rest of it is
/// discarded, and reading carries on with the next line. A line that is
/// not valid UTF-8 gets one `error` response too. Blank lines are
/// skipped.
fn read_requests(
    engine: &Engine,
    mut reader: impl BufRead,
    sink: &Arc<dyn ResponseSink>,
) -> std::io::Result<Option<String>> {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap tells an over-cap line from one that
        // fills it exactly.
        let limit = MAX_LINE_BYTES as u64 + 1;
        if reader.by_ref().take(limit).read_until(b'\n', &mut buf)? == 0 {
            return Ok(None);
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if buf.len() > MAX_LINE_BYTES {
            let message = format!("request line longer than {MAX_LINE_BYTES} bytes");
            engine.reject(None, &message, sink);
            skip_line(&mut reader)?;
            continue;
        }
        let submit = match std::str::from_utf8(&buf) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => engine.submit_line(line, sink),
            Err(_) => engine.reject(None, "request line is not valid UTF-8", sink),
        };
        if let Submit::Shutdown(id) = submit {
            return Ok(Some(id));
        }
    }
}

/// Consumes input up to and including the next newline (or to end of
/// input) without buffering it.
fn skip_line(reader: &mut impl BufRead) -> std::io::Result<()> {
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(());
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                reader.consume(i + 1);
                return Ok(());
            }
            None => {
                let n = chunk.len();
                reader.consume(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink collecting complete lines for assertions.
    #[derive(Default)]
    struct VecSink {
        lines: Mutex<Vec<String>>,
    }

    impl VecSink {
        fn new() -> Arc<VecSink> {
            Arc::new(VecSink::default())
        }
        fn lines(&self) -> Vec<String> {
            self.lines.lock().unwrap().clone()
        }
        fn parsed(&self) -> Vec<Value> {
            self.lines()
                .iter()
                .map(|l| json::parse(l).expect("valid response JSON"))
                .collect()
        }
    }

    impl ResponseSink for VecSink {
        fn send_line(&self, line: &str) {
            assert!(line.ends_with('\n'));
            self.lines.lock().unwrap().push(line.trim_end().to_string());
        }
    }

    fn wan_instance(seed: u64) -> String {
        let cfg = ccs_gen::random::ClusteredWanConfig {
            seed,
            channels: 6,
            ..Default::default()
        };
        io::instance_to_string(&ccs_gen::random::clustered_wan(&cfg))
    }

    fn wan_library() -> String {
        io::library_to_string(&ccs_core::library::wan_paper_library())
    }

    fn synth_line(id: &str, seed: u64) -> String {
        let mut obj = BTreeMap::new();
        obj.insert("schema".to_string(), Value::Str(REQUEST_SCHEMA.to_string()));
        obj.insert("id".to_string(), Value::Str(id.to_string()));
        obj.insert("kind".to_string(), Value::Str("synth".to_string()));
        obj.insert("instance".to_string(), Value::Str(wan_instance(seed)));
        obj.insert("library".to_string(), Value::Str(wan_library()));
        obj.insert("ledger".to_string(), Value::Bool(true));
        let mut line = String::new();
        Value::Obj(obj).write_compact(&mut line);
        line
    }

    fn resynth_line(id: &str, session: &str, seed: Option<u64>, edits: Value) -> String {
        let mut obj = BTreeMap::new();
        obj.insert("schema".to_string(), Value::Str(REQUEST_SCHEMA.to_string()));
        obj.insert("id".to_string(), Value::Str(id.to_string()));
        obj.insert("kind".to_string(), Value::Str("resynth".to_string()));
        obj.insert("session".to_string(), Value::Str(session.to_string()));
        if let Some(seed) = seed {
            obj.insert("instance".to_string(), Value::Str(wan_instance(seed)));
            obj.insert("library".to_string(), Value::Str(wan_library()));
        }
        obj.insert("edits".to_string(), edits);
        obj.insert("ledger".to_string(), Value::Bool(true));
        let mut line = String::new();
        Value::Obj(obj).write_compact(&mut line);
        line
    }

    fn topology_text(doc: &Value) -> String {
        let mut s = String::new();
        doc.get("metrics")
            .expect("metrics embedded")
            .get("topology")
            .expect("topology embedded")
            .write_compact(&mut s);
        s
    }

    #[test]
    fn parse_request_validates() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"id\":\"x\"}")
            .unwrap_err()
            .message
            .contains("schema"));
        let missing_kind =
            parse_request("{\"schema\":\"ccs-request-v1\",\"id\":\"x\"}").unwrap_err();
        assert_eq!(missing_kind.id.as_deref(), Some("x"));
        let ping = parse_request("{\"schema\":\"ccs-request-v1\",\"id\":\"p\",\"kind\":\"ping\"}")
            .unwrap();
        assert_eq!(ping.kind, RequestKind::Ping);
        assert!(ping.lb_gate, "lb_gate defaults on");
        let cancel = parse_request(
            "{\"schema\":\"ccs-request-v1\",\"id\":\"c\",\"kind\":\"cancel\",\"target\":\"r1\"}",
        )
        .unwrap();
        assert_eq!(cancel.target.as_deref(), Some("r1"));
        assert!(
            parse_request("{\"schema\":\"ccs-request-v1\",\"id\":\"c\",\"kind\":\"cancel\"}")
                .is_err()
        );
        assert!(
            parse_request("{\"schema\":\"ccs-request-v1\",\"id\":\"s\",\"kind\":\"synth\"}")
                .unwrap_err()
                .message
                .contains("instance")
        );
    }

    #[test]
    fn ping_and_errors_answer_inline() {
        let engine = Engine::new(&ServeConfig::default());
        let sink = VecSink::new();
        let dyn_sink: Arc<dyn ResponseSink> = sink.clone();
        assert_eq!(
            engine.submit_line(
                "{\"schema\":\"ccs-request-v1\",\"id\":\"p\",\"kind\":\"ping\"}",
                &dyn_sink
            ),
            Submit::Handled
        );
        assert_eq!(engine.submit_line("garbage", &dyn_sink), Submit::Handled);
        let docs = sink.parsed();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(docs[0].get("kind").unwrap().as_str(), Some("ping"));
        assert_eq!(docs[1].get("status").unwrap().as_str(), Some("error"));
        assert_eq!(docs[1].get("id"), Some(&Value::Null));
        assert_eq!(engine.summary().errors, 1);
    }

    #[test]
    fn read_loop_bounds_lines_and_stops_at_shutdown() {
        let ping = |id: &str| {
            format!("{{\"schema\":\"{REQUEST_SCHEMA}\",\"id\":\"{id}\",\"kind\":\"ping\"}}")
        };
        let mut input = Vec::new();
        input.extend_from_slice(format!("{}\r\n\n  \n", ping("crlf")).as_bytes());
        // Exactly at the cap: read whole, then rejected as JSON.
        input.extend(std::iter::repeat_n(b' ', MAX_LINE_BYTES - 1));
        input.extend_from_slice(b"x\n");
        // One byte over: rejected by length, the tail is skipped.
        input.extend(std::iter::repeat_n(b'y', MAX_LINE_BYTES + 1));
        input.extend_from_slice(b"\n\xff\xfe\n");
        input.extend_from_slice(format!("{}\n", ping("after")).as_bytes());
        input.extend_from_slice(
            b"{\"schema\":\"ccs-request-v1\",\"id\":\"bye\",\"kind\":\"shutdown\"}\n",
        );
        input.extend_from_slice(format!("{}\n", ping("unread")).as_bytes());

        let engine = Engine::new(&ServeConfig::default());
        let sink = VecSink::new();
        let dyn_sink: Arc<dyn ResponseSink> = sink.clone();
        let shutdown = read_requests(&engine, std::io::Cursor::new(input), &dyn_sink).unwrap();
        assert_eq!(shutdown.as_deref(), Some("bye"));
        let docs = sink.parsed();
        let errors: Vec<&str> = docs
            .iter()
            .filter_map(|d| d.get("error").and_then(Value::as_str))
            .collect();
        assert_eq!(docs.len(), 5, "{docs:?}");
        assert_eq!(docs[0].get("id").unwrap().as_str(), Some("crlf"));
        assert!(errors[0].starts_with("invalid JSON"), "{errors:?}");
        assert!(errors[1].contains("longer than"), "{errors:?}");
        assert!(errors[2].contains("not valid UTF-8"), "{errors:?}");
        assert_eq!(docs[4].get("id").unwrap().as_str(), Some("after"));
        assert_eq!(engine.summary().errors, 3);

        // A final line without a newline is still a request.
        let sink = VecSink::new();
        let dyn_sink: Arc<dyn ResponseSink> = sink.clone();
        let tail = std::io::Cursor::new(ping("tail").into_bytes());
        assert_eq!(read_requests(&engine, tail, &dyn_sink).unwrap(), None);
        assert_eq!(sink.parsed()[0].get("id").unwrap().as_str(), Some("tail"));

        // A read error is returned, not taken for end of input.
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("broken pipe"))
            }
        }
        let sink = VecSink::new();
        let dyn_sink: Arc<dyn ResponseSink> = sink.clone();
        let line = format!("{}\n", ping("before"));
        let broken = std::io::BufReader::new(std::io::Cursor::new(line.into_bytes()).chain(Broken));
        let err = read_requests(&engine, broken, &dyn_sink).unwrap_err();
        assert_eq!(err.to_string(), "broken pipe");
        assert_eq!(sink.parsed()[0].get("id").unwrap().as_str(), Some("before"));
    }

    #[test]
    fn synth_request_serves_topology_metrics_and_ledger() {
        let engine = Engine::new(&ServeConfig::default());
        let sink = VecSink::new();
        let dyn_sink: Arc<dyn ResponseSink> = sink.clone();
        assert_eq!(
            engine.submit_line(&synth_line("r1", 7), &dyn_sink),
            Submit::Queued
        );
        engine.close();
        engine.worker_loop();
        let docs = sink.parsed();
        assert_eq!(docs.len(), 1);
        let resp = &docs[0];
        assert_eq!(resp.get("schema").unwrap().as_str(), Some(RESPONSE_SCHEMA));
        assert_eq!(resp.get("id").unwrap().as_str(), Some("r1"));
        assert_eq!(resp.get("status").unwrap().as_str(), Some("ok"));
        let metrics = resp.get("metrics").expect("metrics embedded");
        assert_eq!(
            metrics.get("schema").unwrap().as_str(),
            Some(ccs_obs::METRICS_SCHEMA)
        );
        let topo = metrics.get("topology").expect("topology embedded");
        assert_eq!(
            topo.get("schema").unwrap().as_str(),
            Some(report::TOPOLOGY_SCHEMA)
        );
        let ledger = resp.get("ledger").expect("ledger requested");
        assert_eq!(
            ledger.get("schema").unwrap().as_str(),
            Some(ccs_obs::ledger::LEDGER_SCHEMA)
        );
        assert_eq!(engine.summary().served, 1);
    }

    #[test]
    fn overflowing_cost_errors_and_the_worker_serves_the_next_request() {
        // 1e300 per unit length over a 1e10 link: a finite library whose
        // candidate cost overflows to `inf`.
        let mut obj = BTreeMap::new();
        obj.insert("schema".to_string(), Value::Str(REQUEST_SCHEMA.to_string()));
        obj.insert("id".to_string(), Value::Str("overflow".to_string()));
        obj.insert("kind".to_string(), Value::Str("synth".to_string()));
        obj.insert(
            "instance".to_string(),
            Value::Str(
                "ccs-instance v1\nnorm euclidean\nport a 0 0\nport b 1e10 0\nchannel 0 1 5\n"
                    .to_string(),
            ),
        );
        obj.insert(
            "library".to_string(),
            Value::Str(
                "ccs-library v1\nsegmentation minimal\nlink radio 11 inf per-length 1e300\n\
                 node repeater 0\nnode mux 0\nnode demux 0\n"
                    .to_string(),
            ),
        );
        let mut bad = String::new();
        Value::Obj(obj).write_compact(&mut bad);

        let engine = Engine::new(&ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let sink = VecSink::new();
        let dyn_sink: Arc<dyn ResponseSink> = sink.clone();
        assert_eq!(engine.submit_line(&bad, &dyn_sink), Submit::Queued);
        assert_eq!(
            engine.submit_line(&synth_line("next", 3), &dyn_sink),
            Submit::Queued
        );
        engine.close();
        engine.worker_loop();
        let docs = sink.parsed();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].get("id").unwrap().as_str(), Some("overflow"));
        assert_eq!(docs[0].get("status").unwrap().as_str(), Some("error"));
        let error = docs[0].get("error").and_then(Value::as_str).unwrap();
        assert!(error.contains("column weight inf"), "{error}");
        assert_eq!(docs[1].get("id").unwrap().as_str(), Some("next"));
        assert_eq!(docs[1].get("status").unwrap().as_str(), Some("ok"));
        let s = engine.summary();
        assert_eq!((s.errors, s.served), (1, 1));
    }

    #[test]
    fn cancelled_queued_request_has_no_body() {
        let engine = Engine::new(&ServeConfig::default());
        let sink = VecSink::new();
        let dyn_sink: Arc<dyn ResponseSink> = sink.clone();
        engine.submit_line(&synth_line("victim", 3), &dyn_sink);
        // Cancel while still queued (no worker is running).
        engine.submit_line(
            "{\"schema\":\"ccs-request-v1\",\"id\":\"c\",\"kind\":\"cancel\",\"target\":\"victim\"}",
            &dyn_sink,
        );
        engine.close();
        engine.worker_loop();
        let docs = sink.parsed();
        assert_eq!(docs.len(), 2);
        let cancel_resp = &docs[0];
        assert_eq!(cancel_resp.get("found"), Some(&Value::Bool(true)));
        let victim = &docs[1];
        assert_eq!(victim.get("status").unwrap().as_str(), Some("cancelled"));
        assert!(victim.get("metrics").is_none(), "no body after cancel");
        assert!(victim.get("ledger").is_none());
        assert!(victim.get("topology").is_none());
        assert_eq!(engine.summary().cancelled, 1);
        assert_eq!(engine.summary().served, 0);
    }

    #[test]
    fn cancel_of_unknown_id_reports_not_found() {
        let engine = Engine::new(&ServeConfig::default());
        let sink = VecSink::new();
        let dyn_sink: Arc<dyn ResponseSink> = sink.clone();
        engine.submit_line(
            "{\"schema\":\"ccs-request-v1\",\"id\":\"c\",\"kind\":\"cancel\",\"target\":\"ghost\"}",
            &dyn_sink,
        );
        let docs = sink.parsed();
        assert_eq!(docs[0].get("found"), Some(&Value::Bool(false)));
    }

    #[test]
    fn duplicate_in_flight_id_is_rejected() {
        let engine = Engine::new(&ServeConfig::default());
        let sink = VecSink::new();
        let dyn_sink: Arc<dyn ResponseSink> = sink.clone();
        assert_eq!(
            engine.submit_line(&synth_line("dup", 1), &dyn_sink),
            Submit::Queued
        );
        assert_eq!(
            engine.submit_line(&synth_line("dup", 1), &dyn_sink),
            Submit::Handled
        );
        let docs = sink.parsed();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].get("status").unwrap().as_str(), Some("error"));
    }

    #[test]
    fn priorities_order_the_drain() {
        let engine = Engine::new(&ServeConfig::default());
        let sink = VecSink::new();
        let dyn_sink: Arc<dyn ResponseSink> = sink.clone();
        let mut low = json::parse(&synth_line("low", 2)).unwrap();
        if let Value::Obj(m) = &mut low {
            m.insert("priority".to_string(), Value::Num(0.0));
        }
        let mut high = json::parse(&synth_line("high", 2)).unwrap();
        if let Value::Obj(m) = &mut high {
            m.insert("priority".to_string(), Value::Num(9.0));
        }
        let mut line = String::new();
        low.write_compact(&mut line);
        engine.submit_line(&line, &dyn_sink);
        line.clear();
        high.write_compact(&mut line);
        engine.submit_line(&line, &dyn_sink);
        engine.close();
        engine.worker_loop();
        let docs = sink.parsed();
        assert_eq!(docs[0].get("id").unwrap().as_str(), Some("high"));
        assert_eq!(docs[1].get("id").unwrap().as_str(), Some("low"));
    }

    #[test]
    fn served_response_matches_a_solo_run_byte_for_byte() {
        let line = synth_line("solo", 11);
        let serve_once = || {
            let engine = Engine::new(&ServeConfig::default());
            let sink = VecSink::new();
            let dyn_sink: Arc<dyn ResponseSink> = sink.clone();
            engine.submit_line(&line, &dyn_sink);
            engine.close();
            engine.worker_loop();
            let doc = sink.parsed().remove(0);
            let mut topo = String::new();
            doc.get("metrics")
                .unwrap()
                .get("topology")
                .unwrap()
                .write_compact(&mut topo);
            let mut ledger = String::new();
            doc.get("ledger").unwrap().write_compact(&mut ledger);
            (topo, ledger)
        };
        let (t1, l1) = serve_once();
        let (t2, l2) = serve_once();
        assert_eq!(t1, t2);
        assert_eq!(l1, l2);
    }

    #[test]
    fn shared_cache_is_keyed_per_library() {
        let engine = Engine::new(&ServeConfig::default());
        let a = engine.cache_for("library a");
        let b = engine.cache_for("library b");
        let a2 = engine.cache_for("library a");
        assert!(Arc::ptr_eq(&a, &a2));
        assert!(!Arc::ptr_eq(&a, &b));
        // The library set stays bounded.
        for i in 0..100 {
            engine.cache_for(&format!("library {i}"));
        }
        assert!(engine.caches.lock().unwrap().len() <= MAX_LIBRARIES);
    }

    #[test]
    fn colliding_library_fingerprint_never_shares_a_cache() {
        let engine = Engine::new(&ServeConfig::default());
        let real = "library real";
        // Force a collision: seed real's fingerprint slot with another
        // library's text and cache.
        let impostor = Arc::new(PlacementCache::new());
        engine.caches.lock().unwrap().insert(
            fingerprint(real),
            ("library impostor".to_string(), impostor.clone()),
        );
        let served = engine.cache_for(real);
        assert!(
            !Arc::ptr_eq(&served, &impostor),
            "a collision must not serve another library's solves"
        );
        // The incumbent keeps its slot; the collider gets a private
        // cache on every call (correct, just unshared).
        let again = engine.cache_for(real);
        assert!(!Arc::ptr_eq(&again, &impostor));
        assert!(!Arc::ptr_eq(&again, &served));
        let (text, incumbent) = engine.caches.lock().unwrap()[&fingerprint(real)].clone();
        assert_eq!(text, "library impostor");
        assert!(Arc::ptr_eq(&incumbent, &impostor));
    }

    #[test]
    fn late_duplicate_id_is_rejected() {
        let engine = Engine::new(&ServeConfig::default());
        let sink = VecSink::new();
        let dyn_sink: Arc<dyn ResponseSink> = sink.clone();
        assert_eq!(
            engine.submit_line(&synth_line("dup", 1), &dyn_sink),
            Submit::Queued
        );
        let job = engine.queue.pop().expect("queued job");
        engine.run_job(job);
        assert_eq!(engine.summary().served, 1);
        // The id completed; reusing it must error, not run again.
        assert_eq!(
            engine.submit_line(&synth_line("dup", 2), &dyn_sink),
            Submit::Handled
        );
        let docs = sink.parsed();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[1].get("status").unwrap().as_str(), Some("error"));
        assert!(docs[1]
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("completed"));
        assert_eq!(engine.summary().served, 1);
    }

    #[test]
    fn resynth_session_round_trip_matches_synth() {
        let engine = Engine::new(&ServeConfig::default());
        let sink = VecSink::new();
        let dyn_sink: Arc<dyn ResponseSink> = sink.clone();
        // r0 creates the session (cold), r1 re-runs it warm; cold is
        // the one-shot reference for the same instance.
        engine.submit_line(
            &resynth_line("r0", "s1", Some(7), Value::Arr(vec![])),
            &dyn_sink,
        );
        engine.submit_line(
            &resynth_line("r1", "s1", None, Value::Arr(vec![])),
            &dyn_sink,
        );
        engine.submit_line(&synth_line("cold", 7), &dyn_sink);
        engine.close();
        engine.worker_loop();
        let docs = sink.parsed();
        assert_eq!(docs.len(), 3);
        for d in &docs[..2] {
            assert_eq!(d.get("status").unwrap().as_str(), Some("ok"));
            assert_eq!(d.get("kind").unwrap().as_str(), Some("resynth"));
            assert_eq!(d.get("session").unwrap().as_str(), Some("s1"));
        }
        let cold = topology_text(&docs[2]);
        assert_eq!(topology_text(&docs[0]), cold);
        assert_eq!(topology_text(&docs[1]), cold, "warm must be byte-identical");
        assert_eq!(engine.summary().served, 3);
    }

    #[test]
    fn warm_resynth_edit_matches_a_fresh_session_cold_run() {
        let engine = Engine::new(&ServeConfig::default());
        let sink = VecSink::new();
        let dyn_sink: Arc<dyn ResponseSink> = sink.clone();
        let edits = json::parse(
            "[{\"op\":\"arc_rate\",\"arc\":0,\"mbps\":42.5},\
              {\"op\":\"arc_bound\",\"arc\":1,\"hops\":6}]",
        )
        .unwrap();
        // Session "warm": cold create, then the edit applies warm.
        engine.submit_line(
            &resynth_line("a0", "warm", Some(7), Value::Arr(vec![])),
            &dyn_sink,
        );
        engine.submit_line(&resynth_line("a1", "warm", None, edits.clone()), &dyn_sink);
        // Session "cold": created with the edit in its first request,
        // so the whole pipeline runs cold on the edited instance.
        engine.submit_line(&resynth_line("b0", "cold", Some(7), edits), &dyn_sink);
        engine.close();
        engine.worker_loop();
        let docs = sink.parsed();
        assert_eq!(docs.len(), 3);
        for d in &docs {
            assert_eq!(d.get("status").unwrap().as_str(), Some("ok"));
        }
        assert_eq!(
            topology_text(&docs[1]),
            topology_text(&docs[2]),
            "warm edit must match the cold run of the edited instance"
        );
    }

    #[test]
    fn resynth_unknown_session_and_bad_edits_error() {
        let engine = Engine::new(&ServeConfig::default());
        let sink = VecSink::new();
        let dyn_sink: Arc<dyn ResponseSink> = sink.clone();
        engine.submit_line(
            &resynth_line("x", "ghost", None, Value::Arr(vec![])),
            &dyn_sink,
        );
        // An edit against an arc the instance does not have.
        let bad = json::parse("[{\"op\":\"arc_rate\",\"arc\":999,\"mbps\":1.0}]").unwrap();
        engine.submit_line(&resynth_line("y", "s", Some(3), bad), &dyn_sink);
        engine.close();
        engine.worker_loop();
        let docs = sink.parsed();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].get("status").unwrap().as_str(), Some("error"));
        assert!(docs[0]
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("unknown session"));
        assert_eq!(docs[1].get("status").unwrap().as_str(), Some("error"));
        assert!(docs[1]
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("invalid edit"));
        assert_eq!(engine.summary().errors, 2);
    }

    #[test]
    fn parse_resynth_validates() {
        // session is mandatory.
        let err =
            parse_request("{\"schema\":\"ccs-request-v1\",\"id\":\"r\",\"kind\":\"resynth\"}")
                .unwrap_err();
        assert!(err.message.contains("session"));
        // A well-formed request with every edit op.
        let req = parse_request(
            "{\"schema\":\"ccs-request-v1\",\"id\":\"r\",\"kind\":\"resynth\",\
              \"session\":\"s\",\"edits\":[\
              {\"op\":\"arc_rate\",\"arc\":1,\"mbps\":2.5},\
              {\"op\":\"arc_bound\",\"arc\":0,\"hops\":null},\
              {\"op\":\"move\",\"port\":\"p\",\"x\":1.0,\"y\":-2.0},\
              {\"op\":\"library\",\"text\":\"lib\"}]}",
        )
        .unwrap();
        assert_eq!(req.kind, RequestKind::Resynth);
        assert_eq!(req.session.as_deref(), Some("s"));
        assert_eq!(req.edits.len(), 4);
        assert_eq!(req.edits[0], EditSpec::ArcRate { arc: 1, mbps: 2.5 });
        assert_eq!(req.edits[1], EditSpec::ArcBound { arc: 0, hops: None });
        // Malformed edits are rejected with the item index.
        for bad in [
            "[{\"op\":\"arc_rate\",\"arc\":1,\"mbps\":-3.0}]",
            "[{\"op\":\"arc_rate\",\"arc\":1.5,\"mbps\":3.0}]",
            "[{\"op\":\"warp\"}]",
            "[{\"arc\":1}]",
            "[{\"op\":\"move\",\"port\":\"p\",\"x\":1.0}]",
        ] {
            let line = format!(
                "{{\"schema\":\"ccs-request-v1\",\"id\":\"r\",\"kind\":\"resynth\",\
                  \"session\":\"s\",\"edits\":{bad}}}"
            );
            let err = parse_request(&line).unwrap_err();
            assert!(err.message.contains("edits[0]"), "{}", err.message);
        }
    }

    #[test]
    fn tcp_round_trip_with_shutdown_ack_last() {
        let server = Server::bind(ServeConfig {
            listen: Some("127.0.0.1:0".to_string()),
            workers: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        for (id, seed) in [("a", 1u64), ("b", 2), ("c", 3)] {
            writeln!(writer, "{}", synth_line(id, seed)).unwrap();
        }
        writeln!(
            writer,
            "{{\"schema\":\"ccs-request-v1\",\"id\":\"bye\",\"kind\":\"shutdown\"}}"
        )
        .unwrap();
        let mut lines = Vec::new();
        let mut buf = String::new();
        use std::io::BufRead as _;
        while reader.read_line(&mut buf).unwrap() > 0 {
            lines.push(buf.trim_end().to_string());
            buf.clear();
        }
        assert_eq!(lines.len(), 4, "three responses plus the shutdown ack");
        let last = json::parse(&lines[3]).unwrap();
        assert_eq!(last.get("id").unwrap().as_str(), Some("bye"));
        assert_eq!(last.get("kind").unwrap().as_str(), Some("shutdown"));
        assert_eq!(last.get("served").unwrap().as_num(), Some(3.0));
        let summary = handle.join().unwrap();
        assert_eq!(summary.served, 3);
        assert_eq!(summary.errors, 0);
    }

    #[test]
    fn stats_request_is_inline_and_optional_schema() {
        let engine = Engine::new(&ServeConfig::default());
        let sink = VecSink::new();
        let dyn_sink: Arc<dyn ResponseSink> = sink.clone();
        // The dumbest possible client: no schema, no id, "op" spelling.
        assert_eq!(
            engine.submit_line("{\"op\":\"stats\"}", &dyn_sink),
            Submit::Handled
        );
        // And the fully-dressed wire spelling.
        assert_eq!(
            engine.submit_line(
                "{\"schema\":\"ccs-request-v1\",\"id\":\"s1\",\"kind\":\"stats\"}",
                &dyn_sink
            ),
            Submit::Handled
        );
        let docs = sink.parsed();
        assert_eq!(docs.len(), 2);
        for doc in &docs {
            assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
            assert_eq!(doc.get("kind").unwrap().as_str(), Some("stats"));
            let stats = doc.get("stats").expect("stats embedded");
            assert_eq!(stats.get("schema").unwrap().as_str(), Some(STATS_SCHEMA));
            assert_eq!(stats.get("deterministic").unwrap().as_bool(), Some(false));
            assert_eq!(stats.get("telemetry").unwrap().as_bool(), Some(true));
            let ops = stats.get("ops").expect("ops section");
            for op in OP_NAMES {
                let lifetime = ops
                    .get(op)
                    .and_then(|o| o.get("total"))
                    .and_then(|m| m.get("lifetime"))
                    .expect("per-op lifetime window");
                assert_eq!(lifetime.get("count").unwrap().as_num(), Some(0.0));
            }
        }
        assert_eq!(docs[1].get("id").unwrap().as_str(), Some("s1"));
        assert_eq!(engine.summary().errors, 0, "stats reads are not errors");
    }

    #[test]
    fn telemetry_records_served_requests() {
        let engine = Engine::new(&ServeConfig::default());
        let sink = VecSink::new();
        let dyn_sink: Arc<dyn ResponseSink> = sink.clone();
        for (id, seed) in [("t1", 11u64), ("t2", 12)] {
            assert_eq!(
                engine.submit_line(&synth_line(id, seed), &dyn_sink),
                Submit::Queued
            );
        }
        engine.close();
        engine.worker_loop();
        let stats = engine.stats_json();
        assert_eq!(stats.get("served").unwrap().as_num(), Some(2.0));
        let synth = stats.get("ops").unwrap().get("synth").unwrap();
        for metric in ["queue_wait", "run", "total"] {
            let lifetime = synth.get(metric).unwrap().get("lifetime").unwrap();
            assert_eq!(lifetime.get("count").unwrap().as_num(), Some(2.0));
            let p50 = lifetime.get("p50_ns").unwrap().as_num().unwrap();
            let p99 = lifetime.get("p99_ns").unwrap().as_num().unwrap();
            let max = lifetime.get("max_ns").unwrap().as_num().unwrap();
            assert!(p50 <= p99 && p99 <= max, "{metric}: {p50} {p99} {max}");
        }
        // Two synths both ran; the run-time histogram saw real work.
        let run = synth.get("run").unwrap().get("lifetime").unwrap();
        assert!(run.get("max_ns").unwrap().as_num().unwrap() > 0.0);
        // Windowed counts can never exceed lifetime.
        let w10 = synth.get("total").unwrap().get("last_10s").unwrap();
        assert!(w10.get("count").unwrap().as_num().unwrap() <= 2.0);
        let s = engine.summary();
        assert!(s.inflight_hwm >= 1);
        assert_eq!(s.cache_hits + s.cache_misses, 2);
        assert_eq!(s.cache_misses, 1, "one library, shared after first use");
        assert!(s.uptime_ns > 0);
    }

    #[test]
    fn disabled_telemetry_keeps_stats_answering() {
        let engine = Engine::new(&ServeConfig {
            telemetry: false,
            ..ServeConfig::default()
        });
        let sink = VecSink::new();
        let dyn_sink: Arc<dyn ResponseSink> = sink.clone();
        assert_eq!(
            engine.submit_line(&synth_line("d1", 5), &dyn_sink),
            Submit::Queued
        );
        engine.close();
        engine.worker_loop();
        let stats = engine.stats_json();
        assert_eq!(stats.get("telemetry").unwrap().as_bool(), Some(false));
        assert_eq!(stats.get("served").unwrap().as_num(), Some(1.0));
        // Histograms and gauges stay empty; always-on tallies survive.
        let total = stats
            .get("ops")
            .unwrap()
            .get("synth")
            .unwrap()
            .get("total")
            .unwrap()
            .get("lifetime")
            .unwrap();
        assert_eq!(total.get("count").unwrap().as_num(), Some(0.0));
        let s = engine.summary();
        assert_eq!(s.inflight_hwm, 0);
        assert_eq!(s.cache_misses, 1);
    }

    #[test]
    fn rejected_requests_are_tallied() {
        let engine = Engine::new(&ServeConfig::default());
        let sink = VecSink::new();
        let dyn_sink: Arc<dyn ResponseSink> = sink.clone();
        assert_eq!(
            engine.submit_line(&synth_line("dup", 3), &dyn_sink),
            Submit::Queued
        );
        // Same id while the first is still queued: rejected inline.
        assert_eq!(
            engine.submit_line(&synth_line("dup", 3), &dyn_sink),
            Submit::Handled
        );
        engine.close();
        engine.worker_loop();
        // And again after completion: the CompletedIds ring rejects it.
        assert_eq!(
            engine.submit_line(&synth_line("dup", 3), &dyn_sink),
            Submit::Handled
        );
        let s = engine.summary();
        assert_eq!(s.served, 1);
        assert_eq!(s.rejected, 2);
        assert_eq!(s.errors, 2, "rejections are a subset of errors");
    }

    #[test]
    fn slow_log_captures_and_stays_bounded() {
        let dir = std::env::temp_dir().join(format!("ccs-slow-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("slow.jsonl");
        let _ = std::fs::remove_file(&path);
        let engine = Engine::new(&ServeConfig {
            slow_ms: Some(0),
            slow_log: Some(path.clone()),
            ..ServeConfig::default()
        });
        let sink = VecSink::new();
        let dyn_sink: Arc<dyn ResponseSink> = sink.clone();
        assert_eq!(
            engine.submit_line(&synth_line("slow1", 9), &dyn_sink),
            Submit::Queued
        );
        engine.close();
        engine.worker_loop();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "--slow-ms 0 captures every request");
        let entry = json::parse(lines[0]).unwrap();
        assert_eq!(entry.get("schema").unwrap().as_str(), Some(SLOW_SCHEMA));
        assert_eq!(entry.get("id").unwrap().as_str(), Some("slow1"));
        assert_eq!(entry.get("op").unwrap().as_str(), Some("synth"));
        assert_eq!(entry.get("status").unwrap().as_str(), Some("ok"));
        assert!(entry.get("metrics").is_some(), "embedded ccs-metrics-v1");
        let total = entry.get("total_ns").unwrap().as_num().unwrap();
        let run = entry.get("run_ns").unwrap().as_num().unwrap();
        assert!(total >= run && run > 0.0);

        // The disk bound: pushing far past 4×cap compacts the file
        // back to the in-memory ring.
        let slow = SlowLog::new(path.clone(), 0);
        for i in 0..(4 * SLOW_LOG_CAP + 10) {
            slow.capture(format!("{{\"n\":{i}}}"));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.lines().count() <= 4 * SLOW_LOG_CAP + 1,
            "file stays bounded"
        );
        let last = text.lines().last().unwrap();
        let n = json::parse(last)
            .unwrap()
            .get("n")
            .unwrap()
            .as_num()
            .unwrap();
        assert_eq!(n as usize, 4 * SLOW_LOG_CAP + 9, "newest entries survive");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
