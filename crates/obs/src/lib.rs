//! Lightweight observability for the synthesis pipeline.
//!
//! The design follows the `log` crate: a process-global recorder is
//! installed (or not) by the application, and instrumented code emits
//! [`Event`]s through free functions. When no recorder is installed the
//! hot path is a single relaxed atomic load — no allocation, no
//! locking — so library code can stay instrumented unconditionally.
//!
//! Three building blocks cover the pipeline's needs:
//!
//! - [`phase`] returns an RAII [`Phase`] guard, the one instrument per
//!   pipeline phase (`p2p`, `matrices`, `merging`, `placement`,
//!   `covering`, `assembly`; [`run_phase`] opens the run-level
//!   `total`). On close it reports wall time, allocation deltas and
//!   executor CPU time, and it profiles itself as a scope of the same
//!   name. Its two clock reads are the only unconditional cost: the
//!   pipeline reports phase wall times with or without a recorder;
//! - [`counter`] accumulates monotone totals (subsets examined, prune
//!   hits, branch-and-bound nodes, ...);
//! - [`gauge`] records a last-write-wins measurement (convergence
//!   residuals, greedy-vs-exact gap).
//!
//! Recorders: [`Collector`] aggregates events into a [`Metrics`]
//! document (rendered to JSON for `--metrics-json`),
//! [`JsonLinesRecorder`] streams each event as one compact JSON line
//! (`--trace`), and [`Fanout`] drives several recorders at once.
//!
//! Three deeper instruments build on the same philosophy (zero cost
//! when off): the hierarchical call-tree profiler in [`profile`], the
//! counting global allocator in [`alloc`], and the decision-provenance
//! ledger in [`ledger`]. Service-level telemetry (latency
//! distributions for `ccs serve`) records into the mergeable
//! log-bucketed histograms in [`hist`].

// `alloc` needs `unsafe` for the `GlobalAlloc` impl; everything else
// stays forbidden via the crate-level deny (the module opts in).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod hist;
pub mod json;
pub mod ledger;
pub mod profile;
pub mod scope;

use std::collections::BTreeMap;
use std::io::{BufWriter, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use json::Value;

/// An observability event emitted by instrumented code.
///
/// Names borrow from the call site; recorders copy what they keep.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<'a> {
    /// A [`Phase`] (or its `<name>.cpu` companion) finished after
    /// `wall_ns` nanoseconds.
    SpanEnd {
        /// Span name (a pipeline phase such as `"merging"`).
        name: &'a str,
        /// Elapsed wall-clock time in nanoseconds.
        wall_ns: u64,
    },
    /// A monotone counter increased by `delta`.
    Counter {
        /// Counter name (e.g. `"merging.k3.examined"`).
        name: &'a str,
        /// Increment (usually 1).
        delta: u64,
    },
    /// A gauge took a new value (last write wins).
    Gauge {
        /// Gauge name (e.g. `"placement.max_residual"`).
        name: &'a str,
        /// The observed value.
        value: f64,
    },
}

/// A sink for [`Event`]s. Implementations must tolerate concurrent
/// calls from multiple threads.
pub trait Record: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: &Event<'_>);
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: RwLock<Option<Arc<dyn Record>>> = RwLock::new(None);

/// Installs `recorder` as the process-global event sink, replacing any
/// previous one.
pub fn set_recorder(recorder: Arc<dyn Record>) {
    let mut slot = RECORDER.write().unwrap_or_else(|e| e.into_inner());
    *slot = Some(recorder);
    ENABLED.store(true, Ordering::Release);
}

/// Removes the global recorder; subsequent events cost one atomic load.
pub fn clear_recorder() {
    let mut slot = RECORDER.write().unwrap_or_else(|e| e.into_inner());
    ENABLED.store(false, Ordering::Release);
    *slot = None;
}

/// Whether anything is listening on this thread: the active
/// [`scope::RequestObs`] if one is entered (a scope *replaces* the
/// globals while active), otherwise the process-global recorder.
/// Instrumented code can use this to skip building event names
/// (`format!`) when nobody is listening.
#[inline]
pub fn enabled() -> bool {
    match scope::recorder_override() {
        Some(on) => on,
        None => ENABLED.load(Ordering::Relaxed),
    }
}

fn dispatch(event: &Event<'_>) {
    if scope::dispatch_scoped(event) {
        return;
    }
    let slot = RECORDER.read().unwrap_or_else(|e| e.into_inner());
    if let Some(recorder) = slot.as_ref() {
        recorder.record(event);
    }
}

/// Adds `delta` to the counter `name`. A no-op when disabled.
#[inline]
pub fn counter(name: &str, delta: u64) {
    if enabled() {
        dispatch(&Event::Counter { name, delta });
    }
}

/// Sets the gauge `name` to `value`. A no-op when disabled.
#[inline]
pub fn gauge(name: &str, value: f64) {
    if enabled() {
        dispatch(&Event::Gauge { name, value });
    }
}

/// Opens the pipeline phase `name`; it closes when the returned guard
/// drops — normally, on an early return, or during unwind — or
/// explicitly via [`Phase::finish`].
///
/// The guard reads the clock at open and at close (always: callers
/// report phase wall time without a recorder), and profiles its extent
/// as the [`profile::scope`] `name`. When a recorder is listening it
/// also brackets the phase's allocations and, at close, emits
/// [`Event::SpanEnd`] `name`, the counters `alloc.<name>.allocs` /
/// `alloc.<name>.bytes`, and — if executor busy time was handed to it
/// via [`Phase::add_cpu`] — a `<name>.cpu` span. When nothing listens
/// there is no dispatch and no allocation read.
#[inline]
#[must_use = "a phase measures until it is dropped"]
pub fn phase(name: &'static str) -> Phase {
    Phase::open(name, name, true)
}

/// The run-level form of [`phase`]: emits the span `name` but profiles
/// as `profile_root` (the tree every phase of the run nests under) and
/// emits no allocation counters, since the phases inside already
/// partition the run's allocations.
#[inline]
#[must_use = "a phase measures until it is dropped"]
pub fn run_phase(name: &'static str, profile_root: &'static str) -> Phase {
    Phase::open(name, profile_root, false)
}

/// RAII guard created by [`phase`] / [`run_phase`].
#[derive(Debug)]
pub struct Phase {
    name: &'static str,
    start: Instant,
    alloc0: Option<alloc::AllocStats>,
    /// `Some` while the phase is open; taken by the close.
    profile: Option<profile::ProfileScope>,
    cpu: Option<Duration>,
}

/// What one closed [`Phase`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseRecord {
    /// Phase name (the span name).
    pub name: &'static str,
    /// Wall-clock time from open to close.
    pub wall: Duration,
    /// Summed executor busy time handed in via [`Phase::add_cpu`];
    /// `None` for phases that ran no executor sweep.
    pub cpu: Option<Duration>,
}

impl Phase {
    fn open(name: &'static str, profile_name: &'static str, alloc: bool) -> Phase {
        let start = Instant::now();
        let alloc0 = (alloc && enabled()).then(alloc::stats);
        Phase {
            name,
            start,
            alloc0,
            profile: Some(profile::scope(profile_name)),
            cpu: None,
        }
    }

    /// Adds executor busy time (an `ExecStats::busy` total) to the
    /// phase's `<name>.cpu` span.
    pub fn add_cpu(&mut self, busy: Duration) {
        *self.cpu.get_or_insert(Duration::ZERO) += busy;
    }

    /// Closes the phase now and returns what it measured.
    pub fn finish(mut self) -> PhaseRecord {
        self.close()
    }

    fn close(&mut self) -> PhaseRecord {
        drop(self.profile.take());
        let wall = self.start.elapsed();
        // Re-check: the recorder may have been installed or cleared
        // mid-phase.
        if enabled() {
            if let Some(before) = self.alloc0 {
                let delta = alloc::stats().delta_since(&before);
                counter(&format!("alloc.{}.allocs", self.name), delta.allocs);
                counter(&format!("alloc.{}.bytes", self.name), delta.alloc_bytes);
            }
            dispatch(&Event::SpanEnd {
                name: self.name,
                wall_ns: nanos(wall),
            });
            if let Some(cpu) = self.cpu {
                dispatch(&Event::SpanEnd {
                    name: &format!("{}.cpu", self.name),
                    wall_ns: nanos(cpu),
                });
            }
        }
        PhaseRecord {
            name: self.name,
            wall,
            cpu: self.cpu,
        }
    }
}

impl Drop for Phase {
    fn drop(&mut self) {
        if self.profile.is_some() {
            self.close();
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Aggregate of one span name across all its executions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// How many spans with this name completed.
    pub calls: u64,
    /// Total wall-clock nanoseconds across those spans.
    pub total_ns: u64,
}

/// An aggregated metrics document: per-span timings, counter totals,
/// and last gauge values. Serializes to the `ccs-metrics-v1` JSON
/// schema via [`Metrics::to_json`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Wall-clock aggregates keyed by span name.
    pub spans: BTreeMap<String, SpanStat>,
    /// Counter totals keyed by counter name.
    pub counters: BTreeMap<String, u64>,
    /// Last observed value per gauge name.
    pub gauges: BTreeMap<String, f64>,
}

/// Schema identifier written into every metrics document.
pub const METRICS_SCHEMA: &str = "ccs-metrics-v1";

impl Metrics {
    /// Folds one event into the aggregate.
    pub fn apply(&mut self, event: &Event<'_>) {
        match *event {
            Event::SpanEnd { name, wall_ns } => {
                let stat = self.spans.entry(name.to_string()).or_default();
                stat.calls += 1;
                stat.total_ns = stat.total_ns.saturating_add(wall_ns);
            }
            Event::Counter { name, delta } => {
                let total = self.counters.entry(name.to_string()).or_default();
                *total = total.saturating_add(delta);
            }
            Event::Gauge { name, value } => {
                self.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Renders the `ccs-metrics-v1` document:
    ///
    /// ```json
    /// {
    ///   "schema": "ccs-metrics-v1",
    ///   "phases": {"merging": {"calls": 1, "wall_ns": 12345}, ...},
    ///   "counters": {"merging.k2.examined": 15, ...},
    ///   "gauges": {"placement.max_residual": 1.2e-10, ...}
    /// }
    /// ```
    pub fn to_json(&self) -> Value {
        let mut phases = BTreeMap::new();
        for (name, stat) in &self.spans {
            let mut entry = BTreeMap::new();
            entry.insert("calls".to_string(), Value::Num(stat.calls as f64));
            entry.insert("wall_ns".to_string(), Value::Num(stat.total_ns as f64));
            phases.insert(name.clone(), Value::Obj(entry));
        }
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::Num(*v as f64)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), Value::Num(*v)))
            .collect();
        let mut doc = BTreeMap::new();
        doc.insert("schema".to_string(), Value::Str(METRICS_SCHEMA.to_string()));
        doc.insert("phases".to_string(), Value::Obj(phases));
        doc.insert("counters".to_string(), Value::Obj(counters));
        doc.insert("gauges".to_string(), Value::Obj(gauges));
        Value::Obj(doc)
    }

    /// Reconstructs a `Metrics` from a `ccs-metrics-v1` document.
    /// Returns `None` if the value is not such a document.
    pub fn from_json(value: &Value) -> Option<Metrics> {
        if value.get("schema")?.as_str()? != METRICS_SCHEMA {
            return None;
        }
        let mut metrics = Metrics::default();
        for (name, entry) in value.get("phases")?.as_obj()? {
            metrics.spans.insert(
                name.clone(),
                SpanStat {
                    calls: entry.get("calls")?.as_num()? as u64,
                    total_ns: entry.get("wall_ns")?.as_num()? as u64,
                },
            );
        }
        for (name, v) in value.get("counters")?.as_obj()? {
            metrics.counters.insert(name.clone(), v.as_num()? as u64);
        }
        for (name, v) in value.get("gauges")?.as_obj()? {
            metrics.gauges.insert(name.clone(), v.as_num()?);
        }
        Some(metrics)
    }
}

/// A recorder that aggregates events into a [`Metrics`] document.
#[derive(Debug, Default)]
pub struct Collector {
    inner: Mutex<Metrics>,
}

impl Collector {
    /// A fresh, empty collector ready to be installed via
    /// [`set_recorder`].
    pub fn new() -> Arc<Collector> {
        Arc::new(Collector::default())
    }

    /// A copy of everything aggregated so far.
    pub fn snapshot(&self) -> Metrics {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl Record for Collector {
    fn record(&self, event: &Event<'_>) {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .apply(event);
    }
}

/// A recorder that writes each event as one compact JSON line
/// (`{"type":"counter","name":"...","delta":1}`), for `--trace`.
///
/// Output is buffered: hot-path counters from a large instance would
/// otherwise pay one locked syscall-sized `write` each. The buffer is
/// flushed when the recorder drops (so `clear_recorder()` releasing the
/// last [`Arc`] lands every pending line) or explicitly via
/// [`JsonLinesRecorder::flush`].
pub struct JsonLinesRecorder {
    out: Mutex<BufWriter<Box<dyn std::io::Write + Send>>>,
}

impl std::fmt::Debug for JsonLinesRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonLinesRecorder").finish_non_exhaustive()
    }
}

impl JsonLinesRecorder {
    /// Streams events to `out`.
    pub fn new(out: Box<dyn std::io::Write + Send>) -> Arc<JsonLinesRecorder> {
        Arc::new(JsonLinesRecorder {
            out: Mutex::new(BufWriter::new(out)),
        })
    }

    /// Streams events to standard error (keeps stdout clean for
    /// reports).
    pub fn stderr() -> Arc<JsonLinesRecorder> {
        JsonLinesRecorder::new(Box::new(std::io::stderr()))
    }

    /// Pushes buffered lines through to the underlying writer.
    pub fn flush(&self) {
        let _ = self.out.lock().unwrap_or_else(|e| e.into_inner()).flush();
    }
}

/// The JSON-lines form of one event, shared by the recorder and tests.
pub fn event_to_json(event: &Event<'_>) -> Value {
    let mut obj = BTreeMap::new();
    match *event {
        Event::SpanEnd { name, wall_ns } => {
            obj.insert("type".to_string(), Value::Str("span_end".to_string()));
            obj.insert("name".to_string(), Value::Str(name.to_string()));
            obj.insert("wall_ns".to_string(), Value::Num(wall_ns as f64));
        }
        Event::Counter { name, delta } => {
            obj.insert("type".to_string(), Value::Str("counter".to_string()));
            obj.insert("name".to_string(), Value::Str(name.to_string()));
            obj.insert("delta".to_string(), Value::Num(delta as f64));
        }
        Event::Gauge { name, value } => {
            obj.insert("type".to_string(), Value::Str("gauge".to_string()));
            obj.insert("name".to_string(), Value::Str(name.to_string()));
            obj.insert("value".to_string(), Value::Num(value));
        }
    }
    Value::Obj(obj)
}

impl Record for JsonLinesRecorder {
    fn record(&self, event: &Event<'_>) {
        let mut line = String::new();
        event_to_json(event).write_compact(&mut line);
        line.push('\n');
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        // Tracing must never take the pipeline down with it.
        let _ = out.write_all(line.as_bytes());
    }
}

/// Drives several recorders from one event stream (e.g. `--trace`
/// together with `--metrics-json`).
pub struct Fanout {
    sinks: Vec<Arc<dyn Record>>,
}

impl std::fmt::Debug for Fanout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fanout")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl Fanout {
    /// Fans events out to every recorder in `sinks`.
    pub fn new(sinks: Vec<Arc<dyn Record>>) -> Arc<Fanout> {
        Arc::new(Fanout { sinks })
    }
}

impl Record for Fanout {
    fn record(&self, event: &Event<'_>) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder and the profiler are process-global; tests that
    // install either (here and in `profile`) must not interleave.
    static GLOBAL: Mutex<()> = Mutex::new(());

    pub(crate) fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_phase_dispatches_nothing_and_reads_no_alloc_or_profile() {
        let _guard = exclusive();
        clear_recorder();
        assert!(!enabled());
        assert!(!profile::is_active());
        // A phase still times itself (callers report wall time without
        // a recorder) but skips the allocation read and profile push...
        let mut p = phase("idle");
        assert!(p.alloc0.is_none());
        assert!(p.profile.as_ref().is_some_and(|s| s.start.is_none()));
        p.add_cpu(Duration::from_nanos(3));
        let record = p.finish();
        assert_eq!(record.name, "idle");
        assert_eq!(record.cpu, Some(Duration::from_nanos(3)));
        // ...and counters/gauges are plain early returns.
        counter("nobody.listening", 7);
        gauge("nobody.listening", 1.0);
        // Installing a collector afterwards sees none of it.
        let collector = Collector::new();
        set_recorder(collector.clone());
        clear_recorder();
        assert_eq!(collector.snapshot(), Metrics::default());
    }

    #[test]
    fn counters_aggregate_across_threads() {
        let _guard = exclusive();
        let collector = Collector::new();
        set_recorder(collector.clone());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut p = phase("worker");
                    for _ in 0..1000 {
                        counter("shared.total", 1);
                    }
                    counter("shared.batches", 1);
                    p.add_cpu(Duration::from_nanos(10));
                });
            }
        });
        gauge("final.value", 2.5);
        clear_recorder();
        let m = collector.snapshot();
        assert_eq!(m.counters["shared.total"], 4000);
        assert_eq!(m.counters["shared.batches"], 4);
        assert_eq!(m.spans["worker"].calls, 4);
        assert_eq!(m.spans["worker.cpu"].calls, 4);
        assert_eq!(m.spans["worker.cpu"].total_ns, 40);
        assert!(m.counters.contains_key("alloc.worker.allocs"));
        assert!(m.counters.contains_key("alloc.worker.bytes"));
        assert_eq!(m.gauges["final.value"], 2.5);
    }

    #[test]
    fn metrics_round_trip_through_json() {
        let mut m = Metrics::default();
        m.apply(&Event::SpanEnd {
            name: "merging",
            wall_ns: 1_234_567,
        });
        m.apply(&Event::SpanEnd {
            name: "merging",
            wall_ns: 1_000,
        });
        m.apply(&Event::Counter {
            name: "merging.k2.examined",
            delta: 15,
        });
        m.apply(&Event::Gauge {
            name: "placement.max_residual",
            value: 1.5e-9,
        });
        let doc = m.to_json();
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some(METRICS_SCHEMA)
        );
        let text = doc.to_string();
        let parsed = json::parse(&text).expect("valid JSON");
        assert_eq!(Metrics::from_json(&parsed), Some(m.clone()));
        assert_eq!(m.spans["merging"].calls, 2);
        assert_eq!(m.spans["merging"].total_ns, 1_235_567);
    }

    #[test]
    fn json_lines_recorder_emits_one_valid_line_per_event() {
        let _guard = exclusive();
        let buffer: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));

        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        set_recorder(JsonLinesRecorder::new(Box::new(Shared(buffer.clone()))));
        counter("c", 3);
        gauge("g", -0.5);
        phase("s").add_cpu(Duration::from_nanos(5));
        clear_recorder();

        let bytes = buffer.lock().unwrap().clone();
        let text = String::from_utf8(bytes).expect("utf-8");
        let lines: Vec<Value> = text
            .lines()
            .map(|l| json::parse(l).expect("valid JSON line"))
            .collect();
        let field = |i: usize, key: &str| lines[i].get(key).and_then(Value::as_str);
        // counter, gauge, then the phase: its alloc counters, its span
        // and its CPU span.
        assert_eq!(lines.len(), 6, "{text}");
        assert_eq!(field(0, "type"), Some("counter"));
        assert_eq!(lines[0].get("delta").and_then(Value::as_num), Some(3.0));
        assert_eq!(field(2, "name"), Some("alloc.s.allocs"));
        assert_eq!(field(3, "name"), Some("alloc.s.bytes"));
        assert_eq!(field(4, "type"), Some("span_end"));
        assert_eq!(field(4, "name"), Some("s"));
        assert!(lines[4].get("wall_ns").and_then(Value::as_num).is_some());
        assert_eq!(field(5, "name"), Some("s.cpu"));
        assert_eq!(lines[5].get("wall_ns").and_then(Value::as_num), Some(5.0));
    }

    #[test]
    fn json_lines_recorder_buffers_writes() {
        let _guard = exclusive();

        // Counts calls into the *underlying* writer; with buffering the
        // recorder must coalesce many events into few writes.
        struct CountingWriter {
            writes: Arc<Mutex<u64>>,
        }
        impl std::io::Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                *self.writes.lock().unwrap() += 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let writes = Arc::new(Mutex::new(0u64));
        set_recorder(JsonLinesRecorder::new(Box::new(CountingWriter {
            writes: writes.clone(),
        })));
        const EVENTS: u64 = 10_000;
        for i in 0..EVENTS {
            counter("trace.overhead", i);
        }
        clear_recorder(); // drops the recorder → flushes the buffer

        let writes = *writes.lock().unwrap();
        assert!(writes > 0, "flush-on-drop must reach the writer");
        assert!(
            writes < EVENTS / 10,
            "expected ≪ {EVENTS} underlying writes, got {writes}"
        );
    }

    #[test]
    fn phase_reports_during_panic_unwind() {
        let _guard = exclusive();
        let collector = Collector::new();
        set_recorder(collector.clone());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut p = phase("doomed_phase");
            counter("work.before_crash", 2);
            p.add_cpu(Duration::from_nanos(7));
            panic!("phase blew up");
        }));
        assert!(result.is_err());
        clear_recorder();

        // The RAII drop ran during unwinding, so the partial metrics
        // document still carries the phase timing, its CPU span, its
        // allocation counters and prior counters.
        let m = collector.snapshot();
        assert_eq!(m.spans["doomed_phase"].calls, 1);
        assert_eq!(m.spans["doomed_phase.cpu"].total_ns, 7);
        assert!(m.counters.contains_key("alloc.doomed_phase.allocs"));
        assert_eq!(m.counters["work.before_crash"], 2);
        let doc = m.to_json().to_string();
        let parsed = json::parse(&doc).expect("partial document is valid JSON");
        assert!(parsed
            .get("phases")
            .and_then(|p| p.get("doomed_phase"))
            .is_some());
    }

    #[test]
    fn finished_phase_reports_once_and_nests_under_the_run_profile() {
        let _guard = exclusive();
        let collector = Collector::new();
        set_recorder(collector.clone());
        profile::start();
        let run = run_phase("total", "synthesize");
        let record = phase("step").finish();
        let total = run.finish();
        let tree = profile::stop();
        clear_recorder();

        assert!(record.wall <= total.wall);
        assert_eq!(record.cpu, None);
        let m = collector.snapshot();
        // finish() closed each guard; the later drop emitted nothing.
        assert_eq!(m.spans["step"].calls, 1);
        assert_eq!(m.spans["total"].calls, 1);
        assert!(!m.spans.contains_key("step.cpu"));
        // The run-level guard profiles as its root and counts no
        // allocations of its own.
        assert!(m.counters.contains_key("alloc.step.allocs"));
        assert!(!m.counters.contains_key("alloc.total.allocs"));
        assert_eq!(tree.children["synthesize"].children["step"].calls, 1);
        assert!(!tree.children.contains_key("total"));
    }

    #[test]
    fn fanout_drives_every_sink() {
        let _guard = exclusive();
        let a = Collector::new();
        let b = Collector::new();
        set_recorder(Fanout::new(vec![
            a.clone() as Arc<dyn Record>,
            b.clone() as Arc<dyn Record>,
        ]));
        counter("x", 2);
        clear_recorder();
        assert_eq!(a.snapshot().counters["x"], 2);
        assert_eq!(b.snapshot().counters["x"], 2);
    }
}
