//! The `ccs serve` side: a daemon child process, a two-connection
//! client, the seeded `serve_mix` schedule, the open-loop driver and
//! the rate ladder.

use crate::pool::{self, Instance, Pool};
use crate::staged::{now_ns, Expected, Session};
use crate::util::{ms, pid_cpu, quantile, Rng};
use ccs::core::library::Library;
use ccs::core::synthesis::Synthesizer;
use ccs::exec::Executor;
use ccs::gen::io;
use ccs::netsim::resilience::{self, ResilienceConfig};
use ccs::obs::json::{self, Value};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Request slots of the daemon under test.
pub const WORKERS: usize = 2;
/// Client connections (one load-generating process).
pub const CONNECTIONS: usize = 2;
/// Named re-synthesis sessions the edits spread over.
pub const SESSIONS: usize = 4;
/// Ranks (slowest first) in the small pool of the sessions' instances.
const SESSION_RANKS: [usize; SESSIONS] = [8, 16, 24, 32];

/// The `serve_mix` reference rate, req/s: about half of what the daemon
/// sustained at the commit that introduced the benchmark on a 2-core
/// x86-64 host. Fixed, so latency at this rate compares across commits.
pub const REF_RATE: f64 = 150.0;
/// A ladder step passes only while its p99 latency stays under this.
pub const P99_LIMIT_MS: f64 = 100.0;
/// A step whose sends ran this late (p99) is invalid: the generator,
/// not the daemon, fell behind.
pub const LATE_LIMIT_MS: f64 = 10.0;
/// Ladder growth factor and the bisection steps that refine the knee.
const LADDER_GROWTH: f64 = 1.25;
const LADDER_RUNGS: usize = 8;
const BISECTIONS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Synth,
    Analyze,
    Resynth,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Synth, Kind::Analyze, Kind::Resynth];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Synth => "synth",
            Kind::Analyze => "analyze",
            Kind::Resynth => "resynth",
        }
    }
}

/// The daemon child process. Dropping it kills and reaps the child.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    pub fn spawn(ccs: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(ccs)
            .args(["serve", "--listen", "127.0.0.1:0", "--workers"])
            .arg(WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", ccs.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        let _ = stdout.read_line(&mut banner);
        let Some(addr) = banner.trim().strip_prefix("ccs serve: listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("unexpected daemon banner {banner:?}"));
        };
        Ok(Daemon {
            addr: addr.to_string(),
            child,
            _stdout: stdout,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits up to 10 s for the child to exit after a shutdown request.
    fn reap(&mut self) -> bool {
        let t = Instant::now();
        while t.elapsed() < Duration::from_secs(10) {
            if let Ok(Some(status)) = self.child.try_wait() {
                return status.success();
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One scheduled request.
struct Req {
    due_ns: u64,
    done_ns: u64,
    ok: bool,
    kind: Kind,
    session: Option<usize>,
    expect: usize,
}

#[derive(Default)]
struct SessionQueue {
    busy: bool,
    pending: VecDeque<String>,
}

struct Shared {
    reqs: Mutex<Vec<Req>>,
    sessions: Vec<Mutex<SessionQueue>>,
    writers: Vec<Mutex<TcpStream>>,
    /// Substrings every correct answer to an `expect` index contains.
    expected: Vec<Vec<String>>,
    control: Mutex<Sender<String>>,
}

impl Shared {
    fn send(&self, conn: usize, line: &str) -> bool {
        let mut w = self.writers[conn].lock().expect("writer lock");
        w.write_all(line.as_bytes()).is_ok()
    }

    /// Sends a resynth now, or queues it behind its session's
    /// in-flight edit (its latency still counts from when it was due).
    fn send_resynth(&self, s: usize, line: String) -> bool {
        let mut q = self.sessions[s].lock().expect("session lock");
        if q.busy {
            q.pending.push_back(line);
            return true;
        }
        q.busy = true;
        self.send(s % CONNECTIONS, &line)
    }

    fn release(&self, s: usize) {
        let mut q = self.sessions[s].lock().expect("session lock");
        match q.pending.pop_front() {
            Some(line) => {
                self.send(s % CONNECTIONS, &line);
            }
            None => q.busy = false,
        }
    }

    fn on_line(&self, line: &str) {
        let now = now_ns();
        // Answers sort their keys, so a scheduled request's answer
        // starts with its `q<n>` id; everything else (control answers,
        // whose ids sort later) goes to `Client::call`.
        let Some(idx) = line
            .strip_prefix("{\"id\":\"q")
            .and_then(|r| r.split('"').next())
            .and_then(|n| n.parse::<usize>().ok())
        else {
            let _ = self
                .control
                .lock()
                .expect("control lock")
                .send(line.to_string());
            return;
        };
        let (expect, session) = {
            let reqs = self.reqs.lock().expect("reqs lock");
            (reqs[idx].expect, reqs[idx].session)
        };
        let ok = line.contains("\"status\":\"ok\"")
            && self.expected[expect]
                .iter()
                .all(|e| line.contains(e.as_str()));
        {
            let mut reqs = self.reqs.lock().expect("reqs lock");
            reqs[idx].done_ns = now;
            reqs[idx].ok = ok;
        }
        if let Some(s) = session {
            self.release(s);
        }
    }
}

/// A request ready to schedule: its kind, wire body (everything but
/// the id), session, and expected-answer index.
#[derive(Clone)]
pub struct Planned {
    pub gap: f64,
    pub kind: Kind,
    pub body: Arc<str>,
    pub session: Option<usize>,
    pub expect: usize,
}

/// What one open-loop phase measured.
#[derive(Debug, Default)]
pub struct PhaseResult {
    pub rate: f64,
    pub due: usize,
    pub completed: usize,
    pub failed: usize,
    pub latency_ms: Vec<f64>,
    pub by_kind: [Vec<f64>; 3],
    pub late_ms_p99: f64,
    pub late_ms_max: f64,
    pub backlog_growth: usize,
    pub achieved: f64,
}

impl PhaseResult {
    pub fn p99(&self) -> f64 {
        quantile(&mut self.latency_ms.clone(), 0.99)
    }

    pub fn valid(&self) -> bool {
        self.late_ms_p99 <= LATE_LIMIT_MS
    }

    /// Under the latency limit, no failures, and the backlog did not
    /// grow beyond what is in service at this rate.
    pub fn passes(&self) -> bool {
        self.valid()
            && self.failed == 0
            && self.p99() <= P99_LIMIT_MS
            && self.backlog_growth <= 8.max(self.due / 20)
    }

    pub fn to_json(&self) -> Value {
        let mut o = BTreeMap::new();
        let verdict = if !self.valid() {
            "invalid"
        } else if self.passes() {
            "pass"
        } else {
            "fail"
        };
        o.insert("rate_per_s".into(), Value::Num(self.rate));
        o.insert("achieved_per_s".into(), Value::Num(self.achieved));
        o.insert("due".into(), Value::Num(self.due as f64));
        o.insert("completed".into(), Value::Num(self.completed as f64));
        o.insert("failed".into(), Value::Num(self.failed as f64));
        o.insert("latency_ms_p99".into(), Value::Num(self.p99()));
        o.insert("late_ms_p99".into(), Value::Num(self.late_ms_p99));
        o.insert("late_ms_max".into(), Value::Num(self.late_ms_max));
        o.insert(
            "backlog_growth".into(),
            Value::Num(self.backlog_growth as f64),
        );
        o.insert("verdict".into(), Value::Str(verdict.into()));
        Value::Obj(o)
    }
}

/// Two connections to the daemon, each with a reader thread. Responses
/// to scheduled requests (ids `q<n>`) are matched and checked by the
/// readers; every other response goes to [`Client::call`].
pub struct Client {
    shared: Arc<Shared>,
    streams: Vec<TcpStream>,
    readers: Vec<JoinHandle<()>>,
    control: Receiver<String>,
    next_control: u64,
}

impl Client {
    pub fn connect(
        addr: &str,
        sessions: usize,
        expected: Vec<Vec<String>>,
    ) -> Result<Client, String> {
        let (tx, rx) = channel();
        let mut streams = Vec::new();
        let mut writers = Vec::new();
        for _ in 0..CONNECTIONS {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            writers.push(Mutex::new(s.try_clone().map_err(|e| e.to_string())?));
            streams.push(s);
        }
        let shared = Arc::new(Shared {
            reqs: Mutex::new(Vec::new()),
            sessions: (0..sessions).map(|_| Mutex::default()).collect(),
            writers,
            expected,
            control: Mutex::new(tx),
        });
        let mut readers = Vec::new();
        for s in &streams {
            let shared = shared.clone();
            let mut r = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
            readers.push(std::thread::spawn(move || {
                let mut line = String::new();
                loop {
                    line.clear();
                    match r.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => shared.on_line(&line),
                    }
                }
            }));
        }
        Ok(Client {
            shared,
            streams,
            readers,
            control: rx,
            next_control: 0,
        })
    }

    /// Sends one request (`body` is every field but the id) on the
    /// first connection and waits for its answer.
    pub fn call(&mut self, body: &str) -> Result<String, String> {
        self.next_control += 1;
        let line = format!("{{\"id\":\"c{}\",{body}}}\n", self.next_control);
        if !self.shared.send(0, &line) {
            return Err("daemon connection closed".to_string());
        }
        self.control
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| {
                format!(
                    "no answer from the daemon to {}",
                    &line[..line.len().min(120)]
                )
            })
    }

    /// Runs one open-loop phase at `rate`: each request is sent when
    /// due, timed from when it was due, and the phase waits for every
    /// answer before it returns.
    pub fn phase(&self, plan: &[Planned], rate: f64) -> PhaseResult {
        let start = now_ns() + 2_000_000;
        // Gaps are rescaled to average exactly 1/rate, so the phase
        // offers its nominal rate whatever the seed drew.
        let scale = plan.len() as f64 / plan.iter().map(|p| p.gap).sum::<f64>().max(1e-12);
        let mut t = start as f64;
        let dues: Vec<u64> = plan
            .iter()
            .map(|p| {
                t += p.gap * scale / rate * 1e9;
                t as u64
            })
            .collect();
        let base = {
            let mut reqs = self.shared.reqs.lock().expect("reqs lock");
            let base = reqs.len();
            reqs.extend(plan.iter().zip(&dues).map(|(p, &due_ns)| Req {
                due_ns,
                done_ns: 0,
                ok: false,
                kind: p.kind,
                session: p.session,
                expect: p.expect,
            }));
            base
        };
        let mut late = Vec::with_capacity(plan.len());
        let mut send_failed = false;
        for (i, p) in plan.iter().enumerate() {
            let due = dues[i];
            loop {
                let now = now_ns();
                if now >= due {
                    break;
                }
                let wait = due - now;
                if wait > 300_000 {
                    std::thread::sleep(Duration::from_nanos(wait - 200_000));
                } else {
                    std::hint::spin_loop();
                }
            }
            late.push((now_ns() - due) as f64 / 1e6);
            let line = format!("{{\"id\":\"q{}\",{}}}\n", base + i, p.body);
            let sent = match p.session {
                Some(s) => self.shared.send_resynth(s, line),
                None => self.shared.send((base + i) % CONNECTIONS, &line),
            };
            send_failed |= !sent;
        }
        let done_at_end = self.done_in(base, plan.len());
        let wait_from = Instant::now();
        while self.done_in(base, plan.len()) < plan.len()
            && !send_failed
            && wait_from.elapsed() < Duration::from_secs(30)
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let reqs = self.shared.reqs.lock().expect("reqs lock");
        let mut r = PhaseResult {
            rate,
            due: plan.len(),
            backlog_growth: plan.len() - done_at_end,
            late_ms_p99: quantile(&mut late.clone(), 0.99),
            late_ms_max: late.iter().copied().fold(0.0, f64::max),
            ..PhaseResult::default()
        };
        let mut last = start;
        for q in &reqs[base..] {
            if q.done_ns == 0 || !q.ok {
                r.failed += 1;
                continue;
            }
            let lat = (q.done_ns.saturating_sub(q.due_ns)) as f64 / 1e6;
            r.completed += 1;
            r.latency_ms.push(lat);
            r.by_kind[q.kind as usize].push(lat);
            last = last.max(q.done_ns);
        }
        r.achieved = r.completed as f64 / ((last - start) as f64 / 1e9).max(1e-9);
        r
    }

    fn done_in(&self, base: usize, n: usize) -> usize {
        let reqs = self.shared.reqs.lock().expect("reqs lock");
        reqs[base..base + n]
            .iter()
            .filter(|q| q.done_ns != 0)
            .count()
    }

    /// Closes both connections and joins the readers.
    pub fn close(self) {
        for s in &self.streams {
            let _ = s.shutdown(Shutdown::Both);
        }
        for r in self.readers {
            let _ = r.join();
        }
    }
}

/// The `"schema":...,"kind":...` prefix of every request body.
fn body(kind: &str) -> String {
    format!("\"schema\":\"ccs-request-v1\",\"kind\":\"{kind}\"")
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    Value::Str(s.to_string()).write_compact(&mut out);
    out
}

/// A synth or analyze request body for an instance.
pub fn instance_body(kind: Kind, inst: &Instance, library_text: &str) -> String {
    let mut b = body(kind.name());
    if let Some(k) = inst.pool.max_k() {
        b.push_str(&format!(",\"max_k\":{k}"));
    }
    b.push_str(&format!(
        ",\"instance\":{},\"library\":{}",
        json_str(&inst.text),
        json_str(library_text)
    ));
    b
}

/// The resynth body that opens `session` on the daemon.
pub fn open_body(s: &Session, pool: Pool, library_text: &str) -> String {
    let mut b = body("resynth");
    b.push_str(&format!(",\"session\":{}", json_str(&s.name)));
    if let Some(k) = pool.max_k() {
        b.push_str(&format!(",\"max_k\":{k}"));
    }
    b.push_str(&format!(
        ",\"instance\":{},\"library\":{},\"edits\":[]",
        json_str(&s.text),
        json_str(library_text)
    ));
    b
}

pub fn edit_body(s: &Session, k: usize) -> String {
    format!(
        "{},\"session\":{},\"edits\":[{}]",
        body("resynth"),
        json_str(&s.name),
        s.edits[k % crate::staged::CYCLE].to_json()
    )
}

/// Expected answer substrings of an analyze request: the topology and
/// the N-1 resilience document the daemon computes on one thread.
pub fn analyze_expected(inst: &Instance, library: &Library) -> (Expected, String) {
    let r = Synthesizer::new(&inst.graph, library)
        .with_config(inst.pool.config(1))
        .run()
        .expect("pool instance synthesizes");
    let sweep = resilience::analyze(
        &inst.graph,
        &r.implementation,
        &ResilienceConfig::default(),
        &Executor::new(1),
    );
    let mut res = String::from("\"resilience\":");
    resilience::resilience_json(&sweep).write_compact(&mut res);
    (Expected::of(&r, &inst.graph, library), res)
}

/// Daemon telemetry read from the `stats` op and the shutdown ack.
#[derive(Debug, Default)]
pub struct Telemetry {
    pub queue_wait_ms_p99: f64,
    pub run_ms_p50: f64,
    pub queue_depth_hwm: f64,
    pub cache_hit_ratio: f64,
}

impl Telemetry {
    /// Reads the lifetime per-op windows of a stats answer: the worst
    /// per-op queue-wait p99 and the run-time p50 of the busiest op.
    pub fn from_stats(line: &str) -> Telemetry {
        let doc = json::parse(line.trim()).unwrap_or(Value::Null);
        let stats = doc.get("stats").cloned().unwrap_or(Value::Null);
        let num = |v: Option<&Value>| v.and_then(Value::as_num).unwrap_or(0.0);
        let mut t = Telemetry {
            queue_depth_hwm: num(stats.get("queue").and_then(|q| q.get("depth_hwm"))),
            ..Telemetry::default()
        };
        let mut busiest = 0.0;
        for k in Kind::ALL {
            let Some(op) = stats.get("ops").and_then(|o| o.get(k.name())) else {
                continue;
            };
            let life = |m: &str| op.get(m).and_then(|w| w.get("lifetime")).cloned();
            let qw = life("queue_wait").unwrap_or(Value::Null);
            let run = life("run").unwrap_or(Value::Null);
            t.queue_wait_ms_p99 = t.queue_wait_ms_p99.max(num(qw.get("p99_ns")) / 1e6);
            let count = num(run.get("count"));
            if count > busiest {
                busiest = count;
                t.run_ms_p50 = num(run.get("p50_ns")) / 1e6;
            }
        }
        t
    }

    pub fn add_ack(&mut self, ack: &str) {
        let doc = json::parse(ack.trim()).unwrap_or(Value::Null);
        let num = |k: &str| doc.get(k).and_then(Value::as_num).unwrap_or(0.0);
        let (hits, misses) = (num("cache_hits"), num("cache_misses"));
        self.cache_hit_ratio = if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        };
    }

    pub fn metrics(&self, rtt: &[Vec<f64>; 3], out: &mut Vec<(String, f64, &'static str)>) {
        for k in Kind::ALL {
            let mut v = rtt[k as usize].clone();
            out.push((
                format!("serve.rtt_ms_p99.{}", k.name()),
                quantile(&mut v, 0.99),
                "ms",
            ));
        }
        out.push((
            "serve.queue_wait_ms_p99".into(),
            self.queue_wait_ms_p99,
            "ms",
        ));
        out.push(("serve.run_ms_p50".into(), self.run_ms_p50, "ms"));
        out.push((
            "serve.queue_depth_hwm".into(),
            self.queue_depth_hwm,
            "count",
        ));
        out.push((
            "serve.cache_hit_ratio".into(),
            self.cache_hit_ratio,
            "ratio",
        ));
    }
}

/// A live daemon with its client and opened sessions.
pub struct Served {
    pub daemon: Daemon,
    pub client: Client,
}

impl Served {
    /// Spawns the daemon, waits for its first `ping` answer and opens
    /// every session.
    pub fn start(
        ccs: &Path,
        sessions: &[Session],
        pool: Pool,
        library_text: &str,
        expected: Vec<Vec<String>>,
    ) -> Result<Served, String> {
        let daemon = Daemon::spawn(ccs)?;
        let mut client = Client::connect(&daemon.addr, sessions.len(), expected)?;
        let pong = client.call(&body("ping"))?;
        if !pong.contains("\"status\":\"ok\"") {
            return Err(format!("ping answered {pong}"));
        }
        for s in sessions {
            let a = client.call(&open_body(s, pool, library_text))?;
            if !a.contains("\"status\":\"ok\"") {
                return Err(format!("session {} did not open: {a}", s.name));
            }
        }
        Ok(Served { daemon, client })
    }

    pub fn stats(&mut self) -> Result<String, String> {
        self.client.call(&body("stats"))
    }

    /// Graceful shutdown: returns the ack line once the daemon exited.
    pub fn stop(mut self) -> Result<String, String> {
        let ack = self.client.call(&body("shutdown"));
        self.client.close();
        let exited = self.daemon.reap();
        let ack = ack?;
        if !exited {
            return Err("daemon did not exit after shutdown".to_string());
        }
        Ok(ack)
    }
}

/// The seeded `serve_mix` inputs: instances, sessions, bodies, expected
/// answers and the request stream.
pub struct Mix {
    pub instances: Vec<Instance>,
    pub library: Library,
    pub sessions: Vec<Session>,
    /// Expected-answer substrings, indexed by [`Planned::expect`].
    pub expected: Vec<Vec<String>>,
    /// Per-instance synth and analyze answers (cost, p2p cost).
    pub answers: Vec<Expected>,
    /// Synth then analyze: request bodies per instance, the seeded
    /// order requests walk the pool in, and how far each walk got.
    bodies: [Vec<Arc<str>>; 2],
    cycles: [Vec<usize>; 2],
    drawn: [usize; 2],
    rng: Rng,
    edits_sent: Vec<usize>,
}

impl Mix {
    /// The instance pool, parsed from its file text (the timed part of
    /// setup).
    pub fn load_instances() -> (Vec<Instance>, Library, String) {
        let instances: Vec<Instance> = pool::reference(Pool::Small)
            .into_iter()
            .map(|e| Instance::load(Pool::Small, e))
            .collect();
        let library_text = io::library_to_string(&Pool::Small.library());
        let library = io::library_from_str(&library_text).expect("library text parses");
        (instances, library, library_text)
    }

    /// Builds the request stream of `seed` over loaded instances, with
    /// every expected answer computed in-process.
    pub fn new(seed: u64, instances: Vec<Instance>, library: Library, library_text: String) -> Mix {
        let mut rng = Rng::new(seed);
        // Sessions always edit the same four mid-sized instances (the
        // seed picks the edits): which instances a session holds sets
        // the cost of every one of its edits, and a seed-drawn choice
        // would swing the mix's mean cost from seed to seed.
        let mut by_time: Vec<usize> = (0..instances.len()).collect();
        by_time.sort_by_key(|&i| instances[i].reference.stratum);
        let sessions: Vec<Session> = (0..SESSIONS)
            .map(|s| {
                let inst = &instances[by_time[SESSION_RANKS[s]]];
                Session::new(format!("s{s}"), inst, &library, &mut rng)
            })
            .collect();
        let mut expected = Vec::new();
        let mut answers = Vec::new();
        for inst in &instances {
            let (e, res) = analyze_expected(inst, &library);
            expected.push(vec![e.topology.clone()]);
            expected.push(vec![e.topology.clone(), res]);
            answers.push(e);
        }
        for s in &sessions {
            for e in &s.expected {
                expected.push(vec![e.topology.clone()]);
            }
        }
        let bodies = |k: Kind| -> Vec<Arc<str>> {
            instances
                .iter()
                .map(|i| Arc::from(instance_body(k, i, &library_text)))
                .collect()
        };
        let bodies = [bodies(Kind::Synth), bodies(Kind::Analyze)];
        let cycles = [0, 1].map(|_| {
            let mut c: Vec<usize> = (0..instances.len()).collect();
            rng.shuffle(&mut c);
            c
        });
        Mix {
            instances,
            library,
            sessions,
            expected,
            answers,
            bodies,
            cycles,
            drawn: [0, 0],
            rng,
            edits_sent: vec![0; SESSIONS],
        }
    }

    /// The next `n` requests: Poisson arrivals (gaps in units of the
    /// mean gap), ~50% synth, ~20% analyze, ~30% resynth. Synth and
    /// analyze walk a seeded cycle over the whole pool, so every
    /// instance is asked about equally often.
    pub fn next(&mut self, n: usize) -> Vec<Planned> {
        let sessions_base = 2 * self.instances.len();
        (0..n)
            .map(|_| {
                let gap = -(1.0 - self.rng.unit()).ln();
                let u = self.rng.unit();
                if u < 0.7 {
                    let slot = usize::from(u >= 0.5);
                    let cycle = &self.cycles[slot];
                    let inst = cycle[self.drawn[slot] % cycle.len()];
                    self.drawn[slot] += 1;
                    Planned {
                        gap,
                        kind: [Kind::Synth, Kind::Analyze][slot],
                        body: self.bodies[slot][inst].clone(),
                        session: None,
                        expect: 2 * inst + slot,
                    }
                } else {
                    let s = self.rng.below(SESSIONS);
                    let k = self.edits_sent[s];
                    self.edits_sent[s] += 1;
                    let pos = k % crate::staged::CYCLE;
                    Planned {
                        gap,
                        kind: Kind::Resynth,
                        body: Arc::from(edit_body(&self.sessions[s], k)),
                        session: Some(s),
                        expect: sessions_base + s * crate::staged::CYCLE + pos,
                    }
                }
            })
            .collect()
    }

    /// Σ cost / Σ p2p cost over the synth and analyze requests of a plan.
    pub fn cost_ratio(&self, plan: &[Planned]) -> (f64, f64) {
        let sessions_base = 2 * self.instances.len();
        plan.iter()
            .filter(|p| p.expect < sessions_base)
            .map(|p| &self.answers[p.expect / 2])
            .fold((0.0, 0.0), |(c, p), e| (c + e.cost, p + e.p2p_cost))
    }
}

/// The rate ladder: rungs grow by [`LADDER_GROWTH`] from the reference
/// rate until one fails, then bisection refines the knee. Returns the
/// achieved rate of the best passing step (the reference phase when no
/// rung passed) and every step's record.
pub fn ladder(
    client: &Client,
    mix: &mut Mix,
    reference: &PhaseResult,
    step_secs: f64,
) -> (f64, Vec<Value>) {
    let mut steps = Vec::new();
    let mut best = reference.passes().then_some((REF_RATE, reference.achieved));
    let mut fail_rate = None;
    let mut run = |rate: f64, steps: &mut Vec<Value>| {
        let plan = mix.next((rate * step_secs).ceil() as usize);
        let r = client.phase(&plan, rate);
        steps.push(r.to_json());
        r
    };
    let mut rate = REF_RATE * LADDER_GROWTH;
    for _ in 0..LADDER_RUNGS {
        let r = run(rate, &mut steps);
        if r.passes() {
            best = Some((rate, r.achieved));
            rate *= LADDER_GROWTH;
        } else {
            fail_rate = Some(rate);
            break;
        }
    }
    if let (Some(mut hi), Some((mut lo, _))) = (fail_rate, best) {
        for _ in 0..BISECTIONS {
            let mid = (lo * hi).sqrt();
            let r = run(mid, &mut steps);
            if r.passes() {
                best = Some((mid, r.achieved));
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    (best.map_or(0.0, |b| b.1), steps)
}

/// Daemon CPU time so far, ms.
pub fn daemon_cpu_ms(d: &Daemon) -> f64 {
    pid_cpu(d.pid()).map_or(0.0, ms)
}
