//! The traced run's in-process layers.
//!
//! The pipeline runs stage by stage through the public functions
//! `Synthesizer::run` calls, with one span per call sharing a
//! per-instance id and CPU time and allocations read around each stage.
//! The staged result must equal `Synthesizer::run` bit for bit, so the
//! per-layer split cannot drift from the real pipeline. Incremental
//! re-synthesis, the resilience sweep and request parsing are timed the
//! same way, from outside each layer's public entry point.

use crate::pool::{selected_digest, Instance, Pool};
use crate::util::{ms, process_cpu, quantile, Rng};
use ccs::core::constraint::ConstraintGraph;
use ccs::core::cover::select_seeded_on;
use ccs::core::error::SynthesisError;
use ccs::core::implementation::ImplementationGraph;
use ccs::core::library::Library;
use ccs::core::matrices::DistanceMatrices;
use ccs::core::merging::enumerate_with;
use ccs::core::placement::{
    merge_candidate_explained, merge_cost_lower_bound, point_to_point_candidate, Candidate,
    PlacementCache,
};
use ccs::core::report::topology_json;
use ccs::core::synthesis::{Edit, SynthesisConfig, SynthesisResult, SynthesisSession, Synthesizer};
use ccs::core::units::Bandwidth;
use ccs::exec::Executor;
use ccs::geom::Point2;
use ccs::netsim::resilience::{self, ResilienceConfig};
use ccs::obs::json::Value;
use ccs::obs::{alloc, Collector, Record};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Worker threads of every in-process synthesis (the box has two cores).
pub const THREADS: usize = 2;

/// Nanoseconds since the first call: the time base of every span.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One traced call. `parent` indexes the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub instance: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn to_json(&self) -> String {
        let parent = self.parent.map_or("null".to_string(), |p| p.to_string());
        format!(
            "{{\"instance\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
            self.instance, self.name, self.start_ns, self.end_ns, parent
        )
    }
}

/// Wall time, CPU time and allocations of one stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stage {
    pub wall: Duration,
    pub cpu: Duration,
    pub allocs: u64,
}

impl Stage {
    fn add(&mut self, o: &Stage) {
        self.wall += o.wall;
        self.cpu += o.cpu;
        self.allocs += o.allocs;
    }
}

/// Runs `f` as one stage span, reading wall, CPU and allocations around it.
fn stage<R>(
    spans: &mut Vec<Span>,
    instance: u32,
    parent: usize,
    name: &'static str,
    f: impl FnOnce(&mut Vec<Span>) -> R,
) -> (R, Stage) {
    let a0 = alloc::stats();
    let c0 = process_cpu();
    let start_ns = now_ns();
    let idx = spans.len();
    spans.push(Span {
        instance,
        name,
        start_ns,
        end_ns: start_ns,
        parent: Some(parent),
    });
    let r = f(spans);
    let end_ns = now_ns();
    spans[idx].end_ns = end_ns;
    let st = Stage {
        wall: Duration::from_nanos(end_ns - start_ns),
        cpu: process_cpu() - c0,
        allocs: alloc::stats().delta_since(&a0).allocs,
    };
    (r, st)
}

/// What one staged run produced and measured.
pub struct Staged {
    pub implementation: ImplementationGraph,
    pub selected: Vec<Candidate>,
    pub candidates: usize,
    pub stages: [Stage; 6],
    pub examined: u64,
    pub survivors: u64,
    pub gated: u64,
    pub solved: u64,
    pub kept: u64,
    pub solve_us: Vec<f64>,
    pub rows: u64,
    pub cols: u64,
    pub bnb_nodes: u64,
}

impl Staged {
    /// Bit-for-bit agreement with `Synthesizer::run`: same cost bits,
    /// same selected arc sets, same candidate count.
    pub fn matches(&self, r: &SynthesisResult) -> bool {
        self.implementation.total_cost().to_bits() == r.total_cost().to_bits()
            && self.candidates == r.candidates.len()
            && self.selected.len() == r.selected.len()
            && self
                .selected
                .iter()
                .zip(&r.selected)
                .all(|(a, b)| a.arcs == b.arcs && a.cost.to_bits() == b.cost.to_bits())
    }
}

/// The cold pipeline of `Synthesizer::run`, stage by stage.
pub fn staged(
    graph: &ConstraintGraph,
    library: &Library,
    cfg: &SynthesisConfig,
    exec: &Executor,
    instance: u32,
    spans: &mut Vec<Span>,
) -> Result<Staged, SynthesisError> {
    let root = spans.len();
    spans.push(Span {
        instance,
        name: "pipeline",
        start_ns: now_ns(),
        end_ns: 0,
        parent: None,
    });
    let n = graph.arc_count();
    let (p2p, s_p2p) = stage(spans, instance, root, "p2p", |spans| {
        let parent = spans.len() - 1;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let start_ns = now_ns();
            let c = point_to_point_candidate(graph, library, i);
            spans.push(Span {
                instance,
                name: "p2p.point_to_point_candidate",
                start_ns,
                end_ns: now_ns(),
                parent: Some(parent),
            });
            out.push(c?);
        }
        Ok::<_, SynthesisError>(out)
    });
    let mut candidates = p2p?;
    let (matrices, s_mat) = stage(spans, instance, root, "matrices", |_| {
        DistanceMatrices::compute(graph)
    });
    let (enumeration, s_merge) = stage(spans, instance, root, "merging", |_| {
        enumerate_with(graph, library, &matrices, &cfg.merge, exec)
    });
    let subsets: Vec<&Vec<usize>> = enumeration.all_subsets().collect();
    let lb_gate = cfg.merge.lb_gate && !cfg.keep_dominated;
    let mut gated = 0u64;
    let mut solved = 0u64;
    let mut kept = 0u64;
    let mut solve_us = Vec::new();
    let (placed, s_place) = stage(spans, instance, root, "placement", |spans| {
        let parent = spans.len() - 1;
        let cache = PlacementCache::new();
        let p2p = &candidates;
        // (solve outcome, lb span, solve span); `None` = gated.
        let placed = exec.par_map(&subsets, |_, s| {
            let t0 = now_ns();
            let member_sum: f64 = s.iter().map(|&i| p2p[i].cost).sum();
            if lb_gate {
                let lb = merge_cost_lower_bound(graph, library, s, &cache);
                let t1 = now_ns();
                if lb >= member_sum * (1.0 - 1e-6) - 1e-12 {
                    return (None, (t0, t1), (t1, t1));
                }
                let r = merge_candidate_explained(graph, library, s, &cache);
                (Some(r), (t0, t1), (t1, now_ns()))
            } else {
                let r = merge_candidate_explained(graph, library, s, &cache);
                (Some(r), (t0, t0), (t0, now_ns()))
            }
        });
        for (r, lb, solve) in &placed {
            if lb_gate {
                spans.push(Span {
                    instance,
                    name: "placement.merge_cost_lower_bound",
                    start_ns: lb.0,
                    end_ns: lb.1,
                    parent: Some(parent),
                });
            }
            if r.is_some() {
                spans.push(Span {
                    instance,
                    name: "placement.merge_candidate_explained",
                    start_ns: solve.0,
                    end_ns: solve.1,
                    parent: Some(parent),
                });
            }
        }
        // The serial fold of `Synthesizer::run`: gate, infeasible,
        // dominated or kept, in subset order.
        let mut merged = Vec::new();
        for (subset, (r, _, solve)) in subsets.iter().zip(placed) {
            let Some(r) = r else {
                gated += 1;
                continue;
            };
            solved += 1;
            solve_us.push((solve.1 - solve.0) as f64 / 1e3);
            if let Ok(c) = r? {
                let member_sum: f64 = subset.iter().map(|&i| p2p[i].cost).sum();
                if cfg.keep_dominated || c.cost < member_sum * (1.0 - 1e-6) - 1e-12 {
                    kept += 1;
                    merged.push(c);
                }
            }
        }
        Ok::<_, SynthesisError>(merged)
    });
    candidates.extend(placed?);
    let (outcome, s_cover) = stage(spans, instance, root, "covering", |_| {
        select_seeded_on(&candidates, n, cfg.cover, None, exec)
    });
    let outcome = outcome?;
    let selected: Vec<Candidate> = outcome
        .selected
        .iter()
        .map(|&i| candidates[i].clone())
        .collect();
    let (implementation, s_asm) = stage(spans, instance, root, "assembly", |_| {
        ImplementationGraph::build(graph, library, &selected)
    });
    spans[root].end_ns = now_ns();
    let levels = &enumeration.stats.levels;
    Ok(Staged {
        implementation,
        selected,
        candidates: candidates.len(),
        stages: [s_p2p, s_mat, s_merge, s_place, s_cover, s_asm],
        examined: levels.iter().map(|l| l.examined).sum(),
        survivors: levels.iter().map(|l| l.survivors).sum(),
        gated,
        solved,
        kept,
        solve_us,
        rows: outcome.rows as u64,
        cols: outcome.cols as u64,
        bnb_nodes: outcome.stats.map_or(0, |s| s.nodes),
    })
}

/// Per-layer sums over every staged run of a traced pass.
#[derive(Default)]
pub struct Layers {
    pub runs: u64,
    pub mismatches: u64,
    pub stages: [Stage; 6],
    pub examined: u64,
    pub survivors: u64,
    pub subsets: u64,
    pub gated: u64,
    pub solved: u64,
    pub kept: u64,
    pub solve_us: Vec<f64>,
    pub rows: u64,
    pub cols: u64,
    pub bnb_nodes: u64,
    pub run_wall: Duration,
    pub staged_wall: Duration,
    pub glue: f64,
    pub parse_ms: f64,
    pub parses: u64,
}

impl Layers {
    /// Runs `Synthesizer::run` and the staged pipeline on one instance
    /// (alternating which goes first), records both and checks they
    /// agree. Returns both results when they do.
    pub fn measure(
        &mut self,
        inst: &Instance,
        library: &Library,
        id: u32,
        spans: &mut Vec<Span>,
    ) -> Option<(Staged, SynthesisResult)> {
        let cfg = inst.pool.config(THREADS);
        let exec = Executor::new(THREADS);
        let run = |cfg: &SynthesisConfig| {
            let t = Instant::now();
            let r = Synthesizer::new(&inst.graph, library)
                .with_config(cfg.clone())
                .run();
            (r, t.elapsed())
        };
        let run_first = id.is_multiple_of(2);
        let mut before = None;
        if run_first {
            before = Some(run(&cfg));
        }
        let t = Instant::now();
        let s = staged(&inst.graph, library, &cfg, &exec, id, spans);
        let staged_wall = t.elapsed();
        let (r, run_wall) = before.unwrap_or_else(|| run(&cfg));
        self.runs += 1;
        let (Ok(r), Ok(s)) = (r, s) else {
            self.mismatches += 1;
            return None;
        };
        if !s.matches(&r) {
            self.mismatches += 1;
            return None;
        }
        for (acc, st) in self.stages.iter_mut().zip(&s.stages) {
            acc.add(st);
        }
        let stage_sum: Duration = s.stages.iter().map(|st| st.wall).sum();
        self.glue += ms(run_wall) - ms(stage_sum);
        self.run_wall += run_wall;
        self.staged_wall += staged_wall;
        self.examined += s.examined;
        self.survivors += s.survivors;
        self.subsets += s.gated + s.solved;
        self.gated += s.gated;
        self.solved += s.solved;
        self.kept += s.kept;
        self.solve_us.extend_from_slice(&s.solve_us);
        self.rows += s.rows;
        self.cols += s.cols;
        self.bnb_nodes += s.bnb_nodes;
        Some((s, r))
    }

    /// Times parsing the instance text (the `io` layer).
    pub fn parse(&mut self, inst: &Instance) {
        let t = Instant::now();
        let g = ccs::gen::io::instance_from_str(&inst.text);
        self.parse_ms += ms(t.elapsed());
        self.parses += 1;
        if g.map(|g| g.arc_count()) != Ok(inst.graph.arc_count()) {
            self.mismatches += 1;
        }
    }

    pub fn metrics(&self, out: &mut Vec<(String, f64, &'static str)>) {
        let n = self.runs.max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let busy = |i: usize| ms(self.stages[i].wall) / n;
        let par_eff = |i: usize| {
            let wall = self.stages[i].wall.as_secs_f64() * THREADS as f64;
            if wall > 0.0 {
                self.stages[i].cpu.as_secs_f64() / wall
            } else {
                0.0
            }
        };
        let mut solve = self.solve_us.clone();
        let mut push =
            |name: &str, v: f64, unit: &'static str| out.push((name.to_string(), v, unit));
        push("placement.busy_ms", busy(3), "ms");
        push("placement.cpu_ms", ms(self.stages[3].cpu) / n, "ms");
        push("placement.par_eff", par_eff(3), "ratio");
        push("placement.solves", self.solved as f64 / n, "count");
        push("placement.solve_us_p50", quantile(&mut solve, 0.5), "us");
        push("placement.solve_us_p95", quantile(&mut solve, 0.95), "us");
        push(
            "placement.lb_gated_ratio",
            ratio(self.gated, self.subsets),
            "ratio",
        );
        push(
            "placement.kept_ratio",
            ratio(self.kept, self.solved),
            "ratio",
        );
        push(
            "placement.allocs",
            self.stages[3].allocs as f64 / n,
            "count",
        );
        push("covering.busy_ms", busy(4), "ms");
        push("covering.cpu_ms", ms(self.stages[4].cpu) / n, "ms");
        push("covering.par_eff", par_eff(4), "ratio");
        push("covering.cols", self.cols as f64 / n, "count");
        push("covering.rows", self.rows as f64 / n, "count");
        push("covering.bnb_nodes", self.bnb_nodes as f64 / n, "count");
        push("covering.allocs", self.stages[4].allocs as f64 / n, "count");
        push("p2p.busy_ms", busy(0), "ms");
        push("matrices.busy_ms", busy(1), "ms");
        push("merging.busy_ms", busy(2), "ms");
        push("merging.examined", self.examined as f64 / n, "count");
        push("merging.survivors", self.survivors as f64 / n, "count");
        push("assembly.busy_ms", busy(5), "ms");
        push(
            "io.parse_ms",
            self.parse_ms / self.parses.max(1) as f64,
            "ms",
        );
        push("pipeline.glue_ms", self.glue / n, "ms");
        push(
            "trace.overhead_pct",
            (self.staged_wall.as_secs_f64() / self.run_wall.as_secs_f64().max(1e-12) - 1.0) * 100.0,
            "%",
        );
    }
}

/// The answer a request or edit must reproduce.
#[derive(Debug, Clone)]
pub struct Expected {
    pub cost_bits: u64,
    pub selected: u64,
    pub cost: f64,
    pub p2p_cost: f64,
    /// `"topology":{...}` exactly as a response embeds it.
    pub topology: String,
}

impl Expected {
    pub fn of(r: &SynthesisResult, graph: &ConstraintGraph, library: &Library) -> Expected {
        let mut topology = String::from("\"topology\":");
        topology_json(r, graph, library).write_compact(&mut topology);
        Expected {
            cost_bits: r.total_cost().to_bits(),
            selected: selected_digest(&r.selected),
            cost: r.total_cost(),
            p2p_cost: r.stats.p2p_cost,
            topology,
        }
    }

    pub fn matches(&self, r: &SynthesisResult) -> bool {
        r.total_cost().to_bits() == self.cost_bits && selected_digest(&r.selected) == self.selected
    }
}

/// One edit of a session's stream, in wire form.
#[derive(Debug, Clone)]
pub enum EditSpec {
    Rate { arc: usize, mbps: f64 },
    Move { port: String, x: f64, y: f64 },
}

impl EditSpec {
    pub fn to_edit(&self) -> Edit {
        match self {
            EditSpec::Rate { arc, mbps } => Edit::ArcRate {
                arc: *arc,
                bandwidth: Bandwidth::from_mbps(*mbps),
            },
            EditSpec::Move { port, x, y } => Edit::MovePort {
                port: port.clone(),
                position: Point2::new(*x, *y),
            },
        }
    }

    pub fn to_json(&self) -> String {
        let mut obj = std::collections::BTreeMap::new();
        match self {
            EditSpec::Rate { arc, mbps } => {
                obj.insert("op".to_string(), Value::Str("arc_rate".to_string()));
                obj.insert("arc".to_string(), Value::Num(*arc as f64));
                obj.insert("mbps".to_string(), Value::Num(*mbps));
            }
            EditSpec::Move { port, x, y } => {
                obj.insert("op".to_string(), Value::Str("move".to_string()));
                obj.insert("port".to_string(), Value::Str(port.clone()));
                obj.insert("x".to_string(), Value::Num(*x));
                obj.insert("y".to_string(), Value::Num(*y));
            }
        }
        let mut s = String::new();
        Value::Obj(obj).write_compact(&mut s);
        s
    }

    /// The instance after this edit, rebuilt the way a session rebuilds
    /// it (insertion order kept, distances recomputed).
    fn apply(&self, graph: &ConstraintGraph) -> ConstraintGraph {
        let mut b = ConstraintGraph::builder(graph.norm());
        for (_, p) in graph.ports() {
            let pos = match self {
                EditSpec::Move { port, x, y } if *port == p.name => Point2::new(*x, *y),
                _ => p.position,
            };
            b.add_port(p.name.clone(), pos);
        }
        for (id, a) in graph.arcs() {
            let bw = match self {
                EditSpec::Rate { arc, mbps } if *arc == id.index() => Bandwidth::from_mbps(*mbps),
                _ => a.bandwidth,
            };
            b.add_channel_limited(a.src, a.dst, bw, a.max_hops)
                .expect("edited channel stays valid");
        }
        b.build().expect("edited instance stays valid")
    }
}

/// Edits per session cycle: every cycle undoes itself, so a session
/// walks the same few states and each has a precomputed cold answer.
pub const CYCLE: usize = 6;

/// A named re-synthesis session: a base instance and its edit cycle
/// (arc-rate and port-move edits), with the cold answer after each edit.
pub struct Session {
    pub name: String,
    pub text: String,
    pub graph: ConstraintGraph,
    pub edits: Vec<EditSpec>,
    pub expected: Vec<Expected>,
}

impl Session {
    pub fn new(name: String, inst: &Instance, library: &Library, rng: &mut Rng) -> Session {
        let g = &inst.graph;
        let n = g.arc_count();
        let a = rng.below(n);
        let c = (a + 1 + rng.below(n - 1)) % n;
        let bw = |i: usize| g.arcs().nth(i).expect("arc").1.bandwidth.as_mbps();
        let (pid, port) = g.ports().nth(rng.below(g.port_count())).expect("port");
        let (mut lo, mut hi) = (
            Point2::new(f64::MAX, f64::MAX),
            Point2::new(f64::MIN, f64::MIN),
        );
        for (_, p) in g.ports() {
            lo = Point2::new(lo.x.min(p.position.x), lo.y.min(p.position.y));
            hi = Point2::new(hi.x.max(p.position.x), hi.y.max(p.position.y));
        }
        let step = 0.01 + 0.02 * rng.unit();
        let angle = rng.unit() * std::f64::consts::TAU;
        let home = g.position(pid);
        let moved = Point2::new(
            home.x + step * (hi.x - lo.x) * angle.cos(),
            home.y + step * (hi.y - lo.y) * angle.sin(),
        );
        let edits = vec![
            EditSpec::Rate {
                arc: a,
                mbps: bw(a) * (1.3 + 0.5 * rng.unit()),
            },
            EditSpec::Move {
                port: port.name.clone(),
                x: moved.x,
                y: moved.y,
            },
            EditSpec::Rate {
                arc: a,
                mbps: bw(a),
            },
            EditSpec::Move {
                port: port.name.clone(),
                x: home.x,
                y: home.y,
            },
            EditSpec::Rate {
                arc: c,
                mbps: bw(c) * (0.5 + 0.3 * rng.unit()),
            },
            EditSpec::Rate {
                arc: c,
                mbps: bw(c),
            },
        ];
        let cfg = inst.pool.config(THREADS);
        let mut state = g.clone();
        let expected = edits
            .iter()
            .map(|e| {
                state = e.apply(&state);
                let r = Synthesizer::new(&state, library)
                    .with_config(cfg.clone())
                    .run()
                    .expect("edited instance synthesizes");
                Expected::of(&r, &state, library)
            })
            .collect();
        Session {
            name,
            text: inst.text.clone(),
            graph: g.clone(),
            edits,
            expected,
        }
    }
}

/// In-process `SynthesisSession::resynthesize` over each session's edit
/// stream (`cycles` cycles), every answer checked against the cold one.
#[derive(Default)]
pub struct Resynth {
    pub edit_ms: Vec<f64>,
    pub invalidated: u64,
    pub reused: u64,
    pub lookups: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Resynth {
    pub fn run(&mut self, sessions: &[Session], pool: Pool, library: &Library, cycles: usize) {
        for s in sessions {
            let mut session =
                SynthesisSession::new(s.graph.clone(), library.clone(), pool.config(THREADS));
            if session.resynthesize(&[]).is_err() {
                self.failed += 1;
                continue;
            }
            for k in 0..cycles * CYCLE {
                let edit = &s.edits[k % CYCLE];
                let collector = Collector::new();
                let obs = ccs::obs::scope::RequestObs::new(
                    Some(collector.clone() as Arc<dyn Record>),
                    None,
                );
                let guard = ccs::obs::scope::enter(obs);
                let t = Instant::now();
                let r = session.resynthesize(&[edit.to_edit()]);
                let took = t.elapsed();
                drop(guard);
                self.attempted += 1;
                let Ok(r) = r else {
                    self.failed += 1;
                    continue;
                };
                if !s.expected[k % CYCLE].matches(&r) {
                    self.failed += 1;
                }
                self.edit_ms.push(ms(took));
                let counters = &collector.snapshot().counters;
                self.invalidated += counters.get("resynth.invalidated").copied().unwrap_or(0);
                let stat = |k: &str| r.stats.counters.get(k).copied().unwrap_or(0);
                self.reused += stat("resynth.p2p_reused") + stat("resynth.verdicts_reused");
                let subsets: usize = r.stats.merge_stats.counts.iter().map(|c| c.1).sum();
                self.lookups += (r.stats.arc_count + subsets) as u64;
            }
        }
    }

    pub fn metrics(&self, out: &mut Vec<(String, f64, &'static str)>) {
        let mut e = self.edit_ms.clone();
        let n = self.edit_ms.len().max(1) as f64;
        out.push((
            "resynth.edit_ms_p50".to_string(),
            quantile(&mut e, 0.5),
            "ms",
        ));
        out.push((
            "resynth.edit_ms_p95".to_string(),
            quantile(&mut e, 0.95),
            "ms",
        ));
        out.push((
            "resynth.invalidated_per_edit".to_string(),
            self.invalidated as f64 / n,
            "count",
        ));
        out.push((
            "resynth.reuse_ratio".to_string(),
            self.reused as f64 / self.lookups.max(1) as f64,
            "ratio",
        ));
    }
}

/// Mean wall time of the N-1 resilience sweep per implementation, run
/// on one thread as the daemon runs it.
pub fn resilience_ms(items: &[(&ConstraintGraph, &ImplementationGraph)]) -> f64 {
    let exec = Executor::new(1);
    let t = Instant::now();
    for (g, imp) in items {
        std::hint::black_box(resilience::analyze(
            g,
            imp,
            &ResilienceConfig::default(),
            &exec,
        ));
    }
    ms(t.elapsed()) / items.len().max(1) as f64
}

/// Mean `parse_request` time per line (µs), repeating the lines until
/// at least 50 ms were measured, and the mean line size. Lines that do
/// not parse count as failures.
pub fn wire(lines: &[String]) -> (f64, f64, u64) {
    let mut parsed = 0u64;
    let mut failed = 0u64;
    let t = Instant::now();
    while t.elapsed() < Duration::from_millis(50) || parsed == 0 {
        for l in lines {
            match ccs::serve::parse_request(l.trim_end()) {
                Ok(req) => {
                    std::hint::black_box(req);
                }
                Err(_) => failed += 1,
            }
            parsed += 1;
        }
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / parsed as f64;
    let bytes = lines.iter().map(String::len).sum::<usize>() as f64 / lines.len().max(1) as f64;
    (us, bytes, failed)
}
