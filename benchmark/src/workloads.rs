//! The three workloads, untraced (end-to-end metrics) and traced
//! (per-layer metrics).

use crate::pool::{self, matches_reference, Instance, Pool, WAN_MAX_K};
use crate::serve::{self, Kind, Mix, Served, Telemetry, REF_RATE};
use crate::staged::{self, Expected, Layers, Resynth, Session, Span, Staged, THREADS};
use crate::util::{median, ms, peak_rss_mb, process_cpu, quantile, Rng};
use ccs::baselines;
use ccs::core::check::verify;
use ccs::core::library::Library;
use ccs::core::synthesis::{SynthesisResult, Synthesizer};
use ccs::gen::io;
use ccs::obs::json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Daemon spawns whose median is `setup_s` on `serve_mix`.
const SERVE_SETUP_REPS: usize = 5;
/// Share of `--seconds` spent at the reference rate; ladder steps each
/// take [`STEP_SHARE`] of it.
const REF_SHARE: f64 = 0.4;
const STEP_SHARE: f64 = 0.08;

pub type Metrics = Vec<(String, f64, &'static str)>;

/// A run's outcome: operation counts, metrics and extra details.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub details: BTreeMap<String, Value>,
    pub spans: Vec<Span>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn detail(&mut self, name: &str, value: Value) {
        self.details.insert(name.to_string(), value);
    }
}

/// Generates and parses a synth workload's instances and library.
fn load(pool: Pool, entries: &[pool::RefEntry]) -> (Vec<Instance>, Library) {
    let library =
        io::library_from_str(&io::library_to_string(&pool.library())).expect("library text parses");
    let instances = entries
        .iter()
        .cloned()
        .map(|e| Instance::load(pool, e))
        .collect();
    (instances, library)
}

/// Checks one instance's answer: `check::verify`, the reference digest,
/// and for WANs of at most 10 arcs the exhaustive partition oracle
/// (equal cost when the optimum merges at most `max_k` arcs per group,
/// never cheaper otherwise).
fn check(inst: &Instance, library: &Library, r: &SynthesisResult) -> Result<(), String> {
    if !verify(&inst.graph, library, &r.implementation).is_empty() {
        return Err("check::verify reports violations".into());
    }
    if !matches_reference(r, &inst.reference) {
        return Err("answer differs from the reference digest".into());
    }
    if inst.pool == Pool::Wan && inst.graph.arc_count() <= 10 {
        let oracle = baselines::exhaustive(&inst.graph, library).map_err(|e| e.to_string())?;
        let tol = 1e-6 * oracle.cost.max(1.0);
        let capped = oracle.selected.iter().all(|c| c.arcs.len() <= WAN_MAX_K);
        if r.total_cost() < oracle.cost - tol || (capped && r.total_cost() > oracle.cost + tol) {
            return Err(format!(
                "cost {} disagrees with the exhaustive oracle {}",
                r.total_cost(),
                oracle.cost
            ));
        }
    }
    Ok(())
}

/// `wan_synth` / `soc_synth`, untraced: one caller in a closed loop
/// over the seeded instance set for `seconds`.
pub fn synth(pool: Pool, seed: u64, seconds: f64) -> Report {
    let mut rep = Report::default();
    let entries = pool::choose(pool, seed);
    let timed_load = |setup: &mut Vec<f64>| {
        let t = Instant::now();
        let loaded = load(pool, &entries);
        setup.push(t.elapsed().as_secs_f64());
        loaded
    };
    // Set up once now and again after every pass over the instances;
    // `setup_s` is the median. One set-up takes milliseconds and the
    // host's speed shifts over seconds, so set-ups spread over the whole
    // run see the same host as the latencies do.
    let mut setup = Vec::new();
    let (instances, library) = timed_load(&mut setup);
    let n = instances.len();
    let cfg = pool.config(THREADS);
    let run = |i: usize| {
        Synthesizer::new(&instances[i].graph, &library)
            .with_config(cfg.clone())
            .run()
    };
    // Warm the allocator and code paths before timing.
    let _ = run(0);

    // Per instance, every run's latency and CPU time. An instance's
    // figures are the fastest of its runs: interference from other
    // tenants of the host only ever adds time, and on a shared host it
    // swings a run's median by 10-20% from one minute to the next, while
    // the fastest run tracks the code's own cost.
    let mut latency: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut cpu_ms: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut runs = vec![0u64; n];
    let mut first: Vec<Option<SynthesisResult>> = (0..n).map(|_| None).collect();
    let mut unstable = vec![false; n];
    let mut errors = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while Instant::now() < deadline {
        let k = i % n;
        if k == 0 && i > 0 {
            std::hint::black_box(timed_load(&mut setup));
        }
        let c = process_cpu();
        let t = Instant::now();
        let r = run(k);
        latency[k].push(ms(t.elapsed()));
        cpu_ms[k].push(ms(process_cpu() - c));
        runs[k] += 1;
        match (r, &first[k]) {
            (Err(_), _) => errors += 1,
            (Ok(r), None) => first[k] = Some(r),
            (Ok(r), Some(f)) => {
                unstable[k] |= r.total_cost().to_bits() != f.total_cost().to_bits()
                    || pool::selected_digest(&r.selected) != pool::selected_digest(&f.selected);
            }
        }
        i += 1;
    }
    let completed: u64 = runs.iter().sum();
    // Every instance counts once, whether or not the run's last pass
    // reached it.
    let fastest = |v: &Vec<f64>| v.iter().copied().fold(f64::INFINITY, f64::min);
    let ran: Vec<usize> = (0..n).filter(|&k| runs[k] > 0).collect();
    let mut samples: Vec<f64> = ran.iter().map(|&k| fastest(&latency[k])).collect();
    let pass_ms: f64 = samples.iter().sum();
    let cpu: f64 = ran.iter().map(|&k| fastest(&cpu_ms[k])).sum();

    let mut failed = errors;
    let mut problems = Vec::new();
    let (mut cost, mut p2p) = (0.0, 0.0);
    for k in 0..n {
        let Some(r) = &first[k] else { continue };
        cost += r.total_cost();
        p2p += r.stats.p2p_cost;
        let verdict = if unstable[k] {
            Err("answer changed between runs".to_string())
        } else {
            check(&instances[k], &library, r)
        };
        if let Err(e) = verdict {
            failed += runs[k];
            problems.push(Value::Str(format!(
                "gen_seed {}: {e}",
                instances[k].reference.gen_seed
            )));
        }
    }

    rep.attempted = completed;
    rep.failed = failed;
    let throughput = ran.len() as f64 / (pass_ms / 1e3).max(1e-12);
    rep.metric("setup_s", median(&mut setup), "s");
    rep.metric("throughput_per_s", throughput, "1/s");
    rep.metric("latency_ms_p50", quantile(&mut samples, 0.5), "ms");
    rep.metric("latency_ms_p95", quantile(&mut samples, 0.95), "ms");
    rep.metric("latency_ms_p99", quantile(&mut samples, 0.99), "ms");
    // One caller in a closed loop: its highest sustainable rate is its
    // throughput.
    rep.metric("max_rate_per_s", throughput, "1/s");
    rep.metric("cpu_per_op_ms", cpu / ran.len().max(1) as f64, "ms");
    rep.metric("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0), "MB");
    rep.metric("cost_vs_p2p", cost / p2p.max(1e-12), "ratio");
    rep.detail("instances", Value::Num(n as f64));
    rep.detail("samples", Value::Num(completed as f64));
    rep.detail(
        "set_digest",
        Value::Str(format!("{:016x}", pool::set_digest(&entries))),
    );
    rep.detail("problems", Value::Arr(problems));
    rep
}

/// Sessions over the first [`serve::SESSIONS`] instances of a set.
fn sessions_of(instances: &[Instance], library: &Library, seed: u64) -> Vec<Session> {
    let mut rng = Rng::new(seed ^ 0x5e55);
    instances
        .iter()
        .take(serve::SESSIONS)
        .enumerate()
        .map(|(i, inst)| Session::new(format!("s{i}"), inst, library, &mut rng))
        .collect()
}

/// Parses every instance, then runs the staged pipeline against
/// `Synthesizer::run` over all of them, pass after pass until `secs`
/// elapsed (at least once). Spans and answers come from the first pass.
fn pipeline_passes(
    layers: &mut Layers,
    instances: &[Instance],
    library: &Library,
    secs: f64,
    spans: &mut Vec<Span>,
) -> (Vec<Option<(Staged, SynthesisResult)>>, usize) {
    for inst in instances {
        layers.parse(inst);
    }
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut answers: Vec<_> = instances.iter().map(|_| None).collect();
    let mut scratch = Vec::new();
    let mut pass = 0;
    while pass == 0 || Instant::now() < deadline {
        for (i, inst) in instances.iter().enumerate() {
            let sink = if pass == 0 { &mut *spans } else { &mut scratch };
            let got = layers.measure(inst, library, i as u32, sink);
            scratch.clear();
            if pass == 0 {
                answers[i] = got;
            }
        }
        pass += 1;
    }
    (answers, pass)
}

fn layer_failures(rep: &mut Report, layers: &Layers, resynth: &Resynth, wire_failed: u64) {
    rep.attempted += layers.runs + resynth.attempted;
    rep.failed += layers.mismatches + resynth.failed + wire_failed;
}

/// `wan_synth` / `soc_synth`, traced: the staged pipeline against
/// `Synthesizer::run` on every instance, then re-synthesis, resilience,
/// request parsing and a closed-loop replay through the daemon.
pub fn synth_traced(pool: Pool, seed: u64, seconds: f64, ccs: &Path) -> Result<Report, String> {
    let mut rep = Report::default();
    let entries = pool::choose(pool, seed);
    let (instances, library) = load(pool, &entries);
    let library_text = io::library_to_string(&library);
    let mut layers = Layers::default();
    let (answers, passes) = pipeline_passes(
        &mut layers,
        &instances,
        &library,
        seconds * 0.6,
        &mut rep.spans,
    );
    let sessions = sessions_of(&instances, &library, seed);
    let mut resynth = Resynth::default();
    resynth.run(&sessions, pool, &library, 2);
    let done: Vec<(usize, &(Staged, SynthesisResult))> = answers
        .iter()
        .enumerate()
        .filter_map(|(i, a)| a.as_ref().map(|a| (i, a)))
        .collect();
    let items: Vec<_> = done
        .iter()
        .map(|(i, (s, _))| (&instances[*i].graph, &s.implementation))
        .collect();
    let resilience_ms = staged::resilience_ms(&items);
    let lines: Vec<String> = instances
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            format!(
                "{{\"id\":\"w{i}\",{}}}",
                serve::instance_body(Kind::Synth, inst, &library_text)
            )
        })
        .collect();
    let (wire_us, wire_bytes, wire_failed) = staged::wire(&lines);
    layer_failures(&mut rep, &layers, &resynth, wire_failed);

    // Closed-loop replay: every instance as synth, the first eight as
    // analyze, one cycle of each session's edits.
    let mut served = Served::start(ccs, &sessions, pool, &library_text, Vec::new())?;
    let mut rtt: [Vec<f64>; 3] = Default::default();
    let mut replay = |body: String, kind: Kind, expect: &[&str], rep: &mut Report| {
        let t = Instant::now();
        let answer = served.client.call(&body);
        rtt[kind as usize].push(ms(t.elapsed()));
        rep.attempted += 1;
        let ok = answer
            .is_ok_and(|a| a.contains("\"status\":\"ok\"") && expect.iter().all(|e| a.contains(e)));
        rep.failed += u64::from(!ok);
    };
    for (i, (_, r)) in &done {
        let inst = &instances[*i];
        let e = Expected::of(r, &inst.graph, &library);
        replay(
            serve::instance_body(Kind::Synth, inst, &library_text),
            Kind::Synth,
            &[&e.topology],
            &mut rep,
        );
        if *i < 8 {
            let (e, res) = serve::analyze_expected(inst, &library);
            replay(
                serve::instance_body(Kind::Analyze, inst, &library_text),
                Kind::Analyze,
                &[&e.topology, &res],
                &mut rep,
            );
        }
    }
    for s in &sessions {
        for k in 0..staged::CYCLE {
            replay(
                serve::edit_body(s, k),
                Kind::Resynth,
                &[&s.expected[k].topology],
                &mut rep,
            );
        }
    }
    let mut telemetry = Telemetry::from_stats(&served.stats()?);
    telemetry.add_ack(&served.stop()?);

    layers.metrics(&mut rep.metrics);
    resynth.metrics(&mut rep.metrics);
    rep.metric("resilience.busy_ms", resilience_ms, "ms");
    rep.metric("wire.parse_us", wire_us, "us");
    rep.metric("wire.bytes_per_req", wire_bytes, "bytes");
    telemetry.metrics(&rtt, &mut rep.metrics);
    rep.detail("passes", Value::Num(passes as f64));
    rep.detail("staged_mismatches", Value::Num(layers.mismatches as f64));
    Ok(rep)
}

/// The loaded serve_mix inputs and a live daemon with sessions open;
/// `setup_s` is the median over [`SERVE_SETUP_REPS`] spawns.
fn serve_setup(seed: u64, ccs: &Path, reps: usize) -> Result<(Mix, Served, f64), String> {
    let (instances, library, library_text) = Mix::load_instances();
    let mix = Mix::new(seed, instances, library, library_text);
    let mut setup = Vec::new();
    let mut live = None;
    for rep in 0..reps {
        let t = Instant::now();
        let (instances, _, library_text) = Mix::load_instances();
        std::hint::black_box(instances);
        let served = Served::start(
            ccs,
            &mix.sessions,
            Pool::Small,
            &library_text,
            mix.expected.clone(),
        )?;
        setup.push(t.elapsed().as_secs_f64());
        if rep + 1 < reps {
            served.stop()?;
        } else {
            live = Some(served);
        }
    }
    Ok((mix, live.expect("one setup"), median(&mut setup)))
}

/// `serve_mix`, untraced: the reference-rate phase, then the ladder.
pub fn serve_mix(seed: u64, seconds: f64, ccs: &Path) -> Result<Report, String> {
    let mut rep = Report::default();
    let (mut mix, served, setup_s) = serve_setup(seed, ccs, SERVE_SETUP_REPS)?;
    let plan = mix.next((REF_RATE * seconds * REF_SHARE).ceil() as usize);
    let cpu0 = serve::daemon_cpu_ms(&served.daemon);
    let reference = served.client.phase(&plan, REF_RATE);
    let cpu = serve::daemon_cpu_ms(&served.daemon) - cpu0;
    let rss = peak_rss_mb(&served.daemon.pid().to_string()).unwrap_or(0.0);
    let (max_rate, steps) =
        serve::ladder(&served.client, &mut mix, &reference, seconds * STEP_SHARE);
    served.stop()?;

    let (cost, p2p) = mix.cost_ratio(&plan);
    let mut lat = reference.latency_ms.clone();
    rep.attempted = reference.due as u64;
    rep.failed = reference.failed as u64;
    for s in &steps {
        let n = |k: &str| s.get(k).and_then(Value::as_num).unwrap_or(0.0) as u64;
        rep.attempted += n("due");
        rep.failed += n("failed");
    }
    rep.metric("setup_s", setup_s, "s");
    rep.metric("throughput_per_s", reference.achieved, "1/s");
    rep.metric("latency_ms_p50", quantile(&mut lat, 0.5), "ms");
    rep.metric("latency_ms_p95", quantile(&mut lat, 0.95), "ms");
    rep.metric("latency_ms_p99", quantile(&mut lat, 0.99), "ms");
    rep.metric("max_rate_per_s", max_rate, "1/s");
    rep.metric(
        "cpu_per_op_ms",
        cpu / (reference.completed as f64).max(1.0),
        "ms",
    );
    rep.metric("peak_rss_mb", rss, "MB");
    rep.metric("cost_vs_p2p", cost / p2p.max(1e-12), "ratio");
    rep.detail("reference", reference.to_json());
    rep.detail("ladder", Value::Arr(steps));
    rep.detail("samples", Value::Num(reference.completed as f64));
    Ok(rep)
}

/// `serve_mix`, traced: the reference-rate phase with per-op latencies
/// and daemon telemetry, then the in-process layers on the same inputs.
pub fn serve_mix_traced(seed: u64, seconds: f64, ccs: &Path) -> Result<Report, String> {
    let mut rep = Report::default();
    let (mut mix, mut served, _) = serve_setup(seed, ccs, 1)?;
    let plan = mix.next((REF_RATE * seconds * REF_SHARE).ceil() as usize);
    let reference = served.client.phase(&plan, REF_RATE);
    let mut telemetry = Telemetry::from_stats(&served.stats()?);
    telemetry.add_ack(&served.stop()?);
    rep.attempted += reference.due as u64;
    rep.failed += reference.failed as u64;

    let mut layers = Layers::default();
    let (answers, _) = pipeline_passes(
        &mut layers,
        &mix.instances,
        &mix.library,
        seconds * 0.2,
        &mut rep.spans,
    );
    let implementations: Vec<_> = answers
        .into_iter()
        .enumerate()
        .filter_map(|(i, a)| a.map(|(s, _)| (i, s.implementation)))
        .collect();
    let mut resynth = Resynth::default();
    resynth.run(&mix.sessions, Pool::Small, &mix.library, 2);
    let items: Vec<_> = implementations
        .iter()
        .map(|(i, imp)| (&mix.instances[*i].graph, imp))
        .collect();
    let resilience_ms = staged::resilience_ms(&items);
    let lines: Vec<String> = plan
        .iter()
        .enumerate()
        .map(|(i, p)| format!("{{\"id\":\"w{i}\",{}}}", p.body))
        .collect();
    let (wire_us, wire_bytes, wire_failed) = staged::wire(&lines);
    layer_failures(&mut rep, &layers, &resynth, wire_failed);

    layers.metrics(&mut rep.metrics);
    resynth.metrics(&mut rep.metrics);
    rep.metric("resilience.busy_ms", resilience_ms, "ms");
    rep.metric("wire.parse_us", wire_us, "us");
    rep.metric("wire.bytes_per_req", wire_bytes, "bytes");
    telemetry.metrics(&reference.by_kind, &mut rep.metrics);
    rep.detail("reference", reference.to_json());
    Ok(rep)
}
