//! `ccs-benchmark`: the repository benchmark.
//!
//! ```text
//! ccs-benchmark --workload wan_synth|soc_synth|serve_mix --seed N
//!               --seconds S --trace 0|1 --ccs PATH/TO/ccs
//! ccs-benchmark --write-reference > reference.txt
//! ```
//!
//! Prints one `ccs-benchmark-v1` document line (host header, details)
//! and, as its last line, the result object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics untraced, the
//! per-layer metrics traced. See README.md beside this crate.

mod pool;
mod serve;
mod staged;
mod util;
mod workloads;

use ccs::obs::json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use workloads::Report;

/// Counting allocator, so the traced stages can report allocations
/// (the `ccs` binary installs the same one).
#[global_allocator]
static ALLOC: ccs::obs::alloc::CountingAlloc = ccs::obs::alloc::CountingAlloc::new();

pub const WORKLOADS: [&str; 3] = ["wan_synth", "soc_synth", "serve_mix"];

/// Every metric an untraced run prints, on every workload.
pub const END_TO_END: [&str; 9] = [
    "setup_s",
    "throughput_per_s",
    "latency_ms_p50",
    "latency_ms_p95",
    "latency_ms_p99",
    "max_rate_per_s",
    "cpu_per_op_ms",
    "peak_rss_mb",
    "cost_vs_p2p",
];

/// Every metric a traced run prints, on every workload.
pub const PER_LAYER: [&str; 39] = [
    "placement.busy_ms",
    "placement.cpu_ms",
    "placement.par_eff",
    "placement.solves",
    "placement.solve_us_p50",
    "placement.solve_us_p95",
    "placement.lb_gated_ratio",
    "placement.kept_ratio",
    "placement.allocs",
    "covering.busy_ms",
    "covering.cpu_ms",
    "covering.par_eff",
    "covering.cols",
    "covering.rows",
    "covering.bnb_nodes",
    "covering.allocs",
    "p2p.busy_ms",
    "matrices.busy_ms",
    "merging.busy_ms",
    "merging.examined",
    "merging.survivors",
    "assembly.busy_ms",
    "io.parse_ms",
    "pipeline.glue_ms",
    "trace.overhead_pct",
    "resynth.edit_ms_p50",
    "resynth.edit_ms_p95",
    "resynth.invalidated_per_edit",
    "resynth.reuse_ratio",
    "resilience.busy_ms",
    "wire.parse_us",
    "wire.bytes_per_req",
    "serve.rtt_ms_p99.synth",
    "serve.rtt_ms_p99.analyze",
    "serve.rtt_ms_p99.resynth",
    "serve.queue_wait_ms_p99",
    "serve.run_ms_p50",
    "serve.queue_depth_hwm",
    "serve.cache_hit_ratio",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    ccs: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut m = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        m.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| m.get(k).copied().ok_or(format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("bad --trace {t:?}")),
        },
        ccs: PathBuf::from(get("--ccs")?),
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the numbers were measured on and with.
fn host(args: &Args) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let mut h = BTreeMap::new();
    let mut put = |k: &str, v: Value| {
        h.insert(k.to_string(), v);
    };
    put(
        "available_parallelism",
        Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
    );
    put("cpu_model", Value::Str(cpu));
    put("rustc", Value::Str(command_line("rustc", &["-V"])));
    put(
        "git_sha",
        Value::Str(command_line("git", &["rev-parse", "HEAD"])),
    );
    put(
        "build_profile",
        Value::Str(
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
    );
    put("threads", Value::Num(staged::THREADS as f64));
    put("serve_workers", Value::Num(serve::WORKERS as f64));
    put("connections", Value::Num(serve::CONNECTIONS as f64));
    put("workload", Value::Str(args.workload.clone()));
    put("seed", Value::Num(args.seed as f64));
    put("seconds", Value::Num(args.seconds));
    put("trace", Value::Bool(args.trace));
    Value::Obj(h)
}

fn run(args: &Args) -> Result<Report, String> {
    use pool::Pool;
    match (args.workload.as_str(), args.trace) {
        ("wan_synth", false) => Ok(workloads::synth(Pool::Wan, args.seed, args.seconds)),
        ("soc_synth", false) => Ok(workloads::synth(Pool::Soc, args.seed, args.seconds)),
        ("wan_synth", true) => {
            workloads::synth_traced(Pool::Wan, args.seed, args.seconds, &args.ccs)
        }
        ("soc_synth", true) => {
            workloads::synth_traced(Pool::Soc, args.seed, args.seconds, &args.ccs)
        }
        ("serve_mix", false) => workloads::serve_mix(args.seed, args.seconds, &args.ccs),
        (_, _) => workloads::serve_mix_traced(args.seed, args.seconds, &args.ccs),
    }
}

/// Writes the traced run's spans as JSON lines under `.bench_traces/`.
fn write_spans(args: &Args, rep: &Report) -> Result<String, String> {
    let dir = PathBuf::from(".bench_traces");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let mut out = String::new();
    for s in &rep.spans {
        out.push_str(&s.to_json());
        out.push('\n');
    }
    std::fs::write(&path, out).map_err(|e| e.to_string())?;
    Ok(path.display().to_string())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--write-reference") {
        print!("{}", pool::write_reference());
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ccs-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let rep = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ccs-benchmark: {e}");
            std::process::exit(1);
        }
    };
    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut names: Vec<&str> = rep.metrics.iter().map(|m| m.0.as_str()).collect();
    names.sort_unstable();
    let mut expected = wanted.to_vec();
    expected.sort_unstable();
    if names != expected || rep.metrics.iter().any(|m| !m.1.is_finite()) {
        eprintln!("ccs-benchmark: metric set mismatch: {names:?}");
        std::process::exit(1);
    }

    let mut metrics = BTreeMap::new();
    for (name, value, unit) in &rep.metrics {
        let mut m = BTreeMap::new();
        m.insert("value".to_string(), Value::Num(*value));
        m.insert("unit".to_string(), Value::Str((*unit).to_string()));
        metrics.insert(name.clone(), Value::Obj(m));
    }
    let mut doc = BTreeMap::new();
    doc.insert("schema".to_string(), Value::Str("ccs-benchmark-v1".into()));
    doc.insert("host".to_string(), host(&args));
    doc.insert("details".to_string(), Value::Obj(rep.details.clone()));
    doc.insert("metrics".to_string(), Value::Obj(metrics.clone()));
    if args.trace {
        match write_spans(&args, &rep) {
            Ok(path) => doc.insert("spans".to_string(), Value::Str(path)),
            Err(e) => doc.insert("spans".to_string(), Value::Str(format!("not written: {e}"))),
        };
    }
    let mut line = String::new();
    Value::Obj(doc).write_compact(&mut line);
    println!("{line}");

    let mut result = BTreeMap::new();
    result.insert("correct".to_string(), Value::Bool(rep.failed == 0));
    result.insert(
        "attempted".to_string(),
        Value::Num(rep.attempted.max(1) as f64),
    );
    result.insert("failed".to_string(), Value::Num(rep.failed as f64));
    result.insert("metrics".to_string(), Value::Obj(metrics));
    let mut line = String::new();
    Value::Obj(result).write_compact(&mut line);
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{choose, set_digest, Pool};
    use crate::serve::Mix;
    use crate::util::Digest;

    fn schedule_digest(seed: u64) -> u64 {
        let (instances, library, text) = Mix::load_instances();
        let mut mix = Mix::new(seed, instances, library, text);
        let mut d = Digest::default();
        for p in mix.next(500) {
            d.word(p.gap.to_bits());
            d.word(p.expect as u64);
            d.bytes(p.body.as_bytes());
        }
        d.finish()
    }

    #[test]
    fn same_seed_same_inputs() {
        for pool in [Pool::Wan, Pool::Soc] {
            assert_eq!(set_digest(&choose(pool, 11)), set_digest(&choose(pool, 11)));
        }
        assert_eq!(schedule_digest(11), schedule_digest(11));
    }

    #[test]
    fn different_seed_different_inputs() {
        for pool in [Pool::Wan, Pool::Soc] {
            assert_ne!(set_digest(&choose(pool, 11)), set_digest(&choose(pool, 12)));
        }
        assert_ne!(schedule_digest(11), schedule_digest(12));
    }

    #[test]
    fn every_stratum_contributes_one_instance() {
        for pool in [Pool::Wan, Pool::Soc] {
            let set = choose(pool, 3);
            let mut strata: Vec<usize> = set.iter().map(|e| e.stratum).collect();
            strata.sort_unstable();
            assert_eq!(strata, (0..set.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn metric_names_are_well_formed_and_listed() {
        let ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let spec = include_str!("../../BENCHMARK.json");
        for name in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok(name), "{name}");
            assert!(
                spec.contains(&format!("\"name\": \"{name}\"")),
                "{name} not in BENCHMARK.json"
            );
        }
        let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn reference_lists_every_pool() {
        for pool in Pool::ALL {
            assert!(!pool::reference(pool).is_empty(), "{}", pool.name());
        }
    }
}
