//! `ccs-bench` — bench baselines and the perf-regression gate.
//!
//! ```text
//! ccs-bench run      [--preset quick|full] [--reps N] [--threads 1,4]
//!                    [--out FILE] [--profile-folded FILE]
//! ccs-bench compare  --baseline FILE --current FILE
//!                    [--tolerance-pct P] [--alloc-tolerance-pct P]
//! ccs-bench covering [--threads N] [--seed-from FILE] [--out FILE]
//! ```
//!
//! `run` writes a `ccs-bench-v1` document (default
//! `BENCH_<preset>.json`; `-` for stdout). `compare` exits 0 when every
//! baseline metric is within tolerance, 1 when something regressed
//! (listing each offender), and 2 on usage or I/O errors. `covering`
//! solves the ≥1k-column parallel-covering instance once and writes a
//! canonical `ccs-covering-run-v1` document — the CI determinism job
//! byte-diffs these across thread counts, cold and warm-seeded.

use ccs_bench::baseline;

/// Count allocations so bench documents carry real `"alloc"` metrics.
#[global_allocator]
static ALLOC: ccs_obs::alloc::CountingAlloc = ccs_obs::alloc::CountingAlloc::new();

const USAGE: &str = "\
usage:
  ccs-bench run      [--preset quick|full] [--reps N] [--threads 1,4]
                     [--out FILE] [--profile-folded FILE]
  ccs-bench compare  --baseline FILE --current FILE
                     [--tolerance-pct P] [--alloc-tolerance-pct P]
  ccs-bench covering [--threads N] [--seed-from FILE] [--out FILE]

run writes a ccs-bench-v1 document (medians/IQR over N repetitions per
thread count, per-run allocation deltas, one embedded ccs-profile-v1
call tree per case) to --out (default BENCH_<preset>.json, '-' for
stdout). --profile-folded additionally writes the first case's call
tree in folded-stack format for flamegraph rendering.

compare exits 0 when every baseline metric is within tolerance, 1 when
any wall-time metric regressed beyond --tolerance-pct (default 25) or
any allocation metric beyond --alloc-tolerance-pct (default 10), and 2
on usage or I/O errors.

covering solves the large parallel-covering instance (the bench's
covering_par case) exactly once on --threads workers and writes a
canonical ccs-covering-run-v1 document: the selected columns, the cost
as IEEE-754 bits, and the schedule-independent solver counters.
--seed-from warm-starts the solve from the columns of a previous
document. Documents are byte-identical at every thread count, seeded or
not — CI diffs them.
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            2
        }
    });
}

fn run(args: &[String]) -> Result<i32, String> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("run") => cmd_run(it),
        Some("compare") => cmd_compare(it),
        Some("covering") => cmd_covering(it),
        Some("help") | None => {
            print!("{USAGE}");
            Ok(0)
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

fn required<'a>(it: &mut impl Iterator<Item = &'a str>, flag: &str) -> Result<&'a str, String> {
    it.next().ok_or(format!("{flag} needs a value"))
}

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

fn cmd_run<'a>(mut it: impl Iterator<Item = &'a str>) -> Result<i32, String> {
    let mut preset = "quick".to_string();
    let mut reps = 5usize;
    let mut threads = vec![1usize, 4];
    let mut out: Option<String> = None;
    let mut folded: Option<String> = None;
    while let Some(tok) = it.next() {
        match tok {
            "--preset" => preset = required(&mut it, tok)?.to_string(),
            "--reps" => {
                reps = required(&mut it, tok)?
                    .parse()
                    .map_err(|_| "--reps needs an integer".to_string())?
            }
            "--threads" => {
                threads = required(&mut it, tok)?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .map_err(|_| format!("--threads: {s:?} is not an integer"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "--out" => out = Some(required(&mut it, tok)?.to_string()),
            "--profile-folded" => folded = Some(required(&mut it, tok)?.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    let doc = baseline::run_preset(&preset, reps, &threads)?;
    let path = out.unwrap_or_else(|| format!("BENCH_{preset}.json"));
    let mut text = doc.to_string();
    text.push('\n');
    write_output(&path, &text)?;
    if path != "-" {
        eprintln!("wrote {path}");
    }

    if let Some(folded_path) = folded {
        // Render the embedded trees, one folded block per case with the
        // case name as the root frame.
        let mut lines = String::new();
        if let Some(cases) = doc.get("cases").and_then(ccs_obs::json::Value::as_obj) {
            for (name, case) in cases {
                if let Some(tree) = case
                    .get("profile")
                    .and_then(|p| p.get("tree"))
                    .and_then(ccs_obs::profile::ProfileNode::from_json)
                {
                    let mut sub = String::new();
                    tree.write_folded(&mut sub);
                    for line in sub.lines() {
                        lines.push_str(name);
                        lines.push(';');
                        lines.push_str(line);
                        lines.push('\n');
                    }
                }
            }
        }
        write_output(&folded_path, &lines)?;
        if folded_path != "-" {
            eprintln!("wrote {folded_path}");
        }
    }
    Ok(0)
}

fn cmd_covering<'a>(mut it: impl Iterator<Item = &'a str>) -> Result<i32, String> {
    let mut threads = 1usize;
    let mut seed_from: Option<String> = None;
    let mut out: Option<String> = None;
    while let Some(tok) = it.next() {
        match tok {
            "--threads" => {
                threads = required(&mut it, tok)?
                    .parse()
                    .map_err(|_| "--threads needs an integer".to_string())?
            }
            "--seed-from" => seed_from = Some(required(&mut it, tok)?.to_string()),
            "--out" => out = Some(required(&mut it, tok)?.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    let seed: Option<Vec<usize>> = match seed_from {
        None => None,
        Some(path) => {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let doc = ccs_obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            let cols = match doc.get("cover").and_then(|c| c.get("columns")) {
                Some(ccs_obs::json::Value::Arr(cols)) => cols,
                _ => return Err(format!("{path}: missing cover.columns")),
            };
            Some(
                cols.iter()
                    .map(|v| {
                        v.as_num()
                            .map(|n| n as usize)
                            .ok_or_else(|| format!("{path}: non-numeric column id"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            )
        }
    };

    let m = baseline::covering_par_instance();
    let exec = ccs_exec::Executor::new(threads);
    let search = ccs_covering::Search::Complete {
        seed: seed.as_deref(),
    };
    let (cover, stats) = m
        .solve(search, &exec)
        .map_err(|e| format!("covering solve failed: {e}"))?;

    use ccs_obs::json::Value;
    use std::collections::BTreeMap;
    let mut cover_obj = BTreeMap::new();
    cover_obj.insert(
        "columns".to_string(),
        Value::Arr(
            cover
                .columns
                .iter()
                .map(|&c| Value::Num(c as f64))
                .collect(),
        ),
    );
    // The cost as exact IEEE-754 bits: a JSON number would round-trip
    // through f64 formatting, and "byte-identical" means the bits.
    cover_obj.insert(
        "cost_bits".to_string(),
        Value::Str(format!("{:016x}", cover.cost.to_bits())),
    );
    // Schedule-independent counters only — `steals` and `dominance_ns`
    // legitimately vary run to run and would break the byte-diff.
    let counters: [(&str, u64); 10] = [
        ("covering.bnb_nodes", stats.nodes),
        ("covering.essentials", stats.essentials),
        ("covering.dominated_columns", stats.dominated_columns),
        ("covering.dominated_rows", stats.dominated_rows),
        ("covering.bound_prunes", stats.bound_prunes),
        ("covering.seed_prunes", stats.seed_prunes),
        ("covering.incumbent_updates", stats.incumbent_updates),
        ("covering.subtrees", stats.subtrees),
        (
            "covering.shared_bound_tightenings",
            stats.shared_bound_tightenings,
        ),
        ("covering.proven_optimal", u64::from(stats.proven_optimal)),
    ];
    let mut doc = BTreeMap::new();
    doc.insert(
        "schema".to_string(),
        Value::Str("ccs-covering-run-v1".to_string()),
    );
    doc.insert("seeded".to_string(), Value::Bool(seed.is_some()));
    doc.insert(
        "counters".to_string(),
        Value::Obj(
            counters
                .iter()
                .map(|&(k, v)| (k.to_string(), Value::Num(v as f64)))
                .collect(),
        ),
    );
    doc.insert("cover".to_string(), Value::Obj(cover_obj));
    let mut text = Value::Obj(doc).to_string();
    text.push('\n');
    write_output(&out.unwrap_or_else(|| "-".to_string()), &text)?;
    Ok(0)
}

fn cmd_compare<'a>(mut it: impl Iterator<Item = &'a str>) -> Result<i32, String> {
    let mut baseline_path: Option<String> = None;
    let mut current_path: Option<String> = None;
    let mut wall_tol = 25.0f64;
    let mut alloc_tol = 10.0f64;
    while let Some(tok) = it.next() {
        match tok {
            "--baseline" => baseline_path = Some(required(&mut it, tok)?.to_string()),
            "--current" => current_path = Some(required(&mut it, tok)?.to_string()),
            "--tolerance-pct" => {
                wall_tol = required(&mut it, tok)?
                    .parse()
                    .map_err(|_| "--tolerance-pct needs a number".to_string())?
            }
            "--alloc-tolerance-pct" => {
                alloc_tol = required(&mut it, tok)?
                    .parse()
                    .map_err(|_| "--alloc-tolerance-pct needs a number".to_string())?
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    let load = |path: &str| -> Result<ccs_obs::json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        ccs_obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let base = load(&baseline_path.ok_or("--baseline is required")?)?;
    let cur = load(&current_path.ok_or("--current is required")?)?;
    let regressions = baseline::compare(&base, &cur, wall_tol, alloc_tol)?;
    if regressions.is_empty() {
        println!("perf gate: ok (wall tolerance {wall_tol}%, alloc tolerance {alloc_tol}%)");
        Ok(0)
    } else {
        println!("perf gate: {} regression(s):", regressions.len());
        for r in &regressions {
            println!("  {r}");
        }
        Ok(1)
    }
}
