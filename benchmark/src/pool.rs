//! Instance pools, the committed reference digest, and the seeded
//! choice of a run's instances.
//!
//! Every instance comes from a fixed pool of generator seeds listed in
//! `reference.txt` together with its reference cost and the digest of
//! its selected arc sets. A run's `--seed` picks which pool members it
//! uses and in what order; the pool itself never changes with the seed,
//! which is what lets every output be checked against the reference.
//! Pools are split into strata of similar reference time and a run
//! takes one instance per stratum, so every seed sees the same spread
//! of easy and hard instances and the metrics stay comparable across
//! seeds.

use crate::util::{Digest, Rng};
use ccs::core::constraint::ConstraintGraph;
use ccs::core::library::Library;
use ccs::core::placement::Candidate;
use ccs::core::synthesis::{SynthesisConfig, SynthesisResult, Synthesizer};
use ccs::gen::io;
use ccs::gen::random::{clustered_wan, soc_floorplan, ClusteredWanConfig, SocConfig};
use std::time::Instant;

/// The reference digest, committed beside the benchmark.
pub const REFERENCE: &str = include_str!("../reference.txt");

/// Merge order cap of the WAN pools (the paper's WAN runs stop at 4).
pub const WAN_MAX_K: usize = 4;

/// SoC pool members whose covering search exceeds this many
/// branch-and-bound nodes are skipped, which bounds the hardest
/// instance a run can draw (and so keeps its tail latency comparable
/// across seeds) while leaving a ~30x spread of covering effort.
const SOC_MAX_BNB_NODES: u64 = 16_000;

/// The slowest members of a pool are strata of their own, so every run
/// includes them and the tail latencies compare the same instances
/// across seeds; the rest of the pool pairs up by time and a run draws
/// one of each pair.
const FIXED_TAIL: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    /// Clustered WANs, 10-14 channels, paper WAN library, `max_k = 4`.
    Wan,
    /// SoC floorplans, 18-20 channels, the `ccs example library soc`
    /// library.
    Soc,
    /// Clustered WANs, 5-7 channels: the `serve_mix` requests.
    Small,
}

impl Pool {
    pub const ALL: [Pool; 3] = [Pool::Wan, Pool::Soc, Pool::Small];

    pub fn name(self) -> &'static str {
        match self {
            Pool::Wan => "wan",
            Pool::Soc => "soc",
            Pool::Small => "small",
        }
    }

    fn size(self) -> usize {
        match self {
            Pool::Wan | Pool::Soc => 96,
            Pool::Small => 64,
        }
    }

    pub fn generate(self, gen_seed: u64) -> ConstraintGraph {
        match self {
            Pool::Wan | Pool::Small => {
                let base = if self == Pool::Wan { 10 } else { 5 };
                let spread = if self == Pool::Wan { 5 } else { 3 };
                clustered_wan(&ClusteredWanConfig {
                    channels: base + (gen_seed % spread) as usize,
                    seed: gen_seed,
                    ..ClusteredWanConfig::default()
                })
            }
            Pool::Soc => soc_floorplan(&SocConfig {
                channels: 18 + (gen_seed % 3) as usize,
                seed: gen_seed,
                ..SocConfig::default()
            }),
        }
    }

    pub fn library(self) -> Library {
        match self {
            Pool::Wan | Pool::Small => ccs::gen::wan::paper_library(),
            Pool::Soc => ccs::gen::mpeg4::paper_library(),
        }
    }

    pub fn max_k(self) -> Option<usize> {
        match self {
            Pool::Wan | Pool::Small => Some(WAN_MAX_K),
            Pool::Soc => None,
        }
    }

    pub fn config(self, threads: usize) -> SynthesisConfig {
        let mut cfg = SynthesisConfig {
            threads,
            ..SynthesisConfig::default()
        };
        cfg.merge.max_k = self.max_k();
        cfg
    }
}

/// One reference line: a pool member and its expected answer.
#[derive(Debug, Clone, PartialEq)]
pub struct RefEntry {
    pub gen_seed: u64,
    pub stratum: usize,
    pub cost: f64,
    pub p2p_cost: f64,
    pub selected: u64,
}

/// The reference entries of `pool`, in file order.
pub fn reference(pool: Pool) -> Vec<RefEntry> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f[0] == pool.name()).then(|| RefEntry {
                gen_seed: f[1].parse().expect("reference: gen seed"),
                stratum: f[2].parse().expect("reference: stratum"),
                cost: f[4].parse().expect("reference: cost"),
                p2p_cost: f[5].parse().expect("reference: p2p cost"),
                selected: u64::from_str_radix(f[6], 16).expect("reference: digest"),
            })
        })
        .collect()
}

/// Digest of the selected candidates' arc sets, in covering order.
pub fn selected_digest(selected: &[Candidate]) -> u64 {
    let mut d = Digest::default();
    for c in selected {
        d.word(c.arcs.len() as u64);
        for &a in &c.arcs {
            d.word(a as u64);
        }
    }
    d.finish()
}

/// Whether `r` reproduces the reference answer: same selected arc sets
/// and the same cost to 1e-9 relative.
pub fn matches_reference(r: &SynthesisResult, e: &RefEntry) -> bool {
    let rel = (r.total_cost() - e.cost).abs() / e.cost.abs().max(1.0);
    rel <= 1e-9 && selected_digest(&r.selected) == e.selected
}

/// An instance ready to run: parsed back from its file text, as the
/// daemon and the CLI would see it.
pub struct Instance {
    pub pool: Pool,
    pub reference: RefEntry,
    pub text: String,
    pub graph: ConstraintGraph,
}

impl Instance {
    pub fn load(pool: Pool, reference: RefEntry) -> Instance {
        let text = io::instance_to_string(&pool.generate(reference.gen_seed));
        let graph = io::instance_from_str(&text).expect("generated instance text parses");
        Instance {
            pool,
            reference,
            text,
            graph,
        }
    }
}

/// The reference entries a run with `seed` uses: one per stratum, in a
/// seeded order.
pub fn choose(pool: Pool, seed: u64) -> Vec<RefEntry> {
    let entries = reference(pool);
    let strata = entries.iter().map(|e| e.stratum).max().map_or(0, |s| s + 1);
    let mut rng = Rng::new(seed ^ pool.name().len() as u64);
    let mut chosen: Vec<RefEntry> = (0..strata)
        .map(|s| {
            let members: Vec<&RefEntry> = entries.iter().filter(|e| e.stratum == s).collect();
            members[rng.below(members.len())].clone()
        })
        .collect();
    rng.shuffle(&mut chosen);
    chosen
}

/// Digest of an instance list (pool, generator seeds, order).
pub fn set_digest(entries: &[RefEntry]) -> u64 {
    let mut d = Digest::default();
    for e in entries {
        d.word(e.gen_seed);
    }
    d.finish()
}

/// Regenerates `reference.txt`: scans generator seeds for each pool,
/// records every member's answer and its median wall time over three
/// runs, and splits each pool into strata by that time: the
/// [`FIXED_TAIL`] slowest alone, the rest in pairs.
pub fn write_reference() -> String {
    let mut out = String::from(
        "# Reference answers of the benchmark's instance pools.\n\
         # pool gen_seed stratum ref_ms cost p2p_cost selected_digest\n\
         # Regenerate with: ccs-benchmark --write-reference > reference.txt\n",
    );
    for pool in Pool::ALL {
        let library = pool.library();
        let mut rows: Vec<(RefEntry, f64)> = Vec::new();
        let mut gen_seed = 0u64;
        while rows.len() < pool.size() {
            let graph = Instance::load(
                pool,
                RefEntry {
                    gen_seed,
                    stratum: 0,
                    cost: 0.0,
                    p2p_cost: 0.0,
                    selected: 0,
                },
            )
            .graph;
            let mut times = Vec::new();
            let mut result = None;
            for _ in 0..3 {
                let t = Instant::now();
                let r = Synthesizer::new(&graph, &library)
                    .with_config(pool.config(2))
                    .run()
                    .expect("pool instance synthesizes");
                times.push(t.elapsed().as_secs_f64() * 1e3);
                result = Some(r);
            }
            let r = result.expect("ran");
            let nodes = r.stats.ucp_stats.map_or(0, |s| s.nodes);
            if pool != Pool::Soc || nodes <= SOC_MAX_BNB_NODES {
                rows.push((
                    RefEntry {
                        gen_seed,
                        stratum: 0,
                        cost: r.total_cost(),
                        p2p_cost: r.stats.p2p_cost,
                        selected: selected_digest(&r.selected),
                    },
                    crate::util::median(&mut times),
                ));
            }
            gen_seed += 1;
        }
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| rows[b].1.total_cmp(&rows[a].1));
        for (rank, &i) in order.iter().enumerate() {
            rows[i].0.stratum = if rank < FIXED_TAIL {
                rank
            } else {
                FIXED_TAIL + (rank - FIXED_TAIL) / 2
            };
        }
        for (e, t) in rows {
            out.push_str(&format!(
                "{} {} {} {:.3} {:?} {:?} {:016x}\n",
                pool.name(),
                e.gen_seed,
                e.stratum,
                t,
                e.cost,
                e.p2p_cost,
                e.selected
            ));
        }
    }
    out
}
