//! Criterion bench: the weighted UCP solver (exact vs greedy) on matrices
//! produced by real synthesis runs.

use ccs_core::cover::build_matrix;
use ccs_core::matrices::DistanceMatrices;
use ccs_core::merging::{enumerate, MergeConfig};
use ccs_core::placement::{merge_candidate, point_to_point_candidate, Candidate};
use ccs_covering::Search;
use ccs_exec::Executor;
use ccs_gen::random::{clustered_wan, ClusteredWanConfig};
use ccs_gen::wan;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn candidate_matrix(channels: usize) -> (ccs_covering::CoverMatrix, usize) {
    let g = clustered_wan(&ClusteredWanConfig {
        clusters: 3,
        nodes_per_cluster: 3,
        channels,
        seed: 42,
        ..ClusteredWanConfig::default()
    });
    let lib = wan::paper_library();
    let m = DistanceMatrices::compute(&g);
    let cfg = MergeConfig {
        max_k: Some(4),
        ..MergeConfig::default()
    };
    let mut cands: Vec<Candidate> = (0..g.arc_count())
        .map(|i| point_to_point_candidate(&g, &lib, i).unwrap())
        .collect();
    for s in enumerate(&g, &lib, &m, &cfg).all_subsets() {
        if let Some(c) = merge_candidate(&g, &lib, s).unwrap() {
            cands.push(c);
        }
    }
    (build_matrix(&cands, g.arc_count()), cands.len())
}

fn bench_covering(c: &mut Criterion) {
    let mut group = c.benchmark_group("covering");
    group.sample_size(10);
    for &n in &[12usize, 16, 20] {
        let (m, cols) = candidate_matrix(n);
        group.bench_with_input(
            BenchmarkId::new("exact", format!("{n}rows_{cols}cols")),
            &m,
            |b, m| {
                let exec = Executor::serial();
                b.iter(|| {
                    black_box(m)
                        .solve(Search::Complete { seed: None }, &exec)
                        .unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("greedy", format!("{n}rows_{cols}cols")),
            &m,
            |b, m| b.iter(|| black_box(m).solve_greedy().unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_covering);
criterion_main!(benches);
