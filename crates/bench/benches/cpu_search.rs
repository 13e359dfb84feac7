//! CPU search benchmarks: the oracle algorithms and the CPU baselines.
//!
//! Confirms the expected CPU-side ordering (best-first < branch-and-bound <
//! linear scan on clustered data) and tracks the SR-tree/kd-tree baselines.

use criterion::{criterion_group, criterion_main, Criterion};
use psb_data::{sample_queries, ClusteredSpec};
use psb_kdtree::{knn_cpu, KdTree};
use psb_srtree::SrTree;
use psb_sstree::{build, knn_best_first, knn_branch_and_bound, linear_knn, BuildMethod};

fn bench_cpu_search(c: &mut Criterion) {
    let ps =
        ClusteredSpec { clusters: 20, points_per_cluster: 2_500, dims: 8, sigma: 100.0, seed: 15 }
            .generate();
    let tree = build(&ps, 128, &BuildMethod::Hilbert);
    let srtree = SrTree::build(&ps, 8192);
    let kdtree = KdTree::build(&ps, 16);
    let queries = sample_queries(&ps, 16, 0.01, 16);
    let k = 32;

    let mut g = c.benchmark_group("cpu_search");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.bench_function("sstree_best_first", |b| {
        b.iter(|| {
            for q in queries.iter() {
                std::hint::black_box(knn_best_first(&tree, q, k));
            }
        })
    });
    g.bench_function("sstree_branch_and_bound", |b| {
        b.iter(|| {
            for q in queries.iter() {
                std::hint::black_box(knn_branch_and_bound(&tree, q, k));
            }
        })
    });
    g.bench_function("srtree_best_first", |b| {
        b.iter(|| {
            for q in queries.iter() {
                std::hint::black_box(srtree.knn(q, k));
            }
        })
    });
    g.bench_function("kdtree_recursive", |b| {
        b.iter(|| {
            for q in queries.iter() {
                std::hint::black_box(knn_cpu(&kdtree, q, k));
            }
        })
    });
    g.bench_function("linear_scan", |b| {
        b.iter(|| {
            for q in queries.iter() {
                std::hint::black_box(linear_knn(&ps, q, k));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_cpu_search);
criterion_main!(benches);
