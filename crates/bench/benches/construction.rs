//! Construction-time benchmarks (paper §IV: bottom-up construction is "an
//! order of magnitude faster" than top-down, and parallelizes).
//!
//! Real wall-clock measurements of every builder in the workspace on the same
//! clustered dataset.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psb_data::ClusteredSpec;
use psb_kdtree::KdTree;
use psb_srtree::SrTree;
use psb_sstree::{build, build_topdown, BuildMethod};

fn dataset(n: usize, dims: usize) -> psb_geom::PointSet {
    ClusteredSpec { clusters: 20, points_per_cluster: n / 20, dims, sigma: 120.0, seed: 7 }
        .generate()
}

fn bench_construction(c: &mut Criterion) {
    let mut g = c.benchmark_group("construction");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_millis(500));
    for &(n, dims) in &[(20_000usize, 16usize), (20_000, 4)] {
        let ps = dataset(n, dims);
        let label = format!("n{n}_d{dims}");
        g.bench_with_input(BenchmarkId::new("sstree_hilbert", &label), &ps, |b, ps| {
            b.iter(|| build(ps, 128, &BuildMethod::Hilbert))
        });
        g.bench_with_input(BenchmarkId::new("sstree_kmeans", &label), &ps, |b, ps| {
            b.iter(|| build(ps, 128, &BuildMethod::KMeans { k_leaf: 100, seed: 3 }))
        });
        g.bench_with_input(BenchmarkId::new("sstree_topdown", &label), &ps, |b, ps| {
            b.iter(|| build_topdown(ps, 128))
        });
        g.bench_with_input(BenchmarkId::new("srtree_topdown", &label), &ps, |b, ps| {
            b.iter(|| SrTree::build(ps, 8192))
        });
        g.bench_with_input(BenchmarkId::new("kdtree_median", &label), &ps, |b, ps| {
            b.iter(|| KdTree::build(ps, 8))
        });
    }
    // The paper workload's shape (100 clusters x 1000 points, 16-d, degree
    // 128): the build the repo benchmark's `setup_s` times on
    // `paper-clustered16`.
    let ps =
        ClusteredSpec { clusters: 100, points_per_cluster: 1000, dims: 16, sigma: 160.0, seed: 7 }
            .generate();
    g.bench_with_input(BenchmarkId::new("sstree_hilbert", "n100000_d16"), &ps, |b, ps| {
        b.iter(|| build(ps, 128, &BuildMethod::Hilbert))
    });
    g.finish();
}

criterion_group!(benches, bench_construction);
criterion_main!(benches);
