//! Microbenchmarks for the dimension-specialized distance layer and the two
//! sweep paths it feeds: the packed-arena child/leaf sweeps vs the legacy
//! scattered gather. These are the host inner loops the repo benchmark's
//! `sstree.child_sweep_ns` / `sstree.leaf_sweep_ns` / `geom.dist_rows_*`
//! layers time inside a workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psb_core::SweepScratch;
use psb_data::UniformSpec;
use psb_geom::{sq_dist, sq_dist_d, sq_dist_simd, DistKernel, DistLanes};
use psb_sstree::{build, BuildMethod, SsTree};

fn pair(dims: usize) -> (Vec<f32>, Vec<f32>) {
    let a: Vec<f32> = (0..dims).map(|i| i as f32 * 0.37).collect();
    let b: Vec<f32> = (0..dims).map(|i| (dims - i) as f32 * 0.11).collect();
    (a, b)
}

fn bench_sq_dist(c: &mut Criterion) {
    let mut g = c.benchmark_group("sq_dist");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(1));
    g.warm_up_time(std::time::Duration::from_millis(300));
    for dims in [2usize, 4, 8, 16] {
        let (a, b) = pair(dims);
        g.bench_with_input(BenchmarkId::new("generic", dims), &dims, |bch, _| {
            bch.iter(|| std::hint::black_box(sq_dist(&a, &b)))
        });
        let dk = DistKernel::for_dims(dims);
        g.bench_with_input(BenchmarkId::new("dispatched", dims), &dims, |bch, _| {
            bch.iter(|| std::hint::black_box(dk.sq(&a, &b)))
        });
    }
    let (a, b) = pair(16);
    g.bench_function("monomorphic_16", |bch| {
        bch.iter(|| std::hint::black_box(sq_dist_d::<16>(&a, &b)))
    });
    g.finish();
}

/// Explicit SIMD vs the scalar reference, one pair at a time. The two are
/// bit-identical (same op order); this row prices the switch.
fn bench_simd_lanes(c: &mut Criterion) {
    let mut g = c.benchmark_group("simd_lanes");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(1));
    g.warm_up_time(std::time::Duration::from_millis(300));
    for dims in [4usize, 8, 16, 17] {
        let (a, b) = pair(dims);
        g.bench_with_input(BenchmarkId::new("scalar", dims), &dims, |bch, _| {
            bch.iter(|| std::hint::black_box(sq_dist(&a, &b)))
        });
        g.bench_with_input(BenchmarkId::new("simd", dims), &dims, |bch, _| {
            bch.iter(|| std::hint::black_box(sq_dist_simd(&a, &b)))
        });
    }
    g.finish();
}

/// Batched one-query-vs-many-rows sweeps: the SoA form the arena blocks feed
/// into `child_sweep`/`leaf_sweep`, per lane selection.
fn bench_batched_rows(c: &mut Criterion) {
    let mut g = c.benchmark_group("batched_rows");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(1));
    g.warm_up_time(std::time::Duration::from_millis(300));
    for dims in [4usize, 16] {
        let rows = 64usize;
        let flat: Vec<f32> = (0..rows * dims).map(|i| (i % 97) as f32 * 0.21).collect();
        let (q, _) = pair(dims);
        let mut out: Vec<f32> = Vec::with_capacity(rows);
        for (name, lanes) in [("scalar", DistLanes::Scalar), ("simd", DistLanes::Simd)] {
            let dk = DistKernel::for_dims_lanes(dims, lanes);
            g.bench_with_input(BenchmarkId::new(name, dims), &dims, |bch, _| {
                bch.iter(|| {
                    out.clear();
                    dk.dist_rows(&q, &flat, &mut out);
                    std::hint::black_box(out.last().copied())
                })
            });
            let per_row = DistKernel::for_dims_lanes(dims, lanes);
            g.bench_with_input(
                BenchmarkId::new(format!("{name}_per_row"), dims),
                &dims,
                |bch, _| {
                    bch.iter(|| {
                        out.clear();
                        for row in flat.chunks_exact(dims) {
                            out.push(per_row.dist(&q, row));
                        }
                        std::hint::black_box(out.last().copied())
                    })
                },
            );
        }
    }
    g.finish();
}

/// A tree, the same tree with its arena stripped (every sweep on the gather
/// fallback), and a query.
fn tree_and_query(dims: usize) -> (SsTree, SsTree, Vec<f32>) {
    let ps = UniformSpec { len: 4096, dims, seed: 7 }.generate();
    let q = ps.point(17).to_vec();
    let tree = build(&ps, 16, &BuildMethod::Hilbert);
    let mut gather = tree.clone();
    gather.strip_arena();
    (tree, gather, q)
}

/// The per-internal-node child sweep (the host side of `child_distances`):
/// packed-arena streaming vs the legacy scattered gather on the same node.
fn bench_child_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("child_sweep");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(1));
    g.warm_up_time(std::time::Duration::from_millis(300));
    for dims in [4usize, 16] {
        let (tree, gather, q) = tree_and_query(dims);
        let root = tree.root;
        let dk = DistKernel::for_dims(dims);
        let mut out = SweepScratch::default();
        g.bench_with_input(BenchmarkId::new("arena", dims), &dims, |bch, _| {
            bch.iter(|| {
                out.clear();
                tree.child_sweep(root, &q, &dk, true, true, &mut out);
            })
        });
        g.bench_with_input(BenchmarkId::new("gather", dims), &dims, |bch, _| {
            bch.iter(|| {
                out.clear();
                gather.child_sweep(root, &q, &dk, true, true, &mut out);
            })
        });
    }
    g.finish();
}

/// The per-leaf point sweep (the host side of `process_leaf`): packed run vs
/// per-point gather on the same leaf.
fn bench_leaf_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("leaf_sweep");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(1));
    g.warm_up_time(std::time::Duration::from_millis(300));
    for dims in [4usize, 16] {
        let (tree, gather, q) = tree_and_query(dims);
        // Walk to the leftmost leaf.
        let mut n = tree.root;
        while !tree.is_leaf(n) {
            n = tree.children(n).start;
        }
        let dk = DistKernel::for_dims(dims);
        let mut out: Vec<(f32, u32)> = Vec::new();
        let mut tmp: Vec<f32> = Vec::new();
        g.bench_with_input(BenchmarkId::new("arena", dims), &dims, |bch, _| {
            bch.iter(|| {
                out.clear();
                tree.leaf_sweep(n, &q, &dk, &mut tmp, &mut out);
            })
        });
        g.bench_with_input(BenchmarkId::new("gather", dims), &dims, |bch, _| {
            bch.iter(|| {
                out.clear();
                gather.leaf_sweep(n, &q, &dk, &mut tmp, &mut out);
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_sq_dist,
    bench_simd_lanes,
    bench_batched_rows,
    bench_child_sweep,
    bench_leaf_sweep
);
criterion_main!(benches);
