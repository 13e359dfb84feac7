//! Geometry-primitive microbenchmarks: the inner loops everything sits on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psb_data::ClusteredSpec;
use psb_geom::{hilbert_key, hilbert_keys, ritter_points, sq_dist, welzl, Rect, RitterMode};

fn bench_geom(c: &mut Criterion) {
    let mut g = c.benchmark_group("geom");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));

    // Distance kernel across dimensionalities.
    for dims in [4usize, 16, 64] {
        let a: Vec<f32> = (0..dims).map(|i| i as f32 * 0.37).collect();
        let b: Vec<f32> = (0..dims).map(|i| (dims - i) as f32 * 0.11).collect();
        g.bench_with_input(BenchmarkId::new("sq_dist", dims), &dims, |bch, _| {
            bch.iter(|| std::hint::black_box(sq_dist(&a, &b)))
        });
    }

    // Enclosing spheres: Ritter (both modes) vs exact Welzl.
    let ps = ClusteredSpec { clusters: 1, points_per_cluster: 512, dims: 8, sigma: 50.0, seed: 23 }
        .generate();
    let idx: Vec<u32> = (0..ps.len() as u32).collect();
    g.bench_function("ritter_sequential_512", |b| {
        b.iter(|| ritter_points(&ps, &idx, RitterMode::Sequential))
    });
    g.bench_function("ritter_parallel_512", |b| {
        b.iter(|| ritter_points(&ps, &idx, RitterMode::Parallel))
    });
    let small_idx: Vec<u32> = (0..128).collect();
    g.bench_function("welzl_exact_128", |b| b.iter(|| welzl(&ps, &small_idx)));

    // Hilbert keys at low and high dimensionality.
    for dims in [2usize, 64] {
        let p: Vec<f32> = (0..dims).map(|i| i as f32 * 11.3).collect();
        let bounds = Rect::new(vec![0.0; dims], vec![65536.0; dims]);
        g.bench_with_input(BenchmarkId::new("hilbert_key", dims), &dims, |bch, _| {
            bch.iter(|| std::hint::black_box(hilbert_key(&p, &bounds)))
        });
    }

    // The same 4 096 keys one point at a time (the kernel at one lane) and as
    // a batch (points as lanes): the ratio is what the wide instantiation
    // earns. Run with `RAYON_NUM_THREADS=1` to compare kernels, not threads.
    for dims in [4usize, 16] {
        let ps =
            ClusteredSpec { clusters: 8, points_per_cluster: 512, dims, sigma: 90.0, seed: 29 }
                .generate();
        let bounds = Rect::of_point_set(&ps);
        g.bench_with_input(BenchmarkId::new("hilbert_key_x4096", dims), &dims, |bch, _| {
            bch.iter(|| ps.iter().map(|p| hilbert_key(p, &bounds)).collect::<Vec<_>>())
        });
        g.bench_with_input(BenchmarkId::new("hilbert_keys_x4096", dims), &dims, |bch, _| {
            bch.iter(|| hilbert_keys(&ps, &bounds))
        });
    }

    g.finish();
}

criterion_group!(benches, bench_geom);
criterion_main!(benches);
