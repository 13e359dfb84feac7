//! The layer costs of `DynamicShardRouter`'s write path and read path
//! (DESIGN.md "Mutable shards"): what an insert pays to keep the cached
//! answers right, what a hit and a miss cost, what an insert and a remove
//! cost with the cache attached, what one shard's tree answers a query in
//! with a delta or tombstones behind it, and what a shard rebuild costs — at the repo
//! benchmark's `ingest-clustered4` shape (4-d, k = 8, degree 16, a 256-entry
//! cache, 10 500-point shards). The `cache` group times `QueryCache` alone,
//! at the `serve-noaa4` stream's shape.
//!
//! The criterion shim times one closure call per sample, so the
//! microsecond-scale rows run 240 operations a call (`_x240`: one benchmark
//! cycle's queries, ten cycles' inserts).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psb_core::shard::ShardPolicy;
use psb_core::DynamicSsTree;
use psb_data::{sample_queries, ClusteredSpec, SkewedQuerySpec};
use psb_geom::PointSet;
use psb_serve::{CacheKey, DynamicShardRouter, QueryCache};
use psb_sstree::{BuildMethod, Neighbor};

const K: usize = 8;
const CACHE: usize = 256;
const OPS: usize = 240;

fn dataset(n: usize, dims: usize) -> PointSet {
    ClusteredSpec { clusters: 10, points_per_cluster: n / 10, dims, sigma: 160.0, seed: 7 }
        .generate()
}

fn bench_dynamic(c: &mut Criterion) {
    let mut g = c.benchmark_group("dynamic");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));

    // `QueryCache::absorb` on a full cache of real answers: the whole of what
    // `insert` added when the cache stopped being flushed. O(capacity × dims).
    for dims in [4usize, 16] {
        let ps = dataset(8_000, dims);
        let router = DynamicShardRouter::build(&ps, 4, &ShardPolicy::HilbertRange, 16);
        let mut cache = QueryCache::new(CACHE);
        for q in sample_queries(&ps, CACHE, 0.01, 11).iter() {
            cache.insert(CacheKey::new(q, K), &router.knn(q, K));
        }
        let fresh = sample_queries(&ps, OPS, 0.002, 13);
        let mut id = ps.len() as u32;
        g.bench_function(BenchmarkId::new("absorb_x240", format!("cache{CACHE}_d{dims}")), |b| {
            b.iter(|| {
                fresh
                    .iter()
                    .map(|p| {
                        id += 1;
                        cache.absorb(p, id)
                    })
                    .sum::<usize>()
            })
        });
    }

    // `knn` on the cached router: a stream that fits the cache (every ask a
    // hit) and one that cycles through more queries than it holds (the
    // dynamic router's cache evicts in insertion order: every ask a miss,
    // computed and filed).
    let ps = dataset(40_000, 4);
    let mut router = DynamicShardRouter::build(&ps, 4, &ShardPolicy::HilbertRange, 16);
    router.attach_cache(CACHE);
    let pool = sample_queries(&ps, 3 * OPS, 0.01, 17);
    let rows: Vec<&[f32]> = pool.iter().collect();
    g.bench_function("knn_hit_x240", |b| {
        b.iter(|| rows[..OPS].iter().map(|q| router.knn(q, K).len()).sum::<usize>())
    });
    let mut turn = 0;
    g.bench_function("knn_miss_x240", |b| {
        b.iter(|| {
            turn += 1;
            let batch = &rows[turn % 3 * OPS..][..OPS];
            batch.iter().map(|q| router.knn(q, K).len()).sum::<usize>()
        })
    });

    // The write path on the same router: an insert routes to the nearest
    // shard centre, appends to its delta and folds the point into the
    // cache; a remove asks each shard whether it holds the id (a binary
    // search of each id list), marks it where it is and flushes the cache.
    // Each call inserts the next 240 points or removes the next 240 initial
    // ids, so every remove finds its point; the group runs each closure 21
    // times (a warm-up and 20 samples).
    let fresh = sample_queries(&ps, 21 * OPS, 0.002, 18);
    let mut inserted = fresh.iter();
    g.bench_function("insert_x240", |b| {
        b.iter(|| inserted.by_ref().take(OPS).map(|p| router.insert(p)).max())
    });
    let mut doomed = (0..ps.len() as u32).step_by(7);
    g.bench_function("remove_x240", |b| {
        b.iter(|| doomed.by_ref().take(OPS).filter(|&id| router.remove(id)).count())
    });

    // One shard's tree alone: the query each visited shard of
    // `ingest-clustered4` runs, 240 `knn` at k = 8 on 10 000 4-d points at
    // degree 16 — with an empty delta, with 240 and 960 pending inserts
    // (under the 2 000 a rebuild turns due at), and with 24 tombstones, which
    // the k-best list turns away instead of growing k by them.
    let ps = dataset(10_000, 4);
    let queries = sample_queries(&ps, OPS, 0.01, 20);
    let pending = sample_queries(&ps, 960, 0.002, 21);
    let cases = [("pending0", 0, 0), ("pending240", 240, 0), ("pending960", 960, 0)];
    for (case, inserts, removes) in cases.into_iter().chain([("tombstones24", 0, 24)]) {
        let mut tree = DynamicSsTree::new(&ps, 16, BuildMethod::Hilbert);
        pending.iter().take(inserts).for_each(|p| {
            tree.insert(p);
        });
        for id in (0..ps.len() as u32).step_by(ps.len() / 24).take(removes) {
            assert!(tree.remove(id));
        }
        assert_eq!((tree.pending(), tree.len()), (inserts, ps.len() + inserts - removes));
        g.bench_function(BenchmarkId::new("tree_knn_x240", case), |b| {
            b.iter(|| queries.iter().map(|q| tree.knn(q, K).len()).sum::<usize>())
        });
    }

    // One shard of `ingest-clustered4` after 500 inserts: the hand-off to
    // the build thread and `settle`, so the whole of snapshot, build and
    // install.
    let ps = dataset(10_000, 4);
    let mut router = DynamicShardRouter::build(&ps, 1, &ShardPolicy::HilbertRange, 16);
    for p in sample_queries(&ps, 500, 0.002, 19).iter() {
        router.insert(p);
    }
    g.bench_function("rebuild_shard/n10500_d4_deg16", |b| {
        b.iter(|| {
            router.rebuild_shard(0);
            router.settle();
        })
    });

    g.finish();
}

/// `QueryCache`'s own costs at `serve-noaa4`'s shape (a 256-entry SIEVE
/// cache, a Zipf(0.9) stream of 2 400 queries over 1 200 distinct ones):
/// probe-then-insert as the serve loop runs it, with hits between the
/// evicting inserts; the plan's `predict_misses` over one batch; and a hit.
fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));

    let ps = dataset(8_000, 4);
    let spec = SkewedQuerySpec { distinct: 1_200, ..SkewedQuerySpec::bursty(2_400, 23) };
    let stream: Vec<CacheKey> = spec.generate(&ps).iter().map(|q| CacheKey::new(q, K)).collect();
    let answer: Vec<Neighbor> = (0..K as u32).map(|id| Neighbor { dist: id as f32, id }).collect();
    let serve = |cache: &mut QueryCache, batch: &[CacheKey]| {
        let mut misses = 0;
        for key in batch {
            if cache.get(key).is_none() {
                cache.insert(key.clone(), &answer);
                misses += 1;
            }
        }
        misses
    };
    let mut cache = QueryCache::new(CACHE);
    serve(&mut cache, &stream);
    let batches: Vec<&[CacheKey]> = stream.chunks(OPS).collect();

    let mut turn = 0;
    g.bench_function("serve_x240", |b| {
        b.iter(|| {
            turn += 1;
            serve(&mut cache, batches[turn % batches.len()])
        })
    });
    g.bench_function("predict_misses_x240", |b| {
        b.iter(|| {
            turn += 1;
            cache.predict_misses(batches[turn % batches.len()]).len()
        })
    });
    let resident: Vec<&CacheKey> = stream.iter().filter(|key| cache.get(key).is_some()).collect();
    let hits: Vec<&CacheKey> = resident.into_iter().cycle().take(OPS).collect();
    g.bench_function("get_hit_x240", |b| {
        b.iter(|| hits.iter().filter_map(|key| cache.get(key)).count())
    });

    g.finish();
}

criterion_group!(benches, bench_dynamic, bench_cache);
criterion_main!(benches);
