//! Real host threads under the batch engine.
//!
//! The rayon shim cuts every parallel region into pieces whose boundaries
//! depend on the region's length only, and combines per-piece results in piece
//! order. These tests hold the workspace to what follows from that: every
//! batch runner, every parallel build phase and the k-means shard split give
//! the same bits inside pools of 1, 2, 4 and 7 threads (7 divides none of the
//! piece counts here, so some worker always gets a ragged share); and the
//! layers written for concurrency — per-shard `RwLock`s, the result caches
//! (epoch-checked on the static path, maintained under writes on the dynamic
//! one), the metrics `Registry` — survive a soak on real threads.

use std::collections::HashSet;
use std::fmt::Debug;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex, RwLock};
use std::time::{Duration, Instant};

use psb::prelude::*;
use rayon::prelude::*;

const POOLS: [usize; 4] = [1, 2, 4, 7];

/// Distinct threads that run the pieces of a region entered here: each of its
/// 61 pieces (the fixture's batch size) holds on, bounded, until `want`
/// threads have shown up.
fn threads_at_work(want: usize) -> usize {
    let seen = Mutex::new(HashSet::new());
    let give_up = Instant::now() + Duration::from_secs(20);
    (0..61usize).into_par_iter().for_each(|_| loop {
        let arrived = {
            let mut seen = seen.lock().expect("seen");
            seen.insert(std::thread::current().id());
            seen.len()
        };
        if arrived >= want || Instant::now() > give_up {
            break;
        }
        std::thread::yield_now();
    });
    seen.into_inner().expect("seen").len()
}

/// Runs `op` with every region it enters on `threads` threads — checked, not
/// assumed: the shim spawns a region's workers unconditionally, so what a
/// probe region sees here is what every region of `op` gets.
fn in_pool<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool").install(|| {
        assert_eq!(threads_at_work(threads), threads, "pool of {threads} did not fan out");
        op()
    })
}

/// `{:?}` of f32/f64 is the shortest string that round-trips, so two values
/// print alike exactly when their bits agree (and `-0.0` prints its sign):
/// one string compares neighbours, counters, outcomes and every field of the
/// report, private ones included.
fn fingerprint(value: &impl Debug) -> String {
    format!("{value:?}")
}

/// Runs `op` in every pool and requires the same fingerprint from each.
fn same_in_every_pool<R: Debug + Send>(what: &str, op: impl Fn() -> R + Sync) -> R {
    let first = in_pool(POOLS[0], &op);
    let want = fingerprint(&first);
    for &threads in &POOLS[1..] {
        let got = fingerprint(&in_pool(threads, &op));
        assert!(got == want, "{what}: differs between 1 and {threads} threads");
    }
    first
}

struct Fixture {
    points: PointSet,
    queries: PointSet,
    tree: SsTree,
    rtree: RsTree,
    kd: LbKdTree,
    cfg: DeviceConfig,
}

/// 61 queries: prime, so pieces are ragged and a Hilbert schedule moves
/// almost every one of them.
fn fixture() -> Fixture {
    let points =
        ClusteredSpec { clusters: 8, points_per_cluster: 300, dims: 8, sigma: 120.0, seed: 5 }
            .generate();
    let queries = sample_queries(&points, 61, 0.02, 17);
    Fixture {
        tree: build(&points, 16, &BuildMethod::Hilbert),
        rtree: build_rtree(&points, 16, &RtreeBuildMethod::Hilbert),
        kd: LbKdTree::build(&points),
        cfg: DeviceConfig::k40(),
        points,
        queries,
    }
}

const K: usize = 6;
const RADIUS: f32 = 250.0;

#[test]
fn plain_batch_runners_are_bit_identical_in_every_pool() {
    let f = fixture();
    let opts = KernelOptions::default();
    let (t, q, cfg) = (&f.tree, &f.queries, &f.cfg);
    same_in_every_pool("psb", || psb_batch(t, q, K, cfg, &opts).expect("psb"));
    same_in_every_pool("psb/rtree", || psb_batch(&f.rtree, q, K, cfg, &opts).expect("psb"));
    same_in_every_pool("bnb", || bnb_batch(t, q, K, cfg, &opts).expect("bnb"));
    same_in_every_pool("restart", || restart_batch(t, q, K, cfg, &opts).expect("restart"));
    same_in_every_pool("range", || range_batch(t, q, RADIUS, cfg, &opts).expect("range"));
    same_in_every_pool("stackfree", || stackfree_batch(&f.kd, q, K, cfg, &opts).expect("kd"));
    let brute =
        same_in_every_pool("brute", || brute_batch(&f.points, q, K, cfg, &opts).expect("brute"));
    // And the threaded answers are the right ones, not merely the same ones.
    for (qi, got) in brute.neighbors.iter().enumerate() {
        assert_eq!(fingerprint(got), fingerprint(&linear_knn(&f.points, q.point(qi), K)));
    }
}

#[test]
fn recovering_runners_climb_the_same_ladder_in_every_pool() {
    let f = fixture();
    let opts = KernelOptions::default();
    let (t, q, cfg) = (&f.tree, &f.queries, &f.cfg);
    let mut rungs_off_clean = 0;
    for plan in [FaultPlan::bit_flips(0xF00D, 2), FaultPlan::truncation(8), FaultPlan::watchdog(32)]
    {
        let psb = same_in_every_pool("psb_recovering", || {
            launch(t, q, Kernel::Psb { k: K }, cfg, &opts, &plan, None).expect("psb")
        });
        rungs_off_clean += psb.outcomes.iter().filter(|o| **o != QueryOutcome::Clean).count();
        same_in_every_pool("bnb_recovering", || {
            launch(t, q, Kernel::Bnb { k: K }, cfg, &opts, &plan, None).expect("bnb")
        });
        same_in_every_pool("restart_recovering", || {
            launch(t, q, Kernel::Restart { k: K }, cfg, &opts, &plan, None).expect("restart")
        });
        same_in_every_pool("range_recovering", || {
            launch(t, q, Kernel::Range { radius: RADIUS }, cfg, &opts, &plan, None).expect("range")
        });
        same_in_every_pool("stackfree_recovering", || {
            launch_stackfree(&f.kd, q, K, cfg, &opts, &plan, None).expect("kd")
        });
    }
    assert!(rungs_off_clean > 0, "the fault plans must push some query off the clean rung");
}

#[test]
fn schedule_fuse_wave_and_stream_are_bit_identical_in_every_pool() {
    let f = fixture();
    let (t, q, cfg) = (&f.tree, &f.queries, &f.cfg);
    let hilbert = KernelOptions { schedule: QuerySchedule::Hilbert, ..Default::default() };
    let fast = KernelOptions { metering: Metering::Off, ..hilbert.clone() };
    let wave = KernelOptions { wave: Some(WaveConfig), ..hilbert.clone() };
    same_in_every_pool("psb/hilbert", || psb_batch(t, q, K, cfg, &hilbert).expect("psb"));
    same_in_every_pool("psb/hilbert/unmetered", || psb_batch(t, q, K, cfg, &fast).expect("psb"));
    same_in_every_pool("psb/hilbert/faults", || {
        launch(t, q, Kernel::Psb { k: K }, cfg, &hilbert, &FaultPlan::bit_flips(0xBEEF, 2), None)
            .expect("psb")
    });
    // Every query runs all of its wave fronts inside one region; the fetch
    // shares are charged node-major afterwards, on the calling thread.
    same_in_every_pool("wave/knn", || wave_knn_batch(t, q, K, cfg, &wave).expect("wave"));
    same_in_every_pool("wave/range", || wave_range_batch(t, q, RADIUS, cfg, &wave).expect("wave"));
    same_in_every_pool("wave/rtree", || wave_knn_batch(&f.rtree, q, K, cfg, &wave).expect("wave"));
    same_in_every_pool("wave/rtree/range", || {
        wave_range_batch(&f.rtree, q, RADIUS, cfg, &wave).expect("wave")
    });
    same_in_every_pool("stream", || {
        let mut stream = QueryStream::with_chunk_size(
            t,
            StreamKernel::Psb { k: K },
            cfg.clone(),
            hilbert.clone(),
            16,
        );
        let mut chunks = Vec::new();
        for query in q.iter() {
            stream.push(query);
            while let Some(chunk) = stream.poll() {
                chunks.push(chunk);
            }
        }
        chunks.extend(stream.finish());
        chunks
    });
}

/// The bytes `persist::save` writes: every array of the tree, in order.
fn persisted(tree: &SsTree, tag: &str) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("psb-threads-{}-{tag}.psbt", std::process::id()));
    psb::sstree::persist::save(tree, &path).expect("save");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    bytes
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn builds_are_byte_identical_at_one_and_four_threads() {
    // 5000 points: the k-means chunk grid has several chunks, the Hilbert key
    // region several pieces, and there are two internal levels above the
    // leaves.
    let points =
        ClusteredSpec { clusters: 10, points_per_cluster: 500, dims: 6, sigma: 90.0, seed: 23 }
            .generate();
    // FNV-1a of the image `persist::save` wrote at commit d60626f, before the
    // Hilbert keys came from the lane kernel and the shared sort: the trees
    // are not merely the same at every thread count, they are the same trees.
    for (tag, method, parent_image) in [
        ("hilbert", BuildMethod::Hilbert, 0x57c0_f101_ab0b_2fc6u64),
        ("kmeans", BuildMethod::kmeans_default(7), 0x30c0_f161_f7c8_0f96),
    ] {
        let one = in_pool(1, || build(&points, 16, &method));
        let four = in_pool(4, || build(&points, 16, &method));
        one.validate().expect("valid tree");
        let (a, b) = (persisted(&one, &format!("{tag}-1")), persisted(&four, &format!("{tag}-4")));
        assert!(a == b, "sstree::build {tag}: persist images differ between 1 and 4 threads");
        assert_eq!(fnv1a(&a), parent_image, "sstree::build {tag}: {:#018x}", fnv1a(&a));
    }
    // A set of that size is keyed and enclosed on the calling thread (a
    // region would cost more than it saves); one four times as large enters
    // a region for both, ragged last pieces included.
    let large =
        ClusteredSpec { clusters: 10, points_per_cluster: 2003, dims: 6, sigma: 90.0, seed: 23 }
            .generate();
    let image = |threads: usize| {
        let tree = in_pool(threads, || build(&large, 16, &BuildMethod::Hilbert));
        persisted(&tree, &format!("large-{threads}"))
    };
    assert!(
        image(1) == image(4),
        "sstree::build over 20 030 points differs between 1 and 4 threads"
    );
    let rt = |threads| in_pool(threads, || build_rtree(&points, 16, &RtreeBuildMethod::Hilbert));
    assert!(fingerprint(&rt(1)) == fingerprint(&rt(4)), "build_rtree differs");
    let kd = |threads| in_pool(threads, || LbKdTree::build(&points));
    assert!(fingerprint(&kd(1)) == fingerprint(&kd(4)), "LbKdTree::build differs");
}

#[test]
fn hilbert_keys_ranges_and_schedules_are_identical_in_every_pool() {
    // 18 000 points: past the size below which keys are computed inline, and
    // nine pieces of the key region, the last one ragged.
    let points =
        ClusteredSpec { clusters: 10, points_per_cluster: 1800, dims: 6, sigma: 90.0, seed: 37 }
            .generate();
    let bounds = Rect::of_point_set(&points);
    let keys = same_in_every_pool("hilbert_keys", || psb::geom::hilbert_keys(&points, &bounds));
    for (i, p) in points.iter().enumerate() {
        assert_eq!(keys[i], hilbert_key(p, &bounds), "point {i}");
    }
    same_in_every_pool("partition/hilbert", || {
        partition(&points, 4, &ShardPolicy::HilbertRange).assignments
    });
    let order = same_in_every_pool("hilbert_order", || hilbert_order(&points));
    assert!(order
        .windows(2)
        .all(|w| { (keys[w[0] as usize], w[0]) < (keys[w[1] as usize], w[1]) }));
}

#[test]
fn kmeans_shards_are_identical_at_one_and_four_threads() {
    let points =
        ClusteredSpec { clusters: 10, points_per_cluster: 500, dims: 6, sigma: 90.0, seed: 29 }
            .generate();
    let policy = ShardPolicy::KMeans { seed: 3 };
    let plan = |threads| in_pool(threads, || partition(&points, 4, &policy).assignments);
    assert_eq!(plan(1), plan(4), "k-means shard assignments");

    let queries = sample_queries(&points, 40, 0.02, 31);
    let serve = |threads: usize| {
        in_pool(threads, || {
            let cfg = ServeConfig::new(4).with_policy(policy);
            let mut router = ShardRouter::build(&points, &cfg, &DeviceConfig::k40(), |local| {
                build(local, 16, &BuildMethod::Hilbert)
            });
            let spheres: Vec<Sphere> =
                (0..router.num_shards()).map(|s| router.sphere(s).clone()).collect();
            let out = router.serve_batch(&queries, K, &KernelOptions::default()).expect("serve");
            (spheres, out.neighbors, out.per_query, out.outcomes)
        })
    };
    assert!(fingerprint(&serve(1)) == fingerprint(&serve(4)), "ShardRouter::build + serve");
}

/// A serve workload in which everything that can void an execution done
/// ahead of its turn happens inside one batch: repeats of keys whose first
/// answer is still in flight, more distinct keys than the cache holds, a
/// quota that sheds, cycle deadlines that degrade (so a planned hit is not
/// there), a replica that dies mid-batch and a breaker that trips mid-batch.
struct ServeCase {
    points: PointSet,
    queries: PointSet,
    requests: Vec<RequestMeta>,
}

const SERVE_SHARDS: usize = 4;
const SERVE_REPLICAS: usize = 2;
/// k-means shards: tight spheres, so a query rarely leaves its own.
const SERVE_POLICY: ShardPolicy = ShardPolicy::KMeans { seed: 3 };

fn serve_case() -> ServeCase {
    let points =
        ClusteredSpec { clusters: 8, points_per_cluster: 300, dims: 4, sigma: 60.0, seed: 61 }
            .generate();
    // Queries are data points, so each sits inside one shard's sphere and
    // mostly stays there. The batch opens on shards 0 and 3, reaches shard 1
    // a third of the way in and shard 2 after two thirds: that is when their
    // devices die, with plenty executed ahead on the old replica states.
    let owned = partition(&points, SERVE_SHARDS, &SERVE_POLICY).assignments;
    let mut queries = PointSet::new(points.dims());
    let mut requests = Vec::new();
    for i in 0..96usize {
        let in_play = &[0, 3, 1, 2][..2 + i / 32];
        let shard = &owned[in_play[i % in_play.len()]];
        // A hot point per shard and four colder ones: 20 keys in all.
        let nth = if i % 3 == 0 { 0 } else { i % 5 };
        let own = points.point(shard[nth * 53 % shard.len()] as usize);
        let mut meta = RequestMeta::tenant(if i % 8 == 5 { 7 } else { 1 });
        if i % 5 == 2 {
            // Halfway to the next shard in play, on a budget below one shard
            // visit: the second visit is skipped and the answer is marked.
            let other = points.point(owned[in_play[(i + 1) % in_play.len()]][0] as usize);
            let between: Vec<f32> = own.iter().zip(other).map(|(a, b)| (a + b) / 2.0).collect();
            queries.push(&between);
            meta = meta.with_deadline(DeadlineBudget::Cycles(1_000));
        } else {
            queries.push(own);
        }
        requests.push(meta);
    }
    ServeCase { points, queries, requests }
}

impl ServeCase {
    /// Two replicas per shard. Shard 1's primary and both of shard 2's
    /// devices die on their first launch — mid-batch, at whichever query first
    /// reaches them.
    fn router(&self) -> ShardRouter<SsTree> {
        let cfg =
            ServeConfig::new(SERVE_SHARDS).with_replicas(SERVE_REPLICAS).with_policy(SERVE_POLICY);
        let mut router = ShardRouter::build(&self.points, &cfg, &DeviceConfig::k40(), |local| {
            build(local, 8, &BuildMethod::Hilbert)
        });
        router.set_fault_plan(1, 0, FaultPlan::truncation(1));
        router.set_fault_plan(2, 0, FaultPlan::watchdog(1));
        router.set_fault_plan(2, 1, FaultPlan::truncation(1));
        router
    }

    fn front(&self) -> ResilientRouter<SsTree> {
        let mut front = ResilientRouter::new(
            self.router(),
            ResilienceConfig {
                breaker: BreakerConfig { failure_threshold: 2, backoff_base: 3, backoff_max: 12 },
                cache_capacity: 6,
                ..ResilienceConfig::default()
            },
        );
        front.set_quota(7, QuotaConfig { burst: 4, refill_per_tick: 0 });
        front
    }
}

#[test]
fn resilient_serving_is_bit_identical_in_every_pool() {
    let case = serve_case();
    let opts = KernelOptions::default();
    let (out, cache, .., replicas) = same_in_every_pool("resilient serve", || {
        let mut front = case.front();
        // Two batches: the second starts from the breakers, the demotions and
        // the cache the first one left.
        let first = front.serve_batch(&case.queries, K, &opts, &case.requests).expect("serve");
        let second = front.serve_batch(&case.queries, K, &opts, &case.requests).expect("serve");
        let breakers: Vec<BreakerState> =
            (0..SERVE_SHARDS).map(|s| front.breaker_state(s)).collect();
        let replicas: Vec<ReplicaState> = (0..SERVE_SHARDS * SERVE_REPLICAS)
            .map(|i| front.inner().replica_state(i / SERVE_REPLICAS, i % SERVE_REPLICAS))
            .collect();
        ((first, second), front.cache_stats(), front.tick(), breakers, replicas)
    });
    // Every one of those things did happen, and not at the batch's edges.
    let first = &out.0;
    let n = case.queries.len();
    let failovers = &first.report.failovers;
    assert!(failovers.iter().any(|f| f.query > 0 && f.query < n - 1), "{failovers:?}");
    assert!(replicas.iter().filter(|r| matches!(r, ReplicaState::Demoted { .. })).count() >= 2);
    assert!(first.resilience.breaker_opened >= 1, "{:?}", first.resilience);
    assert!(first.resilience.rejected_quota >= 1, "{:?}", first.resilience);
    assert!(first.resilience.deadline_skips >= 1, "{:?}", first.resilience);
    assert!(first.resilience.breaker_skips >= 1, "{:?}", first.resilience);
    assert!(first.resilience.cache_hits >= 1, "{:?}", first.resilience);
    let (_, _, evictions, _) = cache;
    assert!(evictions >= 1, "24 keys through a cache of 6 must evict");
    // Whatever claims to be exact is.
    for (qi, outcome) in first.outcomes.iter().enumerate() {
        if outcome.is_exact() {
            let want = linear_knn(&case.points, case.queries.point(qi), K);
            assert_eq!(fingerprint(&first.neighbors[qi]), fingerprint(&want), "query {qi}");
        }
    }
}

#[test]
fn bare_and_traced_serving_are_bit_identical_in_every_pool() {
    let case = serve_case();
    let opts = KernelOptions::default();
    let (out, _) = same_in_every_pool("bare serve", || {
        let mut router = case.router();
        let out = router.serve_batch(&case.queries, K, &opts).expect("serve");
        let replicas: Vec<ReplicaState> = (0..SERVE_SHARDS * SERVE_REPLICAS)
            .map(|i| router.replica_state(i / SERVE_REPLICAS, i % SERVE_REPLICAS))
            .collect();
        (out, replicas)
    });
    assert!(out.report.failovers.iter().any(|f| f.query > 0), "{:?}", out.report.failovers);
    let (traced, events) = same_in_every_pool("traced serve", || {
        let mut sink = VecSink::new();
        let out =
            case.router().serve_batch_traced(&case.queries, K, &opts, &mut sink).expect("serve");
        (out, sink.events)
    });
    // Tracing observes: same answers as the untraced run, and the failovers
    // sit in the event stream in the order the report lists them.
    assert_eq!(fingerprint(&traced), fingerprint(&out));
    let seen: Vec<(u32, u32)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Failover { shard, replica } => Some((*shard, *replica)),
            _ => None,
        })
        .collect();
    let listed: Vec<(u32, u32)> =
        out.report.failovers.iter().map(|f| (f.shard as u32, f.replica as u32)).collect();
    assert_eq!(seen, listed);
}

/// Linear-scan oracle over the points whose global ids are `live`.
fn oracle(all: &PointSet, live: &[u32], q: &[f32], k: usize) -> Vec<Neighbor> {
    let alive = all.gather(live);
    linear_knn(&alive, q, k)
        .into_iter()
        .map(|n| Neighbor { dist: n.dist, id: live[n.id as usize] })
        .collect()
}

/// Everything the soak's threads share.
struct Soak {
    /// The outer lock a server would hold: `&self` traffic (queries, shard
    /// rebuilds) under `read`, `&mut self` traffic (inserts, removes) under
    /// `write`.
    router: RwLock<DynamicShardRouter>,
    registry: Arc<Registry>,
    /// Row `g` is the point with global id `g`: the initial set, then the
    /// insert stream in the order the single writer feeds it.
    all: PointSet,
    queries: PointSet,
    tree: SsTree,
    batch_want: String,
    start: Barrier,
    writers_done: AtomicBool,
    knn_calls: AtomicU64,
    /// Queries each reader lane has finished.
    lane_reads: [AtomicU64; READERS],
}

const INITIAL: usize = 2000;
const WRITE_PHASES: usize = 12;
const INSERTS_PER_PHASE: usize = 16;
const REBUILDS: usize = 24;
const BATCHES: usize = 12;
const READERS: usize = 3;
const MIN_READS: usize = 400;

/// The initial point the writer removes in `phase`.
fn removed_in(phase: usize) -> u32 {
    (phase * 131) as u32
}

/// The global ids alive once the writer has made `inserts` inserts and
/// `removes` removes.
fn live_after(inserts: usize, removes: usize) -> Vec<u32> {
    let removed: Vec<u32> = (0..removes).map(removed_in).collect();
    (0..(INITIAL + inserts) as u32).filter(|g| !removed.contains(g)).collect()
}

impl Soak {
    fn reader(&self, lane: usize) {
        self.start.wait();
        let mut reads = 0;
        // Bounded by work, not time: run while the finite threads run, and
        // at least MIN_READS queries.
        while reads < MIN_READS || !self.writers_done.load(Ordering::Acquire) {
            let q = self.queries.point((lane + reads * READERS) % self.queries.len());
            let got = self.router.read().expect("outer lock").knn(q, K);
            self.knn_calls.fetch_add(1, Ordering::Relaxed);
            self.lane_reads[lane].fetch_add(1, Ordering::Release);
            assert_eq!(got.len(), K);
            for pair in got.windows(2) {
                assert!(pair[0].dist <= pair[1].dist && pair[0].id != pair[1].id, "{got:?}");
            }
            for n in &got {
                // Whatever set this query saw, the id it names is a real
                // point at exactly that distance.
                let d = dist(q, self.all.point(n.id as usize));
                assert_eq!(d.to_bits(), n.dist.to_bits(), "id {} at a distance it is not at", n.id);
            }
            reads += 1;
        }
    }

    /// Holds the writer back until every reader lane has been round its
    /// queries since now: a lane asks for its `queries.len() / READERS`
    /// queries in turn, so after two rounds (one query may have been answered
    /// before the call and counted after it) each was asked for, and filed if
    /// it missed. The cache holds them all, so from here to the next remove
    /// every answer is resident.
    fn readers_go_round(&self) {
        let round = (self.queries.len() / READERS) as u64;
        for lane in &self.lane_reads {
            let target = lane.load(Ordering::Acquire) + 2 * round;
            while lane.load(Ordering::Acquire) < target {
                std::thread::yield_now();
            }
        }
    }

    /// Inserts the stream in order (so global ids are `INITIAL + j`) and
    /// removes one initial point per phase, the two under separate holds of
    /// the outer lock with the readers let round in between: the inserts meet
    /// a full cache, the readers then hit what the inserts left of it, and
    /// the remove flushes it. Under the inserts' hold the writer asks every
    /// query itself: all hits, on answers filed before the inserts, equal to
    /// a scan of the set as it now stands.
    fn writer(&self) {
        self.start.wait();
        for phase in 0..WRITE_PHASES {
            self.readers_go_round();
            {
                let mut router = self.router.write().expect("outer lock");
                for j in 0..INSERTS_PER_PHASE {
                    let g = INITIAL + phase * INSERTS_PER_PHASE + j;
                    assert_eq!(router.insert(self.all.point(g)) as usize, g);
                }
                let live = live_after((phase + 1) * INSERTS_PER_PHASE, phase);
                let (hits, misses, ..) = router.cache_stats();
                for (qi, q) in self.queries.iter().enumerate() {
                    assert_eq!(router.knn(q, K), oracle(&self.all, &live, q, K), "query {qi}");
                }
                self.knn_calls.fetch_add(self.queries.len() as u64, Ordering::Relaxed);
                let (hits_now, misses_now, ..) = router.cache_stats();
                assert_eq!(
                    (hits_now - hits, misses_now - misses),
                    (self.queries.len() as u64, 0),
                    "phase {phase}: answers filed before the inserts were not served after them"
                );
            }
            self.readers_go_round();
            assert!(self.router.write().expect("outer lock").remove(removed_in(phase)));
        }
    }

    fn rebuilder(&self) {
        self.start.wait();
        for i in 0..REBUILDS {
            let router = self.router.read().expect("outer lock");
            router.rebuild_shard(i % router.num_shards());
        }
    }

    fn scraper(&self) {
        self.start.wait();
        let mut scrapes = 0;
        while scrapes < 50 || !self.writers_done.load(Ordering::Acquire) {
            let snap = self.registry.snapshot();
            for (name, h) in &snap.histograms {
                assert!(
                    h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.p999 && h.p999 <= h.max,
                    "{name}: {h:?}"
                );
            }
            for line in render_prometheus(&snap).lines().filter(|l| !l.starts_with('#')) {
                let value = line.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok());
                assert!(value.is_some_and(f64::is_finite), "unparseable sample: {line}");
            }
            scrapes += 1;
            std::thread::yield_now();
        }
    }

    /// Fans a faulted `launch` out on a 4-thread pool beside everything
    /// else, metrics attached to the shared registry.
    fn batcher(&self) {
        self.start.wait();
        let opts = KernelOptions {
            metrics: MetricsHandle::attached(&self.registry),
            ..Default::default()
        };
        let plan = FaultPlan::bit_flips(0xC0FFEE, 2);
        let cfg = DeviceConfig::k40();
        in_pool(4, || {
            for _ in 0..BATCHES {
                let out = launch(
                    &self.tree,
                    &self.queries,
                    Kernel::Psb { k: K },
                    &cfg,
                    &opts,
                    &plan,
                    None,
                )
                .expect("typed result");
                assert_eq!(fingerprint(&(&out.neighbors, &out.outcomes)), self.batch_want);
            }
        });
    }
}

#[test]
fn concurrent_soak_serve_insert_rebuild_scrape_and_batch() {
    let inserts = WRITE_PHASES * INSERTS_PER_PHASE;
    let all = ClusteredSpec {
        clusters: 8,
        points_per_cluster: (INITIAL + inserts) / 8,
        dims: 4,
        sigma: 60.0,
        seed: 41,
    }
    .generate();
    assert_eq!(all.len(), INITIAL + inserts);
    let initial: Vec<u32> = (0..INITIAL as u32).collect();
    let initial_points = all.gather(&initial);
    let queries = sample_queries(&all, 48, 0.02, 43);

    let registry = Registry::new();
    let mut router = DynamicShardRouter::build(&initial_points, 4, &ShardPolicy::HilbertRange, 8);
    router.attach_cache(64);
    router.attach_metrics(MetricsHandle::attached(&registry));

    // What the batch loop must keep returning: exact neighbours under the
    // fault plan, and the same rung per query every time.
    let tree = build(&initial_points, 16, &BuildMethod::Hilbert);
    let cfg = DeviceConfig::k40();
    let reference = launch(
        &tree,
        &queries,
        Kernel::Psb { k: K },
        &cfg,
        &KernelOptions::default(),
        &FaultPlan::bit_flips(0xC0FFEE, 2),
        None,
    )
    .expect("reference batch");
    for (qi, got) in reference.neighbors.iter().enumerate() {
        assert_eq!(got, &linear_knn(&initial_points, queries.point(qi), K), "query {qi}");
    }

    let soak = Arc::new(Soak {
        router: RwLock::new(router),
        registry,
        all,
        queries,
        tree,
        batch_want: fingerprint(&(&reference.neighbors, &reference.outcomes)),
        start: Barrier::new(READERS + 4),
        writers_done: AtomicBool::new(false),
        knn_calls: AtomicU64::new(0),
        lane_reads: Default::default(),
    });

    // Plain spawned threads reporting over a channel, so a deadlock is a
    // failed receive rather than a hung test binary.
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let spawn = |body: Box<dyn FnOnce(&Soak) + Send>| {
        let (soak, done) = (Arc::clone(&soak), done_tx.clone());
        std::thread::spawn(move || {
            body(&soak);
            done.send(()).expect("main is listening")
        })
    };
    let mut handles = vec![
        spawn(Box::new(Soak::writer)),
        spawn(Box::new(Soak::rebuilder)),
        spawn(Box::new(Soak::batcher)),
        spawn(Box::new(Soak::scraper)),
    ];
    handles.extend((0..READERS).map(|lane| spawn(Box::new(move |s| s.reader(lane)))));
    let wait_for = |threads: usize| {
        for _ in 0..threads {
            done_rx
                .recv_timeout(Duration::from_secs(120))
                .expect("a soak thread panicked or deadlocked");
        }
    };
    // Readers and the scraper run until told to stop, so the first three to
    // report are the writer, the rebuilder and the batcher.
    wait_for(3);
    soak.writers_done.store(true, Ordering::Release);
    wait_for(1 + READERS);
    for handle in handles {
        handle.join().expect("soak thread");
    }

    // Quiescence: every build installed, and every query equals a linear
    // scan of the final live set.
    let live = live_after(inserts, WRITE_PHASES);
    let router = soak.router.read().expect("outer lock");
    router.settle();
    assert_eq!(router.len(), live.len());
    for (qi, q) in soak.queries.iter().enumerate() {
        assert_eq!(router.knn(q, K), oracle(&soak.all, &live, q, K), "query {qi} after quiescence");
    }
    // No update to the shared registry was lost: every knn call is either a
    // cache hit or a counted query, and every batch and rebuild was recorded.
    let snap = soak.registry.snapshot();
    let counter = |name: &str| -> u64 {
        snap.counters.iter().filter(|(k, _)| k.starts_with(name)).map(|(_, v)| *v).sum()
    };
    let calls = soak.knn_calls.load(Ordering::Relaxed) + soak.queries.len() as u64;
    assert_eq!(counter("serve.dyn_cache_hits") + counter("serve.dyn_queries"), calls);
    // The cache was kept, not refilled, across 192 inserts and every rebuild:
    // a query missed when it was first asked and once after each remove's
    // flush, and was a hit every other time — between writes and after them.
    assert_eq!(counter("serve.dyn_cache_flushes"), WRITE_PHASES as u64);
    let asked_afresh = ((WRITE_PHASES + 1) * soak.queries.len()) as u64;
    assert_eq!(counter("serve.dyn_cache_misses"), asked_afresh);
    assert_eq!(counter("serve.dyn_cache_hits"), calls - asked_afresh);
    // Every insert met every answer resident, so the entries the inserts
    // changed are the ones a scan says they had to: those whose k-th place
    // the new point is nearer than.
    let mut absorbed = 0;
    for q in soak.queries.iter() {
        let at = |g: usize| Neighbor { dist: dist(q, soak.all.point(g)), id: g as u32 };
        let mut ranked: Vec<Neighbor> = (0..INITIAL).map(at).collect();
        ranked.sort_by(Neighbor::by_rank);
        for j in 0..inserts {
            let new = at(INITIAL + j);
            let rank = ranked.partition_point(|n| Neighbor::by_rank(n, &new).is_lt());
            absorbed += u64::from(rank < K);
            ranked.insert(rank, new);
            if (j + 1) % INSERTS_PER_PHASE == 0 {
                ranked.retain(|n| n.id != removed_in(j / INSERTS_PER_PHASE));
            }
        }
    }
    assert!(absorbed > 0, "no insert was near any query");
    assert_eq!(counter("serve.dyn_cache_absorbed"), absorbed);
    // Every rebuild, the rebuilder's and any a write's churn started, built
    // on a build thread and took the write lock for the install only,
    // rebasing whatever writes raced it: each was counted, timed and swapped.
    let rebuilds = counter("serve.rebuilds{");
    assert!(rebuilds >= REBUILDS as u64, "only {rebuilds} rebuilds");
    let count = |name: &str| snap.histograms.iter().find(|(k, _)| k == name).map(|(_, h)| h.count);
    assert_eq!(count("serve.rebuild_swap_us"), Some(rebuilds));
    assert_eq!(count("serve.rebuild_us"), Some(rebuilds));
    assert_eq!(counter("engine.batches{"), BATCHES as u64);
    assert_eq!(counter("engine.queries{"), (BATCHES * soak.queries.len()) as u64);
}
