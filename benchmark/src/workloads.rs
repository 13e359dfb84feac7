//! The four workloads: generated inputs, index construction, the timed batch,
//! the correctness check and the deterministic simulator replay.
//!
//! Everything the program sees is a generated `PointSet` derived from the
//! seed; sizes, k and degree are fixed here and nowhere else. `shrink`
//! divides the dataset sizes for `--smoke` (1 = the real thing).

use std::cell::Cell;
use std::collections::HashMap;
use std::time::Instant;

use psb_core::{
    partition, psb_batch, DynamicSsTree, GpuIndex, KernelOptions, Metering, QueryOutcome,
    QuerySchedule, ShardPolicy,
};
use psb_data::{sample_queries, ClusteredSpec, NoaaSpec, SkewedQuerySpec, UniformSpec};
use psb_geom::{dist, PointSet};
use psb_gpu::{launch_blocks, DeviceConfig, KernelStats, LaunchReport};
use psb_serve::{
    DynamicShardRouter, ResilienceConfig, ResilientRouter, ServeConfig, ServeOutcome, ShardRouter,
};
use psb_sstree::{build, linear_knn, BuildMethod, Neighbor, SsTree};

use crate::trace::Tracer;

/// Queries per batch: the paper's §V-B size.
pub const BATCH: usize = 240;
/// Distinct batches a workload cycles through.
pub const BATCHES: usize = 10;
/// `ingest-clustered4`: inserts per cycle, and one shard rebuild every
/// `REBUILD_EVERY`-th cycle (round-robin over the shards).
pub const INSERTS_PER_CYCLE: usize = 24;
pub const REBUILD_EVERY: usize = 10;
/// `ingest-clustered4` runs a fixed number of cycles per round instead of a
/// time box — 100 per second of window, 400 at the declared 4 s — so the live
/// set, the share of cycles that carry a rebuild and the peak RSS are the
/// same from run to run however fast the machine is.
pub const INGEST_CYCLES_PER_WINDOW_SECOND: f64 = 100.0;
/// Shards of both serve workloads.
pub const SHARDS: usize = 4;
/// Result-cache entries of both serve workloads: larger than one batch,
/// smaller than the stream's 1 200 distinct queries, so it both hits and evicts.
pub const CACHE: usize = 256;
/// Inserts applied before the `ingest-clustered4` simulator replay.
const SIM_PENDING: usize = 960;
/// Generator seed of the three clustered datasets (and of the k-means shard
/// split). Not `--seed`: where 100 random cluster centres fall on the Hilbert
/// curve decides how well the packed tree prunes, and that moved simulated
/// bytes per query by -20 %..+35 % from one layout to the next — a run-to-run
/// spread that would measure the generator, not the program. `--seed` drives
/// what averages out within a run: the uniform dataset, every query stream
/// and the insert stream.
pub const DATA_SEED: u64 = 0x2016;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    PaperClustered16,
    HostUniform16,
    ServeNoaa4,
    IngestClustered4,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::PaperClustered16, Kind::HostUniform16, Kind::ServeNoaa4, Kind::IngestClustered4];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperClustered16 => "paper-clustered16",
            Kind::HostUniform16 => "host-uniform16",
            Kind::ServeNoaa4 => "serve-noaa4",
            Kind::IngestClustered4 => "ingest-clustered4",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

struct Ingest {
    router: DynamicShardRouter,
    /// Harness-side copy of the live set; position = global id, so
    /// `linear_knn` over it is the oracle for the router's answers.
    mirror: PointSet,
    cycle: usize,
}

enum Index {
    Tree(Box<SsTree>),
    Served(Box<ResilientRouter<SsTree>>),
    Dynamic(Box<Ingest>),
}

/// What one timed batch returned, kept for the check after the bracket closes.
pub struct BatchOut {
    pub neighbors: Vec<Vec<Neighbor>>,
    /// Per query: the outcome was `Clean` (`Executed(Clean)` on the serve path).
    pub clean: Vec<bool>,
}

/// The deterministic model outputs of one metered replay.
pub struct SimReplay {
    pub report: LaunchReport,
    pub per_block: Vec<KernelStats>,
}

pub struct Workload {
    pub kind: Kind,
    pub points: PointSet,
    /// `BATCHES` × `BATCH` queries; batch `b` is rows `b*BATCH..(b+1)*BATCH`.
    pub stream: PointSet,
    batches: Vec<PointSet>,
    pub k: usize,
    pub degree: usize,
    /// The options the workload's own path runs under.
    pub opts: KernelOptions,
    pub seed: u64,
    /// `ingest-clustered4` only: cycles per round, and the insert pool that
    /// feeds them.
    cycles: usize,
    inserts: PointSet,
    /// Oracle answers, one per *distinct* stream query, and the row each
    /// stream position maps to. Empty until [`Workload::build_oracle`].
    oracle: Vec<Vec<Neighbor>>,
    oracle_of: Vec<u32>,
    index_bytes: u64,
    index: Option<Index>,
}

fn device() -> DeviceConfig {
    DeviceConfig::k40()
}

/// splitmix64: the harness's only needs for randomness are a shuffle and a
/// node sample, which do not justify a dependency.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper workload's queries: the repo's usual "data point plus 1 % of
/// the extent" sample, but the same number from every cluster. Clusters
/// differ several-fold in what a query costs (how their leaves fell in the
/// packed tree), so a plain sample's mean cost moved +-4 % with the seed;
/// equal shares leave only the within-cluster draw to the seed. Rank-major
/// order: every run of `clusters` consecutive queries visits each cluster
/// once, so every batch is the same mix.
fn stratified_queries(ps: &PointSet, clusters: usize, seed: u64) -> PointSet {
    let per_cluster = BATCHES * BATCH / clusters;
    let size = ps.len() / clusters;
    let centroids: Vec<Vec<f32>> = (0..clusters)
        .map(|c| ps.centroid(&((c * size) as u32..((c + 1) * size) as u32).collect::<Vec<u32>>()))
        .collect();
    // `sample_queries` does not say which point a query came from; its
    // nearest centroid does (clusters are ~100 sigma apart).
    let pool = sample_queries(ps, 4 * BATCHES * BATCH, 0.01, seed);
    let mut buckets: Vec<Vec<&[f32]>> = vec![Vec::new(); clusters];
    for q in pool.iter() {
        let nearest = (0..clusters)
            .min_by(|&a, &b| dist(q, &centroids[a]).total_cmp(&dist(q, &centroids[b])))
            .expect("at least one cluster");
        if buckets[nearest].len() < per_cluster {
            buckets[nearest].push(q);
        }
    }
    let mut out = PointSet::with_capacity(ps.dims(), BATCHES * BATCH);
    for rank in 0..per_cluster {
        for bucket in &buckets {
            // A 4x oversample leaves a cluster short of its share with
            // probability ~1e-20; if it ever happens, reuse its last query.
            out.push(bucket.get(rank).or(bucket.last()).expect("every cluster drew a query"));
        }
    }
    out
}

/// Rows of `ps` in a seeded random order (Fisher-Yates).
fn shuffled(ps: &PointSet, seed: u64) -> PointSet {
    let mut order: Vec<u32> = (0..ps.len() as u32).collect();
    let mut rng = seed;
    for i in (1..order.len()).rev() {
        order.swap(i, (splitmix(&mut rng) % (i as u64 + 1)) as usize);
    }
    ps.gather(&order)
}

/// The Zipf-repeated, hotspot-concentrated stream of both serve workloads.
///
/// The *population* comes from the fixed generator seed: two thirds of the
/// stream sit on four hotspot anchors, so which four data points those are
/// decides the workload (simulated bytes per query moved +-20 % with it).
/// `seed` shuffles the arrival order — which queries share a batch, what the
/// cache still holds when a repeat arrives.
fn skewed_stream(points: &PointSet, seed: u64) -> PointSet {
    let population = SkewedQuerySpec {
        count: BATCHES * BATCH,
        distinct: BATCHES * BATCH / 2,
        zipf_s: 0.9,
        hotspots: 4,
        hot_fraction: 0.25,
        jitter: 0.005,
        seed: DATA_SEED,
    }
    .generate(points);
    shuffled(&population, seed)
}

/// Whether `got` is an exact kNN answer for `q`, given the oracle's `want`:
/// the distance at every rank bit-equal to the oracle's, and the same id —
/// except inside a run of equal distances, where the k nearest are not
/// unique (f32 distances of a few thousand are 2^-12 apart, and 100 000
/// points do collide at the k-th place). There any id is right that is
/// reported once and really lies at that distance.
fn answers_match(got: &[Neighbor], want: &[Neighbor], q: &[f32], points: &PointSet) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).enumerate().all(|(rank, (g, w))| {
            g.dist.to_bits() == w.dist.to_bits()
                && got[..rank].iter().all(|earlier| earlier.id != g.id)
                && (g.id == w.id
                    || ((g.id as usize) < points.len()
                        && dist(q, points.point(g.id as usize)).to_bits() == g.dist.to_bits()))
        })
}

impl Workload {
    /// Generates the workload's inputs from `seed`. Builds no index and no
    /// oracle: the caller times this as `data.generate_ms`. `window_seconds`
    /// sizes `ingest-clustered4`'s rounds (the other workloads are time-boxed
    /// by the harness).
    pub fn generate(kind: Kind, seed: u64, shrink: usize, window_seconds: f64) -> Workload {
        let shrink = shrink.max(1);
        let cycles = ((INGEST_CYCLES_PER_WINDOW_SECOND * window_seconds).round() as usize).max(2);
        let qseed = seed ^ 0x5151_5151;
        let (points, stream, k, degree, opts) = match kind {
            Kind::PaperClustered16 => {
                let ps = ClusteredSpec {
                    clusters: 100,
                    points_per_cluster: 1000 / shrink,
                    dims: 16,
                    sigma: 160.0,
                    seed: DATA_SEED,
                }
                .generate();
                let qs = stratified_queries(&ps, 100, qseed);
                (ps, qs, 32, 128, KernelOptions::default())
            }
            Kind::HostUniform16 => {
                let ps = UniformSpec { len: 20_000 / shrink, dims: 16, seed }.generate();
                let qs = sample_queries(&ps, BATCHES * BATCH, 0.01, qseed);
                let opts = KernelOptions {
                    schedule: QuerySchedule::Hilbert,
                    metering: Metering::Off,
                    ..Default::default()
                };
                (ps, qs, 8, 16, opts)
            }
            Kind::ServeNoaa4 => {
                let ps = NoaaSpec {
                    stations: 2000 / shrink,
                    reports: 100_000 / shrink,
                    extra_dims: 2,
                    seed: DATA_SEED,
                }
                .generate();
                let qs = skewed_stream(&ps, qseed);
                let opts = KernelOptions { metering: Metering::Off, ..Default::default() };
                (ps, qs, 8, 64, opts)
            }
            Kind::IngestClustered4 => {
                let ps = ClusteredSpec {
                    clusters: 10,
                    points_per_cluster: 4000 / shrink,
                    dims: 4,
                    sigma: 160.0,
                    seed: DATA_SEED,
                }
                .generate();
                let qs = skewed_stream(&ps, qseed);
                let opts = KernelOptions { metering: Metering::Off, ..Default::default() };
                (ps, qs, 8, 16, opts)
            }
        };
        // Fresh points of the same distribution: a data point displaced by
        // about one cluster sigma, never an exact copy (an exact copy would
        // tie with its source at the k-th place and make the oracle's id
        // order, not the answer, the thing under test).
        let inserts = if kind == Kind::IngestClustered4 {
            sample_queries(&points, cycles * INSERTS_PER_CYCLE, 0.002, seed ^ 0x1235_8132)
        } else {
            PointSet::new(points.dims())
        };
        let dims = stream.dims();
        let batches = (0..BATCHES)
            .map(|b| {
                PointSet::from_flat(
                    dims,
                    stream.as_flat()[b * BATCH * dims..][..BATCH * dims].to_vec(),
                )
            })
            .collect();
        Workload {
            kind,
            points,
            stream,
            batches,
            k,
            degree,
            opts,
            seed,
            cycles,
            inserts,
            oracle: Vec::new(),
            oracle_of: Vec::new(),
            index_bytes: 0,
            index: None,
        }
    }

    pub fn batch(&self, b: usize) -> &PointSet {
        &self.batches[b % BATCHES]
    }

    /// `linear_knn` once per distinct stream query. `ingest-clustered4` has
    /// no static oracle: its live set moves, so it is checked against the
    /// mirror at verification time.
    pub fn build_oracle(&mut self) {
        if self.kind == Kind::IngestClustered4 {
            return;
        }
        let mut row_of: HashMap<Vec<u32>, u32> = HashMap::new();
        for q in self.stream.iter() {
            let key: Vec<u32> = q.iter().map(|x| x.to_bits()).collect();
            let next = self.oracle.len() as u32;
            let row = *row_of.entry(key).or_insert(next);
            if row == next {
                self.oracle.push(linear_knn(&self.points, q, self.k));
            }
            self.oracle_of.push(row);
        }
    }

    fn shard_policy(&self) -> ShardPolicy {
        match self.kind {
            Kind::IngestClustered4 => ShardPolicy::HilbertRange,
            _ => ShardPolicy::KMeans { seed: DATA_SEED },
        }
    }

    /// Builds the index from the in-memory dataset, first-query-ready, and
    /// returns the seconds the program's constructor took. Harness-side
    /// bookkeeping (the ingest mirror) stays outside the bracket.
    pub fn setup(&mut self) -> f64 {
        self.index = None; // drop the old index first: peak RSS holds one
        let dev = device();
        let (index, secs, bytes) = match self.kind {
            Kind::PaperClustered16 | Kind::HostUniform16 => {
                let t = Instant::now();
                let tree = build(&self.points, self.degree, &BuildMethod::Hilbert);
                let secs = t.elapsed().as_secs_f64();
                let bytes = tree.index_bytes();
                (Index::Tree(Box::new(tree)), secs, bytes)
            }
            Kind::ServeNoaa4 => {
                let bytes = Cell::new(0u64);
                let cfg = ServeConfig::new(SHARDS).with_policy(self.shard_policy());
                let t = Instant::now();
                let router = ShardRouter::build(&self.points, &cfg, &dev, |ps| {
                    let tree = build(ps, self.degree, &BuildMethod::Hilbert);
                    bytes.set(bytes.get() + tree.index_bytes());
                    tree
                });
                let front = ResilientRouter::new(
                    router,
                    ResilienceConfig { cache_capacity: CACHE, ..ResilienceConfig::default() },
                );
                let secs = t.elapsed().as_secs_f64();
                (Index::Served(Box::new(front)), secs, bytes.get())
            }
            Kind::IngestClustered4 => {
                let t = Instant::now();
                let mut router = DynamicShardRouter::build(
                    &self.points,
                    SHARDS,
                    &self.shard_policy(),
                    self.degree,
                );
                router.attach_cache(CACHE);
                let secs = t.elapsed().as_secs_f64();
                // The router keeps its trees private; the same partition
                // rebuilt outside the bracket gives the same footprint.
                let bytes = if self.index_bytes > 0 {
                    self.index_bytes
                } else {
                    partition(&self.points, SHARDS, &self.shard_policy())
                        .shard_points(&self.points)
                        .iter()
                        .map(|ps| build(ps, self.degree, &BuildMethod::Hilbert).index_bytes())
                        .sum()
                };
                let ingest = Ingest { router, mirror: self.points.clone(), cycle: 0 };
                (Index::Dynamic(Box::new(ingest)), secs, bytes)
            }
        };
        self.index = Some(index);
        self.index_bytes = bytes;
        secs
    }

    /// Σ `GpuIndex::index_bytes()` of the trees built at setup, per point.
    pub fn index_bytes_per_point(&self) -> f64 {
        self.index_bytes as f64 / self.points.len() as f64
    }

    /// Whether the current round is over: `ingest-clustered4` has run its
    /// fixed cycles; any other workload's window has passed.
    pub fn round_done(&self, window_over: bool) -> bool {
        match &self.index {
            Some(Index::Dynamic(ing)) => ing.cycle >= self.cycles,
            _ => window_over,
        }
    }

    /// One timed unit of work: a 240-query batch, or one ingest cycle
    /// (24 inserts, a shard rebuild every tenth cycle, then 240 `knn`).
    /// Every call into the program is wrapped in a span.
    pub fn run_batch(&mut self, b: usize, tr: &mut Tracer) -> BatchOut {
        let dev = device();
        let queries = &self.batches[b % BATCHES];
        let id = b as u64;
        match self.index.as_mut().expect("setup() before run_batch()") {
            Index::Tree(tree) => {
                let sp = tr.begin("engine.psb_batch", id);
                let r = psb_batch(&**tree, queries, self.k, &dev, &self.opts);
                tr.end(sp);
                let r = r.expect("psb_batch on a trusted tree");
                let clean = r.outcomes.iter().map(QueryOutcome::is_clean).collect();
                BatchOut { neighbors: r.neighbors, clean }
            }
            Index::Served(front) => {
                let sp = tr.begin("resilient.serve_batch", id);
                let r = front.serve_batch(queries, self.k, &self.opts, &[]);
                tr.end(sp);
                let r = r.expect("serve_batch on a fault-free layout");
                let clean = r
                    .outcomes
                    .iter()
                    .map(|o| matches!(o, ServeOutcome::Executed(QueryOutcome::Clean)))
                    .collect();
                BatchOut { neighbors: r.neighbors, clean }
            }
            Index::Dynamic(ing) => {
                let first = ing.cycle * INSERTS_PER_CYCLE;
                for i in first..first + INSERTS_PER_CYCLE {
                    let p = self.inserts.point(i);
                    let sp = tr.begin("dynamic.insert", id);
                    let gid = ing.router.insert(p);
                    tr.end(sp);
                    assert_eq!(gid as usize, ing.mirror.len(), "global ids are mirror positions");
                    ing.mirror.push(p);
                }
                if ing.cycle % REBUILD_EVERY == REBUILD_EVERY - 1 {
                    let sp = tr.begin("dynamic.rebuild_shard", id);
                    ing.router.rebuild_shard((ing.cycle / REBUILD_EVERY) % SHARDS);
                    tr.end(sp);
                }
                ing.cycle += 1;
                let mut neighbors = Vec::with_capacity(BATCH);
                for q in queries.iter() {
                    let sp = tr.begin("dynamic.knn", id);
                    neighbors.push(ing.router.knn(q, self.k));
                    tr.end(sp);
                }
                // The dynamic router has no outcome ladder: an answer is
                // either right or a mismatch.
                BatchOut { neighbors, clean: vec![true; BATCH] }
            }
        }
    }

    /// Checks one batch's answers, after its bracket has closed: every list
    /// equal to the oracle's (see [`answers_match`]) and every outcome clean.
    /// Returns `(queries verified, queries failed)`.
    ///
    /// `ingest-clustered4` pays a linear scan of the mirror per verified
    /// query, so a mid-round cycle checks a rotating eight of its 240 and the
    /// round's last cycle checks all of them.
    pub fn verify(&self, b: usize, out: &BatchOut, last_of_round: bool) -> (u64, u64) {
        let mut verified = 0;
        let mut failed = 0;
        match self.index.as_ref().expect("setup() before verify()") {
            Index::Dynamic(ing) => {
                let queries = &self.batches[b % BATCHES];
                for qi in 0..BATCH {
                    if !last_of_round && qi % 30 != ing.cycle % 30 {
                        continue;
                    }
                    let q = queries.point(qi);
                    let want = linear_knn(&ing.mirror, q, self.k);
                    verified += 1;
                    failed += u64::from(!answers_match(&out.neighbors[qi], &want, q, &ing.mirror));
                }
            }
            _ => {
                assert!(!self.oracle_of.is_empty(), "build_oracle() before verify()");
                let base = (b % BATCHES) * BATCH;
                for qi in 0..BATCH {
                    let q = self.stream.point(base + qi);
                    let want = &self.oracle[self.oracle_of[base + qi] as usize];
                    verified += 1;
                    let ok =
                        out.clean[qi] && answers_match(&out.neighbors[qi], want, q, &self.points);
                    if !ok && failed == 0 {
                        eprintln!(
                            "{}: batch {b} query {qi} (clean: {}) differs from the oracle\n  got  {:?}\n  want {want:?}",
                            self.kind.name(),
                            out.clean[qi],
                            out.neighbors[qi]
                        );
                    }
                    failed += u64::from(!ok);
                }
            }
        }
        (verified, failed)
    }

    /// One metered replay of the whole stream (all ten batches, as one
    /// launch) on the workload's own path. Ten batches rather than one: the
    /// means are over 2 400 queries, so they move little when the seed moves
    /// the data. Needs a built index (call after [`Workload::setup`]);
    /// bit-stable for a given seed.
    pub fn sim_replay(&mut self) -> SimReplay {
        let dev = device();
        let metered = KernelOptions { metering: Metering::Simulated, ..self.opts.clone() };
        let queries = &self.stream;
        match self.index.as_mut().expect("setup() before sim_replay()") {
            Index::Tree(tree) => {
                let r = psb_batch(&**tree, queries, self.k, &dev, &metered)
                    .expect("psb_batch on a trusted tree");
                SimReplay { report: r.report, per_block: r.per_block }
            }
            Index::Served(front) => {
                // An empty cache, so the replay does not depend on what the
                // timed rounds left in it.
                front.invalidate_cache();
                let r = front
                    .serve_batch(queries, self.k, &metered, &[])
                    .expect("serve_batch on a fault-free layout");
                SimReplay { report: r.report.launch, per_block: r.per_query }
            }
            Index::Dynamic(_) => {
                let mut tree = DynamicSsTree::new(&self.points, self.degree, BuildMethod::Hilbert);
                for i in 0..SIM_PENDING.min(self.inserts.len()) {
                    tree.insert(self.inserts.point(i));
                }
                let per_block: Vec<KernelStats> =
                    queries.iter().map(|q| tree.knn_gpu(q, self.k, &dev, &metered).1).collect();
                let warps = metered.threads_per_block.div_ceil(dev.warp_size);
                SimReplay { report: launch_blocks(&dev, warps, &per_block), per_block }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_match_the_declared_workloads() {
        for (k, (name, _)) in Kind::ALL.into_iter().zip(crate::spec::WORKLOADS) {
            assert_eq!(k.name(), name);
            assert_eq!(Kind::from_name(name), Some(k));
        }
        assert_eq!(Kind::from_name("nope"), None);
    }

    #[test]
    fn every_workload_answers_exactly_and_replays_bit_stably_at_smoke_scale() {
        for kind in Kind::ALL {
            let mut w = Workload::generate(kind, 7, 20, 0.2);
            w.build_oracle();
            assert!(w.setup() > 0.0);
            assert!(w.index_bytes_per_point() > 0.0);
            let mut tr = Tracer::new(true);
            for b in 0..12 {
                let out = w.run_batch(b, &mut tr);
                let (verified, failed) = w.verify(b, &out, b == 11);
                assert!(verified > 0, "{}: nothing verified", kind.name());
                assert_eq!(failed, 0, "{}: batch {b} mismatched the oracle", kind.name());
            }
            assert!(!tr.spans().is_empty());
            let a = w.sim_replay();
            let b = w.sim_replay();
            assert_eq!(a.report.merged, b.report.merged);
            assert_eq!(a.report.avg_response_ms.to_bits(), b.report.avg_response_ms.to_bits());
            assert!(a.report.avg_response_ms > 0.0 && a.report.avg_accessed_mb > 0.0);
            assert_eq!(a.per_block.len(), BATCHES * BATCH);
        }
    }

    #[test]
    fn a_tie_accepts_any_point_really_at_that_distance_once() {
        // From the origin: point 0 at 0, points 1 and 2 both at 5, point 3 at 10.
        let ps = PointSet::from_flat(2, vec![0.0, 0.0, 3.0, 4.0, 4.0, 3.0, 6.0, 8.0]);
        let q = [0.0, 0.0];
        let n = |dist, id| Neighbor { dist, id };
        let want = linear_knn(&ps, &q, 2);
        assert_eq!(want, vec![n(0.0, 0), n(5.0, 1)]);
        assert!(answers_match(&want, &want, &q, &ps));
        assert!(answers_match(&[n(0.0, 0), n(5.0, 2)], &want, &q, &ps), "the other tied point");
        assert!(!answers_match(&[n(0.0, 0), n(5.0, 3)], &want, &q, &ps), "not at that distance");
        assert!(!answers_match(&[n(0.0, 0), n(5.0, 9)], &want, &q, &ps), "not a point at all");
        assert!(!answers_match(&[n(0.0, 0), n(10.0, 3)], &want, &q, &ps), "wrong distance");
        assert!(!answers_match(&[n(0.0, 0)], &want, &q, &ps), "short list");
        let want3 = linear_knn(&ps, &q, 3);
        assert!(answers_match(&[n(0.0, 0), n(5.0, 2), n(5.0, 1)], &want3, &q, &ps));
        assert!(
            !answers_match(&[n(0.0, 0), n(5.0, 2), n(5.0, 2)], &want3, &q, &ps),
            "reported twice"
        );
    }

    #[test]
    fn a_wrong_answer_or_unclean_outcome_is_counted_as_failed() {
        let mut w = Workload::generate(Kind::HostUniform16, 3, 20, 0.2);
        w.build_oracle();
        w.setup();
        let mut out = w.run_batch(0, &mut Tracer::new(false));
        assert_eq!(w.verify(0, &out, false), (BATCH as u64, 0));
        out.neighbors[5][0].id ^= 1;
        out.clean[9] = false;
        assert_eq!(w.verify(0, &out, false), (BATCH as u64, 2));
    }
}
