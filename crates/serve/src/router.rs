//! The shard router: MINDIST-ordered shard visits, shard-level pruning,
//! scatter-gather exact top-k merge, and the replica failover ladder.

use std::any::Any;
use std::panic::resume_unwind;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use crate::admission::{CacheKey, QueryCache};
use crate::deadline::{DeadlineBudget, DeadlineClock};
use crate::plan::{Visit, VisitPlan};
use crate::resilient::{ResilienceConfig, ServeOutcome};
use crate::runner::{serve, Batch, FrontEnd};
use psb_core::dynamic::{InsertError, Snapshot};
use psb_core::knnlist::GpuKnnList;
use psb_core::shard::{partition, shard_sphere, ShardPlan, ShardPolicy};
use psb_core::{
    dist_cost, DynamicTree, EngineError, KernelError, KernelOptions, Metering, QueryOutcome,
};
use psb_geom::{dist, PointSet, RitterMode, Sphere};
use psb_gpu::{
    launch_blocks, Block, DeviceConfig, FaultPlan, KernelStats, LaunchReport, NodeKind, Phase,
    TraceEvent, TraceSink, VecSink,
};
use psb_metrics::MetricsHandle;
use psb_sstree::{FlatTree, Neighbor, Volumes};
use rayon::prelude::*;

/// How a [`ShardRouter`] is laid out: shard count, replication factor, and
/// the split policy.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of disjoint shards (devices).
    pub shards: usize,
    /// Replicas per shard. Every replica indexes the same shard; replica 0 is
    /// the primary, the rest are failover targets.
    pub replicas: usize,
    /// How the dataset is split into shards.
    pub policy: ShardPolicy,
}

impl ServeConfig {
    /// `shards` shards, one replica each, Hilbert-range split.
    pub fn new(shards: usize) -> Self {
        Self { shards, replicas: 1, policy: ShardPolicy::HilbertRange }
    }

    /// Sets the replication factor.
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Sets the split policy.
    pub fn with_policy(mut self, policy: ShardPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// Health of one replica. Demotion latches: once a replica's launch dies with
/// a typed error it stays demoted until [`ShardRouter::restore_replica`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaState {
    /// Serving queries.
    Healthy,
    /// Taken out of rotation after a faulted launch.
    Demoted {
        /// The error that demoted it.
        error: KernelError,
    },
}

/// A device over its shard's tree, on the router's [`DeviceConfig`].
#[derive(Clone, Debug)]
struct Replica {
    plan: FaultPlan,
    state: ReplicaState,
}

/// One shard: its tree under global ids, shared with the shard's build
/// thread (read-locked by the queries that visit it and by a build's
/// snapshot, write-locked by writes and by a build's install), the build in
/// flight if there is one, its directory entry — an enclosing sphere and the
/// live count, read without the tree lock — and its replicas, each a device
/// over the one tree.
struct Shard<V: Volumes> {
    tree: Arc<RwLock<DynamicTree<V>>>,
    build: Mutex<Option<JoinHandle<()>>>,
    sphere: Sphere,
    len: usize,
    replicas: Vec<Replica>,
}

impl<V: Volumes> Shard<V> {
    /// The one shard build: Ritter's sphere over the points in the
    /// partition's order (it depends on the order it sees them in), then the
    /// tree `build_index` makes over them gathered in ascending id order.
    fn build(
        points: &PointSet,
        ids: &[u32],
        replicas: usize,
        build_index: impl FnOnce(&PointSet) -> FlatTree<V>,
    ) -> Self {
        // Parallel Ritter: the SS-tree builder's spheres, bit for bit.
        let sphere = shard_sphere(points, ids, RitterMode::Parallel);
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        let base = build_index(&points.gather(&sorted));
        let replica = Replica { plan: FaultPlan::none(), state: ReplicaState::Healthy };
        Self {
            tree: Arc::new(RwLock::new(DynamicTree::from_tree(base, sorted))),
            build: Mutex::default(),
            sphere,
            len: ids.len(),
            replicas: vec![replica; replicas],
        }
    }
}

/// Maps the tree type a [`ShardRouter`] is named by to its shards' family.
pub trait ShardIndex {
    /// The shards' bounding-volume family.
    type Family: Volumes;
}

impl<V: Volumes> ShardIndex for FlatTree<V> {
    type Family = V;
}

/// The router's one result cache (disabled until sized) and the count of
/// inserts and removes, under one lock: [`ShardRouter::knn`] takes it, a
/// resilient batch has `&mut` access. A `knn` miss files its answer only if
/// the count has not moved since it started: an answer computed while a
/// point came or went may or may not have seen it.
#[derive(Default)]
struct ResultCache {
    results: QueryCache,
    version: u64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// A shard's whole rebuild, as its build thread runs it: the live set
/// copied under the read lock, the tree built with no lock held, the build
/// installed under the write lock with the writes that raced it rebased,
/// and round again while those writes leave the shard due. With a registry
/// attached each round records `serve.rebuild_us` (snapshot to install),
/// `serve.rebuild_swap_us` (the write lock's hold) and `serve.rebuilds{shard}`.
fn rebuild<V: Volumes>(tree: &RwLock<DynamicTree<V>>, s: usize, metrics: &MetricsHandle) {
    let mut again = true;
    while again {
        let started = metrics.is_attached().then(Instant::now);
        let rebuilt = read(tree).snapshot().map(Snapshot::build);
        let mut held = write(tree);
        let acquired = metrics.is_attached().then(Instant::now);
        again = rebuilt.is_some_and(|rebuilt| {
            held.install(rebuilt);
            held.rebuild_due()
        });
        drop(held);
        if let (Some(t0), Some(t1)) = (started, acquired) {
            metrics.observe("serve.rebuild_us", t0.elapsed().as_secs_f64() * 1e6);
            metrics.observe("serve.rebuild_swap_us", t1.elapsed().as_secs_f64() * 1e6);
            metrics.counter(&format!("serve.rebuilds{{shard=\"{s}\"}}"), 1);
        }
    }
}

/// One failover decision: while serving `query`, `replica` of `shard` died
/// with `error` and was demoted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailoverEvent {
    /// Batch-local query index.
    pub query: usize,
    /// Shard whose replica was demoted.
    pub shard: usize,
    /// Replica index within the shard.
    pub replica: usize,
    /// The typed kernel error.
    pub error: KernelError,
}

/// Aggregated serving metrics for one batch.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Device cost-model aggregation over the per-query router blocks (shard
    /// directory scan + merge) merged with the per-shard kernel counters.
    pub launch: LaunchReport,
    /// Per shard: queries that visited it (MINDIST within the bound).
    pub shard_visits: Vec<u64>,
    /// Per shard: queries that skipped it (MINDIST above the bound).
    pub shard_prunes: Vec<u64>,
    /// Every failover decision of the batch, in query order.
    pub failovers: Vec<FailoverEvent>,
}

impl ServeReport {
    /// Total shard visits across the batch.
    pub fn shards_visited(&self) -> u64 {
        self.shard_visits.iter().sum()
    }

    /// Total shard prunes across the batch.
    pub fn shards_pruned(&self) -> u64 {
        self.shard_prunes.iter().sum()
    }

    /// Fraction of shard decisions that pruned, in `[0, 1]`. A report with no
    /// shard decisions at all reports `0.0`, never `NaN`.
    pub fn prune_rate(&self) -> f64 {
        let total = self.shards_visited() + self.shards_pruned();
        if total == 0 {
            0.0
        } else {
            self.shards_pruned() as f64 / total as f64
        }
    }

    /// Records this report into a metrics registry — the single bridge from
    /// serving results to telemetry. Every counter is derived from the report
    /// fields alone (per-shard visits/prunes, the failover list, the launch
    /// report's retry/degrade tallies), so the registry can never drift from
    /// what the report says. No-op when `m` is detached.
    pub fn record_into(&self, m: &MetricsHandle) {
        if !m.is_attached() {
            return;
        }
        for (s, &v) in self.shard_visits.iter().enumerate() {
            m.counter(&format!("serve.shard_visits{{shard=\"{s}\"}}"), v);
        }
        for (s, &v) in self.shard_prunes.iter().enumerate() {
            m.counter(&format!("serve.shard_prunes{{shard=\"{s}\"}}"), v);
        }
        m.counter("serve.queries", self.launch.merged.blocks);
        m.counter("serve.failovers", self.failovers.len() as u64);
        m.counter("serve.retried_queries", self.launch.retried_queries);
        m.counter("serve.degraded_queries", self.launch.degraded_queries);
        m.gauge("serve.prune_rate", self.prune_rate());
        self.launch.record_into(m, "serve");
    }
}

/// Exact results plus serving metrics for one batch.
#[derive(Clone, Debug)]
pub struct ServeBatchResult {
    /// Per-query global neighbor lists, ascending by distance — bit-identical
    /// to a single-device run over the unsharded tree.
    pub neighbors: Vec<Vec<Neighbor>>,
    /// Per-query merged counters (router block + visited shard kernels).
    pub per_query: Vec<KernelStats>,
    /// Recovery rung per query: `Clean` (no failover touched it), `Retried`
    /// (a replica was demoted but a peer answered), `Degraded` (some shard had
    /// no healthy replica and fell back to the exact brute scan).
    pub outcomes: Vec<QueryOutcome>,
    /// Aggregated serving metrics.
    pub report: ServeReport,
}

/// Routes kNN queries across sharded single-device indexes, and takes
/// inserts, removes and shard rebuilds between them.
///
/// All answers are exact over the live point set. Ids are router-global:
/// initial points keep their dataset positions `0..n`, inserts allocate
/// fresh ids upward. Each shard's tree holds its points under these ids, so
/// no id is translated anywhere.
pub struct ShardRouter<T: ShardIndex> {
    shards: Vec<Shard<T::Family>>,
    device: DeviceConfig,
    dims: usize,
    /// The id the next insert gets.
    next_id: u32,
    /// The result cache [`ShardRouter::knn`] and resilient batches share.
    cache: Mutex<ResultCache>,
    /// The one telemetry handle; the detached default records nothing and
    /// costs one branch per batch.
    pub(crate) metrics: MetricsHandle,
}

impl<V: Volumes> ShardRouter<FlatTree<V>> {
    /// Partitions `points` per `cfg`, builds one index per shard with
    /// `build_index` (over the shard's points gathered in ascending global
    /// id order, so local position `i` answers as the shard's `i`-th
    /// smallest id), computes each shard's (parallel-mode) Ritter bounding
    /// sphere, and provisions `cfg.replicas` simulated devices per shard.
    ///
    /// Panics on an invalid layout; [`ShardRouter::try_build`] is the typed
    /// variant.
    pub fn build(
        points: &PointSet,
        cfg: &ServeConfig,
        device: &DeviceConfig,
        build_index: impl Fn(&PointSet) -> FlatTree<V>,
    ) -> Self {
        match Self::try_build(points, cfg, device, build_index) {
            Ok(r) => r,
            Err(e) => panic!("invalid serve layout: {e}"),
        }
    }

    /// Like [`ShardRouter::build`], but an impossible layout — zero shards,
    /// more shards than points to spread over them, or zero replicas — is a
    /// typed [`EngineError`] instead of a panic.
    pub fn try_build(
        points: &PointSet,
        cfg: &ServeConfig,
        device: &DeviceConfig,
        build_index: impl Fn(&PointSet) -> FlatTree<V>,
    ) -> Result<Self, EngineError> {
        let plan = layout(points, cfg)?;
        let shards = plan
            .assignments
            .iter()
            .map(|ids| Shard::build(points, ids, cfg.replicas, &build_index))
            .collect();
        Ok(Self::with_shards(shards, device, points))
    }

    /// [`ShardRouter::try_build`] with every shard packed by Hilbert key at
    /// `degree`, the shards built side by side: one parallel region whose
    /// pieces are whole shards, each shard's own build serial inside it.
    pub(crate) fn try_build_packed(
        points: &PointSet,
        cfg: &ServeConfig,
        device: &DeviceConfig,
        degree: usize,
    ) -> Result<Self, EngineError> {
        let plan = layout(points, cfg)?;
        let shards = plan
            .assignments
            .par_iter()
            .map(|ids| Shard::build(points, ids, cfg.replicas, |ps| V::build_hilbert(ps, degree)))
            .collect();
        Ok(Self::with_shards(shards, device, points))
    }

    fn with_shards(shards: Vec<Shard<V>>, device: &DeviceConfig, points: &PointSet) -> Self {
        Self {
            shards,
            device: device.clone(),
            dims: points.dims(),
            next_id: points.len() as u32,
            cache: Mutex::default(),
            metrics: MetricsHandle::noop(),
        }
    }

    /// The simulated device the router prices its blocks on.
    pub(crate) fn device(&self) -> &DeviceConfig {
        &self.device
    }

    /// Query dimensionality the router was built for.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Attaches a metrics registry: batches, bare or resilient, record their
    /// reports, front-end counters and latencies, [`ShardRouter::knn`] its
    /// latency and cache traffic (`serve.dyn_*`), writes what they do to
    /// cached answers, and rebuilds their durations.
    pub fn attach_metrics(&mut self, metrics: MetricsHandle) {
        self.metrics = metrics;
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `s`'s bounding sphere.
    pub fn sphere(&self, s: usize) -> &Sphere {
        &self.shards[s].sphere
    }

    /// Arms replica `(s, r)` with a fault plan (the PR-2 injection layer).
    /// Subsequent launches on that replica run under the plan's deterministic
    /// per-query substreams.
    pub fn set_fault_plan(&mut self, s: usize, r: usize, plan: FaultPlan) {
        self.shards[s].replicas[r].plan = plan;
    }

    /// Current health of replica `(s, r)`.
    pub fn replica_state(&self, s: usize, r: usize) -> ReplicaState {
        self.shards[s].replicas[r].state
    }

    /// Clears replica `(s, r)`'s latched demotion (and its fault plan):
    /// operator-initiated recovery after the simulated device is serviced.
    pub fn restore_replica(&mut self, s: usize, r: usize) {
        let rep = &mut self.shards[s].replicas[r];
        rep.plan = FaultPlan::none();
        rep.state = ReplicaState::Healthy;
    }

    /// Live points across shards (directory view; no tree lock taken).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.len).sum()
    }

    /// Whether no live points remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attaches a SIEVE-evicted exact-result cache of `capacity` entries (0
    /// turns it back off): the one cache [`ShardRouter::knn`] and a
    /// [`ResilientRouter`](crate::ResilientRouter)'s batches probe and fill.
    /// Inserts fold their point into every resident answer, rebuilds change
    /// none, removes drop them all (DESIGN.md "Mutable shards").
    pub fn attach_cache(&mut self, capacity: usize) {
        *self.cache_mut() = QueryCache::new(capacity);
    }

    /// The result cache, reached through `&mut self` without the lock.
    pub(crate) fn cache_mut(&mut self) -> &mut QueryCache {
        &mut self.cache.get_mut().unwrap_or_else(PoisonError::into_inner).results
    }

    /// How many inserts and removes the live set has seen.
    pub fn version(&self) -> u64 {
        lock(&self.cache).version
    }

    /// `(hits, misses, evictions, flushes)` of the result cache. A flush is a
    /// [`ShardRouter::remove`] or an `invalidate_cache` that found entries to
    /// drop; nothing else drops them.
    pub fn cache_stats(&self) -> (u64, u64, u64, u64) {
        lock(&self.cache).results.stats()
    }

    /// Inserts a point, routing it to the shard whose sphere center is nearest
    /// (lowest shard index on ties) and growing that shard's sphere to keep it
    /// an enclosing bound. Returns the new global id. Panics, before changing
    /// anything, on a point [`ShardRouter::try_insert`] refuses.
    pub fn insert(&mut self, p: &[f32]) -> u32 {
        match self.try_insert(p) {
            Ok(g) => g,
            Err(e) => panic!("ShardRouter::insert: {e}"),
        }
    }

    /// [`ShardRouter::insert`] for points from outside the program: a point
    /// [`InsertError::check`] refuses is a typed error, and the router —
    /// trees, directory, version and cache — is left as it was.
    pub fn try_insert(&mut self, p: &[f32]) -> Result<u32, InsertError> {
        InsertError::check(p, self.dims)?;
        let nearest =
            self.shards.iter().enumerate().map(|(s, shard)| (dist(p, &shard.sphere.center), s));
        let target = nearest.min_by(|a, b| a.0.total_cmp(&b.0)).map_or(0, |(_, s)| s);
        let g = self.next_id;
        let shard = &mut self.shards[target];
        write(&shard.tree).try_insert_as(p, g)?;
        self.next_id += 1;
        shard.len += 1;
        shard.sphere.radius = shard.sphere.radius.max(dist(p, &shard.sphere.center));
        let absorbed = self.wrote(|cache| cache.absorb(p, g));
        if absorbed > 0 {
            self.metrics.counter("serve.dyn_cache_absorbed", absorbed as u64);
        }
        self.rebuild_if_due(target);
        Ok(g)
    }

    /// Removes a point by global id; returns whether it was alive. The
    /// owning shard is the one whose tree holds the id. Its sphere is left
    /// as-is (still enclosing, just conservative). Drops every cached answer:
    /// the point that moves up into an answer's k-th place is not in the
    /// entry.
    pub fn remove(&mut self, id: u32) -> bool {
        let Some(s) = self.shards.iter().position(|shard| write(&shard.tree).remove(id)) else {
            return false;
        };
        self.shards[s].len -= 1;
        if self.wrote(QueryCache::flush) {
            self.metrics.counter("serve.dyn_cache_flushes", 1);
        }
        self.rebuild_if_due(s);
        true
    }

    /// After a write to a tree: moves the version on and brings the resident
    /// answers up to the new live set with `keep`, in one hold of the cache
    /// lock, so no answer from before the write is filed behind it.
    fn wrote<R>(&self, keep: impl FnOnce(&mut QueryCache) -> R) -> R {
        let mut cache = lock(&self.cache);
        cache.version += 1;
        keep(&mut cache.results)
    }

    /// Rebuilds shard `s` if it is due ([`DynamicTree::rebuild_due`]) and no
    /// build of it is running; a running one goes round again while it is.
    fn rebuild_if_due(&self, s: usize) {
        let shard = &self.shards[s];
        let idle = lock(&shard.build).as_ref().is_none_or(JoinHandle::is_finished);
        if idle && read(&shard.tree).rebuild_due() {
            self.rebuild_shard(s);
        }
    }

    /// Rebuilds shard `s`'s packed index off the caller's thread: hands the
    /// shard to a build thread and returns. The thread copies the live set
    /// under the shard's read lock, builds with no lock held, installs under
    /// the write lock, rebasing the writes that raced the build
    /// ([`DynamicTree::install`]), and goes round while they leave it due.
    /// Until then the old base and the delta index the live set, so every
    /// answer stays exact, and cached answers stay. The one rebuild path: a
    /// write that leaves an idle shard due calls it too. A build of `s` still
    /// running is joined first; a spawn that fails builds inline. With a
    /// registry attached each round records `serve.rebuild_us`,
    /// `serve.rebuild_swap_us` and `serve.rebuilds{shard}`.
    /// A build that panicked panics in the next `rebuild_shard` of its shard
    /// (a write's too), [`ShardRouter::settle`] or drop.
    pub fn rebuild_shard(&self, s: usize) {
        let shard = &self.shards[s];
        let mut slot = lock(&shard.build);
        if let Some(Err(panic)) = slot.take().map(JoinHandle::join) {
            resume_unwind(panic);
        }
        let (tree, metrics) = (Arc::clone(&shard.tree), self.metrics.clone());
        let build = move || rebuild(&tree, s, &metrics);
        match thread::Builder::new().name(format!("psb-rebuild-{s}")).spawn(build) {
            Ok(build) => *slot = Some(build),
            Err(_) => rebuild(&shard.tree, s, &self.metrics),
        }
    }

    /// Blocks until every started build is installed and no shard is due (a
    /// write after a build's last look, before its thread ends, leaves one
    /// due with no build to come); a build that panicked panics here.
    pub fn settle(&self) {
        let panicked = self.join_builds().or_else(|| {
            (0..self.shards.len()).for_each(|s| self.rebuild_if_due(s));
            self.join_builds()
        });
        if let Some(panic) = panicked {
            resume_unwind(panic);
        }
    }

    /// `Some(now)` with a registry attached; a detached handle reads no clock.
    fn clock(&self) -> Option<Instant> {
        self.metrics.is_attached().then(Instant::now)
    }

    /// Exact kNN over the live set: the version-checked result cache around
    /// the batch path's one query step, unmetered, no shard routed around, no
    /// deadline. Only visited shards are read-locked. A replica that dies
    /// under it is passed over, not demoted: only a batch latches.
    pub fn knn(&self, q: &[f32], k: usize) -> Vec<Neighbor> {
        assert!(k >= 1, "k must be at least 1");
        assert_eq!(q.len(), self.dims, "dimensionality mismatch");
        let m = &self.metrics;
        let started = self.clock();
        // Exact-result cache: every resident entry answers for the live set
        // as it is now. On a miss, note the version the answer will be
        // computed under.
        let mut miss = None;
        {
            let mut cache = lock(&self.cache);
            if cache.results.is_enabled() {
                let probe = CacheKey::new(q, k);
                if let Some(hit) = cache.results.get(&probe) {
                    m.counter("serve.dyn_cache_hits", 1);
                    return hit;
                }
                m.counter("serve.dyn_cache_misses", 1);
                miss = Some((probe, cache.version));
            }
        }
        let opts = KernelOptions { metering: Metering::Off, ..KernelOptions::default() };
        let skip = vec![false; self.shards.len()];
        let found = self.execute(0, q, k, &opts, &skip, DeadlineBudget::None, false).neighbors;
        if let Some((key, version)) = miss {
            let mut cache = lock(&self.cache);
            if cache.version == version {
                cache.results.insert(key, &found);
            }
        }
        if let Some(t0) = started {
            m.observe("serve.dyn_query_us", t0.elapsed().as_secs_f64() * 1e6);
            m.counter("serve.dyn_queries", 1);
        }
        found
    }

    /// Serves a batch; see [`ShardRouter::serve_batch_traced`]. It consults
    /// no result cache.
    pub fn serve_batch(
        &mut self,
        queries: &PointSet,
        k: usize,
        opts: &KernelOptions,
    ) -> Result<ServeBatchResult, EngineError> {
        self.serve_windowed(queries, k, opts, None, usize::MAX)
    }

    /// Serves a batch of kNN queries, recording router-level trace events
    /// (shard directory loads, prune decisions, failovers) into `sink`.
    ///
    /// The batch goes through the one serve runner (`crate::runner`) behind
    /// a transparent front-end: queries execute in parallel on the rayon pool
    /// against the replica states the batch started with and commit in
    /// submission order, so a replica demoted while serving query `i` is
    /// already out of rotation for query `i + 1` — whatever had been executed
    /// ahead of the demotion is dropped and run again. Results, reports and
    /// the event sequence do not depend on the thread count.
    ///
    /// The batch neither probes nor fills the result cache. `opts.metrics` is
    /// not read: the shard launches record nothing, and the batch records
    /// into the router's own handle ([`ShardRouter::attach_metrics`]).
    pub fn serve_batch_traced(
        &mut self,
        queries: &PointSet,
        k: usize,
        opts: &KernelOptions,
        sink: &mut dyn TraceSink,
    ) -> Result<ServeBatchResult, EngineError> {
        self.serve_windowed(queries, k, opts, Some(sink), usize::MAX)
    }

    /// [`ShardRouter::serve_batch_traced`] looking at most `window` queries
    /// ahead of the one it is committing (`1` = strictly one at a time).
    pub(crate) fn serve_windowed(
        &mut self,
        queries: &PointSet,
        k: usize,
        opts: &KernelOptions,
        sink: Option<&mut dyn TraceSink>,
        window: usize,
    ) -> Result<ServeBatchResult, EngineError> {
        let mut front = FrontEnd::new(self.shards.len(), &ResilienceConfig::default());
        let batch = Batch { queries, k, opts, requests: &[], cached: false };
        let served = serve(self, &mut front, &batch, sink, window)?;
        // A transparent front-end rejects nothing.
        let outcomes = served.outcomes.iter().filter_map(ServeOutcome::executed).collect();
        Ok(ServeBatchResult {
            neighbors: served.neighbors,
            per_query: served.per_query,
            outcomes,
            report: served.report,
        })
    }

    /// One query through the router block — shard directory scan, MINDIST
    /// ordering, MAXDIST-prefix initial bound, best-first shard visits with
    /// pruning, replica ladder per visited shard, global merge — under the
    /// resilience layer's constraints: `skip[s]` routes around shard `s` (its
    /// circuit breaker is open) and `budget` is charged per shard visit and
    /// checked between visits.
    ///
    /// Reads the router and changes nothing: everything the query did comes
    /// back in the [`QueryEffect`], and [`ShardRouter::latch`] is the only
    /// mutator. That is what lets the runner execute queries ahead of the one
    /// it is committing, on any thread — the answer depends on the arguments
    /// and the replica states alone (fault substreams are keyed on `qi`).
    ///
    /// With `skip` all `false` and [`DeadlineBudget::None`] no constraint ever
    /// fires: the transparent front-end runs the bare router's instructions.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute(
        &self,
        qi: usize,
        q: &[f32],
        k: usize,
        opts: &KernelOptions,
        skip: &[bool],
        budget: DeadlineBudget,
        traced: bool,
    ) -> QueryEffect {
        // A cycle-priced deadline charges against the simulated counters; an
        // unmetered kernel would report zero cycles and the clock would never
        // advance. Force metering back on for this request only — the
        // caller's `Metering::Off` stays in effect for unconstrained traffic.
        let metered_opts;
        let opts = if opts.metering == Metering::Off && matches!(budget, DeadlineBudget::Cycles(_))
        {
            metered_opts = KernelOptions { metering: Metering::Simulated, ..opts.clone() };
            &metered_opts
        } else {
            opts
        };
        match opts.metering {
            Metering::Simulated => self.visit::<true>(qi, q, k, opts, skip, budget, traced),
            Metering::Off => self.visit::<false>(qi, q, k, opts, skip, budget, traced),
        }
    }

    /// [`ShardRouter::execute`] on a router block metered as `opts` says: an
    /// unmetered one counts and emits nothing, as an unmetered kernel's.
    #[allow(clippy::too_many_arguments)]
    fn visit<const M: bool>(
        &self,
        qi: usize,
        q: &[f32],
        k: usize,
        opts: &KernelOptions,
        skip: &[bool],
        budget: DeadlineBudget,
        traced: bool,
    ) -> QueryEffect {
        let mut clock = DeadlineClock::start(budget);
        let s = self.shards.len();
        let dims = self.dims;
        let warps = opts.threads_per_block.div_ceil(self.device.warp_size).max(1);
        let mut events = VecSink::new();
        let sink = traced.then_some(&mut events as &mut dyn TraceSink);
        let mut block: Block<'_, M> = Block::with_sink(opts.threads_per_block, &self.device, sink);
        block.set_phase(Phase::Descend);
        // The shard directory is one SoA record per shard: sphere center
        // (dims × f32) plus radius — the router's analogue of an internal
        // node's child-sphere block.
        block.load_global((s * (dims * 4 + 4)) as u64);
        block.par_for(s, dist_cost(dims) + 2, |_| {});
        // Shards behind an open breaker won't be consulted, so they must not
        // contribute to the initial bound either. Deriving it is one scalar
        // pass over the directory.
        let plan = VisitPlan::new(q, k, self.shards.iter().zip(skip), |&(shard, &skipped)| {
            (&shard.sphere, shard.len, skipped)
        });
        let order = &plan.order;
        block.scalar(s as u64);
        let prev = block.set_phase(Phase::ResultMerge);
        let mut list = GpuKnnList::new(k, opts.smem_policy, &mut block, self.device.smem_per_sm);
        block.set_phase(prev);

        let mut extra = KernelStats::default();
        // Every error the query met, in the order the outcome reports them.
        let mut errors: Vec<KernelError> = Vec::new();
        let mut degraded = false;
        let mut visited: Vec<(usize, ShardSignal)> = Vec::with_capacity(s);
        let mut pruned: Vec<usize> = Vec::new();
        let mut failovers: Vec<FailoverEvent> = Vec::new();
        let mut breaker_skips = 0u64;
        let mut deadline_skips = 0u64;

        for oi in 0..order.len() {
            let Visit { shard: si, mindist, .. } = order[oi];
            // Deadline checkpoint, *between* shard visits: a blown budget
            // settles every remaining directory entry right here — prune what
            // the bound already rules out (exactness unharmed), mark the rest
            // skipped — and, if nothing was visited yet, pays for one exact
            // brute scan over the nearest live shard so the answer is never
            // empty-handed.
            if clock.blown() {
                let brute_pos = if visited.is_empty() {
                    (oi..order.len()).find(|&j| !skip[order[j].shard])
                } else {
                    None
                };
                if let Some(pos) = brute_pos {
                    let sj = order[pos].shard;
                    block.visit_node(0, NodeKind::Internal);
                    let (nb, st) = read(&self.shards[sj].tree).fallback(q, k, &self.device, opts);
                    extra.merge(&st);
                    let prev = block.set_phase(Phase::ResultMerge);
                    for n in &nb {
                        list.offer(&mut block, n.dist, n.id);
                    }
                    block.set_phase(prev);
                    // The shard itself is healthy — a deadline economy says
                    // nothing about its device, so the breaker hears nothing.
                    visited.push((sj, ShardSignal::Neutral));
                }
                for (j, later) in order.iter().enumerate().skip(oi) {
                    if Some(j) == brute_pos {
                        continue;
                    }
                    let sj = later.shard;
                    if plan.prunes(later.mindist, list.bound()) {
                        pruned.push(sj);
                    } else if skip[sj] {
                        breaker_skips += 1;
                    } else {
                        deadline_skips += 1;
                    }
                }
                break;
            }
            block.set_phase(Phase::Descend);
            block.scalar(1);
            if plan.prunes(mindist, list.bound()) {
                pruned.push(si);
                block.emit(|| TraceEvent::KnnUpdate { pruned: true, phase: Phase::Descend });
                continue;
            }
            // Open breaker: the bound says this shard matters, but it is being
            // routed around — a marked degrade, counted apart from prunes.
            if skip[si] {
                breaker_skips += 1;
                continue;
            }
            block.visit_node(0, NodeKind::Internal);
            let shard = &self.shards[si];
            let tree = read(&shard.tree);
            let failovers_before = failovers.len();

            // Replica ladder: first healthy replica answers; a replica that
            // dies is reported for demotion and the next one is tried.
            let mut answered: Option<(Vec<Neighbor>, KernelStats)> = None;
            for (ri, replica) in shard.replicas.iter().enumerate() {
                if matches!(replica.state, ReplicaState::Demoted { .. }) {
                    continue;
                }
                let faults =
                    (!replica.plan.is_noop()).then(|| replica.plan.state_for(qi as u64, 0));
                match tree.attempt(q, k, &self.device, opts, faults, None) {
                    Ok(res) => {
                        answered = Some(res);
                        break;
                    }
                    Err(e) => {
                        errors.push(e);
                        failovers.push(FailoverEvent {
                            query: qi,
                            shard: si,
                            replica: ri,
                            error: e,
                        });
                        block
                            .emit(|| TraceEvent::Failover { shard: si as u32, replica: ri as u32 });
                    }
                }
            }
            let exhausted = answered.is_none();
            let (shard_nb, shard_stats) = match answered {
                Some(r) => r,
                None => {
                    // No healthy replica left. Earlier queries may have done
                    // the demoting, so harvest the latched errors (and the
                    // ones this visit is about to latch) for the outcome,
                    // then answer with the exact link-free scan.
                    degraded = true;
                    let died_now = &failovers[failovers_before..];
                    let latched =
                        shard.replicas.iter().enumerate().filter_map(|(ri, replica)| match replica
                            .state
                        {
                            ReplicaState::Demoted { error } => Some(error),
                            ReplicaState::Healthy => {
                                died_now.iter().find(|f| f.replica == ri).map(|f| f.error)
                            }
                        });
                    errors.extend(latched);
                    tree.fallback(q, k, &self.device, opts)
                }
            };
            // The breaker's per-visit verdict on this shard: a clean replica
            // answer is a success; a demotion during the visit or a ladder
            // with no healthy rung is a failure.
            let signal = if exhausted || failovers.len() > failovers_before {
                ShardSignal::Fail
            } else {
                ShardSignal::Ok
            };
            visited.push((si, signal));
            clock.charge(&shard_stats, &self.device, warps);
            extra.merge(&shard_stats);
            let prev = block.set_phase(Phase::ResultMerge);
            for nb in &shard_nb {
                // Scatter-gather merge: the shard answers in global ids, into
                // the same k-best list the kernels use.
                list.offer(&mut block, nb.dist, nb.id);
            }
            block.set_phase(prev);
        }

        block.set_phase(Phase::ResultMerge);
        let neighbors = list.into_sorted();
        let mut stats = block.finish();
        stats.merge(&extra);
        // Like the dynamic-tree engine: many physical launches, one logical
        // query block.
        stats.blocks = 1;
        let skipped = breaker_skips + deadline_skips;
        let outcome = if skipped > 0 {
            // Any shard skipped past the pruning rule makes the answer
            // best-effort — marked, never a silent partial.
            QueryOutcome::DeadlineDegraded {
                visited: visited.len() as u32,
                skipped: skipped as u32,
            }
        } else {
            match (degraded, errors.first().copied()) {
                (true, Some(first)) => {
                    QueryOutcome::Degraded { first, retry: errors.get(1).copied().unwrap_or(first) }
                }
                (false, Some(first)) => QueryOutcome::Retried { first },
                (_, None) => QueryOutcome::Clean,
            }
        };
        QueryEffect {
            neighbors,
            stats,
            outcome,
            visited,
            pruned,
            breaker_skips,
            deadline_skips,
            failovers,
            events: events.events,
        }
    }

    /// Takes the replicas that died serving a query out of rotation — the one
    /// change a query makes to the router.
    pub(crate) fn latch(&mut self, failovers: &[FailoverEvent]) {
        for f in failovers {
            self.shards[f.shard].replicas[f.replica].state =
                ReplicaState::Demoted { error: f.error };
        }
    }
}

impl<T: ShardIndex> ShardRouter<T> {
    /// Joins every build in flight; returns the first that panicked.
    fn join_builds(&self) -> Option<Box<dyn Any + Send>> {
        let builds = self.shards.iter().filter_map(|shard| lock(&shard.build).take());
        builds.map(JoinHandle::join).fold(None, |first, joined| first.or(joined.err()))
    }
}

impl<T: ShardIndex> Drop for ShardRouter<T> {
    /// Joins every build still running, so no build thread outlives its
    /// router. A build that panicked panics here, unless a panic is already
    /// unwinding.
    fn drop(&mut self) {
        if let Some(panic) = self.join_builds() {
            if !thread::panicking() {
                resume_unwind(panic);
            }
        }
    }
}

/// The shard plan `cfg` makes of `points`, or why it cannot make one.
fn layout(points: &PointSet, cfg: &ServeConfig) -> Result<ShardPlan, EngineError> {
    if cfg.shards == 0 {
        return Err(EngineError::NoShards);
    }
    if cfg.shards > points.len() {
        return Err(EngineError::TooManyShards { shards: cfg.shards, points: points.len() });
    }
    if cfg.replicas == 0 {
        return Err(EngineError::NoReplicas);
    }
    Ok(partition(points, cfg.shards, &cfg.policy))
}

/// The per-visit verdict [`ShardRouter::execute`] hands the resilience layer
/// for each shard it consulted, in visit order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ShardSignal {
    /// A replica answered with no demotion during the visit.
    Ok,
    /// The visit demoted a replica, or found the whole ladder exhausted.
    Fail,
    /// The shard was consulted without exercising its devices (the
    /// blown-deadline brute rung) — the breaker hears nothing.
    Neutral,
}

/// Everything one query did, as a value: what [`ShardRouter::execute`]
/// returns and the runner commits in submission order.
#[derive(Debug)]
pub(crate) struct QueryEffect {
    pub(crate) neighbors: Vec<Neighbor>,
    pub(crate) stats: KernelStats,
    pub(crate) outcome: QueryOutcome,
    /// Shards consulted, in visit order, with the breaker verdict on each.
    pub(crate) visited: Vec<(usize, ShardSignal)>,
    /// Shards the bound ruled out.
    pub(crate) pruned: Vec<usize>,
    /// Shards routed around because their breaker was open.
    pub(crate) breaker_skips: u64,
    /// Shards skipped because the deadline budget blew.
    pub(crate) deadline_skips: u64,
    /// Replicas that died serving this query, in ladder order: the demotions
    /// [`ShardRouter::latch`] makes.
    pub(crate) failovers: Vec<FailoverEvent>,
    /// The router block's trace events (empty unless the run is traced).
    pub(crate) events: Vec<TraceEvent>,
}

/// Per-batch accumulators, added to at commit in submission order.
pub(crate) struct BatchAcc {
    pub(crate) shard_visits: Vec<u64>,
    pub(crate) shard_prunes: Vec<u64>,
    pub(crate) failovers: Vec<FailoverEvent>,
    /// Counters of the queries that launched, in submission order.
    pub(crate) executed: Vec<KernelStats>,
    retried: u64,
    degraded: u64,
}

impl BatchAcc {
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            shard_visits: vec![0; shards],
            shard_prunes: vec![0; shards],
            failovers: Vec::new(),
            executed: Vec::new(),
            retried: 0,
            degraded: 0,
        }
    }

    pub(crate) fn add(&mut self, effect: &QueryEffect) {
        for &(s, _) in &effect.visited {
            self.shard_visits[s] += 1;
        }
        for &s in &effect.pruned {
            self.shard_prunes[s] += 1;
        }
        self.failovers.extend_from_slice(&effect.failovers);
        self.executed.push(effect.stats);
        self.retried += u64::from(matches!(effect.outcome, QueryOutcome::Retried { .. }));
        self.degraded += u64::from(matches!(effect.outcome, QueryOutcome::Degraded { .. }));
    }

    /// Router-level aggregation over the queries that launched. A batch in
    /// which none did (all rejected or cached) aggregates one zero block so
    /// the cost model has something to price; its counters are all zero.
    pub(crate) fn into_report(self, device: &DeviceConfig, opts: &KernelOptions) -> ServeReport {
        let warps = opts.threads_per_block.div_ceil(device.warp_size).max(1);
        let mut launch = if self.executed.is_empty() {
            launch_blocks(device, warps, &[KernelStats::default()])
        } else {
            launch_blocks(device, warps, &self.executed)
        };
        launch.retried_queries = self.retried;
        launch.degraded_queries = self.degraded;
        ServeReport {
            launch,
            shard_visits: self.shard_visits,
            shard_prunes: self.shard_prunes,
            failovers: self.failovers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_core::Kernel;
    use psb_data::UniformSpec;
    use psb_sstree::{BuildMethod, SsTree};

    fn build(ps: &PointSet) -> SsTree {
        psb_sstree::build(ps, 8, &BuildMethod::Hilbert)
    }

    fn router(n: usize, dims: usize, cfg: &ServeConfig) -> (PointSet, ShardRouter<SsTree>) {
        let ps = UniformSpec { len: n, dims, seed: 42 }.generate();
        let r = ShardRouter::build(&ps, cfg, &DeviceConfig::k40(), build);
        (ps, r)
    }

    #[test]
    fn build_provisions_shards_and_replicas() {
        let (ps, r) = router(600, 4, &ServeConfig::new(4).with_replicas(2));
        assert_eq!(r.num_shards(), 4);
        assert_eq!(r.shards.iter().map(|s| s.len).sum::<usize>(), ps.len());
        assert_eq!(r.len(), ps.len());
        for s in 0..4 {
            for rep in 0..2 {
                assert_eq!(r.replica_state(s, rep), ReplicaState::Healthy);
            }
        }
    }

    #[test]
    fn serve_matches_brute_force_oracle() {
        let (ps, mut r) = router(500, 4, &ServeConfig::new(4));
        let queries = UniformSpec { len: 12, dims: 4, seed: 7 }.generate();
        let opts = KernelOptions::default();
        let out = r.serve_batch(&queries, 5, &opts).expect("serve");
        let (full, cfg) = (build(&ps), DeviceConfig::k40());
        for (qi, nb) in out.neighbors.iter().enumerate() {
            let (oracle, _) = Kernel::Psb { k: 5 }.fallback(&full, queries.point(qi), &cfg, &opts);
            assert_eq!(nb, &oracle, "query {qi}");
        }
        assert!(out.outcomes.iter().all(QueryOutcome::is_clean));
        assert!(out.report.failovers.is_empty());
    }

    #[test]
    fn pruning_skips_far_shards_without_wrong_answers() {
        let (_, mut r) = router(800, 4, &ServeConfig::new(8));
        let queries = UniformSpec { len: 40, dims: 4, seed: 8 }.generate();
        let out = r.serve_batch(&queries, 4, &KernelOptions::default()).expect("serve");
        // 8 shards × 40 queries = 320 decisions, every one visit or prune.
        assert_eq!(out.report.shards_visited() + out.report.shards_pruned(), 320);
        assert!(out.report.shards_pruned() > 0, "no shard pruning on uniform data");
        assert!(out.report.prune_rate() > 0.0 && out.report.prune_rate() < 1.0);
    }

    #[test]
    fn prune_rate_is_zero_not_nan_with_no_shard_decisions() {
        // A report whose batch made zero visit/prune decisions (e.g. a router
        // with no shards to decide over) must report 0.0, not 0/0 = NaN.
        let launch = launch_blocks(&DeviceConfig::k40(), 1, &[KernelStats::default()]);
        let report = ServeReport {
            launch,
            shard_visits: vec![0; 4],
            shard_prunes: vec![0; 4],
            failovers: Vec::new(),
        };
        assert_eq!(report.shards_visited(), 0);
        assert_eq!(report.shards_pruned(), 0);
        let rate = report.prune_rate();
        assert!(!rate.is_nan(), "prune_rate must never be NaN");
        assert_eq!(rate, 0.0);
        // And it feeds the registry as a clean 0.0 gauge.
        let reg = psb_metrics::Registry::new();
        report.record_into(&MetricsHandle::attached(&reg));
        let snap = reg.snapshot();
        let gauge = snap.gauges.iter().find(|(k, _)| k == "serve.prune_rate").map(|(_, v)| *v);
        assert_eq!(gauge, Some(0.0));
    }

    #[test]
    fn empty_batch_serve_is_a_typed_error() {
        let (_, mut r) = router(200, 3, &ServeConfig::new(2));
        let empty = PointSet::new(3);
        assert!(matches!(
            r.serve_batch(&empty, 3, &KernelOptions::default()),
            Err(EngineError::EmptyBatch)
        ));
    }

    #[test]
    fn attached_registry_matches_the_report_exactly() {
        // Satellite: the registry is fed from the report (one source of
        // truth), so every counter must equal the report field it came from.
        let (_, mut r) = router(600, 4, &ServeConfig::new(4).with_replicas(2));
        r.set_fault_plan(0, 0, FaultPlan::truncation(1));
        let reg = psb_metrics::Registry::new();
        r.attach_metrics(MetricsHandle::attached(&reg));
        let queries = UniformSpec { len: 10, dims: 4, seed: 17 }.generate();
        let out = r.serve_batch(&queries, 4, &KernelOptions::default()).expect("serve");
        let snap = reg.snapshot();
        let counter = |name: &str| {
            snap.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v).unwrap_or(0)
        };
        for s in 0..4 {
            assert_eq!(
                counter(&format!("serve.shard_visits{{shard=\"{s}\"}}")),
                out.report.shard_visits[s],
                "shard {s} visits"
            );
            assert_eq!(
                counter(&format!("serve.shard_prunes{{shard=\"{s}\"}}")),
                out.report.shard_prunes[s],
                "shard {s} prunes"
            );
        }
        assert_eq!(counter("serve.queries"), queries.len() as u64);
        assert_eq!(counter("serve.failovers"), out.report.failovers.len() as u64);
        assert_eq!(counter("serve.retried_queries"), out.report.launch.retried_queries);
        assert_eq!(counter("serve.degraded_queries"), out.report.launch.degraded_queries);
        assert_eq!(counter("serve.batches"), 1);
        let gauge =
            |name: &str| snap.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v).expect(name);
        assert_eq!(gauge("serve.prune_rate"), out.report.prune_rate());
        // Latency histograms saw every query and the batch.
        let hist = |name: &str| {
            snap.histograms.iter().find(|(k, _)| k == name).map(|(_, h)| *h).expect(name)
        };
        assert_eq!(hist("serve.query_us").count, queries.len() as u64);
        assert_eq!(hist("serve.batch_us").count, 1);
        // The batch span landed in the wall-clock tree.
        assert!(snap.spans.iter().any(|(p, _)| p == "serve"), "missing serve span");
    }

    #[test]
    fn restore_replica_clears_the_latch() {
        let (_, mut r) = router(300, 3, &ServeConfig::new(2).with_replicas(2));
        r.set_fault_plan(0, 0, FaultPlan::truncation(1));
        let queries = UniformSpec { len: 4, dims: 3, seed: 9 }.generate();
        let out = r.serve_batch(&queries, 3, &KernelOptions::default()).expect("serve");
        assert!(matches!(r.replica_state(0, 0), ReplicaState::Demoted { .. }));
        assert_eq!(out.report.failovers.len(), 1, "latched demotion fails over once");
        r.restore_replica(0, 0);
        assert_eq!(r.replica_state(0, 0), ReplicaState::Healthy);
        let again = r.serve_batch(&queries, 3, &KernelOptions::default()).expect("serve");
        assert!(again.report.failovers.is_empty(), "restored replica is healthy again");
    }

    #[test]
    fn zero_replicas_is_a_typed_error() {
        let ps = UniformSpec { len: 100, dims: 3, seed: 5 }.generate();
        let cfg = ServeConfig::new(2).with_replicas(0);
        let built = ShardRouter::try_build(&ps, &cfg, &DeviceConfig::k40(), build);
        assert!(matches!(built, Err(EngineError::NoReplicas)));
        let packed = ShardRouter::<SsTree>::try_build_packed(&ps, &cfg, &DeviceConfig::k40(), 8);
        assert!(matches!(packed, Err(EngineError::NoReplicas)));
    }

    /// `knn` takes `&self`, so a replica that dies under it is passed over
    /// and stays in rotation; the next batch demotes it.
    #[test]
    fn knn_fails_over_without_latching_and_a_batch_latches() {
        let (ps, mut r) = router(400, 3, &ServeConfig::new(2).with_replicas(2));
        r.set_fault_plan(0, 0, FaultPlan::truncation(1));
        r.set_fault_plan(1, 0, FaultPlan::truncation(1));
        let queries = UniformSpec { len: 6, dims: 3, seed: 11 }.generate();
        let full = build(&ps);
        let (cfg, opts) = (DeviceConfig::k40(), KernelOptions::default());
        for q in queries.iter() {
            let (want, _) = Kernel::Psb { k: 4 }.fallback(&full, q, &cfg, &opts);
            assert_eq!(r.knn(q, 4), want);
        }
        assert_eq!(r.replica_state(0, 0), ReplicaState::Healthy);
        assert_eq!(r.replica_state(1, 0), ReplicaState::Healthy);
        let out = r.serve_batch(&queries, 4, &opts).expect("serve");
        assert!(!out.report.failovers.is_empty());
        let demoted = |s| matches!(r.replica_state(s, 0), ReplicaState::Demoted { .. });
        assert!(demoted(0) || demoted(1));
    }

    /// The router's writes, result cache and rebuilds, through the
    /// constructor the mutable router is built with.
    mod mutable {
        use super::*;
        use crate::DynamicShardRouter;
        use psb_data::UniformSpec;
        use std::sync::mpsc;
        use std::sync::Arc;
        use std::time::{Duration, Instant};

        /// Linear-scan oracle over an externally maintained (global id, point)
        /// mirror.
        fn oracle(mirror: &[(u32, Vec<f32>)], q: &[f32], k: usize) -> Vec<Neighbor> {
            let mut v: Vec<Neighbor> =
                mirror.iter().map(|(id, p)| Neighbor { dist: dist(q, p), id: *id }).collect();
            v.sort_by(Neighbor::by_rank);
            v.truncate(k.min(v.len()));
            v
        }

        #[test]
        fn insert_remove_knn_match_oracle() {
            let ps = UniformSpec { len: 400, dims: 3, seed: 21 }.generate();
            let mut r = DynamicShardRouter::build(&ps, 4, &ShardPolicy::HilbertRange, 8);
            let mut mirror: Vec<(u32, Vec<f32>)> =
                (0..ps.len()).map(|i| (i as u32, ps.point(i).to_vec())).collect();
            let extra = UniformSpec { len: 60, dims: 3, seed: 22 }.generate();
            for i in 0..extra.len() {
                let g = r.insert(extra.point(i));
                mirror.push((g, extra.point(i).to_vec()));
            }
            for id in [3u32, 77, 150, 401, 420] {
                assert!(r.remove(id));
                mirror.retain(|(i, _)| *i != id);
            }
            assert!(!r.remove(9999));
            assert_eq!(r.len(), mirror.len());
            let queries = UniformSpec { len: 20, dims: 3, seed: 23 }.generate();
            for qi in 0..queries.len() {
                let q = queries.point(qi);
                assert_eq!(r.knn(q, 7), oracle(&mirror, q, 7), "query {qi}");
            }
        }

        #[test]
        fn rebuild_of_one_shard_preserves_answers() {
            let ps = UniformSpec { len: 300, dims: 4, seed: 31 }.generate();
            let mut r = DynamicShardRouter::build(&ps, 3, &ShardPolicy::HilbertRange, 8);
            let extra = UniformSpec { len: 40, dims: 4, seed: 32 }.generate();
            for i in 0..extra.len() {
                r.insert(extra.point(i));
            }
            let q = ps.point(0).to_vec();
            let before = r.knn(&q, 9);
            for s in 0..r.num_shards() {
                r.rebuild_shard(s);
            }
            assert_eq!(r.knn(&q, 9), before, "rebuild changed answers");
        }

        /// A shard's build raced by inserts and removes through the router —
        /// its build taken aside as the build thread takes it, the writes
        /// made, then the install: the shard keeps exactly its live
        /// post-snapshot inserts pending, and every answer is the oracle's.
        #[test]
        fn a_build_raced_by_inserts_and_removes_lands_exactly() {
            let ps = UniformSpec { len: 300, dims: 3, seed: 61 }.generate();
            let mut r = DynamicShardRouter::build(&ps, 2, &ShardPolicy::HilbertRange, 8);
            let mut mirror: Vec<(u32, Vec<f32>)> =
                (0..ps.len()).map(|i| (i as u32, ps.point(i).to_vec())).collect();
            let early = UniformSpec { len: 10, dims: 3, seed: 62 }.generate();
            for p in early.iter() {
                mirror.push((r.insert(p), p.to_vec()));
            }
            let built_aside = |r: &DynamicShardRouter, s: usize| {
                read(&r.shards[s].tree).snapshot().map(Snapshot::build).expect("live points")
            };
            let builds = [built_aside(&r, 0), built_aside(&r, 1)];
            let late = UniformSpec { len: 20, dims: 3, seed: 63 }.generate();
            let mut raced = Vec::new();
            for p in late.iter() {
                let g = r.insert(p);
                raced.push(g);
                mirror.push((g, p.to_vec()));
            }
            // Two base points, a pre-snapshot insert and a raced one.
            for id in [7, 150, 300, raced[0]] {
                assert!(r.remove(id), "id {id}");
                mirror.retain(|(i, _)| *i != id);
            }
            for (s, rebuilt) in builds.into_iter().enumerate() {
                write(&r.shards[s].tree).install(rebuilt);
                let tree = read(&r.shards[s].tree);
                let pending = raced.iter().filter(|&&g| tree.contains(g)).count();
                assert_eq!(tree.pending(), pending, "shard {s}");
            }
            let check = |r: &DynamicShardRouter, mirror: &[(u32, Vec<f32>)]| {
                for q in ps.iter().take(20).chain(late.iter()) {
                    assert_eq!(r.knn(q, 6), oracle(mirror, q, 6));
                }
            };
            check(&r, &mirror);
            for s in 0..2 {
                r.rebuild_shard(s);
            }
            r.settle();
            assert!((0..2).all(|s| read(&r.shards[s].tree).pending() == 0));
            check(&r, &mirror);
        }

        /// Churn past a fifth of each shard with no explicit rebuild: the
        /// writes hand the shards to their build threads, the registry counts
        /// every rebuild, and once settled no shard is due and every answer is
        /// the oracle's.
        #[test]
        fn churn_past_the_threshold_rebuilds_on_the_build_thread() {
            let ps = UniformSpec { len: 200, dims: 3, seed: 65 }.generate();
            let mut r = DynamicShardRouter::build(&ps, 2, &ShardPolicy::HilbertRange, 8);
            let reg = psb_metrics::Registry::new();
            r.attach_metrics(MetricsHandle::attached(&reg));
            let mut mirror: Vec<(u32, Vec<f32>)> =
                (0..ps.len()).map(|i| (i as u32, ps.point(i).to_vec())).collect();
            let extra = UniformSpec { len: 120, dims: 3, seed: 66 }.generate();
            for p in extra.iter() {
                mirror.push((r.insert(p), p.to_vec()));
            }
            for id in (0..ps.len() as u32).step_by(3) {
                assert!(r.remove(id), "id {id}");
                mirror.retain(|(i, _)| *i != id);
            }
            r.settle();
            let snap = reg.snapshot();
            let rebuilds = snap.counters.iter().filter(|(k, _)| k.starts_with("serve.rebuilds{"));
            let rebuilds: u64 = rebuilds.map(|(_, v)| *v).sum();
            assert!(rebuilds >= 2, "{rebuilds} churn rebuilds were recorded");
            for s in 0..r.num_shards() {
                assert!(!read(&r.shards[s].tree).rebuild_due(), "shard {s} is still due");
            }
            for q in ps.iter().take(20).chain(extra.iter().take(10)) {
                assert_eq!(r.knn(q, 6), oracle(&mirror, q, 6));
            }
        }

        /// Builds in flight on every shard while inserts, removes and queries,
        /// cached and uncached, go on against the mirror without settling;
        /// then settled, and checked again. A shard of 2 000 points builds
        /// for milliseconds, so the writes race the builds.
        #[test]
        fn answers_stay_exact_while_builds_are_in_flight() {
            use psb_data::{sample_queries, ClusteredSpec};
            let ps = ClusteredSpec {
                clusters: 4,
                points_per_cluster: 1500,
                dims: 4,
                sigma: 60.0,
                seed: 95,
            }
            .generate();
            let mut cached = DynamicShardRouter::build(&ps, 3, &ShardPolicy::HilbertRange, 8);
            cached.attach_cache(16);
            let mut plain = DynamicShardRouter::build(&ps, 3, &ShardPolicy::HilbertRange, 8);
            let mut mirror: Vec<(u32, Vec<f32>)> =
                (0..ps.len()).map(|i| (i as u32, ps.point(i).to_vec())).collect();
            let extra = sample_queries(&ps, 90, 0.01, 96);
            let queries = sample_queries(&ps, 6, 0.01, 97);
            let check = |cached: &DynamicShardRouter,
                         plain: &DynamicShardRouter,
                         mirror: &[(u32, Vec<f32>)],
                         when: &str| {
                for (qi, q) in queries.iter().enumerate() {
                    let want = oracle(mirror, q, 7);
                    assert_eq!(cached.knn(q, 7), want, "{when}: cached, query {qi}");
                    assert_eq!(plain.knn(q, 7), want, "{when}: plain, query {qi}");
                }
            };
            for round in 0..3 {
                for s in 0..3 {
                    cached.rebuild_shard(s);
                    plain.rebuild_shard(s);
                }
                for i in 0..30 {
                    let p = extra.point(round * 30 + i);
                    let g = cached.insert(p);
                    assert_eq!(plain.insert(p), g);
                    mirror.push((g, p.to_vec()));
                    if i % 3 == 2 {
                        let id = mirror.swap_remove((i * 7919 + round) % mirror.len()).0;
                        assert!(cached.remove(id) && plain.remove(id), "id {id}");
                    }
                    check(&cached, &plain, &mirror, &format!("round {round} write {i}"));
                }
            }
            cached.settle();
            plain.settle();
            check(&cached, &plain, &mirror, "settled");
            assert_eq!((cached.len(), plain.len()), (mirror.len(), mirror.len()));
        }

        /// Dropping a router with builds in flight joins them: no build thread
        /// holds its shard afterwards, and each ran to its install.
        #[test]
        fn dropping_the_router_joins_its_builds() {
            let ps = psb_data::ClusteredSpec {
                clusters: 3,
                points_per_cluster: 2000,
                dims: 4,
                sigma: 60.0,
                seed: 98,
            }
            .generate();
            let mut r = DynamicShardRouter::build(&ps, 3, &ShardPolicy::HilbertRange, 8);
            let reg = psb_metrics::Registry::new();
            r.attach_metrics(MetricsHandle::attached(&reg));
            let extra = UniformSpec { len: 30, dims: 4, seed: 99 }.generate();
            for p in extra.iter() {
                r.insert(p);
            }
            let trees: Vec<_> = r.shards.iter().map(|shard| Arc::clone(&shard.tree)).collect();
            for s in 0..3 {
                r.rebuild_shard(s);
            }
            drop(r);
            for (s, tree) in trees.iter().enumerate() {
                assert_eq!(Arc::strong_count(tree), 1, "shard {s}'s build outlived the router");
                assert_eq!(read(tree).pending(), 0, "shard {s} was not installed");
            }
            let snap = reg.snapshot();
            let rebuilds = snap.counters.iter().filter(|(k, _)| k.starts_with("serve.rebuilds{"));
            assert_eq!(rebuilds.map(|(_, v)| *v).sum::<u64>(), 3);
        }

        /// A router whose shard 1 has a build in flight that panics.
        fn with_a_failed_build() -> DynamicShardRouter {
            let ps = UniformSpec { len: 100, dims: 3, seed: 64 }.generate();
            let r = DynamicShardRouter::build(&ps, 2, &ShardPolicy::HilbertRange, 8);
            *lock(&r.shards[1].build) = Some(thread::spawn(|| panic!("a failed build")));
            r
        }

        #[test]
        #[should_panic(expected = "a failed build")]
        fn a_build_that_panicked_panics_in_settle() {
            with_a_failed_build().settle();
        }

        #[test]
        #[should_panic(expected = "a failed build")]
        fn a_build_that_panicked_panics_in_the_next_rebuild_of_its_shard() {
            with_a_failed_build().rebuild_shard(1);
        }

        #[test]
        #[should_panic(expected = "a failed build")]
        fn a_build_that_panicked_panics_in_drop() {
            drop(with_a_failed_build());
        }

        #[test]
        fn attached_registry_sees_rebuilds_and_queries() {
            let ps = UniformSpec { len: 300, dims: 3, seed: 51 }.generate();
            let mut r = DynamicShardRouter::build(&ps, 3, &ShardPolicy::HilbertRange, 8);
            let reg = psb_metrics::Registry::new();
            r.attach_metrics(MetricsHandle::attached(&reg));
            let q = ps.point(0).to_vec();
            let before = r.knn(&q, 5);
            for s in 0..r.num_shards() {
                r.rebuild_shard(s);
            }
            assert_eq!(r.knn(&q, 5), before);
            // With a cache: the answer filed before the rebuilds is served after
            // them, an insert is folded into it, and only a remove drops it.
            r.attach_cache(8);
            assert_eq!(r.knn(&q, 5), before);
            r.rebuild_shard(0);
            assert_eq!(r.knn(&q, 5), before, "a hit");
            let twin = r.insert(&q);
            let mut grown = before.clone();
            grown.insert(1, Neighbor { dist: 0.0, id: twin });
            grown.truncate(5);
            assert_eq!(r.knn(&q, 5), grown, "a hit on the maintained answer");
            assert!(r.remove(twin));
            assert_eq!(r.knn(&q, 5), before, "recomputed");
            assert_eq!(r.cache_stats(), (2, 2, 0, 1));
            r.settle();
            let snap = reg.snapshot();
            let counter = |name: &str| {
                snap.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v).unwrap_or(0)
            };
            assert_eq!(counter("serve.dyn_queries"), 4);
            assert_eq!(counter("serve.dyn_cache_hits"), 2);
            assert_eq!(counter("serve.dyn_cache_misses"), 2);
            assert_eq!(counter("serve.dyn_cache_absorbed"), 1);
            assert_eq!(counter("serve.dyn_cache_flushes"), 1);
            let rebuilds: u64 = snap
                .counters
                .iter()
                .filter(|(k, _)| k.starts_with("serve.rebuilds{"))
                .map(|(_, v)| *v)
                .sum();
            assert_eq!(rebuilds, 4);
            let hist = |name: &str| {
                snap.histograms.iter().find(|(k, _)| k == name).map(|(_, h)| *h).expect(name)
            };
            assert_eq!(hist("serve.rebuild_us").count, 4);
            // The swap is a part of the rebuild, and no rebuild held the write
            // lock for all of it.
            assert_eq!(hist("serve.rebuild_swap_us").count, 4);
            assert!(hist("serve.rebuild_swap_us").max <= hist("serve.rebuild_us").max);
            assert_eq!(counter("serve.rebuilds_in_place"), 0);
            assert_eq!(hist("serve.dyn_query_us").count, 4);
        }

        #[test]
        fn a_non_finite_point_is_a_typed_error_and_changes_nothing() {
            let ps = UniformSpec { len: 300, dims: 3, seed: 71 }.generate();
            let mut r = DynamicShardRouter::build(&ps, 3, &ShardPolicy::HilbertRange, 8);
            r.attach_cache(8);
            let q = ps.point(7).to_vec();
            let answer = r.knn(&q, 5);
            let state = |r: &DynamicShardRouter| {
                let spheres: Vec<Sphere> = r.shards.iter().map(|s| s.sphere.clone()).collect();
                let pending: Vec<usize> =
                    r.shards.iter().map(|s| read(&s.tree).pending()).collect();
                (r.len(), r.version(), r.cache_stats(), spheres, pending)
            };
            let before = state(&r);
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                for dim in 0..3 {
                    let mut p = q.clone();
                    p[dim] = bad;
                    assert_eq!(
                        r.try_insert(&p),
                        Err(InsertError::NonFinite { dim }),
                        "{bad} in dimension {dim}"
                    );
                }
            }
            assert!(before == state(&r), "a refused insert left a mark");
            // The rebuild a NaN used to reach, 240 inserts later, inside Ritter.
            for s in 0..r.num_shards() {
                r.rebuild_shard(s);
            }
            assert_eq!(r.knn(&q, 5), answer);
            assert_eq!(r.cache_stats().0, 1, "and the cached answer is still there");
            assert_eq!(r.try_insert(&q), Ok(300));
        }

        #[test]
        fn a_wrong_length_point_is_a_typed_error_and_changes_nothing() {
            let ps = UniformSpec { len: 300, dims: 3, seed: 73 }.generate();
            let mut r = DynamicShardRouter::build(&ps, 3, &ShardPolicy::HilbertRange, 8);
            r.attach_cache(8);
            let q = ps.point(7).to_vec();
            let answer = r.knn(&q, 5);
            let state = |r: &DynamicShardRouter| {
                let spheres: Vec<Sphere> = r.shards.iter().map(|s| s.sphere.clone()).collect();
                let pending: Vec<usize> =
                    r.shards.iter().map(|s| read(&s.tree).pending()).collect();
                (r.len(), r.version(), r.cache_stats(), spheres, pending)
            };
            let before = state(&r);
            for p in [&[][..], &[0.5], &[0.5, 0.5], &[0.5; 4], &[f32::NAN; 7]] {
                let want = InsertError::Dims { expected: 3, got: p.len() };
                assert_eq!(r.try_insert(p), Err(want), "{} coordinates", p.len());
            }
            assert!(before == state(&r), "a refused insert left a mark");
            assert_eq!(r.knn(&q, 5), answer);
            assert_eq!(r.try_insert(&q), Ok(300), "and used up no id");
        }

        #[test]
        #[should_panic(expected = "the inserted point has 2 coordinates, the index 3")]
        fn insert_panics_at_the_door_on_a_wrong_length_point() {
            let ps = UniformSpec { len: 100, dims: 3, seed: 74 }.generate();
            let mut r = DynamicShardRouter::build(&ps, 2, &ShardPolicy::HilbertRange, 8);
            r.insert(&[0.5, 0.5]);
        }

        /// The ids alive in shard `s`, ascending.
        fn shard_ids(r: &DynamicShardRouter, s: usize) -> Vec<u32> {
            (0..r.next_id).filter(|&id| read(&r.shards[s].tree).contains(id)).collect()
        }

        /// What a shard's tree holds: pending count and base rows, bit for bit.
        fn shard_state(r: &DynamicShardRouter, s: usize) -> (usize, Vec<(u32, Vec<u32>)>) {
            let tree = read(&r.shards[s].tree);
            let rows =
                tree.base_rows().map(|(id, p)| (id, p.iter().map(|x| x.to_bits()).collect()));
            (tree.pending(), rows.collect())
        }

        #[test]
        fn removes_find_their_shard_without_an_owner_table() {
            let ps = UniformSpec { len: 300, dims: 3, seed: 81 }.generate();
            let mut r = DynamicShardRouter::build(&ps, 3, &ShardPolicy::HilbertRange, 8);
            r.attach_cache(16);
            let mut mirror: Vec<(u32, Vec<f32>)> =
                (0..ps.len()).map(|i| (i as u32, ps.point(i).to_vec())).collect();
            let extra = UniformSpec { len: 30, dims: 3, seed: 82 }.generate();
            for p in extra.iter() {
                mirror.push((r.insert(p), p.to_vec()));
            }
            let queries = UniformSpec { len: 12, dims: 3, seed: 83 }.generate();
            let remove = |r: &mut DynamicShardRouter, mirror: &mut Vec<(u32, Vec<f32>)>, id| {
                let before = (r.version(), r.cache_stats(), r.len());
                let alive = mirror.iter().any(|(i, _)| *i == id);
                assert_eq!(r.remove(id), alive, "id {id}");
                if alive {
                    mirror.retain(|(i, _)| *i != id);
                } else {
                    assert_eq!(
                        (r.version(), r.cache_stats(), r.len()),
                        before,
                        "id {id} left a mark"
                    );
                }
                for q in queries.iter() {
                    assert_eq!(r.knn(q, 6), oracle(mirror, q, 6), "after removing {id}");
                }
            };
            // Never issued, then a base point removed, then removed again.
            for id in [330, 331, u32::MAX, 5, 5, 5] {
                remove(&mut r, &mut mirror, id);
            }
            // The newest delta point of a shard: that shard loses it, no other
            // shard is touched.
            let newest = (0..r.num_shards())
                .filter_map(|s| shard_ids(&r, s).last().map(|&id| (id, s)))
                .max()
                .expect("a shard with points");
            assert!(newest.0 >= 300, "the newest id is an insert");
            let others = |r: &DynamicShardRouter| {
                (0..r.num_shards())
                    .filter(|&s| s != newest.1)
                    .map(|s| shard_state(r, s))
                    .collect::<Vec<_>>()
            };
            let untouched = others(&r);
            remove(&mut r, &mut mirror, newest.0);
            assert!(others(&r) == untouched, "a remove touched another shard");
            remove(&mut r, &mut mirror, newest.0);
            // The last id of every shard, base or delta, and then again.
            for s in 0..r.num_shards() {
                let last = *shard_ids(&r, s).last().expect("live points");
                remove(&mut r, &mut mirror, last);
                assert!(!shard_ids(&r, s).contains(&last));
                remove(&mut r, &mut mirror, last);
            }
            assert_eq!(r.len(), mirror.len());
        }

        /// Each shard tree is the tree a build over the shard in the partition's
        /// order makes, row for row, with the same global id answering each row;
        /// and the directory's spheres are Ritter's over that order.
        #[test]
        fn shard_trees_and_spheres_match_a_build_in_partition_order() {
            use psb_sstree::build;
            let ps = psb_data::ClusteredSpec {
                clusters: 6,
                points_per_cluster: 400,
                dims: 4,
                sigma: 60.0,
                seed: 91,
            }
            .generate();
            let extra = UniformSpec { len: 90, dims: 4, seed: 92 }.generate();
            let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            for policy in [ShardPolicy::HilbertRange, ShardPolicy::KMeans { seed: 93 }] {
                let plan = partition(&ps, 4, &policy);
                let mut r = DynamicShardRouter::build(&ps, 4, &policy, 8);
                // The shard's points as a build saw them before ids were sorted:
                // the partition's order, then the inserts in arrival order.
                let mut members: Vec<(PointSet, Vec<u32>)> =
                    plan.assignments.iter().map(|ids| (ps.gather(ids), ids.clone())).collect();
                let check =
                    |r: &DynamicShardRouter, members: &[(PointSet, Vec<u32>)], when: &str| {
                        for (s, (points, ids)) in members.iter().enumerate() {
                            let want = build(points, 8, &BuildMethod::Hilbert);
                            let want: Vec<(u32, Vec<u32>)> = want
                                .point_ids
                                .iter()
                                .zip(want.points.iter())
                                .map(|(&pos, p)| (ids[pos as usize], bits(p)))
                                .collect();
                            assert!(shard_state(r, s) == (0, want), "{policy:?} shard {s} {when}");
                        }
                    };
                check(&r, &members, "after construction");
                for (s, ids) in plan.assignments.iter().enumerate() {
                    let sphere = shard_sphere(&ps, ids, RitterMode::Parallel);
                    let got = r.shards[s].sphere.clone();
                    assert_eq!(bits(&got.center), bits(&sphere.center), "{policy:?} shard {s}");
                    assert_eq!(
                        got.radius.to_bits(),
                        sphere.radius.to_bits(),
                        "{policy:?} shard {s}"
                    );
                }
                for p in extra.iter() {
                    let id = r.insert(p);
                    let s = (0..r.num_shards())
                        .find(|&s| read(&r.shards[s].tree).contains(id))
                        .expect("owner");
                    members[s].0.push(p);
                    members[s].1.push(id);
                }
                for s in 0..r.num_shards() {
                    r.rebuild_shard(s);
                }
                r.settle();
                check(&r, &members, "after rebuild_shard");
            }
        }

        #[test]
        #[should_panic(expected = "non-finite coordinate in dimension 2")]
        fn insert_panics_at_the_door_on_a_non_finite_point() {
            let ps = UniformSpec { len: 100, dims: 3, seed: 72 }.generate();
            let mut r = DynamicShardRouter::build(&ps, 2, &ShardPolicy::HilbertRange, 8);
            r.insert(&[0.5, 0.5, f32::INFINITY]);
        }

        /// A finite point the next rebuild could not verify is refused at the
        /// door: 64 points along (1 + t, 2 − t) at degree 4, then inserts near
        /// (1e20, 1e20). Each refusal leaves trees, directory, version and
        /// cache as they were; a point at the limit goes in and its shard
        /// rebuilds.
        #[test]
        fn an_out_of_range_point_is_a_typed_error_and_changes_nothing() {
            let mut ps = PointSet::new(2);
            for i in 0..64 {
                let t = i as f32 / 64.0;
                ps.push(&[1.0 + t, 2.0 - t]);
            }
            let mut r = DynamicShardRouter::build(&ps, 2, &ShardPolicy::HilbertRange, 4);
            r.attach_cache(8);
            let q = [1.5f32, 1.5];
            let answer = r.knn(&q, 5);
            let state = |r: &DynamicShardRouter| {
                let spheres: Vec<Sphere> = r.shards.iter().map(|s| s.sphere.clone()).collect();
                let pending: Vec<usize> =
                    r.shards.iter().map(|s| read(&s.tree).pending()).collect();
                (r.len(), r.version(), r.cache_stats(), spheres, pending)
            };
            let before = state(&r);
            for i in 0..20 {
                let far = [1e20, 1e20 + i as f32 * 1e14];
                assert_eq!(r.try_insert(&far), Err(InsertError::OutOfRange { dim: 0 }));
            }
            assert!(before == state(&r), "a refused insert left a mark");
            assert_eq!(r.knn(&q, 5), answer);
            let limit = InsertError::coordinate_limit(2);
            let mut mirror: Vec<(u32, Vec<f32>)> =
                (0..ps.len()).map(|i| (i as u32, ps.point(i).to_vec())).collect();
            for corner in [[limit, limit], [-limit, -limit]] {
                mirror.push((r.insert(&corner), corner.to_vec()));
            }
            for s in 0..r.num_shards() {
                r.rebuild_shard(s);
                r.settle();
                assert_eq!(read(&r.shards[s].tree).pending(), 0);
            }
            assert_eq!(r.knn(&q, 5), oracle(&mirror, &q, 5));
            // Seen from a corner the line's points all round to one distance,
            // and any of them is a right answer.
            let dists = |v: Vec<Neighbor>| v.iter().map(|n| n.dist.to_bits()).collect::<Vec<_>>();
            for q in [[limit, limit], [-limit, 0.0]] {
                assert_eq!(dists(r.knn(&q, 5)), dists(oracle(&mirror, &q, 5)));
            }
        }

        /// The non-blocking guarantee: with shard 0's tree
        /// write-locked (as a rebuild would), a query that prunes shard 0 answers
        /// correctly without ever waiting on that lock.
        #[test]
        fn locked_shard_does_not_block_prunable_queries() {
            // Two tight, far-apart clusters → two Hilbert shards, one per cluster.
            let dims = 3;
            let mut ps = PointSet::new(dims);
            let a = UniformSpec { len: 100, dims, seed: 41 }.generate();
            for i in 0..a.len() {
                ps.push(a.point(i)); // cluster A: the unit-ish cube around origin
            }
            for i in 0..a.len() {
                let far: Vec<f32> = a.point(i).iter().map(|x| x + 1.0e6).collect();
                ps.push(&far); // cluster B: same shape, a million units away
            }
            let r = Arc::new(DynamicShardRouter::build(&ps, 2, &ShardPolicy::HilbertRange, 8));
            // Identify the shard holding cluster B (query target): it's whichever
            // sphere center is far from the origin.
            let b_center = vec![1.0e6_f32; dims];
            let (locked, target) = {
                let d0 = dist(&r.shards[0].sphere.center, &b_center);
                let d1 = dist(&r.shards[1].sphere.center, &b_center);
                if d0 < d1 {
                    (1, 0)
                } else {
                    (0, 1)
                }
            };
            let (release_tx, release_rx) = mpsc::channel::<()>();
            let (held_tx, held_rx) = mpsc::channel::<()>();
            let holder = {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let _guard = r.shards[locked].tree.write();
                    held_tx.send(()).ok();
                    // Hold until released (or a generous timeout backstop).
                    release_rx.recv_timeout(Duration::from_secs(30)).ok();
                })
            };
            held_rx.recv().expect("holder thread started");
            let q = ps.point(ps.len() - 1).to_vec(); // deep inside cluster B
            let started = Instant::now();
            let hits = r.knn(&q, 5);
            let elapsed = started.elapsed();
            release_tx.send(()).ok();
            holder.join().expect("holder join");
            assert_eq!(hits.len(), 5);
            // Every hit comes from cluster B's shard half of the id space.
            let mirror: Vec<(u32, Vec<f32>)> =
                (0..ps.len()).map(|i| (i as u32, ps.point(i).to_vec())).collect();
            assert_eq!(hits, oracle(&mirror, &q, 5));
            assert_eq!(r.shards[target].len, 100);
            assert!(
                elapsed < Duration::from_secs(10),
                "query waited on a locked shard it should have pruned ({elapsed:?})"
            );
        }
    }
}
