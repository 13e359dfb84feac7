//! Sharded serving over mutable per-shard indexes.
//!
//! [`DynamicShardRouter`] holds one [`DynamicSsTree`] per shard behind its own
//! reader-writer lock, with the shard directory (bounding sphere + live count)
//! in separate, briefly-held metadata locks. Queries take the same
//! MINDIST-ordered, MAXDIST-bounded path as the static
//! [`ShardRouter`](crate::ShardRouter) and read-lock **only the shards they
//! actually visit** — so a rebuild write-locking one shard never blocks a
//! query that the other shards can answer (either because the rebuilding shard
//! is pruned, or because the query simply doesn't reach it before the rebuild
//! finishes).
//!
//! The attached result cache is *maintained* under writes, not flushed
//! (DESIGN.md "Mutable shards"): an insert folds its point into every
//! resident answer, a shard rebuild leaves them alone (it indexes the same
//! set), and only a remove drops them.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use psb_core::dynamic::{InsertError, Rebuilt, Snapshot};
use psb_core::shard::{partition, shard_sphere, ShardPolicy};
use psb_core::DynamicSsTree;
use psb_geom::{dist, PointSet, RitterMode, Sphere};
use psb_metrics::MetricsHandle;
use psb_sstree::{BuildMethod, Neighbor};
use rayon::prelude::*;

use crate::admission::{CacheKey, QueryCache};
use crate::plan::{Visit, VisitPlan};

/// The shard directory entry: everything the router needs to order and prune
/// shards without touching the shard's tree lock.
struct ShardMeta {
    sphere: Sphere,
    len: usize,
}

/// The attached result cache and the version of the live set its entries
/// answer for, under one lock.
struct ResultCache {
    /// Disabled (capacity 0) until [`DynamicShardRouter::attach_cache`].
    results: QueryCache,
    /// Counts inserts and removes. A miss notes it before it runs and files
    /// its answer only if it has not moved: an answer computed while a point
    /// came or went may or may not have seen it, so it is never filed.
    version: u64,
}

/// Per-shard counter names, formatted once in
/// [`DynamicShardRouter::attach_metrics`] rather than per shard per query.
#[derive(Default)]
struct ShardLabels {
    visits: Vec<String>,
    prunes: Vec<String>,
    rebuilds: Vec<String>,
}

/// A sharded, mutable kNN index with per-shard locking.
///
/// All answers are exact over the live point set. Ids are router-global:
/// initial points keep their dataset positions `0..n`, inserts allocate fresh
/// ids upward. Each shard's tree holds its points under these ids, so no id
/// is translated anywhere.
pub struct DynamicShardRouter {
    trees: Vec<RwLock<DynamicSsTree>>,
    metas: Vec<Mutex<ShardMeta>>,
    /// The id the next insert gets.
    next_id: u32,
    dims: usize,
    cache: Mutex<ResultCache>,
    /// Telemetry sink (detached by default): rebuild durations, per-query
    /// latency, and shard visit/prune counters.
    metrics: MetricsHandle,
    /// Empty until a registry is attached.
    labels: ShardLabels,
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

impl DynamicShardRouter {
    /// Partitions `points` into `shards` shards and builds one
    /// [`DynamicSsTree`] (degree `degree`, Hilbert-packed) per shard, the
    /// shards concurrently: one parallel region whose pieces are the shards.
    /// A region entered inside a piece runs inline, so each shard's own
    /// build is the serial one a lone shard of its size gets.
    pub fn build(points: &PointSet, shards: usize, policy: &ShardPolicy, degree: usize) -> Self {
        let plan = partition(points, shards, policy);
        let built: Vec<(Mutex<ShardMeta>, RwLock<DynamicSsTree>)> = plan
            .assignments
            .par_iter()
            .map(|ids| {
                // Ritter's sphere depends on the order it sees the points in:
                // the partition's. The tree takes its ids ascending.
                let sphere = shard_sphere(points, ids, RitterMode::Parallel);
                let mut sorted = ids.clone();
                sorted.sort_unstable();
                let local = points.gather(&sorted);
                let tree = DynamicSsTree::with_ids(&local, sorted, degree, BuildMethod::Hilbert);
                (Mutex::new(ShardMeta { sphere, len: ids.len() }), RwLock::new(tree))
            })
            .collect();
        let (metas, trees) = built.into_iter().unzip();
        Self {
            trees,
            metas,
            next_id: points.len() as u32,
            dims: points.dims(),
            cache: Mutex::new(ResultCache { results: QueryCache::insertion_order(0), version: 0 }),
            metrics: MetricsHandle::noop(),
            labels: ShardLabels::default(),
        }
    }

    /// Attaches an exact-result query cache of `capacity` entries (0 turns it
    /// back off), keyed on `(query_bits, k)`. A hit is an exact answer for
    /// the live set: [`Self::insert`] folds the new point into every resident
    /// entry, [`Self::rebuild_shard`] changes no answer, and [`Self::remove`]
    /// drops them all. Where several points tie at the k-th distance a hit
    /// may name another of them than a recompute would — as a recompute after
    /// a rebuild may. The cache evicts in insertion order: a hit does not
    /// mark its entry as [`ResilientRouter`](crate::ResilientRouter)'s does.
    pub fn attach_cache(&mut self, capacity: usize) {
        lock(&self.cache).results = QueryCache::insertion_order(capacity);
    }

    /// How many inserts and removes the live set has seen.
    pub fn version(&self) -> u64 {
        lock(&self.cache).version
    }

    /// `(hits, misses, evictions, flushes)` of the attached cache. A flush
    /// is a [`Self::remove`] that found entries to drop; nothing else drops
    /// them.
    pub fn cache_stats(&self) -> (u64, u64, u64, u64) {
        lock(&self.cache).results.stats()
    }

    /// Attaches a metrics registry: rebuilds record their wall-clock duration
    /// (`serve.rebuild_us`), queries their latency (`serve.dyn_query_us`) and
    /// per-shard visit/prune counters.
    pub fn attach_metrics(&mut self, metrics: MetricsHandle) {
        let label = |name: &str| {
            (0..self.trees.len()).map(|s| format!("serve.{name}{{shard=\"{s}\"}}")).collect()
        };
        self.labels = ShardLabels {
            visits: label("dyn_shard_visits"),
            prunes: label("dyn_shard_prunes"),
            rebuilds: label("rebuilds"),
        };
        self.metrics = metrics;
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.trees.len()
    }

    /// Live points in shard `s` (directory view; no tree lock taken).
    pub(crate) fn shard_len(&self, s: usize) -> usize {
        lock(&self.metas[s]).len
    }

    /// Total live points across shards.
    pub fn len(&self) -> usize {
        (0..self.metas.len()).map(|s| self.shard_len(s)).sum()
    }

    /// Whether no live points remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a point, routing it to the shard whose sphere center is nearest
    /// (lowest shard index on ties) and growing that shard's sphere to keep it
    /// an enclosing bound. Returns the new global id. Panics, before changing
    /// anything, on a point [`Self::try_insert`] refuses.
    pub fn insert(&mut self, p: &[f32]) -> u32 {
        match self.try_insert(p) {
            Ok(g) => g,
            Err(e) => panic!("DynamicShardRouter::insert: {e}"),
        }
    }

    /// [`Self::insert`] for points from outside the program: a point of the
    /// wrong length or with a NaN or infinite coordinate is a typed error,
    /// and the router — trees, directory, version and cache — is left as it
    /// was.
    pub fn try_insert(&mut self, p: &[f32]) -> Result<u32, InsertError> {
        InsertError::check(p, self.dims)?;
        let target = (0..self.metas.len())
            .map(|s| (dist(p, &lock(&self.metas[s]).sphere.center), s))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(_, s)| s)
            .unwrap_or(0);
        let g = self.next_id;
        write(&self.trees[target]).try_insert_as(p, g)?;
        self.next_id += 1;
        {
            let mut meta = lock(&self.metas[target]);
            meta.len += 1;
            let c = dist(p, &meta.sphere.center);
            meta.sphere.radius = meta.sphere.radius.max(c);
        }
        // The point is in its tree: bring the resident answers up to the new
        // live set and move the version on, in one hold of the cache lock, so
        // no answer from before the insert is filed behind the absorb.
        let absorbed = {
            let mut cache = lock(&self.cache);
            cache.version += 1;
            cache.results.absorb(p, g)
        };
        if absorbed > 0 {
            self.metrics.counter("serve.dyn_cache_absorbed", absorbed as u64);
        }
        Ok(g)
    }

    /// Removes a point by global id; returns whether it was alive. The
    /// owning shard is found by asking each shard's tree under its read lock;
    /// only that shard is write-locked. The shard sphere is left as-is (still
    /// enclosing, just conservative). Drops every cached answer: the point
    /// that moves up into an answer's k-th place is not in the entry.
    pub fn remove(&mut self, id: u32) -> bool {
        let Some(s) = self.trees.iter().position(|tree| read(tree).contains(id)) else {
            return false;
        };
        let removed = write(&self.trees[s]).remove(id);
        if removed {
            lock(&self.metas[s]).len -= 1;
            let flushed = {
                let mut cache = lock(&self.cache);
                cache.version += 1;
                cache.results.flush()
            };
            if flushed {
                self.metrics.counter("serve.dyn_cache_flushes", 1);
            }
        }
        removed
    }

    /// Rebuilds shard `s`'s packed index aside: the live set is copied under
    /// the shard's *read* lock, the tree is built with no lock held, and the
    /// write lock is taken for the swap only — queries reach the shard all
    /// through the build, and the directory and every other shard never
    /// notice. Should the shard have changed under the build (it cannot while
    /// `insert` and `remove` take `&mut self`; [`DynamicSsTree::install`]
    /// checks rather than assumes), it is rebuilt in place under the write
    /// lock instead. The live set is the same before and after, so cached
    /// answers stay.
    ///
    /// With a registry attached, `serve.rebuild_us` is the whole call, lock
    /// waits included (what an operator watching rebuild latency cares
    /// about), `serve.rebuild_swap_us` is how long the write lock was held
    /// (how long readers of this shard were shut out), and
    /// `serve.rebuilds_in_place` counts the fallback.
    pub fn rebuild_shard(&self, s: usize) {
        let started = self.clock();
        let snapshot = read(&self.trees[s]).snapshot();
        let (swap_started, in_place) = self.swap_in(s, snapshot.map(Snapshot::build));
        let swap_us = swap_started.map(|t0| t0.elapsed().as_secs_f64() * 1e6);
        if let (Some(t0), Some(swap_us)) = (started, swap_us) {
            self.metrics.observe("serve.rebuild_us", t0.elapsed().as_secs_f64() * 1e6);
            self.metrics.observe("serve.rebuild_swap_us", swap_us);
            self.metrics.counter(&self.labels.rebuilds[s], 1);
            if in_place {
                self.metrics.counter("serve.rebuilds_in_place", 1);
            }
        }
    }

    /// `Some(now)` with a registry attached; a detached handle reads no clock.
    fn clock(&self) -> Option<std::time::Instant> {
        self.metrics.is_attached().then(std::time::Instant::now)
    }

    /// The locked step of a rebuild: installs `rebuilt` as shard `s`'s packed
    /// index, or rebuilds the shard in place when the install is refused as
    /// stale. Returns when the write lock was acquired (it is released on
    /// return) and whether the fallback ran.
    fn swap_in(&self, s: usize, rebuilt: Option<Rebuilt>) -> (Option<std::time::Instant>, bool) {
        let mut tree = write(&self.trees[s]);
        let acquired = self.clock();
        let in_place = rebuilt.is_some_and(|rebuilt| tree.install(rebuilt).is_err());
        if in_place {
            tree.rebuild();
        }
        (acquired, in_place)
    }

    /// Exact kNN over the live set, global ids. Shards are visited best-first
    /// by MINDIST to their directory sphere; a shard whose MINDIST exceeds the
    /// running bound (initialized from the MAXDIST prefix covering `k` points)
    /// is skipped without touching its tree lock.
    pub fn knn(&self, q: &[f32], k: usize) -> Vec<Neighbor> {
        assert!(k >= 1, "k must be at least 1");
        assert_eq!(q.len(), self.dims, "dimensionality mismatch");
        let m = &self.metrics;
        let started = m.is_attached().then(std::time::Instant::now);
        // Exact-result cache: every resident entry answers for the live set
        // as it is now. On a miss, note the version the answer will be
        // computed under.
        let mut miss = None;
        {
            let mut cache = lock(&self.cache);
            if cache.results.is_enabled() {
                let probe = CacheKey::new(q, k);
                if let Some(hit) = cache.results.get(&probe) {
                    if started.is_some() {
                        m.counter("serve.dyn_cache_hits", 1);
                    }
                    return hit;
                }
                if started.is_some() {
                    m.counter("serve.dyn_cache_misses", 1);
                }
                miss = Some((probe, cache.version));
            }
        }
        // Snapshot the directory under the brief meta locks.
        let plan = VisitPlan::new(q, k, self.metas.iter().map(lock), |meta| {
            (&meta.sphere, meta.len, false)
        });
        let mut best: Vec<Neighbor> = Vec::with_capacity(k + 1);
        for &Visit { shard: s, mindist, len, .. } in &plan.order {
            if len == 0 {
                continue;
            }
            let kth = if best.len() >= k { best[k - 1].dist } else { f32::INFINITY };
            if plan.prunes(mindist, kth) {
                if started.is_some() {
                    m.counter(&self.labels.prunes[s], 1);
                }
                continue;
            }
            if started.is_some() {
                m.counter(&self.labels.visits[s], 1);
            }
            best.extend(read(&self.trees[s]).knn(q, k));
            best.sort_by(Neighbor::by_rank);
            best.truncate(k);
        }
        if let Some((key, version)) = miss {
            let mut cache = lock(&self.cache);
            if cache.version == version {
                cache.results.insert(key, &best);
            }
        }
        if let Some(t0) = started {
            m.observe("serve.dyn_query_us", t0.elapsed().as_secs_f64() * 1e6);
            m.counter("serve.dyn_queries", 1);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn a_stale_build_is_not_installed_and_the_shard_is_rebuilt_in_place() {
        let ps = UniformSpec { len: 300, dims: 3, seed: 61 }.generate();
        let mut r = DynamicShardRouter::build(&ps, 2, &ShardPolicy::HilbertRange, 8);
        let mut mirror: Vec<(u32, Vec<f32>)> =
            (0..ps.len()).map(|i| (i as u32, ps.point(i).to_vec())).collect();
        let built_aside =
            |r: &DynamicShardRouter, s: usize| read(&r.trees[s]).snapshot().map(Snapshot::build);
        let pending = |r: &DynamicShardRouter, s: usize| read(&r.trees[s]).pending();
        // What `rebuild_shard` cannot meet while `insert` is `&mut self`: both
        // shards change between their snapshot and the swap.
        let stale = [built_aside(&r, 0), built_aside(&r, 1)];
        let extra = UniformSpec { len: 20, dims: 3, seed: 62 }.generate();
        for p in extra.iter() {
            mirror.push((r.insert(p), p.to_vec()));
        }
        for (s, rebuilt) in stale.into_iter().enumerate() {
            assert!(pending(&r, s) > 0, "shard {s} took no insert");
            assert_eq!(r.swap_in(s, rebuilt), (None, true), "shard {s}");
            assert_eq!(pending(&r, s), 0, "shard {s} was not rebuilt");
        }
        // A build of the shard as it is goes in.
        mirror.push((r.insert(&[0.5, 0.5, 0.5]), vec![0.5, 0.5, 0.5]));
        for s in 0..2 {
            assert_eq!(r.swap_in(s, built_aside(&r, s)), (None, false), "shard {s}");
            assert_eq!(pending(&r, s), 0);
        }
        for q in ps.iter().take(20) {
            assert_eq!(r.knn(q, 6), oracle(&mirror, q, 6));
        }
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
        // The swap is a part of the rebuild, and no rebuild fell back to
        // holding the write lock for all of it.
        assert_eq!(hist("serve.rebuild_swap_us").count, 4);
        assert!(hist("serve.rebuild_swap_us").max <= hist("serve.rebuild_us").max);
        assert_eq!(counter("serve.rebuilds_in_place"), 0);
        assert_eq!(hist("serve.dyn_query_us").count, 4);
        // Every shard decision was counted, visit or prune.
        let decisions: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| {
                k.starts_with("serve.dyn_shard_visits{") || k.starts_with("serve.dyn_shard_prunes{")
            })
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(decisions, 4 * r.num_shards() as u64);
    }

    #[test]
    fn a_non_finite_point_is_a_typed_error_and_changes_nothing() {
        let ps = UniformSpec { len: 300, dims: 3, seed: 71 }.generate();
        let mut r = DynamicShardRouter::build(&ps, 3, &ShardPolicy::HilbertRange, 8);
        r.attach_cache(8);
        let q = ps.point(7).to_vec();
        let answer = r.knn(&q, 5);
        let state = |r: &DynamicShardRouter| {
            let spheres: Vec<Sphere> = r.metas.iter().map(|m| lock(m).sphere.clone()).collect();
            let pending: Vec<usize> = r.trees.iter().map(|t| read(t).pending()).collect();
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
            let spheres: Vec<Sphere> = r.metas.iter().map(|m| lock(m).sphere.clone()).collect();
            let pending: Vec<usize> = r.trees.iter().map(|t| read(t).pending()).collect();
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
        (0..r.next_id).filter(|&id| read(&r.trees[s]).contains(id)).collect()
    }

    /// What a shard's tree holds: pending count and base rows, bit for bit.
    fn shard_state(r: &DynamicShardRouter, s: usize) -> (usize, Vec<(u32, Vec<u32>)>) {
        let tree = read(&r.trees[s]);
        let rows = tree.base_rows().map(|(id, p)| (id, p.iter().map(|x| x.to_bits()).collect()));
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
                assert_eq!((r.version(), r.cache_stats(), r.len()), before, "id {id} left a mark");
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
            let check = |r: &DynamicShardRouter, members: &[(PointSet, Vec<u32>)], when: &str| {
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
                let got = lock(&r.metas[s]).sphere.clone();
                assert_eq!(bits(&got.center), bits(&sphere.center), "{policy:?} shard {s}");
                assert_eq!(got.radius.to_bits(), sphere.radius.to_bits(), "{policy:?} shard {s}");
            }
            for p in extra.iter() {
                let id = r.insert(p);
                let s =
                    (0..r.num_shards()).find(|&s| read(&r.trees[s]).contains(id)).expect("owner");
                members[s].0.push(p);
                members[s].1.push(id);
            }
            for s in 0..r.num_shards() {
                r.rebuild_shard(s);
            }
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

    /// The satellite's non-blocking guarantee: with shard 0's tree
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
            let d0 = dist(&lock(&r.metas[0]).sphere.center, &b_center);
            let d1 = dist(&lock(&r.metas[1]).sphere.center, &b_center);
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
                let _guard = write(&r.trees[locked]);
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
        assert_eq!(r.shard_len(target), 100);
        assert!(
            elapsed < Duration::from_secs(10),
            "query waited on a locked shard it should have pruned ({elapsed:?})"
        );
    }
}
