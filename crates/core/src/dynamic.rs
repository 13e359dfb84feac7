//! Incremental updates over a bottom-up-packed tree.
//!
//! The paper's §IV builds the index in batches because "top-down insertion ...
//! requires serialization of insert operations and excessive locking", and GPU
//! indexes in practice are rebuilt rather than mutated. [`DynamicTree`]
//! packages that pattern over either bounding-volume family: inserts land in
//! a host-side **delta buffer** that queries scan exactly, deletions are
//! **tombstones** that PSB's k-best list turns away before admitting a row,
//! and once the writes since the last rebuild cross a threshold
//! ([`DynamicTree::rebuild_due`]) the tree's owner rebuilds the whole index
//! bottom-up by Hilbert key; no write rebuilds by itself. Every query, timed,
//! metered or faulted, is one PSB launch over the base plus one scan of the
//! delta ([`DynamicTree::attempt`]), and exact.
//!
//! A rebuild is three steps — [`DynamicTree::snapshot`] copies the live set,
//! [`Snapshot::build`] packs a tree from the copy without touching the
//! structure it came from, [`DynamicTree::install`] swaps the tree in — so
//! a caller that shares the structure behind a lock holds it exclusively for
//! the swap only, and may keep writing while the build runs. The install
//! **rebases** those writes onto the new tree in O(writes since the
//! snapshot): a point inserted since has an id above every id the snapshot
//! holds and stays in the delta; an id removed since becomes a tombstone on
//! the new base, found by binary search over its ascending ids.
//! [`DynamicTree::rebuild`] is the three in a row.

use std::convert::Infallible;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use psb_geom::PointSet;
use psb_gpu::{DeviceConfig, FaultState, KernelStats, TraceSink};
use psb_sstree::{BuildMethod, FlatTree, Neighbor, Spheres, Volumes};

use crate::error::KernelError;
use crate::kernels::{Found, Kernel, Removed};
use crate::options::{KernelOptions, Metering};

/// A rebuild is due when `delta + removes since the base's snapshot >
/// REBUILD_FRACTION × live points`.
const REBUILD_FRACTION: f64 = 0.2;

/// Numbers the bases of this process's [`DynamicTree`]s, so
/// [`DynamicTree::install`] can assert that a [`Rebuilt`] is of its own
/// current base, not another tree's or one an install has since replaced.
static NEXT_TREE: AtomicU64 = AtomicU64::new(0);

/// A packed tree of family `V` with batched inserts, tombstoned deletes, and
/// rebuilds its owner starts. Callers give ids in strictly ascending order (asserted),
/// so two ascending id lists and a mark per base position are all the id
/// state there is.
pub struct DynamicTree<V: Volumes> {
    base: FlatTree<V>,
    /// Id of each base build-input position (the base's result ids), ascending.
    base_ids: Vec<u32>,
    /// Tombstones: the base positions removed since the last rebuild.
    removed: Vec<bool>,
    /// How many of `removed` are set.
    tombstones: usize,
    /// Points inserted since the last rebuild (scanned exactly by queries).
    delta: PointSet,
    /// Ids of the delta points, ascending, all above the base's.
    delta_ids: Vec<u32>,
    /// The highest id ever given: the next must be above it, so no id repeats.
    last_id: Option<u32>,
    /// The base's number in [`NEXT_TREE`]'s sequence; every install draws a
    /// new one.
    tree: u64,
    /// The id of every remove since the snapshot the base was built from,
    /// oldest first: what an install rebases onto its build. Only an install
    /// shortens it, and none can land between a snapshot and the install of
    /// its build (the base number would differ), so the removes that raced a
    /// build are the ones past the length its snapshot saw.
    log: Vec<u32>,
}

/// The mutable SS-tree.
pub type DynamicSsTree = DynamicTree<Spheres>;

/// A copy of a [`DynamicTree`]'s live set, and everything else a rebuild
/// reads — so the build can run while the tree keeps serving.
pub struct Snapshot<V> {
    points: PointSet,
    ids: Vec<u32>,
    degree: usize,
    tree: u64,
    /// The log's length at the snapshot.
    logged: usize,
    family: PhantomData<fn() -> V>,
}

/// A packed index built from a [`Snapshot`], ready for
/// [`DynamicTree::install`].
pub struct Rebuilt<V: Volumes> {
    base: FlatTree<V>,
    ids: Vec<u32>,
    /// One clear tombstone mark per id, allocated with the build so the
    /// install only sets the marks of the removes it rebases.
    removed: Vec<bool>,
    tree: u64,
    logged: usize,
}

/// Why [`DynamicTree::try_insert`] refused a point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertError {
    /// Coordinate `dim` is NaN or infinite. Such a point would sit in the
    /// delta buffer until the next rebuild and fail there, inside the
    /// enclosing-sphere pass, far from the insert that caused it.
    NonFinite { dim: usize },
    /// Coordinate `dim` lies beyond [`InsertError::coordinate_limit`]: the
    /// next rebuild's verifier would measure distances that overflow f32.
    OutOfRange { dim: usize },
    /// The point has `got` coordinates where the index has `expected`.
    Dims { expected: usize, got: usize },
}

impl InsertError {
    /// The check every insert of a point from outside the program runs
    /// before it changes anything: `p` has `dims` coordinates, all finite
    /// and within [`InsertError::coordinate_limit`].
    pub fn check(p: &[f32], dims: usize) -> Result<(), Self> {
        if p.len() != dims {
            return Err(Self::Dims { expected: dims, got: p.len() });
        }
        if let Some(dim) = p.iter().position(|x| !x.is_finite()) {
            return Err(Self::NonFinite { dim });
        }
        let limit = Self::coordinate_limit(dims);
        match p.iter().position(|x| x.abs() > limit) {
            Some(dim) => Err(Self::OutOfRange { dim }),
            None => Ok(()),
        }
    }

    /// The largest coordinate magnitude an insert may carry in `dims`
    /// dimensions: the largest power of two `L` with `dims · (2L)² ≤
    /// f32::MAX`, so the squared f32 distance between any two points inside
    /// `[-L, L]^dims` stays finite (2⁶² up to 3 dims, 2⁶¹ at 4 to 15).
    pub fn coordinate_limit(dims: usize) -> f32 {
        let log2 = (f64::from(f32::MAX).log2() - 2.0 - (dims as f64).log2()) / 2.0;
        2f32.powi(log2.floor() as i32)
    }
}

impl std::fmt::Display for InsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonFinite { dim } => {
                write!(f, "the inserted point has a non-finite coordinate in dimension {dim}")
            }
            Self::OutOfRange { dim } => {
                write!(f, "the inserted point's coordinate in dimension {dim} is out of range")
            }
            Self::Dims { expected, got } => {
                write!(f, "the inserted point has {got} coordinates, the index {expected}")
            }
        }
    }
}

impl std::error::Error for InsertError {}

impl<V: Volumes> Snapshot<V> {
    /// Packs the copied live set bottom-up by Hilbert key at the base's
    /// degree; the build validates the tree before queries touch it.
    pub fn build(self) -> Rebuilt<V> {
        Rebuilt {
            base: V::build_hilbert(&self.points, self.degree),
            removed: vec![false; self.ids.len()],
            ids: self.ids,
            tree: self.tree,
            logged: self.logged,
        }
    }
}

impl DynamicSsTree {
    /// Builds the initial index. Initial points receive ids
    /// `0..points.len()`. Every build of the mutable index packs by Hilbert
    /// key, so `_method` is not read.
    pub fn new(points: &PointSet, degree: usize, _method: BuildMethod) -> Self {
        Self::from_tree(Spheres::build_hilbert(points, degree), (0..points.len() as u32).collect())
    }
}

impl<V: Volumes> DynamicTree<V> {
    /// Takes `base` as the initial index, its build-input position `i`
    /// answering as `ids[i]`; rebuilds pack at `base`'s degree. Panics
    /// unless `ids` is strictly ascending, one per point.
    pub fn from_tree(base: FlatTree<V>, ids: Vec<u32>) -> Self {
        assert_eq!(ids.len(), base.points.len(), "one id per point");
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be strictly ascending");
        Self {
            removed: vec![false; ids.len()],
            tombstones: 0,
            delta: PointSet::new(base.dims),
            delta_ids: Vec::new(),
            last_id: ids.last().copied(),
            base_ids: ids,
            base,
            tree: NEXT_TREE.fetch_add(1, Ordering::Relaxed),
            log: Vec::new(),
        }
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.base_ids.len() - self.tombstones + self.delta.len()
    }

    /// Whether the structure holds no live points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Points waiting in the delta buffer.
    pub fn pending(&self) -> usize {
        self.delta.len()
    }

    /// Inserts a point; returns its id, one above the last id given.
    /// Panics, before changing anything, on a point [`Self::try_insert`]
    /// refuses.
    pub fn insert(&mut self, p: &[f32]) -> u32 {
        match self.try_insert(p) {
            Ok(id) => id,
            Err(e) => panic!("DynamicTree::insert: {e}"),
        }
    }

    /// [`Self::insert`] for points from outside the program: a point
    /// [`InsertError::check`] refuses is a typed error and the tree is left
    /// as it was.
    pub fn try_insert(&mut self, p: &[f32]) -> Result<u32, InsertError> {
        let id = self.last_id.map_or(0, |last| last + 1);
        self.try_insert_as(p, id).map(|()| id)
    }

    /// [`Self::try_insert`] with the caller's id, which must be above every id
    /// this tree was ever given (asserted once the point is accepted).
    pub fn try_insert_as(&mut self, p: &[f32], id: u32) -> Result<(), InsertError> {
        InsertError::check(p, self.base.dims)?;
        assert!(self.last_id < Some(id), "ids must be strictly ascending");
        self.last_id = Some(id);
        self.delta.push(p);
        self.delta_ids.push(id);
        Ok(())
    }

    /// The base position of `id`, if it is there and not removed.
    fn base_pos(&self, id: u32) -> Option<usize> {
        self.base_ids.binary_search(&id).ok().filter(|&pos| !self.removed[pos])
    }

    /// Whether `id` is alive here.
    pub fn contains(&self, id: u32) -> bool {
        self.delta_ids.binary_search(&id).is_ok() || self.base_pos(id).is_some()
    }

    /// Removes a point by id; returns whether it was alive.
    pub fn remove(&mut self, id: u32) -> bool {
        if let Ok(pos) = self.delta_ids.binary_search(&id) {
            // A delta point can be dropped from the buffer outright.
            self.delta_ids.remove(pos);
            self.delta.remove(pos);
        } else if let Some(pos) = self.base_pos(id) {
            self.removed[pos] = true;
            self.tombstones += 1;
        } else {
            return false;
        }
        self.log.push(id);
        true
    }

    /// Whether a rebuild is due: the pending inserts plus the removes logged
    /// since the base's snapshot pass a fifth of the live points, at least
    /// one of which is left to build over. No write rebuilds; the tree's
    /// owner rebuilds once this holds, which bounds the log too.
    pub fn rebuild_due(&self) -> bool {
        let churn = self.delta.len() + self.log.len();
        !self.is_empty() && churn as f64 > REBUILD_FRACTION * self.len() as f64
    }

    /// The base's live rows in its packed order, each with its id.
    pub fn base_rows(&self) -> impl Iterator<Item = (u32, &[f32])> {
        let base = &self.base;
        let rows = base.point_ids.iter().map(|&pos| pos as usize).zip(base.points.iter());
        rows.filter(|&(pos, _)| !self.removed[pos]).map(|(pos, p)| (self.base_ids[pos], p))
    }

    /// Copies the live set for a rebuild — the base's live rows in id order,
    /// then the delta — or `None` when there is no live point to build over.
    pub fn snapshot(&self) -> Option<Snapshot<V>> {
        // Base position → packed row: the inverse of the base's `point_ids`.
        let mut row_at = vec![0; self.base_ids.len()];
        for (row, &pos) in self.base.point_ids.iter().enumerate() {
            row_at[pos as usize] = row as u32;
        }
        let live = |pos: &usize| !self.removed[*pos];
        let rows: Vec<u32> = (0..row_at.len()).filter(live).map(|pos| row_at[pos]).collect();
        let mut points = self.base.points.gather(&rows);
        self.delta.iter().for_each(|p| points.push(p));
        let ids = (0..row_at.len()).filter(live).map(|pos| self.base_ids[pos]);
        (!points.is_empty()).then(|| Snapshot {
            points,
            ids: ids.chain(self.delta_ids.iter().copied()).collect(),
            degree: self.base.degree,
            tree: self.tree,
            logged: self.log.len(),
            family: PhantomData,
        })
    }

    /// Makes `rebuilt` the packed index and rebases onto it the writes made
    /// since its snapshot, in O(those writes): a point inserted since has an
    /// id above every id the snapshot holds, so the delta keeps exactly the
    /// ids above its newest; an id removed since is marked on the new base,
    /// found by binary search over the build's ascending ids (a removed
    /// post-snapshot insert is found in none). Panics, before changing
    /// anything, on a build of another tree's base: the writes since its
    /// snapshot cannot be rebased, and an owner that runs one build at a
    /// time never hands one over.
    pub fn install(&mut self, rebuilt: Rebuilt<V>) {
        assert_eq!(rebuilt.tree, self.tree, "a build of another tree's base");
        let Rebuilt { base, ids, mut removed, logged, .. } = rebuilt;
        let log = self.log.split_off(logged);
        let mut tombstones = 0;
        for &id in &log {
            if let Ok(pos) = ids.binary_search(&id) {
                removed[pos] = true;
                tombstones += 1;
            }
        }
        let newest = ids.last().copied();
        let kept = self.delta_ids.partition_point(|&id| Some(id) <= newest);
        let dims = self.base.dims;
        self.delta = PointSet::from_flat(dims, self.delta.as_flat()[kept * dims..].to_vec());
        self.delta_ids = self.delta_ids.split_off(kept);
        self.base = base;
        self.base_ids = ids;
        self.removed = removed;
        self.tombstones = tombstones;
        self.log = log;
        self.tree = NEXT_TREE.fetch_add(1, Ordering::Relaxed);
    }

    /// Rebuilds the packed index from the live set and clears
    /// delta/tombstones. With no live point the last base stays; queries
    /// return nothing via filters.
    pub fn rebuild(&mut self) {
        if let Some(snapshot) = self.snapshot() {
            self.install(snapshot.build());
        }
    }

    /// Exact kNN, unmetered: [`Self::knn_gpu`] under [`Metering::Off`], so
    /// its answer is that one's bit for bit.
    pub fn knn(&self, q: &[f32], k: usize) -> Vec<Neighbor> {
        let opts = KernelOptions { metering: Metering::Off, ..KernelOptions::default() };
        self.knn_gpu(q, k, &DeviceConfig::k40(), &opts).0
    }

    /// Exact kNN on the simulated GPU: [`Self::attempt`] on a fault-free
    /// device, untraced.
    pub fn knn_gpu(
        &self,
        q: &[f32],
        k: usize,
        cfg: &DeviceConfig,
        opts: &KernelOptions,
    ) -> (Vec<Neighbor>, KernelStats) {
        self.attempt(q, k, cfg, opts, None, None)
            .unwrap_or_else(|e| panic!("psb kernel failed on a trusted tree: {e}"))
    }

    /// One hardened launch for `q` under `faults`, `sink` tracing the base:
    /// PSB over the base, turning tombstoned rows away, plus a streamed scan
    /// of the delta, counters merged and rows merged in `(dist, id)` order,
    /// in this tree's ids. With nothing pending or removed it is
    /// [`Kernel::attempt`] over the base, counters and all.
    pub fn attempt(
        &self,
        q: &[f32],
        k: usize,
        cfg: &DeviceConfig,
        opts: &KernelOptions,
        faults: Option<FaultState>,
        sink: Option<&mut dyn TraceSink>,
    ) -> Result<(Vec<Neighbor>, KernelStats), KernelError> {
        let psb = Kernel::Psb { k };
        self.answer(q, k, cfg, opts, |removed| {
            psb.attempt_excluding(&self.base, q, removed, cfg, opts, faults, sink)
        })
    }

    /// The recovery ladder's last rung: [`Self::attempt`] with the base
    /// searched by the exact scan of its live rows, which follows no link
    /// and cannot fail.
    pub fn fallback(
        &self,
        q: &[f32],
        k: usize,
        cfg: &DeviceConfig,
        opts: &KernelOptions,
    ) -> (Vec<Neighbor>, KernelStats) {
        let (points, ids) = (&self.base.points, Some(&self.base.point_ids[..]));
        let scan =
            |removed: Removed<'_>| Ok(Kernel::Psb { k }.scan(points, ids, removed, q, cfg, opts));
        match self.answer::<Infallible>(q, k, cfg, opts, scan) {
            Ok(found) => found,
            Err(never) => match never {},
        }
    }

    /// `search`'s answer over the base (its ids are base positions, the
    /// tombstones handed to it) with the delta's scan merged in, both in this
    /// tree's ids.
    fn answer<E>(
        &self,
        q: &[f32],
        k: usize,
        cfg: &DeviceConfig,
        opts: &KernelOptions,
        search: impl FnOnce(Removed<'_>) -> Result<Found, E>,
    ) -> Result<Found, E> {
        assert!(k >= 1, "k must be at least 1");
        if self.is_empty() {
            return Ok((Vec::new(), KernelStats::default()));
        }
        let (mut hits, mut stats) = search(Removed::new(&self.removed, self.tombstones))?;
        // Base positions rank as their ids do, so the rows stay in order.
        for n in &mut hits {
            n.id = self.base_ids[n.id as usize];
        }
        if !self.delta.is_empty() {
            // The clamped scan every kNN kernel degrades to: at any dims the
            // delta's tile fits, and a row's id is its delta position.
            let psb = Kernel::Psb { k };
            let (delta_hits, delta_stats) =
                psb.scan(&self.delta, None, Removed::NONE, q, cfg, opts);
            stats.merge(&delta_stats);
            stats.blocks = 1; // one logical query
            let delta = delta_hits.into_iter();
            hits.extend(delta.map(|n| Neighbor { id: self.delta_ids[n.id as usize], ..n }));
            hits.sort_by(Neighbor::by_rank);
            hits.truncate(k);
        }
        Ok((hits, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_data::{sample_queries, ClusteredSpec};
    use psb_geom::dist;
    use psb_sstree::{build, linear_knn};

    fn dataset() -> PointSet {
        ClusteredSpec { clusters: 4, points_per_cluster: 250, dims: 3, sigma: 80.0, seed: 151 }
            .generate()
    }

    /// Reference: linear scan over the live set the tree would rebuild from.
    fn oracle(t: &DynamicSsTree, q: &[f32], k: usize) -> Vec<Neighbor> {
        let Some(live) = t.snapshot() else { return Vec::new() };
        let mut v: Vec<Neighbor> = live
            .points
            .iter()
            .zip(&live.ids)
            .map(|(p, &id)| Neighbor { dist: dist(q, p), id })
            .collect();
        v.sort_by(Neighbor::by_rank);
        v.truncate(k.min(v.len()));
        v
    }

    /// `(id, distance bits)` of each row: equality is bit-for-bit.
    fn bits(found: &[Neighbor]) -> Vec<(u32, u32)> {
        found.iter().map(|n| (n.id, n.dist.to_bits())).collect()
    }

    /// `knn` is exact, and the metered `knn_gpu` returns its very rows.
    fn assert_matches(t: &DynamicSsTree, q: &[f32], k: usize) {
        let want = oracle(t, q, k);
        let got = t.knn(q, k);
        assert_eq!(bits(&got), bits(&want), "got {got:?}\nwant {want:?}");
        let (gpu, _) = t.knn_gpu(q, k, &DeviceConfig::k40(), &KernelOptions::default());
        assert_eq!(bits(&gpu), bits(&got), "metering moved a neighbour");
    }

    #[test]
    fn fresh_index_matches_static_search() {
        let ps = dataset();
        let t = DynamicSsTree::new(&ps, 16, BuildMethod::Hilbert);
        let q = sample_queries(&ps, 5, 0.01, 152);
        for qp in q.iter() {
            let want = linear_knn(&ps, qp, 8);
            assert_eq!(bits(&t.knn(qp, 8)), bits(&want));
            assert_matches(&t, qp, 8);
        }
    }

    #[test]
    fn inserts_are_visible_immediately() {
        let ps = dataset();
        let mut t = DynamicSsTree::new(&ps, 16, BuildMethod::Hilbert);
        let probe = vec![99999.0f32, 99999.0, 99999.0];
        let id = t.insert(&probe);
        let got = t.knn(&probe, 1);
        assert_eq!(got[0].id, id);
        assert!(got[0].dist <= 1e-5);
        assert_matches(&t, &probe, 5);
    }

    #[test]
    fn non_finite_points_are_refused_at_the_door() {
        let mut t = DynamicSsTree::new(&dataset(), 16, BuildMethod::Hilbert);
        let probe = [100.0f32, 100.0, 100.0];
        let before = (t.len(), t.pending(), t.log.len(), t.knn(&probe, 5));
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for dim in 0..3 {
                let mut p = probe;
                p[dim] = bad;
                assert_eq!(
                    t.try_insert(&p),
                    Err(InsertError::NonFinite { dim }),
                    "{bad} in dimension {dim}"
                );
            }
        }
        assert_eq!(
            t.try_insert(&[f32::NAN, 0.5, f32::INFINITY]),
            Err(InsertError::NonFinite { dim: 0 })
        );
        assert!(
            before == (t.len(), t.pending(), t.log.len(), t.knn(&probe, 5)),
            "a refusal left a mark"
        );
        // What used to fail here, inside Ritter, long after the insert.
        t.rebuild();
        assert_eq!(t.try_insert(&probe), Ok(1000));
        assert_matches(&t, &probe, 5);
    }

    #[test]
    #[should_panic(expected = "non-finite coordinate in dimension 1")]
    fn insert_panics_at_the_door_on_a_non_finite_point() {
        DynamicSsTree::new(&dataset(), 16, BuildMethod::Hilbert).insert(&[0.5, f32::NAN, 0.5]);
    }

    #[test]
    fn removed_points_disappear() {
        let ps = dataset();
        let mut t = DynamicSsTree::new(&ps, 16, BuildMethod::Hilbert);
        let q = ps.point(100).to_vec();
        let before = t.knn(&q, 1);
        assert_eq!(before[0].id, 100);
        assert!(t.remove(100));
        let after = t.knn(&q, 1);
        assert_ne!(after[0].id, 100);
        assert!(!t.remove(100), "double remove must report absent");
        assert_matches(&t, &q, 8);
    }

    #[test]
    fn churn_triggers_rebuild_and_stays_exact() {
        let ps = dataset();
        let mut t = DynamicSsTree::new(&ps, 16, BuildMethod::Hilbert);
        let initial_len = t.len();
        // Heavy churn: insert 30% new points, remove some old, some new. A
        // rebuild turns due past a fifth of the live points; no write builds.
        let mut new_ids = Vec::new();
        for i in 0..300 {
            let p = vec![i as f32 * 7.0, 100.0, -50.0];
            new_ids.push(t.insert(&p));
            // 250 pending of 1 250 live is a fifth; the next insert passes it.
            assert_eq!(t.rebuild_due(), i >= 250, "insert {i}");
        }
        for id in 0..50u32 {
            t.remove(id);
        }
        for &id in new_ids.iter().take(25) {
            t.remove(id);
        }
        assert_eq!(t.len(), initial_len + 300 - 75);
        assert!(t.rebuild_due());
        assert_eq!(t.pending(), 275, "a write rebuilt");
        let q = vec![700.0f32, 100.0, -50.0];
        assert_matches(&t, &q, 12);
        t.rebuild();
        assert!(!t.rebuild_due());
        assert_eq!(t.pending(), 0, "the rebuild left the delta");
        assert_matches(&t, &q, 12);
    }

    #[test]
    fn delta_point_removal_shrinks_buffer() {
        let ps = dataset();
        let mut t = DynamicSsTree::new(&ps, 16, BuildMethod::Hilbert);
        let a = t.insert(&[1.0, 2.0, 3.0]);
        let b = t.insert(&[4.0, 5.0, 6.0]);
        assert_eq!(t.pending(), 2);
        assert!(t.remove(a));
        assert_eq!(t.pending(), 1);
        let got = t.knn(&[4.0, 5.0, 6.0], 1);
        assert_eq!(got[0].id, b);
    }

    /// A tree with a base removal, pending inserts and a delta removal behind
    /// it, short of a due rebuild.
    fn churned() -> DynamicSsTree {
        let mut t = DynamicSsTree::new(&dataset(), 16, BuildMethod::Hilbert);
        let ids: Vec<u32> = (0..40).map(|i| t.insert(&[i as f32 * 9.0, 40.0, -20.0])).collect();
        assert!(t.remove(17) && t.remove(ids[3]) && !t.remove(ids[3]) && !t.remove(u32::MAX));
        assert_eq!(t.pending(), 39);
        t
    }

    /// The bytes `persist::save` writes for the packed base.
    fn base_image(t: &DynamicSsTree, tag: &str) -> Vec<u8> {
        let path =
            std::env::temp_dir().join(format!("psb-dynamic-{}-{tag}.psbt", std::process::id()));
        psb_sstree::persist::save(&t.base, &path).expect("save");
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        bytes
    }

    const PROBE: [f32; 3] = [120.0, 40.0, -20.0];

    #[test]
    fn snapshot_build_install_is_rebuild() {
        let (mut whole, mut steps) = (churned(), churned());
        whole.rebuild();
        let rebuilt = steps.snapshot().expect("live points").build();
        // A remove that finds nothing is not a mutation.
        assert!(!steps.remove(17));
        steps.install(rebuilt);
        assert_eq!(steps.pending(), 0);
        assert_eq!(steps.tombstones, 0);
        assert!(base_image(&steps, "steps") == base_image(&whole, "whole"), "base images differ");
        assert_eq!(steps.knn(&PROBE, 9), whole.knn(&PROBE, 9));
        assert_matches(&steps, &PROBE, 9);
    }

    /// What a tree holds, bit for bit: the base's live rows in packed order,
    /// the live, pending and tombstone counts, and the answers at two probes.
    #[derive(PartialEq)]
    struct State {
        rows: Vec<(u32, Vec<u32>)>,
        counts: (usize, usize, usize),
        answers: Vec<(u32, u32)>,
    }

    fn state(t: &DynamicSsTree) -> State {
        let rows = t.base_rows().map(|(id, p)| (id, p.iter().map(|x| x.to_bits()).collect()));
        let answers = [PROBE, [30.0, 40.0, -20.0]].iter().flat_map(|q| bits(&t.knn(q, 9)));
        State {
            rows: rows.collect(),
            counts: (t.len(), t.pending(), t.tombstones),
            answers: answers.collect(),
        }
    }

    /// A write after the snapshot is rebased onto the build: the tree ends as
    /// one that rebuilt at the snapshot and then wrote.
    #[test]
    fn a_write_after_the_snapshot_is_rebased_onto_the_build() {
        type Mutation = fn(&mut DynamicSsTree);
        let mutations: [(&str, Mutation); 3] = [
            ("insert", |t| {
                t.insert(&PROBE);
            }),
            ("remove of a base point", |t| assert!(t.remove(5))),
            ("remove of a delta point", |t| assert!(t.remove(1010))),
        ];
        for (what, mutate) in mutations {
            let (mut t, mut never_raced) = (churned(), churned());
            let rebuilt = t.snapshot().expect("live points").build();
            mutate(&mut t);
            t.install(rebuilt);
            never_raced.rebuild();
            mutate(&mut never_raced);
            assert!(state(&t) == state(&never_raced), "{what}: the rebase is not a rebuild");
            assert!(base_image(&t, "raced") == base_image(&never_raced, "never"), "{what}");
            assert_matches(&t, &PROBE, 9);
            t.rebuild();
            assert_eq!(t.pending(), 0, "{what}");
            assert_matches(&t, &PROBE, 9);
        }
    }

    /// A build whose base a later install replaced is another tree's: its
    /// install panics.
    #[test]
    #[should_panic(expected = "a build of another tree's base")]
    fn a_build_of_a_replaced_base_is_stale() {
        let mut t = churned();
        let old = t.snapshot().expect("live points").build();
        t.insert(&PROBE);
        t.rebuild();
        assert!(t.remove(5));
        t.install(old);
    }

    /// One write of the exhaustive rebase check.
    #[derive(Clone, Copy, Debug)]
    enum Write {
        Insert,
        RemoveBase,
        RemovePending,
        RemoveRaced,
        RemoveDead,
    }

    /// Every sequence of up to three writes between `snapshot` and
    /// `install`, then one write after the install, against a sequential
    /// mirror: a tree that rebuilt at the snapshot and made the same writes.
    /// The two must hold the same base rows, live count, pending inserts and
    /// tombstones, and answer with the same ids and distance bits, which are
    /// a linear scan's. A base remove and a pre-snapshot pending remove take
    /// a different id at each step, near the probes; a raced remove takes the
    /// newest live post-snapshot insert (a sequence with none is skipped); a
    /// dead remove names an id removed before the snapshot.
    #[test]
    fn every_write_sequence_around_a_build_lands_as_a_sequential_mirror() {
        const WRITES: [Write; 5] = [
            Write::Insert,
            Write::RemoveBase,
            Write::RemovePending,
            Write::RemoveRaced,
            Write::RemoveDead,
        ];
        // 120 base points, eight pending inserts along a line through the
        // probe, a base and a pending point removed: a small `churned()`.
        let tree = || {
            let ps = ClusteredSpec {
                clusters: 2,
                points_per_cluster: 60,
                dims: 3,
                sigma: 60.0,
                seed: 159,
            }
            .generate();
            let mut t = DynamicSsTree::new(&ps, 8, BuildMethod::Hilbert);
            for i in 0..8 {
                t.insert(&[108.0 + 3.0 * i as f32, 40.0, -20.0]);
            }
            assert!(t.remove(3) && t.remove(121));
            t
        };
        let near: Vec<u32> = oracle(&tree(), &PROBE, 60).iter().map(|n| n.id).collect();
        let base_near: Vec<u32> = near.iter().copied().filter(|&id| id < 120).collect();
        let pending_near: Vec<u32> = near.iter().copied().filter(|&id| id >= 120).collect();
        assert!(base_near.len() >= 4 && pending_near.len() >= 4, "{near:?}");
        let mut sequences: Vec<Vec<Write>> = vec![Vec::new()];
        for len in 1..=3 {
            let shorter: Vec<Vec<Write>> =
                sequences.iter().filter(|s| s.len() == len - 1).cloned().collect();
            for s in shorter {
                sequences.extend(WRITES.iter().map(|&w| [&s[..], &[w]].concat()));
            }
        }
        assert_eq!(sequences.len(), 1 + 5 + 25 + 125);
        let mut checked = 0;
        for raced_writes in &sequences {
            'after: for after in WRITES {
                // The writes as inserts and removes by id, the same for both.
                let (mut next, mut raced) = (128u32, Vec::new());
                let mut ops = Vec::new();
                for (step, &w) in raced_writes.iter().chain([&after]).enumerate() {
                    ops.push(match w {
                        Write::Insert => {
                            raced.push(next);
                            next += 1;
                            Err([110.0 + step as f32, 40.0, -20.0])
                        }
                        Write::RemoveBase => Ok(base_near[step]),
                        Write::RemovePending => Ok(pending_near[step]),
                        Write::RemoveRaced => match raced.pop() {
                            Some(id) => Ok(id),
                            None => continue 'after,
                        },
                        Write::RemoveDead => Ok(3),
                    });
                }
                let apply = |t: &mut DynamicSsTree, op: &Result<u32, [f32; 3]>| match op {
                    Ok(id) => u32::from(t.remove(*id)),
                    Err(p) => t.insert(p),
                };
                let (mut t, mut mirror) = (tree(), tree());
                let rebuilt = t.snapshot().expect("live points").build();
                mirror.rebuild();
                let (before, later) = ops.split_at(raced_writes.len());
                for op in before {
                    assert_eq!(apply(&mut t, op), apply(&mut mirror, op));
                }
                t.install(rebuilt);
                assert_eq!(apply(&mut t, &later[0]), apply(&mut mirror, &later[0]));
                let what = format!("{raced_writes:?} then {after:?}");
                let (got, want) = (state(&t), state(&mirror));
                assert_eq!(got.counts, want.counts, "{what}: live, pending, tombstones");
                assert_eq!(got.answers, want.answers, "{what}: answers");
                assert!(got.rows == want.rows, "{what}: base rows");
                assert_matches(&t, &PROBE, 9);
                checked += 1;
            }
        }
        assert!(checked >= 400, "only {checked} sequences checked");
    }

    /// Another tree's build, snapshotted at the same log length, is not of
    /// this tree's base: its install panics.
    #[test]
    #[should_panic(expected = "a build of another tree's base")]
    fn another_trees_build_at_the_same_stamp_is_stale() {
        let (mut ours, theirs) = (churned(), churned());
        assert_eq!(ours.log.len(), theirs.log.len());
        ours.install(theirs.snapshot().expect("live points").build());
    }

    #[test]
    fn empty_after_removing_everything() {
        let mut small = PointSet::new(2);
        for i in 0..5 {
            small.push(&[i as f32, 0.0]);
        }
        let mut t = DynamicSsTree::new(&small, 4, BuildMethod::Hilbert);
        for id in 0..5u32 {
            t.remove(id);
        }
        assert!(t.is_empty());
        assert!(t.knn(&[0.0, 0.0], 3).is_empty());
        assert!(t.snapshot().is_none(), "nothing to build over");
        t.rebuild();
        let id = t.insert(&[2.0, 2.0]);
        assert_eq!(
            t.knn(&[0.0, 0.0], 3),
            vec![Neighbor { dist: dist(&[0.0, 0.0], &[2.0, 2.0]), id }]
        );
    }

    #[test]
    fn a_wrong_length_point_is_a_typed_error_and_changes_nothing() {
        let mut t = churned();
        let state = |t: &DynamicSsTree| (t.len(), t.pending(), t.log.len(), t.knn(&PROBE, 9));
        let before = state(&t);
        for p in [&[][..], &[1.0], &[1.0, 2.0], &[1.0, 2.0, 3.0, 4.0], &[f32::NAN; 2]] {
            let want = InsertError::Dims { expected: 3, got: p.len() };
            assert_eq!(t.try_insert(p), Err(want));
            assert_eq!(t.try_insert_as(p, u32::MAX), Err(want));
        }
        assert!(before == state(&t), "a refusal left a mark");
        assert_eq!(t.try_insert(&PROBE), Ok(1040), "and used up no id");
    }

    #[test]
    #[should_panic(expected = "2 coordinates, the index 3")]
    fn insert_panics_at_the_door_on_a_wrong_length_point() {
        DynamicSsTree::new(&dataset(), 16, BuildMethod::Hilbert).insert(&[0.5, 0.5]);
    }

    /// Churns a tree through ten times its live count in inserts and removes,
    /// rebuilding whenever one is due as an owner does, checking the id lists
    /// and the snapshot against a mirror after every step.
    #[test]
    fn the_state_is_sized_by_live_points() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::BTreeMap;
        let initial =
            ClusteredSpec { clusters: 3, points_per_cluster: 100, dims: 3, sigma: 50.0, seed: 153 }
                .generate();
        let mut t = DynamicSsTree::new(&initial, 8, BuildMethod::Hilbert);
        let mut mirror: BTreeMap<u32, Vec<f32>> =
            initial.iter().enumerate().map(|(i, p)| (i as u32, p.to_vec())).collect();
        let mut rng = StdRng::seed_from_u64(154);
        let mut rebuilds = 0;
        for step in 0..10 * initial.len() {
            let churn_before = t.pending() + t.tombstones;
            if rng.gen_bool(0.5) {
                let p: Vec<f32> = (0..3).map(|_| rng.gen_range(-500.0f32..500.0)).collect();
                mirror.insert(t.insert(&p), p);
            } else if rng.gen_bool(0.9) && !mirror.is_empty() {
                let id = *mirror.keys().nth(rng.gen_range(0..mirror.len())).expect("live id");
                assert!(t.remove(id), "step {step}: live id {id}");
                mirror.remove(&id);
            } else {
                let id = rng.gen_range(0..t.last_id.map_or(0, |last| last + 10));
                assert_eq!(t.remove(id), mirror.remove(&id).is_some(), "step {step}: id {id}");
            }
            if t.rebuild_due() {
                t.rebuild();
            }
            if churn_before > 0 && t.pending() + t.tombstones == 0 {
                rebuilds += 1;
            }
            let ascending = |ids: &[u32]| ids.windows(2).all(|w| w[0] < w[1]);
            assert!(ascending(&t.base_ids) && ascending(&t.delta_ids), "step {step}");
            assert!(t.delta_ids.first() > t.base_ids.last() || t.delta_ids.is_empty());
            assert_eq!(t.removed.len(), t.base_ids.len());
            assert_eq!(t.removed.iter().filter(|&&r| r).count(), t.tombstones);
            assert!(t.tombstones <= t.log.len(), "step {step}: a tombstone is not logged");
            let listed: Vec<u32> = t
                .base_ids
                .iter()
                .zip(&t.removed)
                .filter(|(_, &removed)| !removed)
                .map(|(&id, _)| id)
                .chain(t.delta_ids.iter().copied())
                .collect();
            assert!(listed.iter().eq(mirror.keys()), "step {step}: the lists are not the live ids");
            assert_eq!(t.len(), mirror.len());
            // Nothing beyond the live set and the churn a rebuild is due at.
            assert!(t.pending() + t.tombstones <= t.len() / 5 + 1, "step {step}");
            assert!(t.pending() + t.log.len() <= t.len() / 5 + 1, "step {step}: the log");
            let live = t.snapshot().expect("live points");
            assert!(live.ids.iter().eq(mirror.keys()), "step {step}: snapshot out of id order");
            assert!(live.points.iter().zip(mirror.values()).all(|(a, b)| a == &b[..]));
            if step % 100 == 0 {
                assert_matches(&t, &PROBE, 7);
            }
        }
        assert!(rebuilds >= 5, "only {rebuilds} rebuilds");
    }

    #[test]
    fn from_tree_answers_like_new_relabelled() {
        let ps = dataset();
        let ids: Vec<u32> = (0..ps.len() as u32).map(|i| 3 * i + 5).collect();
        let plain = DynamicSsTree::new(&ps, 16, BuildMethod::Hilbert);
        let labelled = DynamicSsTree::from_tree(build(&ps, 16, &BuildMethod::Hilbert), ids.clone());
        let relabel = |v: Vec<Neighbor>| -> Vec<Neighbor> {
            v.into_iter().map(|n| Neighbor { id: ids[n.id as usize], ..n }).collect()
        };
        let (cfg, opts) = (DeviceConfig::k40(), KernelOptions::default());
        for q in sample_queries(&ps, 8, 0.01, 155).iter() {
            assert_eq!(labelled.knn(q, 9), relabel(plain.knn(q, 9)));
            let (want, want_stats) = plain.knn_gpu(q, 9, &cfg, &opts);
            let (got, got_stats) = labelled.knn_gpu(q, 9, &cfg, &opts);
            assert_eq!(got, relabel(want));
            assert_eq!(format!("{got_stats:?}"), format!("{want_stats:?}"));
        }
        let mut labelled = labelled;
        assert_eq!(labelled.insert(&PROBE), 3 * 999 + 6, "one above the last id");
    }

    #[test]
    #[should_panic(expected = "ids must be strictly ascending")]
    fn a_non_ascending_id_list_panics() {
        let ps = dataset();
        let mut ids: Vec<u32> = (0..ps.len() as u32).collect();
        ids.swap(10, 11);
        DynamicSsTree::from_tree(build(&ps, 16, &BuildMethod::Hilbert), ids);
    }

    #[test]
    #[should_panic(expected = "ids must be strictly ascending")]
    fn an_insert_id_at_or_below_the_last_panics() {
        let mut t = churned();
        let last = t.delta_ids.last().copied().expect("a pending insert");
        t.try_insert_as(&PROBE, last).ok();
    }

    /// A query whose nearest points are all removed still gets exactly k
    /// live rows: tombstones are turned away inside the k-best list, and the
    /// k-th MAXDIST bound is taken at rank k + tombstones, since a subtree
    /// whose every point is removed holds nothing within its MAXDIST. Held
    /// on small degrees, where whole leaves go, for the tree's own query and
    /// for each kNN kernel over the base with the same marks, both meterings.
    #[test]
    fn a_query_whose_nearest_points_are_all_removed_gets_k_live_rows() {
        let ps = dataset();
        let cfg = DeviceConfig::k40();
        for degree in [4, 8, 64] {
            for k in [1usize, 4, 9] {
                for q in sample_queries(&ps, 4, 0.01, 156).iter() {
                    let mut t = DynamicSsTree::new(&ps, degree, BuildMethod::Hilbert);
                    for n in oracle(&t, q, 5 * k) {
                        assert!(t.remove(n.id));
                    }
                    assert_eq!(t.tombstones, 5 * k, "no rebuild in between");
                    let got = t.knn(q, k);
                    assert_eq!(got.len(), k);
                    assert_matches(&t, q, k);
                    let want = oracle(&t, q, k);
                    // With `new`, a base position is its id.
                    let removed = Removed::new(&t.removed, t.tombstones);
                    for kernel in [Kernel::Psb { k }, Kernel::Bnb { k }, Kernel::Restart { k }] {
                        for metering in [Metering::Simulated, Metering::Off] {
                            let opts = KernelOptions { metering, ..KernelOptions::default() };
                            let (found, _) = kernel
                                .attempt_excluding(&t.base, q, removed, &cfg, &opts, None, None)
                                .expect("no faults");
                            assert_eq!(
                                bits(&found),
                                bits(&want),
                                "{kernel:?} {metering:?} degree {degree}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// `knn` is `knn_gpu` under `Metering::Off`, bit for bit, through
    /// pending inserts, tombstones and rebuilds; and on a tree with nothing
    /// marked and nothing pending, the metered query is PSB over the base,
    /// counters and all.
    #[test]
    fn knn_is_knn_gpu_unmetered_bit_for_bit() {
        let cfg = DeviceConfig::k40();
        let off = KernelOptions { metering: Metering::Off, ..KernelOptions::default() };
        let queries = sample_queries(&dataset(), 12, 0.01, 157);
        let mut t = churned();
        for round in 0..3 {
            for q in queries.iter().chain([&PROBE[..]]) {
                for k in [1, 7, 40] {
                    let (unmetered, _) = t.knn_gpu(q, k, &cfg, &off);
                    assert_eq!(bits(&t.knn(q, k)), bits(&unmetered), "round {round} k {k}");
                    assert_matches(&t, q, k);
                }
            }
            t.rebuild();
            for id in (round * 50..round * 50 + 30).step_by(3) {
                t.remove(id);
            }
        }
        let fresh = DynamicSsTree::new(&dataset(), 16, BuildMethod::Hilbert);
        let opts = KernelOptions::default();
        for q in queries.iter() {
            let (got, stats) = fresh.knn_gpu(q, 8, &cfg, &opts);
            let (want, want_stats) = crate::kernels::psb::psb_query(&fresh.base, q, 8, &cfg, &opts);
            assert_eq!(bits(&got), bits(&want));
            assert_eq!(stats, want_stats);
        }
    }

    /// The k-th MAXDIST bound counts the tombstones: with every point of one
    /// leaf marked and the query at that leaf's centroid, the emptied leaf
    /// has the smallest MAXDIST of its siblings, and a bound at rank k would
    /// prune the live neighbours outside it. The points are a grid of tight
    /// groups of four, far apart, so a leaf of a degree-4 tree is one group
    /// and its MAXDIST is far below every other group's MINDIST. Every leaf
    /// of a degree-4 and a degree-8 tree, k = 1 and 2, each kNN kernel with
    /// the same marks.
    #[test]
    fn an_emptied_leaf_does_not_bound_the_search() {
        let mut ps = PointSet::new(2);
        for cell in 0..256 {
            let (x, y) = ((cell % 16) as f32 * 10.0, (cell / 16) as f32 * 10.0);
            for (dx, dy) in [(0.0, 0.0), (0.002, 0.0), (0.0, 0.002), (0.002, 0.002)] {
                ps.push(&[x + dx, y + dy]);
            }
        }
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        for degree in [4, 8] {
            let tree = build(&ps, degree, &BuildMethod::Hilbert);
            for lid in 0..tree.num_leaves() as u32 {
                let rows = tree.leaf_points(tree.leaf_node_of(lid));
                let mut marks = vec![false; ps.len()];
                let mut q = vec![0.0f32; ps.dims()];
                for row in rows.clone() {
                    marks[tree.point_ids[row] as usize] = true;
                    for (c, &x) in q.iter_mut().zip(tree.points.point(row)) {
                        *c += x / rows.len() as f32;
                    }
                }
                let removed = Removed::new(&marks, rows.len());
                let mut live: Vec<Neighbor> = (0..ps.len())
                    .filter(|&i| !marks[i])
                    .map(|i| Neighbor { dist: dist(&q, ps.point(i)), id: i as u32 })
                    .collect();
                live.sort_by(Neighbor::by_rank);
                for k in [1usize, 2] {
                    let want = bits(&live[..k]);
                    for kernel in [Kernel::Psb { k }, Kernel::Bnb { k }, Kernel::Restart { k }] {
                        let no_faults =
                            kernel.attempt_excluding(&tree, &q, removed, &cfg, &opts, None, None);
                        let (found, _) = no_faults.expect("no faults");
                        assert_eq!(bits(&found), want, "{kernel:?} degree {degree} leaf {lid}");
                        assert!(found.iter().all(|n| !marks[n.id as usize]));
                    }
                }
            }
        }
    }

    /// The insert side of a finite point the next rebuild cannot verify: 64
    /// points along (1 + t, 2 − t) at degree 4, then inserts near (1e20,
    /// 1e20). Each is refused at the door and leaves no mark; points at the
    /// limit, in every corner, are taken, and a rebuild over them packs a
    /// tree that answers exactly.
    #[test]
    fn an_out_of_range_insert_is_refused_and_a_point_at_the_limit_rebuilds() {
        let mut line = PointSet::new(2);
        for i in 0..64 {
            let t = i as f32 / 64.0;
            line.push(&[1.0 + t, 2.0 - t]);
        }
        let mut t = DynamicSsTree::new(&line, 4, BuildMethod::Hilbert);
        let probe = [1.5f32, 1.5];
        let state =
            |t: &DynamicSsTree| (t.len(), t.pending(), t.log.len(), bits(&t.knn(&probe, 5)));
        let before = state(&t);
        for i in 0..20 {
            let far = [1e20 + i as f32 * 1e14, 1e20];
            assert_eq!(t.try_insert(&far), Err(InsertError::OutOfRange { dim: 0 }), "insert {i}");
            assert_eq!(t.try_insert(&[1.0, -far[0]]), Err(InsertError::OutOfRange { dim: 1 }));
        }
        assert!(before == state(&t), "a refusal left a mark");
        let limit = InsertError::coordinate_limit(2);
        assert_eq!(limit, 2f32.powi(62));
        assert_eq!(t.try_insert(&[limit.next_up(), 0.0]), Err(InsertError::OutOfRange { dim: 0 }));
        for corner in [[limit, limit], [-limit, -limit], [limit, -limit], [-limit, limit]] {
            t.insert(&corner);
        }
        t.rebuild();
        assert_eq!(t.pending(), 0);
        for q in [probe, [limit, limit], [0.0, -limit], [-limit, 1.0]] {
            assert_matches(&t, &q, 6);
        }
        assert_eq!(InsertError::coordinate_limit(4), 2f32.powi(61));
        assert_eq!(InsertError::coordinate_limit(16), 2f32.powi(60));
    }

    /// The brute rung turns tombstones away as PSB does, and scans the delta:
    /// it answers with [`DynamicTree::attempt`]'s rows, through pending
    /// inserts, base and delta removals, and a query on a removed point.
    #[test]
    fn the_fallback_answers_with_the_attempts_rows() {
        let (cfg, opts) = (DeviceConfig::k40(), KernelOptions::default());
        let t = churned();
        let on_removed = dataset().point(17).to_vec();
        for q in sample_queries(&dataset(), 8, 0.01, 158).iter().chain([&PROBE[..], &on_removed]) {
            for k in [1, 9, 60] {
                let (scanned, _) = t.fallback(q, k, &cfg, &opts);
                let (searched, _) = t.attempt(q, k, &cfg, &opts, None, None).expect("no faults");
                assert_eq!(bits(&scanned), bits(&searched), "k {k}");
                assert!(scanned.iter().all(|n| t.contains(n.id)), "a removed row came back");
            }
        }
    }
}
