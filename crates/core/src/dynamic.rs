//! Incremental updates over the bottom-up-packed SS-tree.
//!
//! The paper's §IV builds the index in batches because "top-down insertion ...
//! requires serialization of insert operations and excessive locking", and GPU
//! indexes in practice are rebuilt rather than mutated. [`DynamicSsTree`]
//! packages that pattern: inserts land in a host-side **delta buffer** that
//! queries scan exactly (brute force over the delta is cheap while it is
//! small), deletions are **tombstones** filtered out of results, and when the
//! delta or tombstone volume crosses a threshold the whole index is rebuilt
//! bottom-up — which is fast precisely because of the paper's parallel
//! construction.
//!
//! Queries remain exact at every moment; the structure trades a bounded
//! amount of per-query delta scanning for never paying top-down insertion.
//!
//! A rebuild is three steps — [`DynamicSsTree::snapshot`] copies the live set,
//! [`Snapshot::build`] packs a tree from the copy without touching the
//! structure it came from, [`DynamicSsTree::install`] swaps the tree in — so
//! a caller that shares the structure behind a lock holds it exclusively for
//! the swap only. [`DynamicSsTree::rebuild`] is the three in a row.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use psb_geom::{dist, PointSet};
use psb_gpu::{DeviceConfig, KernelStats};
use psb_sstree::{build, BuildMethod, Neighbor, SsTree};

use crate::kernels::psb::psb_query;
use crate::kernels::Kernel;
use crate::options::KernelOptions;

/// `row_of` entry of an id that is not alive.
const DEAD: u32 = u32::MAX;

/// Rebuild when `delta + tombstones > REBUILD_FRACTION × live points`.
const REBUILD_FRACTION: f64 = 0.2;

/// Numbers the [`DynamicSsTree`]s of this process, so [`DynamicSsTree::install`]
/// can tell its own tree's [`Rebuilt`] from another's at the same stamp.
static NEXT_TREE: AtomicU64 = AtomicU64::new(0);

/// An SS-tree with batched inserts, tombstoned deletes, and rebuild-on-demand.
pub struct DynamicSsTree {
    base: SsTree,
    method: BuildMethod,
    degree: usize,
    /// Points inserted since the last rebuild (scanned exactly by queries).
    delta: PointSet,
    /// External ids of the delta points, ascending: ids are handed out in
    /// order and a removal keeps the order of the rest.
    delta_ids: Vec<u32>,
    /// External ids removed since the last rebuild.
    tombstones: HashSet<u32>,
    /// Position in the base's build input → external id (fixed at rebuild).
    base_snapshot_ids: Vec<u32>,
    next_id: u32,
    /// All live coordinates, one row each: an insert appends a row, a remove
    /// moves the last row into the hole. A rebuild packs the rows as they lie.
    live: PointSet,
    /// External id of each row of `live`.
    live_ids: Vec<u32>,
    /// External id → row of `live`, [`DEAD`] once removed. One entry per id
    /// ever issued: ids are never reused, so it grows by 4 bytes an insert
    /// and no rebuild shrinks it (compacting it means rebasing the external
    /// ids on rebuild, with every owner map that stores them following).
    row_of: Vec<u32>,
    /// This tree's number in [`NEXT_TREE`]'s sequence.
    tree: u64,
    /// Counts inserts and removes: the version of the live set a
    /// [`Snapshot`] copied.
    stamp: u64,
}

/// A copy of a [`DynamicSsTree`]'s live set, and everything else a rebuild
/// reads — so the build can run while the tree keeps serving.
pub struct Snapshot {
    points: PointSet,
    ids: Vec<u32>,
    degree: usize,
    method: BuildMethod,
    tree: u64,
    stamp: u64,
}

/// A packed index built from a [`Snapshot`], ready for
/// [`DynamicSsTree::install`].
pub struct Rebuilt {
    base: SsTree,
    ids: Vec<u32>,
    tree: u64,
    stamp: u64,
}

/// [`DynamicSsTree::install`] refused a [`Rebuilt`]: a point was inserted or
/// removed after its snapshot was taken, or the snapshot was another tree's,
/// so it does not index the live set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stale;

/// [`DynamicSsTree::try_insert`] refused a point: its coordinate `dim` is NaN
/// or infinite. Such a point would sit in the delta buffer until the next
/// rebuild and fail there, inside the enclosing-sphere pass, far from the
/// insert that caused it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NonFinite {
    /// The first coordinate that is not finite.
    pub dim: usize,
}

impl std::fmt::Display for NonFinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the inserted point has a non-finite coordinate in dimension {}", self.dim)
    }
}

impl std::error::Error for NonFinite {}

impl Snapshot {
    /// Packs the copied live set bottom-up.
    ///
    /// The arena passes through [`psb_sstree::build()`], whose materialization
    /// runs [`SsTree::validate`] before returning — so every rebuild is
    /// structurally verified before queries touch it.
    pub fn build(self) -> Rebuilt {
        Rebuilt {
            base: build(&self.points, self.degree, &self.method),
            ids: self.ids,
            tree: self.tree,
            stamp: self.stamp,
        }
    }
}

impl DynamicSsTree {
    /// Builds the initial index. Initial points receive external ids
    /// `0..points.len()`.
    pub fn new(points: &PointSet, degree: usize, method: BuildMethod) -> Self {
        let base = build(points, degree, &method);
        let live_ids: Vec<u32> = (0..points.len() as u32).collect();
        Self {
            base,
            method,
            degree,
            base_snapshot_ids: live_ids.clone(),
            delta: PointSet::new(points.dims()),
            delta_ids: Vec::new(),
            tombstones: HashSet::new(),
            next_id: points.len() as u32,
            live: points.clone(),
            row_of: live_ids.clone(),
            live_ids,
            tree: NEXT_TREE.fetch_add(1, Ordering::Relaxed),
            stamp: 0,
        }
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether the structure holds no live points.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Points waiting in the delta buffer.
    pub fn pending(&self) -> usize {
        self.delta.len()
    }

    /// Inserts a point; returns its external id. May trigger a rebuild.
    /// Panics, before changing anything, on a point [`Self::try_insert`]
    /// refuses.
    pub fn insert(&mut self, p: &[f32]) -> u32 {
        match self.try_insert(p) {
            Ok(id) => id,
            Err(e) => panic!("DynamicSsTree::insert: {e}"),
        }
    }

    /// [`Self::insert`] for points from outside the program: a NaN or
    /// infinite coordinate is a typed error and the tree is left as it was.
    pub fn try_insert(&mut self, p: &[f32]) -> Result<u32, NonFinite> {
        assert_eq!(p.len(), self.base.dims, "dimensionality mismatch");
        if let Some(dim) = p.iter().position(|x| !x.is_finite()) {
            return Err(NonFinite { dim });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.delta.push(p);
        self.delta_ids.push(id);
        self.row_of.push(self.live.len() as u32);
        self.live.push(p);
        self.live_ids.push(id);
        self.stamp += 1;
        self.maybe_rebuild();
        Ok(id)
    }

    /// Removes a point by external id; returns whether it was alive.
    pub fn remove(&mut self, id: u32) -> bool {
        let row = match self.row_of.get(id as usize) {
            Some(&row) if row != DEAD => row as usize,
            _ => return false,
        };
        self.live.swap_remove(row);
        self.live_ids.swap_remove(row);
        if let Some(&moved) = self.live_ids.get(row) {
            self.row_of[moved as usize] = row as u32;
        }
        self.row_of[id as usize] = DEAD;
        self.stamp += 1;
        // A delta point can be dropped from the buffer outright.
        if let Ok(dpos) = self.delta_ids.binary_search(&id) {
            self.delta_ids.remove(dpos);
            self.delta.remove(dpos);
            return true;
        }
        self.tombstones.insert(id);
        self.maybe_rebuild();
        true
    }

    fn maybe_rebuild(&mut self) {
        let churn = self.delta.len() + self.tombstones.len();
        if churn as f64 > REBUILD_FRACTION * self.live.len().max(1) as f64 {
            self.rebuild();
        }
    }

    /// Copies the live set for a rebuild; `None` when there is no live point
    /// to build over.
    pub fn snapshot(&self) -> Option<Snapshot> {
        (!self.live.is_empty()).then(|| Snapshot {
            points: self.live.clone(),
            ids: self.live_ids.clone(),
            degree: self.degree,
            method: self.method.clone(),
            tree: self.tree,
            stamp: self.stamp,
        })
    }

    /// Makes `rebuilt` the packed index and clears delta and tombstones —
    /// unless the live set has changed since the snapshot it was built from
    /// (or the snapshot was not this tree's), in which case nothing changes
    /// and the caller snapshots again.
    ///
    /// External ids are preserved through the rebuild: the internal tree ids
    /// are remapped back to external ids on every query.
    pub fn install(&mut self, rebuilt: Rebuilt) -> Result<(), Stale> {
        if (rebuilt.tree, rebuilt.stamp) != (self.tree, self.stamp) {
            return Err(Stale);
        }
        self.base = rebuilt.base;
        self.base_snapshot_ids = rebuilt.ids;
        self.delta = PointSet::new(self.base.dims);
        self.delta_ids.clear();
        self.tombstones.clear();
        Ok(())
    }

    /// Rebuilds the packed index from the live set and clears
    /// delta/tombstones. With no live point the last base stays; queries
    /// return nothing via filters.
    pub fn rebuild(&mut self) {
        if let Some(snapshot) = self.snapshot() {
            let installed = self.install(snapshot.build());
            debug_assert_eq!(installed, Ok(()), "nothing can mutate between snapshot and install");
        }
    }

    /// Internal result id → external id. Base results carry positions into the
    /// dataset the base was last built from; the snapshot mapping taken at
    /// rebuild time translates them to stable external ids.
    fn external_id(&self, base_result_id: u32) -> u32 {
        self.base_snapshot_ids[base_result_id as usize]
    }

    /// Exact kNN on the CPU: query the base over-fetched by the tombstone
    /// count, filter, merge with an exact scan of the delta buffer.
    pub fn knn(&self, q: &[f32], k: usize) -> Vec<Neighbor> {
        assert!(k >= 1);
        if self.live.is_empty() {
            return Vec::new();
        }
        let over = k + self.tombstones.len();
        let mut merged: Vec<Neighbor> = psb_sstree::knn_best_first(&self.base, q, over)
            .into_iter()
            .map(|n| Neighbor { dist: n.dist, id: self.external_id(n.id) })
            .filter(|n| !self.tombstones.contains(&n.id))
            .collect();
        for (pos, p) in self.delta.iter().enumerate() {
            merged.push(Neighbor { dist: dist(q, p), id: self.delta_ids[pos] });
        }
        merged.sort_by(Neighbor::by_rank);
        merged.truncate(k.min(self.live.len()));
        merged
    }

    /// Exact kNN on the simulated GPU: PSB over the base plus a streamed scan
    /// of the delta buffer in the same block, counters merged.
    pub fn knn_gpu(
        &self,
        q: &[f32],
        k: usize,
        cfg: &DeviceConfig,
        opts: &KernelOptions,
    ) -> (Vec<Neighbor>, KernelStats) {
        assert!(k >= 1);
        if self.live.is_empty() {
            return (Vec::new(), KernelStats::default());
        }
        let over = k + self.tombstones.len();
        let (base_hits, mut stats) = psb_query(&self.base, q, over, cfg, opts);
        let mut merged: Vec<Neighbor> = base_hits
            .into_iter()
            .map(|n| Neighbor { dist: n.dist, id: self.external_id(n.id) })
            .filter(|n| !self.tombstones.contains(&n.id))
            .collect();
        if !self.delta.is_empty() {
            // The clamped scan every kNN kernel degrades to: at any dims the
            // delta's tile fits, and a row's id is its delta position.
            let (delta_hits, delta_stats) = Kernel::Psb { k }.scan(&self.delta, None, q, cfg, opts);
            stats.merge(&delta_stats);
            stats.blocks = 1; // one logical query
            merged.extend(
                delta_hits
                    .into_iter()
                    .map(|n| Neighbor { dist: n.dist, id: self.delta_ids[n.id as usize] }),
            );
        }
        merged.sort_by(Neighbor::by_rank);
        merged.truncate(k.min(self.live.len()));
        (merged, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_data::{sample_queries, ClusteredSpec};
    use psb_sstree::linear_knn;

    fn dataset() -> PointSet {
        ClusteredSpec { clusters: 4, points_per_cluster: 250, dims: 3, sigma: 80.0, seed: 151 }
            .generate()
    }

    /// Reference: linear scan over the live set with external ids.
    fn oracle(t: &DynamicSsTree, q: &[f32], k: usize) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> = t
            .live
            .iter()
            .zip(&t.live_ids)
            .map(|(p, &id)| Neighbor { dist: dist(q, p), id })
            .collect();
        v.sort_by(Neighbor::by_rank);
        v.truncate(k.min(v.len()));
        v
    }

    fn assert_matches(t: &DynamicSsTree, q: &[f32], k: usize) {
        let want = oracle(t, q, k);
        let got = t.knn(q, k);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!((g.dist - w.dist).abs() <= w.dist.max(1.0) * 1e-4);
        }
        let cfg = DeviceConfig::k40();
        let (gpu, _) = t.knn_gpu(q, k, &cfg, &KernelOptions::default());
        assert_eq!(gpu.len(), want.len());
        for (g, w) in gpu.iter().zip(&want) {
            assert!((g.dist - w.dist).abs() <= w.dist.max(1.0) * 1e-4);
        }
    }

    #[test]
    fn fresh_index_matches_static_search() {
        let ps = dataset();
        let t = DynamicSsTree::new(&ps, 16, BuildMethod::Hilbert);
        let q = sample_queries(&ps, 5, 0.01, 152);
        for qp in q.iter() {
            let want = linear_knn(&ps, qp, 8);
            let got = t.knn(qp, 8);
            for (g, w) in got.iter().zip(&want) {
                assert!((g.dist - w.dist).abs() <= w.dist.max(1.0) * 1e-4);
            }
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
        let before = (t.len(), t.pending(), t.stamp, t.knn(&probe, 5));
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for dim in 0..3 {
                let mut p = probe;
                p[dim] = bad;
                assert_eq!(t.try_insert(&p), Err(NonFinite { dim }), "{bad} in dimension {dim}");
            }
        }
        assert_eq!(t.try_insert(&[f32::NAN, 0.5, f32::INFINITY]), Err(NonFinite { dim: 0 }));
        assert!(
            before == (t.len(), t.pending(), t.stamp, t.knn(&probe, 5)),
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
        // Heavy churn: insert 30% new points, remove some old, some new.
        let mut new_ids = Vec::new();
        for i in 0..300 {
            let p = vec![i as f32 * 7.0, 100.0, -50.0];
            new_ids.push(t.insert(&p));
        }
        for id in 0..50u32 {
            t.remove(id);
        }
        for &id in new_ids.iter().take(25) {
            t.remove(id);
        }
        assert_eq!(t.len(), initial_len + 300 - 75);
        // After this much churn a rebuild must have fired (threshold 20%).
        assert!(t.pending() < 300, "delta was never flushed");
        let q = vec![700.0f32, 100.0, -50.0];
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
    /// it, short of the automatic rebuild threshold.
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
        assert_eq!(steps.install(rebuilt), Ok(()));
        assert_eq!(steps.pending(), 0);
        assert!(steps.tombstones.is_empty());
        assert!(base_image(&steps, "steps") == base_image(&whole, "whole"), "base images differ");
        assert_eq!(steps.knn(&PROBE, 9), whole.knn(&PROBE, 9));
        assert_matches(&steps, &PROBE, 9);
    }

    #[test]
    fn a_mutation_after_the_snapshot_makes_install_stale_and_changes_nothing() {
        type Mutation = fn(&mut DynamicSsTree);
        let mutations: [(&str, Mutation); 3] = [
            ("insert", |t| {
                t.insert(&PROBE);
            }),
            ("remove of a base point", |t| assert!(t.remove(5))),
            ("remove of a delta point", |t| assert!(t.remove(1010))),
        ];
        for (what, mutate) in mutations {
            let mut t = churned();
            let rebuilt = t.snapshot().expect("live points").build();
            mutate(&mut t);
            let before =
                (base_image(&t, "before"), t.pending(), t.tombstones.clone(), t.knn(&PROBE, 9));
            assert_eq!(t.install(rebuilt), Err(Stale), "{what}");
            let after =
                (base_image(&t, "after"), t.pending(), t.tombstones.clone(), t.knn(&PROBE, 9));
            assert!(before == after, "{what}: a refused install changed the tree");
            assert_matches(&t, &PROBE, 9);
            t.rebuild();
            assert_eq!(t.pending(), 0, "{what}");
            assert_matches(&t, &PROBE, 9);
        }
    }

    #[test]
    fn another_trees_build_at_the_same_stamp_is_stale() {
        let (mut ours, theirs) = (churned(), churned());
        assert_eq!(ours.stamp, theirs.stamp);
        let foreign = theirs.snapshot().expect("live points").build();
        let before = (base_image(&ours, "ours"), ours.pending(), ours.knn(&PROBE, 9));
        assert_eq!(ours.install(foreign), Err(Stale));
        assert!(before == (base_image(&ours, "ours"), ours.pending(), ours.knn(&PROBE, 9)));
        let own = ours.snapshot().expect("live points").build();
        assert_eq!(ours.install(own), Ok(()));
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
}
