//! The index abstraction the GPU kernels traverse.
//!
//! The paper's title promise is *parallel tree traversal for n-ary
//! multi-dimensional trees* — the traversal (PSB, branch-and-bound, restart,
//! range) is independent of the node *shape*. [`GpuIndex`] captures exactly
//! what a traversal needs: the flattened structure (contiguous children, dense
//! left-to-right leaf ids, parent links, subtree leaf ranges) plus a bounding-
//! volume evaluation with its instruction cost.
//!
//! Both bounding-volume families reach the kernels through **one**
//! implementation, on [`FlatTree<V>`](FlatTree) for any `V: Volumes`: the
//! SS-tree is `FlatTree<Spheres>` (one distance plus a radius add/subtract
//! yields MINDIST *and* MAXDIST), the packed R-tree in `psb-rtree` is
//! `FlatTree<Rects>` (per-facet work, and a separate farthest-corner pass for
//! MAXDIST), and node shape lives in their [`Volumes`] alone. Running the
//! identical kernel over both turns the paper's §II-C computational-cost
//! argument into a measurement.
//!
//! Three traits, split on what a kernel may assume. [`PointIndex`] is the flat
//! point array every index has — all the exact fallback scan reads.
//! [`GpuIndex`] adds the n-ary bounding-volume structure the table kernels
//! traverse; [`ImplicitKdIndex`] adds the heap arithmetic of the implicit
//! kd-tree (`psb-kdtree`'s `LbKdTree`), which has no bounding volumes at all.
//! Neither of the two extends the other, so handing a kd-tree to a
//! bounding-volume kernel does not type-check.

use psb_geom::DistKernel;
use psb_sstree::{FlatTree, Volumes};

pub use psb_sstree::SweepScratch;

/// Sentinel rope link: "no next subtree" — returned by [`GpuIndex::rope`] for
/// the root and every node on the rightmost root-to-leaf spine. Matches the
/// tree crates' own `NO_ROPE` constants bit-for-bit.
pub const NO_ROPE: u32 = u32::MAX;

/// The legacy gather path for [`GpuIndex::child_sweep`]: per-child scattered
/// loads through the node-major accessors. Default implementation and the
/// fallback when a packed arena is stale or absent.
pub fn gather_child_sweep<T: GpuIndex + ?Sized>(
    tree: &T,
    n: u32,
    q: &[f32],
    with_max: bool,
    with_anchor: bool,
    out: &mut SweepScratch,
) {
    for c in tree.children(n) {
        let (lo, hi) = tree.child_min_max(c, q, with_max);
        out.min_d.push(lo);
        if with_max {
            out.max_d.push(hi);
        }
    }
    if with_anchor {
        for c in tree.children(n) {
            out.anchor_d.push(tree.child_anchor_dist(c, q));
        }
    }
}

/// The legacy gather path for [`GpuIndex::leaf_sweep`]: per-point scattered
/// loads through the point accessors.
pub fn gather_leaf_sweep<T: GpuIndex + ?Sized>(
    tree: &T,
    n: u32,
    q: &[f32],
    out: &mut Vec<(f32, u32)>,
) {
    for p in tree.leaf_points(n) {
        out.push((psb_geom::dist(q, tree.point(p)), tree.point_id(p)));
    }
}

/// The flat (reordered) point array under every index family: what the exact
/// brute-force fallback scan reads, and all it reads — it follows no
/// structural link, which is what makes it safe on a tree whose links are
/// suspect.
pub trait PointIndex: Sync {
    /// Dimensionality of the indexed space.
    fn dims(&self) -> usize;
    /// Total number of indexed point positions (exclusive bound on valid
    /// positions).
    fn num_points(&self) -> usize;
    /// Coordinates of the point positions `range`: one contiguous run of
    /// row-major rows, the shape the batched distance kernels stream.
    fn rows(&self, range: std::ops::Range<usize>) -> &[f32];
    /// Coordinates at point position `pos`.
    fn point(&self, pos: usize) -> &[f32] {
        self.rows(pos..pos + 1)
    }
    /// Original dataset id at point position `pos`.
    fn point_id(&self, pos: usize) -> u32;
}

/// A flattened n-ary spatial index traversable by the data-parallel kernels.
///
/// Structural contract (checked by each implementation's `validate`):
/// children of a node are contiguous node ids; leaves are numbered densely
/// left-to-right and own contiguous runs of the reordered point array; every
/// node knows the max leaf id under it; `leaf_node_of(l + 1)` is the right
/// sibling of leaf `l`.
pub trait GpuIndex: PointIndex {
    /// Maximum children per node (= leaf capacity).
    fn degree(&self) -> usize;
    /// Root node id.
    fn root(&self) -> u32;
    /// Whether `n` is a leaf.
    fn is_leaf(&self, n: u32) -> bool;
    /// Children of internal node `n` (contiguous).
    fn children(&self, n: u32) -> std::ops::Range<u32>;
    /// Parent of `n` (undefined for the root).
    fn parent(&self, n: u32) -> u32;
    /// Point positions of leaf `n`.
    fn leaf_points(&self, n: u32) -> std::ops::Range<usize>;
    /// Dense left-to-right leaf number of leaf `n`.
    fn leaf_id(&self, n: u32) -> u32;
    /// Node id of leaf number `l`.
    fn leaf_node_of(&self, l: u32) -> u32;
    /// Number of leaves.
    fn num_leaves(&self) -> usize;
    /// Total number of nodes (exclusive bound on valid node ids). The
    /// hardened kernels bounds-check every followed link against this and
    /// derive their traversal step budget from it.
    fn num_nodes(&self) -> usize;
    /// Largest leaf id under `n`'s subtree.
    fn subtree_max_leaf(&self, n: u32) -> u32;
    /// Rope (escape) link of node `n`: the next node in depth-first preorder
    /// *after skipping `n`'s entire subtree* — the right sibling when one
    /// exists, else the nearest ancestor's right sibling — or [`NO_ROPE`] for
    /// the root and the rightmost spine. Stack-free traversals
    /// ([`KernelOptions::rope`](crate::KernelOptions)) follow it instead of
    /// backtracking through parent links or re-descending from the root.
    fn rope(&self, n: u32) -> u32;
    /// Depth of node `n` below the root (root = 0). Feeds the per-level visit
    /// histogram when a stack-free traversal arrives at a node without having
    /// tracked a descent counter.
    fn node_depth(&self, n: u32) -> u32;
    /// Total modeled device-resident footprint of the index in bytes: every
    /// node's fetched representation (internal child-volume blocks plus leaf
    /// point blocks — the arena *and* the reordered points it packs). This is
    /// the paper's index-memory comparison number, reported by `inspect` and
    /// as the repo benchmark's `index_bytes_per_point`.
    fn index_bytes(&self) -> u64;
    /// Bytes fetched for internal node `n` (its child bounding volumes, SoA).
    fn internal_node_bytes(&self, n: u32) -> u64;
    /// Bytes fetched for leaf node `n` (its points, SoA).
    fn leaf_node_bytes(&self, n: u32) -> u64;
    /// Bytes per child entry (for the AoS strided-layout ablation).
    fn child_entry_bytes(&self) -> u64;
    /// Bytes per point entry (for the AoS strided-layout ablation).
    fn point_entry_bytes(&self) -> u64;

    /// MINDIST (and MAXDIST when `with_max`) from `q` to child `c`'s bounding
    /// volume. When `with_max` is false the second component is unspecified.
    fn child_min_max(&self, c: u32, q: &[f32], with_max: bool) -> (f32, f32);

    /// Instruction cost of one `child_min_max` evaluation under the cost
    /// model. This is where sphere and rectangle indexes differ (§II-C).
    fn child_eval_cost(&self, with_max: bool) -> u64;

    /// Distance from `q` to child `c`'s representative point (sphere center /
    /// rectangle center). Used as the tie-break when several overlapping
    /// volumes report `MINDIST = 0` during the initial greedy descent.
    fn child_anchor_dist(&self, c: u32, q: &[f32]) -> f32;

    /// Evaluate every child of internal node `n` against `q` in one pass:
    /// MINDIST always, MAXDIST when `with_max`, anchor distance when
    /// `with_anchor`, appended to `out` in child order.
    ///
    /// The default gathers through the scattered per-child accessors exactly
    /// like the historical kernel loop; packed-arena implementations override
    /// it to stream one contiguous SoA block. Overrides must be **bit-identical**
    /// to the default — the sweep is a host-speed change only, pinned down by
    /// the layout-parity suite.
    fn child_sweep(
        &self,
        n: u32,
        q: &[f32],
        _dk: &DistKernel,
        with_max: bool,
        with_anchor: bool,
        out: &mut SweepScratch,
    ) {
        gather_child_sweep(self, n, q, with_max, with_anchor, out);
    }

    /// Evaluate every point of leaf node `n` against `q`, appending
    /// `(distance, original id)` pairs to `out` in point order. Same
    /// bit-identity contract as [`GpuIndex::child_sweep`]. `tmp` is pooled
    /// staging for the batched row kernels (arena implementations run
    /// [`DistKernel::dist_rows`] into it, then zip with the packed ids); the
    /// gather default ignores it.
    fn leaf_sweep(
        &self,
        n: u32,
        q: &[f32],
        _dk: &DistKernel,
        _tmp: &mut Vec<f32>,
        out: &mut Vec<(f32, u32)>,
    ) {
        gather_leaf_sweep(self, n, q, out);
    }
}

/// An implicit left-balanced kd-tree traversable by the stack-free kernel
/// (Wald's arithmetic parent-link traversal — see `kernels::stackfree`).
///
/// The index *is* the reordered points array: every node holds exactly one
/// point, children live at `2n + 1` / `2n + 2`, the root at 0, and the
/// splitting plane is the node's own coordinate in the round-robin dimension —
/// no bounding volumes, no child pointers, no per-node metadata. The trait
/// carries what the stack-free kernel reads and nothing else; the
/// [`PointIndex`] supertrait puts the family on the engine plumbing (the
/// recovery ladder's brute rung, scheduling).
///
/// It is **not** a [`GpuIndex`]: there is no bounding volume for PSB,
/// branch-and-bound, restart, range or the wave engine to evaluate, so routing
/// one of them here is a type error rather than a panic on a worker thread.
/// The stack-free launch type-checks —
///
/// ```
/// use psb_core::{stackfree_batch, KernelOptions};
/// let points = psb_data::UniformSpec { len: 64, dims: 3, seed: 1 }.generate();
/// let tree = psb_kdtree::LbKdTree::build(&points);
/// let cfg = psb_gpu::DeviceConfig::k40();
/// let found = stackfree_batch(&tree, &points, 4, &cfg, &KernelOptions::default());
/// assert_eq!(found.expect("a non-empty batch").neighbors.len(), 64);
/// ```
///
/// — and the same call through a bounding-volume kernel does not:
///
/// ```compile_fail,E0277
/// use psb_core::{psb_batch, KernelOptions};
/// let points = psb_data::UniformSpec { len: 64, dims: 3, seed: 1 }.generate();
/// let tree = psb_kdtree::LbKdTree::build(&points);
/// let cfg = psb_gpu::DeviceConfig::k40();
/// let found = psb_batch(&tree, &points, 4, &cfg, &KernelOptions::default());
/// assert_eq!(found.expect("a non-empty batch").neighbors.len(), 64);
/// ```
pub trait ImplicitKdIndex: PointIndex {
    /// Number of nodes (exclusive bound on valid node ids; the root is 0).
    fn num_nodes(&self) -> usize;
    /// Whether `n` is a leaf.
    fn is_leaf(&self, n: u32) -> bool;
    /// Parent of `n` (`u32::MAX` for the root: the walk's exit).
    fn parent(&self, n: u32) -> u32;
    /// Depth of node `n` below the root (root = 0), for the per-level visit
    /// histogram.
    fn node_depth(&self, n: u32) -> u32;
    /// Point position held by node `n`. The left-balanced layout stores one
    /// point per node in heap order, so the default is the identity.
    fn node_point(&self, n: u32) -> usize {
        n as usize
    }
    /// Splitting dimension of node `n` (round-robin by depth in Wald's
    /// construction).
    fn split_dim(&self, n: u32) -> usize;
    /// Bytes fetched per visited node — a node *is* one point entry.
    fn point_entry_bytes(&self) -> u64;
    /// Total modeled device-resident footprint of the index in bytes (see
    /// [`GpuIndex::index_bytes`]).
    fn index_bytes(&self) -> u64;
}

impl<V: Volumes> PointIndex for FlatTree<V> {
    fn dims(&self) -> usize {
        self.dims
    }
    fn num_points(&self) -> usize {
        self.points.len()
    }
    fn rows(&self, range: std::ops::Range<usize>) -> &[f32] {
        &self.points.as_flat()[range.start * self.dims..range.end * self.dims]
    }
    fn point_id(&self, pos: usize) -> u32 {
        self.point_ids[pos]
    }
}

impl<V: Volumes> GpuIndex for FlatTree<V> {
    fn degree(&self) -> usize {
        self.degree
    }
    fn root(&self) -> u32 {
        self.root
    }
    fn is_leaf(&self, n: u32) -> bool {
        FlatTree::is_leaf(self, n)
    }
    fn children(&self, n: u32) -> std::ops::Range<u32> {
        FlatTree::children(self, n)
    }
    fn parent(&self, n: u32) -> u32 {
        self.parent[n as usize]
    }
    fn leaf_points(&self, n: u32) -> std::ops::Range<usize> {
        FlatTree::leaf_points(self, n)
    }
    fn leaf_id(&self, n: u32) -> u32 {
        self.leaf_id[n as usize]
    }
    fn leaf_node_of(&self, l: u32) -> u32 {
        self.leaf_node_of[l as usize]
    }
    fn num_leaves(&self) -> usize {
        FlatTree::num_leaves(self)
    }
    fn num_nodes(&self) -> usize {
        FlatTree::num_nodes(self)
    }
    fn subtree_max_leaf(&self, n: u32) -> u32 {
        self.subtree_max_leaf[n as usize]
    }
    fn rope(&self, n: u32) -> u32 {
        // Every construction/load path derives ropes in `rebuild_arena`; an
        // empty array means a hand-assembled tree that skipped it — an API
        // misuse, not device corruption, so it asserts rather than erroring.
        assert!(!self.rope.is_empty(), "rope links missing: call rebuild_arena() first");
        self.rope[n as usize]
    }
    fn node_depth(&self, n: u32) -> u32 {
        (self.level[self.root as usize] - self.level[n as usize]) as u32
    }
    fn index_bytes(&self) -> u64 {
        // Node bytes already include the leaf point blocks: internal nodes
        // carry the child-volume SoA, leaves carry their packed points + ids.
        self.total_bytes()
    }
    fn internal_node_bytes(&self, n: u32) -> u64 {
        FlatTree::internal_node_bytes(self, n)
    }
    fn leaf_node_bytes(&self, n: u32) -> u64 {
        FlatTree::leaf_node_bytes(self, n)
    }
    fn child_entry_bytes(&self) -> u64 {
        FlatTree::child_entry_bytes(self)
    }
    fn point_entry_bytes(&self) -> u64 {
        FlatTree::point_entry_bytes(self)
    }

    fn child_min_max(&self, c: u32, q: &[f32], with_max: bool) -> (f32, f32) {
        self.volumes.min_max(self.dims, c as usize, q, with_max)
    }

    fn child_eval_cost(&self, with_max: bool) -> u64 {
        V::eval_cost(self.dims, with_max)
    }

    fn child_anchor_dist(&self, c: u32, q: &[f32]) -> f32 {
        self.volumes.anchor(self.dims, c as usize, q)
    }

    fn child_sweep(
        &self,
        n: u32,
        q: &[f32],
        dk: &DistKernel,
        with_max: bool,
        with_anchor: bool,
        out: &mut SweepScratch,
    ) {
        let kids = FlatTree::children(self, n);
        match self.arena.as_ref().and_then(|a| a.internal(n, kids.start, kids.len())) {
            // One pass over the node's packed SoA block — bit-identical to
            // the gather path (`tests/layout_parity.rs`).
            Some(block) => V::sweep(block, kids.len(), q, dk, with_max, with_anchor, out),
            // Stale/absent arena (stripped for benchmarking, or the tree was
            // mutated underneath it): the bounds-checked gather path.
            None => gather_child_sweep(self, n, q, with_max, with_anchor, out),
        }
    }

    fn leaf_sweep(
        &self,
        n: u32,
        q: &[f32],
        dk: &DistKernel,
        tmp: &mut Vec<f32>,
        out: &mut Vec<(f32, u32)>,
    ) {
        let run = FlatTree::leaf_points(self, n);
        let blk = self.arena.as_ref().and_then(|a| a.leaf(n, run.start as u32, run.len()));
        let Some(blk) = blk else {
            gather_leaf_sweep(self, n, q, out);
            return;
        };
        tmp.clear();
        dk.dist_rows(q, blk.coords, tmp);
        out.extend(tmp.iter().enumerate().map(|(i, &d)| (d, blk.id(i))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_data::ClusteredSpec;
    use psb_sstree::{build, BuildMethod, SsTree};

    #[test]
    fn sstree_implements_the_contract() {
        let ps =
            ClusteredSpec { clusters: 4, points_per_cluster: 200, dims: 3, sigma: 50.0, seed: 71 }
                .generate();
        let tree = build(&ps, 16, &BuildMethod::Hilbert);
        let t: &dyn Fn(&SsTree) = &|tree| {
            assert_eq!(PointIndex::dims(tree), 3);
            assert_eq!(GpuIndex::degree(tree), 16);
            let root = GpuIndex::root(tree);
            assert!(!GpuIndex::is_leaf(tree, root));
            let kids = GpuIndex::children(tree, root);
            assert!(!kids.is_empty());
            for c in kids {
                assert_eq!(GpuIndex::parent(tree, c), root);
            }
            // Leaf chain is dense and consistent.
            for l in 0..GpuIndex::num_leaves(tree) as u32 {
                let n = GpuIndex::leaf_node_of(tree, l);
                assert_eq!(GpuIndex::leaf_id(tree, n), l);
                assert_eq!(GpuIndex::subtree_max_leaf(tree, n), l);
            }
        };
        t(&tree);
    }

    #[test]
    fn sphere_min_max_from_one_distance() {
        let ps =
            ClusteredSpec { clusters: 2, points_per_cluster: 100, dims: 2, sigma: 20.0, seed: 72 }
                .generate();
        let tree = build(&ps, 8, &BuildMethod::Hilbert);
        let c = GpuIndex::children(&tree, tree.root).start;
        let q = vec![0.0f32, 0.0];
        let (lo, hi) = GpuIndex::child_min_max(&tree, c, &q, true);
        assert!(lo <= hi);
        assert_eq!(lo, tree.sphere(c).min_dist(&q));
        assert_eq!(hi, tree.sphere(c).max_dist(&q));
    }
}
