//! The indexes the GPU kernels traverse.
//!
//! The paper's title promise is *parallel tree traversal for n-ary
//! multi-dimensional trees* — the traversal (PSB, branch-and-bound, restart,
//! range) is independent of the node *shape*. Both bounding-volume families
//! are one struct, [`FlatTree<V>`](FlatTree) for any `V: Volumes`, and the
//! kernels read it directly: the flattened structure (contiguous children,
//! dense left-to-right leaf ids, parent links, subtree leaf ranges, ropes) and
//! the per-node sweeps with their instruction cost are its inherent methods in
//! `psb-sstree`. The SS-tree is `FlatTree<Spheres>` (one distance plus a
//! radius add/subtract yields MINDIST *and* MAXDIST), the packed R-tree in
//! `psb-rtree` is `FlatTree<Rects>` (per-facet work, and a separate
//! farthest-corner pass for MAXDIST), and node shape lives in their
//! [`Volumes`] alone. Running the identical kernel over both turns the paper's
//! §II-C computational-cost argument into a measurement.
//!
//! Two traits cover what is not a `FlatTree`. [`PointIndex`] is the flat point
//! array every index has — all the exact fallback scan reads.
//! [`ImplicitKdIndex`] adds the heap arithmetic of the implicit kd-tree
//! (`psb-kdtree`'s `LbKdTree`), which has no bounding volumes at all, so
//! handing a kd-tree to a bounding-volume kernel does not type-check.

use psb_sstree::{FlatTree, Volumes};

pub use psb_sstree::tree::NO_ROPE;
pub use psb_sstree::SweepScratch;

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

/// The n-ary bounding-volume trees, as a name: [`FlatTree<V>`](FlatTree) is
/// the one index the table kernels, the wave engine and the routers traverse,
/// and they take it directly. The marker declares nothing; it stays because
/// the frozen repo benchmark imports the name.
pub trait GpuIndex {}

impl<V: Volumes> GpuIndex for FlatTree<V> {}

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
/// It is **not** a [`FlatTree`]: there is no bounding volume for PSB,
/// branch-and-bound, restart, range or the wave engine to evaluate, and they
/// take a `&FlatTree<V>`, so routing one of them here is a type error rather
/// than a panic on a worker thread. The stack-free launch type-checks —
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
/// ```compile_fail,E0308
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
    /// [`FlatTree::index_bytes`]).
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
