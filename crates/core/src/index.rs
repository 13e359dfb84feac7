//! The indexes the GPU kernels traverse.
//!
//! The paper's title promise is *parallel tree traversal for n-ary
//! multi-dimensional trees* — the traversal (PSB, branch-and-bound, restart,
//! range) is independent of the node *shape*. Both bounding-volume families
//! are one struct, [`FlatTree<V>`](FlatTree) for any `V: Volumes`, and the
//! kernels read it directly: the flattened structure (contiguous children,
//! dense left-to-right leaf ids, parent links, subtree leaf ranges) and
//! the per-node sweeps with their instruction cost are its inherent methods in
//! `psb-sstree`. The SS-tree is `FlatTree<Spheres>` (one distance plus a
//! radius add/subtract yields MINDIST *and* MAXDIST), the packed R-tree in
//! `psb-rtree` is `FlatTree<Rects>` (per-facet work, and a separate
//! farthest-corner pass for MAXDIST), and node shape lives in their
//! [`Volumes`] alone. Running the identical kernel over both turns the paper's
//! §II-C computational-cost argument into a measurement.
//!
//! The implicit kd-tree is not a `FlatTree`: `psb-kdtree`'s `LbKdTree` has no
//! bounding volumes at all, and the stack-free kernel reads it, and its heap
//! arithmetic, directly — so handing a kd-tree to a bounding-volume kernel
//! does not type-check. The exact brute-force scan every kernel degrades to
//! reads a point array and each row's id, whichever index they come from.

use psb_sstree::{FlatTree, Volumes};

pub use psb_sstree::SweepScratch;

/// The n-ary bounding-volume trees, as a name: [`FlatTree<V>`](FlatTree) is
/// the one index the table kernels, the wave engine and the routers traverse,
/// and they take it directly. The marker declares nothing; it stays because
/// the frozen repo benchmark imports the name.
pub trait GpuIndex {}

impl<V: Volumes> GpuIndex for FlatTree<V> {}
