//! The packed per-node device arena: the layout `internal_node_bytes` claims,
//! made real on the host.
//!
//! The [`FlatTree`] stores node geometry node-major. The simulated GPU meters
//! a node fetch as one linear SoA block (§V-A of the paper: "we store the
//! bounding spheres of child nodes as the structure of array (SOA)"); this
//! module builds that block for real so host sweeps stream one contiguous,
//! 64-byte-aligned run per node, whatever the node shape.
//!
//! Per **internal** node the block is the family's [`Volumes::pack`] of its
//! child run — `cnt × lanes(dims)` f32 (spheres: centers then radii;
//! rectangles: low corners then high corners). Per **leaf** node:
//!
//! ```text
//! [ point coords: cnt × dims f32 | point ids: cnt ]
//! ```
//!
//! Child ids and subtree leaf ranges are **not** packed: kernels take them
//! from the node-major arrays (`children()`, `subtree_max_leaf()`), and the
//! modelled device block (`internal_node_bytes`) charges for them regardless.
//! Point ids are stored as raw `u32` bit patterns inside the `f32` pool
//! (`f32::from_bits` / `to_bits` round-trip losslessly); every block starts on
//! a 64-byte boundary inside one [`AlignedF32`] pool.
//!
//! The arena is a **pure cache**: it is rebuilt from the tree after every
//! construction or load, never persisted, and never trusted blindly. Every
//! lookup takes the *live* first-child/count values and returns `None` on any
//! mismatch with the build-time snapshot (or on a kind change), so kernels
//! fall back to the bounds-checked gather path when the tree has been mutated
//! under the arena — the corruption suite drives exactly that.
//!
//! The two sweeps the kernels run per visited node, [`FlatTree::child_sweep`]
//! and [`FlatTree::leaf_rows`], read the arena and degrade to that gather
//! path themselves; it is bit-identical to the arena path
//! (`tests/layout_parity.rs`, over [`FlatTree::strip_arena`]).
//!
//! The arena's unit tests live in `psb-rtree` (`crates/rtree/src/lib.rs`), the
//! lowest crate that sees both families, and run over a tree of each.

use psb_geom::layout::{align_up_f32, AlignedF32};
use psb_geom::DistKernel;

use crate::tree::FlatTree;
use crate::volumes::{SweepScratch, Volumes};

/// Sentinel offset for "no block recorded for this node".
const NO_BLOCK: u32 = u32::MAX;

/// A packed, 64-byte-aligned, per-node SoA arena over a [`FlatTree`].
#[derive(Clone, Debug)]
pub struct NodeArena {
    /// Per-node block offset into the pool (f32 index), [`NO_BLOCK`] if absent.
    node_off: Vec<u32>,
    /// Build-time child count (internal) / point count (leaf) per node.
    node_cnt: Vec<u32>,
    /// Build-time first child id (internal) / first point position (leaf).
    node_first: Vec<u32>,
    /// Build-time leaf flag per node.
    node_is_leaf: Vec<bool>,
    /// Dimensionality the blocks were packed with.
    dims: usize,
    /// f32 lanes per child volume ([`Volumes::lanes`] at build time).
    lanes: usize,
    /// One contiguous pool holding every per-node block.
    pool: AlignedF32,
}

/// A borrowed leaf block: the leaf's point run and original ids.
pub struct LeafBlock<'a> {
    /// Point coordinates, row-major (`cnt × dims`).
    pub coords: &'a [f32],
    ids: &'a [f32],
}

impl<'a> LeafBlock<'a> {
    /// Every point's original id, row for row.
    #[inline]
    pub fn ids(&self) -> RowIds<'a> {
        RowIds::Bits(self.ids)
    }
}

/// The ids of a run of distance rows, row for row: what a leaf or a scan tile
/// hands a collector beside its distances, without pairing the two up.
#[derive(Clone, Copy, Debug)]
pub enum RowIds<'a> {
    /// Raw `u32` bit patterns, as a leaf's arena block stores them.
    Bits(&'a [f32]),
    /// Plain ids: a gathered leaf, a permuted point set.
    Ids(&'a [u32]),
    /// Row `i` is point `first + i` itself: a scan over unpermuted points.
    From(u32),
}

impl RowIds<'_> {
    /// The id of row `i`.
    #[inline]
    pub fn get(self, i: usize) -> u32 {
        match self {
            RowIds::Bits(bits) => bits[i].to_bits(),
            RowIds::Ids(ids) => ids[i],
            RowIds::From(first) => first + i as u32,
        }
    }
}

impl NodeArena {
    /// Pack every node of `tree` into a fresh arena. The tree must be
    /// structurally valid (construction and load both validate first).
    pub fn build<V: Volumes>(tree: &FlatTree<V>) -> Self {
        let nn = tree.num_nodes();
        let dims = tree.dims;
        let lanes = V::lanes(dims);
        let mut node_off = vec![NO_BLOCK; nn];
        let mut node_is_leaf = vec![false; nn];

        let total: usize = (0..nn)
            .map(|ni| {
                let c = tree.child_count[ni] as usize;
                align_up_f32(c * if tree.level[ni] == 0 { dims + 1 } else { lanes })
            })
            .sum();
        let mut data: Vec<f32> = Vec::with_capacity(total);

        for n in 0..nn as u32 {
            let ni = n as usize;
            data.resize(align_up_f32(data.len()), 0.0);
            node_off[ni] = data.len() as u32;
            if tree.is_leaf(n) {
                node_is_leaf[ni] = true;
                let run = tree.leaf_points(n);
                data.extend_from_slice(&tree.points.as_flat()[run.start * dims..run.end * dims]);
                data.extend(tree.point_ids[run].iter().map(|&id| f32::from_bits(id)));
            } else {
                let kids = tree.children(n);
                tree.volumes.pack(dims, kids.start as usize..kids.end as usize, &mut data);
            }
        }

        Self {
            node_off,
            node_cnt: tree.child_count.clone(),
            node_first: tree.first_child.clone(),
            node_is_leaf,
            dims,
            lanes,
            pool: AlignedF32::from_slice(&data),
        }
    }

    /// Common staleness guard: the node must exist, match the recorded kind,
    /// and its live first/count must equal the build-time snapshot. Yields
    /// the block of `live_cnt × lanes` f32.
    #[inline]
    fn block(
        &self,
        n: u32,
        is_leaf: bool,
        live_first: u32,
        live_cnt: usize,
        lanes: usize,
    ) -> Option<&[f32]> {
        let ni = n as usize;
        if ni >= self.node_off.len()
            || self.node_is_leaf[ni] != is_leaf
            || self.node_off[ni] == NO_BLOCK
            || self.node_first[ni] != live_first
            || self.node_cnt[ni] as usize != live_cnt
        {
            return None;
        }
        let off = self.node_off[ni] as usize;
        self.pool.as_slice().get(off..off.checked_add(live_cnt * lanes)?)
    }

    /// The packed child-volume block of internal node `n` (the family's
    /// [`Volumes::pack`] layout), or `None` when the live tree no longer
    /// matches the build-time snapshot (callers then fall back to the
    /// bounds-checked gather path).
    #[inline]
    pub fn internal(&self, n: u32, live_first: u32, live_cnt: usize) -> Option<&[f32]> {
        self.block(n, false, live_first, live_cnt, self.lanes)
    }

    /// The packed block of leaf node `n`, or `None` when stale (see
    /// [`NodeArena::internal`]).
    #[inline]
    pub fn leaf(&self, n: u32, live_first: u32, live_cnt: usize) -> Option<LeafBlock<'_>> {
        let blk = self.block(n, true, live_first, live_cnt, self.dims + 1)?;
        let (coords, ids) = blk.split_at(live_cnt * self.dims);
        Some(LeafBlock { coords, ids })
    }
}

/// A node's evaluation against a query: what the kernels compute per visited
/// node, from the packed arena when it matches the live tree.
impl<V: Volumes> FlatTree<V> {
    /// MINDIST (and MAXDIST when `with_max`) from `q` to child `c`'s bounding
    /// volume. When `with_max` is false the second component is unspecified.
    pub fn child_min_max(&self, c: u32, q: &[f32], with_max: bool) -> (f32, f32) {
        self.volumes.min_max(self.dims, c as usize, q, with_max)
    }

    /// Instruction cost of one `child_min_max` evaluation under the cost
    /// model. This is where sphere and rectangle indexes differ (§II-C).
    pub fn child_eval_cost(&self, with_max: bool) -> u64 {
        V::eval_cost(self.dims, with_max)
    }

    /// Distance from `q` to child `c`'s representative point (sphere center /
    /// rectangle center). Used as the tie-break when several overlapping
    /// volumes report `MINDIST = 0` during the initial descent.
    pub fn child_anchor_dist(&self, c: u32, q: &[f32]) -> f32 {
        self.volumes.anchor(self.dims, c as usize, q)
    }

    /// Evaluate every child of internal node `n` against `q` in one pass:
    /// MINDIST always, MAXDIST when `with_max`, anchor distance when
    /// `with_anchor`, appended to `out` in child order. Streams the node's
    /// packed block; a stale or absent arena takes the bounds-checked gather
    /// path, bit-identically.
    pub fn child_sweep(
        &self,
        n: u32,
        q: &[f32],
        dk: &DistKernel,
        with_max: bool,
        with_anchor: bool,
        out: &mut SweepScratch,
    ) {
        let kids = self.children(n);
        match self.arena.as_ref().and_then(|a| a.internal(n, kids.start, kids.len())) {
            Some(block) => V::sweep(block, kids.len(), q, dk, with_max, with_anchor, out),
            None => self.gather_child_sweep(n, q, with_max, with_anchor, out),
        }
    }

    /// Evaluate every point of leaf node `n` against `q`: append the
    /// distances to `dists` in point order and return the points' original
    /// ids, row for row. Same arena and fallback as [`FlatTree::child_sweep`].
    pub fn leaf_rows(
        &self,
        n: u32,
        q: &[f32],
        dk: &DistKernel,
        dists: &mut Vec<f32>,
    ) -> RowIds<'_> {
        let run = self.leaf_points(n);
        match self.arena.as_ref().and_then(|a| a.leaf(n, run.start as u32, run.len())) {
            Some(blk) => {
                dk.dist_rows(q, blk.coords, dists);
                blk.ids()
            }
            None => self.gather_leaf_rows(n, q, dists),
        }
    }

    /// [`FlatTree::leaf_rows`] staged as `(distance, original id)` pairs,
    /// appended to `out`; `tmp` is pooled staging for the distances.
    pub fn leaf_sweep(
        &self,
        n: u32,
        q: &[f32],
        dk: &DistKernel,
        tmp: &mut Vec<f32>,
        out: &mut Vec<(f32, u32)>,
    ) {
        tmp.clear();
        match self.leaf_rows(n, q, dk, tmp) {
            RowIds::Bits(ids) => out.extend(tmp.iter().zip(ids).map(|(&d, id)| (d, id.to_bits()))),
            RowIds::Ids(ids) => out.extend(tmp.iter().copied().zip(ids.iter().copied())),
            RowIds::From(first) => out.extend(tmp.iter().copied().zip(first..)),
        }
    }

    /// The gather path of [`FlatTree::child_sweep`]: per-child scattered loads
    /// through the node-major volumes.
    fn gather_child_sweep(
        &self,
        n: u32,
        q: &[f32],
        with_max: bool,
        with_anchor: bool,
        out: &mut SweepScratch,
    ) {
        for c in self.children(n) {
            let (lo, hi) = self.child_min_max(c, q, with_max);
            out.min_d.push(lo);
            if with_max {
                out.max_d.push(hi);
            }
        }
        if with_anchor {
            for c in self.children(n) {
                out.anchor_d.push(self.child_anchor_dist(c, q));
            }
        }
    }

    /// The gather path of [`FlatTree::leaf_rows`]: per-point scattered loads
    /// through the reordered point array.
    fn gather_leaf_rows(&self, n: u32, q: &[f32], dists: &mut Vec<f32>) -> RowIds<'_> {
        let run = self.leaf_points(n);
        dists.extend(run.clone().map(|p| psb_geom::dist(q, self.points.point(p))));
        RowIds::Ids(&self.point_ids[run])
    }
}
