//! Packed R-tree: the bounding-rectangle counterpart of the SS-tree.
//!
//! The paper's §II-C argues for spheres over rectangles on computational
//! grounds: an SS-tree "computes the distance between a query and a centroid
//! and adds or subtracts the radius", whereas "rectangular bounding boxes ...
//! require the calculation of distances to each facet". An [`RsTree`] is the
//! *same* flattened tree as the SS-tree — `psb_sstree::FlatTree`, with its
//! accessors, rope links, packed arena, verifier and `GpuIndex`
//! implementation — over a different node shape, so every GPU kernel in
//! `psb-core` runs over it unchanged and comparing the two under identical
//! traversals isolates the node-shape effect the paper asserts. This crate
//! holds only what rectangles *are*: [`Rects`] and its [`Volumes`]
//! implementation on `psb_geom`'s rectangle kernel, and the bulk loaders.
//!
//! Construction is bulk loading ("Packed R-tree", Kamel & Faloutsos, the
//! paper's reference 20): either Hilbert-curve packing or Sort-Tile-Recursive
//! (STR).

pub mod build;

pub use build::{build_rtree, RtreeBuildMethod};

use std::ops::Range;

use psb_geom::{rect_eval, DistKernel, RectKernel, RectRowsOut};
use psb_sstree::{FlatTree, SweepScratch, Volumes};

/// The packed R-tree: a [`FlatTree`] over bounding [`Rects`]. Construct via
/// [`build_rtree`].
pub type RsTree = FlatTree<Rects>;

/// Minimum bounding rectangles, node-major: the R-tree's node shape.
#[derive(Clone, Debug, Default)]
pub struct Rects {
    /// MBR low corners (`node * dims ..`).
    pub mins: Vec<f32>,
    /// MBR high corners (`node * dims ..`).
    pub maxs: Vec<f32>,
}

impl Rects {
    /// The MBR corners of node `n`.
    #[inline]
    pub(crate) fn mbr(&self, dims: usize, n: usize) -> (&[f32], &[f32]) {
        (&self.mins[n * dims..(n + 1) * dims], &self.maxs[n * dims..(n + 1) * dims])
    }
}

/// Containment slack: MBRs are exact min/max folds, so only an absolute
/// margin for the verifier's own comparisons.
const RECT_EPS: f32 = 1e-4;

// Containment is written as `lo - eps <= x && x <= hi + eps` so that a NaN on
// either side fails it.
impl Volumes for Rects {
    #[inline]
    fn lanes(dims: usize) -> usize {
        2 * dims
    }

    fn arrays(&self, dims: usize) -> [(&'static str, usize, usize); 2] {
        [("mins", self.mins.len(), dims), ("maxs", self.maxs.len(), dims)]
    }

    fn pack(&self, dims: usize, kids: Range<usize>, out: &mut Vec<f32>) {
        let lanes = kids.start * dims..kids.end * dims;
        out.extend_from_slice(&self.mins[lanes.clone()]);
        out.extend_from_slice(&self.maxs[lanes]);
    }

    #[inline]
    fn finite(&self, dims: usize, n: usize) -> bool {
        let (lo, hi) = self.mbr(dims, n);
        lo.iter().zip(hi).all(|(l, h)| l.is_finite() && h.is_finite() && l <= h)
    }

    #[inline]
    fn contains_point(&self, dims: usize, n: usize, p: &[f32]) -> bool {
        let (lo, hi) = self.mbr(dims, n);
        lo.iter().zip(hi).zip(p).all(|((&l, &h), &x)| l - RECT_EPS <= x && x <= h + RECT_EPS)
    }

    #[inline]
    fn contains_child(&self, dims: usize, n: usize, c: usize) -> bool {
        let ((lo, hi), (clo, chi)) = (self.mbr(dims, n), self.mbr(dims, c));
        let low_inside = lo.iter().zip(clo).all(|(&l, &cl)| l - RECT_EPS <= cl);
        low_inside && hi.iter().zip(chi).all(|(&h, &ch)| ch <= h + RECT_EPS)
    }

    #[inline]
    fn min_max(&self, dims: usize, c: usize, q: &[f32], with_max: bool) -> (f32, f32) {
        let (lo, hi) = self.mbr(dims, c);
        let (min_d, max_d, _) = rect_eval(lo, hi, q, with_max, false);
        (min_d, max_d)
    }

    #[inline]
    fn anchor(&self, dims: usize, c: usize, q: &[f32]) -> f32 {
        let (lo, hi) = self.mbr(dims, c);
        rect_eval(lo, hi, q, false, true).2
    }

    #[inline]
    fn eval_cost(dims: usize, with_max: bool) -> u64 {
        // MINDIST: per-dimension clamp + square (≈2 ops/dim); MAXDIST needs a
        // second per-facet pass — rectangles pay where spheres don't (§II-C).
        let per_pass = (2 * dims as u64).div_ceil(4);
        per_pass + 2 + if with_max { per_pass } else { 0 }
    }

    #[inline]
    fn sweep(
        block: &[f32],
        count: usize,
        q: &[f32],
        _dk: &DistKernel,
        with_max: bool,
        with_anchor: bool,
        out: &mut SweepScratch,
    ) {
        // Batched one-query-vs-many-rows evaluation over the block's SoA
        // corner rows; bit-identical to the per-row eval of the gather path.
        let (lo, hi) = block.split_at(count * q.len());
        RectKernel::for_dims(q.len()).eval_rows(
            q,
            lo,
            hi,
            with_max,
            with_anchor,
            &mut RectRowsOut {
                min_d: &mut out.min_d,
                max_d: &mut out.max_d,
                anchor_d: &mut out.anchor_d,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_data::ClusteredSpec;
    use psb_geom::layout::ALIGN_BYTES;
    use psb_sstree::{build, BuildMethod, SsTree};

    fn dataset(dims: usize, seed: u64) -> psb_geom::PointSet {
        ClusteredSpec { clusters: 4, points_per_cluster: 250, dims, sigma: 60.0, seed }.generate()
    }

    fn ss() -> SsTree {
        build(&dataset(4, 51), 16, &BuildMethod::Hilbert)
    }

    fn rt() -> RsTree {
        build_rtree(&dataset(3, 93), 16, &RtreeBuildMethod::Hilbert)
    }

    #[test]
    fn rect_maxdist_costs_more_than_mindist() {
        assert!(Rects::eval_cost(16, true) > Rects::eval_cost(16, false));
    }

    #[test]
    fn rect_bounds_bracket_points() {
        let t = build_rtree(&dataset(4, 82), 16, &RtreeBuildMethod::Str);
        let q = vec![100.0f32; 4];
        for c in t.children(t.root) {
            let (lo, hi) = t.volumes.min_max(4, c as usize, &q, true);
            assert!(lo <= hi);
            // Every point in the subtree obeys the bracket.
            let mut stack = vec![c];
            while let Some(n) = stack.pop() {
                if t.is_leaf(n) {
                    for p in t.leaf_points(n) {
                        let d = psb_geom::dist(&q, t.points.point(p));
                        assert!(d >= lo - 1e-3 && d <= hi + hi * 1e-5 + 1e-3);
                    }
                } else {
                    stack.extend(t.children(n));
                }
            }
        }
    }

    #[test]
    fn pack_is_low_corners_then_high_corners() {
        let r = Rects { mins: vec![0.0, 1.0, 2.0, 3.0], maxs: vec![4.0, 5.0, 6.0, 7.0] };
        let mut block = Vec::new();
        r.pack(2, 0..2, &mut block);
        assert_eq!(block, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(block.len(), 2 * Rects::lanes(2));
    }

    #[test]
    fn verifier_predicates_reject_nan_and_inside_out_rects() {
        // Node 0 encloses node 1.
        let two = || Rects { mins: vec![0.0, 0.0, 1.0, 1.0], maxs: vec![9.0, 9.0, 2.0, 2.0] };
        let r = two();
        assert!(r.finite(2, 1) && r.contains_child(2, 0, 1) && !r.contains_child(2, 1, 0));
        assert!(r.contains_point(2, 1, &[1.5, 2.0]) && !r.contains_point(2, 1, &[1.5, 2.5]));
        for (lo, hi) in [(f32::NAN, 2.0), (1.0, f32::NAN), (1.0, f32::INFINITY), (3.0, 2.0)] {
            let mut t = two();
            (t.mins[2], t.maxs[2]) = (lo, hi);
            assert!(!t.finite(2, 1), "[{lo}, {hi}]");
        }
        let mut t = two();
        t.mins[2] = f32::NAN;
        assert!(!t.contains_child(2, 0, 1) && !t.contains_point(2, 1, &[1.5, 1.5]));
        t = two();
        t.maxs[0] = f32::NAN;
        assert!(!t.contains_child(2, 0, 1));
    }

    // The arena suite: `NodeArena` is one type, so each behaviour is checked
    // once, over a tree of each family.

    fn blocks_mirror_the_tree<V: Volumes>(t: &FlatTree<V>) {
        let arena = t.arena.as_ref().expect("construction attaches an arena");
        for n in 0..t.num_nodes() as u32 {
            if t.is_leaf(n) {
                let run = t.leaf_points(n);
                let blk = arena.leaf(n, run.start as u32, run.len()).expect("fresh arena");
                assert_eq!(blk.coords.len(), run.len() * t.dims);
                for (i, p) in run.enumerate() {
                    assert_eq!(&blk.coords[i * t.dims..(i + 1) * t.dims], t.points.point(p));
                    assert_eq!(blk.id(i), t.point_ids[p]);
                }
            } else {
                let kids = t.children(n);
                let blk = arena.internal(n, kids.start, kids.len()).expect("fresh arena");
                let mut want = Vec::new();
                t.volumes.pack(t.dims, kids.start as usize..kids.end as usize, &mut want);
                assert_eq!(blk.len(), kids.len() * V::lanes(t.dims));
                assert!(blk.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        }
    }

    #[test]
    fn blocks_mirror_the_tree_exactly() {
        blocks_mirror_the_tree(&ss());
        blocks_mirror_the_tree(&rt());
        // The sphere block really is the node-major centers, then the radii.
        let t = ss();
        let kids = t.children(t.root);
        let blk = t.arena.as_ref().unwrap().internal(t.root, kids.start, kids.len()).unwrap();
        for (i, c) in kids.clone().enumerate() {
            assert_eq!(&blk[i * t.dims..(i + 1) * t.dims], t.sphere(c).center);
            assert_eq!(blk[kids.len() * t.dims + i], t.sphere(c).radius);
        }
    }

    fn every_block_is_aligned<V: Volumes>(t: &FlatTree<V>) {
        let arena = t.arena.as_ref().expect("arena");
        for n in 0..t.num_nodes() as u32 {
            let ptr = if t.is_leaf(n) {
                let run = t.leaf_points(n);
                arena.leaf(n, run.start as u32, run.len()).expect("block").coords.as_ptr()
            } else {
                let kids = t.children(n);
                arena.internal(n, kids.start, kids.len()).expect("block").as_ptr()
            };
            assert_eq!(ptr as usize % ALIGN_BYTES, 0, "node {n} block not aligned");
        }
    }

    #[test]
    fn every_block_is_64_byte_aligned() {
        every_block_is_aligned(&ss());
        every_block_is_aligned(&rt());
    }

    fn stale_lookups_are_none<V: Volumes>(mut t: FlatTree<V>) {
        let root = t.root;
        let kids = t.children(root);
        let arena = t.arena.take().expect("arena");
        // Kind mismatch: asking for the root as a leaf.
        assert!(arena.leaf(root, kids.start, kids.len()).is_none());
        // Count mismatch (a corrupted child_count).
        assert!(arena.internal(root, kids.start, kids.len() + 3).is_none());
        // First-child mismatch (a corrupted first_child).
        assert!(arena.internal(root, kids.start ^ 1, kids.len()).is_none());
        // Out-of-range node id.
        assert!(arena.internal(u32::MAX - 1, 0, 1).is_none());
        // The untouched lookup still works.
        assert!(arena.internal(root, kids.start, kids.len()).is_some());
    }

    #[test]
    fn stale_lookups_return_none() {
        stale_lookups_are_none(ss());
        stale_lookups_are_none(rt());
    }

    fn clone_is_identical<V: Volumes>(t: &FlatTree<V>) {
        let a = t.arena.as_ref().expect("arena");
        let b = a.clone();
        let kids = t.children(t.root);
        let x = a.internal(t.root, kids.start, kids.len()).expect("block");
        let y = b.internal(t.root, kids.start, kids.len()).expect("block");
        assert!(!x.is_empty() && x == y);
        let leaf = t.leaf_node_of[0];
        let run = t.leaf_points(leaf);
        let x = a.leaf(leaf, run.start as u32, run.len()).expect("block");
        let y = b.leaf(leaf, run.start as u32, run.len()).expect("block");
        assert!(x.coords == y.coords && x.id(0) == y.id(0));
    }

    #[test]
    fn clone_keeps_blocks_identical() {
        clone_is_identical(&ss());
        clone_is_identical(&rt());
    }
}
