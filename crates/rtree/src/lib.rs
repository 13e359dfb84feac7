//! Packed R-tree: the bounding-rectangle counterpart of the SS-tree.
//!
//! The paper's §II-C argues for spheres over rectangles on computational
//! grounds: an SS-tree "computes the distance between a query and a centroid
//! and adds or subtracts the radius", whereas "rectangular bounding boxes ...
//! require the calculation of distances to each facet". An [`RsTree`] is the
//! *same* flattened tree as the SS-tree — `psb_sstree::FlatTree`, with its
//! accessors, packed arena, sweeps and verifier — over a
//! different node shape, so every GPU kernel in `psb-core` runs over it
//! unchanged and comparing the two under identical traversals isolates the
//! node-shape effect the paper asserts. This crate
//! holds only what rectangles *are*: [`Rects`] and its [`Volumes`]
//! implementation on `psb_geom`'s rectangle kernel, and the bulk loaders.
//!
//! Construction is bulk loading ("Packed R-tree", Kamel & Faloutsos, the
//! paper's reference 20): either Hilbert-curve packing or Sort-Tile-Recursive
//! (STR).

pub mod build;

pub use build::{build_rtree, RtreeBuildMethod};

use std::ops::Range;

use psb_geom::{rect_eval, DistKernel, PointSet, RectKernel, RectRowsOut};
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

    fn build_hilbert(points: &PointSet, degree: usize) -> RsTree {
        build_rtree(points, degree, &RtreeBuildMethod::Hilbert)
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

    /// The accessors the kernels traverse by, on a tree of either family.
    fn implements_the_contract<V: Volumes>(tree: &FlatTree<V>, dims: usize) {
        assert_eq!(tree.dims, dims);
        assert_eq!(tree.degree, 16);
        let root = tree.root;
        assert!(!tree.is_leaf(root));
        let kids = tree.children(root);
        assert!(!kids.is_empty());
        for c in kids {
            assert_eq!(tree.parent(c), root);
        }
        // Leaf chain is dense and consistent.
        for l in 0..tree.num_leaves() as u32 {
            let n = tree.leaf_node_of(l);
            assert_eq!(tree.leaf_id(n), l);
            assert_eq!(tree.subtree_max_leaf(n), l);
        }
        // The footprint packs every point entry, plus the internal blocks.
        assert!(tree.index_bytes() > tree.points.len() as u64 * tree.point_entry_bytes());
    }

    #[test]
    fn sstree_implements_the_contract() {
        implements_the_contract(&ss(), 4);
        implements_the_contract(&rt(), 3);
    }

    #[test]
    fn sphere_min_max_from_one_distance() {
        let ps =
            ClusteredSpec { clusters: 2, points_per_cluster: 100, dims: 2, sigma: 20.0, seed: 72 }
                .generate();
        let tree = build(&ps, 8, &BuildMethod::Hilbert);
        let c = tree.children(tree.root).start;
        let q = vec![0.0f32, 0.0];
        let (lo, hi) = tree.child_min_max(c, &q, true);
        assert!(lo <= hi);
        assert_eq!(lo, tree.sphere(c).min_dist(&q));
        assert_eq!(hi, tree.sphere(c).max_dist(&q));
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
                    assert_eq!(blk.ids().get(i), t.point_ids[p]);
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

    /// A leaf's rows from the packed block and from the gather fallback:
    /// the same distance bits and ids, row for row, and `leaf_sweep` stages
    /// exactly those pairs.
    fn leaf_rows_match_the_gather<V: Volumes + Clone>(t: &FlatTree<V>) {
        let mut gather = t.clone();
        gather.strip_arena();
        let dk = psb_geom::DistKernel::for_dims(t.dims);
        let q: Vec<f32> = (0..t.dims).map(|i| i as f32 * 0.7 - 3.0).collect();
        let (mut a, mut b, mut pairs) = (Vec::new(), Vec::new(), Vec::new());
        for n in (0..t.num_nodes() as u32).filter(|&n| t.is_leaf(n)) {
            a.clear();
            b.clear();
            let ids_a = t.leaf_rows(n, &q, &dk, &mut a);
            let ids_b = gather.leaf_rows(n, &q, &dk, &mut b);
            assert!(matches!(ids_a, psb_sstree::RowIds::Bits(_)), "leaf {n}: arena ids");
            assert!(matches!(ids_b, psb_sstree::RowIds::Ids(_)), "leaf {n}: gathered ids");
            assert_eq!(a.len(), t.leaf_points(n).len());
            let rows = |d: &[f32], ids: psb_sstree::RowIds<'_>| {
                d.iter().enumerate().map(|(i, x)| (x.to_bits(), ids.get(i))).collect::<Vec<_>>()
            };
            assert_eq!(rows(&a, ids_a), rows(&b, ids_b), "leaf {n}");
            pairs.clear();
            t.leaf_sweep(n, &q, &dk, &mut b, &mut pairs);
            let staged: Vec<_> = pairs.iter().map(|&(d, id)| (d.to_bits(), id)).collect();
            assert_eq!(staged, rows(&a, ids_a), "leaf {n}: staged pairs");
        }
    }

    #[test]
    fn leaf_rows_are_bit_identical_on_the_arena_and_the_gather() {
        leaf_rows_match_the_gather(&ss());
        leaf_rows_match_the_gather(&rt());
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
        assert!(x.coords == y.coords && x.ids().get(0) == y.ids().get(0));
    }

    #[test]
    fn clone_keeps_blocks_identical() {
        clone_is_identical(&ss());
        clone_is_identical(&rt());
    }
}
