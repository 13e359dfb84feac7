//! Left-balanced **implicit** kd-tree: the stackless index family.
//!
//! The tree *is* the reordered point array. Node `n` holds point row `n`,
//! children live at `2n + 1` / `2n + 2`, the parent at `(n - 1) / 2`, and the
//! splitting plane is the node's own coordinate in the round-robin dimension
//! `depth(n) % dims` — no child pointers, no bounding volumes, no per-node
//! metadata of any kind (Wald, *GPU-friendly, Parallel, and (Almost-)In-Place
//! Construction of Left-Balanced k-d Trees*). Where the paper's SS-tree trades
//! memory for wide data-parallel nodes, this family is the opposite pole of
//! the design space: the index costs one u32 id per point over the raw array
//! ([`LbKdTree::index_bytes`] pins it), and traversal carries no stack at all
//! (`psb_core::kernels::stackfree`).
//!
//! The heap arithmetic is inherent on the struct ([`LbKdTree::parent`],
//! [`LbKdTree::is_leaf`], [`LbKdTree::node_depth_of`],
//! [`LbKdTree::split_dim_of`]), and psb-core's stack-free kernel and its
//! brute-force rung read the struct directly; this crate sits below psb-core.
//! The bounding-volume kernels (PSB, BnB, restart, range) **cannot** be routed
//! to it: they take a `psb_sstree::FlatTree`, so the call does not type-check.
//! The family exists to measure what the pointer-free layout buys and costs,
//! not to impersonate a volume hierarchy.

use psb_geom::{dist, plane_gap, plane_in_range, KBest, Neighbor, PointSet};

use crate::{check_finite, KdBuildError};

/// Fixed header the device fetches once per tree: dims, node count, and the
/// two array base addresses.
pub(crate) const LB_HEADER_BYTES: u64 = 16;

/// A left-balanced complete implicit kd-tree. Construct via
/// [`LbKdTree::build`] / [`LbKdTree::try_build`].
#[derive(Clone, Debug)]
pub struct LbKdTree {
    /// Dimensionality.
    pub dims: usize,
    /// Points in heap order: node `n`'s point is row `n`.
    pub points: PointSet,
    /// Original dataset index per heap position.
    pub point_ids: Vec<u32>,
}

/// Nodes in the left subtree of a left-balanced complete tree of `n >= 2`
/// nodes: the perfect upper levels' left half plus whatever of the last level
/// falls on the left side.
fn left_subtree_size(n: usize) -> usize {
    debug_assert!(n >= 2);
    let h = n.ilog2(); // deepest full-level height; n >= 2 so h >= 1
    let last = n - ((1usize << h) - 1); // nodes on the (partial) last level
    let half = 1usize << (h - 1); // last-level capacity of the left subtree
    (half - 1) + last.min(half)
}

fn build_rec(points: &PointSet, idx: &mut [u32], node: usize, depth: usize, order: &mut [u32]) {
    match idx.len() {
        0 => return,
        1 => {
            order[node] = idx[0];
            return;
        }
        _ => {}
    }
    let d = depth % points.dims();
    let l = left_subtree_size(idx.len());
    // Total order (coordinate, original id): deterministic under duplicate
    // coordinates, and it gives the split plane the half-open invariant the
    // traversal's `gap <= 0.0` branch relies on — left subtree keys are
    // strictly below the node's key, right subtree keys strictly above.
    idx.select_nth_unstable_by(l, |&a, &b| {
        points.point(a as usize)[d].total_cmp(&points.point(b as usize)[d]).then(a.cmp(&b))
    });
    order[node] = idx[l];
    let (lo, rest) = idx.split_at_mut(l);
    build_rec(points, lo, 2 * node + 1, depth + 1, order);
    build_rec(points, &mut rest[1..], 2 * node + 2, depth + 1, order);
}

impl LbKdTree {
    /// Builds the implicit tree. Panicking wrapper over
    /// [`LbKdTree::try_build`] for callers with known-good input.
    pub fn build(points: &PointSet) -> Self {
        match Self::try_build(points) {
            Ok(t) => t,
            Err(e) => panic!("left-balanced kd-tree build failed: {e}"),
        }
    }

    /// Fallible build: rejects empty input and any NaN/∞ coordinate, then
    /// partitions the ids into heap order by repeated `select_nth` on the
    /// round-robin dimension (Wald's construction, host-side).
    pub fn try_build(points: &PointSet) -> Result<Self, KdBuildError> {
        if points.is_empty() {
            return Err(KdBuildError::Empty);
        }
        check_finite(points)?;
        let n = points.len();
        let mut idx: Vec<u32> = (0..n as u32).collect();
        let mut order = vec![0u32; n];
        build_rec(points, &mut idx, 0, 0, &mut order);
        Ok(LbKdTree { dims: points.dims(), points: points.gather(&order), point_ids: order })
    }

    /// Number of nodes == number of points (every node holds one point).
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Never true for a built tree (construction rejects empty input).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Whether node `n` is a leaf: its left child would lie past the heap.
    #[inline]
    pub fn is_leaf(&self, n: u32) -> bool {
        2 * n as usize + 1 >= self.len()
    }

    /// Parent of node `n`, and `u32::MAX` for the root: the stack-free
    /// walk's exit.
    #[inline]
    pub fn parent(n: u32) -> u32 {
        if n == 0 {
            u32::MAX
        } else {
            (n - 1) >> 1
        }
    }

    /// Depth of heap position `n` (root = 0) — pure arithmetic, no tree walk.
    #[inline]
    pub fn node_depth_of(n: u32) -> u32 {
        31 - (n + 1).leading_zeros()
    }

    /// Splitting dimension of node `n`: round-robin by depth.
    #[inline]
    pub fn split_dim_of(&self, n: u32) -> usize {
        Self::node_depth_of(n) as usize % self.dims
    }

    /// Bytes fetched per visited node: a node *is* one point entry, its
    /// coordinates plus its id.
    #[inline]
    pub fn point_entry_bytes(&self) -> u64 {
        self.dims as u64 * 4 + 4
    }

    /// The modeled device-resident footprint of the whole index: the
    /// reordered coordinates, one u32 id per point, and a fixed header.
    /// Exactly the points-array footprint plus O(1) — the property the bench
    /// memory gate pins.
    pub fn index_bytes(&self) -> u64 {
        self.len() as u64 * self.point_entry_bytes() + LB_HEADER_BYTES
    }

    /// Exact recursive kNN on the CPU (oracle): offers every visited node's
    /// point (internal nodes hold points too), descends the near side, and
    /// crosses the splitting plane only while the far side is at or in range
    /// of the current k-th best.
    pub fn knn_cpu(&self, q: &[f32], k: usize) -> Vec<Neighbor> {
        assert!(k >= 1);
        assert_eq!(q.len(), self.dims);
        let mut best = KBest::new(k);
        self.knn_rec(0, q, &mut best);
        best.into_vec()
    }

    fn knn_rec(&self, n: usize, q: &[f32], best: &mut KBest) {
        if n >= self.len() {
            return;
        }
        let p = self.points.point(n);
        best.offer(dist(q, p), self.point_ids[n]);
        let d = self.split_dim_of(n as u32);
        let gap = plane_gap(q[d], p[d]);
        let (near, far) = if gap <= 0.0 { (2 * n + 1, 2 * n + 2) } else { (2 * n + 2, 2 * n + 1) };
        self.knn_rec(near, q, best);
        if plane_in_range(gap, best.bound()) {
            self.knn_rec(far, q, best);
        }
    }

    /// Structural validation: one id per point row and `dims` the rows'
    /// width (checked first — the checks below and the stack-free kernel
    /// index by them), ids a permutation, and every node's splitting plane
    /// bracketing its subtrees under the build's (coordinate, id) total order.
    pub fn validate(&self) -> Result<(), String> {
        if self.point_ids.len() != self.points.len() {
            return Err(format!(
                "{} point ids for {} points",
                self.point_ids.len(),
                self.points.len()
            ));
        }
        if self.dims == 0 || self.dims != self.points.dims() {
            return Err(format!("dims {} over {}-d points", self.dims, self.points.dims()));
        }
        let mut ids = self.point_ids.clone();
        ids.sort_unstable();
        if ids.iter().enumerate().any(|(i, &id)| id != i as u32) {
            return Err("point ids are not a permutation".into());
        }
        for n in 0..self.len() as u32 {
            if self.is_leaf(n) {
                continue;
            }
            let d = self.split_dim_of(n);
            let key = (self.points.point(n as usize)[d], self.point_ids[n as usize]);
            let check = |c: u32, left: bool| -> Result<(), String> {
                let mut stack = vec![c];
                while let Some(m) = stack.pop() {
                    if m as usize >= self.len() {
                        continue;
                    }
                    let mk = (self.points.point(m as usize)[d], self.point_ids[m as usize]);
                    if left && mk >= key {
                        return Err(format!("node {n}: left descendant {m} above split"));
                    }
                    if !left && mk <= key {
                        return Err(format!("node {n}: right descendant {m} below split"));
                    }
                    stack.push(2 * m + 1);
                    stack.push(2 * m + 2);
                }
                Ok(())
            };
            check(2 * n + 1, true)?;
            check(2 * n + 2, false)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_data::{sample_queries, ClusteredSpec};

    fn dataset(dims: usize, n: usize) -> PointSet {
        ClusteredSpec {
            clusters: 5,
            points_per_cluster: n.div_ceil(5),
            dims,
            sigma: 100.0,
            seed: 71,
        }
        .generate()
    }

    fn linear(ps: &PointSet, q: &[f32], k: usize) -> Vec<(f32, u32)> {
        let mut v: Vec<(f32, u32)> =
            ps.iter().enumerate().map(|(i, p)| (dist(q, p), i as u32)).collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        v.truncate(k);
        v
    }

    #[test]
    fn left_subtree_size_small_cases() {
        // (n, expected L) worked by hand against heap positions.
        for (n, l) in [(2, 1), (3, 1), (4, 2), (5, 3), (6, 3), (7, 3), (8, 4), (12, 7), (15, 7)] {
            assert_eq!(left_subtree_size(n), l, "n={n}");
        }
        // L + 1 + R == n always.
        for n in 2..600 {
            let l = left_subtree_size(n);
            assert!(l >= 1 && l < n, "n={n} l={l}");
        }
    }

    #[test]
    fn builds_validate_across_sizes_and_dims() {
        for dims in [2usize, 3, 4, 8, 16] {
            for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 31, 32, 33, 200] {
                let ps = psb_data::UniformSpec { len: n, dims, seed: 7 + n as u64 }.generate();
                let t = LbKdTree::build(&ps);
                assert_eq!(t.len(), n);
                t.validate().unwrap_or_else(|e| panic!("dims {dims} n {n}: {e}"));
            }
        }
    }

    #[test]
    fn cpu_search_is_exact() {
        for dims in [2usize, 4, 16] {
            let ps = dataset(dims, 1500);
            let t = LbKdTree::build(&ps);
            for q in sample_queries(&ps, 15, 0.01, 72).iter() {
                let got = t.knn_cpu(q, 10);
                let want = linear(&ps, q, 10);
                assert_eq!(got.len(), want.len());
                for (g, (wd, wid)) in got.iter().zip(&want) {
                    assert_eq!(g.dist.to_bits(), wd.to_bits(), "dims {dims}");
                    assert_eq!(g.id, *wid, "dims {dims}");
                }
            }
        }
    }

    #[test]
    fn node_depth_is_floor_log2() {
        assert_eq!(LbKdTree::node_depth_of(0), 0);
        assert_eq!(LbKdTree::node_depth_of(1), 1);
        assert_eq!(LbKdTree::node_depth_of(2), 1);
        assert_eq!(LbKdTree::node_depth_of(3), 2);
        assert_eq!(LbKdTree::node_depth_of(6), 2);
        assert_eq!(LbKdTree::node_depth_of(7), 3);
    }

    #[test]
    fn index_bytes_is_points_array_plus_constant() {
        let ps = dataset(8, 900);
        let t = LbKdTree::build(&ps);
        let points_bytes = t.len() as u64 * t.point_entry_bytes();
        assert_eq!(t.index_bytes(), points_bytes + LB_HEADER_BYTES);
    }

    #[test]
    fn validate_rejects_ids_and_dims_that_do_not_match_the_rows() {
        let t = LbKdTree::build(&dataset(3, 40));
        let n = t.len();
        // Both wrong-length arrays still sort to 0..len, so only the length
        // check stands between them and an index past the end.
        let mut short = t.clone();
        let top = short.point_ids.iter().position(|&id| id as usize == n - 1).unwrap();
        short.point_ids.remove(top);
        let mut long = t.clone();
        long.point_ids.push(n as u32);
        let mut wide = t.clone();
        wide.dims = 4;
        for (what, bad) in [("truncated", short), ("extended", long), ("dims", wide)] {
            assert!(bad.validate().is_err(), "{what}");
        }
        t.validate().unwrap();
    }

    #[test]
    fn non_finite_coordinates_are_rejected() {
        let mut ps = PointSet::new(2);
        ps.push(&[0.0, f32::NAN]);
        assert_eq!(LbKdTree::try_build(&ps).err(), Some(KdBuildError::NonFinite { id: 0, dim: 1 }));
        assert_eq!(LbKdTree::try_build(&PointSet::new(2)).err(), Some(KdBuildError::Empty));
    }

    #[test]
    fn duplicate_coordinates_build_and_search() {
        let mut ps = PointSet::new(2);
        for _ in 0..64 {
            ps.push(&[1.0, 1.0]);
        }
        let t = LbKdTree::build(&ps);
        t.validate().unwrap();
        let got = t.knn_cpu(&[1.0, 1.0], 5);
        assert_eq!(got.len(), 5);
        assert!(got.iter().all(|n| n.dist == 0.0));
    }
}
