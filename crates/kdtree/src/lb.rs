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
//! The [`PointIndex`] impl puts the family on the engine plumbing — recovery
//! fallback, scheduling, inspection, the memory bench — and
//! [`ImplicitKdIndex`] carries what the stack-free kernel reads. The
//! bounding-volume kernels (PSB, BnB, restart, range) **cannot** be routed to
//! they take a `psb_sstree::FlatTree`, so the call does not type-check. The
//! family exists to measure what the pointer-free layout buys and costs, not
//! to impersonate a volume hierarchy.

use psb_core::{ImplicitKdIndex, PointIndex};
use psb_geom::{dist, plane_gap, plane_in_range, Neighbor, PointSet};

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

    /// Depth of heap position `n` (root = 0) — pure arithmetic, no tree walk.
    #[inline]
    pub(crate) fn node_depth_of(n: u32) -> u32 {
        31 - (n + 1).leading_zeros()
    }

    /// Splitting dimension of node `n`: round-robin by depth.
    #[inline]
    pub(crate) fn split_dim_of(&self, n: u32) -> usize {
        Self::node_depth_of(n) as usize % self.dims
    }

    /// Exact recursive kNN on the CPU (oracle): offers every visited node's
    /// point (internal nodes hold points too), descends the near side, and
    /// crosses the splitting plane only while the far side is strictly in
    /// range of the current k-th best.
    pub fn knn_cpu(&self, q: &[f32], k: usize) -> Vec<Neighbor> {
        assert!(k >= 1);
        assert_eq!(q.len(), self.dims);
        let mut best: Vec<Neighbor> = Vec::with_capacity(k + 1);
        self.knn_rec(0, q, k, &mut best);
        best
    }

    fn knn_rec(&self, n: usize, q: &[f32], k: usize, best: &mut Vec<Neighbor>) {
        if n >= self.len() {
            return;
        }
        let p = self.points.point(n);
        crate::offer(best, k, dist(q, p), self.point_ids[n]);
        let d = self.split_dim_of(n as u32);
        let gap = plane_gap(q[d], p[d]);
        let (near, far) = if gap <= 0.0 { (2 * n + 1, 2 * n + 2) } else { (2 * n + 2, 2 * n + 1) };
        self.knn_rec(near, q, k, best);
        let bound = if best.len() >= k {
            best.last().map_or(f32::INFINITY, |b| b.dist)
        } else {
            f32::INFINITY
        };
        if plane_in_range(gap, bound) {
            self.knn_rec(far, q, k, best);
        }
    }

    /// Structural validation for tests: ids are a permutation, and every
    /// node's splitting plane brackets its subtrees under the build's
    /// (coordinate, id) total order.
    pub fn validate(&self) -> Result<(), String> {
        let mut ids = self.point_ids.clone();
        ids.sort_unstable();
        if ids.iter().enumerate().any(|(i, &id)| id != i as u32) {
            return Err("point ids are not a permutation".into());
        }
        for n in 0..self.len() as u32 {
            if ImplicitKdIndex::is_leaf(self, n) {
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

impl PointIndex for LbKdTree {
    fn dims(&self) -> usize {
        self.dims
    }
    fn num_points(&self) -> usize {
        self.len()
    }
    fn rows(&self, range: std::ops::Range<usize>) -> &[f32] {
        &self.points.as_flat()[range.start * self.dims..range.end * self.dims]
    }
    fn point_id(&self, pos: usize) -> u32 {
        self.point_ids[pos]
    }
}

impl ImplicitKdIndex for LbKdTree {
    fn num_nodes(&self) -> usize {
        self.len()
    }
    fn is_leaf(&self, n: u32) -> bool {
        2 * n as usize + 1 >= self.len()
    }
    fn parent(&self, n: u32) -> u32 {
        if n == 0 {
            u32::MAX
        } else {
            (n - 1) >> 1
        }
    }
    fn node_depth(&self, n: u32) -> u32 {
        Self::node_depth_of(n)
    }
    fn split_dim(&self, n: u32) -> usize {
        self.split_dim_of(n)
    }
    fn point_entry_bytes(&self) -> u64 {
        self.dims as u64 * 4 + 4
    }
    fn index_bytes(&self) -> u64 {
        // The whole index: the reordered coordinates, one u32 id per point,
        // and a fixed header. Exactly the points-array footprint plus O(1) —
        // the property the bench memory gate pins.
        self.len() as u64 * self.point_entry_bytes() + LB_HEADER_BYTES
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
        let points_bytes = t.len() as u64 * ImplicitKdIndex::point_entry_bytes(&t);
        assert_eq!(ImplicitKdIndex::index_bytes(&t), points_bytes + LB_HEADER_BYTES);
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
