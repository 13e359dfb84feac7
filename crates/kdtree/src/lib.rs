//! Binary kd-tree with a **task-parallel** GPU search — the paper's Fig. 6
//! comparator ("a task parallel binary kd-tree optimized for GPU", citing
//! S. Brown's minimal kd-tree, GTC 2010).
//!
//! The tree is a classic median-split kd-tree flattened into arrays. Two search
//! paths are provided:
//!
//! * [`knn_cpu`] — recursive exact kNN, the correctness oracle;
//! * [`gpu::knn_task_parallel`] — one query **per GPU lane**: each lane runs its
//!   own iterative traversal with a private stack in local memory. Lanes of one
//!   warp are at different tree nodes doing different operations, so the
//!   lockstep scheduler serializes them — the measured warp efficiency lands in
//!   the single digits, which is precisely the paper's §II-B argument for data
//!   parallelism.

pub mod gpu;
mod lb;

pub use lb::LbKdTree;

use psb_geom::{dist, plane_gap, plane_in_range, KBest, Neighbor, PointSet};

/// Sentinel: no child.
pub(crate) const NIL: u32 = u32::MAX;

/// Typed construction errors shared by both kd-tree families (the median-split
/// task-parallel tree and the left-balanced implicit tree).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KdBuildError {
    /// Zero points: there is nothing to index.
    Empty,
    /// `leaf_cap == 0` (median-split family only; leaves must hold a point).
    ZeroLeafCap,
    /// Point `id` carries a NaN or infinite coordinate in dimension `dim`.
    /// kd-trees compare *coordinates*, not distances: a NaN split plane
    /// poisons every pruning decision below it silently, so non-finite input
    /// is rejected at build instead of at query.
    NonFinite { id: u32, dim: usize },
}

impl std::fmt::Display for KdBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Empty => write!(f, "cannot build a kd-tree over zero points"),
            Self::ZeroLeafCap => write!(f, "leaf_cap must be at least 1"),
            Self::NonFinite { id, dim } => {
                write!(f, "point {id} has a non-finite coordinate in dimension {dim}")
            }
        }
    }
}

impl std::error::Error for KdBuildError {}

/// Rejects the first NaN/∞ coordinate in the set (build-time gate for both
/// families).
fn check_finite(points: &PointSet) -> Result<(), KdBuildError> {
    for (i, p) in points.iter().enumerate() {
        for (d, &x) in p.iter().enumerate() {
            if !x.is_finite() {
                return Err(KdBuildError::NonFinite { id: i as u32, dim: d });
            }
        }
    }
    Ok(())
}

/// One kd-tree node. Internal nodes split on `dim` at `split`; leaves own a
/// contiguous range of the reordered point array.
#[derive(Clone, Copy, Debug)]
pub(crate) struct KdNode {
    /// Split dimension (internal) — unused for leaves.
    pub dim: u16,
    /// Split coordinate (internal).
    pub split: f32,
    /// Left child node id, or [`NIL`] for a leaf.
    pub left: u32,
    /// Right child node id, or [`NIL`] for a leaf.
    pub right: u32,
    /// Leaf: first point position. Internal: unused.
    pub point_start: u32,
    /// Leaf: number of points. Internal: 0.
    pub point_count: u32,
}

/// Bytes a traversal reads to fetch one internal node (dim + split + children).
pub(crate) const NODE_BYTES: u64 = 16;

/// A flattened kd-tree.
#[derive(Clone, Debug)]
pub struct KdTree {
    /// Dimensionality.
    pub dims: usize,
    /// Points, reordered so each leaf's points are contiguous.
    pub points: PointSet,
    /// Original dataset index per reordered position.
    pub point_ids: Vec<u32>,
    /// Node arena; index 0 is the root.
    pub(crate) nodes: Vec<KdNode>,
    /// Maximum points per leaf.
    pub leaf_cap: usize,
}

impl KdTree {
    /// Builds a kd-tree by recursive median split on the widest dimension.
    /// `leaf_cap` points or fewer terminate a branch (GPU-style small leaves).
    /// Panicking wrapper over [`KdTree::try_build`] for callers with known-good
    /// input.
    pub fn build(points: &PointSet, leaf_cap: usize) -> Self {
        match Self::try_build(points, leaf_cap) {
            Ok(t) => t,
            Err(e) => panic!("kd-tree build failed: {e}"),
        }
    }

    /// Fallible build: rejects empty input, a zero leaf cap, and any NaN/∞
    /// coordinate (see [`KdBuildError::NonFinite`]) before touching the data.
    pub fn try_build(points: &PointSet, leaf_cap: usize) -> Result<Self, KdBuildError> {
        if points.is_empty() {
            return Err(KdBuildError::Empty);
        }
        if leaf_cap == 0 {
            return Err(KdBuildError::ZeroLeafCap);
        }
        check_finite(points)?;
        let mut order: Vec<u32> = (0..points.len() as u32).collect();
        let mut nodes = Vec::new();
        let mut out_order = Vec::with_capacity(points.len());
        build_rec(points, &mut order[..], leaf_cap, &mut nodes, &mut out_order);
        Ok(KdTree {
            dims: points.dims(),
            points: points.gather(&out_order),
            point_ids: out_order,
            nodes,
            leaf_cap,
        })
    }

    /// Tree height (1 for a single leaf).
    pub fn height(&self) -> usize {
        fn h(nodes: &[KdNode], n: u32) -> usize {
            let node = nodes[n as usize];
            if node.left == NIL {
                1
            } else {
                1 + h(nodes, node.left).max(h(nodes, node.right))
            }
        }
        h(&self.nodes, 0)
    }

    /// Structural validation for tests: every point in exactly one leaf, leaf
    /// ranges contiguous, split planes consistent with subtree contents.
    pub fn validate(&self) -> Result<(), String> {
        let mut covered = vec![false; self.points.len()];
        fn walk(t: &KdTree, n: u32, covered: &mut [bool]) -> Result<(u32, u32), String> {
            let node = t.nodes[n as usize];
            if node.left == NIL {
                if node.right != NIL {
                    return Err(format!("node {n}: half-leaf"));
                }
                if node.point_count == 0 {
                    return Err(format!("leaf {n} empty"));
                }
                if node.point_count as usize > t.leaf_cap {
                    return Err(format!("leaf {n} overflows leaf_cap"));
                }
                for p in node.point_start..node.point_start + node.point_count {
                    if covered[p as usize] {
                        return Err(format!("point {p} in two leaves"));
                    }
                    covered[p as usize] = true;
                }
                return Ok((node.point_start, node.point_start + node.point_count));
            }
            let (ls, le) = walk(t, node.left, covered)?;
            let (rs, re) = walk(t, node.right, covered)?;
            if le != rs {
                return Err(format!("node {n}: children ranges not contiguous"));
            }
            let d = node.dim as usize;
            for p in ls..le {
                if t.points.point(p as usize)[d] > node.split {
                    return Err(format!("node {n}: left point above split"));
                }
            }
            for p in rs..re {
                if t.points.point(p as usize)[d] < node.split {
                    return Err(format!("node {n}: right point below split"));
                }
            }
            Ok((ls, re))
        }
        let (s, e) = walk(self, 0, &mut covered)?;
        if s != 0 || e as usize != self.points.len() {
            return Err("root does not cover all points".into());
        }
        if covered.iter().any(|&c| !c) {
            return Err("some points uncovered".into());
        }
        Ok(())
    }
}

fn build_rec(
    points: &PointSet,
    idx: &mut [u32],
    leaf_cap: usize,
    nodes: &mut Vec<KdNode>,
    out_order: &mut Vec<u32>,
) -> u32 {
    let my_id = nodes.len() as u32;
    if idx.len() <= leaf_cap {
        nodes.push(KdNode {
            dim: 0,
            split: 0.0,
            left: NIL,
            right: NIL,
            point_start: out_order.len() as u32,
            point_count: idx.len() as u32,
        });
        out_order.extend_from_slice(idx);
        return my_id;
    }
    // Widest dimension over these points.
    let dims = points.dims();
    let mut best_dim = 0usize;
    let mut best_spread = f32::NEG_INFINITY;
    for d in 0..dims {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &i in idx.iter() {
            let x = points.point(i as usize)[d];
            lo = lo.min(x);
            hi = hi.max(x);
        }
        if hi - lo > best_spread {
            best_spread = hi - lo;
            best_dim = d;
        }
    }
    let mid = idx.len() / 2;
    idx.select_nth_unstable_by(mid, |&a, &b| {
        points.point(a as usize)[best_dim]
            .total_cmp(&points.point(b as usize)[best_dim])
            .then(a.cmp(&b))
    });
    let split = points.point(idx[mid] as usize)[best_dim];

    nodes.push(KdNode {
        dim: best_dim as u16,
        split,
        left: NIL,
        right: NIL,
        point_start: 0,
        point_count: 0,
    });
    let (l, r) = idx.split_at_mut(mid);
    let left = build_rec(points, l, leaf_cap, nodes, out_order);
    let right = build_rec(points, r, leaf_cap, nodes, out_order);
    nodes[my_id as usize].left = left;
    nodes[my_id as usize].right = right;
    my_id
}

/// Exact recursive kNN on the CPU (oracle).
pub fn knn_cpu(tree: &KdTree, q: &[f32], k: usize) -> Vec<Neighbor> {
    assert!(k >= 1);
    assert_eq!(q.len(), tree.dims);
    let mut best = KBest::new(k);
    knn_rec(tree, 0, q, &mut best);
    best.into_vec()
}

fn knn_rec(tree: &KdTree, n: u32, q: &[f32], best: &mut KBest) {
    let node = tree.nodes[n as usize];
    if node.left == NIL {
        for p in node.point_start..node.point_start + node.point_count {
            let d = dist(q, tree.points.point(p as usize));
            best.offer(d, tree.point_ids[p as usize]);
        }
        return;
    }
    let diff = plane_gap(q[node.dim as usize], node.split);
    let (near, far) = if diff <= 0.0 { (node.left, node.right) } else { (node.right, node.left) };
    knn_rec(tree, near, q, best);
    if plane_in_range(diff, best.bound()) {
        knn_rec(tree, far, q, best);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_data::{sample_queries, ClusteredSpec};

    fn dataset() -> PointSet {
        ClusteredSpec { clusters: 5, points_per_cluster: 300, dims: 4, sigma: 100.0, seed: 61 }
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
    fn builds_valid_tree() {
        let ps = dataset();
        let t = KdTree::build(&ps, 8);
        t.validate().expect("kd-tree invalid");
        assert!(t.height() > 3);
    }

    #[test]
    fn cpu_search_is_exact() {
        let ps = dataset();
        let t = KdTree::build(&ps, 8);
        for q in sample_queries(&ps, 20, 0.01, 62).iter() {
            let got = knn_cpu(&t, q, 10);
            let want = linear(&ps, q, 10);
            assert_eq!(got.len(), want.len());
            for (g, (wd, _)) in got.iter().zip(&want) {
                assert!((g.dist - wd).abs() <= wd.max(1.0) * 1e-4);
            }
        }
    }

    #[test]
    fn single_leaf_when_few_points() {
        let mut ps = PointSet::new(2);
        for i in 0..5 {
            ps.push(&[i as f32, 0.0]);
        }
        let t = KdTree::build(&ps, 8);
        assert_eq!(t.nodes.len(), 1);
        t.validate().unwrap();
        let got = knn_cpu(&t, &[2.1, 0.0], 2);
        assert_eq!(got[0].id, 2);
    }

    #[test]
    fn leaf_cap_one_degenerates_to_points() {
        let mut ps = PointSet::new(1);
        for i in 0..16 {
            ps.push(&[i as f32]);
        }
        let t = KdTree::build(&ps, 1);
        t.validate().unwrap();
        let leaves = t.nodes.iter().filter(|n| n.left == NIL).count();
        assert_eq!(leaves, 16);
    }

    #[test]
    fn point_ids_are_a_permutation() {
        let ps = dataset();
        let t = KdTree::build(&ps, 16);
        let mut ids = t.point_ids.clone();
        ids.sort_unstable();
        assert_eq!(ids, (0..ps.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn non_finite_coordinates_are_rejected_with_a_typed_error() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut ps = PointSet::new(3);
            ps.push(&[1.0, 2.0, 3.0]);
            ps.push(&[4.0, bad, 6.0]);
            assert_eq!(
                KdTree::try_build(&ps, 8).err(),
                Some(KdBuildError::NonFinite { id: 1, dim: 1 }),
                "{bad}"
            );
        }
    }

    #[test]
    fn degenerate_builds_are_typed_errors() {
        assert_eq!(KdTree::try_build(&PointSet::new(2), 8).err(), Some(KdBuildError::Empty));
        let mut ps = PointSet::new(2);
        ps.push(&[0.0, 0.0]);
        assert_eq!(KdTree::try_build(&ps, 0).err(), Some(KdBuildError::ZeroLeafCap));
    }

    #[test]
    fn duplicate_coordinates_do_not_break_build() {
        let mut ps = PointSet::new(2);
        for _ in 0..100 {
            ps.push(&[1.0, 1.0]);
        }
        let t = KdTree::build(&ps, 4);
        t.validate().unwrap();
        let got = knn_cpu(&t, &[1.0, 1.0], 5);
        assert_eq!(got.len(), 5);
        assert!(got.iter().all(|n| n.dist == 0.0));
    }
}
