//! Exact CPU kNN searches over a [`FlatTree`] of either node shape — the
//! correctness oracles.
//!
//! Two classic algorithms:
//!
//! * [`knn_branch_and_bound`] — recursive MINDIST-ordered descent with pruning
//!   (Roussopoulos et al., the paper's baseline traversal);
//! * [`knn_best_first`] — Hjaltason–Samet incremental search with a priority
//!   queue (the paper notes it is fastest on a CPU but lock-hostile on a GPU).
//!
//! Both return exactly the k nearest points; the GPU kernels in `psb-core` are
//! tested against these, and these are in turn tested against a linear scan.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use psb_geom::{dist, PointSet};

use crate::tree::FlatTree;
use crate::volumes::Volumes;

pub use psb_geom::Neighbor;

/// Max-heap entry keyed by distance (the running k-best list).
#[derive(PartialEq)]
struct HeapItem(f32, u32);

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// The running k-best candidate list shared by every search algorithm.
struct KBest {
    k: usize,
    heap: BinaryHeap<HeapItem>,
}

impl KBest {
    fn new(k: usize) -> Self {
        Self { k, heap: BinaryHeap::with_capacity(k + 1) }
    }

    /// Current pruning distance: the k-th best distance so far (∞ until full).
    fn bound(&self) -> f32 {
        if self.heap.len() < self.k {
            f32::INFINITY
        } else {
            self.heap.peek().map_or(f32::INFINITY, |h| h.0)
        }
    }

    fn offer(&mut self, dist: f32, id: u32) {
        if self.heap.len() < self.k {
            self.heap.push(HeapItem(dist, id));
        } else if dist < self.bound() {
            self.heap.push(HeapItem(dist, id));
            self.heap.pop();
        }
    }

    fn into_sorted(self) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> =
            self.heap.into_iter().map(|HeapItem(dist, id)| Neighbor { dist, id }).collect();
        v.sort_by(Neighbor::by_rank);
        v
    }
}

/// Recursive branch-and-bound kNN (Roussopoulos et al. 1995): visit children in
/// MINDIST order, prune once MINDIST exceeds the current k-th best distance.
pub fn knn_branch_and_bound<V: Volumes>(tree: &FlatTree<V>, q: &[f32], k: usize) -> Vec<Neighbor> {
    assert!(k >= 1, "k must be at least 1");
    assert_eq!(q.len(), tree.dims, "query dimensionality mismatch");
    let mut best = KBest::new(k.min(tree.points.len()));
    bnb_visit(tree, tree.root, q, &mut best);
    best.into_sorted()
}

fn bnb_visit<V: Volumes>(tree: &FlatTree<V>, n: u32, q: &[f32], best: &mut KBest) {
    if tree.is_leaf(n) {
        for p in tree.leaf_points(n) {
            let d = dist(q, tree.points.point(p));
            best.offer(d, tree.point_ids[p]);
        }
        return;
    }
    // MINDIST-ordered children.
    let mut order: Vec<(f32, u32)> = tree
        .children(n)
        .map(|c| (tree.volumes.min_max(tree.dims, c as usize, q, false).0, c))
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    for (min_d, c) in order {
        if min_d >= best.bound() {
            break; // sorted: everything after is at least as far
        }
        bnb_visit(tree, c, q, best);
    }
}

/// Priority-queue entry for best-first search, ordered by ascending MINDIST.
#[derive(PartialEq)]
struct QueueItem(f32, u32);

impl Eq for QueueItem {}

impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// Best-first (incremental) kNN: a global priority queue over nodes keyed by
/// MINDIST, popping until the next node cannot improve the k-th best distance.
pub fn knn_best_first<V: Volumes>(tree: &FlatTree<V>, q: &[f32], k: usize) -> Vec<Neighbor> {
    assert!(k >= 1, "k must be at least 1");
    assert_eq!(q.len(), tree.dims, "query dimensionality mismatch");
    let mut best = KBest::new(k.min(tree.points.len()));
    let mut queue: BinaryHeap<Reverse<QueueItem>> = BinaryHeap::new();
    queue.push(Reverse(QueueItem(0.0, tree.root)));
    while let Some(Reverse(QueueItem(min_d, n))) = queue.pop() {
        if min_d >= best.bound() {
            break;
        }
        if tree.is_leaf(n) {
            for p in tree.leaf_points(n) {
                let d = dist(q, tree.points.point(p));
                best.offer(d, tree.point_ids[p]);
            }
        } else {
            for c in tree.children(n) {
                let d = tree.volumes.min_max(tree.dims, c as usize, q, false).0;
                if d < best.bound() {
                    queue.push(Reverse(QueueItem(d, c)));
                }
            }
        }
    }
    best.into_sorted()
}

/// Range-query oracle over the raw point set.
pub fn linear_range(ps: &PointSet, q: &[f32], radius: f32) -> Vec<Neighbor> {
    let mut out: Vec<Neighbor> = ps
        .iter()
        .enumerate()
        .filter_map(|(i, p)| {
            let d = dist(q, p);
            (d <= radius).then_some(Neighbor { dist: d, id: i as u32 })
        })
        .collect();
    out.sort_by(Neighbor::by_rank);
    out
}

/// Exact kNN by linear scan over a raw point set — the ground-truth oracle.
pub fn linear_knn(ps: &PointSet, q: &[f32], k: usize) -> Vec<Neighbor> {
    assert!(k >= 1);
    let mut best = KBest::new(k.min(ps.len()));
    for (i, p) in ps.iter().enumerate() {
        best.offer(dist(q, p), i as u32);
    }
    best.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, BuildMethod};
    use crate::tree::SsTree;
    use psb_data::{sample_queries, ClusteredSpec};

    fn setup(dims: usize, sigma: f32) -> (PointSet, SsTree) {
        let ps = ClusteredSpec { clusters: 6, points_per_cluster: 400, dims, sigma, seed: 31 }
            .generate();
        let tree = build(&ps, 16, &BuildMethod::Hilbert);
        (ps, tree)
    }

    fn assert_same_distances(a: &[Neighbor], b: &[Neighbor]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            let scale = x.dist.abs().max(1.0);
            assert!(
                (x.dist - y.dist).abs() <= scale * 1e-4,
                "distance mismatch: {} vs {}",
                x.dist,
                y.dist
            );
        }
    }

    #[test]
    fn bnb_matches_linear_scan() {
        let (ps, tree) = setup(4, 120.0);
        let queries = sample_queries(&ps, 20, 0.01, 1);
        for q in queries.iter() {
            let got = knn_branch_and_bound(&tree, q, 8);
            let want = linear_knn(&ps, q, 8);
            assert_same_distances(&got, &want);
        }
    }

    #[test]
    fn best_first_matches_linear_scan() {
        let (ps, tree) = setup(4, 120.0);
        let queries = sample_queries(&ps, 20, 0.01, 2);
        for q in queries.iter() {
            let got = knn_best_first(&tree, q, 8);
            let want = linear_knn(&ps, q, 8);
            assert_same_distances(&got, &want);
        }
    }

    #[test]
    fn exact_on_high_dimensional_clusters() {
        let (ps, tree) = setup(16, 300.0);
        let queries = sample_queries(&ps, 10, 0.01, 3);
        for q in queries.iter() {
            let got = knn_branch_and_bound(&tree, q, 32);
            let want = linear_knn(&ps, q, 32);
            assert_same_distances(&got, &want);
        }
    }

    #[test]
    fn k_of_one_finds_the_nearest_point() {
        let (ps, tree) = setup(2, 40.0);
        let q = ps.point(123).to_vec();
        let got = knn_best_first(&tree, &q, 1);
        assert_eq!(got.len(), 1);
        assert!(got[0].dist <= 1e-6, "query on a data point must find it");
    }

    #[test]
    fn k_larger_than_dataset_returns_everything() {
        let mut ps = PointSet::new(2);
        for i in 0..5 {
            ps.push(&[i as f32, 0.0]);
        }
        let tree = build(&ps, 4, &BuildMethod::Hilbert);
        let got = knn_branch_and_bound(&tree, &[0.0, 0.0], 50);
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn results_are_sorted_by_distance() {
        let (ps, tree) = setup(3, 80.0);
        let q = sample_queries(&ps, 1, 0.02, 4);
        let got = knn_best_first(&tree, q.point(0), 16);
        for w in got.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }

    #[test]
    fn ids_refer_to_original_dataset() {
        let (ps, tree) = setup(2, 60.0);
        let q = ps.point(777).to_vec();
        let got = knn_best_first(&tree, &q, 3);
        // The nearest neighbor of a data point is itself (id 777).
        assert_eq!(got[0].id, 777);
    }

    #[test]
    fn linear_knn_ties_break_by_id() {
        let mut ps = PointSet::new(1);
        ps.push(&[1.0]);
        ps.push(&[1.0]);
        ps.push(&[5.0]);
        let got = linear_knn(&ps, &[0.0], 2);
        assert_eq!((got[0].id, got[1].id), (0, 1));
    }
}
