//! SR-tree: the top-down, disk-page-oriented CPU baseline (Figs. 3 and 9).
//!
//! The SR-tree (Katayama & Satoh, SIGMOD 1997) bounds every subtree by the
//! **intersection of a bounding sphere and a bounding rectangle**; its MINDIST
//! is the max of the two volumes' MINDISTs, which prunes strictly better than
//! either alone. Following the paper's setup (§IV-D), nodes are sized to an
//! **8 KB disk page** and fan-out is derived from the entry size (sphere + rect
//! + pointer per child).
//!
//! Construction is psb-sstree's top-down inserter
//! ([`psb_sstree::topdown::insert_all`]: closest-centroid descent,
//! highest-variance splits) with the page capacities and no forced
//! reinsertion. Its flat [`SsTree`] holds the spheres, the structure and the
//! reordered points; one bottom-up pass then adds each node's rectangle.
//!
//! This is a *real* CPU index, not a simulation: response times in the benches
//! are wall-clock measurements, and the accessed-bytes metric counts one page
//! per visited node (the disk-page accounting the paper uses for its CPU
//! comparison).

use psb_geom::{dist, KBest, Neighbor, PointSet, Rect};
use psb_sstree::topdown::{insert_all, Capacities};
use psb_sstree::SsTree;

/// Per-query access statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes (pages) visited.
    pub nodes_visited: u64,
    /// Bytes charged: `nodes_visited × page size`.
    pub bytes: u64,
}

/// The SR-tree index.
pub struct SrTree {
    page_bytes: usize,
    /// Spheres, structure and the reordered points.
    tree: SsTree,
    /// Bounding rectangle per node, indexed like the tree's nodes.
    rects: Vec<Rect>,
}

impl SrTree {
    /// Internal fan-out for a page: each entry holds a sphere (`4d + 4`), a
    /// rectangle (`8d`) and a child pointer (4 bytes).
    pub(crate) fn internal_capacity(dims: usize, page_bytes: usize) -> usize {
        (page_bytes / (12 * dims + 8)).max(2)
    }

    /// Leaf fan-out for a page: coordinates plus a record id per point.
    pub(crate) fn leaf_capacity(dims: usize, page_bytes: usize) -> usize {
        (page_bytes / (4 * dims + 4)).max(2)
    }

    /// Builds an SR-tree by inserting every point, with `page_bytes`-sized
    /// nodes (the paper uses 8 KB). Panics on an empty set or a non-finite
    /// coordinate (the tree verifier rejects the bounds).
    pub fn build(points: &PointSet, page_bytes: usize) -> Self {
        let dims = points.dims();
        let caps = Capacities {
            leaf: Self::leaf_capacity(dims, page_bytes),
            internal: Self::internal_capacity(dims, page_bytes),
        };
        let tree = insert_all(points, caps, false);
        // Children sit after their parent in arena order: walking the nodes
        // backwards meets every child's rectangle before its parent's.
        let mut rects = vec![Rect::empty(dims); tree.num_nodes()];
        for n in (0..tree.num_nodes() as u32).rev() {
            let mut rect = Rect::empty(dims);
            if tree.is_leaf(n) {
                for p in tree.leaf_points(n) {
                    rect.expand_point(tree.points.point(p));
                }
            } else {
                for c in tree.children(n) {
                    rect.expand_rect(&rects[c as usize]);
                }
            }
            rects[n as usize] = rect;
        }
        SrTree { page_bytes, tree, rects }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.tree.points.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tree height.
    pub fn height(&self) -> usize {
        self.tree.height()
    }

    /// Total nodes (pages) in the tree.
    pub fn num_nodes(&self) -> usize {
        self.tree.num_nodes()
    }

    /// MINDIST of node `n`'s sphere∩rect region.
    fn min_dist(&self, n: u32, q: &[f32]) -> f32 {
        self.tree.sphere(n).min_dist(q).max(self.rects[n as usize].min_dist(q))
    }

    /// Exact kNN by best-first search over sphere∩rect MINDISTs, counting one
    /// page per visited node.
    pub fn knn(&self, q: &[f32], k: usize) -> (Vec<Neighbor>, SearchStats) {
        assert!(k >= 1, "k must be at least 1");
        assert_eq!(q.len(), self.tree.dims, "query dimensionality mismatch");
        let mut stats = SearchStats::default();
        let mut best = KBest::new(k);

        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        /// A node keyed by MINDIST alone: equal MINDISTs pop in the order the
        /// heap's pushes leave them, never by node id.
        struct Item(f32, u32);
        impl PartialEq for Item {
            fn eq(&self, other: &Self) -> bool {
                self.0 == other.0
            }
        }
        impl Eq for Item {}
        impl PartialOrd for Item {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Item {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }
        }

        let t = &self.tree;
        let mut heap: BinaryHeap<Reverse<Item>> = BinaryHeap::new();
        heap.push(Reverse(Item(0.0, t.root)));
        while let Some(Reverse(Item(d, n))) = heap.pop() {
            if !best.admits(d) {
                break;
            }
            stats.nodes_visited += 1;
            stats.bytes += self.page_bytes as u64;
            if t.is_leaf(n) {
                for p in t.leaf_points(n) {
                    best.offer(dist(q, t.points.point(p)), t.point_ids[p]);
                }
            } else {
                for c in t.children(n) {
                    let cd = self.min_dist(c, q);
                    if best.admits(cd) {
                        heap.push(Reverse(Item(cd, c)));
                    }
                }
            }
        }
        (best.into_vec(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_data::{sample_queries, ClusteredSpec};

    fn dataset(dims: usize) -> PointSet {
        ClusteredSpec { clusters: 5, points_per_cluster: 300, dims, sigma: 100.0, seed: 81 }
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
    fn capacities_follow_page_size() {
        assert_eq!(SrTree::internal_capacity(4, 8192), 8192 / 56);
        assert_eq!(SrTree::leaf_capacity(4, 8192), 8192 / 20);
        // High dimensions shrink fan-out sharply (the curse the paper discusses).
        assert!(SrTree::internal_capacity(64, 8192) < 11);
    }

    #[test]
    fn knn_is_exact() {
        let ps = dataset(4);
        // The tree owns its points: the table it was built from is gone.
        let t = SrTree::build(&ps.clone(), 2048);
        for q in sample_queries(&ps, 20, 0.01, 82).iter() {
            let (got, _) = t.knn(q, 10);
            let want = linear(&ps, q, 10);
            assert_eq!(got.len(), want.len());
            for (g, (wd, _)) in got.iter().zip(&want) {
                assert!((g.dist - wd).abs() <= wd.max(1.0) * 1e-4);
            }
        }
    }

    #[test]
    fn stats_count_pages() {
        let ps = dataset(4);
        let t = SrTree::build(&ps, 2048);
        let q = sample_queries(&ps, 1, 0.01, 83);
        let (_, stats) = t.knn(q.point(0), 5);
        assert!(stats.nodes_visited >= 2);
        assert_eq!(stats.bytes, stats.nodes_visited * 2048);
    }

    #[test]
    fn prunes_most_of_tight_clusters() {
        let ps =
            ClusteredSpec { clusters: 10, points_per_cluster: 300, dims: 4, sigma: 15.0, seed: 84 }
                .generate();
        let t = SrTree::build(&ps, 2048);
        let q = sample_queries(&ps, 1, 0.002, 85);
        let (_, stats) = t.knn(q.point(0), 5);
        assert!(
            (stats.nodes_visited as usize) < t.num_nodes() / 4,
            "visited {}/{} nodes",
            stats.nodes_visited,
            t.num_nodes()
        );
    }

    #[test]
    fn builds_multilevel_tree() {
        let ps = dataset(8);
        let t = SrTree::build(&ps, 1024);
        assert!(t.height() >= 2, "height {}", t.height());
        assert_eq!(t.len(), 1500);
    }

    #[test]
    fn k_exceeding_dataset() {
        let mut ps = PointSet::new(2);
        for i in 0..6 {
            ps.push(&[i as f32, 0.0]);
        }
        let t = SrTree::build(&ps, 1024);
        let (got, _) = t.knn(&[0.0, 0.0], 99);
        assert_eq!(got.len(), 6);
    }

    /// A one-leaf tree over `pts`.
    fn one_leaf(pts: impl Iterator<Item = [f32; 2]>) -> SrTree {
        let mut ps = PointSet::new(2);
        pts.for_each(|p| ps.push(&p));
        let t = SrTree::build(&ps, 8192);
        assert_eq!(t.num_nodes(), 1);
        t
    }

    #[test]
    fn intersection_mindist_tighter_than_sphere_alone() {
        // A thin diagonal: the rectangle clips the sphere's far side.
        let t = one_leaf((0..100).map(|i| [i as f32, i as f32]));
        let (root, q) = (t.tree.root, [150.0, 0.0]);
        let (sphere, rect) = (t.tree.sphere(root).min_dist(&q), t.rects[0].min_dist(&q));
        assert!(rect > sphere, "rect {rect} vs sphere {sphere}");
        assert_eq!(t.min_dist(root, &q), rect);
        // A ring: the sphere clips the rectangle's corners.
        let t = one_leaf((0..64).map(|i| {
            let a = i as f32 * std::f32::consts::TAU / 64.0;
            [50.0 * a.cos(), 50.0 * a.sin()]
        }));
        let q = [60.0, 60.0];
        let (sphere, rect) = (t.tree.sphere(root).min_dist(&q), t.rects[0].min_dist(&q));
        assert!(sphere > rect, "sphere {sphere} vs rect {rect}");
        assert_eq!(t.min_dist(root, &q), sphere);
    }

    /// The point positions under node `n`: its subtree's leaves, in order.
    fn points_under(t: &SsTree, n: u32) -> impl Iterator<Item = usize> + '_ {
        let leaves = t.subtree_min_leaf[n as usize]..=t.subtree_max_leaf[n as usize];
        leaves.flat_map(|l| t.leaf_points(t.leaf_node_of(l)))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn intersection_bound_is_sound(
            seed in 0u64..10_000,
            dims in 2usize..7,
            page_bytes in 256usize..4096,
        ) {
            // No node's sphere∩rect MINDIST exceeds the distance to any point
            // under it, from queries among the clusters and far outside them.
            let ps = ClusteredSpec { clusters: 4, points_per_cluster: 120, dims, sigma: 60.0, seed }
                .generate();
            let t = SrTree::build(&ps, page_bytes);
            let mut queries = sample_queries(&ps, 6, 0.05, seed ^ 0x5a);
            let far: Vec<f32> = Rect::of_point_set(&ps).max.iter().map(|x| 3.0 * x + 10.0).collect();
            queries.push(&far);
            for q in queries.iter() {
                for n in 0..t.num_nodes() as u32 {
                    let bound = t.min_dist(n, q);
                    for p in points_under(&t.tree, n) {
                        let d = dist(q, t.tree.points.point(p));
                        proptest::prop_assert!(bound <= d, "node {}: bound {} > point {}", n, bound, d);
                    }
                }
            }
        }
    }

    #[test]
    fn a_non_finite_coordinate_fails_the_build() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut ps = dataset(3);
            ps.push(&[1.0, bad, 2.0]);
            let built = std::panic::catch_unwind(|| SrTree::build(&ps, 1024));
            let err = built.err().and_then(|e| e.downcast::<String>().ok());
            assert!(
                err.as_deref().is_some_and(|e| e.contains("structurally invalid")),
                "coordinate {bad}: {err:?}"
            );
        }
    }

    #[test]
    fn duplicate_lattice_meets_equal_sibling_mindists() {
        // Every site of an 8 x 8 lattice, 24 times: siblings share faces, so
        // a query on a site sees ties the heap must break the same way every
        // time (the lattice golden in tests/topdown_goldens.rs pins that).
        let mut ps = PointSet::new(2);
        for s in (0..24 * 64).map(|i| i % 64) {
            ps.push(&[(s % 8) as f32, (s / 8) as f32]);
        }
        let t = SrTree::build(&ps, 1024);
        let ties = (0..64).filter(|s| {
            let q = [(s % 8) as f32, (s / 8) as f32];
            (0..t.num_nodes() as u32).filter(|&n| !t.tree.is_leaf(n)).any(|n| {
                let d: Vec<f32> = t.tree.children(n).map(|c| t.min_dist(c, &q)).collect();
                d.iter().enumerate().any(|(i, x)| d[i + 1..].contains(x))
            })
        });
        assert!(ties.count() > 0, "no sibling MINDIST ties on the lattice");
    }
}
