//! SR-tree: the top-down, disk-page-oriented CPU baseline (Figs. 3 and 9).
//!
//! The SR-tree (Katayama & Satoh, SIGMOD 1997) bounds every subtree by the
//! **intersection of a bounding sphere and a bounding rectangle**; its MINDIST
//! is the max of the two volumes' MINDISTs, which prunes strictly better than
//! either alone. Following the paper's setup (§IV-D), nodes are sized to an
//! **8 KB disk page**, fan-out is derived from the entry size (sphere + rect +
//! pointer per child), and construction is classic top-down insertion with
//! highest-variance-dimension splits.
//!
//! This is a *real* CPU index, not a simulation: response times in the benches
//! are wall-clock measurements, and the accessed-bytes metric counts one page
//! per visited node (the disk-page accounting the paper uses for its CPU
//! comparison).

use psb_geom::{dist, PointSet, Rect};

/// One kNN result (distance, original point id).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    pub dist: f32,
    pub id: u32,
}

/// Per-query access statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes (pages) visited.
    pub nodes_visited: u64,
    /// Bytes charged: `nodes_visited × page size`.
    pub bytes: u64,
}

struct SrNode {
    level: u8,
    /// Centroid running sum (f64) and subtree point count.
    centroid_sum: Vec<f64>,
    count: u64,
    /// Bounding sphere radius around the centroid.
    radius: f32,
    /// Bounding rectangle.
    rect: Rect,
    children: Vec<SrNode>,
    pts: Vec<u32>,
}

impl SrNode {
    fn new_leaf(dims: usize) -> Self {
        Self {
            level: 0,
            centroid_sum: vec![0.0; dims],
            count: 0,
            radius: 0.0,
            rect: Rect::empty(dims),
            children: Vec::new(),
            pts: Vec::new(),
        }
    }

    fn centroid(&self) -> Vec<f32> {
        let inv = 1.0 / self.count.max(1) as f64;
        self.centroid_sum.iter().map(|&s| (s * inv) as f32).collect()
    }

    /// MINDIST of the sphere∩rect region.
    fn min_dist(&self, q: &[f32]) -> f32 {
        let c = self.centroid();
        let sphere_min = (dist(q, &c) - self.radius).max(0.0);
        sphere_min.max(self.rect.min_dist(q))
    }
}

/// The SR-tree index.
pub struct SrTree {
    dims: usize,
    page_bytes: usize,
    internal_cap: usize,
    leaf_cap: usize,
    root: SrNode,
    len: usize,
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
    /// nodes (the paper uses 8 KB).
    pub fn build(points: &PointSet, page_bytes: usize) -> Self {
        assert!(!points.is_empty(), "cannot build an index over zero points");
        let dims = points.dims();
        let mut tree = SrTree {
            dims,
            page_bytes,
            internal_cap: Self::internal_capacity(dims, page_bytes),
            leaf_cap: Self::leaf_capacity(dims, page_bytes),
            root: SrNode::new_leaf(dims),
            len: 0,
        };
        for id in 0..points.len() as u32 {
            tree.insert(points, id);
        }
        tree
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height.
    pub fn height(&self) -> usize {
        self.root.level as usize + 1
    }

    /// Total nodes (pages) in the tree.
    pub fn num_nodes(&self) -> usize {
        fn count(n: &SrNode) -> usize {
            1 + n.children.iter().map(count).sum::<usize>()
        }
        count(&self.root)
    }

    fn insert(&mut self, points: &PointSet, id: u32) {
        self.len += 1;
        if let Some(sibling) =
            insert_rec(&mut self.root, points, id, self.internal_cap, self.leaf_cap)
        {
            let dims = self.dims;
            let old_root = std::mem::replace(&mut self.root, SrNode::new_leaf(dims));
            self.root.level = old_root.level + 1;
            self.root.count = old_root.count + sibling.count;
            for (s, (a, b)) in self
                .root
                .centroid_sum
                .iter_mut()
                .zip(old_root.centroid_sum.iter().zip(&sibling.centroid_sum))
            {
                *s = a + b;
            }
            self.root.children = vec![old_root, sibling];
            refresh_bounds(&mut self.root, points);
        }
    }

    /// Exact kNN by best-first search over sphere∩rect MINDISTs, counting one
    /// page per visited node. Leaf pages hold point ids only, so the base
    /// table is passed explicitly.
    pub fn knn_with_points(
        &self,
        points: &PointSet,
        q: &[f32],
        k: usize,
    ) -> (Vec<Neighbor>, SearchStats) {
        assert!(k >= 1, "k must be at least 1");
        assert_eq!(q.len(), self.dims, "query dimensionality mismatch");
        let mut stats = SearchStats::default();
        let mut best: Vec<Neighbor> = Vec::with_capacity(k + 1);

        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        struct Item<'a>(f32, &'a SrNode);
        impl PartialEq for Item<'_> {
            fn eq(&self, other: &Self) -> bool {
                self.0 == other.0
            }
        }
        impl Eq for Item<'_> {}
        impl PartialOrd for Item<'_> {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Item<'_> {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }
        }

        fn bound(best: &[Neighbor], k: usize) -> f32 {
            if best.len() >= k {
                best.last().map_or(f32::INFINITY, |n| n.dist)
            } else {
                f32::INFINITY
            }
        }

        let mut heap: BinaryHeap<Reverse<Item>> = BinaryHeap::new();
        heap.push(Reverse(Item(0.0, &self.root)));
        while let Some(Reverse(Item(d, node))) = heap.pop() {
            if d >= bound(&best, k) {
                break;
            }
            stats.nodes_visited += 1;
            stats.bytes += self.page_bytes as u64;
            if node.level == 0 {
                for &pid in &node.pts {
                    let pd = dist(q, points.point(pid as usize));
                    if best.len() >= k && pd >= bound(&best, k) {
                        continue;
                    }
                    let pos = best.partition_point(|n| (n.dist, n.id) < (pd, pid));
                    best.insert(pos, Neighbor { dist: pd, id: pid });
                    if best.len() > k {
                        best.pop();
                    }
                }
            } else {
                for child in &node.children {
                    let cd = child.min_dist(q);
                    if cd < bound(&best, k) {
                        heap.push(Reverse(Item(cd, child)));
                    }
                }
            }
        }
        (best, stats)
    }
}

fn refresh_bounds(node: &mut SrNode, points: &PointSet) {
    let c = node.centroid();
    if node.level == 0 {
        let mut rect = Rect::empty(c.len());
        let mut radius = 0f32;
        for &p in &node.pts {
            let pt = points.point(p as usize);
            rect.expand_point(pt);
            radius = radius.max(dist(pt, &c));
        }
        node.rect = rect;
        node.radius = radius * (1.0 + 1e-6);
    } else {
        let mut rect = Rect::empty(c.len());
        let mut radius = 0f32;
        for ch in &node.children {
            rect.expand_rect(&ch.rect);
            radius = radius.max(dist(&ch.centroid(), &c) + ch.radius);
        }
        node.rect = rect;
        node.radius = radius * (1.0 + 1e-6);
    }
}

fn insert_rec(
    node: &mut SrNode,
    points: &PointSet,
    id: u32,
    internal_cap: usize,
    leaf_cap: usize,
) -> Option<SrNode> {
    let p = points.point(id as usize);
    node.count += 1;
    for (s, &x) in node.centroid_sum.iter_mut().zip(p) {
        *s += x as f64;
    }

    if node.level == 0 {
        node.pts.push(id);
        if node.pts.len() <= leaf_cap {
            refresh_bounds(node, points);
            return None;
        }
        return Some(split_leaf(node, points));
    }

    // Closest-centroid child.
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (i, c) in node.children.iter().enumerate() {
        let d = dist(p, &c.centroid());
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    let split = insert_rec(&mut node.children[best], points, id, internal_cap, leaf_cap);
    if let Some(sibling) = split {
        node.children.push(sibling);
        if node.children.len() > internal_cap {
            let sib = split_internal(node, points);
            refresh_bounds(node, points);
            return Some(sib);
        }
    }
    refresh_bounds(node, points);
    None
}

fn variance_dim(coords: &[Vec<f32>]) -> usize {
    let dims = coords[0].len();
    let n = coords.len() as f64;
    let mut best = (0usize, f64::NEG_INFINITY);
    for d in 0..dims {
        let mean: f64 = coords.iter().map(|c| c[d] as f64).sum::<f64>() / n;
        let var: f64 = coords.iter().map(|c| (c[d] as f64 - mean).powi(2)).sum::<f64>() / n;
        if var > best.1 {
            best = (d, var);
        }
    }
    best.0
}

fn split_leaf(node: &mut SrNode, points: &PointSet) -> SrNode {
    let coords: Vec<Vec<f32>> =
        node.pts.iter().map(|&p| points.point(p as usize).to_vec()).collect();
    let dim = variance_dim(&coords);
    node.pts.sort_by(|&a, &b| {
        points.point(a as usize)[dim].total_cmp(&points.point(b as usize)[dim]).then(a.cmp(&b))
    });
    let half = node.pts.len() / 2;
    let right_pts = node.pts.split_off(half);

    let dims = node.centroid_sum.len();
    let mut right = SrNode::new_leaf(dims);
    for &p in &right_pts {
        right.count += 1;
        for (s, &x) in right.centroid_sum.iter_mut().zip(points.point(p as usize)) {
            *s += x as f64;
        }
    }
    right.pts = right_pts;

    node.count = 0;
    node.centroid_sum.iter_mut().for_each(|s| *s = 0.0);
    let keep = std::mem::take(&mut node.pts);
    for &p in &keep {
        node.count += 1;
        for (s, &x) in node.centroid_sum.iter_mut().zip(points.point(p as usize)) {
            *s += x as f64;
        }
    }
    node.pts = keep;

    refresh_bounds(node, points);
    refresh_bounds(&mut right, points);
    right
}

fn split_internal(node: &mut SrNode, points: &PointSet) -> SrNode {
    let centroids: Vec<Vec<f32>> = node.children.iter().map(|c| c.centroid()).collect();
    let dim = variance_dim(&centroids);
    let mut order: Vec<usize> = (0..node.children.len()).collect();
    order.sort_by(|&a, &b| centroids[a][dim].total_cmp(&centroids[b][dim]).then(a.cmp(&b)));
    let half = order.len() / 2;
    let mut right_idx: Vec<usize> = order[half..].to_vec();
    right_idx.sort_unstable_by(|a, b| b.cmp(a));

    let dims = node.centroid_sum.len();
    let mut right = SrNode::new_leaf(dims);
    right.level = node.level;
    for i in right_idx {
        let c = node.children.remove(i);
        right.count += c.count;
        for (s, &x) in right.centroid_sum.iter_mut().zip(&c.centroid_sum) {
            *s += x;
        }
        right.children.push(c);
    }

    node.count = 0;
    node.centroid_sum.iter_mut().for_each(|s| *s = 0.0);
    for c in &node.children {
        node.count += c.count;
        for (s, &x) in node.centroid_sum.iter_mut().zip(&c.centroid_sum) {
            *s += x;
        }
    }

    refresh_bounds(&mut right, points);
    right
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
        let t = SrTree::build(&ps, 2048);
        for q in sample_queries(&ps, 20, 0.01, 82).iter() {
            let (got, _) = t.knn_with_points(&ps, q, 10);
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
        let (_, stats) = t.knn_with_points(&ps, q.point(0), 5);
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
        let (_, stats) = t.knn_with_points(&ps, q.point(0), 5);
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
        let (got, _) = t.knn_with_points(&ps, &[0.0, 0.0], 99);
        assert_eq!(got.len(), 6);
    }

    #[test]
    fn intersection_mindist_tighter_than_sphere_alone() {
        // A thin diagonal set: the rect clips the sphere, raising MINDIST.
        let mut ps = PointSet::new(2);
        for i in 0..100 {
            ps.push(&[i as f32, i as f32]);
        }
        let t = SrTree::build(&ps, 8192); // single leaf
        let root = &t.root;
        let q = [99.0, 0.0];
        let sphere_only = (dist(&q, &root.centroid()) - root.radius).max(0.0);
        assert!(root.min_dist(&q) >= sphere_only);
        assert!(root.rect.min_dist(&q) == 0.0); // inside the rect actually
    }
}
