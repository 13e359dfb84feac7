//! Top-down insertion (White & Jain), kept as the comparison point the
//! paper's §IV argues against — the one top-down inserter in the workspace.
//! [`build_topdown`] runs it as the classic SS-tree: one capacity for every
//! node and forced reinsertion on. The SR-tree baseline (`psb_srtree`) runs
//! it with its page-derived leaf and internal capacities and reinsertion off,
//! then adds a bounding rectangle per node.
//!
//! Insertion descends into the child whose **centroid** is closest to the new
//! point; an overflowing node is split along its **highest-variance dimension**
//! (the original SS-tree split rule). The R*-style *forced reinsertion*
//! heuristic, when on, is applied once per insertion at the leaf level: the
//! first time a leaf overflows, the fraction of its points farthest from the
//! centroid is removed and reinserted from the root, which tightens spheres the
//! same way the SS-tree paper describes.
//!
//! Node centers follow the SS-tree convention: the **centroid of the subtree's
//! points** (maintained incrementally as an exact running sum), with the radius
//! computed at flatten time as a proper bound over children. Insertion reads
//! centroids only, so every bound is a function of the final tree. Utilization
//! of top-down leaves lands well under 100 %, which is exactly the contrast
//! with bottom-up packing the paper draws.

use psb_geom::{dist, PointSet, Sphere};

use crate::build::{from_levels, Level};
use crate::tree::SsTree;

/// Fraction of a leaf's points removed on first overflow for reinsertion.
const REINSERT_FRACTION: f64 = 0.3;

/// Node capacities of a top-down build: the most points a leaf and the most
/// children an internal node hold before they split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capacities {
    /// Points per leaf.
    pub leaf: usize,
    /// Children per internal node.
    pub internal: usize,
}

struct TdNode {
    level: u8,
    /// Running sum of all point coordinates in the subtree (exact in f64).
    centroid_sum: Vec<f64>,
    /// Points in the subtree.
    count: u64,
    /// Internal nodes: children. Leaves: empty.
    children: Vec<TdNode>,
    /// Leaves: point ids. Internal: empty.
    pts: Vec<u32>,
}

impl TdNode {
    fn new(dims: usize, level: u8) -> Self {
        Self {
            level,
            centroid_sum: vec![0.0; dims],
            count: 0,
            children: Vec::new(),
            pts: Vec::new(),
        }
    }

    fn centroid(&self) -> Vec<f32> {
        let inv = 1.0 / self.count.max(1) as f64;
        self.centroid_sum.iter().map(|&s| (s * inv) as f32).collect()
    }

    fn add_point(&mut self, p: &[f32]) {
        self.count += 1;
        for (s, &x) in self.centroid_sum.iter_mut().zip(p) {
            *s += x as f64;
        }
    }

    fn remove_point(&mut self, p: &[f32]) {
        self.count -= 1;
        for (s, &x) in self.centroid_sum.iter_mut().zip(p) {
            *s -= x as f64;
        }
    }

    /// A leaf over `pts`, its running sum theirs in order.
    fn leaf(points: &PointSet, pts: Vec<u32>) -> Self {
        let mut node = TdNode::new(points.dims(), 0);
        for &p in &pts {
            node.add_point(points.point(p as usize));
        }
        node.pts = pts;
        node
    }

    /// A node at `level` over `children`, its running sum theirs in order.
    fn internal(dims: usize, level: u8, children: Vec<TdNode>) -> Self {
        let mut node = TdNode::new(dims, level);
        for c in &children {
            node.count += c.count;
            for (s, &x) in node.centroid_sum.iter_mut().zip(&c.centroid_sum) {
                *s += x;
            }
        }
        node.children = children;
        node
    }
}

enum InsertOutcome {
    Fit,
    /// The node split; the new right sibling is returned.
    Split(TdNode),
    /// Forced reinsertion: these points were evicted and must be re-inserted.
    Reinsert(Vec<u32>),
}

/// Builds an SS-tree by inserting every point in order through the classic
/// top-down algorithm — `degree` points per leaf and children per internal
/// node, forced reinsertion on — then flattening into the shared arena layout.
pub fn build_topdown(points: &PointSet, degree: usize) -> SsTree {
    assert!(degree >= 2, "degree must be at least 2");
    insert_all(points, Capacities { leaf: degree, internal: degree }, true)
}

/// Inserts every point in id order under `caps`, with forced reinsertion when
/// `reinsert` is set, and materializes the result as an [`SsTree`] whose
/// `degree` is the larger capacity. Leaf points and children keep their
/// insertion-tree order in the arena.
pub fn insert_all(points: &PointSet, caps: Capacities, reinsert: bool) -> SsTree {
    assert!(caps.leaf >= 2 && caps.internal >= 2, "node capacities must be at least 2");
    assert!(!points.is_empty(), "cannot build an index over zero points");
    let dims = points.dims();
    let mut root = TdNode::new(dims, 0);

    for id in 0..points.len() as u32 {
        insert_from_root(&mut root, points, id, caps, reinsert);
    }

    // Flatten post-order into per-level plans and reuse the bottom-up
    // materializer.
    let height = root.level as usize + 1;
    let mut levels: Vec<Level> =
        (0..height).map(|_| Level { spheres: Vec::new(), counts: Vec::new() }).collect();
    let mut point_order = Vec::with_capacity(points.len());
    flatten(&root, points, &mut levels, &mut point_order);
    from_levels(points, caps.leaf.max(caps.internal), levels, point_order)
}

fn insert_from_root(
    root: &mut TdNode,
    points: &PointSet,
    id: u32,
    caps: Capacities,
    reinsert: bool,
) {
    let mut allow_reinsert = reinsert;
    let mut pending = vec![id];
    while let Some(pid) = pending.pop() {
        match insert(root, points, pid, caps, allow_reinsert) {
            InsertOutcome::Fit => {}
            InsertOutcome::Reinsert(evicted) => {
                allow_reinsert = false; // once per insertion, like R*
                pending.extend(evicted);
            }
            InsertOutcome::Split(sibling) => {
                // Root split: grow the tree by one level.
                let dims = points.dims();
                let old_root = std::mem::replace(root, TdNode::new(dims, 0));
                *root = TdNode::internal(dims, old_root.level + 1, vec![old_root, sibling]);
            }
        }
    }
}

fn insert(
    node: &mut TdNode,
    points: &PointSet,
    id: u32,
    caps: Capacities,
    allow_reinsert: bool,
) -> InsertOutcome {
    let p = points.point(id as usize);
    node.add_point(p);
    if node.level == 0 {
        node.pts.push(id);
        if node.pts.len() <= caps.leaf {
            return InsertOutcome::Fit;
        }
        if allow_reinsert {
            return evict_farthest(node, points);
        }
        return split_leaf(node, points);
    }

    // Choose the child whose centroid is closest to the point.
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (i, c) in node.children.iter().enumerate() {
        let d = dist(p, &c.centroid());
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    match insert(&mut node.children[best], points, id, caps, allow_reinsert) {
        InsertOutcome::Fit => InsertOutcome::Fit,
        InsertOutcome::Reinsert(evicted) => {
            // The evicted points left the subtree: fix the running centroid.
            for &e in &evicted {
                node.remove_point(points.point(e as usize));
            }
            InsertOutcome::Reinsert(evicted)
        }
        InsertOutcome::Split(sibling) => {
            node.children.push(sibling);
            if node.children.len() <= caps.internal {
                return InsertOutcome::Fit;
            }
            split_internal(node)
        }
    }
}

/// Forced reinsertion: pull the `REINSERT_FRACTION` of points farthest from the
/// leaf centroid out of the node.
fn evict_farthest(leaf: &mut TdNode, points: &PointSet) -> InsertOutcome {
    let centroid = leaf.centroid();
    let mut by_dist: Vec<u32> = leaf.pts.clone();
    by_dist.sort_by(|&a, &b| {
        let da = dist(points.point(a as usize), &centroid);
        let db = dist(points.point(b as usize), &centroid);
        da.total_cmp(&db).then(a.cmp(&b))
    });
    let evict_count = ((leaf.pts.len() as f64 * REINSERT_FRACTION).ceil() as usize).max(1);
    let evicted: Vec<u32> = by_dist[by_dist.len() - evict_count..].to_vec();
    leaf.pts.retain(|p| !evicted.contains(p));
    for &e in &evicted {
        leaf.remove_point(points.point(e as usize));
    }
    InsertOutcome::Reinsert(evicted)
}

/// Variance of coordinates along each dimension; returns the argmax dimension.
fn max_variance_dim<'a>(coords: impl Iterator<Item = &'a [f32]> + Clone, dims: usize) -> usize {
    let mut best_dim = 0;
    let mut best_var = f64::NEG_INFINITY;
    let n = coords.clone().count().max(1) as f64;
    for d in 0..dims {
        let mean: f64 = coords.clone().map(|c| c[d] as f64).sum::<f64>() / n;
        let var: f64 = coords.clone().map(|c| (c[d] as f64 - mean).powi(2)).sum::<f64>() / n;
        if var > best_var {
            best_var = var;
            best_dim = d;
        }
    }
    best_dim
}

fn split_leaf(leaf: &mut TdNode, points: &PointSet) -> InsertOutcome {
    let dims = points.dims();
    let dim = max_variance_dim(leaf.pts.iter().map(|&p| points.point(p as usize)), dims);
    leaf.pts.sort_by(|&a, &b| {
        points.point(a as usize)[dim].total_cmp(&points.point(b as usize)[dim]).then(a.cmp(&b))
    });
    let half = leaf.pts.len() / 2;
    let right = TdNode::leaf(points, leaf.pts.split_off(half));
    *leaf = TdNode::leaf(points, std::mem::take(&mut leaf.pts));
    InsertOutcome::Split(right)
}

fn split_internal(node: &mut TdNode) -> InsertOutcome {
    let dims = node.centroid_sum.len();
    let centroids: Vec<Vec<f32>> = node.children.iter().map(|c| c.centroid()).collect();
    let dim = max_variance_dim(centroids.iter().map(|c| c.as_slice()), dims);

    let mut order: Vec<usize> = (0..node.children.len()).collect();
    order.sort_by(|&a, &b| centroids[a][dim].total_cmp(&centroids[b][dim]).then(a.cmp(&b)));
    let half = order.len() / 2;
    // Drain the right half in descending index order to keep indices stable;
    // the sibling takes its children in that order.
    let mut right_idx = order[half..].to_vec();
    right_idx.sort_unstable_by(|a, b| b.cmp(a));
    let right_children: Vec<TdNode> =
        right_idx.into_iter().map(|idx| node.children.remove(idx)).collect();

    let left_children = std::mem::take(&mut node.children);
    *node = TdNode::internal(dims, node.level, left_children);
    InsertOutcome::Split(TdNode::internal(dims, node.level, right_children))
}

/// Post-order flatten: children are appended to their level (a leaf's points
/// to `point_order`) before the parent records how many it has, so every
/// parent's children end up contiguous. Returns the node's level and sphere.
fn flatten(
    node: &TdNode,
    points: &PointSet,
    levels: &mut [Level],
    point_order: &mut Vec<u32>,
) -> (usize, Sphere) {
    let center = node.centroid();
    if node.level == 0 {
        let radius =
            node.pts.iter().map(|&p| dist(points.point(p as usize), &center)).fold(0f32, f32::max);
        let sphere = Sphere::new(center, radius * (1.0 + 1e-6));
        levels[0].spheres.push(sphere.clone());
        levels[0].counts.push(node.pts.len() as u32);
        point_order.extend_from_slice(&node.pts);
        return (0, sphere);
    }

    let mut radius = 0f32;
    for child in &node.children {
        let (clevel, csphere) = flatten(child, points, levels, point_order);
        debug_assert_eq!(clevel, node.level as usize - 1);
        radius = radius.max(dist(&csphere.center, &center) + csphere.radius);
    }
    let sphere = Sphere::new(center, radius * (1.0 + 1e-6));
    let lvl = &mut levels[node.level as usize];
    lvl.spheres.push(sphere.clone());
    lvl.counts.push(node.children.len() as u32);
    (node.level as usize, sphere)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{knn_branch_and_bound, linear_knn};
    use psb_data::{sample_queries, ClusteredSpec};

    fn dataset(n: usize, dims: usize) -> PointSet {
        ClusteredSpec { clusters: 5, points_per_cluster: n / 5, dims, sigma: 90.0, seed: 21 }
            .generate()
    }

    #[test]
    fn builds_a_valid_tree() {
        let ps = dataset(1000, 3);
        let t = build_topdown(&ps, 16);
        t.validate().expect("top-down tree invalid");
        assert_eq!(t.points.len(), 1000);
    }

    #[test]
    fn small_input_stays_single_leaf() {
        let ps = dataset(10, 2);
        let t = build_topdown(&ps, 16);
        assert_eq!(t.num_nodes(), 1);
        t.validate().unwrap();
    }

    #[test]
    fn search_is_exact_over_topdown_tree() {
        let ps = dataset(1500, 4);
        let t = build_topdown(&ps, 16);
        let queries = sample_queries(&ps, 15, 0.01, 6);
        for q in queries.iter() {
            let got = knn_branch_and_bound(&t, q, 10);
            let want = linear_knn(&ps, q, 10);
            for (g, w) in got.iter().zip(&want) {
                let scale = w.dist.max(1.0);
                assert!((g.dist - w.dist).abs() <= scale * 1e-4);
            }
        }
    }

    #[test]
    fn utilization_is_below_bottom_up() {
        let ps = dataset(2000, 3);
        let td = build_topdown(&ps, 16);
        let bu = crate::build::build(&ps, 16, &crate::build::BuildMethod::Hilbert);
        assert!(
            td.leaf_utilization() < bu.leaf_utilization(),
            "top-down {} >= bottom-up {}",
            td.leaf_utilization(),
            bu.leaf_utilization()
        );
        // Sanity: splits should still land near 50% fill on average.
        assert!(td.leaf_utilization() > 0.3, "{}", td.leaf_utilization());
    }

    #[test]
    fn deterministic() {
        let ps = dataset(800, 2);
        let a = build_topdown(&ps, 8);
        let b = build_topdown(&ps, 8);
        assert_eq!(a.point_ids, b.point_ids);
        assert_eq!(a.volumes.radii, b.volumes.radii);
    }
}
