//! Classic top-down SS-tree construction (White & Jain), kept as the comparison
//! point the paper's §IV argues against.
//!
//! Insertion descends into the child whose **centroid** is closest to the new
//! point; an overflowing node is split along its **highest-variance dimension**
//! (the original SS-tree split rule). The R*-style *forced reinsertion*
//! heuristic is applied once per insertion at the leaf level: the first time a
//! leaf overflows, the fraction of its points farthest from the centroid is
//! removed and reinserted from the root, which tightens spheres the same way the
//! SS-tree paper describes.
//!
//! Node centers follow the SS-tree convention: the **centroid of the subtree's
//! points** (maintained incrementally as an exact running sum), with the radius
//! computed at flatten time as a proper bound over children. Utilization of
//! top-down leaves lands well under 100 %, which is exactly the contrast with
//! bottom-up packing the paper draws.

use psb_geom::{dist, PointSet, Sphere};

use crate::build::{from_levels, Level};
use crate::tree::SsTree;

/// Fraction of a leaf's points removed on first overflow for reinsertion.
const REINSERT_FRACTION: f64 = 0.3;

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
    fn new_leaf(dims: usize) -> Self {
        Self {
            level: 0,
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

    fn add_to_centroid(&mut self, p: &[f32]) {
        self.count += 1;
        for (s, &x) in self.centroid_sum.iter_mut().zip(p) {
            *s += x as f64;
        }
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
/// top-down algorithm, then flattening into the shared arena layout.
pub fn build_topdown(points: &PointSet, degree: usize) -> SsTree {
    assert!(degree >= 2, "degree must be at least 2");
    assert!(!points.is_empty(), "cannot build an index over zero points");
    let dims = points.dims();
    let mut root = TdNode::new_leaf(dims);

    for id in 0..points.len() as u32 {
        insert_from_root(&mut root, points, id, degree, dims);
    }

    // Flatten post-order into per-level plans and reuse the bottom-up
    // materializer.
    let height = root.level as usize + 1;
    let mut levels: Vec<Level> =
        (0..height).map(|_| Level { spheres: Vec::new(), counts: Vec::new() }).collect();
    let mut point_order = Vec::with_capacity(points.len());
    flatten(&root, points, &mut levels, &mut point_order);
    from_levels(points, degree, levels, point_order)
}

fn insert_from_root(root: &mut TdNode, points: &PointSet, id: u32, degree: usize, dims: usize) {
    let mut allow_reinsert = true;
    let mut pending = vec![id];
    while let Some(pid) = pending.pop() {
        match insert(root, points, pid, degree, allow_reinsert) {
            InsertOutcome::Fit => {}
            InsertOutcome::Reinsert(evicted) => {
                allow_reinsert = false; // once per insertion, like R*
                pending.extend(evicted);
            }
            InsertOutcome::Split(sibling) => {
                // Root split: grow the tree by one level.
                let old_root = std::mem::replace(root, TdNode::new_leaf(dims));
                root.level = old_root.level + 1;
                root.count = old_root.count + sibling.count;
                for (s, (a, b)) in root
                    .centroid_sum
                    .iter_mut()
                    .zip(old_root.centroid_sum.iter().zip(&sibling.centroid_sum))
                {
                    *s = a + b;
                }
                root.pts.clear();
                root.children = vec![old_root, sibling];
            }
        }
    }
}

fn insert(
    node: &mut TdNode,
    points: &PointSet,
    id: u32,
    degree: usize,
    allow_reinsert: bool,
) -> InsertOutcome {
    node.add_to_centroid(points.point(id as usize));
    if node.level == 0 {
        node.pts.push(id);
        if node.pts.len() <= degree {
            return InsertOutcome::Fit;
        }
        if allow_reinsert {
            return evict_farthest(node, points);
        }
        return split_leaf(node, points, degree);
    }

    // Choose the child whose centroid is closest to the point.
    let p = points.point(id as usize);
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (i, c) in node.children.iter().enumerate() {
        let d = dist(p, &c.centroid());
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    match insert(&mut node.children[best], points, id, degree, allow_reinsert) {
        InsertOutcome::Fit => InsertOutcome::Fit,
        InsertOutcome::Reinsert(evicted) => {
            // The evicted points left the subtree: fix the running centroid.
            for &e in &evicted {
                let ep = points.point(e as usize);
                node.count -= 1;
                for (s, &x) in node.centroid_sum.iter_mut().zip(ep) {
                    *s -= x as f64;
                }
            }
            InsertOutcome::Reinsert(evicted)
        }
        InsertOutcome::Split(sibling) => {
            node.children.push(sibling);
            if node.children.len() <= degree {
                return InsertOutcome::Fit;
            }
            split_internal(node, degree)
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
        let ep = points.point(e as usize);
        leaf.count -= 1;
        for (s, &x) in leaf.centroid_sum.iter_mut().zip(ep) {
            *s -= x as f64;
        }
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

fn split_leaf(leaf: &mut TdNode, points: &PointSet, _degree: usize) -> InsertOutcome {
    let dims = points.dims();
    let dim = max_variance_dim(leaf.pts.iter().map(|&p| points.point(p as usize)), dims);
    leaf.pts.sort_by(|&a, &b| {
        points.point(a as usize)[dim].total_cmp(&points.point(b as usize)[dim]).then(a.cmp(&b))
    });
    let half = leaf.pts.len() / 2;
    let right_pts = leaf.pts.split_off(half);

    let mut right = TdNode::new_leaf(dims);
    for &p in &right_pts {
        right.add_to_centroid(points.point(p as usize));
    }
    right.pts = right_pts;

    // Recompute this (left) node's running sum from scratch.
    leaf.count = 0;
    leaf.centroid_sum.iter_mut().for_each(|s| *s = 0.0);
    let left_pts = std::mem::take(&mut leaf.pts);
    for &p in &left_pts {
        leaf.add_to_centroid(points.point(p as usize));
    }
    leaf.pts = left_pts;

    InsertOutcome::Split(right)
}

fn split_internal(node: &mut TdNode, _degree: usize) -> InsertOutcome {
    let dims = node.centroid_sum.len();
    let centroids: Vec<Vec<f32>> = node.children.iter().map(|c| c.centroid()).collect();
    let dim = max_variance_dim(centroids.iter().map(|c| c.as_slice()), dims);

    let mut order: Vec<usize> = (0..node.children.len()).collect();
    order.sort_by(|&a, &b| centroids[a][dim].total_cmp(&centroids[b][dim]).then(a.cmp(&b)));
    let half = order.len() / 2;
    let right_set: Vec<usize> = order[half..].to_vec();

    let mut right_children = Vec::with_capacity(order.len() - half);
    // Drain right children in descending index order to keep indices stable.
    let mut right_sorted = right_set.clone();
    right_sorted.sort_unstable_by(|a, b| b.cmp(a));
    for idx in right_sorted {
        right_children.push(node.children.remove(idx));
    }

    let mut right = TdNode::new_leaf(dims);
    right.level = node.level;
    for c in &right_children {
        right.count += c.count;
        for (s, &x) in right.centroid_sum.iter_mut().zip(&c.centroid_sum) {
            *s += x;
        }
    }
    right.children = right_children;

    node.count = 0;
    node.centroid_sum.iter_mut().for_each(|s| *s = 0.0);
    for c in &node.children {
        node.count += c.count;
        for (s, &x) in node.centroid_sum.iter_mut().zip(&c.centroid_sum) {
            *s += x;
        }
    }

    InsertOutcome::Split(right)
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
