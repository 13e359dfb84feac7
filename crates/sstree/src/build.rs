//! Parallel bottom-up SS-tree construction (paper §IV).
//!
//! Both construction methods reduce to the same pipeline:
//!
//! 1. compute a **point ordering** (Hilbert-curve order, or k-means cluster order
//!    with Hilbert-ordered clusters and members);
//! 2. chunk the ordered stream into **full leaves** — the paper explicitly
//!    enforces 100 % leaf utilization "even if we can significantly reduce the
//!    volume by storing some points in a sibling tree node";
//! 3. build internal levels bottom-up, enclosing child spheres with the parallel
//!    Ritter algorithm. For the k-means method the paper re-clusters each
//!    internal level with `k` reduced by 100×; that re-clustering *reorders* the
//!    level before it is chunked into parents, and leaf ids are assigned only
//!    after the full shape is known so the left-to-right numbering PSB depends on
//!    stays consistent.
//!
//! Everything is deterministic (seeded k-means, tie-broken sorts) and the heavy
//! phases (key computation, per-leaf Ritter spheres) run on the rayon pool.

use psb_geom::{
    hilbert_keys, hilbert_sort, kmeans, ritter_points, ritter_spheres, KMeansParams, PointSet,
    Rect, RitterMode, Sphere,
};
use rayon::prelude::*;

use crate::tree::{chunk_counts, SsTree};
use crate::volumes::Spheres;

/// Bottom-up construction method.
#[derive(Clone, Debug)]
pub enum BuildMethod {
    /// Sort by Hilbert key and pack (paper §IV-A).
    Hilbert,
    /// k-means cluster order at the leaf level, re-clustered with `k/100` per
    /// internal level (paper §IV-B). `k_leaf = 0` selects the paper's default
    /// `sqrt(n/2)`.
    KMeans { k_leaf: usize, seed: u64 },
}

impl BuildMethod {
    /// The k-means method with the paper's default `k = sqrt(n/2)`.
    pub fn kmeans_default(seed: u64) -> Self {
        BuildMethod::KMeans { k_leaf: 0, seed }
    }
}

/// One under-construction level: per node, its sphere and how many children
/// it has — the next that many nodes in the *final order* of the level below
/// (for leaves, the next that many points of the leaf order). Shared with the
/// top-down builder, which flattens its pointer tree into the same
/// representation before materializing.
pub(crate) struct Level {
    pub(crate) spheres: Vec<Sphere>,
    pub(crate) counts: Vec<u32>,
}

/// Coordinates under a level's nodes from which their spheres are enclosed in
/// a parallel region (`psb_geom::hilbert_keys` has the same gate, for the
/// same reason): below it — every level of a shard-sized tree, the upper
/// levels of any tree — the passes are well under a millisecond and run on
/// the calling thread.
const PAR_MIN_COORDS: usize = 1 << 16;

/// One sphere per group, in group order; `coords` is what the groups hold
/// between them.
fn enclose<G: Sync>(
    groups: &[G],
    coords: usize,
    sphere: impl Fn(&G) -> Sphere + Sync + Send,
) -> Vec<Sphere> {
    if coords < PAR_MIN_COORDS {
        groups.iter().map(sphere).collect()
    } else {
        groups.par_iter().map(sphere).collect()
    }
}

/// Builds an SS-tree over `points` with the given node degree (= leaf capacity).
pub fn build(points: &PointSet, degree: usize, method: &BuildMethod) -> SsTree {
    assert!(degree >= 2, "degree must be at least 2");
    assert!(!points.is_empty(), "cannot build an index over zero points");
    let n = points.len();

    // Step 1: the point ordering — and, for the k-means method, what the
    // internal levels are re-clustered with: the dataset's box (every level's
    // keys are taken against it), the next level's `k`, and the seed.
    let (order, mut clustering) = match method {
        BuildMethod::Hilbert => (hilbert_sort(points), None),
        BuildMethod::KMeans { k_leaf, seed } => {
            let k = if *k_leaf == 0 { psb_geom::kmeans::suggested_k(n) } else { *k_leaf };
            let all: Vec<u32> = (0..n as u32).collect();
            let result = kmeans(points, &all, &KMeansParams { k, max_iters: 16, seed: *seed });
            let bounds = Rect::of_point_set(points);
            let order = order_by_clusters(&result.assignment, &result.centroids, points, &bounds);
            (order, Some((bounds, k / 100, *seed)))
        }
    };

    // Step 2: full leaves from the ordered stream — slices of it, not copies.
    let mut leaves: Vec<&[u32]> = order.chunks(degree).collect();
    let leaf_spheres =
        enclose(&leaves, n * points.dims(), |g| ritter_points(points, g, RitterMode::Sequential));
    let mut levels: Vec<Level> =
        vec![Level { spheres: leaf_spheres, counts: chunk_counts(n, degree) }];

    // Step 3: internal levels.
    loop {
        let m = levels.last().map_or(0, |l| l.spheres.len());
        if m <= 1 {
            break;
        }

        // Reorder the level below (k-means method only, while k is meaningful).
        let below_is_leaves = levels.len() == 1;
        if let (Some((bounds, k_level, seed)), Some(below)) = (&mut clustering, levels.last_mut()) {
            if *k_level >= 2 && m > degree {
                let centers = PointSet::from_flat(
                    points.dims(),
                    below.spheres.iter().flat_map(|s| s.center.iter().copied()).collect(),
                );
                let all: Vec<u32> = (0..m as u32).collect();
                let result = kmeans(
                    &centers,
                    &all,
                    &KMeansParams { k: (*k_level).min(m), max_iters: 16, seed: *seed ^ 0x5eed },
                );
                let perm =
                    order_by_clusters(&result.assignment, &result.centroids, &centers, bounds);
                apply_permutation(below, &perm);
                if below_is_leaves {
                    leaves = perm.iter().map(|&p| leaves[p as usize]).collect();
                }
            }
            *k_level /= 100;
        }

        // Chunk into parents and enclose.
        let below_spheres = match levels.last() {
            Some(l) => &l.spheres,
            None => break, // unreachable: the loop guard saw a last level
        };
        let families: Vec<&[Sphere]> = below_spheres.chunks(degree).collect();
        let parent_spheres = enclose(&families, m * points.dims(), |kids| {
            ritter_spheres(kids, RitterMode::Sequential)
        });
        levels.push(Level { spheres: parent_spheres, counts: chunk_counts(m, degree) });
    }

    from_levels(points, degree, levels, leaves.concat())
}

/// Orders items by (Hilbert key of their cluster centroid, then Hilbert key of
/// the item itself, then index). This is the "cluster order" both k-means levels
/// use: clusters laid along the curve, members sorted along the curve inside.
fn order_by_clusters(
    assignment: &[u32],
    centroids: &PointSet,
    items: &PointSet,
    bounds: &Rect,
) -> Vec<u32> {
    let cluster_keys = hilbert_keys(centroids, bounds);
    let item_keys = hilbert_keys(items, bounds);
    let mut idx: Vec<u32> = (0..assignment.len() as u32).collect();
    idx.par_sort_unstable_by_key(|&i| {
        let c = assignment[i as usize] as usize;
        (cluster_keys[c], c as u32, item_keys[i as usize], i)
    });
    idx
}

/// Permutes a level in place: node `i` of the new order is old node `perm[i]`.
fn apply_permutation(level: &mut Level, perm: &[u32]) {
    level.spheres = perm.iter().map(|&p| level.spheres[p as usize].clone()).collect();
    level.counts = perm.iter().map(|&p| level.counts[p as usize]).collect();
}

/// Lays the per-level spheres out node-major in arena order — root level
/// first, leaves last — and hands the plan to the shared materializer.
/// `point_order` is the leaf order: the leaves' points, leaf after leaf.
pub(crate) fn from_levels(
    points: &PointSet,
    degree: usize,
    levels: Vec<Level>,
    point_order: Vec<u32>,
) -> SsTree {
    let mut volumes = Spheres::default();
    for sphere in levels.iter().rev().flat_map(|l| &l.spheres) {
        volumes.centers.extend_from_slice(&sphere.center);
        volumes.radii.push(sphere.radius);
    }
    let counts: Vec<Vec<u32>> = levels.into_iter().map(|l| l.counts).collect();
    SsTree::materialize(points, degree, &counts, point_order, volumes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_data::ClusteredSpec;

    fn dataset(n_clusters: usize, per: usize, dims: usize, sigma: f32) -> PointSet {
        ClusteredSpec { clusters: n_clusters, points_per_cluster: per, dims, sigma, seed: 99 }
            .generate()
    }

    #[test]
    fn hilbert_build_validates() {
        let ps = dataset(5, 300, 3, 100.0);
        let t = build(&ps, 16, &BuildMethod::Hilbert);
        t.validate().expect("hilbert tree invalid");
        assert_eq!(t.points.len(), 1500);
        assert_eq!(t.num_leaves(), 1500usize.div_ceil(16));
    }

    #[test]
    fn kmeans_build_validates() {
        let ps = dataset(5, 300, 3, 100.0);
        let t = build(&ps, 16, &BuildMethod::KMeans { k_leaf: 20, seed: 5 });
        t.validate().expect("kmeans tree invalid");
    }

    #[test]
    fn kmeans_default_k_validates() {
        let ps = dataset(3, 200, 2, 50.0);
        let t = build(&ps, 8, &BuildMethod::kmeans_default(1));
        t.validate().expect("kmeans default-k tree invalid");
    }

    #[test]
    fn full_leaf_utilization() {
        let ps = dataset(4, 256, 2, 10.0); // 1024 points, degree 16 -> 64 full leaves
        for method in [BuildMethod::Hilbert, BuildMethod::KMeans { k_leaf: 10, seed: 2 }] {
            let t = build(&ps, 16, &method);
            assert_eq!(t.leaf_utilization(), 1.0, "method {method:?}");
        }
    }

    #[test]
    fn partial_final_leaf_only() {
        let ps = dataset(1, 1000, 2, 10.0); // 1000 points, degree 128
        let t = build(&ps, 128, &BuildMethod::Hilbert);
        assert_eq!(t.num_leaves(), 8);
        let counts: Vec<u32> = t.leaf_node_of.iter().map(|&n| t.child_count[n as usize]).collect();
        assert!(counts[..7].iter().all(|&c| c == 128));
        assert_eq!(counts[7], 1000 - 7 * 128);
    }

    #[test]
    fn single_leaf_tree() {
        let ps = dataset(1, 50, 2, 5.0);
        let t = build(&ps, 128, &BuildMethod::Hilbert);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.height(), 1);
        assert!(t.is_leaf(t.root));
        t.validate().expect("single leaf tree invalid");
    }

    #[test]
    fn deterministic_construction() {
        let ps = dataset(3, 400, 4, 80.0);
        let m = BuildMethod::KMeans { k_leaf: 12, seed: 77 };
        let a = build(&ps, 16, &m);
        let b = build(&ps, 16, &m);
        assert_eq!(a.point_ids, b.point_ids);
        assert_eq!(a.volumes.radii, b.volumes.radii);
        assert_eq!(a.volumes.centers, b.volumes.centers);
    }

    #[test]
    fn hilbert_leaves_are_spatially_tight() {
        // On strongly clustered data, Hilbert-packed leaf radii must be far
        // smaller than the space: locality is the entire point of the curve.
        // The exact average depends on how many packed leaves straddle two
        // clusters (a handful of ~cluster-gap-radius stragglers dominate the
        // mean), so the bound is loose — but broken locality would produce
        // radii on the order of the 65 536-wide space, orders of magnitude
        // beyond it.
        let ps = dataset(10, 200, 2, 20.0);
        let t = build(&ps, 16, &BuildMethod::Hilbert);
        let avg_leaf_radius: f32 =
            t.leaf_node_of.iter().map(|&n| t.volumes.radii[n as usize]).sum::<f32>()
                / t.num_leaves() as f32;
        assert!(
            avg_leaf_radius < 1500.0,
            "avg leaf radius {avg_leaf_radius} suggests broken locality"
        );
    }

    #[test]
    fn kmeans_produces_tighter_or_similar_leaves_than_hilbert_high_dim() {
        // The paper's Fig. 3 motivation: in higher dimensions the Hilbert key
        // collapses (few bits per dimension) while k-means still finds the
        // clusters. Compare mean leaf radius at d = 16.
        let ps = dataset(8, 250, 16, 50.0);
        let th = build(&ps, 16, &BuildMethod::Hilbert);
        let tk = build(&ps, 16, &BuildMethod::KMeans { k_leaf: 8, seed: 3 });
        let mean_r = |t: &SsTree| {
            t.leaf_node_of.iter().map(|&n| t.volumes.radii[n as usize]).sum::<f32>()
                / t.num_leaves() as f32
        };
        assert!(
            mean_r(&tk) <= mean_r(&th) * 1.05,
            "kmeans {} vs hilbert {}",
            mean_r(&tk),
            mean_r(&th)
        );
    }

    #[test]
    fn point_ids_are_a_permutation() {
        let ps = dataset(2, 500, 3, 30.0);
        let t = build(&ps, 32, &BuildMethod::KMeans { k_leaf: 6, seed: 8 });
        let mut ids = t.point_ids.clone();
        ids.sort_unstable();
        let expect: Vec<u32> = (0..1000).collect();
        assert_eq!(ids, expect);
        // Reordered points match originals.
        for (pos, &orig) in t.point_ids.iter().enumerate() {
            assert_eq!(t.points.point(pos), ps.point(orig as usize));
        }
    }

    #[test]
    fn degree_bounds_respected() {
        let ps = dataset(6, 333, 2, 60.0);
        for degree in [4usize, 16, 100] {
            let t = build(&ps, degree, &BuildMethod::Hilbert);
            t.validate().unwrap();
            for n in 0..t.num_nodes() as u32 {
                assert!(t.child_count[n as usize] as usize <= degree);
            }
        }
    }
}
