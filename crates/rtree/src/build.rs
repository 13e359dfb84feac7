//! Bulk loading: Hilbert packing and Sort-Tile-Recursive (STR).
//!
//! Both are "packed" builds in the Kamel–Faloutsos sense the paper cites as
//! [20]: leaves are filled to capacity from an ordered point stream, upper
//! levels chunk the level below, MBRs are computed bottom-up. STR (Leutenegger
//! et al.) slices the space recursively one dimension at a time, which tends
//! to produce squarer rectangles than the raw curve order in low dimensions.

use psb_geom::{hilbert_sort, PointSet};

use crate::tree::{RsTree, NOT_A_LEAF, NO_PARENT};

/// Bulk-load strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RtreeBuildMethod {
    /// Order points by Hilbert key, pack full leaves (Hilbert-packed R-tree).
    Hilbert,
    /// Sort-Tile-Recursive: recursive sort-and-slice, one dimension at a time.
    Str,
}

/// Builds a packed R-tree over `points` with the given node degree.
pub fn build_rtree(points: &PointSet, degree: usize, method: &RtreeBuildMethod) -> RsTree {
    assert!(degree >= 2, "degree must be at least 2");
    assert!(!points.is_empty(), "cannot build an index over zero points");
    let n = points.len();

    let order: Vec<u32> = match method {
        RtreeBuildMethod::Hilbert => hilbert_sort(points),
        RtreeBuildMethod::Str => {
            let mut idx: Vec<u32> = (0..n as u32).collect();
            str_order(points, &mut idx, 0, degree);
            idx
        }
    };

    materialize(points, degree, &order)
}

/// STR recursion: sort this span by dimension `dim`, slice into
/// `ceil(span / slab)` slabs where each slab holds roughly the points of
/// `S^(d-dim-1)` leaves, recurse with the next dimension inside each slab.
fn str_order(points: &PointSet, idx: &mut [u32], dim: usize, leaf_cap: usize) {
    let dims = points.dims();
    if idx.len() <= leaf_cap || dim >= dims {
        return;
    }
    idx.sort_unstable_by(|&a, &b| {
        points.point(a as usize)[dim].total_cmp(&points.point(b as usize)[dim]).then(a.cmp(&b))
    });
    // Number of leaves this span will produce, spread over the remaining dims.
    // Slab boundaries must fall on whole leaves, or the final chunking would
    // create leaves straddling two slabs (a full-width MBR jump).
    let leaves = idx.len().div_ceil(leaf_cap);
    let remaining = (dims - dim) as f64;
    let slabs = (leaves as f64).powf(1.0 / remaining).ceil() as usize;
    if slabs <= 1 {
        return;
    }
    let slab_len = leaves.div_ceil(slabs) * leaf_cap;
    for chunk in idx.chunks_mut(slab_len.max(leaf_cap)) {
        str_order(points, chunk, dim + 1, leaf_cap);
    }
}

fn materialize(points: &PointSet, degree: usize, order: &[u32]) -> RsTree {
    let dims = points.dims();

    // Leaf level: full chunks of the ordered stream.
    let leaf_groups: Vec<&[u32]> = order.chunks(degree).collect();
    let num_leaves = leaf_groups.len();

    // Count nodes per level going up.
    let mut level_sizes = vec![num_leaves];
    let mut top = num_leaves;
    while top > 1 {
        top = top.div_ceil(degree);
        level_sizes.push(top);
    }
    let num_levels = level_sizes.len();
    let total_nodes: usize = level_sizes.iter().sum();

    // Arena bases: root level first, leaves last.
    let mut base = vec![0u32; num_levels]; // indexed by level (0 = leaves)
    {
        let mut acc = 0u32;
        for li in (0..num_levels).rev() {
            base[li] = acc;
            acc += level_sizes[li] as u32;
        }
    }

    let mut mins = vec![f32::INFINITY; total_nodes * dims];
    let mut maxs = vec![f32::NEG_INFINITY; total_nodes * dims];
    let mut parent = vec![NO_PARENT; total_nodes];
    let mut level = vec![0u8; total_nodes];
    let mut first_child = vec![0u32; total_nodes];
    let mut child_count = vec![0u32; total_nodes];
    let mut leaf_id = vec![NOT_A_LEAF; total_nodes];
    let mut sub_min = vec![0u32; total_nodes];
    let mut sub_max = vec![0u32; total_nodes];
    let mut leaf_node_of = vec![0u32; num_leaves];

    // Leaves.
    let mut point_cursor = 0u32;
    for (l, group) in leaf_groups.iter().enumerate() {
        let node = (base[0] + l as u32) as usize;
        leaf_node_of[l] = node as u32;
        leaf_id[node] = l as u32;
        first_child[node] = point_cursor;
        child_count[node] = group.len() as u32;
        sub_min[node] = l as u32;
        sub_max[node] = l as u32;
        point_cursor += group.len() as u32;
        for &p in group.iter() {
            let pt = points.point(p as usize);
            for (d, &x) in pt.iter().enumerate() {
                let lo = &mut mins[node * dims + d];
                if x < *lo {
                    *lo = x;
                }
                let hi = &mut maxs[node * dims + d];
                if x > *hi {
                    *hi = x;
                }
            }
        }
    }

    // Upper levels: chunk the level below, union MBRs.
    for li in 1..num_levels {
        let below = level_sizes[li - 1];
        for j in 0..level_sizes[li] {
            let node = (base[li] + j as u32) as usize;
            level[node] = li as u8;
            let c_start = base[li - 1] + (j * degree) as u32;
            let c_count = degree.min(below - j * degree) as u32;
            first_child[node] = c_start;
            child_count[node] = c_count;
            let mut mn = u32::MAX;
            let mut mx = 0u32;
            for c in c_start..c_start + c_count {
                parent[c as usize] = node as u32;
                mn = mn.min(sub_min[c as usize]);
                mx = mx.max(sub_max[c as usize]);
                for d in 0..dims {
                    let cl = mins[c as usize * dims + d];
                    let ch = maxs[c as usize * dims + d];
                    if cl < mins[node * dims + d] {
                        mins[node * dims + d] = cl;
                    }
                    if ch > maxs[node * dims + d] {
                        maxs[node * dims + d] = ch;
                    }
                }
            }
            sub_min[node] = mn;
            sub_max[node] = mx;
        }
    }

    let mut tree = RsTree {
        dims,
        degree,
        points: points.gather(order),
        point_ids: order.to_vec(),
        mins,
        maxs,
        parent,
        level,
        first_child,
        child_count,
        leaf_id,
        subtree_min_leaf: sub_min,
        subtree_max_leaf: sub_max,
        leaf_node_of,
        root: 0,
        rope: Vec::new(),
        arena: None,
    };
    tree.rebuild_arena();
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_data::{sample_queries, ClusteredSpec};
    use psb_geom::dist;

    fn dataset(dims: usize) -> PointSet {
        ClusteredSpec { clusters: 6, points_per_cluster: 300, dims, sigma: 90.0, seed: 83 }
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
    fn hilbert_build_validates() {
        let ps = dataset(3);
        let t = build_rtree(&ps, 16, &RtreeBuildMethod::Hilbert);
        t.validate().expect("hilbert r-tree invalid");
        assert_eq!(t.points.len(), 1800);
    }

    #[test]
    fn str_build_validates() {
        let ps = dataset(3);
        let t = build_rtree(&ps, 16, &RtreeBuildMethod::Str);
        t.validate().expect("str r-tree invalid");
    }

    #[test]
    fn cpu_knn_exact_both_methods() {
        let ps = dataset(4);
        for m in [RtreeBuildMethod::Hilbert, RtreeBuildMethod::Str] {
            let t = build_rtree(&ps, 16, &m);
            for q in sample_queries(&ps, 12, 0.01, 84).iter() {
                let got = t.knn_cpu(q, 10);
                let want = linear(&ps, q, 10);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert!((g.0 - w.0).abs() <= w.0.max(1.0) * 1e-4, "{m:?}");
                }
            }
        }
    }

    #[test]
    fn full_leaf_utilization() {
        let ps = dataset(2); // 1800 points
        let t = build_rtree(&ps, 18, &RtreeBuildMethod::Hilbert);
        assert_eq!(t.leaf_node_of.len(), 100);
        assert!(t.leaf_node_of.iter().all(|&n| t.child_count[n as usize] == 18));
    }

    #[test]
    fn single_leaf_tree() {
        let mut ps = PointSet::new(2);
        for i in 0..5 {
            ps.push(&[i as f32, 0.0]);
        }
        let t = build_rtree(&ps, 16, &RtreeBuildMethod::Str);
        assert_eq!(t.num_nodes(), 1);
        t.validate().unwrap();
        let got = t.knn_cpu(&[2.2, 0.0], 1);
        assert_eq!(got[0].1, 2);
    }

    #[test]
    fn str_produces_tighter_mbrs_on_uniform_2d() {
        // STR's raison d'être: squarer tiles. On *uniform* data its recursive
        // slicing beats raw curve order; on clustered data the curve's density
        // following wins instead — so this compares on a uniform workload.
        let ps = psb_data::UniformSpec { len: 2_000, dims: 2, seed: 85 }.generate();
        let hp = |t: &RsTree| -> f64 {
            t.leaf_node_of
                .iter()
                .map(|&n| {
                    let (lo, hi) = t.mbr(n);
                    lo.iter().zip(hi).map(|(&l, &h)| (h - l) as f64).sum::<f64>()
                })
                .sum()
        };
        let h = build_rtree(&ps, 16, &RtreeBuildMethod::Hilbert);
        let s = build_rtree(&ps, 16, &RtreeBuildMethod::Str);
        assert!(hp(&s) <= hp(&h) * 1.05, "STR {} vs Hilbert {}", hp(&s), hp(&h));
    }

    #[test]
    fn deterministic() {
        let ps = dataset(3);
        let a = build_rtree(&ps, 16, &RtreeBuildMethod::Str);
        let b = build_rtree(&ps, 16, &RtreeBuildMethod::Str);
        assert_eq!(a.point_ids, b.point_ids);
        assert_eq!(a.mins, b.mins);
    }
}
