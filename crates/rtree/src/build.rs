//! Bulk loading: Hilbert packing and Sort-Tile-Recursive (STR).
//!
//! Both are "packed" builds in the Kamel–Faloutsos sense (the paper's
//! reference 20): leaves are filled to capacity from an ordered point stream,
//! upper levels chunk the level below, MBRs are computed bottom-up. STR
//! (Leutenegger et al.) slices the space recursively one dimension at a time,
//! which tends to produce squarer rectangles than the raw curve order in low
//! dimensions.

use psb_geom::{hilbert_sort, PointSet};
use psb_sstree::tree::chunk_counts;

use crate::{Rects, RsTree};

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
    let dims = points.dims();

    let order: Vec<u32> = match method {
        RtreeBuildMethod::Hilbert => hilbert_sort(points),
        RtreeBuildMethod::Str => {
            let mut idx: Vec<u32> = (0..n as u32).collect();
            str_order(points, &mut idx, 0, degree);
            idx
        }
    };

    // Leaf level: full chunks of the ordered stream, each under the min/max
    // fold of its points. Upper levels: chunk the level below, union its
    // MBRs, until one node is left.
    let mut levels = vec![Rects::default()];
    let point = |&p: &u32| points.point(p as usize);
    for group in order.chunks(degree) {
        fold_mbr(&mut levels[0], dims, group.iter().map(|p| (point(p), point(p))));
    }
    let mut counts = vec![chunk_counts(n, degree)];
    while let Some(below) = levels.last().filter(|l| l.mins.len() > dims) {
        let mut level = Rects::default();
        for (lo, hi) in below.mins.chunks(degree * dims).zip(below.maxs.chunks(degree * dims)) {
            fold_mbr(&mut level, dims, lo.chunks(dims).zip(hi.chunks(dims)));
        }
        counts.push(chunk_counts(below.mins.len() / dims, degree));
        levels.push(level);
    }

    // Arena order: root level first, leaves last.
    let mut volumes = Rects::default();
    for level in levels.iter().rev() {
        volumes.mins.extend_from_slice(&level.mins);
        volumes.maxs.extend_from_slice(&level.maxs);
    }
    RsTree::materialize(points, degree, &counts, order, volumes)
}

/// Appends to `level` the MBR of a group of boxes, each given as its low and
/// high corner (a point is both of its own).
fn fold_mbr<'a>(
    level: &mut Rects,
    dims: usize,
    boxes: impl Iterator<Item = (&'a [f32], &'a [f32])>,
) {
    let at = level.mins.len();
    level.mins.resize(at + dims, f32::INFINITY);
    level.maxs.resize(at + dims, f32::NEG_INFINITY);
    let (mins, maxs) = (&mut level.mins[at..], &mut level.maxs[at..]);
    for (lo, hi) in boxes {
        for ((min, max), (&l, &h)) in mins.iter_mut().zip(maxs.iter_mut()).zip(lo.iter().zip(hi)) {
            if l < *min {
                *min = l;
            }
            if h > *max {
                *max = h;
            }
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use psb_data::{sample_queries, ClusteredSpec};
    use psb_sstree::{knn_best_first, linear_knn};

    fn dataset(dims: usize) -> PointSet {
        ClusteredSpec { clusters: 6, points_per_cluster: 300, dims, sigma: 90.0, seed: 83 }
            .generate()
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
                let got = knn_best_first(&t, q, 10);
                let want = linear_knn(&ps, q, 10);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert!((g.dist - w.dist).abs() <= w.dist.max(1.0) * 1e-4, "{m:?}");
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
        let got = knn_best_first(&t, &[2.2, 0.0], 1);
        assert_eq!(got[0].id, 2);
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
                    let (lo, hi) = t.volumes.mbr(t.dims, n as usize);
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
        assert_eq!(a.volumes.mins, b.volumes.mins);
    }
}
