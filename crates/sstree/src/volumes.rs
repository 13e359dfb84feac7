//! Node shape: the only place one bounding-volume family differs from another.
//!
//! The paper's traversal is for *n-ary multi-dimensional trees* whatever their
//! node regions are (§II-C weighs spheres against rectangles on cost alone),
//! so everything structural lives once in [`FlatTree`](crate::FlatTree) and a
//! family supplies just its [`Volumes`]: how a child's region is stored,
//! packed, checked and measured against a query. Two families exist —
//! [`Spheres`] here (the SS-tree) and `psb_rtree::Rects` (the packed R-tree).

use std::ops::Range;

use psb_geom::{dist, DistKernel, PointSet};

/// Instruction cost of one `dims`-dimensional distance evaluation in the cost
/// model: a 4-wide FMA loop plus the sqrt/compare tail.
#[inline]
pub fn dist_cost(dims: usize) -> u64 {
    (dims as u64).div_ceil(4) + 2
}

/// Reusable output buffers for a per-node child sweep. Pooled in the engine's
/// per-thread scratch so the batch loop performs no per-node allocation.
#[derive(Clone, Debug, Default)]
pub struct SweepScratch {
    /// MINDIST per child, in child order.
    pub min_d: Vec<f32>,
    /// MAXDIST per child (filled only when the sweep ran `with_max`).
    pub max_d: Vec<f32>,
    /// Anchor (representative-point) distance per child (filled only when the
    /// sweep ran `with_anchor`).
    pub anchor_d: Vec<f32>,
    /// Staging row for the batched one-query-vs-many-rows distance kernels:
    /// sweeps write raw row distances here before deriving their outputs, so
    /// no sweep allocates. Transient — valid only within one sweep call.
    pub tmp: Vec<f32>,
}

impl SweepScratch {
    /// Empty all buffers, keeping their capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.min_d.clear();
        self.max_d.clear();
        self.anchor_d.clear();
        self.tmp.clear();
    }
}

/// The bounding volumes of a [`FlatTree`](crate::FlatTree)'s nodes, stored
/// node-major. Every method that names a node trusts the id: callers index
/// only after [`FlatTree::validate`](crate::FlatTree::validate)'s length
/// check, or behind the kernels' bounds-checked links. A family owns its data
/// (`'static`), so a tree of it can move to a build thread.
pub trait Volumes: Send + Sync + 'static {
    /// f32 lanes one child's volume takes in a packed internal block (and in
    /// the modelled device block: a child entry is `4 * lanes + 12` bytes).
    fn lanes(dims: usize) -> usize;

    /// Name, length and f32 lanes per node of each node-major array — what
    /// the verifier's length check compares with the node count.
    fn arrays(&self, dims: usize) -> [(&'static str, usize, usize); 2];

    /// Append the volumes of the contiguous child run `kids` to `out` as one
    /// SoA block of `kids.len() * lanes(dims)` lanes — the layout
    /// [`Volumes::sweep`] reads back.
    fn pack(&self, dims: usize, kids: Range<usize>, out: &mut Vec<f32>);

    /// Whether node `n`'s volume is made of finite numbers and is not inside
    /// out (a negative radius, a low corner above the high one).
    fn finite(&self, dims: usize, n: usize) -> bool;

    /// Whether point `p` lies inside node `n`'s volume, within the family's
    /// construction tolerance. A NaN anywhere must read as "outside".
    fn contains_point(&self, dims: usize, n: usize, p: &[f32]) -> bool;

    /// Whether child `c`'s volume lies inside node `n`'s, within the family's
    /// construction tolerance. A NaN anywhere must read as "not contained".
    fn contains_child(&self, dims: usize, n: usize, c: usize) -> bool;

    /// MINDIST (and MAXDIST when `with_max`; otherwise unspecified) from `q`
    /// to node `c`'s volume, straight from node-major storage — the gather
    /// path and the CPU reference searches.
    fn min_max(&self, dims: usize, c: usize, q: &[f32], with_max: bool) -> (f32, f32);

    /// Distance from `q` to node `c`'s representative point (sphere center /
    /// rectangle center).
    fn anchor(&self, dims: usize, c: usize, q: &[f32]) -> f32;

    /// Instruction cost of one [`Volumes::min_max`] under the cost model —
    /// where the families differ (§II-C).
    fn eval_cost(dims: usize, with_max: bool) -> u64;

    /// Evaluate the `count` children of a [`Volumes::pack`]ed block against
    /// `q` in one pass, appending to `out` in child order. Must be
    /// **bit-identical** to [`Volumes::min_max`] / [`Volumes::anchor`] per
    /// child (`tests/layout_parity.rs`).
    fn sweep(
        block: &[f32],
        count: usize,
        q: &[f32],
        dk: &DistKernel,
        with_max: bool,
        with_anchor: bool,
        out: &mut SweepScratch,
    );

    /// Packs `points` bottom-up in Hilbert-key order, `degree` children a
    /// node: the build a mutable index's rebuild runs, whatever built its
    /// first tree.
    fn build_hilbert(points: &PointSet, degree: usize) -> crate::FlatTree<Self>
    where
        Self: Sized;
}

/// Bounding spheres, node-major: the SS-tree's node shape. One center
/// distance yields MINDIST *and* MAXDIST — the sphere advantage of §II-C.
#[derive(Clone, Debug, Default)]
pub struct Spheres {
    /// Sphere centers (`node * dims ..`).
    pub centers: Vec<f32>,
    /// Sphere radii.
    pub radii: Vec<f32>,
}

impl Spheres {
    /// The center of node `n`'s sphere.
    #[inline]
    pub fn center(&self, dims: usize, n: usize) -> &[f32] {
        &self.centers[n * dims..(n + 1) * dims]
    }
}

/// Containment slack of the sphere builders: Ritter and the top-down
/// centroid spheres both enclose within this relative + absolute margin.
const SPHERE_EPS: f32 = 1e-4;

// Containment is written as `gap <= bound` so that a NaN gap fails it.
impl Volumes for Spheres {
    #[inline]
    fn lanes(dims: usize) -> usize {
        dims + 1
    }

    fn arrays(&self, dims: usize) -> [(&'static str, usize, usize); 2] {
        [("centers", self.centers.len(), dims), ("radii", self.radii.len(), 1)]
    }

    fn pack(&self, dims: usize, kids: Range<usize>, out: &mut Vec<f32>) {
        out.extend_from_slice(&self.centers[kids.start * dims..kids.end * dims]);
        out.extend_from_slice(&self.radii[kids]);
    }

    #[inline]
    fn finite(&self, dims: usize, n: usize) -> bool {
        self.radii[n].is_finite()
            && self.radii[n] >= 0.0
            && self.center(dims, n).iter().all(|c| c.is_finite())
    }

    #[inline]
    fn contains_point(&self, dims: usize, n: usize, p: &[f32]) -> bool {
        dist(p, self.center(dims, n)) <= self.radii[n] * (1.0 + SPHERE_EPS) + SPHERE_EPS
    }

    #[inline]
    fn contains_child(&self, dims: usize, n: usize, c: usize) -> bool {
        let gap = dist(self.center(dims, c), self.center(dims, n)) + self.radii[c];
        gap <= self.radii[n] * (1.0 + SPHERE_EPS) + SPHERE_EPS
    }

    #[inline]
    fn min_max(&self, dims: usize, c: usize, q: &[f32], _with_max: bool) -> (f32, f32) {
        let center_d = dist(q, self.center(dims, c));
        ((center_d - self.radii[c]).max(0.0), center_d + self.radii[c])
    }

    #[inline]
    fn anchor(&self, dims: usize, c: usize, q: &[f32]) -> f32 {
        dist(q, self.center(dims, c))
    }

    #[inline]
    fn eval_cost(dims: usize, _with_max: bool) -> u64 {
        // Distance + radius add/subtract; MAXDIST is free (same distance).
        dist_cost(dims) + 2
    }

    #[inline]
    fn sweep(
        block: &[f32],
        count: usize,
        q: &[f32],
        dk: &DistKernel,
        with_max: bool,
        with_anchor: bool,
        out: &mut SweepScratch,
    ) {
        // One batched row sweep over the packed center block (center distance
        // once per child), then both bounds and the anchor derived from it:
        // same kernel, same data, same op order per value as the gather path.
        let (centers, radii) = block.split_at(count * q.len());
        out.tmp.clear();
        dk.dist_rows(q, centers, &mut out.tmp);
        let rows = || out.tmp.iter().zip(radii);
        out.min_d.extend(rows().map(|(&cd, &r)| (cd - r).max(0.0)));
        if with_max {
            out.max_d.extend(rows().map(|(&cd, &r)| cd + r));
        }
        if with_anchor {
            out.anchor_d.extend_from_slice(&out.tmp);
        }
    }

    fn build_hilbert(points: &PointSet, degree: usize) -> crate::SsTree {
        crate::build(points, degree, &crate::BuildMethod::Hilbert)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two() -> Spheres {
        // Node 0 encloses node 1.
        Spheres { centers: vec![0.0, 0.0, 1.0, 0.0], radii: vec![3.0, 1.5] }
    }

    #[test]
    fn pack_is_centers_then_radii_and_sweep_reads_it_back() {
        let s = two();
        let mut block = Vec::new();
        s.pack(2, 0..2, &mut block);
        assert_eq!(block, [0.0, 0.0, 1.0, 0.0, 3.0, 1.5]);
        assert_eq!(block.len(), 2 * Spheres::lanes(2));
        let q = [5.0f32, 0.0];
        let mut out = SweepScratch::default();
        Spheres::sweep(&block, 2, &q, &DistKernel::for_dims(2), true, true, &mut out);
        for c in 0..2 {
            let (lo, hi) = s.min_max(2, c, &q, true);
            assert_eq!(out.min_d[c].to_bits(), lo.to_bits());
            assert_eq!(out.max_d[c].to_bits(), hi.to_bits());
            assert_eq!(out.anchor_d[c].to_bits(), s.anchor(2, c, &q).to_bits());
        }
    }

    #[test]
    fn verifier_predicates_reject_nan_and_inside_out_spheres() {
        let s = two();
        assert!(s.finite(2, 0) && s.contains_child(2, 0, 1) && !s.contains_child(2, 1, 0));
        assert!(s.contains_point(2, 1, &[2.0, 0.0]) && !s.contains_point(2, 1, &[3.0, 0.0]));
        for bad in [f32::NAN, f32::INFINITY, -1.0] {
            let mut t = two();
            t.radii[1] = bad;
            assert!(!t.finite(2, 1), "radius {bad}");
        }
        let mut t = two();
        t.centers[2] = f32::NAN;
        assert!(!t.finite(2, 1));
        assert!(!t.contains_child(2, 0, 1) && !t.contains_point(2, 1, &[1.0, 0.0]));
    }

    #[test]
    fn maxdist_costs_nothing_extra_for_spheres() {
        assert_eq!(Spheres::eval_cost(8, false), Spheres::eval_cost(8, true));
    }
}
