//! Ritter's approximate minimum enclosing sphere (paper §IV-C, Algorithm 2).
//!
//! The paper parallelizes Ritter's algorithm to build bounding spheres bottom-up:
//! leaf spheres enclose raw points, internal spheres enclose their children's
//! *spheres*. Both cases are handled here by treating a point as a radius-0 sphere.
//!
//! Shape of the algorithm (matching Algorithm 2):
//!
//! 1. from item 0, find the farthest item `p` (parallel distance + parallel argmax
//!    reduction);
//! 2. from `p`, find the farthest item `q`; the initial sphere spans `p`–`q`;
//! 3. repeat: find the globally farthest item; if it pokes out, grow the sphere
//!    just enough to cover it (the grown sphere provably contains the old one, so
//!    the loop terminates in at most `n` growth steps).
//!
//! All geometry runs in `f64` and the final radius gets a one-ulp-ish relative pad
//! so the returned `f32` sphere genuinely contains every input under `f32` math.
//! The [`RitterMode::Parallel`] path distributes the distance computations with
//! rayon and reduces with an index tie-break, so it returns *bit-identical* results
//! to the sequential path under any thread count — construction must be
//! deterministic for the experiments to be reproducible.

use std::cell::Cell;

use rayon::prelude::*;

use crate::point::PointSet;
use crate::sphere::Sphere;

/// Relative pad applied to the final `f32` radius so f32 containment checks hold.
const RADIUS_PAD: f64 = 1e-6;

/// Whether the farthest-item searches run sequentially or on the rayon pool.
/// Both modes produce identical spheres; `Parallel` models the paper's GPU-parallel
/// construction and is the default for bulk builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RitterMode {
    Sequential,
    #[default]
    Parallel,
}

/// Abstraction over "things a sphere can enclose": indexed centers with radii.
trait Items: Sync {
    fn len(&self) -> usize;
    fn center(&self, i: usize) -> &[f32];
    fn radius(&self, i: usize) -> f64;
    fn dims(&self) -> usize;
}

struct PointItems<'a> {
    ps: &'a PointSet,
    idx: &'a [u32],
}

impl Items for PointItems<'_> {
    fn len(&self) -> usize {
        self.idx.len()
    }
    fn center(&self, i: usize) -> &[f32] {
        self.ps.point(self.idx[i] as usize)
    }
    fn radius(&self, _i: usize) -> f64 {
        0.0
    }
    fn dims(&self) -> usize {
        self.ps.dims()
    }
}

struct SphereItems<'a> {
    spheres: &'a [Sphere],
}

impl Items for SphereItems<'_> {
    fn len(&self) -> usize {
        self.spheres.len()
    }
    fn center(&self, i: usize) -> &[f32] {
        &self.spheres[i].center
    }
    fn radius(&self, i: usize) -> f64 {
        self.spheres[i].radius as f64
    }
    fn dims(&self) -> usize {
        self.spheres[0].center.len()
    }
}

/// Enclosing sphere of the points selected by `idx` out of `ps`.
pub fn ritter_points(ps: &PointSet, idx: &[u32], mode: RitterMode) -> Sphere {
    assert!(!idx.is_empty(), "ritter over an empty point set");
    run(&PointItems { ps, idx }, mode)
}

/// Enclosing sphere of a set of child spheres (internal SS-tree nodes).
pub fn ritter_spheres(spheres: &[Sphere], mode: RitterMode) -> Sphere {
    assert!(!spheres.is_empty(), "ritter over an empty sphere set");
    run(&SphereItems { spheres }, mode)
}

/// `dist(center of a, far side of item i)` in f64: the quantity both the farthest-
/// item search and the growth test need.
fn far_dist<I: Items>(items: &I, from: &[f64], i: usize) -> f64 {
    let c = items.center(i);
    let mut acc = 0f64;
    for (a, &b) in from.iter().zip(c) {
        let d = a - b as f64;
        acc += d * d;
    }
    acc.sqrt() + items.radius(i)
}

/// Argmax of `far_dist` with smallest-index tie-break (deterministic under rayon).
fn farthest<I: Items>(items: &I, from: &[f64], mode: RitterMode) -> (usize, f64) {
    let pick = |best: (usize, f64), cand: (usize, f64)| {
        if cand.1 > best.1 || (cand.1 == best.1 && cand.0 < best.0) {
            cand
        } else {
            best
        }
    };
    match mode {
        RitterMode::Sequential => (0..items.len())
            .map(|i| (i, far_dist(items, from, i)))
            .fold((usize::MAX, f64::NEG_INFINITY), pick),
        RitterMode::Parallel => {
            // A coarse grid, as k-means keeps: a parallel region costs its
            // workers' spawn, so it is entered around thousands of items, and
            // a leaf-sized set stays one piece on the calling thread. The
            // argmax (index tie-break) is the same under any grouping.
            const GRID: usize = 1024;
            let n = items.len();
            (0..n.div_ceil(GRID))
                .into_par_iter()
                .map(|chunk| {
                    (chunk * GRID..n.min((chunk + 1) * GRID))
                        .map(|i| (i, far_dist(items, from, i)))
                        .fold((usize::MAX, f64::NEG_INFINITY), pick)
                })
                .reduce(|| (usize::MAX, f64::NEG_INFINITY), pick)
        }
    }
}

thread_local! {
    /// The f64 working rows of [`run`], kept from one sphere to the next: a
    /// build encloses hundreds of leaves per thread, all of one width.
    static ROWS: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

fn widen(to: &mut [f64], from: &[f32]) {
    for (t, &f) in to.iter_mut().zip(from) {
        *t = f as f64;
    }
}

fn run<I: Items>(items: &I, mode: RitterMode) -> Sphere {
    let dims = items.dims();
    if items.len() == 1 {
        let c = items.center(0).to_vec();
        let r = items.radius(0) as f32;
        return Sphere::new(c, r * (1.0 + RADIUS_PAD as f32));
    }

    // Taken out of the cell for the call and put back at the end, so the
    // parallel sweeps below never run with it borrowed.
    let mut rows = ROWS.take();
    rows.clear();
    rows.resize(3 * dims, 0.0);
    let (from, rest) = rows.split_at_mut(dims);
    let (cq, center) = rest.split_at_mut(dims);

    // Steps 1-2: the two farthest-point sweeps, from item 0 and then from p.
    widen(from, items.center(0));
    let (p, _) = farthest(items, from, mode);
    let cp = from;
    widen(cp, items.center(p));
    let (q, _) = farthest(items, cp, mode);
    widen(cq, items.center(q));
    let rp = items.radius(p);
    let rq = items.radius(q);

    // Initial sphere spanning items p and q (diameter = far side of p to far side
    // of q). With radii it is: radius = (|pq| + rp + rq) / 2, center on the p->q
    // segment offset so each sphere's far side touches the boundary.
    let center_gap: f64 =
        cp.iter().zip(cq.iter()).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
    let mut radius = 0.5 * (center_gap + rp + rq);
    if center_gap > 0.0 {
        let t = (radius - rp) / center_gap;
        for ((c, a), b) in center.iter_mut().zip(cp.iter()).zip(cq.iter()) {
            *c = a + (b - a) * t;
        }
    } else {
        center.copy_from_slice(cp);
        radius = rp.max(rq).max(radius - center_gap); // concentric: just max radius
    }

    // Step 3: grow until everything fits. Each growth step's new sphere contains
    // the previous one, so at most `len` iterations run.
    loop {
        let (far, fd) = farthest(items, center, mode);
        if fd <= radius * (1.0 + 1e-12) {
            break;
        }
        let new_radius = 0.5 * (radius + fd);
        let cf = items.center(far);
        let gap: f64 = center
            .iter()
            .zip(cf)
            .map(|(a, &b)| (a - b as f64) * (a - b as f64))
            .sum::<f64>()
            .sqrt();
        if gap > 0.0 {
            let shift = (fd - new_radius) / gap;
            for (c, &b) in center.iter_mut().zip(cf) {
                *c += (b as f64 - *c) * shift;
            }
            radius = new_radius;
        } else {
            // Concentric outlier sphere: only the radius needs to grow.
            radius = fd;
        }
    }

    // Rounding the center to f32 can move it by up to half an ulp per
    // coordinate, which for large coordinates exceeds any relative pad on the
    // radius. Recompute the exact radius needed from the *rounded* center, then
    // pad only for the final f32 rounding.
    let center32: Vec<f32> = center.iter().map(|&x| x as f32).collect();
    let center_rounded = cp;
    widen(center_rounded, &center32);
    let (_, needed) = farthest(items, center_rounded, mode);
    let radius32 = (needed.max(radius) * (1.0 + RADIUS_PAD)) as f32;
    ROWS.set(rows);
    Sphere::new(center32, radius32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(rows: &[&[f32]]) -> PointSet {
        let dims = rows[0].len();
        let mut ps = PointSet::new(dims);
        for r in rows {
            ps.push(r);
        }
        ps
    }

    fn all_idx(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn two_points_diameter() {
        let ps = points(&[&[0.0, 0.0], &[2.0, 0.0]]);
        let s = ritter_points(&ps, &all_idx(2), RitterMode::Sequential);
        assert!((s.radius - 1.0).abs() < 1e-4);
        assert!((s.center[0] - 1.0).abs() < 1e-4);
        assert!(s.contains_point(&[0.0, 0.0], 1e-5));
        assert!(s.contains_point(&[2.0, 0.0], 1e-5));
    }

    #[test]
    fn single_point_is_degenerate() {
        let ps = points(&[&[3.0, 4.0]]);
        let s = ritter_points(&ps, &[0], RitterMode::Sequential);
        assert!(s.radius < 1e-5);
        assert_eq!(s.center, vec![3.0, 4.0]);
    }

    #[test]
    fn contains_all_inputs() {
        // A cross pattern that forces at least one growth step.
        let ps = points(&[&[0.0, 0.0], &[10.0, 0.0], &[5.0, 7.0], &[5.0, -7.0], &[5.0, 0.0]]);
        for mode in [RitterMode::Sequential, RitterMode::Parallel] {
            let s = ritter_points(&ps, &all_idx(5), mode);
            for p in ps.iter() {
                assert!(s.contains_point(p, 1e-5), "{p:?} outside {s:?}");
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let ps = points(&[
            &[1.0, 2.0, 3.0],
            &[-4.0, 0.0, 2.0],
            &[0.5, 9.0, -1.0],
            &[3.0, 3.0, 3.0],
            &[-2.0, -2.0, 8.0],
            &[7.0, 1.0, 0.0],
        ]);
        let a = ritter_points(&ps, &all_idx(6), RitterMode::Sequential);
        let b = ritter_points(&ps, &all_idx(6), RitterMode::Parallel);
        assert_eq!(a, b);
    }

    #[test]
    fn encloses_child_spheres() {
        let children = vec![
            Sphere::new(vec![0.0, 0.0], 1.0),
            Sphere::new(vec![4.0, 0.0], 2.0),
            Sphere::new(vec![2.0, 3.0], 0.5),
        ];
        let s = ritter_spheres(&children, RitterMode::Sequential);
        for c in &children {
            assert!(s.contains_sphere(c, 1e-5), "{c:?} outside {s:?}");
        }
    }

    #[test]
    fn concentric_spheres() {
        let children = vec![Sphere::new(vec![1.0, 1.0], 0.5), Sphere::new(vec![1.0, 1.0], 2.0)];
        let s = ritter_spheres(&children, RitterMode::Sequential);
        assert!(s.contains_sphere(&children[1], 1e-5));
        assert!(s.radius <= 2.0 * 1.01);
    }

    #[test]
    fn subset_indices_only() {
        let ps = points(&[&[0.0], &[100.0], &[1.0]]);
        let s = ritter_points(&ps, &[0, 2], RitterMode::Sequential);
        assert!(s.radius < 1.0, "far point 100.0 must be ignored");
    }
}
