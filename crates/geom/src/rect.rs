//! Axis-aligned bounding rectangles — the R-tree / SR-tree node shape.
//!
//! The SR-tree baseline (Katayama & Satoh) bounds each subtree by the
//! *intersection* of a sphere and a rectangle; its `MINDIST` is the max of the two
//! volumes' `MINDIST`s. The per-facet work here is exactly the computation the
//! paper contrasts against the sphere's single-distance bound.

use crate::point::PointSet;

/// An axis-aligned hyper-rectangle `[min, max]` per dimension.
#[derive(Clone, Debug, PartialEq)]
pub struct Rect {
    pub min: Vec<f32>,
    pub max: Vec<f32>,
}

impl Rect {
    /// A rectangle from explicit corners. Panics if corners disagree in length or order.
    pub fn new(min: Vec<f32>, max: Vec<f32>) -> Self {
        assert_eq!(min.len(), max.len(), "corner dimensionality mismatch");
        assert!(
            min.iter().zip(&max).all(|(a, b)| a <= b),
            "rect min must be <= max in every dimension"
        );
        Self { min, max }
    }

    /// The degenerate rectangle covering a single point.
    pub fn point(p: &[f32]) -> Self {
        Self { min: p.to_vec(), max: p.to_vec() }
    }

    /// An "empty" rectangle that any union will overwrite.
    pub fn empty(dims: usize) -> Self {
        Self { min: vec![f32::INFINITY; dims], max: vec![f32::NEG_INFINITY; dims] }
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.min.len()
    }

    /// Grow to cover point `p`.
    pub fn expand_point(&mut self, p: &[f32]) {
        for ((lo, hi), &x) in self.min.iter_mut().zip(self.max.iter_mut()).zip(p) {
            if x < *lo {
                *lo = x;
            }
            if x > *hi {
                *hi = x;
            }
        }
    }

    /// Grow to cover another rectangle.
    pub fn expand_rect(&mut self, r: &Rect) {
        self.expand_point(&r.min.clone());
        self.expand_point(&r.max.clone());
    }

    /// Squared `MINDIST(q, R)`: per-dimension clamp of `q` onto the rect.
    pub(crate) fn sq_min_dist(&self, q: &[f32]) -> f32 {
        let mut acc = 0f32;
        for ((&lo, &hi), &x) in self.min.iter().zip(&self.max).zip(q) {
            let d = if x < lo {
                lo - x
            } else if x > hi {
                x - hi
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// `MINDIST(q, R)`.
    #[inline]
    pub fn min_dist(&self, q: &[f32]) -> f32 {
        self.sq_min_dist(q).sqrt()
    }

    /// `MAXDIST(q, R)`: distance to the farthest corner.
    pub fn max_dist(&self, q: &[f32]) -> f32 {
        let mut acc = 0f32;
        for ((&lo, &hi), &x) in self.min.iter().zip(&self.max).zip(q) {
            let d = (x - lo).abs().max((x - hi).abs());
            acc += d * d;
        }
        acc.sqrt()
    }

    /// Whether `p` lies inside (inclusive) the rectangle.
    pub fn contains_point(&self, p: &[f32]) -> bool {
        self.min.iter().zip(&self.max).zip(p).all(|((&lo, &hi), &x)| lo <= x && x <= hi)
    }

    /// The center of the rectangle.
    pub fn center(&self) -> Vec<f32> {
        self.min.iter().zip(&self.max).map(|(&lo, &hi)| 0.5 * (lo + hi)).collect()
    }

    /// Extent (`max - min`) along dimension `d`.
    #[inline]
    pub fn extent(&self, d: usize) -> f32 {
        self.max[d] - self.min[d]
    }

    /// Tight bounding box of every point in a [`PointSet`]. Panics on an empty set.
    pub fn of_point_set(ps: &PointSet) -> Rect {
        assert!(!ps.is_empty(), "bounding box of an empty point set");
        let mut r = Rect::empty(ps.dims());
        for p in ps.iter() {
            r.expand_point(p);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Rect {
        Rect::new(vec![0.0, 0.0], vec![1.0, 1.0])
    }

    #[test]
    fn min_dist_inside_is_zero() {
        assert_eq!(unit_square().min_dist(&[0.5, 0.5]), 0.0);
    }

    #[test]
    fn min_dist_face_and_corner() {
        let r = unit_square();
        assert_eq!(r.min_dist(&[2.0, 0.5]), 1.0); // face
        assert_eq!(r.min_dist(&[4.0, 5.0]), 5.0); // 3-4-5 corner
    }

    #[test]
    fn max_dist_farthest_corner() {
        let r = unit_square();
        assert_eq!(r.max_dist(&[0.0, 0.0]), 2f32.sqrt());
        assert_eq!(r.max_dist(&[2.0, 0.5]), (4.0f32 + 0.25).sqrt());
    }

    #[test]
    fn expand_covers_points() {
        let mut r = Rect::empty(2);
        r.expand_point(&[1.0, -1.0]);
        r.expand_point(&[-2.0, 3.0]);
        assert_eq!(r.min, vec![-2.0, -1.0]);
        assert_eq!(r.max, vec![1.0, 3.0]);
        assert!(r.contains_point(&[0.0, 0.0]));
        assert!(!r.contains_point(&[0.0, 4.0]));
    }

    #[test]
    fn expand_rect_unions() {
        let mut r = Rect::point(&[0.0, 0.0]);
        r.expand_rect(&Rect::new(vec![2.0, 2.0], vec![3.0, 5.0]));
        assert_eq!(r.max, vec![3.0, 5.0]);
        assert_eq!(r.extent(1), 5.0);
    }

    #[test]
    fn mindist_never_exceeds_maxdist() {
        let r = Rect::new(vec![-1.0, 2.0, 0.0], vec![0.0, 4.0, 0.5]);
        for q in [[0.0, 0.0, 0.0], [5.0, 3.0, 0.25], [-0.5, 3.0, 0.2]] {
            assert!(r.min_dist(&q) <= r.max_dist(&q));
        }
    }
}
