//! Bounding spheres — the SS-tree node shape.
//!
//! The paper's core geometric argument (§II-C) is that a sphere needs only *one*
//! distance evaluation plus a radius add/subtract to produce both `MINDIST` and
//! `MAXDIST`, where a rectangle needs per-facet work; [`Sphere::min_max_dist`]
//! returns both from a single center-distance computation.

use crate::dist::dist;

/// A bounding sphere: center coordinates plus radius.
#[derive(Clone, Debug, PartialEq)]
pub struct Sphere {
    pub center: Vec<f32>,
    pub radius: f32,
}

impl Sphere {
    /// A sphere of the given center and radius.
    pub fn new(center: Vec<f32>, radius: f32) -> Self {
        assert!(radius >= 0.0, "sphere radius must be non-negative");
        Self { center, radius }
    }

    /// A borrowed view of this sphere.
    #[inline]
    pub fn as_ref(&self) -> SphereRef<'_> {
        SphereRef { center: &self.center, radius: self.radius }
    }

    /// A zero-radius sphere at a point (how raw points enter enclosing-sphere code).
    pub fn point(center: &[f32]) -> Self {
        Self { center: center.to_vec(), radius: 0.0 }
    }

    /// Dimensionality of the center.
    #[inline]
    pub fn dims(&self) -> usize {
        self.as_ref().dims()
    }

    /// `MINDIST(q, S)` — see [`SphereRef::min_dist`].
    #[inline]
    pub fn min_dist(&self, q: &[f32]) -> f32 {
        self.as_ref().min_dist(q)
    }

    /// `MAXDIST(q, S)` — see [`SphereRef::max_dist`].
    #[inline]
    pub fn max_dist(&self, q: &[f32]) -> f32 {
        self.as_ref().max_dist(q)
    }

    /// Both bounds from one center-distance evaluation — see
    /// [`SphereRef::min_max_dist`].
    #[inline]
    pub fn min_max_dist(&self, q: &[f32]) -> (f32, f32) {
        self.as_ref().min_max_dist(q)
    }

    /// Whether `p` lies inside the sphere — see [`SphereRef::contains_point`].
    pub fn contains_point(&self, p: &[f32], eps: f32) -> bool {
        self.as_ref().contains_point(p, eps)
    }

    /// Whether the `other` sphere lies entirely inside `self`, with tolerance `eps`.
    pub fn contains_sphere(&self, other: &Sphere, eps: f32) -> bool {
        dist(&other.center, &self.center) + other.radius <= self.radius * (1.0 + eps) + eps
    }
}

/// A borrowed bounding sphere: a view into node-major center storage plus a
/// radius. The zero-allocation counterpart of [`Sphere`] — flattened tree
/// arenas hand these out from their hot paths (`SsTree::sphere` used to
/// allocate a fresh `Vec` per call).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SphereRef<'a> {
    pub center: &'a [f32],
    pub radius: f32,
}

impl<'a> SphereRef<'a> {
    /// A borrowed sphere over an existing center slice.
    #[inline]
    pub fn new(center: &'a [f32], radius: f32) -> Self {
        debug_assert!(radius >= 0.0, "sphere radius must be non-negative");
        Self { center, radius }
    }

    /// Dimensionality of the center.
    #[inline]
    pub fn dims(&self) -> usize {
        self.center.len()
    }

    /// `MINDIST(q, S)`: distance from `q` to the nearest face of the sphere
    /// (0 when `q` is inside). A lower bound on the distance from `q` to any
    /// point enclosed by the sphere.
    #[inline]
    pub fn min_dist(&self, q: &[f32]) -> f32 {
        (dist(q, self.center) - self.radius).max(0.0)
    }

    /// `MAXDIST(q, S)`: distance from `q` to the farthest face of the sphere.
    /// An upper bound on the distance from `q` to any point enclosed by it.
    #[inline]
    pub fn max_dist(&self, q: &[f32]) -> f32 {
        dist(q, self.center) + self.radius
    }

    /// Both bounds from one center-distance evaluation — the single-computation
    /// advantage of spheres the paper leans on.
    #[inline]
    pub fn min_max_dist(&self, q: &[f32]) -> (f32, f32) {
        let c = dist(q, self.center);
        ((c - self.radius).max(0.0), c + self.radius)
    }

    /// Whether `p` lies inside the sphere, with a relative tolerance `eps` on the
    /// radius (Ritter spheres are built in `f32`; exact containment is too strict).
    pub fn contains_point(&self, p: &[f32], eps: f32) -> bool {
        dist(p, self.center) <= self.radius * (1.0 + eps) + eps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Sphere {
        Sphere::new(vec![0.0, 0.0], 1.0)
    }

    #[test]
    fn min_dist_outside() {
        assert_eq!(unit().min_dist(&[3.0, 0.0]), 2.0);
    }

    #[test]
    fn min_dist_inside_clamps_to_zero() {
        assert_eq!(unit().min_dist(&[0.5, 0.0]), 0.0);
    }

    #[test]
    fn max_dist_adds_radius() {
        assert_eq!(unit().max_dist(&[3.0, 0.0]), 4.0);
        assert_eq!(unit().max_dist(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn min_max_consistent_with_separate_calls() {
        let s = Sphere::new(vec![1.0, 2.0, 3.0], 0.5);
        let q = [4.0, 6.0, 3.0];
        let (lo, hi) = s.min_max_dist(&q);
        assert_eq!(lo, s.min_dist(&q));
        assert_eq!(hi, s.max_dist(&q));
        assert_eq!(lo, 4.5);
        assert_eq!(hi, 5.5);
    }

    #[test]
    fn containment() {
        let s = unit();
        assert!(s.contains_point(&[0.9, 0.0], 0.0));
        assert!(!s.contains_point(&[1.5, 0.0], 0.0));
        assert!(s.contains_sphere(&Sphere::new(vec![0.5, 0.0], 0.4), 1e-6));
        assert!(!s.contains_sphere(&Sphere::new(vec![0.5, 0.0], 0.6), 1e-6));
    }

    #[test]
    fn point_sphere_has_zero_radius() {
        let s = Sphere::point(&[1.0, 2.0]);
        assert_eq!(s.radius, 0.0);
        assert_eq!(s.min_dist(&[1.0, 2.0]), 0.0);
    }

    #[test]
    fn sphere_ref_matches_owned_sphere_bitwise() {
        let s = Sphere::new(vec![1.0, 2.0, 3.0], 0.5);
        let r = s.as_ref();
        let q = [4.0, 6.0, 3.0];
        assert_eq!(r.min_dist(&q).to_bits(), s.min_dist(&q).to_bits());
        assert_eq!(r.max_dist(&q).to_bits(), s.max_dist(&q).to_bits());
        assert_eq!(r.min_max_dist(&q), s.min_max_dist(&q));
        assert_eq!(r.dims(), 3);
        assert!(r.contains_point(&[1.1, 2.0, 3.0], 0.0));
    }

    #[test]
    fn sphere_ref_over_raw_storage() {
        let centers = [0.0f32, 0.0, 5.0, 5.0]; // two 2-d centers, node-major
        let r = SphereRef::new(&centers[2..4], 1.0);
        assert_eq!(r.min_dist(&[5.0, 9.0]), 3.0);
    }
}
