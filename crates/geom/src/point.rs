//! Dense point storage.
//!
//! Points are stored point-major (`[n][d]`, row-major) which is the layout every CPU
//! distance loop wants. The GPU simulator meters memory in *bytes*, so the host-side
//! layout never affects simulated transaction counts; the simulated kernels declare
//! their own (SoA) layout to the memory model.

/// A dense set of `len` points in `dims` dimensions, stored contiguously row-major.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PointSet {
    dims: usize,
    data: Vec<f32>,
}

impl PointSet {
    /// Creates an empty set of `dims`-dimensional points.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "PointSet requires dims > 0");
        Self { dims, data: Vec::new() }
    }

    /// Creates an empty set with capacity for `n` points.
    pub fn with_capacity(dims: usize, n: usize) -> Self {
        assert!(dims > 0, "PointSet requires dims > 0");
        Self { dims, data: Vec::with_capacity(dims * n) }
    }

    /// Wraps an existing flat row-major buffer. `data.len()` must be a multiple of `dims`.
    pub fn from_flat(dims: usize, data: Vec<f32>) -> Self {
        assert!(dims > 0, "PointSet requires dims > 0");
        assert_eq!(data.len() % dims, 0, "flat buffer length must be a multiple of dims");
        Self { dims, data }
    }

    /// Number of dimensions per point.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dims
    }

    /// True when the set holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow point `i` as a coordinate slice.
    #[inline]
    pub fn point(&self, i: usize) -> &[f32] {
        let d = self.dims;
        &self.data[i * d..(i + 1) * d]
    }

    /// Mutably borrow point `i`.
    #[inline]
    pub(crate) fn point_mut(&mut self, i: usize) -> &mut [f32] {
        let d = self.dims;
        &mut self.data[i * d..(i + 1) * d]
    }

    /// Append a point. Panics if the slice length differs from `dims`.
    pub fn push(&mut self, p: &[f32]) {
        assert_eq!(p.len(), self.dims, "point dimensionality mismatch");
        self.data.extend_from_slice(p);
    }

    /// Removes point `i`, the points after it moving up one position.
    pub fn remove(&mut self, i: usize) {
        let d = self.dims;
        self.data.drain(i * d..(i + 1) * d);
    }

    /// Removes point `i` by moving the last point into its position.
    pub fn swap_remove(&mut self, i: usize) {
        let d = self.dims;
        let last = self.data.len() - d;
        self.data.copy_within(last.., i * d);
        self.data.truncate(last);
    }

    /// Iterate over points as coordinate slices.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f32]> + Clone {
        self.data.chunks_exact(self.dims)
    }

    /// The raw row-major buffer.
    #[inline]
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Size of the stored coordinates in bytes (what a brute-force scan must read).
    #[inline]
    pub fn bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }

    /// Builds a new set containing `perm.len()` points where output point `i` is
    /// input point `perm[i]`. Used by bottom-up construction to lay leaves out in
    /// Hilbert / cluster order.
    pub fn gather(&self, perm: &[u32]) -> PointSet {
        let mut out = PointSet::with_capacity(self.dims, perm.len());
        for &src in perm {
            out.push(self.point(src as usize));
        }
        out
    }

    /// Component-wise mean of the given point indices (`f64` accumulation).
    /// Panics on an empty index slice.
    pub fn centroid(&self, idx: &[u32]) -> Vec<f32> {
        assert!(!idx.is_empty(), "centroid of empty index set");
        let d = self.dims;
        let mut acc = vec![0f64; d];
        for &i in idx {
            let p = self.point(i as usize);
            for (a, &x) in acc.iter_mut().zip(p) {
                *a += x as f64;
            }
        }
        let inv = 1.0 / idx.len() as f64;
        acc.into_iter().map(|a| (a * inv) as f32).collect()
    }
}

/// One kNN result: distance and the *original* dataset id of the point. The
/// one result type of every index family and search in the workspace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    pub dist: f32,
    pub id: u32,
}

impl Neighbor {
    /// The canonical result order: ascending distance (`total_cmp`, so the
    /// order is total even over corrupt, non-finite distances), ties broken by
    /// ascending id. Every result list in the workspace — kNN, range, merged
    /// shards, oracles — is sorted by this.
    pub fn by_rank(a: &Neighbor, b: &Neighbor) -> std::cmp::Ordering {
        a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut ps = PointSet::new(3);
        ps.push(&[1.0, 2.0, 3.0]);
        ps.push(&[4.0, 5.0, 6.0]);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.point(0), &[1.0, 2.0, 3.0]);
        assert_eq!(ps.point(1), &[4.0, 5.0, 6.0]);
        assert_eq!(ps.bytes(), 24);
    }

    #[test]
    fn from_flat_round_trips() {
        let ps = PointSet::from_flat(2, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.point(1), &[2.0, 3.0]);
        let collected: Vec<&[f32]> = ps.iter().collect();
        assert_eq!(collected.len(), 2);
    }

    #[test]
    #[should_panic(expected = "multiple of dims")]
    fn from_flat_rejects_ragged() {
        let _ = PointSet::from_flat(3, vec![0.0; 4]);
    }

    #[test]
    fn gather_reorders() {
        let ps = PointSet::from_flat(1, vec![10.0, 11.0, 12.0, 13.0]);
        let g = ps.gather(&[3, 0, 2]);
        assert_eq!(g.as_flat(), &[13.0, 10.0, 12.0]);
    }

    #[test]
    fn remove_keeps_order_and_swap_remove_fills_the_hole_with_the_last() {
        let mut ps = PointSet::from_flat(2, vec![0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]);
        ps.remove(1);
        assert_eq!(ps.as_flat(), &[0.0, 0.5, 2.0, 2.5, 3.0, 3.5]);
        ps.swap_remove(0);
        assert_eq!(ps.as_flat(), &[3.0, 3.5, 2.0, 2.5]);
        ps.swap_remove(1);
        assert_eq!(ps.as_flat(), &[3.0, 3.5]);
        ps.swap_remove(0);
        assert!(ps.is_empty());
    }

    #[test]
    fn centroid_averages() {
        let ps = PointSet::from_flat(2, vec![0.0, 0.0, 2.0, 4.0]);
        assert_eq!(ps.centroid(&[0, 1]), vec![1.0, 2.0]);
    }

    #[test]
    fn centroid_subset() {
        let ps = PointSet::from_flat(1, vec![1.0, 100.0, 3.0]);
        assert_eq!(ps.centroid(&[0, 2]), vec![2.0]);
    }
}
