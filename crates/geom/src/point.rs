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

/// The host's running k-best list — the CPU oracles, the SR-tree and the
/// task-parallel lanes keep their k nearest in it. A row is taken while the
/// list is short of k, unless its distance is NaN; once full, only a row that
/// sorts before the k-th by `(dist, id)` is, and the k-th leaves. So the list
/// holds the first k non-NaN rows offered by `(dist, id)`, in any offer order.
/// (The device's metered list is `GpuKnnList` in `psb-core`.)
#[derive(Debug)]
pub struct KBest {
    k: usize,
    best: Vec<Neighbor>,
}

impl KBest {
    /// An empty list that keeps up to `k` rows.
    pub fn new(k: usize) -> Self {
        Self { k, best: Vec::with_capacity(k + 1) }
    }

    /// The pruning distance: the k-th distance once the list holds k rows,
    /// +inf before.
    #[inline]
    pub fn bound(&self) -> f32 {
        if self.best.len() < self.k {
            f32::INFINITY
        } else {
            self.best.last().map_or(f32::INFINITY, |n| n.dist)
        }
    }

    /// Whether a subtree at `mindist` may still hold one of the k nearest
    /// ([`crate::mindist_in_range`] under this list's bound).
    #[inline]
    pub fn admits(&self, mindist: f32) -> bool {
        crate::mindist_in_range(mindist, self.bound())
    }

    /// Offers one row. A full list takes it if `(dist, id)` sorts before its
    /// k-th row, which also turns NaN away; a short list drops only NaN.
    #[inline]
    pub fn offer(&mut self, dist: f32, id: u32) {
        let kth = self.k.checked_sub(1).and_then(|i| self.best.get(i));
        let take = kth.map_or(!dist.is_nan(), |kth| (dist, id) < (kth.dist, kth.id));
        if take {
            let at = self.best.partition_point(|n| (n.dist, n.id) < (dist, id));
            self.best.insert(at, Neighbor { dist, id });
            self.best.truncate(self.k);
        }
    }

    /// The list, ascending by [`Neighbor::by_rank`]: no row is NaN, and a
    /// Euclidean distance is never −0.0, so the `(dist, id)` order it keeps
    /// is that order.
    pub fn into_vec(self) -> Vec<Neighbor> {
        self.best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    fn kbest(k: usize, rows: &[(f32, u32)]) -> KBest {
        let mut best = KBest::new(k);
        for &(dist, id) in rows {
            best.offer(dist, id);
        }
        best
    }

    fn ids(best: KBest) -> Vec<u32> {
        best.into_vec().iter().map(|n| n.id).collect()
    }

    #[test]
    fn kbest_turns_away_a_tie_at_the_bound_and_evicts_the_largest_rank() {
        let best = kbest(2, &[(1.0, 7), (2.0, 3)]);
        assert_eq!(best.bound(), 2.0);
        // A tie at the k-th distance displaces it with a smaller id only.
        assert_eq!(ids(kbest(2, &[(1.0, 7), (2.0, 3), (2.0, 1)])), [7, 1]);
        assert_eq!(ids(kbest(2, &[(1.0, 7), (2.0, 3), (2.0, 4), (2.0, 3)])), [7, 3]);
        // Ties taken while short rank by id; a closer row evicts the largest.
        assert_eq!(ids(kbest(2, &[(2.0, 9), (2.0, 4), (0.5, 6)])), [6, 4]);
        assert_eq!(ids(kbest(3, &[(1.0, 5), (1.0, 2), (1.0, 8)])), [2, 5, 8]);
    }

    #[test]
    fn kbest_short_of_k_keeps_every_row_and_its_bound_stays_infinite() {
        let best = kbest(5, &[(3.0, 0), (1.0, 1), (f32::INFINITY, 2)]);
        assert_eq!(best.bound(), f32::INFINITY);
        assert!(best.admits(f32::INFINITY), "a short list admits an overflowed MINDIST");
        assert_eq!(ids(best), [1, 0, 2]);
        // Full at +inf, it still admits +inf: a lower id may lie out there.
        let full = kbest(1, &[(f32::INFINITY, 3)]);
        assert!(full.admits(f32::INFINITY) && !full.admits(f32::NAN));
        assert_eq!(ids(kbest(1, &[(f32::INFINITY, 3), (f32::INFINITY, 2)])), [2]);
        assert!(kbest(0, &[(1.0, 0)]).into_vec().is_empty());
    }

    #[test]
    fn kbest_drops_nan_short_and_full() {
        let short = kbest(3, &[(f32::NAN, 0), (1.0, 1), (f32::NAN, 2)]);
        assert_eq!(short.bound(), f32::INFINITY);
        assert_eq!(ids(short), [1]);
        let full = kbest(2, &[(1.0, 0), (2.0, 1), (f32::NAN, 2), (-f32::NAN, 3)]);
        assert_eq!(full.bound(), 2.0);
        assert_eq!(ids(full), [0, 1]);
        assert!(kbest(4, &[(f32::NAN, 0); 6]).into_vec().is_empty());
    }

    proptest! {
        // In any offer order, the list is the first k non-NaN rows by
        // `Neighbor::by_rank`.
        #[test]
        fn kbest_is_the_first_k_by_rank(
            dists in prop::collection::vec(0u8..12, 0..40),
            k in 0usize..10,
            rotate in 0usize..40,
        ) {
            let rows: Vec<(f32, u32)> = dists
                .iter()
                .enumerate()
                .map(|(i, &d)| (if d == 11 { f32::NAN } else { f32::from(d) }, i as u32))
                .collect();
            let mut want: Vec<Neighbor> = rows
                .iter()
                .filter(|r| !r.0.is_nan())
                .map(|&(dist, id)| Neighbor { dist, id })
                .collect();
            want.sort_by(Neighbor::by_rank);
            want.truncate(k);
            prop_assert_eq!(&kbest(k, &rows).into_vec(), &want);
            let mut turned = rows.clone();
            turned.rotate_left(rotate.min(rows.len()));
            prop_assert_eq!(&kbest(k, &turned).into_vec(), &want);
            turned.reverse();
            prop_assert_eq!(&kbest(k, &turned).into_vec(), &want);
        }
    }
}
