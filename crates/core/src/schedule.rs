//! Spatial query scheduling: order a batch along the Hilbert curve.
//!
//! The paper's batches (240 queries, §V-B) arrive in arbitrary order, so
//! consecutive host tasks traverse unrelated subtrees. Scheduling sorts the
//! batch by the Hilbert key of each query point (the same curve the bottom-up
//! build packs leaves with), so consecutive tasks descend into overlapping
//! subtrees — warm arena cache lines on the host.
//!
//! The schedule is a *pure permutation*: the engine executes queries in
//! scheduled order and un-permutes neighbors, per-query counters, and outcomes
//! back to submission order, so results and [`KernelStats`] are bit-identical
//! to the unscheduled engine (`tests/schedule_parity.rs` proves this per
//! kernel and index type).
//!
//! [`KernelStats`]: psb_gpu::KernelStats

use psb_geom::{hilbert_sort_into, PointSet};

/// How the engine orders a batch's queries for execution — all a schedule
/// ever yields is an execution order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QuerySchedule {
    /// Run queries in the order they were submitted.
    #[default]
    Submission,
    /// Run queries in Hilbert-curve order of their coordinates, un-permuting
    /// all per-query outputs back to submission order afterwards. Decides how
    /// the wave engine seeds its root buffer; no kernel is chosen by it.
    Hilbert,
}

/// Reusable scratch for computing schedules: a permutation free-list, so a
/// streaming pipeline ([`crate::QueryStream`]) sorts every chunk of a long
/// session into the same vectors instead of allocating one per chunk.
#[derive(Default)]
pub struct ScheduleScratch {
    spare: Vec<Vec<u32>>,
}

impl ScheduleScratch {
    /// Hand back a permutation vector for reuse by a later
    /// [`hilbert_permutation`] call.
    pub fn recycle(&mut self, mut perm: Vec<u32>) {
        perm.clear();
        self.spare.push(perm);
    }
}

/// Compute the deterministic Hilbert-order permutation of `queries` into a
/// vector drawn from `scratch`. `perm[j]` is the submission index of the
/// `j`-th query to execute. It is the sort the builds pack leaves with
/// ([`psb_geom::hilbert_sort`]) over the batch's own bounding box: ties
/// (identical Hilbert keys, e.g. duplicate query points) break by submission
/// index, so the schedule is a total order and re-runs are identical.
pub fn hilbert_permutation(queries: &PointSet, scratch: &mut ScheduleScratch) -> Vec<u32> {
    let mut perm = scratch.spare.pop().unwrap_or_default();
    hilbert_sort_into(queries, &mut perm);
    perm
}

/// Convenience wrapper over [`hilbert_permutation`] with throwaway scratch.
pub fn hilbert_order(queries: &PointSet) -> Vec<u32> {
    hilbert_permutation(queries, &mut ScheduleScratch::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queries() -> PointSet {
        let mut ps = PointSet::new(2);
        // A scattered submission order over a 2-D grid.
        for (x, y) in [(90.0, 90.0), (1.0, 2.0), (50.0, 55.0), (2.0, 1.0), (91.0, 89.0)] {
            ps.push(&[x, y]);
        }
        ps
    }

    #[test]
    fn permutation_is_a_permutation() {
        let q = queries();
        let mut perm = hilbert_order(&q);
        assert_eq!(perm.len(), q.len());
        perm.sort_unstable();
        assert_eq!(perm, (0..q.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn spatial_neighbors_become_schedule_neighbors() {
        let q = queries();
        let perm = hilbert_order(&q);
        let pos = |i: u32| perm.iter().position(|&p| p == i).unwrap() as i64;
        // (0, 4) and (1, 3) are near-duplicates in space; each pair must be
        // adjacent in the schedule.
        assert_eq!((pos(0) - pos(4)).abs(), 1);
        assert_eq!((pos(1) - pos(3)).abs(), 1);
    }

    #[test]
    fn duplicate_points_tie_break_by_submission_index() {
        let mut q = PointSet::new(3);
        for _ in 0..4 {
            q.push(&[5.0, 5.0, 5.0]);
        }
        assert_eq!(hilbert_order(&q), vec![0, 1, 2, 3]);
    }

    #[test]
    fn scratch_reuse_is_identical_and_recycles_buffers() {
        let q = queries();
        let mut scratch = ScheduleScratch::default();
        let a = hilbert_permutation(&q, &mut scratch);
        let expect = a.clone();
        scratch.recycle(a);
        let b = hilbert_permutation(&q, &mut scratch);
        assert_eq!(b, expect);
    }
}
