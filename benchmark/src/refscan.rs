//! The frozen reference scan and the drift normalisation built on it.
//!
//! **Frozen:** a perf PR never edits this file. The scan is the yardstick
//! every wall-clock metric is priced in; a faster yardstick would read as a
//! regression of the program, a slower one as a gain.
//!
//! The scan is deliberately naive — one scalar accumulator, no SIMD, no
//! blocking, `#[inline(never)]` so no caller context leaks into its codegen —
//! and it reads the workload's own flat `f32` point array. What it is timed
//! on is the first [`SLICE_BYTES`] of that array, and a reading is scaled up
//! to the whole array by the point count: the price of a naive scan of every
//! point at cache-resident speed.
//!
//! Why a slice and not the whole array: a yardstick only cancels what slows
//! it *as much as* it slows the program, and every timed path of this
//! program is bound by the core, not by memory. On this shared box the same
//! binary drops in and out of a state where core-bound code runs 20 % faster
//! while a 6.4 MB stream does not speed up at all, and a burst from a
//! neighbouring tenant slowed a 1.6 MB stream by 48 % and the serve path
//! beside it by 17 %. Timed beside the same batches, the whole-array scan
//! left 10 % (`serve-noaa4`) and 36 % (`paper-clustered16`) between the 5th
//! and 95th percentile of the ratio's chunk medians; a 512 KiB slice left
//! 3 % and 7 %, and did no worse than 32 KiB or 128 KiB. README, *The frozen
//! reference scan*, has the table.
//!
//! The per-pair ratio in [`crate::stats::median_of_ratios`] does the
//! cancelling.

use std::hint::black_box;
use std::time::Instant;

/// Reference scans timed after every batch (and around every setup sample).
pub const REF_CALLS: usize = 24;
/// Bytes of the point array a timed scan reads: resident in L2 on anything
/// this runs on, far past L1.
pub const SLICE_BYTES: usize = 512 * 1024;

/// Nearest point to `q` in the flat `dims`-strided array: `(position, squared
/// distance)`, first position on ties. Plain scalar f32 arithmetic.
#[inline(never)]
pub fn reference_scan(flat: &[f32], dims: usize, q: &[f32]) -> (u32, f32) {
    let mut best = f32::INFINITY;
    let mut best_i = 0u32;
    let mut i = 0u32;
    let mut o = 0usize;
    while o + dims <= flat.len() {
        let mut acc = 0f32;
        for d in 0..dims {
            let t = flat[o + d] - q[d];
            acc += t * t;
        }
        if acc < best {
            best = acc;
            best_i = i;
        }
        i += 1;
        o += dims;
    }
    (best_i, best)
}

/// The yardstick for one workload: a private copy of the first
/// [`SLICE_BYTES`] of its point array plus [`REF_CALLS`] fixed query rows
/// (the first rows of the workload's own query stream).
pub struct RefScan {
    slice: Vec<f32>,
    dims: usize,
    queries: Vec<f32>,
    /// Points in the whole array over points in the slice.
    scale: f64,
}

impl RefScan {
    pub fn new(flat: &[f32], dims: usize, query_rows: &[f32]) -> Self {
        assert!(dims > 0 && flat.len() >= dims, "reference scan over no points");
        assert!(query_rows.len() >= dims, "reference scan needs at least one query");
        let take = (query_rows.len() / dims).min(REF_CALLS) * dims;
        let points = flat.len() / dims;
        let slice_points = (SLICE_BYTES / (dims * size_of::<f32>())).clamp(1, points);
        Self {
            slice: flat[..slice_points * dims].to_vec(),
            dims,
            queries: query_rows[..take].to_vec(),
            scale: points as f64 / slice_points as f64,
        }
    }

    /// Runs [`REF_CALLS`] scans of the slice and returns the mean seconds per
    /// scan, scaled to the whole array: seconds per naive scan of every point.
    pub fn time(&self) -> f64 {
        let rows = self.queries.len() / self.dims;
        let t = Instant::now();
        for c in 0..REF_CALLS {
            let q = &self.queries[(c % rows) * self.dims..][..self.dims];
            black_box(reference_scan(black_box(&self.slice), self.dims, black_box(q)));
        }
        t.elapsed().as_secs_f64() / REF_CALLS as f64 * self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_data::{sample_queries, ClusteredSpec};
    use psb_sstree::linear_knn;

    #[test]
    fn reference_scan_finds_the_oracle_nearest_neighbour() {
        let ps =
            ClusteredSpec { clusters: 5, points_per_cluster: 300, dims: 7, sigma: 90.0, seed: 11 }
                .generate();
        let queries = sample_queries(&ps, 40, 0.01, 12);
        for q in queries.iter() {
            let want = linear_knn(&ps, q, 1)[0];
            let (pos, sq) = reference_scan(ps.as_flat(), ps.dims(), q);
            assert_eq!(pos, want.id);
            // The oracle sums in four lanes, the scan in one: same point,
            // distances equal to rounding.
            assert!((sq.sqrt() - want.dist).abs() <= want.dist.max(1.0) * 1e-5);
        }
    }

    #[test]
    fn ties_keep_the_first_position_and_partial_rows_are_ignored() {
        let flat = [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 9.0];
        assert_eq!(reference_scan(&flat, 2, &[0.0, 0.0]), (1, 0.0));
    }

    #[test]
    fn timing_is_positive_and_cycles_short_query_sets() {
        let flat: Vec<f32> = (0..4000).map(|i| i as f32).collect();
        let r = RefScan::new(&flat, 4, &[1.0, 2.0, 3.0, 4.0]);
        assert!(r.time() > 0.0);
        assert_eq!((r.slice.len(), r.scale), (4000, 1.0), "a small array is scanned whole");
    }

    #[test]
    fn a_large_array_is_timed_on_its_first_slice_and_scaled_by_point_count() {
        let flat = vec![0.5f32; 16 * 100_000];
        let r = RefScan::new(&flat, 16, &[0.0; 16]);
        assert_eq!(r.slice.len() * size_of::<f32>(), SLICE_BYTES);
        assert_eq!(r.scale, 100_000.0 / 8192.0);
    }
}
