//! Mixtures of Gaussian clusters — the paper's primary synthetic workload.
//!
//! §V-A: "we synthetically generate 100 sets of multi-dimensional points in
//! normal distributions with various average points and standard deviations.
//! Each distribution consists of 10,000 data points" (1 M points total). The
//! sweeps vary the cluster count, the per-cluster sigma (Fig. 5) and the
//! dimensionality (Fig. 7).

use psb_geom::PointSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::normal::fill_normal;
use crate::SPACE;

/// Specification of a clustered Gaussian-mixture dataset.
#[derive(Clone, Debug)]
pub struct ClusteredSpec {
    /// Number of Gaussian clusters (paper: 100).
    pub clusters: usize,
    /// Points per cluster (paper: 10 000).
    pub points_per_cluster: usize,
    /// Dimensionality (paper: 2–64).
    pub dims: usize,
    /// Per-cluster standard deviation (paper: 10–10 240).
    pub sigma: f32,
    /// RNG seed; a fixed seed reproduces the dataset bit-for-bit.
    pub seed: u64,
}

impl ClusteredSpec {
    /// Total points generated.
    pub fn len(&self) -> usize {
        self.clusters * self.points_per_cluster
    }

    /// Whether the spec describes an empty dataset.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Generates the dataset: cluster centers uniform in `[0, SPACE)^dims`, then
    /// `points_per_cluster` normal samples around each center.
    pub fn generate(&self) -> PointSet {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut ps = PointSet::with_capacity(self.dims, self.len());
        let mut buf = vec![0f32; self.dims];
        for _ in 0..self.clusters {
            let center: Vec<f32> = (0..self.dims).map(|_| rng.gen_range(0.0..SPACE)).collect();
            for _ in 0..self.points_per_cluster {
                for (slot, &c) in buf.iter_mut().zip(&center) {
                    let mut sample = [0f32];
                    fill_normal(&mut rng, c, self.sigma, &mut sample);
                    *slot = sample[0];
                }
                ps.push(&buf);
            }
        }
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ClusteredSpec {
        ClusteredSpec { clusters: 4, points_per_cluster: 500, dims: 3, sigma: 10.0, seed: 1 }
    }

    #[test]
    fn generates_requested_count_and_dims() {
        let ps = small().generate();
        assert_eq!(ps.len(), 2000);
        assert_eq!(ps.dims(), 3);
    }

    #[test]
    fn deterministic() {
        assert_eq!(small().generate(), small().generate());
    }

    #[test]
    fn different_seeds_differ() {
        let a = small().generate();
        let b = ClusteredSpec { seed: 2, ..small() }.generate();
        assert_ne!(a, b);
    }

    #[test]
    fn clusters_are_tight_relative_to_space() {
        // With sigma = 10 in a 65 536-wide space, each run of 500 consecutive
        // points (one cluster) must have a small spread around its own mean.
        let ps = small().generate();
        for c in 0..4 {
            let idx: Vec<u32> = (c * 500..(c + 1) * 500).map(|i| i as u32).collect();
            let center = ps.centroid(&idx);
            let max_d = idx
                .iter()
                .map(|&i| psb_geom::dist(ps.point(i as usize), &center))
                .fold(0f32, f32::max);
            assert!(max_d < 100.0, "cluster {c} spread {max_d}");
        }
    }

    #[test]
    fn larger_sigma_spreads_points() {
        let tight = small().generate();
        let loose = ClusteredSpec { sigma: 5000.0, ..small() }.generate();
        let spread = |ps: &PointSet| {
            let idx: Vec<u32> = (0..500).collect();
            let c = ps.centroid(&idx);
            idx.iter().map(|&i| psb_geom::dist(ps.point(i as usize), &c)).sum::<f32>()
        };
        assert!(spread(&loose) > 20.0 * spread(&tight));
    }
}
