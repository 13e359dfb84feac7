//! Paper-figure regeneration and trace inspection.
//!
//! The paper's evaluation (§V) is Figures 3–9. Each `fig*` function here
//! reproduces one figure's series: it generates the workload, builds the
//! indexes, runs the query batches, and returns a [`Table`] with the same rows
//! the paper plots. The `figures` binary prints those tables and writes CSVs;
//! the Criterion benches sample the same code paths at a smaller scale;
//! `inspect` prints one workload's counters and loads recorded traces through
//! [`trace_report`]. Host wall-clock and end-to-end numbers are not this
//! crate's job: the repo benchmark (`benchmark/`, `BENCHMARK.json`) owns them.
//!
//! **Scale.** The paper's workload is 1 M points / 240 queries on a Tesla K40.
//! A scale factor multiplies the point and query counts so the full suite runs
//! in minutes on a laptop; the *shapes* (series orderings, crossovers) are
//! scale-stable. `scale = 1.0` reproduces paper-sized workloads.

pub mod figures;
pub mod table;
pub mod trace_report;

pub use figures::*;
pub use table::Table;
pub use trace_report::{load_trace, render_trace_report, TraceSummary};

use psb_geom::PointSet;

/// Workload scaling knobs shared by all figures.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Multiplier on the paper's 1 M points / 240 queries.
    pub factor: f64,
    /// Base RNG seed (figures derive their own sub-seeds from it).
    pub seed: u64,
}

impl Scale {
    /// A new scale. `factor` is clamped to keep workloads meaningful.
    pub fn new(factor: f64, seed: u64) -> Self {
        Self { factor: factor.clamp(1e-3, 4.0), seed }
    }

    /// Scaled total point count from the paper's default.
    pub fn points(&self, paper_points: usize) -> usize {
        ((paper_points as f64 * self.factor) as usize).max(2_000)
    }

    /// Scaled per-cluster point count so that 100 clusters hit `points`.
    pub fn points_per_cluster(&self, clusters: usize, paper_points: usize) -> usize {
        (self.points(paper_points) / clusters).max(20)
    }

    /// Scaled query batch (paper: 240), floor 24 to keep averages stable.
    pub fn queries(&self) -> usize {
        ((240.0 * self.factor) as usize).clamp(24, 240)
    }

    /// Scale a k-means leaf cluster count the same way the points scale.
    pub fn kmeans_k(&self, paper_k: usize) -> usize {
        ((paper_k as f64 * self.factor) as usize).max(2)
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self { factor: 0.1, seed: 0x2016 }
    }
}

/// Measures mean wall-clock milliseconds of `f` applied to each query — used
/// for the real-CPU baselines (the SR-tree rows of Figs. 3 and 9).
pub fn mean_wall_ms<F: FnMut(&[f32])>(queries: &PointSet, mut f: F) -> f64 {
    let start = std::time::Instant::now();
    for q in queries.iter() {
        f(q);
    }
    start.elapsed().as_secs_f64() * 1e3 / queries.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_clamps_and_scales() {
        let s = Scale::new(0.01, 1);
        assert_eq!(s.points(1_000_000), 10_000);
        assert_eq!(s.queries(), 24);
        let full = Scale::new(1.0, 1);
        assert_eq!(full.points(1_000_000), 1_000_000);
        assert_eq!(full.queries(), 240);
        assert_eq!(full.kmeans_k(400), 400);
    }

    #[test]
    fn tiny_factors_keep_floors() {
        let s = Scale::new(0.0, 1);
        assert!(s.factor > 0.0);
        assert!(s.points(1_000_000) >= 2_000);
        assert!(s.kmeans_k(200) >= 2);
    }
}
