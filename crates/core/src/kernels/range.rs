//! Data-parallel fixed-radius range query on the simulated GPU.
//!
//! Range queries are the workload of the MPRS system the paper cites as prior
//! work (§VI, Kim et al.): "the MPRS algorithm targets low dimensional range
//! query processing". The kernel here shows that PSB's machinery — leftmost
//! descent under a bound, linear sibling-leaf scanning, `subtreeMaxLeafId`
//! cursor — applies directly when the pruning distance is *fixed* (`radius`)
//! instead of shrinking: the traversal degenerates to a single left-to-right
//! sweep over the in-range leaves with no re-tightening, which is exactly why
//! the paper's design generalizes beyond kNN.
//!
//! So this module holds no traversal of its own: it runs PSB's `sweep` over a
//! `RangeCollector` — the inclusive radius test and the output rows (written to
//! global memory, metered as streaming writes) live there.

use psb_gpu::{Block, DeviceConfig, KernelStats};
use psb_sstree::{FlatTree, Neighbor, Volumes};

use crate::error::KernelError;

use super::collector::{Collector, RangeCollector};
use super::{psb, reserve_static, Budget, Kernel, Scratch};
use crate::options::KernelOptions;

/// Runs one range query on a simulated block; returns the points within
/// `radius` of `q`, ascending by distance, plus the block counters.
///
/// Trusted-tree entry point: panics on a [`KernelError`]. Use
/// [`Kernel::attempt`] to handle corruption or injected faults.
pub fn range_query_gpu<V: Volumes>(
    tree: &FlatTree<V>,
    q: &[f32],
    radius: f32,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> (Vec<Neighbor>, KernelStats) {
    Kernel::Range { radius }.trusted(tree, q, cfg, opts)
}

/// A range query's start, shared with the wave engine's priming: the static
/// shared memory (one MINDIST array — nothing tightens, so no MAXDISTs — plus
/// a warp-reduction scratch line) and an empty result. No descent: the bound
/// is the radius from the first node on.
pub(crate) fn prime<V: Volumes, const M: bool>(
    block: &mut Block<'_, M>,
    tree: &FlatTree<V>,
    radius: f32,
    cfg: &DeviceConfig,
) -> Result<RangeCollector, KernelError> {
    reserve_static(block, tree.degree as u64 * 4 + block.threads() as u64 * 4, cfg)?;
    Ok(RangeCollector::new(radius))
}

#[allow(clippy::too_many_arguments)]
pub(super) fn traverse<V: Volumes, const M: bool>(
    block: &mut Block<'_, M>,
    budget: &mut Budget,
    tree: &FlatTree<V>,
    q: &[f32],
    radius: f32,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    scratch: &mut Scratch,
) -> Result<Vec<Neighbor>, KernelError> {
    let mut hits = prime(block, tree, radius, cfg)?;
    psb::sweep(block, budget, tree, q, &mut hits, opts, scratch, false)?;
    Ok(hits.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_data::{sample_queries, ClusteredSpec};
    use psb_geom::PointSet;
    use psb_sstree::{build, search::linear_range, BuildMethod, SsTree};

    fn setup() -> (PointSet, SsTree) {
        let ps = ClusteredSpec {
            clusters: 6,
            points_per_cluster: 300,
            dims: 4,
            sigma: 120.0,
            seed: 141,
        }
        .generate();
        let tree = build(&ps, 16, &BuildMethod::Hilbert);
        (ps, tree)
    }

    #[test]
    fn matches_linear_filter() {
        let (ps, tree) = setup();
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        for q in sample_queries(&ps, 12, 0.01, 142).iter() {
            for radius in [10.0f32, 200.0, 2000.0] {
                let (got, _) = range_query_gpu(&tree, q, radius, &cfg, &opts);
                let want = linear_range(&ps, q, radius);
                assert_eq!(got.len(), want.len(), "radius {radius}");
                for (g, w) in got.iter().zip(&want) {
                    assert!((g.dist - w.dist).abs() <= w.dist.max(1.0) * 1e-4);
                }
            }
        }
    }

    #[test]
    fn empty_result_for_distant_query() {
        let (_, tree) = setup();
        let cfg = DeviceConfig::k40();
        let q = vec![-1e6; 4];
        let (got, stats) = range_query_gpu(&tree, &q, 1.0, &cfg, &KernelOptions::default());
        assert!(got.is_empty());
        // One root fetch plus the pruned descent: far fewer bytes than the tree.
        assert!(stats.global_bytes < tree.index_bytes() / 4);
    }

    #[test]
    fn huge_radius_returns_everything() {
        let (ps, tree) = setup();
        let cfg = DeviceConfig::k40();
        let q = ps.point(0).to_vec();
        let (got, _) = range_query_gpu(&tree, &q, 1e9, &cfg, &KernelOptions::default());
        assert_eq!(got.len(), ps.len());
    }

    #[test]
    fn exact_without_leaf_scan() {
        let (ps, tree) = setup();
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions { leaf_scan: false, ..Default::default() };
        let q = sample_queries(&ps, 4, 0.01, 143);
        for qp in q.iter() {
            let (got, _) = range_query_gpu(&tree, qp, 500.0, &cfg, &opts);
            let want = linear_range(&ps, qp, 500.0);
            assert_eq!(got.len(), want.len());
        }
    }
}
