//! GPU brute-force kNN scan — the index-free baseline (Fig. 7/8/9).
//!
//! One block per query streams the entire point array through shared memory in
//! thread-sized tiles: a coalesced tile load, a data-parallel distance sweep,
//! then serialized k-best updates for the improving candidates. This is the
//! structure of the brute-force GPU kNN literature the paper cites (references 4–9):
//! perfect memory behaviour, zero pruning.

use psb_geom::{DistKernel, PointSet};
use psb_gpu::{Block, DeviceConfig, FaultState, KernelStats, Phase, TraceSink};
use psb_sstree::Neighbor;

use super::collector::{Collector, KnnCollector};
use super::{effective_metering, reserve_static, Budget, Kernel};
use crate::dist_cost;
use crate::error::KernelError;
use crate::index::PointIndex;
use crate::options::{KernelOptions, Metering};

/// Runs one brute-force query over the raw point set.
///
/// Trusted entry point: panics on a [`KernelError`]. Use [`brute_try_query`]
/// to handle injected faults or an unlaunchable tile size.
pub fn brute_query(
    points: &PointSet,
    q: &[f32],
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> (Vec<Neighbor>, KernelStats) {
    brute_try_query(points, q, k, cfg, opts, None, None)
        .unwrap_or_else(|e| panic!("brute-force kernel failed: {e}"))
}

/// The hardened brute-force kernel: typed errors instead of panics under
/// injected device faults or an oversized tile. Bit-identical to the original
/// with `faults: None`; `sink: None` is untraced.
pub fn brute_try_query(
    points: &PointSet,
    q: &[f32],
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    faults: Option<FaultState>,
    sink: Option<&mut dyn TraceSink>,
) -> Result<(Vec<Neighbor>, KernelStats), KernelError> {
    assert_eq!(q.len(), points.dims(), "query dimensionality mismatch");
    assert!(k >= 1, "k must be at least 1");
    assert!(!points.is_empty(), "brute-force scan over zero points");
    super::with_scratch(points.dims(), opts.lanes, |scratch| {
        match effective_metering(opts, faults.is_some()) {
            Metering::Simulated => {
                brute_try_query_with::<true>(points, q, k, cfg, opts, faults, sink, scratch)
            }
            Metering::Off => {
                brute_try_query_with::<false>(points, q, k, cfg, opts, faults, sink, scratch)
            }
        }
    })
}

#[allow(clippy::too_many_arguments)]
fn brute_try_query_with<const M: bool>(
    points: &PointSet,
    q: &[f32],
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    faults: Option<FaultState>,
    sink: Option<&mut dyn TraceSink>,
    scratch: &mut super::Scratch,
) -> Result<(Vec<Neighbor>, KernelStats), KernelError> {
    let mut block = Block::<M>::with_sink(opts.threads_per_block, cfg, sink);
    block.set_faults(faults);
    let mut budget = Budget::for_scan(points.len());
    let tile = block.threads() as usize;
    // Shared memory: the staged tile plus the k-best list.
    reserve_static(&mut block, (tile * points.dims() * 4) as u64, cfg)?;
    let mut list = KnnCollector::new(&mut block, k, cfg, opts);

    let dims = points.dims();
    let dc = dist_cost(dims);
    let dk = scratch.dk;
    let mut start = 0usize;
    while start < points.len() {
        budget.tick(&block)?;
        // Tile load + distance sweep are the scan; the k-best updates merge.
        block.set_phase(Phase::LeafScan);
        let len = tile.min(points.len() - start);
        block.load_global_stream((len * dims * 4) as u64);
        scratch.leaf.clear();
        block.par_for(len, dc, |_| {});
        // The tile rows are one contiguous run of the flat point array:
        // stream them through the batched one-query-vs-many-rows form of the
        // dimension-specialized kernel (bit-identical to per-row calls).
        let rows = &points.as_flat()[start * dims..(start + len) * dims];
        scratch.sweep.tmp.clear();
        dk.dist_rows(q, rows, &mut scratch.sweep.tmp);
        let dists = scratch.sweep.tmp.iter().enumerate();
        scratch.leaf.extend(dists.map(|(i, &d)| (d, (start + i) as u32)));
        if block.has_faults() {
            for entry in &mut scratch.leaf {
                entry.0 = block.fault_f32(entry.0);
            }
        }
        block.set_phase(Phase::ResultMerge);
        list.collect(&mut block, &scratch.leaf);
        block.sync();
        start += len;
    }

    // Final poll: a fault in the last tile would otherwise slip past the
    // loop-head checks and reach the caller as a silent result.
    if let Some(fault) = block.device_fault() {
        return Err(fault.into());
    }
    Ok((list.finish(), block.finish()))
}

/// Pick a tile size (in points) whose staging buffer fits in shared memory.
/// Starts at the block's thread count and halves until it fits — the
/// fallback's launchability must not depend on the query's dimensionality.
fn fallback_tile(threads: usize, dims: usize, smem_per_sm: u64) -> usize {
    let mut tile = threads.max(1);
    while tile > 1 && (tile * dims * 4) as u64 > smem_per_sm {
        tile /= 2;
    }
    tile
}

/// Exact brute-force kNN over an index's reordered point array — the last
/// rung of the engine's recovery ladder ([`Kernel::fallback`] of the kNN
/// kernels). Runs with no fault state attached and clamps its tile to fit
/// shared memory, so it cannot fail: it only reads the flat point array and
/// never follows a structural link, which is what makes it safe to run on a
/// tree whose links are suspect.
pub fn brute_index_query<T: PointIndex>(
    tree: &T,
    q: &[f32],
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> (Vec<Neighbor>, KernelStats) {
    assert!(tree.num_points() > 0, "brute-force fallback over zero points");
    Kernel::Psb { k }.fallback(tree, q, cfg, opts)
}

/// The one fallback scan: stream the index's point array through shared
/// memory tile by tile — exactly the brute-force kernel's loop, minus
/// everything that can fail — and hand every tile's rows to the collector
/// `collect` opens on the block (after the tile is reserved, so the k-best
/// list's footprint stacks on top of it).
pub(super) fn brute_index_scan<T: PointIndex, C: Collector, const M: bool>(
    tree: &T,
    q: &[f32],
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    collect: impl FnOnce(&mut Block<'static, M>) -> C,
) -> (Vec<Neighbor>, KernelStats) {
    assert_eq!(q.len(), tree.dims(), "query dimensionality mismatch");
    let (n, dims) = (tree.num_points(), tree.dims());
    let mut block: Block<'static, M> = Block::new(opts.threads_per_block, cfg);
    let tile = fallback_tile(block.threads() as usize, dims, cfg.smem_per_sm);
    // fallback_tile guarantees this fits (down to a single point per tile).
    let _ = block.reserve_shared((tile * dims * 4) as u64, cfg.smem_per_sm);
    let mut collector = collect(&mut block);

    let dc = dist_cost(dims);
    // Resolved once per launch, not per point: the fallback scans the whole
    // dataset, so per-call dispatch would dominate small dims.
    let dk = DistKernel::for_dims_lanes(dims, opts.lanes);
    let mut dists: Vec<f32> = Vec::with_capacity(tile);
    let mut rows: Vec<(f32, u32)> = Vec::with_capacity(tile);
    let mut start = 0usize;
    while start < n {
        block.set_phase(Phase::LeafScan);
        let len = tile.min(n - start);
        block.load_global_stream((len * dims * 4) as u64);
        block.par_for(len, dc, |_| {});
        dists.clear();
        dk.dist_rows(q, tree.rows(start..start + len), &mut dists);
        rows.clear();
        rows.extend(dists.iter().enumerate().map(|(i, &d)| (d, tree.point_id(start + i))));
        block.set_phase(Phase::ResultMerge);
        collector.collect(&mut block, &rows);
        block.sync();
        start += len;
    }
    (collector.finish(), block.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_data::{sample_queries, ClusteredSpec};
    use psb_sstree::linear_knn;

    fn dataset() -> PointSet {
        ClusteredSpec { clusters: 4, points_per_cluster: 300, dims: 6, sigma: 90.0, seed: 17 }
            .generate()
    }

    #[test]
    fn matches_linear_scan_exactly() {
        let ps = dataset();
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        for q in sample_queries(&ps, 10, 0.01, 31).iter() {
            let (got, _) = brute_query(&ps, q, 12, &cfg, &opts);
            let want = linear_knn(&ps, q, 12);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.id, w.id);
                assert!((g.dist - w.dist).abs() <= w.dist.max(1.0) * 1e-5);
            }
        }
    }

    #[test]
    fn reads_the_whole_dataset() {
        let ps = dataset();
        let cfg = DeviceConfig::k40();
        let (_, stats) = brute_query(&ps, ps.point(0), 4, &cfg, &KernelOptions::default());
        assert_eq!(stats.global_bytes, ps.bytes());
    }

    #[test]
    fn full_warp_efficiency_on_multiple_of_tile() {
        // 1200 points, 32-thread tiles: every sweep is full except metering of
        // list updates; efficiency stays high but below 1.0 (serial updates).
        let ps = dataset();
        let cfg = DeviceConfig::k40();
        let (_, stats) = brute_query(&ps, ps.point(5), 4, &cfg, &KernelOptions::default());
        let eff = stats.warp_efficiency();
        assert!(eff > 0.8, "brute force should be near-coherent, got {eff}");
    }

    #[test]
    fn k_larger_than_dataset() {
        let mut ps = PointSet::new(2);
        for i in 0..7 {
            ps.push(&[i as f32, 1.0]);
        }
        let cfg = DeviceConfig::k40();
        let (got, _) = brute_query(&ps, &[0.0, 0.0], 100, &cfg, &KernelOptions::default());
        assert_eq!(got.len(), 7);
    }
}
