//! GPU brute-force kNN scan — the index-free baseline (Fig. 7/8/9), and the
//! exact scan every kernel's recovery ladder degrades to.
//!
//! One block per query streams the entire point array through shared memory in
//! thread-sized tiles: a coalesced tile load, a data-parallel distance sweep,
//! then serialized k-best updates for the improving candidates. This is the
//! structure of the brute-force GPU kNN literature the paper cites (references 4–9):
//! perfect memory behaviour, zero pruning. The tile loop is written once
//! (`scan_tiles`); its two callers differ only in the tile they stage.

use psb_geom::PointSet;
use psb_gpu::{Block, DeviceConfig, FaultState, KernelStats, Phase, TraceSink};
use psb_sstree::{Neighbor, RowIds};

use super::collector::{Collector, KnnCollector};
use super::{effective_metering, reserve_static, with_scratch, Scratch};
use crate::dist_cost;
use crate::error::KernelError;
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
/// injected device faults or an oversized tile. It stages a tile as wide as
/// the block, or fails with [`KernelError::SmemOverflow`]. Bit-identical to
/// the original with `faults: None`; `sink: None` is untraced.
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
    with_scratch(points.dims(), opts.lanes, |scratch| {
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
    scratch: &mut Scratch,
) -> Result<(Vec<Neighbor>, KernelStats), KernelError> {
    let mut block = Block::<M>::with_sink(opts.threads_per_block, cfg, sink);
    block.set_faults(faults);
    let tile = block.threads() as usize;
    // Shared memory: the staged tile plus the k-best list.
    reserve_static(&mut block, (tile * points.dims() * 4) as u64, cfg)?;
    let mut list = KnnCollector::new(&mut block, k, cfg, opts);
    scan_tiles(&mut block, points, None, q, tile, &mut list, scratch);
    // Final poll: it reports the fault the tile loop stopped at, and a fault
    // in the last tile would otherwise reach the caller as a silent result.
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

/// The one fallback scan, the clamped form every kernel degrades to: the tile
/// loop with no fault state attached and a tile halved until it fits shared
/// memory, so it cannot fail. It reads only the point array and each row's id
/// (`ids[i]`, or the row `i` itself when `ids` is `None`) and never follows a
/// structural link, which is what makes it safe on a tree whose links are
/// suspect. The collector `collect` opens on the block after the tile is
/// reserved, so the k-best list's footprint stacks on top of it.
pub(super) fn clamped_scan<C: Collector, const M: bool>(
    points: &PointSet,
    ids: Option<&[u32]>,
    q: &[f32],
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    collect: impl FnOnce(&mut Block<'static, M>) -> C,
) -> (Vec<Neighbor>, KernelStats) {
    assert_eq!(q.len(), points.dims(), "query dimensionality mismatch");
    let dims = points.dims();
    let mut block: Block<'static, M> = Block::new(opts.threads_per_block, cfg);
    let tile = fallback_tile(block.threads() as usize, dims, cfg.smem_per_sm);
    // fallback_tile guarantees this fits (down to a single point per tile).
    let _ = block.reserve_shared((tile * dims * 4) as u64, cfg.smem_per_sm);
    let mut collector = collect(&mut block);
    with_scratch(dims, opts.lanes, |scratch| {
        scan_tiles(&mut block, points, ids, q, tile, &mut collector, scratch)
    });
    (collector.finish(), block.finish())
}

/// The tile loop: stream `points` through shared memory `tile` rows at a
/// time, sweep each tile's distances, and hand the rows to `collector`. It
/// stops at the first tile whose head finds a device fault; the caller's
/// final poll reports it.
fn scan_tiles<C: Collector, const M: bool>(
    block: &mut Block<'_, M>,
    points: &PointSet,
    ids: Option<&[u32]>,
    q: &[f32],
    tile: usize,
    collector: &mut C,
    scratch: &mut Scratch,
) {
    let dims = points.dims();
    let dc = dist_cost(dims);
    for start in (0..points.len()).step_by(tile) {
        if block.device_fault().is_some() {
            return;
        }
        // Tile load + distance sweep are the scan; the k-best updates merge.
        block.set_phase(Phase::LeafScan);
        let len = tile.min(points.len() - start);
        block.load_global_stream((len * dims * 4) as u64);
        block.par_for(len, dc, |_| {});
        // The tile rows are one contiguous run of the flat point array:
        // stream them through the batched one-query-vs-many-rows form of the
        // dimension-specialized kernel (bit-identical to per-row calls).
        let rows = &points.as_flat()[start * dims..(start + len) * dims];
        scratch.sweep.tmp.clear();
        scratch.dk.dist_rows(q, rows, &mut scratch.sweep.tmp);
        if block.has_faults() {
            for d in &mut scratch.sweep.tmp {
                *d = block.fault_f32(*d);
            }
        }
        let row_ids = match ids {
            None => RowIds::From(start as u32),
            Some(ids) => RowIds::Ids(&ids[start..start + len]),
        };
        block.set_phase(Phase::ResultMerge);
        collector.collect(block, &scratch.sweep.tmp, row_ids);
        block.sync();
    }
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
