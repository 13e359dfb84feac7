//! Classic branch-and-bound kNN on the GPU tree — the paper's main baseline.
//!
//! The traversal is the Roussopoulos et al. algorithm: at every internal node
//! visit children in ascending MINDIST order, pruning those outside the current
//! k-th best distance. Because the GPU has no usable runtime stack, the
//! implementation backtracks through **parent links**, and — as the paper points
//! out (§II-A) — every return to a parent must *re-fetch the node from global
//! memory and re-evaluate its child distances* to find the next-best unvisited
//! child. That repeated work is metered here: an internal node whose `m`
//! children get visited is fetched `m + 1` times.

use psb_gpu::{Block, DeviceConfig, FaultState, KernelStats, NoopSink, Phase, TraceSink};
use psb_sstree::Neighbor;

use crate::error::KernelError;
use crate::index::GpuIndex;

use super::{
    checked_children, checked_root, child_distances, fetch_internal, kth_maxdist, process_leaf,
    Budget, Kernel, Scratch,
};
use crate::knnlist::GpuKnnList;
use crate::options::KernelOptions;

/// Runs one branch-and-bound query on a simulated block.
///
/// Trusted-tree entry point: panics on a [`KernelError`], which a validated
/// tree and a fault-free device can never produce. Use [`bnb_try_query`] to
/// handle corruption or injected faults.
pub fn bnb_query<T: GpuIndex>(
    tree: &T,
    q: &[f32],
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> (Vec<Neighbor>, KernelStats) {
    bnb_try_query(tree, q, k, cfg, opts, None, &mut NoopSink)
        .unwrap_or_else(|e| panic!("branch-and-bound kernel failed on a trusted tree: {e}"))
}

/// The hardened branch-and-bound kernel: typed errors instead of panics or
/// hangs under corruption or injected device faults. Bit-identical to the
/// original with `faults: None` on a valid tree.
#[allow(clippy::too_many_arguments)]
pub fn bnb_try_query<T: GpuIndex>(
    tree: &T,
    q: &[f32],
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    faults: Option<FaultState>,
    sink: &mut dyn TraceSink,
) -> Result<(Vec<Neighbor>, KernelStats), KernelError> {
    Kernel::Bnb { k }.attempt(tree, q, cfg, opts, faults, sink)
}

#[allow(clippy::too_many_arguments)]
pub(super) fn bnb_try_query_with<T: GpuIndex, const M: bool>(
    tree: &T,
    q: &[f32],
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    faults: Option<FaultState>,
    sink: &mut dyn TraceSink,
    scratch: &mut Scratch,
) -> Result<(Vec<Neighbor>, KernelStats), KernelError> {
    let mut block = Block::<M>::with_sink(opts.threads_per_block, cfg, sink);
    block.set_faults(faults);
    let mut budget = Budget::for_tree(tree);
    let static_smem = 2 * tree.degree() as u64 * 4 + block.threads() as u64 * 4;
    block
        .reserve_shared(static_smem, cfg.smem_per_sm)
        .map_err(|needed| KernelError::SmemOverflow { needed, limit: cfg.smem_per_sm })?;
    let mut list = GpuKnnList::new(k, opts.smem_policy, &mut block, cfg.smem_per_sm);
    let mut pruning = f32::INFINITY;

    let root = checked_root(tree)?;
    visit(tree, root, 0, q, k, opts, &mut block, &mut list, scratch, &mut pruning, &mut budget)?;
    // Final poll: a fault in the last leaf processed would otherwise slip
    // past the loop-head checks and reach the caller as a silent result.
    if let Some(fault) = block.device_fault() {
        return Err(fault.into());
    }
    Ok((list.into_sorted(), block.finish()))
}

#[allow(clippy::too_many_arguments)]
fn visit<T: GpuIndex, const M: bool>(
    tree: &T,
    n: u32,
    level: u32,
    q: &[f32],
    k: usize,
    opts: &KernelOptions,
    block: &mut Block<'_, M>,
    list: &mut GpuKnnList,
    scratch: &mut Scratch,
    pruning: &mut f32,
    budget: &mut Budget,
) -> Result<(), KernelError> {
    budget.tick(block)?;
    // Recursion depth guard: a corrupted child range can form a cycle, and a
    // cycle through `visit` would overflow the host stack long before the
    // step budget triggers. No valid tree is deeper than it has nodes.
    if level as usize > tree.num_nodes() {
        return Err(KernelError::CorruptNode {
            node: n,
            detail: "descent deeper than the node count (structural cycle)",
        });
    }
    if tree.is_leaf(n) {
        process_leaf(block, tree, n, q, list, scratch, opts, false, level)?;
        *pruning = pruning.min(list.bound());
        return Ok(());
    }

    let kids = checked_children(tree, n)?;
    let cnt = kids.len();
    let mut visited = vec![false; cnt];
    let mut first = true;
    loop {
        budget.tick(block)?;
        // (Re-)fetch the node and recompute child distances: with no stack
        // there is nowhere to keep them across the recursive descent. The
        // first fetch is part of the descent; every later one is the cost of
        // parent-link backtracking and is attributed (and counted) as such.
        if first {
            block.set_phase(Phase::Descend);
            first = false;
        } else {
            block.set_phase(Phase::Backtrack);
            block.backtrack(level + 1);
        }
        fetch_internal(block, tree, n, opts.layout, level);
        child_distances(block, tree, n, q, opts.use_minmax_prune, false, scratch);
        if opts.use_minmax_prune && scratch.sweep.max_d.len() >= k {
            let bound = kth_maxdist(block, &scratch.sweep.max_d, k, &mut scratch.kth);
            *pruning = pruning.min(bound);
        }
        // Select the unvisited child with the smallest in-bound MINDIST.
        block.par_reduce(cnt, 2);
        let mut best: Option<(usize, f32)> = None;
        for (i, &d) in scratch.sweep.min_d.iter().enumerate() {
            if visited[i] || d >= *pruning {
                continue;
            }
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        match best {
            None => return Ok(()),
            Some((i, _)) => {
                visited[i] = true;
                visit(
                    tree,
                    kids.start + i as u32,
                    level + 1,
                    q,
                    k,
                    opts,
                    block,
                    list,
                    scratch,
                    pruning,
                    budget,
                )?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::psb::psb_query;
    use psb_data::{sample_queries, ClusteredSpec};
    use psb_geom::PointSet;
    use psb_sstree::{build, linear_knn, BuildMethod, SsTree};

    fn setup(dims: usize, sigma: f32) -> (PointSet, SsTree) {
        let ps = ClusteredSpec { clusters: 5, points_per_cluster: 300, dims, sigma, seed: 13 }
            .generate();
        let tree = build(&ps, 16, &BuildMethod::Hilbert);
        (ps, tree)
    }

    #[test]
    fn exact_against_linear_scan() {
        let (ps, tree) = setup(4, 120.0);
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        for q in sample_queries(&ps, 20, 0.01, 21).iter() {
            let (got, _) = bnb_query(&tree, q, 8, &cfg, &opts);
            let want = linear_knn(&ps, q, 8);
            for (g, w) in got.iter().zip(&want) {
                let scale = w.dist.max(1.0);
                assert!((g.dist - w.dist).abs() <= scale * 1e-4);
            }
        }
    }

    #[test]
    fn matches_psb_result_distances() {
        let (ps, tree) = setup(8, 200.0);
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        for q in sample_queries(&ps, 10, 0.01, 22).iter() {
            let (a, _) = bnb_query(&tree, q, 16, &cfg, &opts);
            let (b, _) = psb_query(&tree, q, 16, &cfg, &opts);
            for (x, y) in a.iter().zip(&b) {
                let scale = x.dist.max(1.0);
                assert!((x.dist - y.dist).abs() <= scale * 1e-4);
            }
        }
    }

    #[test]
    fn refetches_parents_more_than_psb() {
        // The defining cost difference: parent-link backtracking re-fetches
        // internal nodes, so B&B must read at least as many bytes as PSB reads
        // on the same tree for the same query set (and typically more).
        let (ps, tree) = setup(4, 2000.0); // loose clusters force backtracking
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let queries = sample_queries(&ps, 10, 0.02, 23);
        let mut bnb_bytes = 0u64;
        let mut psb_bytes = 0u64;
        for q in queries.iter() {
            bnb_bytes += bnb_query(&tree, q, 8, &cfg, &opts).1.global_bytes;
            psb_bytes += psb_query(&tree, q, 8, &cfg, &opts).1.global_bytes;
        }
        assert!(
            bnb_bytes * 10 > psb_bytes * 9,
            "B&B bytes {bnb_bytes} unexpectedly far below PSB bytes {psb_bytes}"
        );
    }

    #[test]
    fn exact_with_tiny_k_and_large_k() {
        let (ps, tree) = setup(2, 80.0);
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let q = sample_queries(&ps, 3, 0.01, 24);
        for qp in q.iter() {
            for k in [1usize, 64] {
                let (got, _) = bnb_query(&tree, qp, k, &cfg, &opts);
                let want = linear_knn(&ps, qp, k);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    let scale = w.dist.max(1.0);
                    assert!((g.dist - w.dist).abs() <= scale * 1e-4);
                }
            }
        }
    }
}
