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

use psb_gpu::{Block, DeviceConfig, KernelStats, Phase};
use psb_sstree::{FlatTree, Neighbor, Volumes};

use crate::error::KernelError;

use super::collector::{Collector, KnnCollector};
use super::{
    checked_children, checked_root, evaluate_children, fetch_internal, process_leaf,
    reserve_static, Budget, Kernel, Scratch,
};
use crate::options::KernelOptions;

/// Runs one branch-and-bound query on a simulated block.
///
/// Trusted-tree entry point: panics on a [`KernelError`], which a validated
/// tree and a fault-free device can never produce. Use [`Kernel::attempt`] to
/// handle corruption or injected faults.
pub fn bnb_query<V: Volumes>(
    tree: &FlatTree<V>,
    q: &[f32],
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> (Vec<Neighbor>, KernelStats) {
    Kernel::Bnb { k }.trusted(tree, q, cfg, opts)
}

#[allow(clippy::too_many_arguments)]
pub(super) fn traverse<V: Volumes, const M: bool>(
    block: &mut Block<'_, M>,
    budget: &mut Budget,
    tree: &FlatTree<V>,
    q: &[f32],
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    scratch: &mut Scratch,
) -> Result<Vec<Neighbor>, KernelError> {
    reserve_static(block, 2 * tree.degree as u64 * 4 + block.threads() as u64 * 4, cfg)?;
    let mut list = KnnCollector::new(block, k, cfg, opts);
    let root = checked_root(tree)?;
    visit(tree, root, 0, q, opts, block, &mut list, scratch, budget)?;
    Ok(list.finish())
}

#[allow(clippy::too_many_arguments)]
fn visit<V: Volumes, const M: bool>(
    tree: &FlatTree<V>,
    n: u32,
    level: u32,
    q: &[f32],
    opts: &KernelOptions,
    block: &mut Block<'_, M>,
    list: &mut KnnCollector,
    scratch: &mut Scratch,
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
        evaluate_children(block, tree, n, q, list, scratch);
        // Select the unvisited child with the smallest in-bound MINDIST.
        block.par_reduce(cnt, 2);
        let mut best: Option<(usize, f32)> = None;
        for (i, &d) in scratch.sweep.min_d.iter().enumerate() {
            if visited[i] || !list.admits(d) {
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
                let child = kids.start + i as u32;
                visit(tree, child, level + 1, q, opts, block, list, scratch, budget)?;
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
