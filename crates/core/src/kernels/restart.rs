//! Scan-and-Restart: the stackless alternative without parent links.
//!
//! The paper's §II-A and §VI discuss restart-style traversals (kd-restart,
//! MPRS): instead of backtracking through parent links, the traversal returns
//! to the **root** whenever it runs out of qualifying siblings and re-descends
//! with the monotone `visitedLeafId` cursor. Compared to PSB this trades
//! parent-link refetches for full root-to-leaf re-descents — cheap on shallow
//! n-ary trees, increasingly expensive as the tree deepens. Implemented here so
//! the trade-off the paper argues about is measurable (`figures ablation` and
//! the shape tests exercise it).
//!
//! Exactness argument is identical to PSB's: the cursor only advances past
//! leaves that are visited or provably outside the pruning distance.

use psb_gpu::{Block, DeviceConfig, FaultState, KernelStats, NodeKind, NoopSink, Phase, TraceSink};
use psb_sstree::Neighbor;

use crate::error::KernelError;
use crate::index::{GpuIndex, NO_ROPE};

use super::{
    checked_children, checked_leaf_id, checked_node, checked_root, checked_rope, child_distances,
    fetch_internal, kth_maxdist, node_min_dist, process_leaf, Budget, Kernel, Scratch,
};
use crate::knnlist::GpuKnnList;
use crate::options::KernelOptions;

/// Runs one scan-and-restart query on a simulated block.
///
/// Trusted-tree entry point: panics on a [`KernelError`]. Use
/// [`restart_try_query`] to handle corruption or injected faults.
pub fn restart_query<T: GpuIndex>(
    tree: &T,
    q: &[f32],
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> (Vec<Neighbor>, KernelStats) {
    restart_try_query(tree, q, k, cfg, opts, None, &mut NoopSink)
        .unwrap_or_else(|e| panic!("restart kernel failed on a trusted tree: {e}"))
}

/// The hardened scan-and-restart kernel: typed errors instead of panics or
/// hangs under corruption or injected device faults. Bit-identical to the
/// original with `faults: None` on a valid tree.
#[allow(clippy::too_many_arguments)]
pub fn restart_try_query<T: GpuIndex>(
    tree: &T,
    q: &[f32],
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    faults: Option<FaultState>,
    sink: &mut dyn TraceSink,
) -> Result<(Vec<Neighbor>, KernelStats), KernelError> {
    Kernel::Restart { k }.attempt(tree, q, cfg, opts, faults, sink)
}

#[allow(clippy::too_many_arguments)]
pub(super) fn restart_try_query_with<T: GpuIndex, const M: bool>(
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

    // Initial greedy descent primes the pruning distance (same as PSB).
    block.set_phase(Phase::Descend);
    let mut n = checked_root(tree)?;
    let mut level = 0u32;
    while !tree.is_leaf(n) {
        budget.tick(&block)?;
        let kids = checked_children(tree, n)?;
        fetch_internal(&mut block, tree, n, opts.layout, level);
        child_distances(&mut block, tree, n, q, false, true, scratch);
        block.par_reduce(scratch.sweep.min_d.len(), 2);
        // Pick the child nearest the query. MINDIST alone ties at 0 whenever
        // several child spheres overlap the query (common for the oversized
        // boundary spheres Hilbert packing creates), and a bad tie-break lands
        // the initial descent in a garbage leaf whose k-th distance is huge —
        // so break ties by centroid distance, matching the paper's "leaf node
        // which is closest to the query point".
        let mut best = (f32::INFINITY, f32::INFINITY);
        let mut best_c = kids.start;
        for (i, c) in kids.enumerate() {
            let key = (scratch.sweep.min_d[i], scratch.sweep.anchor_d[i]);
            if key < best {
                best = key;
                best_c = c;
            }
        }
        n = best_c;
        level += 1;
    }
    budget.tick(&block)?;
    process_leaf(&mut block, tree, n, q, &mut list, scratch, opts, false, level)?;
    pruning = pruning.min(list.bound());

    // Rope mode (DESIGN.md "Stack-free kd kernel and rope modes"): instead of
    // restarting from the root, follow the escape links — one preorder pass
    // with no re-descents and no `visitedLeafId` cursor. Each arriving node
    // evaluates its own volume; qualifying internal nodes fall through to their
    // first child, everything else ropes to the next subtree. The primed leaf
    // is revisited once, which is harmless: the k-best list rejects exact
    // duplicates. Exact for the same reason the restart sweep is — a subtree is
    // skipped only when its MINDIST is at least the (monotone) pruning
    // distance.
    if opts.rope {
        let mut m = tree.root();
        loop {
            budget.tick(&block)?;
            block.set_phase(Phase::Descend);
            let qualifies = m == tree.root() || node_min_dist(&mut block, tree, m, q) < pruning;
            let next = if !qualifies {
                block.set_phase(Phase::Backtrack);
                checked_rope(&mut block, tree, m)?
            } else if tree.is_leaf(m) {
                process_leaf(
                    &mut block,
                    tree,
                    m,
                    q,
                    &mut list,
                    scratch,
                    opts,
                    false,
                    tree.node_depth(m),
                )?;
                pruning = pruning.min(list.bound());
                block.set_phase(Phase::Backtrack);
                checked_rope(&mut block, tree, m)?
            } else {
                block.visit_node(tree.node_depth(m), NodeKind::Internal);
                checked_children(tree, m)?.start
            };
            if next == NO_ROPE {
                break;
            }
            m = next;
        }
        if let Some(fault) = block.device_fault() {
            return Err(fault.into());
        }
        return Ok((list.into_sorted(), block.finish()));
    }

    let last_leaf = (tree.num_leaves() - 1) as u32;
    let mut visited: i64 = -1;
    'restart: loop {
        // Full descent from the root toward the leftmost qualifying leaf.
        n = tree.root();
        level = 0;
        while !tree.is_leaf(n) {
            budget.tick(&block)?;
            block.set_phase(Phase::Descend);
            let kids = checked_children(tree, n)?;
            fetch_internal(&mut block, tree, n, opts.layout, level);
            child_distances(&mut block, tree, n, q, opts.use_minmax_prune, false, scratch);
            if opts.use_minmax_prune && scratch.sweep.max_d.len() >= k {
                let bound = kth_maxdist(&mut block, &scratch.sweep.max_d, k, &mut scratch.kth);
                pruning = pruning.min(bound);
            }
            // Parallel predicate + ballot/ffs selection (see psb.rs).
            block.par_for(kids.len(), 1, |_| {});
            block.par_reduce(kids.len(), 1);
            block.scalar(2);
            let mut chosen = None;
            for (i, c) in kids.clone().enumerate() {
                if scratch.sweep.min_d[i] < pruning && tree.subtree_max_leaf(c) as i64 > visited {
                    chosen = Some(c);
                    break;
                }
            }
            match chosen {
                Some(c) => {
                    n = c;
                    level += 1;
                }
                None => {
                    // Everything under `n` is visited or justifiably pruned.
                    visited = visited.max(tree.subtree_max_leaf(n) as i64);
                    if n == tree.root() {
                        break 'restart;
                    }
                    block.backtrack(level); // restart = backtrack all the way up
                    continue 'restart; // no parent link: go back to the root
                }
            }
        }
        // Linear scan of sibling leaves while they improve (same as PSB).
        let mut via_sibling = false;
        loop {
            budget.tick(&block)?;
            let changed =
                process_leaf(&mut block, tree, n, q, &mut list, scratch, opts, via_sibling, level)?;
            pruning = pruning.min(list.bound());
            let lid = checked_leaf_id(tree, n)?;
            visited = lid as i64;
            if opts.leaf_scan && changed && lid < last_leaf {
                block.set_phase(Phase::LeafScan);
                block.scalar(1);
                n = checked_node(tree, "leaf_node_of", n, tree.leaf_node_of(lid + 1))?;
                via_sibling = true;
            } else if n == tree.root() {
                break 'restart; // single-leaf tree
            } else {
                block.backtrack(level);
                continue 'restart;
            }
        }
    }

    // Final poll: a fault in the last leaf processed would otherwise slip
    // past the loop-head checks and reach the caller as a silent result.
    if let Some(fault) = block.device_fault() {
        return Err(fault.into());
    }
    Ok((list.into_sorted(), block.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::psb::psb_query;
    use psb_data::{sample_queries, ClusteredSpec};
    use psb_geom::PointSet;
    use psb_sstree::{build, linear_knn, BuildMethod, SsTree};

    fn setup() -> (PointSet, SsTree) {
        let ps =
            ClusteredSpec { clusters: 6, points_per_cluster: 300, dims: 6, sigma: 140.0, seed: 91 }
                .generate();
        let tree = build(&ps, 16, &BuildMethod::Hilbert);
        (ps, tree)
    }

    #[test]
    fn exact_against_oracle() {
        let (ps, tree) = setup();
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        for q in sample_queries(&ps, 15, 0.01, 92).iter() {
            let (got, _) = restart_query(&tree, q, 10, &cfg, &opts);
            let want = linear_knn(&ps, q, 10);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert!((g.dist - w.dist).abs() <= w.dist.max(1.0) * 1e-4);
            }
        }
    }

    #[test]
    fn matches_psb_distances() {
        let (ps, tree) = setup();
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        for q in sample_queries(&ps, 10, 0.01, 93).iter() {
            let (a, _) = restart_query(&tree, q, 8, &cfg, &opts);
            let (b, _) = psb_query(&tree, q, 8, &cfg, &opts);
            for (x, y) in a.iter().zip(&b) {
                assert!((x.dist - y.dist).abs() <= y.dist.max(1.0) * 1e-4);
            }
        }
    }

    #[test]
    fn rope_mode_matches_stacked_bitwise() {
        let (ps, tree) = setup();
        let cfg = DeviceConfig::k40();
        let stacked = KernelOptions::default();
        let rope = KernelOptions { rope: true, ..Default::default() };
        for q in sample_queries(&ps, 12, 0.01, 96).iter() {
            let (a, _) = restart_query(&tree, q, 8, &cfg, &stacked);
            let (b, sb) = restart_query(&tree, q, 8, &cfg, &rope);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.dist.to_bits(), y.dist.to_bits());
                assert_eq!(x.id, y.id);
            }
            // The only backtracks left are the rope hops' phase tags; the
            // re-descent machinery is gone.
            assert!(sb.nodes_visited > 0);
        }
    }

    #[test]
    fn restarts_cost_more_upper_level_fetches_than_psb() {
        // On a loose dataset (lots of backtracking) the restart variant must
        // fetch at least as many node bytes as PSB: each restart re-reads the
        // root path that PSB's parent links skip.
        let ps = ClusteredSpec {
            clusters: 6,
            points_per_cluster: 300,
            dims: 6,
            sigma: 4000.0,
            seed: 94,
        }
        .generate();
        let tree = build(&ps, 8, &BuildMethod::Hilbert); // deep tree amplifies it
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let queries = sample_queries(&ps, 10, 0.02, 95);
        let mut restart_nodes = 0u64;
        let mut psb_nodes = 0u64;
        for q in queries.iter() {
            restart_nodes += restart_query(&tree, q, 8, &cfg, &opts).1.nodes_visited;
            psb_nodes += psb_query(&tree, q, 8, &cfg, &opts).1.nodes_visited;
        }
        assert!(restart_nodes >= psb_nodes, "restart visited {restart_nodes} < psb {psb_nodes}");
    }

    #[test]
    fn exact_on_single_leaf_tree() {
        let mut ps = PointSet::new(2);
        for i in 0..9 {
            ps.push(&[i as f32, 0.0]);
        }
        let tree = build(&ps, 64, &BuildMethod::Hilbert);
        let cfg = DeviceConfig::k40();
        let (got, _) = restart_query(&tree, &[4.2, 0.0], 2, &cfg, &KernelOptions::default());
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].id, 4);
    }
}
