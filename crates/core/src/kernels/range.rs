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
//! Result rows are written to global memory (metered as streaming writes, the
//! way a real kernel would append via an atomic cursor into an output buffer).

use psb_gpu::{Block, DeviceConfig, FaultState, KernelStats, NodeKind, NoopSink, Phase, TraceSink};
use psb_sstree::Neighbor;

use crate::error::KernelError;
use crate::index::{GpuIndex, NO_ROPE};

use super::{
    checked_children, checked_leaf_id, checked_leaf_points, checked_node, checked_root,
    checked_rope, child_distances, fetch_internal, fetch_leaf, node_min_dist, Budget, Kernel,
    Scratch,
};
use crate::dist_cost;
use crate::options::KernelOptions;

/// Runs one range query on a simulated block; returns the points within
/// `radius` of `q`, ascending by distance, plus the block counters.
///
/// Trusted-tree entry point: panics on a [`KernelError`]. Use
/// [`range_try_query`] to handle corruption or injected faults.
pub fn range_query_gpu<T: GpuIndex>(
    tree: &T,
    q: &[f32],
    radius: f32,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> (Vec<Neighbor>, KernelStats) {
    range_try_query(tree, q, radius, cfg, opts, None, &mut NoopSink)
        .unwrap_or_else(|e| panic!("range kernel failed on a trusted tree: {e}"))
}

/// The hardened range kernel: typed errors instead of panics or hangs under
/// corruption or injected device faults. Bit-identical to the original with
/// `faults: None` on a valid tree.
#[allow(clippy::too_many_arguments)]
pub fn range_try_query<T: GpuIndex>(
    tree: &T,
    q: &[f32],
    radius: f32,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    faults: Option<FaultState>,
    sink: &mut dyn TraceSink,
) -> Result<(Vec<Neighbor>, KernelStats), KernelError> {
    Kernel::Range { radius }.attempt(tree, q, cfg, opts, faults, sink)
}

#[allow(clippy::too_many_arguments)]
pub(super) fn range_try_query_with<T: GpuIndex, const M: bool>(
    tree: &T,
    q: &[f32],
    radius: f32,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    faults: Option<FaultState>,
    sink: &mut dyn TraceSink,
    scratch: &mut Scratch,
) -> Result<(Vec<Neighbor>, KernelStats), KernelError> {
    let mut block = Block::<M>::with_sink(opts.threads_per_block, cfg, sink);
    block.set_faults(faults);
    let mut budget = Budget::for_tree(tree);
    let static_smem = tree.degree() as u64 * 4 + block.threads() as u64 * 4;
    block
        .reserve_shared(static_smem, cfg.smem_per_sm)
        .map_err(|needed| KernelError::SmemOverflow { needed, limit: cfg.smem_per_sm })?;
    let mut out: Vec<Neighbor> = Vec::new();
    let dc = dist_cost(tree.dims());

    if opts.rope {
        return range_rope_with(block, budget, tree, q, radius, opts, scratch, out);
    }

    let last_leaf = (tree.num_leaves() - 1) as u32;
    let mut visited: i64 = -1;
    let mut n = checked_root(tree)?;
    let mut level = 0u32;
    'sweep: loop {
        while !tree.is_leaf(n) {
            budget.tick(&block)?;
            block.set_phase(Phase::Descend);
            let kids = checked_children(tree, n)?;
            fetch_internal(&mut block, tree, n, opts.layout, level);
            child_distances(&mut block, tree, n, q, false, false, scratch);
            block.par_for(kids.len(), 1, |_| {});
            block.par_reduce(kids.len(), 1);
            block.scalar(2);
            let mut chosen = None;
            for (i, c) in kids.clone().enumerate() {
                if scratch.sweep.min_d[i] <= radius && tree.subtree_max_leaf(c) as i64 > visited {
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
                    visited = visited.max(tree.subtree_max_leaf(n) as i64);
                    if n == tree.root() {
                        break 'sweep;
                    }
                    block.set_phase(Phase::Backtrack);
                    block.backtrack(level);
                    block.scalar(1);
                    n = checked_node(tree, "parent", n, tree.parent(n))?;
                    level = level.checked_sub(1).ok_or(KernelError::CorruptNode {
                        node: n,
                        detail: "parent chain deeper than the descent that reached it",
                    })?;
                }
            }
        }

        // Leaf chain: with a fixed bound, scan rightward while leaves keep
        // producing hits (in-range leaves cluster together on the curve).
        let mut via_sibling = false;
        loop {
            budget.tick(&block)?;
            let range = checked_leaf_points(tree, n)?;
            block.set_phase(Phase::LeafScan);
            fetch_leaf(&mut block, tree, n, opts.layout, via_sibling, level);
            let len = range.len();
            scratch.leaf.clear();
            // Metering depends only on (len, dc); the index's leaf sweep
            // streams the packed arena block when attached, else gathers
            // exactly as this loop used to (see `process_leaf`).
            block.par_for(len, dc, |_| {});
            tree.leaf_sweep(n, q, &scratch.dk, &mut scratch.sweep.tmp, &mut scratch.leaf);
            if block.has_faults() {
                for entry in &mut scratch.leaf {
                    entry.0 = block.fault_f32(entry.0);
                }
            }
            block.set_phase(Phase::ResultMerge);
            let mut hits = 0u64;
            for &(d, id) in &scratch.leaf {
                if d <= radius {
                    out.push(Neighbor { dist: d, id });
                    hits += 1;
                }
            }
            if hits > 0 {
                // Append to the global output buffer (atomic cursor + rows).
                block.scalar(2);
                block.load_global_stream(hits * 8);
            }
            let lid = checked_leaf_id(tree, n)?;
            visited = lid as i64;
            if opts.leaf_scan && hits > 0 && lid < last_leaf {
                block.set_phase(Phase::LeafScan);
                block.scalar(1);
                n = checked_node(tree, "leaf_node_of", n, tree.leaf_node_of(lid + 1))?;
                via_sibling = true;
            } else if n == tree.root() {
                break 'sweep;
            } else {
                block.set_phase(Phase::Backtrack);
                block.backtrack(level);
                block.scalar(1);
                n = checked_node(tree, "parent", n, tree.parent(n))?;
                level = level.checked_sub(1).ok_or(KernelError::CorruptNode {
                    node: n,
                    detail: "parent chain deeper than the descent that reached it",
                })?;
                break;
            }
        }
    }

    // Final poll: a fault in the last leaf processed would otherwise slip
    // past the loop-head checks and reach the caller as a silent result.
    if let Some(fault) = block.device_fault() {
        return Err(fault.into());
    }
    out.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
    Ok((out, block.finish()))
}

/// Rope-mode range sweep (DESIGN.md "Stack-free kd kernel and rope modes"): a
/// single preorder pass with **no** per-level state — no level counter, no
/// parent backtracking, no `visitedLeafId` cursor. Every arriving node
/// evaluates its own volume; qualifying internal nodes fall through to their
/// first child, everything else follows the escape link until it runs off the
/// rightmost spine. Exactness: the node set *entered* is exactly the stacked
/// sweep's (a node is entered iff its volume intersects the range and its
/// ancestors do — `tests/ropes.rs` pins the equivalence), so the same leaves
/// produce the same rows.
#[allow(clippy::too_many_arguments)]
fn range_rope_with<T: GpuIndex, const M: bool>(
    mut block: Block<'_, M>,
    mut budget: Budget,
    tree: &T,
    q: &[f32],
    radius: f32,
    opts: &KernelOptions,
    scratch: &mut Scratch,
    mut out: Vec<Neighbor>,
) -> Result<(Vec<Neighbor>, KernelStats), KernelError> {
    let dc = dist_cost(tree.dims());
    let mut n = checked_root(tree)?;
    loop {
        budget.tick(&block)?;
        block.set_phase(Phase::Descend);
        // The root carries no volume worth testing (it always qualifies);
        // every other arrival fetches and evaluates its own entry.
        let qualifies = n == tree.root() || node_min_dist(&mut block, tree, n, q) <= radius;
        let next = if !qualifies {
            block.set_phase(Phase::Backtrack);
            checked_rope(&mut block, tree, n)?
        } else if tree.is_leaf(n) {
            let range = checked_leaf_points(tree, n)?;
            block.set_phase(Phase::LeafScan);
            fetch_leaf(&mut block, tree, n, opts.layout, false, tree.node_depth(n));
            scratch.leaf.clear();
            block.par_for(range.len(), dc, |_| {});
            tree.leaf_sweep(n, q, &scratch.dk, &mut scratch.sweep.tmp, &mut scratch.leaf);
            if block.has_faults() {
                for entry in &mut scratch.leaf {
                    entry.0 = block.fault_f32(entry.0);
                }
            }
            block.set_phase(Phase::ResultMerge);
            let mut hits = 0u64;
            for &(d, id) in &scratch.leaf {
                if d <= radius {
                    out.push(Neighbor { dist: d, id });
                    hits += 1;
                }
            }
            if hits > 0 {
                block.scalar(2);
                block.load_global_stream(hits * 8);
            }
            block.set_phase(Phase::Backtrack);
            checked_rope(&mut block, tree, n)?
        } else {
            block.visit_node(tree.node_depth(n), NodeKind::Internal);
            checked_children(tree, n)?.start
        };
        if next == NO_ROPE {
            break;
        }
        n = next;
    }

    if let Some(fault) = block.device_fault() {
        return Err(fault.into());
    }
    out.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
    Ok((out, block.finish()))
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
        assert!(stats.global_bytes < tree.total_bytes() / 4);
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
    fn rope_mode_is_bit_identical_to_stacked() {
        let (ps, tree) = setup();
        let cfg = DeviceConfig::k40();
        let stacked = KernelOptions::default();
        let rope = KernelOptions { rope: true, ..Default::default() };
        for q in sample_queries(&ps, 10, 0.01, 144).iter() {
            for radius in [10.0f32, 200.0, 2000.0] {
                let (a, _) = range_query_gpu(&tree, q, radius, &cfg, &stacked);
                let (b, sb) = range_query_gpu(&tree, q, radius, &cfg, &rope);
                assert_eq!(a.len(), b.len(), "radius {radius}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.dist.to_bits(), y.dist.to_bits());
                    assert_eq!(x.id, y.id);
                }
                assert_eq!(sb.backtracks, 0, "rope mode carries no parent state");
            }
        }
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
