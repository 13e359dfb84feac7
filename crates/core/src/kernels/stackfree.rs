//! Stack-free kNN over the implicit left-balanced kd-tree.
//!
//! Wald's parent-link traversal (*Stackless Traversal of Hierarchies*, and the
//! kd-tree form in *GPU-friendly ... Left-Balanced k-d Trees*): the entire
//! traversal state is two node ids, `(curr, prev)`. Arriving at a node from
//! its parent offers the node's own point and descends toward the query's
//! side of the splitting plane; returning from the close child crosses to the
//! far child only while the plane is strictly inside the current k-th-best
//! radius; returning from the far child climbs. Parent, children, depth, and
//! the splitting dimension are all **arithmetic** on the heap index — no
//! per-thread stack, no per-level state, no node metadata beyond the point
//! itself.
//!
//! This is the opposite trade from the paper's PSB: PSB spends memory on wide
//! bounding-sphere nodes so a warp prunes whole subtrees with one coalesced
//! sweep; the stack-free kd kernel spends nothing on the index (the kdtree
//! crate pins `index_bytes` to the points array plus a constant) and pays
//! with one point fetch per visited node and splitting-plane re-derivation on
//! every upward return. Running both under the same simulator makes that
//! trade measurable.
//!
//! Exactness: the far subtree is skipped only when `|q[d] - split|` is at
//! least the current k-th distance — every point in it is then at least that
//! far, so nothing skippable can improve the list. The golden suite
//! (`tests/kdtree_parity.rs`) pins results bit-identical to the brute oracle.

use psb_gpu::{Block, DeviceConfig, FaultState, KernelStats, NodeKind, Phase, TraceSink};
use psb_sstree::Neighbor;

use crate::dist_cost;
use crate::error::KernelError;
use crate::index::ImplicitKdIndex;

use super::{effective_metering, reserve_static, Budget, Scratch};
use crate::knnlist::GpuKnnList;
use crate::options::{KernelOptions, Metering};

/// Runs one stack-free kNN query on a simulated block.
///
/// Trusted-tree entry point: panics on a [`KernelError`].
/// [`launch_stackfree`](crate::launch_stackfree) is the path with typed
/// outcomes under corruption or injected faults.
pub fn stackfree_query<T: ImplicitKdIndex>(
    tree: &T,
    q: &[f32],
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> (Vec<Neighbor>, KernelStats) {
    stackfree_try_query(tree, q, k, cfg, opts, None, None)
        .unwrap_or_else(|e| panic!("stack-free kernel failed on a trusted tree: {e}"))
}

/// The hardened stack-free kernel: typed errors instead of panics or hangs
/// under corruption or injected device faults. Bit-identical to
/// [`stackfree_query`] with `faults: None` on a valid tree.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stackfree_try_query<T: ImplicitKdIndex>(
    tree: &T,
    q: &[f32],
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    faults: Option<FaultState>,
    sink: Option<&mut dyn TraceSink>,
) -> Result<(Vec<Neighbor>, KernelStats), KernelError> {
    assert_eq!(q.len(), tree.dims(), "query dimensionality mismatch");
    assert!(k >= 1, "k must be at least 1");
    super::with_scratch(tree.dims(), opts.lanes, |scratch| {
        match effective_metering(opts, faults.is_some()) {
            Metering::Simulated => {
                stackfree_try_query_with::<T, true>(tree, q, k, cfg, opts, faults, sink, scratch)
            }
            Metering::Off => {
                stackfree_try_query_with::<T, false>(tree, q, k, cfg, opts, faults, sink, scratch)
            }
        }
    })
}

#[allow(clippy::too_many_arguments)]
fn stackfree_try_query_with<T: ImplicitKdIndex, const M: bool>(
    tree: &T,
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
    let mut budget = Budget::for_nodes(tree.num_nodes(), 2); // a binary heap
                                                             // The whole traversal state: two registers. The only shared memory is the
                                                             // k-best list (policy-dependent) plus one word per thread.
    let static_smem = block.threads() as u64 * 4;
    reserve_static(&mut block, static_smem, cfg)?;
    let mut list = GpuKnnList::new(k, opts.smem_policy, &mut block, cfg.smem_per_sm);

    let len = tree.num_nodes() as u64;
    if len == 0 {
        return Err(KernelError::CorruptNode { node: 0, detail: "index has no nodes or leaves" });
    }
    let dc = dist_cost(tree.dims());
    let mut curr = 0u32; // the heap's root
    let mut prev = u32::MAX; // the root's "parent": first arrival is from above
    block.set_phase(Phase::Descend);
    while curr != u32::MAX {
        budget.tick(&block)?;
        let parent = tree.parent(curr);
        let pos = tree.node_point(curr);
        if pos >= tree.num_points() {
            return Err(KernelError::LinkOutOfBounds {
                link: "node_point",
                node: curr,
                target: pos as u64,
                limit: tree.num_points() as u64,
            });
        }
        let kind = if tree.is_leaf(curr) { NodeKind::Leaf } else { NodeKind::Internal };
        // Fetch the node — which *is* its point entry (coords + id).
        block.visit_node(tree.node_depth(curr), kind);
        block.load_global(tree.point_entry_bytes());
        let p = tree.point(pos);

        // Splitting-plane gap, re-derived on every arrival: no per-level state
        // survives an upward return, so returning visits recompute the branch
        // they took. The computed gap passes through the fault injector like
        // every loaded bound (identity and unmetered without a fault state).
        let d = tree.split_dim(curr);
        debug_assert!(d < q.len());
        block.scalar(2);
        let mut gap = scratch.dk.plane_gap(q[d], p[d]);
        if block.has_faults() {
            gap = block.fault_f32(gap);
        }
        let close = 2 * curr as u64 + if gap <= 0.0 { 1 } else { 2 };
        let far = 2 * curr as u64 + if gap <= 0.0 { 2 } else { 1 };

        let from_parent = prev == parent;
        if from_parent {
            // First arrival: offer the node's own point (every node holds
            // exactly one, internal nodes included).
            block.par_for(1, dc, |_| {});
            let mut pd = scratch.dk.dist(q, p);
            if block.has_faults() {
                pd = block.fault_f32(pd);
            }
            block.set_phase(Phase::ResultMerge);
            list.offer(&mut block, pd, tree.point_id(pos));
        }

        // The three-way successor rule. `plane_in_range` is strict: a far
        // subtree whose plane sits exactly at the k-th distance cannot
        // improve the list, matching the oracle's tie behavior.
        block.scalar(1);
        let next = if from_parent {
            if close < len {
                close as u32
            } else if far < len && psb_geom::plane_in_range(gap, list.bound()) {
                far as u32
            } else {
                parent
            }
        } else if prev as u64 == close {
            if far < len && psb_geom::plane_in_range(gap, list.bound()) {
                far as u32
            } else {
                parent
            }
        } else {
            parent
        };
        block.set_phase(if next == parent { Phase::Backtrack } else { Phase::Descend });
        if next == parent {
            block.backtrack(1);
        }
        prev = curr;
        curr = next;
    }

    // Final poll: a fault on the last node processed would otherwise slip
    // past the loop-head checks and reach the caller as a silent result.
    if let Some(fault) = block.device_fault() {
        return Err(fault.into());
    }
    Ok((list.into_sorted(), block.finish()))
}
