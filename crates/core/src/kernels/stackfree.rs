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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::brute::brute_index_query;
    use psb_data::{sample_queries, ClusteredSpec, UniformSpec};
    use psb_geom::PointSet;

    /// A minimal implicit kd-tree over a PointSet already in heap order, for
    /// in-crate tests (the real family lives in `psb-kdtree`; the golden
    /// parity suite exercises it end to end).
    struct MiniLb {
        points: PointSet,
        ids: Vec<u32>,
    }

    impl MiniLb {
        /// Left-balanced build, mirroring `psb_kdtree::LbKdTree` (kept tiny
        /// and local so psb-core's own tests need no reverse dependency).
        fn build(points: &PointSet) -> Self {
            fn left_size(n: usize) -> usize {
                let h = n.ilog2();
                let last = n - ((1usize << h) - 1);
                let half = 1usize << (h - 1);
                (half - 1) + last.min(half)
            }
            fn rec(ps: &PointSet, idx: &mut [u32], node: usize, depth: usize, order: &mut [u32]) {
                match idx.len() {
                    0 => return,
                    1 => {
                        order[node] = idx[0];
                        return;
                    }
                    _ => {}
                }
                let d = depth % ps.dims();
                let l = left_size(idx.len());
                idx.select_nth_unstable_by(l, |&a, &b| {
                    ps.point(a as usize)[d].total_cmp(&ps.point(b as usize)[d]).then(a.cmp(&b))
                });
                order[node] = idx[l];
                let (lo, rest) = idx.split_at_mut(l);
                rec(ps, lo, 2 * node + 1, depth + 1, order);
                rec(ps, &mut rest[1..], 2 * node + 2, depth + 1, order);
            }
            let n = points.len();
            let mut idx: Vec<u32> = (0..n as u32).collect();
            let mut order = vec![0u32; n];
            rec(points, &mut idx, 0, 0, &mut order);
            MiniLb { points: points.gather(&order), ids: order }
        }
    }

    impl crate::index::PointIndex for MiniLb {
        fn dims(&self) -> usize {
            self.points.dims()
        }
        fn num_points(&self) -> usize {
            self.points.len()
        }
        fn rows(&self, range: std::ops::Range<usize>) -> &[f32] {
            let dims = self.points.dims();
            &self.points.as_flat()[range.start * dims..range.end * dims]
        }
        fn point_id(&self, pos: usize) -> u32 {
            self.ids[pos]
        }
    }

    impl ImplicitKdIndex for MiniLb {
        fn num_nodes(&self) -> usize {
            self.points.len()
        }
        fn is_leaf(&self, n: u32) -> bool {
            2 * n as usize + 1 >= self.points.len()
        }
        fn parent(&self, n: u32) -> u32 {
            if n == 0 {
                u32::MAX
            } else {
                (n - 1) >> 1
            }
        }
        fn node_depth(&self, n: u32) -> u32 {
            31 - (n + 1).leading_zeros()
        }
        fn split_dim(&self, n: u32) -> usize {
            self.node_depth(n) as usize % self.points.dims()
        }
        fn point_entry_bytes(&self) -> u64 {
            self.points.dims() as u64 * 4 + 4
        }
        fn index_bytes(&self) -> u64 {
            self.points.len() as u64 * self.point_entry_bytes()
        }
    }

    #[test]
    fn exact_against_brute_oracle_bitwise() {
        for dims in [2usize, 3, 8] {
            let ps = ClusteredSpec {
                clusters: 5,
                points_per_cluster: 300,
                dims,
                sigma: 120.0,
                seed: 101,
            }
            .generate();
            let t = MiniLb::build(&ps);
            let cfg = DeviceConfig::k40();
            let opts = KernelOptions::default();
            for q in sample_queries(&ps, 12, 0.01, 102).iter() {
                let (got, _) = stackfree_query(&t, q, 10, &cfg, &opts);
                let (want, _) = brute_index_query(&t, q, 10, &cfg, &opts);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "dims {dims}");
                    assert_eq!(g.id, w.id, "dims {dims}");
                }
            }
        }
    }

    #[test]
    fn tiny_trees_are_exact() {
        for n in [1usize, 2, 3, 4, 5, 7, 8] {
            let ps = UniformSpec { len: n, dims: 2, seed: 41 + n as u64 }.generate();
            let t = MiniLb::build(&ps);
            let cfg = DeviceConfig::k40();
            let opts = KernelOptions::default();
            let q = vec![250.0f32; 2];
            let k = n.min(3);
            let (got, _) = stackfree_query(&t, &q, k, &cfg, &opts);
            let (want, _) = brute_index_query(&t, &q, k, &cfg, &opts);
            assert_eq!(got.len(), want.len(), "n={n}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "n={n}");
                assert_eq!(g.id, w.id, "n={n}");
            }
        }
    }

    #[test]
    fn metering_off_is_bit_identical_and_unmetered() {
        let ps =
            ClusteredSpec { clusters: 4, points_per_cluster: 250, dims: 4, sigma: 90.0, seed: 103 }
                .generate();
        let t = MiniLb::build(&ps);
        let cfg = DeviceConfig::k40();
        let metered = KernelOptions::default();
        let off = KernelOptions { metering: Metering::Off, ..KernelOptions::default() };
        for q in sample_queries(&ps, 8, 0.01, 104).iter() {
            let (a, sa) = stackfree_query(&t, q, 6, &cfg, &metered);
            let (b, sb) = stackfree_query(&t, q, 6, &cfg, &off);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.dist.to_bits(), y.dist.to_bits());
                assert_eq!(x.id, y.id);
            }
            assert!(sa.nodes_visited > 0);
            assert_eq!(sb.nodes_visited, 0, "fast path must not account");
        }
    }

    #[test]
    fn visits_far_fewer_nodes_than_the_whole_tree() {
        // On clustered data the plane test prunes most of the tree; the
        // counter proves the kernel is a traversal, not a disguised scan.
        let ps =
            ClusteredSpec { clusters: 8, points_per_cluster: 500, dims: 3, sigma: 40.0, seed: 105 }
                .generate();
        let t = MiniLb::build(&ps);
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let q = sample_queries(&ps, 1, 0.005, 106);
        let (_, stats) = stackfree_query(&t, q.point(0), 4, &cfg, &opts);
        assert!(
            stats.nodes_visited < ps.len() as u64 / 2,
            "visited {} of {}",
            stats.nodes_visited,
            ps.len()
        );
        assert!(stats.backtracks > 0, "must climb through parents");
    }
}
