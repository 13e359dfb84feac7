//! Task-parallel GPU kd-tree search: one query per lane.
//!
//! Each lane executes an iterative depth-first kNN traversal with a private
//! stack held in local memory. At every lockstep step a lane is doing one of
//! three operations — descending an internal node, scanning a leaf bucket, or
//! backtracking — and lanes of a warp rarely agree, so the scheduler serializes
//! them (see [`psb_gpu::task`]). Every node fetch is a per-lane pointer chase,
//! so nothing coalesces. Both pathologies are the measured outcome the paper's
//! Fig. 6a reports (<10 % warp efficiency vs >50 % for the data-parallel
//! SS-tree).

use psb_core::dist_cost;
use psb_geom::{dist, Neighbor, PointSet};
use psb_gpu::{run_task_parallel, DeviceConfig, KernelStats, LaneStep};

use crate::{KdTree, NIL, NODE_BYTES};

/// Operation tags for divergence accounting.
const OP_DESCEND: u32 = 0;
const OP_LEAF: u32 = 1;
const OP_BACKTRACK: u32 = 2;

struct Lane<'a> {
    tree: &'a KdTree,
    q: &'a [f32],
    k: usize,
    /// Pending far-subtrees: (node, distance to the split plane when deferred).
    stack: Vec<(u32, f32)>,
    /// Current node, or NIL when popping from the stack.
    cursor: u32,
    /// Remaining points of the leaf currently being scanned (SIMT executes the
    /// scan loop one iteration per lockstep step, so each point is a step —
    /// lanes in different loop trip counts diverge exactly as real warps do).
    leaf_remaining: std::ops::Range<u32>,
    best: Vec<Neighbor>,
    done: bool,
}

impl Lane<'_> {
    fn bound(&self) -> f32 {
        if self.best.len() >= self.k {
            self.best.last().map_or(f32::INFINITY, |n| n.dist)
        } else {
            f32::INFINITY
        }
    }

    fn offer(&mut self, d: f32, id: u32) {
        if self.best.len() >= self.k && d >= self.bound() {
            return;
        }
        let pos = self.best.partition_point(|n| (n.dist, n.id) < (d, id));
        self.best.insert(pos, Neighbor { dist: d, id });
        if self.best.len() > self.k {
            self.best.pop();
        }
    }

    /// One traversal step; returns what the lane did, or None when finished.
    fn step(&mut self) -> Option<LaneStep> {
        if self.done {
            return None;
        }
        // Mid-leaf: process exactly one point (one scan-loop iteration).
        if !self.leaf_remaining.is_empty() {
            let p = self.leaf_remaining.start;
            self.leaf_remaining.start += 1;
            let d = dist(self.q, self.tree.points.point(p as usize));
            self.offer(d, self.tree.point_ids[p as usize]);
            let bytes = self.tree.dims as u64 * 4 + 4;
            return Some(LaneStep {
                op: OP_LEAF,
                cost: dist_cost(self.tree.dims) + 1,
                global_bytes: bytes,
            });
        }
        if self.cursor == NIL {
            // Backtrack: pop until a still-promising deferred subtree.
            match self.stack.pop() {
                None => {
                    self.done = true;
                    return None;
                }
                Some((node, plane_d)) => {
                    if plane_d < self.bound() {
                        self.cursor = node;
                    }
                    return Some(LaneStep { op: OP_BACKTRACK, cost: 3, global_bytes: 0 });
                }
            }
        }
        let node = self.tree.nodes[self.cursor as usize];
        if node.left == NIL {
            // Arriving at a leaf: start its scan loop (points stream out one
            // step at a time above).
            self.leaf_remaining = node.point_start..node.point_start + node.point_count;
            self.cursor = NIL;
            return Some(LaneStep { op: OP_LEAF, cost: 2, global_bytes: 0 });
        }
        // Descend toward the query, defer the far side.
        let diff = self.q[node.dim as usize] - node.split;
        let (near, far) =
            if diff <= 0.0 { (node.left, node.right) } else { (node.right, node.left) };
        self.stack.push((far, diff.abs()));
        self.cursor = near;
        Some(LaneStep { op: OP_DESCEND, cost: 4, global_bytes: NODE_BYTES })
    }
}

/// Runs a batch of queries task-parallel: queries are packed into blocks of
/// `threads_per_block` lanes and each block runs under the lockstep scheduler.
/// Returns per-query results plus per-block counters (feed to
/// [`psb_gpu::launch_blocks`]).
pub fn knn_task_parallel(
    tree: &KdTree,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    threads_per_block: u32,
) -> (Vec<Vec<Neighbor>>, Vec<KernelStats>) {
    assert!(k >= 1);
    assert!(!queries.is_empty(), "empty query batch");
    assert_eq!(queries.dims(), tree.dims);
    let tpb = threads_per_block.max(1) as usize;

    let mut all_results: Vec<Vec<Neighbor>> = Vec::with_capacity(queries.len());
    let mut per_block = Vec::new();
    let mut qi = 0usize;
    while qi < queries.len() {
        let block_n = tpb.min(queries.len() - qi);
        let mut lanes: Vec<Lane> = (0..block_n)
            .map(|j| Lane {
                tree,
                q: queries.point(qi + j),
                k,
                stack: Vec::with_capacity(64),
                cursor: 0,
                leaf_remaining: 0..0,
                best: Vec::with_capacity(k + 1),
                done: false,
            })
            .collect();
        // Task-parallel kernels keep the k-best list in registers / local
        // memory, not shared memory.
        let stats = run_task_parallel(cfg, &mut lanes, 0, Lane::step, None);
        per_block.push(stats);
        all_results.extend(lanes.into_iter().map(|l| l.best));
        qi += block_n;
    }
    (all_results, per_block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn_cpu;
    use psb_data::{sample_queries, ClusteredSpec};

    fn setup() -> (PointSet, KdTree, PointSet) {
        let ps =
            ClusteredSpec { clusters: 5, points_per_cluster: 300, dims: 4, sigma: 120.0, seed: 71 }
                .generate();
        let tree = KdTree::build(&ps, 8);
        let queries = sample_queries(&ps, 64, 0.01, 72);
        (ps, tree, queries)
    }

    #[test]
    fn gpu_matches_cpu_oracle() {
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let (results, _) = knn_task_parallel(&tree, &queries, 10, &cfg, 32);
        for (qi, q) in queries.iter().enumerate() {
            let want = knn_cpu(&tree, q, 10);
            assert_eq!(results[qi].len(), want.len());
            for (g, w) in results[qi].iter().zip(&want) {
                assert!((g.dist - w.dist).abs() <= w.dist.max(1.0) * 1e-4);
            }
        }
    }

    #[test]
    fn warp_efficiency_is_poor() {
        // The headline of Fig. 6a: irregular per-lane traversals on clustered
        // data leave most lanes idle.
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let (_, per_block) = knn_task_parallel(&tree, &queries, 10, &cfg, 32);
        let mut merged = KernelStats::default();
        for b in &per_block {
            merged.merge(b);
        }
        let eff = merged.warp_efficiency();
        assert!(eff < 0.35, "task-parallel efficiency unexpectedly high: {eff}");
    }

    #[test]
    fn blocks_partition_queries() {
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let (results, per_block) = knn_task_parallel(&tree, &queries, 4, &cfg, 32);
        assert_eq!(results.len(), 64);
        assert_eq!(per_block.len(), 2); // 64 queries / 32 lanes
    }

    #[test]
    fn uncoalesced_node_reads() {
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let (_, per_block) = knn_task_parallel(&tree, &queries, 4, &cfg, 32);
        let merged = per_block.iter().fold(KernelStats::default(), |mut a, b| {
            a.merge(b);
            a
        });
        // Per-lane pointer chases: transactions far exceed bytes / 128.
        assert!(merged.global_transactions > merged.global_bytes / 128);
    }

    #[test]
    fn single_query_block() {
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let one = {
            let mut q = PointSet::new(queries.dims());
            q.push(queries.point(0));
            q
        };
        let (results, per_block) = knn_task_parallel(&tree, &one, 3, &cfg, 32);
        assert_eq!(results.len(), 1);
        assert_eq!(per_block.len(), 1);
        let want = knn_cpu(&tree, queries.point(0), 3);
        assert_eq!(results[0].len(), want.len());
    }
}
