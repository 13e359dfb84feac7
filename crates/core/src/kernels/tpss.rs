//! Task-parallel SS-tree search: one query per lane over the *same* tree the
//! data-parallel kernels use — the Fig. 1(b) strawman made measurable.
//!
//! The paper's central argument (§II-B) is that assigning one query to each
//! GPU thread wastes the machine: every lane follows its own search path, so
//! lanes of a warp diverge and every node fetch is an uncoalesced pointer
//! chase. This kernel exists so the comparison is apples-to-apples: same
//! SS-tree, same pruning bounds, only the parallelization strategy differs.
//!
//! Each lane runs a best-first branch-and-bound with a private traversal stack
//! in local memory, stepping one operation per lockstep round
//! (see [`psb_gpu::task`]).

use psb_geom::{dist, PointSet};

use crate::error::{EngineError, KernelError};
use psb_gpu::{run_task_parallel, DeviceConfig, KernelStats, LaneStep, TraceSink};
use psb_sstree::{FlatTree, Neighbor, Volumes};

use crate::dist_cost;
use crate::kernels::{checked_children, checked_leaf_points, checked_node, step_budget};

/// Operation tags (distinct tags in one warp serialize). The values follow
/// the [`psb_gpu::op_phase`] convention, so the scheduler attributes each
/// tag's issues and loads to the matching traversal phase.
const OP_INTERNAL: u32 = 0;
const OP_LEAF: u32 = 1;
const OP_POP: u32 = 2;

struct Lane<'a, V: Volumes> {
    tree: &'a FlatTree<V>,
    q: &'a [f32],
    k: usize,
    /// Deferred subtrees: (node, MINDIST at push time), unsorted stack.
    stack: Vec<(u32, f32)>,
    cursor: u32,
    has_cursor: bool,
    best: Vec<Neighbor>,
    done: bool,
    /// Per-lane step counter against `step_limit` — the corruption-induced-
    /// loop backstop for the task-parallel traversal.
    steps: u64,
    step_limit: u64,
    /// Set when the lane hits corruption; the lane halts and the batch entry
    /// point reports it.
    error: Option<KernelError>,
}

impl<V: Volumes> Lane<'_, V> {
    fn bound(&self) -> f32 {
        if self.best.len() >= self.k {
            self.best.last().map_or(f32::INFINITY, |n| n.dist)
        } else {
            f32::INFINITY
        }
    }

    fn offer(&mut self, d: f32, id: u32) {
        // NaN would land at an arbitrary partition point and corrupt the
        // sorted order; a NaN distance can only come from corrupt geometry.
        if d.is_nan() {
            return;
        }
        if self.best.len() >= self.k && d >= self.bound() {
            return;
        }
        let pos = self.best.partition_point(|n| (n.dist, n.id) < (d, id));
        self.best.insert(pos, Neighbor { dist: d, id });
        if self.best.len() > self.k {
            self.best.pop();
        }
    }

    /// Halt the lane with a typed error.
    fn fail(&mut self, e: KernelError) -> Option<LaneStep> {
        self.error = Some(e);
        self.done = true;
        None
    }

    fn step(&mut self) -> Option<LaneStep> {
        if self.done {
            return None;
        }
        self.steps += 1;
        if self.steps > self.step_limit {
            return self.fail(KernelError::StepBudgetExceeded { budget: self.step_limit });
        }
        if !self.has_cursor {
            match self.stack.pop() {
                None => {
                    self.done = true;
                    return None;
                }
                Some((node, min_d)) => {
                    if min_d < self.bound() {
                        self.cursor = node;
                        self.has_cursor = true;
                    }
                    return Some(LaneStep { op: OP_POP, cost: 3, global_bytes: 0 });
                }
            }
        }
        let n = self.cursor;
        self.has_cursor = false;
        let tree = self.tree;
        if let Err(e) = checked_node(tree, "node", n, n) {
            return self.fail(e);
        }
        if tree.is_leaf(n) {
            let range = match checked_leaf_points(tree, n) {
                Ok(range) => range,
                Err(e) => return self.fail(e),
            };
            let count = range.len() as u64;
            for p in range {
                let d = dist(self.q, tree.points.point(p));
                self.offer(d, tree.point_ids[p]);
            }
            return Some(LaneStep {
                op: OP_LEAF,
                cost: count * dist_cost(tree.dims) + count,
                global_bytes: tree.leaf_node_bytes(n),
            });
        }
        // Internal: compute every child MINDIST *serially in this lane* and
        // push the qualifying children (descending MINDIST so the closest pops
        // first).
        let kids = match checked_children(tree, n) {
            Ok(kids) => kids,
            Err(e) => return self.fail(e),
        };
        let count = kids.len() as u64;
        let mut qualifying: Vec<(u32, f32)> = Vec::with_capacity(kids.len());
        for c in kids {
            let (d, _) = tree.child_min_max(c, self.q, false);
            if d < self.bound() {
                qualifying.push((c, d));
            }
        }
        qualifying.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        self.stack.extend(qualifying);
        Some(LaneStep {
            op: OP_INTERNAL,
            cost: count * tree.child_eval_cost(false),
            global_bytes: tree.internal_node_bytes(n),
        })
    }
}

/// Runs a batch task-parallel: queries are packed into blocks of
/// `threads_per_block` lanes. Returns per-query results and per-block stats.
///
/// Trusted-tree entry point: panics if any lane reports a [`KernelError`],
/// which a validated tree can never produce. Use [`tpss_try_batch`] to handle
/// corruption per query, or to trace the batch.
pub fn tpss_batch<V: Volumes>(
    tree: &FlatTree<V>,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    threads_per_block: u32,
) -> (Vec<Vec<Neighbor>>, Vec<KernelStats>) {
    assert!(!queries.is_empty(), "empty query batch");
    let (results, per_block) = tpss_try_batch(tree, queries, k, cfg, threads_per_block, None)
        .unwrap_or_else(|e| panic!("task-parallel kernel rejected the batch: {e}"));
    let results = results
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("task-parallel kernel failed on a trusted tree: {e}")))
        .collect();
    (results, per_block)
}

/// Per-query fallible results plus per-block counters from the hardened
/// task-parallel batch.
pub type TpssBatchOutput = (Vec<Result<Vec<Neighbor>, KernelError>>, Vec<KernelStats>);

/// The hardened task-parallel batch: each lane carries a step budget and
/// bounds-checks every link it follows, so corruption yields a per-query
/// [`KernelError`] instead of a panic or an endless round loop. Lanes that
/// fail simply go idle; surviving lanes in the same block finish normally.
/// Bit-identical results and stats to [`tpss_batch`] on a valid tree. With
/// `Some(sink)`, every block's issue groups and loads are mirrored into it
/// (blocks run sequentially, so events arrive in block order).
pub fn tpss_try_batch<V: Volumes>(
    tree: &FlatTree<V>,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    threads_per_block: u32,
    mut sink: Option<&mut dyn TraceSink>,
) -> Result<TpssBatchOutput, EngineError> {
    assert!(k >= 1);
    if queries.is_empty() {
        return Err(EngineError::EmptyBatch);
    }
    assert_eq!(queries.dims(), tree.dims);
    let tpb = threads_per_block.max(1) as usize;
    let limit = step_budget(tree.num_nodes(), tree.degree);

    let mut results = Vec::with_capacity(queries.len());
    let mut per_block = Vec::new();
    let mut qi = 0usize;
    while qi < queries.len() {
        let block_n = tpb.min(queries.len() - qi);
        let mut lanes: Vec<Lane<V>> = (0..block_n)
            .map(|j| Lane {
                tree,
                q: queries.point(qi + j),
                k,
                stack: vec![(tree.root, 0.0)],
                cursor: 0,
                has_cursor: false,
                best: Vec::with_capacity(k + 1),
                done: false,
                steps: 0,
                step_limit: limit,
                error: None,
            })
            .collect();
        // Reborrowed per block (`as_deref_mut` would pin the trait object's
        // lifetime to the whole batch).
        let block_sink = sink.as_mut().map(|s| &mut **s as &mut dyn TraceSink);
        let stats = run_task_parallel(cfg, &mut lanes, 0, Lane::step, block_sink);
        per_block.push(stats);
        results.extend(lanes.into_iter().map(|l| match l.error {
            Some(e) => Err(e),
            None => Ok(l.best),
        }));
        qi += block_n;
    }
    Ok((results, per_block))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::psb_batch;
    use crate::options::KernelOptions;
    use psb_data::{sample_queries, ClusteredSpec};
    use psb_gpu::launch_blocks;
    use psb_sstree::{build, linear_knn, BuildMethod, SsTree};

    fn setup() -> (PointSet, SsTree, PointSet) {
        let ps = ClusteredSpec {
            clusters: 6,
            points_per_cluster: 400,
            dims: 8,
            sigma: 130.0,
            seed: 121,
        }
        .generate();
        let tree = build(&ps, 16, &BuildMethod::Hilbert);
        let queries = sample_queries(&ps, 64, 0.01, 122);
        (ps, tree, queries)
    }

    #[test]
    fn exact_against_oracle() {
        let (ps, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let (results, _) = tpss_batch(&tree, &queries, 10, &cfg, 32);
        for (qi, q) in queries.iter().enumerate() {
            let want = linear_knn(&ps, q, 10);
            assert_eq!(results[qi].len(), want.len());
            for (g, w) in results[qi].iter().zip(&want) {
                assert!((g.dist - w.dist).abs() <= w.dist.max(1.0) * 1e-4);
            }
        }
    }

    #[test]
    fn task_parallel_sstree_loses_like_the_paper_says() {
        // Same data, two strategies at the paper's degree (128). §II-B's claim:
        // task parallelism serializes divergent lanes and chases pointers
        // uncoalesced, so (a) per-query response time is far worse and (b) warp
        // efficiency is lower than the data-parallel kernel's. (The lockstep
        // lane model is coarser than real SIMT, so the efficiency gap here is
        // a conservative lower bound — the response-time gap is the robust
        // signal.)
        let (ps, _, queries) = setup();
        let tree128 = build(&ps, 128, &BuildMethod::Hilbert);
        let cfg = DeviceConfig::k40();
        let (_, tp_blocks) = tpss_batch(&tree128, &queries, 10, &cfg, 32);
        let tp = launch_blocks(&cfg, 1, &tp_blocks);
        let dp = psb_batch(&tree128, &queries, 10, &cfg, &KernelOptions::default()).expect("batch");
        assert!(
            tp.avg_response_ms > dp.report.avg_response_ms * 2.0,
            "task-parallel {:.4} ms vs data-parallel {:.4} ms",
            tp.avg_response_ms,
            dp.report.avg_response_ms
        );
        // Note: warp efficiency is NOT asserted here. The lockstep lane model
        // steps whole node visits as single equal-cost operations, so lanes at
        // the same operation look perfectly coherent — finer-grained
        // intra-node divergence (which real SIMT hardware pays for) is below
        // this model's resolution. The kd-tree baseline, whose per-step costs
        // genuinely differ across lanes, is where the efficiency gap shows.
    }

    #[test]
    fn uncoalesced_fetches() {
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let (_, blocks) = tpss_batch(&tree, &queries, 4, &cfg, 32);
        let merged = crate::engine::merge_stats(&blocks);
        // Node fetches land one transaction per lane per node (pointer chase);
        // the per-byte transaction rate must exceed the coalesced rate.
        assert!(merged.global_transactions > merged.global_bytes / 128);
    }
}
