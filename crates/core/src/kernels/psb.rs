//! Parallel Scan and Backtrack — Algorithm 1 of the paper.
//!
//! One thread block processes one query:
//!
//! 1. **Initial descent** (`getInitialPruningDistance`): greedily follow the
//!    child with the smallest MINDIST to a leaf and prime the k-best list —
//!    this makes the pruning distance finite before the sweep starts.
//! 2. **Sweep**: restart from the root and descend to the *leftmost* child
//!    whose MINDIST is inside the pruning distance and whose subtree still
//!    contains unvisited leaves (`subtreeMaxLeafId > visitedLeafId`). At every
//!    internal node all child MINDIST/MAXDISTs are computed data-parallel, and
//!    the k-th smallest MAXDIST tightens the pruning distance (each of the k
//!    closest children is guaranteed to contain a point within its MAXDIST).
//! 3. **Leaf scan**: process the leaf; while the k-best list keeps changing,
//!    step to the right sibling leaf (leaves are contiguous in memory — this is
//!    the linear scan that buys PSB its coalesced accesses). When a leaf stops
//!    improving the result, backtrack through the parent link.
//! 4. Terminate when backtracking pops past the root.
//!
//! The sweep's `visitedLeafId` cursor is monotone, so no leaf is processed
//! twice, and a leaf is only ever skipped when its subtree MINDIST is outside
//! the pruning distance at skip time — which can only shrink afterwards, so the
//! skip stays justified and the result is exact.

use psb_gpu::{Block, DeviceConfig, KernelStats, Phase};
use psb_sstree::{FlatTree, Neighbor, Volumes};

use crate::error::KernelError;

use super::collector::{Collector, KnnCollector, Removed};
use super::{
    ascend, checked_children, checked_leaf_id, checked_node, checked_root, child_distances,
    evaluate_children, fetch_internal, leftmost_qualifying, process_leaf, reserve_static, Budget,
    Kernel, Scratch,
};
use crate::options::KernelOptions;

/// Runs one PSB query on a simulated block; returns exact kNN plus counters.
///
/// Trusted-tree entry point: panics if the hardened kernel reports an error
/// (which a validated tree and a fault-free device can never produce). Use
/// [`Kernel::attempt`] to handle corruption or injected faults, or to mirror
/// the metering calls into a [`TraceSink`](psb_gpu::TraceSink).
pub fn psb_query<V: Volumes>(
    tree: &FlatTree<V>,
    q: &[f32],
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> (Vec<Neighbor>, KernelStats) {
    Kernel::Psb { k }.trusted(tree, q, cfg, opts)
}

/// Phase 1 of Algorithm 1 (`getInitialPruningDistance`), shared with the
/// restart kernel and the wave engine's priming so all start from the same
/// bound at the same metered cost: reserve the static shared memory, descend
/// greedily to the leaf nearest the query, and fold it into a fresh k-best
/// list that turns `removed`'s rows away.
#[allow(clippy::too_many_arguments)]
pub(crate) fn initial_descent<'r, V: Volumes, const M: bool>(
    block: &mut Block<'_, M>,
    tree: &FlatTree<V>,
    q: &[f32],
    k: usize,
    removed: Removed<'r>,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    scratch: &mut Scratch,
    budget: &mut Budget,
) -> Result<KnnCollector<'r>, KernelError> {
    // Static shared memory: the per-child MINDIST/MAXDIST arrays of Algorithm 1
    // plus a warp-reduction scratch line.
    reserve_static(block, 2 * tree.degree as u64 * 4 + block.threads() as u64 * 4, cfg)?;
    let mut list = KnnCollector::excluding(block, k, removed, cfg, opts);
    block.set_phase(Phase::Descend);
    let mut n = checked_root(tree)?;
    let mut level = 0u32;
    while !tree.is_leaf(n) {
        budget.tick(block)?;
        let kids = checked_children(tree, n)?;
        fetch_internal(block, tree, n, opts.layout, level);
        // The anchor distances ride along in the same sweep (on a packed
        // arena they reuse the very center distance the bounds came from).
        child_distances(block, tree, n, q, false, true, scratch);
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
    budget.tick(block)?;
    process_leaf(block, tree, n, q, &mut list, scratch, opts, false, level)?;
    Ok(list)
}

/// Phase 2 of Algorithm 1, the left-to-right sweep, over whatever the query
/// collects: with a k-best list it is PSB; with a fixed radius the bound never
/// moves and the same loop is the stacked range query (paper §VI).
///
/// With `replay`, revisits of an internal node replay the first visit's child
/// MINDISTs and k-th-MAXDIST bound from the per-query `SweepMemo` under
/// identical metering, and each scan of a memoised node starts at the child
/// the last one chose, so the memo moves no counter and no result bit. Only
/// fault-free PSB launches ask for it: injected bit-flips draw from a per-load
/// RNG stream, so a replayed value would skip draws a faulted launch must
/// make.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep<V: Volumes, C: Collector, const M: bool>(
    block: &mut Block<'_, M>,
    budget: &mut Budget,
    tree: &FlatTree<V>,
    q: &[f32],
    collector: &mut C,
    opts: &KernelOptions,
    scratch: &mut Scratch,
    replay: bool,
) -> Result<(), KernelError> {
    let mut n = checked_root(tree)?;
    let last_leaf = (tree.num_leaves() - 1) as u32;
    let mut visited: i64 = -1;
    let mut level = 0u32;
    loop {
        // Descend to the leftmost qualifying leaf (or backtrack when none).
        while !tree.is_leaf(n) {
            budget.tick(block)?;
            block.set_phase(Phase::Descend);
            let kids = checked_children(tree, n)?;
            fetch_internal(block, tree, n, opts.layout, level);
            // The sweep values (child MINDISTs, k-th MAXDIST bound) depend
            // only on (node, query), so a revisit after a backtrack replays
            // the first visit's stored values under identical metering
            // instead of recomputing them.
            let (from, min_d) = match if replay { scratch.memo.entry(n) } else { None } {
                Some(hit) => {
                    let cost = tree.child_eval_cost(collector.wants_maxdist());
                    block.par_for(kids.len(), cost, |_| {});
                    if let Some(bound) = hit.bound {
                        collector.replay(block, kids.len(), bound);
                    }
                    // Every child before the last scan's pick was turned away
                    // for a MINDIST the collector no longer admits (its bound
                    // only falls) or for `subtreeMaxLeafId <= visited` (the
                    // cursor only grows): start the scan at that pick.
                    (hit.resume, scratch.memo.values(hit))
                }
                None => {
                    let bound = evaluate_children(block, tree, n, q, collector, scratch);
                    if replay {
                        let Scratch { memo, sweep, .. } = &mut *scratch;
                        memo.store(n, &sweep.min_d, bound);
                    }
                    (0, &scratch.sweep.min_d[..])
                }
            };
            let chosen =
                leftmost_qualifying(block, tree, kids.clone(), from, min_d, collector, visited);
            match chosen {
                Some(c) => {
                    if replay {
                        scratch.memo.resume_at(n, c - kids.start);
                    }
                    n = c;
                    level += 1;
                }
                None => {
                    // No child qualifies: every leaf under `n` is now either
                    // visited or pruned with justification (each child was
                    // rejected for `subtreeMaxLeafId <= visited` or for a
                    // MINDIST the collector no longer admits, and its bound
                    // only shrinks). Advance the cursor past the whole
                    // subtree — without this the parent would re-select `n`
                    // forever, since `n`'s own MINDIST can be inside the
                    // bound even when no child's is.
                    visited = visited.max(tree.subtree_max_leaf(n) as i64);
                    if n == tree.root {
                        return Ok(());
                    }
                    (n, level) = ascend(block, tree, n, level)?;
                }
            }
        }

        // Leaf phase: linear scan of sibling leaves while they keep producing
        // (an improved k-best list; hits — in-range leaves cluster together
        // on the curve).
        let mut via_sibling = false;
        loop {
            budget.tick(block)?;
            let took =
                process_leaf(block, tree, n, q, collector, scratch, opts, via_sibling, level)?;
            let lid = checked_leaf_id(tree, n)?;
            visited = lid as i64;
            if opts.leaf_scan && took && lid < last_leaf {
                block.set_phase(Phase::LeafScan);
                block.scalar(1); // follow the right-sibling link
                n = checked_node(tree, "leaf_node_of", n, tree.leaf_node_of(lid + 1))?;
                via_sibling = true; // contiguous leaves: a prefetchable stream
            } else if n == tree.root {
                // Single-leaf tree: nothing to backtrack to.
                return Ok(());
            } else {
                (n, level) = ascend(block, tree, n, level)?;
                break;
            }
        }
    }
}

/// Algorithm 1: prime the bound, then sweep, turning `removed`'s rows away.
/// `memo: false` is the path every faulted attempt takes; the unit tests
/// below hold the memo against it.
#[allow(clippy::too_many_arguments)]
pub(super) fn traverse<V: Volumes, const M: bool>(
    block: &mut Block<'_, M>,
    budget: &mut Budget,
    tree: &FlatTree<V>,
    q: &[f32],
    k: usize,
    removed: Removed<'_>,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    scratch: &mut Scratch,
    memo: bool,
) -> Result<Vec<Neighbor>, KernelError> {
    let replay = memo && !block.has_faults();
    if replay {
        scratch.memo.begin_query(tree.num_nodes());
    }
    let mut list = initial_descent(block, tree, q, k, removed, cfg, opts, scratch, budget)?;
    sweep(block, budget, tree, q, &mut list, opts, scratch, replay)?;
    Ok(list.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_data::{sample_queries, ClusteredSpec};
    use psb_geom::PointSet;
    use psb_sstree::{build, linear_knn, BuildMethod, SsTree};

    fn setup(dims: usize, sigma: f32, degree: usize) -> (PointSet, SsTree) {
        let ps = ClusteredSpec { clusters: 6, points_per_cluster: 350, dims, sigma, seed: 11 }
            .generate();
        let tree = build(&ps, degree, &BuildMethod::Hilbert);
        (ps, tree)
    }

    fn assert_exact(tree: &SsTree, ps: &PointSet, q: &[f32], k: usize, opts: &KernelOptions) {
        let cfg = DeviceConfig::k40();
        let (got, _) = psb_query(tree, q, k, &cfg, opts);
        let want = linear_knn(ps, q, k);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            let scale = w.dist.max(1.0);
            assert!((g.dist - w.dist).abs() <= scale * 1e-4, "got {} want {}", g.dist, w.dist);
        }
    }

    #[test]
    fn exact_on_clustered_data() {
        let (ps, tree) = setup(4, 150.0, 16);
        let opts = KernelOptions::default();
        for q in sample_queries(&ps, 25, 0.01, 3).iter() {
            assert_exact(&tree, &ps, q, 8, &opts);
        }
    }

    #[test]
    fn exact_without_minmax_pruning() {
        let (ps, tree) = setup(4, 150.0, 16);
        let opts = KernelOptions { use_minmax_prune: false, ..Default::default() };
        for q in sample_queries(&ps, 10, 0.01, 4).iter() {
            assert_exact(&tree, &ps, q, 8, &opts);
        }
    }

    #[test]
    fn exact_without_leaf_scan() {
        let (ps, tree) = setup(4, 150.0, 16);
        let opts = KernelOptions { leaf_scan: false, ..Default::default() };
        for q in sample_queries(&ps, 10, 0.01, 5).iter() {
            assert_exact(&tree, &ps, q, 8, &opts);
        }
    }

    #[test]
    fn exact_in_high_dimensions() {
        let (ps, tree) = setup(32, 400.0, 32);
        let opts = KernelOptions::default();
        for q in sample_queries(&ps, 6, 0.01, 6).iter() {
            assert_exact(&tree, &ps, q, 16, &opts);
        }
    }

    #[test]
    fn exact_with_k_exceeding_degree() {
        // k > node degree disables the MINMAXDIST bound; still exact.
        let (ps, tree) = setup(3, 100.0, 8);
        let opts = KernelOptions::default();
        for q in sample_queries(&ps, 5, 0.01, 7).iter() {
            assert_exact(&tree, &ps, q, 50, &opts);
        }
    }

    #[test]
    fn exact_on_single_leaf_tree() {
        let mut ps = PointSet::new(2);
        for i in 0..10 {
            ps.push(&[i as f32, 0.0]);
        }
        let tree = build(&ps, 128, &BuildMethod::Hilbert);
        assert_exact(&tree, &ps, &[3.2, 0.0], 3, &KernelOptions::default());
    }

    #[test]
    fn stats_are_populated() {
        let (ps, tree) = setup(4, 150.0, 16);
        let cfg = DeviceConfig::k40();
        let q = sample_queries(&ps, 1, 0.01, 8);
        let (_, stats) = psb_query(&tree, q.point(0), 8, &cfg, &KernelOptions::default());
        assert!(stats.nodes_visited >= 2, "must visit at least root + a leaf");
        assert!(stats.global_bytes > 0);
        assert!(stats.warp_efficiency() > 0.0 && stats.warp_efficiency() <= 1.0);
        assert!(stats.smem_peak_bytes > 0);
    }

    #[test]
    fn visits_fewer_bytes_than_whole_dataset_on_tight_clusters() {
        let (ps, tree) = setup(4, 20.0, 16);
        let cfg = DeviceConfig::k40();
        // Jitter must stay inside the sigma=20 cluster radius, or the true kNN
        // ball legitimately spans many leaves (space is 65 536 wide, so even
        // 0.5% jitter is ~330 units).
        let q = sample_queries(&ps, 1, 0.0001, 9);
        let (_, stats) = psb_query(&tree, q.point(0), 8, &cfg, &KernelOptions::default());
        // The budget below allows for the home cluster's leaves plus PSB's
        // stackless parent refetches (each backtrack re-reads an internal
        // node); on this 6-cluster micro dataset that lands between 1/3 and
        // 3/5 of the raw data volume depending on where the sampled query
        // falls. Pruning failure would read essentially all of it (plus the
        // internal-node overhead), so 2/3 separates the regimes robustly.
        assert!(
            stats.global_bytes < ps.bytes() * 2 / 3,
            "PSB read {} of {} dataset bytes — pruning is not working",
            stats.global_bytes,
            ps.bytes()
        );
    }

    #[test]
    fn query_on_data_point_finds_itself() {
        let (ps, tree) = setup(2, 60.0, 16);
        let cfg = DeviceConfig::k40();
        let q = ps.point(321).to_vec();
        let (got, _) = psb_query(&tree, &q, 1, &cfg, &KernelOptions::default());
        assert!(got[0].dist <= 1e-6);
        assert_eq!(got[0].id, 321);
    }

    /// The k-th MAXDIST bound is inclusive. Here the single-point last leaf
    /// has radius 0, so its MINDIST and MAXDIST from the query are the same
    /// number; at k = 1 that MAXDIST is the bound, and a strict MINDIST test
    /// against it turned the leaf away with the nearest point in it, returning
    /// the point at 1.58 instead of the one at 0.71.
    #[test]
    fn a_zero_radius_leaf_that_makes_the_bound_is_still_visited() {
        let mut ps = PointSet::new(2);
        for p in [[4.0, 1.0], [4.0, 2.0], [0.0, 2.0], [2.0, 1.0], [3.0, 4.0]] {
            ps.push(&p);
        }
        let tree = build(&ps, 4, &BuildMethod::Hilbert);
        let q = [3.5, 0.5];
        for metering in [crate::Metering::Simulated, crate::Metering::Off] {
            let opts = KernelOptions { metering, ..KernelOptions::default() };
            let (got, _) = psb_query(&tree, &q, 1, &DeviceConfig::k40(), &opts);
            assert_eq!(got, linear_knn(&ps, &q, 1), "{metering:?}");
        }
    }

    /// [`traverse`] at k = 8 on a fault-free block of its own, memo as asked.
    fn bare_launch<const M: bool>(
        tree: &SsTree,
        q: &[f32],
        cfg: &DeviceConfig,
        opts: &KernelOptions,
        scratch: &mut Scratch,
        memo: bool,
    ) -> (Vec<Neighbor>, KernelStats) {
        launch_k::<M>(tree, q, 8, cfg, opts, scratch, memo, None)
    }

    /// [`traverse`] on a fault-free block of its own, mirrored into `sink`.
    #[allow(clippy::too_many_arguments)]
    fn launch_k<const M: bool>(
        tree: &SsTree,
        q: &[f32],
        k: usize,
        cfg: &DeviceConfig,
        opts: &KernelOptions,
        scratch: &mut Scratch,
        memo: bool,
        sink: Option<&mut dyn psb_gpu::TraceSink>,
    ) -> (Vec<Neighbor>, KernelStats) {
        let mut block = Block::<M>::with_sink(opts.threads_per_block, cfg, sink);
        let mut budget = Budget::for_nodes(tree.num_nodes(), tree.degree);
        let found =
            traverse(&mut block, &mut budget, tree, q, k, Removed::NONE, cfg, opts, scratch, memo)
                .expect("valid tree");
        (found, block.finish())
    }

    /// Test (b) of the one-launch-path change: the memo, on for every
    /// fault-free launch, held against the memo-less path faulted attempts
    /// take — neighbours and every counter bit-equal, in both metering modes,
    /// where PSB backtracks a lot (16-d uniform, degree 16) and where it
    /// prunes (4-d clustered, degree 64).
    #[test]
    fn the_memo_moves_no_result_bit_and_no_counter() {
        let uniform = psb_data::UniformSpec { len: 3000, dims: 16, seed: 21 }.generate();
        let clustered =
            ClusteredSpec { clusters: 8, points_per_cluster: 500, dims: 4, sigma: 90.0, seed: 22 }
                .generate();
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        for (ps, degree) in [(&uniform, 16), (&clustered, 64)] {
            let tree = build(ps, degree, &BuildMethod::Hilbert);
            let mut revisits = 0;
            for q in sample_queries(ps, 12, 0.01, 23).iter() {
                let run = |metered: bool, memo: bool| {
                    crate::kernels::with_scratch(tree.dims, opts.lanes, |s| match metered {
                        true => bare_launch::<true>(&tree, q, &cfg, &opts, s, memo),
                        false => bare_launch::<false>(&tree, q, &cfg, &opts, s, memo),
                    })
                };
                for metered in [true, false] {
                    let (on, off) = (run(metered, true), run(metered, false));
                    assert_eq!(on.1, off.1, "counters, metered = {metered}");
                    let bits = |found: &[Neighbor]| -> Vec<(u32, u32)> {
                        found.iter().map(|n| (n.id, n.dist.to_bits())).collect()
                    };
                    assert_eq!(bits(&on.0), bits(&off.0), "neighbours, metered = {metered}");
                    revisits += on.1.backtracks;
                }
            }
            assert!(revisits > 0, "no backtrack means no revisit: the memo was never read");
        }
    }

    /// The memo's resume point held against the memo-less path on the paper's
    /// shape (16-d clustered, degree 128, k = 32) and a NOAA-like one (4-d,
    /// degree 64, k = 8): neighbours and counters bit-equal in both meterings,
    /// and the same event stream when traced. Some scan must have resumed
    /// past child 0, or the cursor was never exercised.
    #[test]
    fn a_revisit_resumes_at_the_last_pick_bit_identically() {
        use psb_gpu::VecSink;
        let paper = ClusteredSpec {
            clusters: 12,
            points_per_cluster: 800,
            dims: 16,
            sigma: 160.0,
            seed: 31,
        }
        .generate();
        let noaa = psb_data::NoaaSpec { stations: 300, reports: 12_000, extra_dims: 2, seed: 32 }
            .generate();
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let bits = |found: &[Neighbor]| -> Vec<(u32, u32)> {
            found.iter().map(|n| (n.id, n.dist.to_bits())).collect()
        };
        for (ps, degree, k) in [(&paper, 128, 32), (&noaa, 64, 8)] {
            let tree = build(ps, degree, &BuildMethod::Hilbert);
            let mut resumed = 0;
            for q in sample_queries(ps, 10, 0.01, 33).iter() {
                let traced = |memo: bool| {
                    let mut sink = VecSink::new();
                    let out = crate::kernels::with_scratch(tree.dims, opts.lanes, |s| {
                        launch_k::<true>(&tree, q, k, &cfg, &opts, s, memo, Some(&mut sink))
                    });
                    ((bits(&out.0), out.1), sink.events)
                };
                let off = traced(false);
                assert_eq!(traced(true), off, "traced, degree {degree}");
                let plain = |memo: bool| {
                    crate::kernels::with_scratch(tree.dims, opts.lanes, |s| {
                        let out = launch_k::<false>(&tree, q, k, &cfg, &opts, s, memo, None);
                        let memo = &s.memo;
                        let live = memo.slots.iter().filter(|(epoch, _)| *epoch == memo.epoch);
                        ((bits(&out.0), out.1), live.filter(|(_, e)| e.resume > 0).count())
                    })
                };
                let (on, picks) = plain(true);
                assert_eq!(on, plain(false).0, "unmetered, degree {degree}");
                let untraced = crate::kernels::with_scratch(tree.dims, opts.lanes, |s| {
                    launch_k::<true>(&tree, q, k, &cfg, &opts, s, true, None)
                });
                assert_eq!((bits(&untraced.0), untraced.1), off.0, "metered, degree {degree}");
                resumed += picks;
            }
            assert!(resumed > 0, "degree {degree}: no scan resumed past child 0");
        }
    }
}
