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

use psb_gpu::{Block, DeviceConfig, KernelStats, Phase};
use psb_sstree::{FlatTree, Neighbor, Volumes};

use crate::error::KernelError;

use super::collector::{Collector, Removed};
use super::psb::initial_descent;
use super::{
    checked_children, checked_leaf_id, checked_node, evaluate_children, fetch_internal,
    leftmost_qualifying, process_leaf, Budget, Kernel, Scratch,
};
use crate::options::KernelOptions;

/// Runs one scan-and-restart query on a simulated block.
///
/// Trusted-tree entry point: panics on a [`KernelError`]. Use
/// [`Kernel::attempt`] to handle corruption or injected faults.
pub fn restart_query<V: Volumes>(
    tree: &FlatTree<V>,
    q: &[f32],
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> (Vec<Neighbor>, KernelStats) {
    Kernel::Restart { k }.trusted(tree, q, cfg, opts)
}

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
) -> Result<Vec<Neighbor>, KernelError> {
    // The initial descent primes the pruning distance (same as PSB).
    let mut list = initial_descent(block, tree, q, k, removed, cfg, opts, scratch, budget, false)?;

    let last_leaf = (tree.num_leaves() - 1) as u32;
    let mut visited: i64 = -1;
    'restart: loop {
        // Full descent from the root toward the leftmost qualifying leaf.
        let mut n = tree.root;
        let mut level = 0u32;
        while !tree.is_leaf(n) {
            budget.tick(block)?;
            block.set_phase(Phase::Descend);
            let kids = checked_children(tree, n)?;
            fetch_internal(block, tree, n, opts.layout, level);
            evaluate_children(block, tree, n, q, &mut list, scratch);
            let min_d = &scratch.sweep.min_d;
            match leftmost_qualifying(block, tree, kids, 0, min_d, &list, visited) {
                Some(c) => {
                    n = c;
                    level += 1;
                }
                None => {
                    // Everything under `n` is visited or justifiably pruned.
                    visited = visited.max(tree.subtree_max_leaf(n) as i64);
                    if n == tree.root {
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
            budget.tick(block)?;
            let changed =
                process_leaf(block, tree, n, q, &mut list, scratch, opts, via_sibling, level)?;
            let lid = checked_leaf_id(tree, n)?;
            visited = lid as i64;
            if opts.leaf_scan && changed && lid < last_leaf {
                block.set_phase(Phase::LeafScan);
                block.scalar(1);
                n = checked_node(tree, "leaf_node_of", n, tree.leaf_node_of(lid + 1))?;
                via_sibling = true;
            } else if n == tree.root {
                break 'restart; // single-leaf tree
            } else {
                block.backtrack(level);
                continue 'restart;
            }
        }
    }
    Ok(list.finish())
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
