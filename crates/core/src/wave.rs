//! Buffer-wave node-centric batch traversal: queries grouped by node, one
//! fetch per buffered node.
//!
//! Every per-query kernel in this crate walks the tree once per query: a hot
//! node's arena block is re-fetched (and its metering re-paid) once for every
//! query that reaches it, and PSB's stackless backtracking re-descends through
//! the same internal nodes tens of times per query on poorly-pruning
//! workloads. This module inverts the loop, following Gieseke et al.'s
//! *Bigger Buffer k-d Trees* (PAPERS.md): **nodes own query buffers**, and the
//! batch moves down the tree in level-synchronous *waves*:
//!
//! 1. **Priming** — every query runs PSB's phase-1 greedy descent (identical
//!    code path and metering) so its pruning bound is finite before the wave
//!    sweep starts. Range queries skip this: their bound is the fixed radius.
//! 2. **Seeding** — every query enters the root node's buffer, in scheduled
//!    order ([`QuerySchedule::Hilbert`](crate::QuerySchedule::Hilbert) decides
//!    which query holds which rank of the root's one fetch, nothing else).
//! 3. **Waves** — for each tree level, every node with a non-empty buffer is
//!    swept **once**: its arena block is fetched one time and the fetch is
//!    amortized over the buffered queries ([`Block::load_global_share`]);
//!    each buffered query prunes against its *current* bound (which may have
//!    tightened since it enqueued itself), sweeps the children via the same
//!    [`FlatTree::child_sweep`]/[`FlatTree::leaf_rows`] calls as the
//!    per-query kernels, tightens its bound with the k-th-MAXDIST rule, and
//!    appends itself to the buffers of surviving children. Leaf sweeps hand
//!    their rows to the query's collector — the same k-best list or range hit
//!    list, behind the same trait, the per-query kernels collect into
//!    (`kernels::collector`), so the wave's per-node step is written once.
//!
//! A node's buffer is every query of the batch that reaches it: nothing bounds
//! it, so a batch is one front per level at any size and the root's fill is
//! the batch size.
//!
//! ## Exactness
//!
//! A query's bound only tightens, every prune requires `MINDIST > bound`
//! (kNN admits a subtree at the bound, where a tied row can still displace
//! the k-th by id; `> radius` for range), and the true k-th distance is a
//! lower bound on every intermediate bound — so a subtree containing a true
//! neighbor can never be pruned, every leaf that can matter is swept, and
//! the k-best list converges to exactly the per-query kernel's result.
//! Neighbors and outcomes are bit-identical to the per-query engines (golden
//! tests across all kernels, both index families, and batch sizes by
//! property test in `tests/wave_parity.rs`); `KernelStats` are *not*
//! comparable — the whole point is that the wave engine does strictly less
//! memory work.
//!
//! ## Metering model
//!
//! Per coalesced sweep of a buffer holding `m` queries, the node's block of
//! `B` bytes / `T` transactions is fetched **once**: entry `j` is charged
//! `B/m + (j < B%m)` bytes and `T/m + (j < T%m)` transactions, so the
//! merged counters see exactly one fetch per sweep (`nodes_visited` counts
//! sweeps, charged to the rank-0 entry). A pruned entry still pays: it is a
//! masked lane of the shared fetch. Leaf-wave fetch shares are marked
//! streamed: the leaf wave walks the contiguous leaf arena left-to-right,
//! which is precisely the prefetchable linear scan the paper's leaf chain
//! exploits. Compute (child sweeps, distance evaluation, list merges) is
//! charged per query, unshared — lanes serve different queries.
//!
//! ## Host execution
//!
//! Per-query state — block, k-best list, bound — is disjoint per query, and a
//! query's own sweeps (which nodes, in which order, under which bound) depend
//! on no other query; only the *split* of each node's single fetch needs the
//! whole batch, because it needs every buffer's occupancy and order. So the
//! batch is **one** parallel region — each query is primed and then runs all
//! of its wave fronts back to back, level by level and in ascending node id
//! within a level, logging the nodes it was buffered at — followed by a cheap
//! sequential node-major pass that counts every buffer from the logs and
//! charges each entry its rank's share. The counters are integer sums per
//! phase, so charging the shares last leaves every
//! [`KernelStats`](psb_gpu::KernelStats) bit where charging them sweep by
//! sweep would (the test module's oracle does exactly that). The metered
//! schedule is the node-centric one regardless of host interleaving, and
//! results are deterministic under any thread count.
//!
//! The working set is the logs: 4 bytes per (query, swept node), growing with
//! the batch. An unbounded producer belongs behind
//! [`QueryStream`](crate::QueryStream), which launches the paper's 240-query
//! chunks (§V-B); there is no internal chunking here.
//!
//! ## Faults and the shell
//!
//! This module is a traversal, not a launch path: [`launch`](crate::launch)'s
//! runner owns the empty-batch check, the spans, the launch aggregation and
//! the outcomes, and calls `wave_rows` as its execute step when
//! [`resolve`](crate::resolve) picks the wave engine. Like the PSB sweep memo,
//! the wave engine serves the fault-free path only — `resolve` drops it under
//! a real [`FaultPlan`] — and a structurally corrupt tree
//! makes `wave_rows` return a typed error, on which the runner counts
//! `wave.fell_through` and falls through to the per-query recovery ladder:
//! exact degraded results, never a panic (`tests/wave_parity.rs`,
//! `tests/tree_invariants.rs`).

use psb_geom::PointSet;
use psb_gpu::{Block, DeviceConfig, FaultPlan, NodeKind, Phase};
use psb_metrics::MetricsHandle;
use psb_sstree::{FlatTree, Volumes};
use rayon::prelude::*;

use crate::engine::{launch_reporting, QueryBatchResult};
use crate::error::{EngineError, KernelError};
use crate::kernels::collector::{Collector, KnnCollector, RangeCollector, Removed};
use crate::kernels::psb::initial_descent;
use crate::kernels::{
    checked_children, checked_leaf_points, checked_root, evaluate_children, range, with_scratch,
    Budget, Found, Kernel, Scratch,
};
use crate::options::{KernelOptions, Metering, NodeLayout};

/// The buffer-wave engine's switch, carried in [`KernelOptions::wave`]: `Some`
/// runs the batches of the four table kernels (psb / bnb / restart / range)
/// through the wave traversal. A marker with nothing to configure; it stays a
/// type (not a `bool`) because the frozen repo benchmark spells
/// `Some(WaveConfig::default())`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaveConfig;

/// What the wave engine did, alongside the ordinary [`QueryBatchResult`]:
/// how many synchronous wave fronts ran, how many coalesced sweeps they
/// issued, and how full the buffers were (the fetch-amortization factor).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaveReport {
    /// Level-synchronous wave fronts that swept at least one buffer.
    pub waves: u32,
    /// Node buffers swept (each is one amortized arena-block fetch).
    pub coalesced_sweeps: u64,
    /// Total buffered (node, query) entries processed across all sweeps.
    pub buffered_entries: u64,
    /// Largest buffer processed by a single sweep.
    pub max_fill: u32,
}

impl WaveReport {
    /// Mean queries per coalesced sweep — the factor by which node fetches
    /// were amortized (1.0 means the wave engine degenerated to per-query
    /// fetching).
    pub fn mean_fill(&self) -> f64 {
        if self.coalesced_sweeps == 0 {
            0.0
        } else {
            self.buffered_entries as f64 / self.coalesced_sweeps as f64
        }
    }

    /// The `wave.*` counters and fill gauge of one batch.
    pub(crate) fn record_into(&self, m: &MetricsHandle) {
        m.counter("wave.waves", u64::from(self.waves));
        m.counter("wave.coalesced_sweeps", self.coalesced_sweeps);
        m.counter("wave.buffered_entries", self.buffered_entries);
        m.gauge("wave.mean_buffer_fill", self.mean_fill());
    }
}

/// Per-query traversal state. Fields are disjoint per query, which is what
/// lets the whole traversal run query-parallel on the host. Generic over what
/// the query collects — the push-down machinery is shared, only the bound
/// semantics differ: a kNN bound shrinks as the list fills, a range bound is
/// the fixed radius — and over the metering mode, both monomorphized once by
/// [`wave_rows`]' launch dispatch.
struct QueryState<C, const M: bool> {
    block: Block<'static, M>,
    /// The result so far and the current pruning bound.
    collector: C,
    /// Every node this query was buffered at, in the order it swept them —
    /// what the node-major accounting pass reads.
    visited: Vec<u32>,
}

/// Bytes and transactions one coalesced fetch of node `n`'s arena block
/// moves, mirroring [`fetch_internal`] / [`fetch_leaf`](crate::kernels) for
/// the same layout.
fn node_fetch_cost<V: Volumes, const M: bool>(
    tree: &FlatTree<V>,
    n: u32,
    leaf: bool,
    layout: NodeLayout,
    block: &Block<'_, M>,
) -> (u64, u64) {
    match layout {
        NodeLayout::Soa => {
            let bytes = if leaf { tree.leaf_node_bytes(n) } else { tree.internal_node_bytes(n) };
            (bytes, block.coalesced_transactions(bytes))
        }
        NodeLayout::Aos => {
            let (count, elem) = if leaf {
                (tree.leaf_points(n).len() as u64, tree.point_entry_bytes())
            } else {
                (tree.children(n).len() as u64, tree.child_entry_bytes())
            };
            (count * elem, count * block.coalesced_transactions(elem))
        }
    }
}

/// Depth of every node reachable from `root` (root = 0). Rejects cycles and
/// diamond links with a typed error instead of hanging — the level schedule
/// is only meaningful on a proper tree.
fn node_levels<V: Volumes>(tree: &FlatTree<V>, root: u32) -> Result<Vec<u32>, KernelError> {
    let nn = tree.num_nodes();
    let mut levels = vec![u32::MAX; nn];
    levels[root as usize] = 0;
    let mut stack = vec![root];
    let mut popped = 0usize;
    while let Some(n) = stack.pop() {
        popped += 1;
        if popped > nn {
            return Err(KernelError::CorruptNode {
                node: n,
                detail: "cycle while leveling the tree for the wave schedule",
            });
        }
        if tree.is_leaf(n) {
            continue;
        }
        let child_level = levels[n as usize] + 1;
        for c in checked_children(tree, n)? {
            if levels[c as usize] != u32::MAX {
                return Err(KernelError::CorruptNode {
                    node: c,
                    detail: "node reachable from two parents in the wave schedule",
                });
            }
            levels[c as usize] = child_level;
            stack.push(c);
        }
    }
    Ok(levels)
}

/// The traversal phase a node's sweep is attributed to.
fn sweep_phase(leaf: bool) -> Phase {
    if leaf {
        Phase::LeafScan
    } else {
        Phase::Descend
    }
}

/// Sweep node `n` for one query that was buffered there at `mindist`:
/// re-check admission against the query's current bound, and — if the lane
/// stays active — sweep the node (surviving children into `out`, leaf points
/// into the collector). Everything here is the query's own compute; the
/// shared fetch is charged separately ([`Wave::charge_fetch_shares`]).
fn sweep_entry<V: Volumes, C: Collector, const M: bool>(
    tree: &FlatTree<V>,
    q: &[f32],
    state: &mut QueryState<C, M>,
    (n, entry_mindist): (u32, f32),
    out: &mut Vec<(u32, f32)>,
    scratch: &mut Scratch,
) -> Result<(), KernelError> {
    let QueryState { block, collector, .. } = state;
    let leaf = tree.is_leaf(n);
    block.set_phase(sweep_phase(leaf));
    // Admission re-check: the bound may have tightened since this query
    // pushed itself here (earlier sweeps of this very wave).
    if !collector.admits(entry_mindist) {
        return Ok(());
    }
    if leaf {
        let range = checked_leaf_points(tree, n)?;
        let dc = crate::dist_cost(tree.dims);
        block.par_for(range.len(), dc, |_| {});
        let dists = &mut scratch.sweep.tmp;
        dists.clear();
        let ids = tree.leaf_rows(n, q, &scratch.dk, dists);
        block.set_phase(Phase::ResultMerge);
        collector.collect(block, dists, ids);
    } else {
        let kids = checked_children(tree, n)?;
        evaluate_children(block, tree, n, q, collector, scratch);
        // One parallel admission test over the children, then a serial
        // enqueue per survivor (the buffer append).
        block.par_for(kids.len(), 1, |_| {});
        for (i, c) in kids.enumerate() {
            let mindist = scratch.sweep.min_d[i];
            if collector.admits(mindist) {
                block.scalar(1);
                out.push((c, mindist));
            }
        }
    }
    Ok(())
}

/// A query ready to enter the root's buffer: its block and its collector.
type Primed<C, const M: bool> = Result<(Block<'static, M>, C), KernelError>;

/// One batch's traversal inputs.
struct Wave<'a, V: Volumes> {
    tree: &'a FlatTree<V>,
    queries: &'a PointSet,
    cfg: &'a DeviceConfig,
    opts: &'a KernelOptions,
    order: Option<&'a [u32]>,
    root: u32,
    levels: &'a [u32],
}

/// Node-major bookkeeping of one coalesced sweep.
#[derive(Clone, Copy, Default)]
struct Sweep {
    /// Queries buffered at the node: what its one fetch is amortized over.
    fill: u32,
    /// Entries charged so far: the next entry's rank.
    charged: u32,
    leaf: bool,
    /// The fetch's bytes and transactions as (quotient, remainder) by `fill`:
    /// rank `j` owes `quotient + (j < remainder)`, so the shares sum to
    /// exactly one fetch.
    bytes: (u64, u64),
    transactions: (u64, u64),
}

impl<V: Volumes> Wave<'_, V> {
    /// The whole batch for `kernel`: prime every query — the three kNN
    /// kernels share one wave form, their results being the same exact set —
    /// traverse, split every node's single fetch over its buffer, and close
    /// the blocks.
    fn rows<const M: bool>(&self, kernel: Kernel) -> Result<(Vec<Found>, WaveReport), KernelError> {
        match kernel {
            Kernel::Psb { k } | Kernel::Bnb { k } | Kernel::Restart { k } => {
                self.run(self.prime_knn::<M>(k))
            }
            Kernel::Range { radius } => self.run(self.prime_range::<M>(radius)),
        }
    }

    /// kNN priming: PSB's phase-1 descent, the very code of the per-query
    /// kernel, so the wave's starting bound and its metered cost match it.
    fn prime_knn<const M: bool>(
        &self,
        k: usize,
    ) -> impl Fn(&[f32], &mut Scratch) -> Primed<KnnCollector<'static>, M> + Sync + '_ {
        let (tree, cfg, opts) = (self.tree, self.cfg, self.opts);
        move |q, scratch| {
            let mut block = Block::new(opts.threads_per_block, cfg);
            let mut budget = Budget::for_nodes(tree.num_nodes(), tree.degree);
            let none = Removed::NONE;
            let list =
                initial_descent(&mut block, tree, q, k, none, cfg, opts, scratch, &mut budget)?;
            Ok((block, list))
        }
    }

    /// Range priming: the range kernel's static shared memory and no descent
    /// — the bound is the radius from the root on.
    fn prime_range<const M: bool>(
        &self,
        radius: f32,
    ) -> impl Fn(&[f32], &mut Scratch) -> Primed<RangeCollector, M> + Sync + '_ {
        move |_, _| {
            let mut block = Block::new(self.opts.threads_per_block, self.cfg);
            let hits = range::prime(&mut block, self.tree, radius, self.cfg)?;
            Ok((block, hits))
        }
    }

    fn run<C: Collector + Send, const M: bool>(
        &self,
        prime: impl Fn(&[f32], &mut Scratch) -> Primed<C, M> + Sync,
    ) -> Result<(Vec<Found>, WaveReport), KernelError> {
        let mut states = self.traverse(prime)?;
        let report = self.charge_fetch_shares(&mut states);
        Ok((close(states), report))
    }

    /// Which nodes a query is buffered at — and in which order it sweeps them
    /// — depends on that query alone. Each query therefore runs all of its
    /// wave fronts back to back inside **one** parallel region (level by
    /// level, each level in ascending node id: exactly its share of the
    /// node-major schedule) and logs the nodes it swept; the shared fetches
    /// are not charged here.
    fn traverse<C: Collector + Send, const M: bool>(
        &self,
        prime: impl Fn(&[f32], &mut Scratch) -> Primed<C, M> + Sync,
    ) -> Result<Vec<QueryState<C, M>>, KernelError> {
        let (tree, opts) = (self.tree, self.opts);
        (0..self.queries.len())
            .into_par_iter()
            .map(|i| {
                with_scratch(tree.dims, opts.lanes, |scratch| {
                    let q = self.queries.point(i);
                    let (block, collector) = prime(q, scratch)?;
                    let mut state = QueryState { block, collector, visited: Vec::new() };
                    // The fronts and the log grow in the worker's scratch, not
                    // per query: a query keeps one exact-size copy of its log.
                    let mut front = std::mem::take(&mut scratch.front);
                    let mut next = std::mem::take(&mut scratch.next_front);
                    let mut visited = std::mem::take(&mut scratch.visited);
                    front.clear();
                    next.clear();
                    visited.clear();
                    // MINDIST to the root is taken as 0 — the per-query
                    // kernels also enter the root unconditionally.
                    front.push((self.root, 0.0));
                    while !front.is_empty() {
                        for &entry in &front {
                            visited.push(entry.0);
                            sweep_entry(tree, q, &mut state, entry, &mut next, scratch)?;
                        }
                        front.clear();
                        std::mem::swap(&mut front, &mut next);
                        front.sort_unstable_by_key(|entry| entry.0);
                    }
                    state.visited = visited.clone();
                    (scratch.front, scratch.next_front, scratch.visited) = (front, next, visited);
                    Ok(state)
                })
            })
            .collect()
    }

    /// The node-major half: count every node's buffer from the per-query
    /// logs, then charge each entry its rank's share of the node's one fetch.
    /// Buffer order is scheduled order at the root and ascending query index
    /// below it. Rank 0 carries the node-visit count (merged `nodes_visited` =
    /// coalesced sweeps) and the remainder-heavy share. One cheap sequential
    /// pass (a counter bump and two adds per entry).
    fn charge_fetch_shares<C, const M: bool>(&self, states: &mut [QueryState<C, M>]) -> WaveReport {
        let mut sweeps = vec![Sweep::default(); self.tree.num_nodes()];
        let mut swept: Vec<u32> = Vec::new();
        for state in states.iter() {
            for &n in &state.visited {
                let sweep = &mut sweeps[n as usize];
                if sweep.fill == 0 {
                    swept.push(n);
                }
                sweep.fill += 1;
            }
        }
        let mut wr = WaveReport { coalesced_sweeps: swept.len() as u64, ..Default::default() };
        for &n in &swept {
            let fill = sweeps[n as usize].fill;
            wr.buffered_entries += u64::from(fill);
            wr.max_fill = wr.max_fill.max(fill);
            // A swept node's parent was swept too, so the levels reached are
            // 0..=deepest: one wave front each.
            wr.waves = wr.waves.max(self.levels[n as usize] + 1);
        }
        let Some(any_block) = states.first().map(|state| &state.block).filter(|_| M) else {
            return wr;
        };
        for &n in &swept {
            let leaf = self.tree.is_leaf(n);
            let (bytes, tx) = node_fetch_cost(self.tree, n, leaf, self.opts.layout, any_block);
            let sweep = &mut sweeps[n as usize];
            let m = u64::from(sweep.fill);
            sweep.leaf = leaf;
            sweep.bytes = (bytes / m, bytes % m);
            sweep.transactions = (tx / m, tx % m);
        }
        let mut root_rank: Vec<u32> = (0..states.len() as u32).collect();
        for (rank, &i) in self.order.unwrap_or_default().iter().enumerate() {
            root_rank[i as usize] = rank as u32;
        }
        for (state, root_rank) in states.iter_mut().zip(root_rank) {
            // (bytes, transactions) owed for internal and for leaf sweeps.
            let mut owed = [(0u64, 0u64); 2];
            for &n in &state.visited {
                let sweep = &mut sweeps[n as usize];
                let rank = if n == self.root { root_rank } else { sweep.charged };
                sweep.charged += 1;
                if rank == 0 {
                    let kind = if sweep.leaf { NodeKind::Leaf } else { NodeKind::Internal };
                    state.block.set_phase(sweep_phase(sweep.leaf));
                    state.block.visit_node(self.levels[n as usize], kind);
                }
                let j = u64::from(rank);
                let part = &mut owed[usize::from(sweep.leaf)];
                part.0 += sweep.bytes.0 + u64::from(j < sweep.bytes.1);
                part.1 += sweep.transactions.0 + u64::from(j < sweep.transactions.1);
            }
            // Leaf-wave shares are streamed: the wave walks the contiguous
            // leaf arena left-to-right, a prefetchable linear scan.
            for (leaf, (bytes, tx)) in [false, true].into_iter().zip(owed) {
                state.block.set_phase(sweep_phase(leaf));
                state.block.load_global_share(bytes, tx, leaf);
            }
        }
        wr
    }
}

/// The wave engine as the batch runner's execute step: every query's exact
/// result and counters, in submission order, plus what the waves did.
/// `metering` is the launch's resolved mode, dispatched once here.
pub(crate) fn wave_rows<V: Volumes>(
    tree: &FlatTree<V>,
    queries: &PointSet,
    kernel: Kernel,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    metering: Metering,
    order: Option<&[u32]>,
) -> Result<(Vec<Found>, WaveReport), KernelError> {
    assert_eq!(queries.dims(), tree.dims, "query dimensionality mismatch");
    kernel.check_parameter();
    let root = checked_root(tree)?;
    let levels = node_levels(tree, root)?;
    let wave = Wave { tree, queries, cfg, opts, order, root, levels: &levels };
    match metering {
        Metering::Simulated => wave.rows::<true>(kernel),
        Metering::Off => wave.rows::<false>(kernel),
    }
}

/// Close every query's block and put its result in canonical order.
fn close<C: Collector, const M: bool>(states: Vec<QueryState<C, M>>) -> Vec<Found> {
    states.into_iter().map(|state| (state.collector.finish(), state.block.finish())).collect()
}

/// `opts` with the wave engine on.
fn waved(opts: &KernelOptions) -> KernelOptions {
    KernelOptions { wave: Some(WaveConfig), ..opts.clone() }
}

/// kNN over a batch through the buffer-wave engine: [`launch`](crate::launch)
/// with [`KernelOptions::wave`] set, also returning the [`WaveReport`].
/// Neighbors and outcomes are bit-identical to [`psb_batch`](crate::psb_batch)
/// (and the other exact kNN engines); counters reflect the amortized
/// node-centric schedule. Honors [`KernelOptions::schedule`] for seeding
/// order.
pub fn wave_knn_batch<V: Volumes>(
    tree: &FlatTree<V>,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> Result<(QueryBatchResult, WaveReport), EngineError> {
    let kernel = Kernel::Psb { k };
    launch_reporting(tree, queries, kernel, cfg, &waved(opts), &FaultPlan::none(), None)
}

/// Fixed-radius range queries over a batch through the buffer-wave engine.
/// Results are bit-identical to [`range_batch`](crate::range_batch): both
/// produce the exact in-range set in canonical `(dist, id)` order.
pub fn wave_range_batch<V: Volumes>(
    tree: &FlatTree<V>,
    queries: &PointSet,
    radius: f32,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> Result<(QueryBatchResult, WaveReport), EngineError> {
    let kernel = Kernel::Range { radius };
    launch_reporting(tree, queries, kernel, cfg, &waved(opts), &FaultPlan::none(), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_data::{sample_queries, ClusteredSpec};
    use psb_sstree::{build, BuildMethod, Spheres, SsTree};

    fn setup() -> (PointSet, SsTree, PointSet) {
        let ps =
            ClusteredSpec { clusters: 5, points_per_cluster: 300, dims: 8, sigma: 140.0, seed: 77 }
                .generate();
        let tree = build(&ps, 16, &BuildMethod::Hilbert);
        let queries = sample_queries(&ps, 48, 0.01, 78);
        (ps, tree, queries)
    }

    #[test]
    fn knn_matches_the_per_query_engine_bit_for_bit() {
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let per_query = crate::engine::psb_batch(&tree, &queries, 8, &cfg, &opts).unwrap();
        let (wave, wr) = wave_knn_batch(&tree, &queries, 8, &cfg, &opts).unwrap();
        assert_eq!(per_query.neighbors, wave.neighbors);
        assert_eq!(per_query.outcomes, wave.outcomes);
        assert!(wr.waves >= 2, "a multi-level tree needs at least two waves");
        assert!(wr.mean_fill() > 1.0, "48 queries must share sweeps");
    }

    #[test]
    fn range_matches_the_per_query_engine_bit_for_bit() {
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let per_query = crate::engine::range_batch(&tree, &queries, 220.0, &cfg, &opts).unwrap();
        let (wave, _) = wave_range_batch(&tree, &queries, 220.0, &cfg, &opts).unwrap();
        assert_eq!(per_query.neighbors, wave.neighbors);
    }

    #[test]
    fn merged_nodes_visited_counts_coalesced_sweeps() {
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let (wave, wr) = wave_knn_batch(&tree, &queries, 8, &cfg, &opts).unwrap();
        // Priming descends once per query (its node visits are per-query);
        // every wave sweep adds exactly one more.
        let primed: u64 = wave.per_block.iter().map(|s| s.nodes_visited).sum::<u64>();
        assert!(primed >= wr.coalesced_sweeps);
        let sweeps_share = primed - queries.len() as u64 * depth_visits(&tree);
        assert_eq!(sweeps_share, wr.coalesced_sweeps);
    }

    /// Nodes one priming descent visits: one per level plus the primed leaf.
    fn depth_visits(tree: &SsTree) -> u64 {
        let mut n = tree.root;
        let mut visits = 1u64;
        while !tree.is_leaf(n) {
            n = tree.children(n).start;
            visits += 1;
        }
        visits
    }

    #[test]
    fn wave_reads_fewer_bytes_than_the_per_query_engine() {
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let per_query = crate::engine::psb_batch(&tree, &queries, 8, &cfg, &opts).unwrap();
        let (wave, _) = wave_knn_batch(&tree, &queries, 8, &cfg, &opts).unwrap();
        assert!(
            wave.report.merged.global_transactions < per_query.report.merged.global_transactions,
            "wave {} transactions >= per-query {}",
            wave.report.merged.global_transactions,
            per_query.report.merged.global_transactions
        );
    }

    /// Entry `j`'s share of `total` split over `m` entries: `total/m`, with
    /// the first `total % m` entries carrying one unit of remainder each.
    fn share(total: u64, m: u64, j: u64) -> u64 {
        total / m + u64::from(j < total % m)
    }

    /// The metering contract, stated rather than derived: rebuild every
    /// node's buffer from the per-query logs (scheduled order at the root,
    /// ascending query index below it) and charge it sweep by sweep — rank
    /// `j` of `m` owes exactly [`share`]`(total, m, j)`, rank 0 carries the
    /// visit, leaf shares are streamed. Returns the bytes and transactions of
    /// one fetch per swept node.
    fn charge_sweep_by_sweep<V: Volumes, C>(
        wave: &Wave<'_, V>,
        states: &mut [QueryState<C, true>],
    ) -> (u64, u64) {
        let mut buffers: Vec<Vec<u32>> = vec![Vec::new(); wave.tree.num_nodes()];
        for (i, state) in states.iter().enumerate() {
            for &n in &state.visited {
                buffers[n as usize].push(i as u32);
            }
        }
        if let Some(order) = wave.order {
            buffers[wave.root as usize] = order.to_vec();
        }
        let mut fetched = (0, 0);
        for (n, buffer) in buffers.iter().enumerate().filter(|(_, buffer)| !buffer.is_empty()) {
            let (n, m) = (n as u32, buffer.len() as u64);
            let leaf = wave.tree.is_leaf(n);
            let layout = wave.opts.layout;
            let (bytes, tx) = node_fetch_cost(wave.tree, n, leaf, layout, &states[0].block);
            fetched = (fetched.0 + bytes, fetched.1 + tx);
            for (j, &i) in buffer.iter().enumerate() {
                let block = &mut states[i as usize].block;
                block.set_phase(sweep_phase(leaf));
                if j == 0 {
                    let kind = if leaf { NodeKind::Leaf } else { NodeKind::Internal };
                    block.visit_node(wave.levels[n as usize], kind);
                }
                block.load_global_share(share(bytes, m, j as u64), share(tx, m, j as u64), leaf);
            }
        }
        fetched
    }

    #[test]
    fn fetch_shares_are_the_node_major_split_and_conserve_every_fetch() {
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let root = checked_root(&tree).unwrap();
        let levels = node_levels(&tree, root).unwrap();
        for opts in [
            KernelOptions::default(),
            KernelOptions { schedule: crate::QuerySchedule::Hilbert, ..Default::default() },
            KernelOptions { layout: NodeLayout::Aos, ..Default::default() },
        ] {
            let order =
                crate::engine::schedule_order(&queries, opts.schedule, &mut Default::default());
            let (queries, opts, order) = (&queries, &opts, order.as_deref());
            let wave = Wave { tree: &tree, queries, cfg: &cfg, opts, order, root, levels: &levels };
            check_split(&wave, wave.prime_knn::<true>(8));
            check_split(&wave, wave.prime_range::<true>(220.0));
        }
    }

    fn check_split<C: Collector + Send>(
        wave: &Wave<'_, Spheres>,
        prime: impl Fn(&[f32], &mut Scratch) -> Primed<C, true> + Sync,
    ) {
        // The traversal is deterministic: three runs, three equal sets of
        // logs and uncharged ledgers.
        let [mut engine, mut oracle, bare] = [(); 3].map(|()| wave.traverse(&prime).unwrap());
        let wr = wave.charge_fetch_shares(&mut engine);
        let fetched = charge_sweep_by_sweep(wave, &mut oracle);
        let [engine, oracle, bare] = [engine, oracle, bare].map(close);
        assert_eq!(engine, oracle, "neighbors and per-query counters");

        // Conservation: what the shares add to the batch's ledger is one
        // fetch, and one visit, per swept node.
        let ledger = |rows: &[Found]| {
            let blocks: Vec<_> = rows.iter().map(|(_, stats)| *stats).collect();
            let stats = crate::engine::merge_stats(&blocks);
            (stats.global_bytes, stats.global_transactions, stats.nodes_visited)
        };
        let (with, without) = (ledger(&engine), ledger(&bare));
        assert_eq!((with.0 - without.0, with.1 - without.1), fetched);
        assert_eq!(with.2 - without.2, wr.coalesced_sweeps);
    }

    #[test]
    fn a_batch_past_a_thousand_queries_is_still_one_front_per_level() {
        let (ps, tree, _) = setup();
        let queries = sample_queries(&ps, 1100, 0.01, 79);
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let per_query = crate::engine::psb_batch(&tree, &queries, 8, &cfg, &opts).unwrap();
        let (wave, wr) = wave_knn_batch(&tree, &queries, 8, &cfg, &opts).unwrap();
        assert_eq!(per_query.neighbors, wave.neighbors);
        assert_eq!(per_query.outcomes, wave.outcomes);
        // Nothing bounds a buffer: the root's holds the whole batch, and no
        // level is swept twice.
        assert_eq!(wr.max_fill as usize, queries.len());
        assert!(u64::from(wr.waves) <= depth_visits(&tree));
    }

    #[test]
    fn empty_batch_is_a_typed_error() {
        let (_, tree, _) = setup();
        let cfg = DeviceConfig::k40();
        let empty = PointSet::new(tree.dims);
        assert!(matches!(
            wave_knn_batch(&tree, &empty, 4, &cfg, &KernelOptions::default()),
            Err(EngineError::EmptyBatch)
        ));
    }

    #[test]
    fn share_split_is_exact() {
        for total in [0u64, 1, 7, 128, 1000] {
            for m in 1u64..12 {
                let sum: u64 = (0..m).map(|j| share(total, m, j)).sum();
                assert_eq!(sum, total, "total {total} split over {m}");
            }
        }
    }
}
