//! The GPU kNN kernels: PSB, branch-and-bound, brute force, restart, range,
//! and the task-parallel strawman.
//!
//! All tree kernels take a [`FlatTree<V>`](FlatTree) for any `V: Volumes`, so
//! the identical traversal runs over bounding-sphere trees (SS-tree) and
//! bounding-rectangle trees (packed R-tree) — the node shape only changes the
//! per-child evaluation and its instruction cost, which is precisely the
//! comparison the paper's §II-C makes. Every kernel returns exact results plus the simulated block's
//! counters; shared helpers live here so all kernels are metered identically
//! wherever they do identical work.

pub mod bnb;
pub mod brute;
pub(crate) mod collector;
pub mod psb;
pub mod range;
pub mod restart;
pub mod stackfree;
pub mod tpss;

use std::cell::RefCell;

use psb_geom::{DistKernel, DistLanes, PointSet};
use psb_gpu::{Block, DeviceConfig, FaultState, KernelStats, NodeKind, Phase, TraceSink};
use psb_sstree::{FlatTree, Neighbor, Volumes};

pub(crate) use self::collector::Removed;
use self::collector::{Collector, KnnCollector, RangeCollector};
use crate::dist_cost;
use crate::error::KernelError;
use crate::index::{SweepScratch, NO_ROPE};
use crate::options::{KernelOptions, Metering, NodeLayout};

/// What one query returns: its exact neighbors and the block's counters.
pub(crate) type Found = (Vec<Neighbor>, KernelStats);

/// The kernels the batch runner ([`launch`](crate::launch)) and
/// [`QueryStream`](crate::QueryStream) dispatch over a [`FlatTree`]: one row
/// per kernel, each naming its telemetry label, its hardened attempt and the
/// exact scan it degrades to. (The stack-free kd kernel reads an `LbKdTree`
/// and the brute scan no index at all, so they launch through their own entry
/// points on the same runner. Both degrade to the kNN rows' exact scan, run
/// over their own point array.)
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kernel {
    /// PSB kNN (Algorithm 1).
    Psb { k: usize },
    /// Branch-and-bound kNN.
    Bnb { k: usize },
    /// Scan-and-restart kNN (no parent links).
    Restart { k: usize },
    /// Fixed-radius range query.
    Range { radius: f32 },
}

impl Kernel {
    /// The kernel's name in span paths and `engine.*{kernel=…}` metric keys.
    pub fn label(&self) -> &'static str {
        match self {
            Kernel::Psb { .. } => "psb",
            Kernel::Bnb { .. } => "bnb",
            Kernel::Restart { .. } => "restart",
            Kernel::Range { .. } => "range",
        }
    }

    /// One hardened launch of this kernel for query `q`, under `faults` if any:
    /// it bounds-checks every structural link it follows, runs under a
    /// traversal step budget, polls the device fault flags at each step, and
    /// reports failure as a typed [`KernelError`] instead of panicking or
    /// hanging. With `Some(sink)`, every metering call is mirrored into it
    /// (observation only: neighbors and counters are bit-identical with or
    /// without a sink); `None` is untraced.
    pub fn attempt<V: Volumes>(
        &self,
        tree: &FlatTree<V>,
        q: &[f32],
        cfg: &DeviceConfig,
        opts: &KernelOptions,
        faults: Option<FaultState>,
        sink: Option<&mut dyn TraceSink>,
    ) -> Result<Found, KernelError> {
        self.attempt_excluding(tree, q, Removed::NONE, cfg, opts, faults, sink)
    }

    /// [`attempt`](Self::attempt) with the rows of `removed` turned away
    /// before the k-best list admits them (a range query reads no marks).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn attempt_excluding<V: Volumes>(
        &self,
        tree: &FlatTree<V>,
        q: &[f32],
        removed: Removed<'_>,
        cfg: &DeviceConfig,
        opts: &KernelOptions,
        faults: Option<FaultState>,
        sink: Option<&mut dyn TraceSink>,
    ) -> Result<Found, KernelError> {
        assert_eq!(q.len(), tree.dims, "query dimensionality mismatch");
        self.check_parameter();
        let metering = effective_metering(opts, faults.is_some());
        let (f, s) = (faults, sink);
        // One launch-time dispatch monomorphizes the whole traversal for the
        // metering mode — no per-load branch anywhere in the hot loop.
        with_scratch(tree.dims, opts.lanes, |scratch| match metering {
            Metering::Simulated => self.run::<V, true>(tree, q, removed, cfg, opts, f, s, scratch),
            Metering::Off => self.run::<V, false>(tree, q, removed, cfg, opts, f, s, scratch),
        })
    }

    /// [`attempt`](Self::attempt) on a trusted tree — what the kernels'
    /// `*_query` entry points are: panics on a [`KernelError`], which a
    /// validated tree and a fault-free device can never produce.
    pub(crate) fn trusted<V: Volumes>(
        &self,
        tree: &FlatTree<V>,
        q: &[f32],
        cfg: &DeviceConfig,
        opts: &KernelOptions,
    ) -> Found {
        self.attempt(tree, q, cfg, opts, None, None)
            .unwrap_or_else(|e| panic!("{} kernel failed on a trusted tree: {e}", self.label()))
    }

    /// The launch-time precondition on the kernel's own parameter.
    pub(crate) fn check_parameter(&self) {
        match *self {
            Kernel::Range { radius } => assert!(radius >= 0.0, "radius must be non-negative"),
            Kernel::Psb { k } | Kernel::Bnb { k } | Kernel::Restart { k } => {
                assert!(k >= 1, "k must be at least 1")
            }
        }
    }

    /// What every table kernel does around its traversal: open the block on
    /// `sink`, attach the fault state, start the step budget — and, after the
    /// traversal, poll the device once more before closing the block.
    #[allow(clippy::too_many_arguments)]
    fn run<V: Volumes, const M: bool>(
        &self,
        tree: &FlatTree<V>,
        q: &[f32],
        removed: Removed<'_>,
        cfg: &DeviceConfig,
        opts: &KernelOptions,
        faults: Option<FaultState>,
        sink: Option<&mut dyn TraceSink>,
        s: &mut Scratch,
    ) -> Result<Found, KernelError> {
        let mut block = Block::<M>::with_sink(opts.threads_per_block, cfg, sink);
        block.set_faults(faults);
        let mut budget = Budget::for_nodes(tree.num_nodes(), tree.degree);
        let (b, t) = (&mut block, &mut budget);
        let found = match *self {
            Kernel::Psb { k } => psb::traverse(b, t, tree, q, k, removed, cfg, opts, s, true),
            Kernel::Bnb { k } => bnb::traverse(b, t, tree, q, k, removed, cfg, opts, s),
            Kernel::Restart { k } => restart::traverse(b, t, tree, q, k, removed, cfg, opts, s),
            Kernel::Range { radius } => range::traverse(b, t, tree, q, radius, cfg, opts, s),
        }?;
        // Final poll: a fault in the last leaf processed would otherwise slip
        // past the loop-head checks and reach the caller as a silent result.
        if let Some(fault) = block.device_fault() {
            return Err(fault.into());
        }
        Ok((found, block.finish()))
    }

    /// The last rung of the recovery ladder: an exact brute-force scan of the
    /// tree's flat point array that follows no link and cannot fail.
    pub fn fallback<V: Volumes>(
        &self,
        tree: &FlatTree<V>,
        q: &[f32],
        cfg: &DeviceConfig,
        opts: &KernelOptions,
    ) -> Found {
        self.scan(&tree.points, Some(&tree.point_ids), Removed::NONE, q, cfg, opts)
    }

    /// [`fallback`](Self::fallback) over any point array: row `i`'s id is
    /// `ids[i]`, or `i` itself when `ids` is `None` (the raw brute kernel's
    /// rows). A kNN scan turns the ids `removed` marks away.
    pub(crate) fn scan(
        &self,
        points: &PointSet,
        ids: Option<&[u32]>,
        removed: Removed<'_>,
        q: &[f32],
        cfg: &DeviceConfig,
        opts: &KernelOptions,
    ) -> Found {
        self.check_parameter();
        // No fault state here (the fallback never carries one), so the
        // metering option applies directly.
        match opts.metering {
            Metering::Simulated => self.scan_with::<true>(points, ids, removed, q, cfg, opts),
            Metering::Off => self.scan_with::<false>(points, ids, removed, q, cfg, opts),
        }
    }

    fn scan_with<const M: bool>(
        &self,
        points: &PointSet,
        ids: Option<&[u32]>,
        removed: Removed<'_>,
        q: &[f32],
        cfg: &DeviceConfig,
        opts: &KernelOptions,
    ) -> Found {
        match *self {
            Kernel::Psb { k } | Kernel::Bnb { k } | Kernel::Restart { k } => {
                brute::clamped_scan::<_, M>(points, ids, q, cfg, opts, |block| {
                    KnnCollector::excluding(block, k, removed, cfg, opts)
                })
            }
            Kernel::Range { radius } => {
                brute::clamped_scan::<_, M>(points, ids, q, cfg, opts, |_| {
                    RangeCollector::new(radius)
                })
            }
        }
    }
}

/// The metering mode a launch actually runs under: the option as requested,
/// except that fault injection forces [`Metering::Simulated`] — detection
/// (truncation latch, watchdog, ECC flag) lives inside the accounting an
/// unmetered block compiles out, so an unmetered faulted launch would never
/// notice its faults. Every kernel entry dispatches on this exactly once, and
/// [`resolve`](crate::engine::resolve) reports it for a whole launch.
pub(crate) fn effective_metering(opts: &KernelOptions, faulted: bool) -> Metering {
    if faulted {
        Metering::Simulated
    } else {
        opts.metering
    }
}

/// Traversal step budget: generous enough that no valid tree can come close
/// (branch-and-bound revisits each internal node at most `degree + 1` times),
/// tight enough that a corruption-induced cycle is cut off promptly.
pub(crate) fn step_budget(num_nodes: usize, degree: usize) -> u64 {
    16 * (num_nodes as u64 + 2) * (degree as u64 + 2) + 1024
}

/// The per-launch hardening ledger: a step counter against a budget, polled
/// together with the block's device fault flags at every traversal step.
pub(crate) struct Budget {
    steps: u64,
    limit: u64,
}

impl Budget {
    /// Budget for a traversal of `num_nodes` nodes of fan-out `degree`.
    pub(crate) fn for_nodes(num_nodes: usize, degree: usize) -> Self {
        Self { steps: 0, limit: step_budget(num_nodes, degree) }
    }

    /// One traversal step: count it, enforce the budget, poll device faults.
    pub(crate) fn tick<const M: bool>(&mut self, block: &Block<'_, M>) -> Result<(), KernelError> {
        self.steps += 1;
        if self.steps > self.limit {
            return Err(KernelError::StepBudgetExceeded { budget: self.limit });
        }
        if let Some(fault) = block.device_fault() {
            return Err(KernelError::Device(fault));
        }
        Ok(())
    }
}

/// Bounds-check a node id read from a structural link.
pub(crate) fn checked_node<V: Volumes>(
    tree: &FlatTree<V>,
    link: &'static str,
    from: u32,
    target: u32,
) -> Result<u32, KernelError> {
    if (target as usize) < tree.num_nodes() {
        Ok(target)
    } else {
        Err(KernelError::LinkOutOfBounds {
            link,
            node: from,
            target: target as u64,
            limit: tree.num_nodes() as u64,
        })
    }
}

/// Bounds-check an internal node's child range. The range must lie inside the
/// node array (checked first: a link past the array is a bad link whatever
/// count comes with it) and be non-empty.
pub(crate) fn checked_children<V: Volumes>(
    tree: &FlatTree<V>,
    n: u32,
) -> Result<std::ops::Range<u32>, KernelError> {
    if tree.is_leaf(n) {
        return Err(KernelError::CorruptNode { node: n, detail: "expected an internal node" });
    }
    let kids = tree.children(n);
    let limit = tree.num_nodes() as u64;
    if kids.start as u64 >= limit || kids.end as u64 > limit {
        return Err(KernelError::LinkOutOfBounds {
            link: "children",
            node: n,
            target: kids.end as u64,
            limit,
        });
    }
    if kids.is_empty() {
        return Err(KernelError::CorruptNode { node: n, detail: "internal node with no children" });
    }
    Ok(kids)
}

/// Bounds-check a leaf node's point range against the point array.
pub(crate) fn checked_leaf_points<V: Volumes>(
    tree: &FlatTree<V>,
    n: u32,
) -> Result<std::ops::Range<usize>, KernelError> {
    if !tree.is_leaf(n) {
        return Err(KernelError::CorruptNode { node: n, detail: "expected a leaf node" });
    }
    let range = tree.leaf_points(n);
    let limit = tree.points.len() as u64;
    if range.start as u64 > range.end as u64 || range.end as u64 > limit {
        return Err(KernelError::LinkOutOfBounds {
            link: "leaf_points",
            node: n,
            target: range.end as u64,
            limit,
        });
    }
    Ok(range)
}

/// Bounds-check a leaf's dense id against the leaf count.
pub(crate) fn checked_leaf_id<V: Volumes>(tree: &FlatTree<V>, n: u32) -> Result<u32, KernelError> {
    let lid = tree.leaf_id(n);
    if (lid as usize) < tree.num_leaves() {
        Ok(lid)
    } else {
        Err(KernelError::LinkOutOfBounds {
            link: "leaf_id",
            node: n,
            target: lid as u64,
            limit: tree.num_leaves() as u64,
        })
    }
}

/// Sanity-check the tree frame every traversal relies on before following any
/// link: a root inside the node array and a non-empty leaf chain.
pub(crate) fn checked_root<V: Volumes>(tree: &FlatTree<V>) -> Result<u32, KernelError> {
    if tree.num_nodes() == 0 || tree.num_leaves() == 0 {
        return Err(KernelError::CorruptNode { node: 0, detail: "index has no nodes or leaves" });
    }
    checked_node(tree, "root", tree.root, tree.root)
}

/// Meter fetching an internal node's child-volume block. `level` is the node's
/// tree depth (root = 0), feeding the per-level visit histogram; the load is
/// attributed to whatever [`Phase`] the block is currently in.
pub(crate) fn fetch_internal<V: Volumes, const M: bool>(
    block: &mut Block<'_, M>,
    tree: &FlatTree<V>,
    n: u32,
    layout: NodeLayout,
    level: u32,
) {
    block.visit_node(level, NodeKind::Internal);
    match layout {
        NodeLayout::Soa => block.load_global(tree.internal_node_bytes(n)),
        NodeLayout::Aos => {
            block.load_global_strided(tree.children(n).len() as u64, tree.child_entry_bytes());
        }
    }
}

/// Meter fetching a leaf node's point block. `sequential` marks arrivals via
/// the right-sibling link: leaves are laid out contiguously, so the scan is a
/// prefetchable stream (the paper's "fast linear scanning"). `level` is the
/// leaf's tree depth for the visit histogram.
pub(crate) fn fetch_leaf<V: Volumes, const M: bool>(
    block: &mut Block<'_, M>,
    tree: &FlatTree<V>,
    n: u32,
    layout: NodeLayout,
    sequential: bool,
    level: u32,
) {
    block.visit_node(level, NodeKind::Leaf);
    match layout {
        NodeLayout::Soa if sequential => block.load_global_stream(tree.leaf_node_bytes(n)),
        NodeLayout::Soa => block.load_global(tree.leaf_node_bytes(n)),
        NodeLayout::Aos => {
            block.load_global_strided(tree.leaf_points(n).len() as u64, tree.point_entry_bytes());
        }
    }
}

/// Scratch buffers reused across node visits so the simulation does not
/// allocate in its hot loop: the per-query resolved distance kernel, the
/// child-sweep buffers (whose `tmp` is also the leaf's and the scan tile's
/// distance buffer), and the k-th-select temporary. Pooled per host thread
/// (see [`with_scratch`]) so the rayon batch loop reuses capacity across
/// queries too.
#[derive(Default)]
pub(crate) struct Scratch {
    pub dk: DistKernel,
    pub sweep: SweepScratch,
    pub kth: Vec<u32>,
    /// PSB's sweep-replay arena (see [`SweepMemo`]). Only fault-free PSB
    /// launches touch it, and its capacity persists across the whole batch.
    pub memo: SweepMemo,
    /// The initial descent's frontier (see [`psb::initial_descent`]).
    pub frontier: Vec<psb::Open>,
    /// The wave engine: one query's current and next wave front, and the log
    /// of nodes it was buffered at. They live here so a worker grows them once
    /// per region instead of once per query.
    pub front: Vec<(u32, f32)>,
    pub next_front: Vec<(u32, f32)>,
    pub visited: Vec<u32>,
}

impl Scratch {
    /// Prepare for a query in `dims` dimensions: re-resolve the distance
    /// kernel only when the dimensionality or lane selection changes, empty
    /// every buffer. Resolution therefore happens once per (worker thread ×
    /// batch), not per query.
    fn reset_for(&mut self, dims: usize, lanes: DistLanes) {
        if self.dk.dims() != dims || self.dk.lanes() != lanes {
            self.dk = DistKernel::for_dims_lanes(dims, lanes);
        }
        self.sweep.clear();
        self.kth.clear();
    }
}

/// A [`SweepMemo`] slot's payload, returned by value so the caller holds no
/// borrow while it meters the replayed work.
#[derive(Clone, Copy, Default)]
pub(crate) struct MemoEntry {
    start: u32,
    len: u32,
    /// What the first visit's [`Collector::tighten`] returned: `None` when it
    /// had no bound to offer (`use_minmax_prune` off or fewer than k
    /// children), else the value to [`replay`](Collector::replay) — the k-th
    /// MAXDIST, or +inf where that select could not have tightened the bound.
    pub bound: Option<f32>,
    /// The child index the last scan of this node chose: the next scan starts
    /// there, since every child before it was turned away for good.
    pub resume: u32,
}

/// Per-query memo of PSB's phase-2 internal-node sweep values
/// (DESIGN.md "Sweep memo"). Nothing in it outlives a query, so it is
/// independent of execution order and on for every fault-free PSB launch.
///
/// PSB's stackless sweep re-descends through the same internal nodes after
/// every backtrack — on poorly-pruning workloads (high-dimensional uniform
/// data) each internal node is re-swept tens of times per query, recomputing
/// the *identical* child MINDISTs and k-th-MAXDIST bound each time (they
/// depend only on the node and the query). The memo stores the first visit's
/// values; revisits replay the same deterministic metering
/// (`par_for(children, cost)` + `par_kth_select`) and reuse the stored bits,
/// so counters and results are bit-identical to the memo-less path (the one
/// faulted attempts take; pinned in `kernels::psb`) while the host skips the
/// distance sweep and the selection. Each slot also keeps the node's resume
/// point, so a revisit's [`leftmost_qualifying`] scan starts at the child the
/// last scan chose instead of at child 0.
///
/// Slots are epoch-stamped: `begin_query` bumps the epoch instead of clearing
/// the per-node slot array, so a batch of B queries over an N-node tree pays
/// one O(N) allocation for the whole batch, not B clears.
#[derive(Default)]
pub(crate) struct SweepMemo {
    epoch: u64,
    slots: Vec<(u64, MemoEntry)>,
    blob: Vec<f32>,
}

impl SweepMemo {
    /// Start a new query: invalidate every slot (epoch bump) and reset the
    /// value blob, keeping all capacity.
    pub(crate) fn begin_query(&mut self, num_nodes: usize) {
        self.epoch += 1;
        self.blob.clear();
        if self.slots.len() < num_nodes {
            self.slots.resize(num_nodes, (0, MemoEntry::default()));
        }
    }

    /// This query's memo for node `n`, if stored. Copy-out, so no borrow
    /// outlives the call.
    pub(crate) fn entry(&self, n: u32) -> Option<MemoEntry> {
        match self.slots.get(n as usize) {
            Some(&(epoch, entry)) if epoch == self.epoch => Some(entry),
            _ => None,
        }
    }

    /// The stored child MINDISTs behind an [`entry`](Self::entry).
    pub(crate) fn values(&self, entry: MemoEntry) -> &[f32] {
        &self.blob[entry.start as usize..(entry.start + entry.len) as usize]
    }

    /// Store node `n`'s sweep values for the current query.
    pub(crate) fn store(&mut self, n: u32, min_d: &[f32], bound: Option<f32>) {
        let start = self.blob.len() as u32;
        self.blob.extend_from_slice(min_d);
        if let Some(slot) = self.slots.get_mut(n as usize) {
            *slot = (self.epoch, MemoEntry { start, len: min_d.len() as u32, bound, resume: 0 });
        }
    }

    /// Record that the scan of stored node `n` chose child index `resume`.
    pub(crate) fn resume_at(&mut self, n: u32, resume: u32) {
        if let Some(slot) = self.slots.get_mut(n as usize) {
            slot.1.resume = resume;
        }
    }
}

/// The sweep's leftmost-qualifying-child selection (Algorithm 1 lines 16–26),
/// shared by the first-visit sweep, the memo-replay path and the restart
/// kernel's re-descents so all meter identically: one parallel predicate
/// evaluation, a ballot/find-first-set reduction, and the serial pick of the
/// first child the collector still admits whose subtree holds unvisited leaves.
///
/// The host looks at children `from..` only. A caller passes a `from` above 0
/// when it knows every child before it is turned away for good (PSB's resume
/// point); the metering is over all of `kids` whatever `from` is.
pub(crate) fn leftmost_qualifying<V: Volumes, C: Collector, const M: bool>(
    block: &mut Block<'_, M>,
    tree: &FlatTree<V>,
    kids: std::ops::Range<u32>,
    from: u32,
    min_d: &[f32],
    collector: &C,
    visited: i64,
) -> Option<u32> {
    block.par_for(kids.len(), 1, |_| {});
    block.par_reduce(kids.len(), 1);
    block.scalar(2);
    for (i, c) in kids.enumerate().skip(from as usize) {
        if collector.admits(min_d[i]) && tree.subtree_max_leaf(c) as i64 > visited {
            return Some(c);
        }
    }
    None
}

/// One step up a parent link from `n` at `level`: the backtrack PSB and the
/// stacked range sweep take when a subtree is exhausted. Returns the parent
/// and its level.
pub(crate) fn ascend<V: Volumes, const M: bool>(
    block: &mut Block<'_, M>,
    tree: &FlatTree<V>,
    n: u32,
    level: u32,
) -> Result<(u32, u32), KernelError> {
    block.set_phase(Phase::Backtrack);
    block.backtrack(level);
    block.scalar(1); // follow the parent link
    let parent = checked_node(tree, "parent", n, tree.parent(n))?;
    let level = level.checked_sub(1).ok_or(KernelError::CorruptNode {
        node: parent,
        detail: "parent chain deeper than the descent that reached it",
    })?;
    Ok((parent, level))
}

/// Reserve a kernel's static shared memory (its per-child distance arrays,
/// its staged tile), or fail the launch with a typed error.
pub(crate) fn reserve_static<const M: bool>(
    block: &mut Block<'_, M>,
    bytes: u64,
    cfg: &DeviceConfig,
) -> Result<(), KernelError> {
    block
        .reserve_shared(bytes, cfg.smem_per_sm)
        .map_err(|needed| KernelError::SmemOverflow { needed, limit: cfg.smem_per_sm })
}

thread_local! {
    /// One pooled [`Scratch`] per host thread: rayon gives each worker its own
    /// copy, so the whole batch loop allocates scratch capacity only once per
    /// thread (not per query, and certainly not per node).
    static SCRATCH_POOL: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Run `f` with this thread's pooled scratch, reset for `dims` and the
/// batch's lane selection. Falls back to a fresh scratch if the pool is
/// unexpectedly still borrowed (e.g. a kernel re-entered through a recovery
/// path) — correctness never depends on reuse.
pub(crate) fn with_scratch<R>(
    dims: usize,
    lanes: DistLanes,
    f: impl FnOnce(&mut Scratch) -> R,
) -> R {
    SCRATCH_POOL.with(|pool| match pool.try_borrow_mut() {
        Ok(mut scratch) => {
            scratch.reset_for(dims, lanes);
            f(&mut scratch)
        }
        Err(_) => {
            let mut scratch = Scratch::default();
            scratch.reset_for(dims, lanes);
            f(&mut scratch)
        }
    })
}

/// Fetch a leaf, compute all point distances in parallel, and hand the rows
/// to the collector. Returns true when the collector took something (PSB's
/// continue-scanning test: the k-best list changed, or the range produced
/// hits). `sequential` marks sibling-scan arrivals.
///
/// Hardening: the leaf's point range is bounds-checked before it is scanned,
/// and every computed distance passes through the block's fault injector (a
/// no-op without an attached fault state).
///
/// Phase choreography: the fetch and the distance sweep run under
/// [`Phase::LeafScan`]; collecting runs under [`Phase::ResultMerge`], which is
/// left set on return — callers re-set their phase at the next branch they
/// take.
#[allow(clippy::too_many_arguments)]
pub(crate) fn process_leaf<V: Volumes, C: Collector, const M: bool>(
    block: &mut Block<'_, M>,
    tree: &FlatTree<V>,
    n: u32,
    q: &[f32],
    collector: &mut C,
    scratch: &mut Scratch,
    opts: &KernelOptions,
    sequential: bool,
    level: u32,
) -> Result<bool, KernelError> {
    let range = checked_leaf_points(tree, n)?;
    block.set_phase(Phase::LeafScan);
    fetch_leaf(block, tree, n, opts.layout, sequential, level);
    // Metering is a function of (len, cost) only; the distances themselves
    // come from the index's leaf rows, which stream the packed arena block
    // when one is attached and gather otherwise. Counters and values are
    // identical either way.
    block.par_for(range.len(), dist_cost(tree.dims), |_| {});
    let dists = &mut scratch.sweep.tmp;
    dists.clear();
    let ids = tree.leaf_rows(n, q, &scratch.dk, dists);
    // Computed distances pass through the fault injector, in row order.
    // Without an attached fault state `fault_f32` is the identity and meters
    // nothing, so the pass is skipped wholesale on the fault-free path.
    if block.has_faults() {
        for d in dists.iter_mut() {
            *d = block.fault_f32(*d);
        }
    }
    block.set_phase(Phase::ResultMerge);
    Ok(collector.collect(block, dists, ids))
}

/// Compute MINDIST (and optionally MAXDIST and the anchor distance) for every
/// child of internal node `n` into the sweep buffers, metered as one
/// data-parallel sweep whose per-item cost comes from the index's node shape.
///
/// `with_anchor` asks the sweep for the representative-point distances the
/// descent uses as its tie-break — packed-arena sweeps derive them from the
/// same center distance as the bounds, so requesting them up front is free
/// where computing them per-child later would gather again.
pub(crate) fn child_distances<V: Volumes, const M: bool>(
    block: &mut Block<'_, M>,
    tree: &FlatTree<V>,
    n: u32,
    q: &[f32],
    with_max: bool,
    with_anchor: bool,
    scratch: &mut Scratch,
) {
    let cnt = tree.children(n).len();
    scratch.sweep.clear();
    let cost = tree.child_eval_cost(with_max);
    // Metering depends only on (cnt, cost); values come from the index sweep
    // (packed arena stream, or the same per-child gather as the historical
    // loop body).
    block.par_for(cnt, cost, |_| {});
    tree.child_sweep(n, q, &scratch.dk, with_max, with_anchor, &mut scratch.sweep);
    // Loaded child volumes pass through the fault injector: a flipped bound
    // is how an ECC event on the node payload reaches the pruning decisions.
    // Skipped wholesale when no fault state is attached (identity, no meter).
    if block.has_faults() {
        for v in &mut scratch.sweep.min_d {
            *v = block.fault_f32(*v);
        }
        for v in &mut scratch.sweep.max_d {
            *v = block.fault_f32(*v);
        }
    }
}

/// An internal node's first-visit evaluation: sweep the children (MAXDISTs too
/// when the collector tightens on them) into the scratch buffers, then let the
/// collector tighten its bound. Returns the bound it tightened to, if any.
pub(crate) fn evaluate_children<V: Volumes, C: Collector, const M: bool>(
    block: &mut Block<'_, M>,
    tree: &FlatTree<V>,
    n: u32,
    q: &[f32],
    collector: &mut C,
    scratch: &mut Scratch,
) -> Option<f32> {
    child_distances(block, tree, n, q, collector.wants_maxdist(), false, scratch);
    collector.tighten(block, &scratch.sweep.max_d, &mut scratch.kth)
}

/// Follow node `n`'s rope (escape) link, metered as one pointer-sized load
/// plus the branch. Returns [`NO_ROPE`] at the end of
/// the preorder sweep; any other target is bounds-checked like every
/// structural link.
fn checked_rope<V: Volumes, const M: bool>(
    block: &mut Block<'_, M>,
    tree: &FlatTree<V>,
    n: u32,
) -> Result<u32, KernelError> {
    block.scalar(1);
    block.load_global(4);
    let r = tree.rope(n);
    if r == NO_ROPE {
        Ok(NO_ROPE)
    } else {
        checked_node(tree, "rope", n, r)
    }
}

/// Evaluate one node's **own** bounding volume against the query — the
/// node-centric arrival test of the rope traversals, where each node fetches
/// its own entry instead of the parent sweeping all children at once. Metered
/// as a one-item sweep at the index's node-shape cost; the bound passes
/// through the fault injector exactly like the batched sweep's.
fn node_min_dist<V: Volumes, const M: bool>(
    block: &mut Block<'_, M>,
    tree: &FlatTree<V>,
    n: u32,
    q: &[f32],
) -> f32 {
    block.load_global(tree.child_entry_bytes());
    block.par_for(1, tree.child_eval_cost(false), |_| {});
    let mut d = tree.child_min_max(n, q, false).0;
    if block.has_faults() {
        d = block.fault_f32(d);
    }
    d
}

/// The rope traversal (DESIGN.md "Stack-free kd kernel and rope modes"): one
/// preorder pass with **no** per-level state — no level counter, no parent
/// backtracking, no re-descent from the root, no `visitedLeafId` cursor. Every
/// arriving node evaluates its own volume; qualifying internal nodes fall
/// through to their first child, everything else follows the escape link
/// until it runs off the rightmost spine. Exactness: a subtree is skipped only
/// when the collector no longer admits its MINDIST — a bound that never grows
/// — so the node set *entered* is exactly the stacked sweep's (a node is
/// entered iff its volume qualifies and its ancestors' do; `tests/ropes.rs`
/// pins the equivalence) and the same leaves produce the same rows. A leaf a
/// priming descent already scanned is revisited once, which is harmless: the
/// k-best list rejects exact duplicates.
pub(crate) fn rope_walk<V: Volumes, C: Collector, const M: bool>(
    block: &mut Block<'_, M>,
    budget: &mut Budget,
    tree: &FlatTree<V>,
    q: &[f32],
    collector: &mut C,
    opts: &KernelOptions,
    scratch: &mut Scratch,
) -> Result<(), KernelError> {
    let mut n = checked_root(tree)?;
    loop {
        budget.tick(block)?;
        block.set_phase(Phase::Descend);
        // The root carries no volume worth testing (it always qualifies);
        // every other arrival fetches and evaluates its own entry.
        let qualifies = n == tree.root || collector.admits(node_min_dist(block, tree, n, q));
        let next = if !qualifies {
            block.set_phase(Phase::Backtrack);
            checked_rope(block, tree, n)?
        } else if tree.is_leaf(n) {
            process_leaf(block, tree, n, q, collector, scratch, opts, false, tree.node_depth(n))?;
            block.set_phase(Phase::Backtrack);
            checked_rope(block, tree, n)?
        } else {
            block.visit_node(tree.node_depth(n), NodeKind::Internal);
            checked_children(tree, n)?.start
        };
        if next == NO_ROPE {
            return Ok(());
        }
        n = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::psb::psb_query;
    use psb_data::{sample_queries, ClusteredSpec};
    use psb_sstree::{build, BuildMethod, Neighbor};

    fn bits(r: &(Vec<Neighbor>, psb_gpu::KernelStats)) -> (Vec<(u32, u32)>, psb_gpu::KernelStats) {
        (r.0.iter().map(|n| (n.id, n.dist.to_bits())).collect(), r.1)
    }

    /// A kernel launched while this thread's pooled scratch is already lent
    /// out (a recovery rung or a cascading wave flush re-entering
    /// `with_scratch`) runs on a fresh scratch instead. Neighbours and
    /// counters must not notice — although PSB's replay arena lives in the
    /// scratch it did not get.
    #[test]
    fn a_kernel_launched_inside_with_scratch_takes_the_fallback_bit_identically() {
        let ps =
            ClusteredSpec { clusters: 6, points_per_cluster: 350, dims: 8, sigma: 150.0, seed: 11 }
                .generate();
        let tree = build(&ps, 16, &BuildMethod::Hilbert);
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        for q in sample_queries(&ps, 12, 0.01, 3).iter() {
            let pooled = psb_query(&tree, q, 8, &cfg, &opts);
            let nested = with_scratch(tree.dims, opts.lanes, |held| {
                // Dirty the lent-out scratch: the nested launch must not see it.
                held.sweep.tmp.push(f32::NAN);
                assert!(
                    SCRATCH_POOL.with(|pool| pool.try_borrow_mut().is_err()),
                    "the pool must be borrowed here, or this test exercises nothing"
                );
                psb_query(&tree, q, 8, &cfg, &opts)
            });
            assert_eq!(bits(&nested), bits(&pooled));
        }
        assert!(SCRATCH_POOL.with(|pool| pool.try_borrow_mut().is_ok()), "pool returned");
    }
}
