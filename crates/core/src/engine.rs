//! Batched query execution: one launch path, one simulated thread block per
//! query, host-parallel.
//!
//! The paper's experiments submit 240 queries per batch (§V-B). Every batch
//! entry point is [`launch`] (or its stack-free / brute-force form) over one
//! runner: [`resolve`] decides the effective engine, schedule and metering —
//! the only place the rules that override an option live; the runner
//! *executes* the batch (the buffer-wave traversal of `wave.rs`, or the
//! per-query recovery ladder) on the host's threads, collecting per-block
//! counters by submission index so every output is bit-identical at any
//! thread count (`tests/threads.rs`); the device cost model *aggregates* them
//! into the figures' metrics.
//!
//! The ladder: attempt 0 under the query's own deterministic fault substream,
//! one retry on a typed [`KernelError`], then an exact brute-force scan that
//! follows no structural links. That last rung is one scan for every kernel —
//! the table's, the stack-free kd kernel's over an `LbKdTree` and the brute
//! kernel's own — reading a point array and each row's id in tiles clamped to
//! fit shared memory, so it cannot fail. Results are exact under every rung;
//! the rung taken is recorded in [`QueryBatchResult::outcomes`].

use psb_geom::PointSet;
use psb_gpu::{
    launch_blocks, DeviceConfig, FaultPlan, FaultState, KernelStats, LaunchReport, TraceSink,
    VecSink,
};
use psb_kdtree::LbKdTree;
use psb_sstree::{FlatTree, Neighbor, Volumes};
use rayon::prelude::*;

use crate::error::{EngineError, KernelError, QueryOutcome};
use crate::kernels::brute::brute_try_query;
use crate::kernels::stackfree::stackfree_try_query;
use crate::kernels::{effective_metering, Found, Kernel};
use crate::options::{KernelOptions, Metering};
use crate::schedule::{hilbert_permutation, QuerySchedule, ScheduleScratch};
use crate::wave::{wave_rows, WaveConfig, WaveReport};

/// Merge per-block counters into one (sums; peak shared memory is a max).
pub fn merge_stats(blocks: &[KernelStats]) -> KernelStats {
    let mut m = KernelStats::default();
    for b in blocks {
        m.merge(b);
    }
    m
}

/// Exact results plus the aggregated device-model report for a query batch.
#[derive(Clone, Debug)]
pub struct QueryBatchResult {
    /// Per-query neighbor lists, in query order.
    pub neighbors: Vec<Vec<Neighbor>>,
    /// Per-query (per-block) raw counters, in query order: the counters of the
    /// attempt that produced the result (failed attempts' partial counters
    /// are discarded — they model work a real device would have thrown away
    /// with the faulted launch).
    pub per_block: Vec<KernelStats>,
    /// Which recovery rung produced each query's result, in query order.
    /// All-[`QueryOutcome::Clean`] on a valid tree with no fault plan.
    pub outcomes: Vec<QueryOutcome>,
    /// Aggregated metrics under the cost model.
    pub report: LaunchReport,
}

/// The execution order a schedule yields — all a schedule ever decides:
/// `None` is submission order, `Some(perm)` executes `perm[j]` as the `j`-th
/// query. The permutation is drawn from `scratch`.
pub(crate) fn schedule_order(
    queries: &PointSet,
    schedule: QuerySchedule,
    scratch: &mut ScheduleScratch,
) -> Option<Vec<u32>> {
    match schedule {
        QuerySchedule::Submission => None,
        QuerySchedule::Hilbert => Some(hilbert_permutation(queries, scratch)),
    }
}

/// Per-batch telemetry: wall-clock latency histogram,
/// batch/query counters, and the launch report's simulated figures, all keyed
/// by the kernel `label`. `started` is `Some` only when a registry is attached
/// (the no-op path reads no clock).
fn record_batch(
    opts: &KernelOptions,
    label: &str,
    started: Option<std::time::Instant>,
    report: &LaunchReport,
) {
    let m = &opts.metrics;
    if let Some(t0) = started {
        let tag = format!("{{kernel=\"{label}\"}}");
        m.observe(&format!("engine.batch_us{tag}"), t0.elapsed().as_secs_f64() * 1e6);
        m.counter(&format!("engine.batches{tag}"), 1);
        m.counter(&format!("engine.queries{tag}"), report.merged.blocks);
    }
    report.record_into(m, label);
}

/// A rule of the launch path that overrode what the options asked for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Override {
    /// A real fault plan climbs the per-query ladder: the wave engine serves
    /// the fault-free path only.
    WaveDroppedUnderFaults,
    /// The wave engine records no event stream.
    WaveDroppedWhenTraced,
    /// The kernel is outside the [`Kernel`] table (stack-free kd, brute
    /// force): no node blocks whose fetch a wave could amortize.
    WaveDroppedNoNodeBlocks,
    /// Recording runs execute in submission order, so the event stream stays
    /// grouped per query.
    ScheduleDroppedWhenTraced,
    /// [`Metering::Off`] was asked for, but fault detection lives inside the
    /// accounting.
    MeteringForcedByFaults,
    /// A replayed sweep would skip the per-load RNG draws a faulted PSB
    /// attempt must make. The memo has no option, so no spelling of the
    /// options avoids this rule.
    MemoOffUnderFaults,
}

/// What a launch actually runs, as decided by [`resolve`].
#[derive(Clone, Debug, PartialEq)]
pub struct Resolved {
    /// The engine planned: the buffer-wave traversal, or (`None`) the
    /// per-query ladder. A plan, not a record — on a structurally corrupt tree
    /// the wave step fails and the ladder answers (`wave.fell_through`).
    pub wave: Option<WaveConfig>,
    /// Where the execution order comes from.
    pub schedule: QuerySchedule,
    /// The mode every kernel attempt (and the wave engine) runs under. The
    /// ladder's brute-force rung carries no fault state and keeps the mode
    /// the options asked for.
    pub metering: Metering,
    /// Whether PSB's per-query sweep memo is planned (the other kernels and
    /// the wave engine have none). The ladder a failed wave step falls
    /// through to is a fault-free PSB launch like any other: it uses the memo.
    pub memo: bool,
    /// Every rule that fired, in the order of the fields above.
    pub overrides: Vec<Override>,
}

/// Decide what a launch runs: the options as asked, except where a rule of the
/// launch path overrides them. `kernel` is `None` for the two kernels outside
/// the table; `traced` says a trace sink is attached.
pub fn resolve(
    opts: &KernelOptions,
    kernel: Option<Kernel>,
    plan: &FaultPlan,
    traced: bool,
) -> Resolved {
    let faulted = !plan.is_noop();
    let mut overrides = Vec::new();
    let mut wave = opts.wave;
    if wave.is_some() {
        for (fired, rule) in [
            (kernel.is_none(), Override::WaveDroppedNoNodeBlocks),
            (faulted, Override::WaveDroppedUnderFaults),
            (traced, Override::WaveDroppedWhenTraced),
        ] {
            if fired {
                wave = None;
                overrides.push(rule);
            }
        }
    }
    let mut schedule = opts.schedule;
    if traced && schedule != QuerySchedule::Submission {
        schedule = QuerySchedule::Submission;
        overrides.push(Override::ScheduleDroppedWhenTraced);
    }
    let metering = effective_metering(opts, faulted);
    if metering != opts.metering {
        overrides.push(Override::MeteringForcedByFaults);
    }
    let psb = matches!(kernel, Some(Kernel::Psb { .. }));
    if psb && faulted {
        overrides.push(Override::MemoOffUnderFaults);
    }
    Resolved { wave, schedule, metering, memo: psb && !faulted && wave.is_none(), overrides }
}

/// One query's result and the ladder rung that produced it.
type Row = (Vec<Neighbor>, KernelStats, QueryOutcome);

/// The wave engine's execute step, when the launch resolved to it.
type WaveStep<'a> = &'a dyn Fn() -> Result<(Vec<Found>, WaveReport), KernelError>;

/// The one batch runner. *Execute*: `wave` if given — it fails only on a
/// structurally corrupt tree, and then the batch falls through, counted in
/// `wave.fell_through` — otherwise the ladder per query: attempt 0 under
/// `plan.state_for(i, 0)`, one retry under the fresh substream
/// `plan.state_for(i, 1)` (a driver re-launching the failed block; transient
/// upsets usually miss the second run), then `fallback`, which carries no
/// fault state and follows no link, so it cannot fail. Queries run on the
/// rayon pool in `order` and are un-permuted, so the aggregation never sees
/// the schedule; with a `sink` they run sequentially in submission order.
/// Then *aggregate* and record, under `"wave"` if the wave engine produced the
/// rows and under `label` (the kernel's) if the ladder did; the spans are
/// entered before either runs and carry the plan's name.
#[allow(clippy::too_many_arguments)]
fn run_batch(
    queries: &PointSet,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    label: &str,
    plan: &FaultPlan,
    order: Option<&[u32]>,
    sink: Option<&mut dyn TraceSink>,
    wave: Option<WaveStep<'_>>,
    attempt: impl Fn(&[f32], Option<FaultState>, Option<&mut dyn TraceSink>) -> Result<Found, KernelError>
        + Sync,
    fallback: impl Fn(&[f32]) -> Found + Sync,
) -> Result<(QueryBatchResult, WaveReport), EngineError> {
    if queries.is_empty() {
        return Err(EngineError::EmptyBatch);
    }
    let m = &opts.metrics;
    let started = m.is_attached().then(std::time::Instant::now);
    let _batch_span = m.span("engine");
    let _kernel_span = m.span(if wave.is_some() { "wave" } else { label });
    let n = queries.len();
    // Fault substreams are keyed by *submission* index, so the ladder a query
    // climbs is independent of where the schedule places it.
    let ladder = |i: usize, mut sink: Option<&mut dyn TraceSink>| -> Row {
        let q = queries.point(i);
        let mut launch = |attempt_no: u32| {
            let faults = (!plan.is_noop()).then(|| plan.state_for(i as u64, attempt_no));
            match sink.as_deref_mut() {
                None => attempt(q, faults, None),
                // A failed attempt's partial counters are discarded with the
                // launch, and so are its events: the sink sees exactly the
                // attempts `per_block` keeps.
                Some(sink) => {
                    let mut events = VecSink::new();
                    let found = attempt(q, faults, Some(&mut events))?;
                    events.events.into_iter().for_each(|e| sink.record(e));
                    Ok(found)
                }
            }
        };
        match launch(0) {
            Ok((nb, st)) => (nb, st, QueryOutcome::Clean),
            Err(first) => match launch(1) {
                Ok((nb, st)) => (nb, st, QueryOutcome::Retried { first }),
                Err(retry) => {
                    let (nb, st) = fallback(q);
                    (nb, st, QueryOutcome::Degraded { first, retry })
                }
            },
        }
    };
    debug_assert!(sink.is_none() || order.is_none(), "resolve drops the schedule when traced");
    let (rows, waved): (Vec<Row>, _) = m.time("execute", || {
        match wave.map(|run| run()) {
            Some(Ok((found, report))) => {
                let clean = |(nb, st)| (nb, st, QueryOutcome::Clean);
                return (found.into_iter().map(clean).collect(), Some(report));
            }
            Some(Err(_)) => m.counter("wave.fell_through", 1),
            None => {}
        }
        let rows = match (sink, order) {
            (Some(sink), _) => (0..n).map(|i| ladder(i, Some(&mut *sink))).collect(),
            (None, None) => (0..n).into_par_iter().map(|i| ladder(i, None)).collect(),
            (None, Some(perm)) => perm.par_iter().map(|&i| ladder(i as usize, None)).collect(),
        };
        (rows, None)
    });
    // The wave engine returns its rows by submission index, the ladder in
    // execution order: row `j` of a scheduled ladder belongs to `order[j]`.
    let placed = if waved.is_some() { None } else { order };
    let mut neighbors = vec![Vec::new(); n];
    let mut per_block = vec![KernelStats::default(); n];
    let mut outcomes = vec![QueryOutcome::Clean; n];
    for (j, (nb, st, outcome)) in rows.into_iter().enumerate() {
        // `order` is a permutation, so every slot is written exactly once.
        let i = placed.map_or(j, |perm| perm[j] as usize);
        (neighbors[i], per_block[i], outcomes[i]) = (nb, st, outcome);
    }
    let warps = opts.threads_per_block.div_ceil(cfg.warp_size);
    let mut report = m.time("aggregate", || launch_blocks(cfg, warps, &per_block));
    let count =
        |rung: fn(&QueryOutcome) -> bool| outcomes.iter().filter(|o| rung(o)).count() as u64;
    report.retried_queries = count(|o| matches!(o, QueryOutcome::Retried { .. }));
    report.degraded_queries = count(|o| matches!(o, QueryOutcome::Degraded { .. }));
    record_batch(opts, if waved.is_some() { "wave" } else { label }, started, &report);
    if let Some(wave_report) = &waved {
        wave_report.record_into(m);
    }
    Ok((QueryBatchResult { neighbors, per_block, outcomes, report }, waved.unwrap_or_default()))
}

/// [`launch`] with the resolution and the order handed in (the streaming
/// chunker schedules out of its own arena), also returning what the wave
/// engine did (all-zero when it did not run).
#[allow(clippy::too_many_arguments)]
pub(crate) fn launch_resolved<V: Volumes>(
    tree: &FlatTree<V>,
    queries: &PointSet,
    kernel: Kernel,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    plan: &FaultPlan,
    sink: Option<&mut dyn TraceSink>,
    resolved: &Resolved,
    order: Option<&[u32]>,
) -> Result<(QueryBatchResult, WaveReport), EngineError> {
    let wave = resolved
        .wave
        .map(|_| move || wave_rows(tree, queries, kernel, cfg, opts, resolved.metering, order));
    run_batch(
        queries,
        cfg,
        opts,
        kernel.label(),
        plan,
        order,
        sink,
        wave.as_ref().map(|run| run as WaveStep<'_>),
        |q, faults, sink| kernel.attempt(tree, q, cfg, opts, faults, sink),
        |q| kernel.fallback(tree, q, cfg, opts),
    )
}

/// [`launch`], also returning what the wave engine did.
pub(crate) fn launch_reporting<V: Volumes>(
    tree: &FlatTree<V>,
    queries: &PointSet,
    kernel: Kernel,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    plan: &FaultPlan,
    sink: Option<&mut dyn TraceSink>,
) -> Result<(QueryBatchResult, WaveReport), EngineError> {
    let resolved = resolve(opts, Some(kernel), plan, sink.is_some());
    let order = schedule_order(queries, resolved.schedule, &mut ScheduleScratch::default());
    launch_resolved(tree, queries, kernel, cfg, opts, plan, sink, &resolved, order.as_deref())
}

/// Run `kernel` over a batch of queries — the full form of every batch entry
/// point. `plan` injects seeded device faults, which the recovery ladder turns
/// into exact results with typed [`outcomes`](QueryBatchResult::outcomes);
/// [`FaultPlan::none`] is the plain batch. `sink` receives every metering
/// call of the attempts `per_block` keeps, query by query, and changes no
/// result or counter. [`resolve`] says how the options compose with the two.
///
/// [`QuerySchedule::Hilbert`] changes the execution order only: every
/// per-query output is un-permuted (`tests/schedule_parity.rs`). Under
/// [`KernelOptions::wave`] neighbors and outcomes are bit-identical and the
/// counters reflect the amortized coalesced-sweep schedule. On a structurally
/// corrupt tree every query still gets the exact brute-force answer, marked
/// [`QueryOutcome::Degraded`] — never a panic.
pub fn launch<V: Volumes>(
    tree: &FlatTree<V>,
    queries: &PointSet,
    kernel: Kernel,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    plan: &FaultPlan,
    sink: Option<&mut dyn TraceSink>,
) -> Result<QueryBatchResult, EngineError> {
    launch_reporting(tree, queries, kernel, cfg, opts, plan, sink).map(|(r, _)| r)
}

/// The runner for the two kernels outside the [`Kernel`] table.
#[allow(clippy::too_many_arguments)]
fn launch_outside_table(
    queries: &PointSet,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    label: &str,
    plan: &FaultPlan,
    sink: Option<&mut dyn TraceSink>,
    attempt: impl Fn(&[f32], Option<FaultState>, Option<&mut dyn TraceSink>) -> Result<Found, KernelError>
        + Sync,
    fallback: impl Fn(&[f32]) -> Found + Sync,
) -> Result<QueryBatchResult, EngineError> {
    let resolved = resolve(opts, None, plan, sink.is_some());
    let order = schedule_order(queries, resolved.schedule, &mut ScheduleScratch::default());
    run_batch(queries, cfg, opts, label, plan, order.as_deref(), sink, None, attempt, fallback)
        .map(|(r, _)| r)
}

/// [`launch`] for the stack-free kNN kernel over the implicit left-balanced
/// kd-tree (`kernels::stackfree`), whose index is not a [`FlatTree`].
/// [`KernelOptions::wave`] is dropped: every node of the implicit tree is one
/// point entry, so there is no node block to amortize. The degraded rung is
/// the same exact scan as every other kNN kernel's, over the tree's point
/// array and ids — the flat point array is all the implicit tree has.
pub fn launch_stackfree(
    tree: &LbKdTree,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    plan: &FaultPlan,
    sink: Option<&mut dyn TraceSink>,
) -> Result<QueryBatchResult, EngineError> {
    launch_outside_table(
        queries,
        cfg,
        opts,
        "stackfree",
        plan,
        sink,
        |q, faults, sink| stackfree_try_query(tree, q, k, cfg, opts, faults, sink),
        |q| Kernel::Psb { k }.scan(&tree.points, Some(&tree.point_ids), q, cfg, opts),
    )
}

/// PSB (Algorithm 1) over a batch of queries: [`launch`] of [`Kernel::Psb`]
/// with no fault plan and no trace sink.
pub fn psb_batch<V: Volumes>(
    tree: &FlatTree<V>,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> Result<QueryBatchResult, EngineError> {
    launch(tree, queries, Kernel::Psb { k }, cfg, opts, &FaultPlan::none(), None)
}

/// Branch-and-bound over a batch of queries.
pub fn bnb_batch<V: Volumes>(
    tree: &FlatTree<V>,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> Result<QueryBatchResult, EngineError> {
    launch(tree, queries, Kernel::Bnb { k }, cfg, opts, &FaultPlan::none(), None)
}

/// Fixed-radius range queries over a batch (PSB-style sweep, fixed bound).
pub fn range_batch<V: Volumes>(
    tree: &FlatTree<V>,
    queries: &PointSet,
    radius: f32,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> Result<QueryBatchResult, EngineError> {
    launch(tree, queries, Kernel::Range { radius }, cfg, opts, &FaultPlan::none(), None)
}

/// Scan-and-restart (no parent links) over a batch of queries.
pub fn restart_batch<V: Volumes>(
    tree: &FlatTree<V>,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> Result<QueryBatchResult, EngineError> {
    launch(tree, queries, Kernel::Restart { k }, cfg, opts, &FaultPlan::none(), None)
}

/// Stack-free kNN over a batch of queries: [`launch_stackfree`] with no fault
/// plan and no trace sink.
///
/// The kd family is not a [`FlatTree`]: there is no bounding volume for PSB,
/// branch-and-bound, restart, range or the wave engine to evaluate, and they
/// take a `&FlatTree<V>`, so routing one of them to an `LbKdTree` is a type
/// error rather than a panic on a worker thread. The stack-free launch
/// type-checks —
///
/// ```
/// use psb_core::{stackfree_batch, KernelOptions};
/// let points = psb_data::UniformSpec { len: 64, dims: 3, seed: 1 }.generate();
/// let tree = psb_kdtree::LbKdTree::build(&points);
/// let cfg = psb_gpu::DeviceConfig::k40();
/// let found = stackfree_batch(&tree, &points, 4, &cfg, &KernelOptions::default());
/// assert_eq!(found.expect("a non-empty batch").neighbors.len(), 64);
/// ```
///
/// — and the same call through a bounding-volume kernel does not:
///
/// ```compile_fail,E0308
/// use psb_core::{psb_batch, KernelOptions};
/// let points = psb_data::UniformSpec { len: 64, dims: 3, seed: 1 }.generate();
/// let tree = psb_kdtree::LbKdTree::build(&points);
/// let cfg = psb_gpu::DeviceConfig::k40();
/// let found = psb_batch(&tree, &points, 4, &cfg, &KernelOptions::default());
/// assert_eq!(found.expect("a non-empty batch").neighbors.len(), 64);
/// ```
pub fn stackfree_batch(
    tree: &LbKdTree,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> Result<QueryBatchResult, EngineError> {
    launch_stackfree(tree, queries, k, cfg, opts, &FaultPlan::none(), None)
}

/// Brute-force scan over a batch of queries. Its degraded rung is the
/// clamped scan every other kernel degrades to, a row's id being the row
/// itself: past the dimensionality where a block-wide tile fits shared memory
/// the attempt and the retry return [`KernelError::SmemOverflow`] and the
/// rung still answers exactly.
pub fn brute_batch(
    points: &PointSet,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> Result<QueryBatchResult, EngineError> {
    launch_outside_table(
        queries,
        cfg,
        opts,
        "brute",
        &FaultPlan::none(),
        None,
        |q, faults, sink| brute_try_query(points, q, k, cfg, opts, faults, sink),
        |q| Kernel::Psb { k }.scan(points, None, q, cfg, opts),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_data::{sample_queries, ClusteredSpec};
    use psb_gpu::TraceEvent;
    use psb_sstree::{build, linear_knn, BuildMethod, SsTree};

    fn setup() -> (PointSet, SsTree, PointSet) {
        let ps =
            ClusteredSpec { clusters: 5, points_per_cluster: 400, dims: 8, sigma: 150.0, seed: 41 }
                .generate();
        let tree = build(&ps, 32, &BuildMethod::Hilbert);
        let queries = sample_queries(&ps, 24, 0.01, 42);
        (ps, tree, queries)
    }

    #[test]
    fn all_engines_agree_with_oracle() {
        let (ps, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let k = 10;
        let a = psb_batch(&tree, &queries, k, &cfg, &opts).expect("batch");
        let b = bnb_batch(&tree, &queries, k, &cfg, &opts).expect("batch");
        let c = brute_batch(&ps, &queries, k, &cfg, &opts).expect("batch");
        for (qi, q) in queries.iter().enumerate() {
            let want = linear_knn(&ps, q, k);
            for got in [&a.neighbors[qi], &b.neighbors[qi], &c.neighbors[qi]] {
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    let scale = w.dist.max(1.0);
                    assert!((g.dist - w.dist).abs() <= scale * 1e-4);
                }
            }
        }
    }

    /// Past 384 dims a block-wide tile of 32 rows outgrows the K40's 48 KB of
    /// shared memory. The attempt and the retry overflow, and the last rung —
    /// the clamped scan every kernel degrades to — answers exactly instead of
    /// panicking on a worker.
    #[test]
    fn brute_batch_past_a_block_wide_tile_degrades_to_the_exact_clamped_scan() {
        let (cfg, opts) = (DeviceConfig::k40(), KernelOptions::default());
        for dims in [384usize, 385, 512] {
            let ps = psb_data::UniformSpec { len: 150, dims, seed: dims as u64 }.generate();
            let queries = sample_queries(&ps, 6, 0.01, 7);
            let r = brute_batch(&ps, &queries, 5, &cfg, &opts).expect("batch");
            for (qi, q) in queries.iter().enumerate() {
                let overflowed = matches!(
                    r.outcomes[qi],
                    QueryOutcome::Degraded {
                        first: KernelError::SmemOverflow { .. },
                        retry: KernelError::SmemOverflow { .. },
                    }
                );
                let clean = r.outcomes[qi] == QueryOutcome::Clean;
                assert!(if dims > 384 { overflowed } else { clean }, "{dims}-d: {:?}", r.outcomes);
                let bits = |v: &[Neighbor]| v.iter().map(|n| (n.id, n.dist.to_bits())).collect();
                let want: Vec<_> = bits(&linear_knn(&ps, q, 5));
                assert_eq!(bits(&r.neighbors[qi]), want, "{dims}-d query {qi}");
            }
        }
    }

    /// Distinct threads that run the pieces of a region entered here: each of
    /// its 24 pieces holds on (bounded) until `want` threads have shown up.
    fn threads_at_work(want: usize) -> usize {
        use rayon::prelude::*;
        let seen = std::sync::Mutex::new(std::collections::HashSet::new());
        let give_up = std::time::Instant::now() + std::time::Duration::from_secs(20);
        (0..24usize).into_par_iter().for_each(|_| loop {
            let arrived = {
                let mut seen = seen.lock().expect("seen");
                seen.insert(std::thread::current().id());
                seen.len()
            };
            if arrived >= want || std::time::Instant::now() > give_up {
                break;
            }
            std::thread::yield_now();
        });
        seen.into_inner().expect("seen").len()
    }

    #[test]
    fn batch_is_deterministic_under_parallelism() {
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
            pool.install(|| {
                // Not vacuous: a 24-piece region entered under this pool (the
                // batch below is one) runs on `threads` distinct threads.
                assert_eq!(threads_at_work(threads), threads);
                psb_batch(&tree, &queries, 8, &cfg, &opts).expect("batch")
            })
        };
        // Four real workers racing for the 24 pieces, twice, against the
        // single-thread run: submission-index collection makes them agree.
        let one = run(1);
        for b in [run(4), run(4)] {
            assert_eq!(one.neighbors, b.neighbors);
            assert_eq!(one.per_block, b.per_block);
            assert_eq!(one.report.merged, b.report.merged);
        }
    }

    #[test]
    fn report_covers_all_blocks() {
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let r = psb_batch(&tree, &queries, 8, &cfg, &KernelOptions::default()).expect("batch");
        assert_eq!(r.report.merged.blocks as usize, queries.len());
        assert!(r.report.avg_response_ms > 0.0);
        assert!(r.report.warp_efficiency > 0.0 && r.report.warp_efficiency <= 1.0);
    }

    #[test]
    fn empty_batch_is_a_typed_error() {
        let (_, tree, _) = setup();
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let empty = PointSet::new(tree.dims);
        assert!(matches!(psb_batch(&tree, &empty, 4, &cfg, &opts), Err(EngineError::EmptyBatch)));
        let (plan, mut sink) = (FaultPlan::bit_flips(7, 2), VecSink::new());
        assert!(matches!(
            launch(&tree, &empty, Kernel::Psb { k: 4 }, &cfg, &opts, &plan, Some(&mut sink)),
            Err(EngineError::EmptyBatch)
        ));
    }

    #[test]
    fn index_beats_brute_force_on_bytes_for_tight_clusters() {
        let ps =
            ClusteredSpec { clusters: 8, points_per_cluster: 500, dims: 8, sigma: 30.0, seed: 43 }
                .generate();
        let tree = build(&ps, 32, &BuildMethod::Hilbert);
        let queries = sample_queries(&ps, 8, 0.005, 44);
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let psb = psb_batch(&tree, &queries, 8, &cfg, &opts).expect("batch");
        let brute = brute_batch(&ps, &queries, 8, &cfg, &opts).expect("batch");
        assert!(
            psb.report.avg_accessed_mb < brute.report.avg_accessed_mb,
            "PSB {} MB >= brute {} MB",
            psb.report.avg_accessed_mb,
            brute.report.avg_accessed_mb
        );
    }

    /// Everything a batch returns, bit for bit (`Debug` prints floats
    /// shortest-round-trip, so equal text is equal bits).
    fn fingerprint(r: &QueryBatchResult) -> String {
        format!("{:?} {:?} {:?} {:?}", r.neighbors, r.per_block, r.outcomes, r.report)
    }

    /// The override table: every combination of engine x schedule x plan x
    /// sink x metering resolves to the expected [`Resolved`], resolving the
    /// effective options again fires nothing (but the memo rule, which no
    /// option spells), and launching them is bit-equal to launching the
    /// request.
    #[test]
    fn resolve_table_and_launch_of_the_effective_options() {
        use Override::*;
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let kernel = Kernel::Psb { k: 6 };
        let waved = Some(WaveConfig);
        let (none, real) = (FaultPlan::none(), FaultPlan::bit_flips(0xFA17, 2));
        let mut rungs = [0usize; 3];
        for (wave, schedule, (plan, faulted), traced, metering) in product(
            [None, waved],
            [QuerySchedule::Submission, QuerySchedule::Hilbert],
            [(&none, false), (&real, true)],
            [false, true],
            [Metering::Simulated, Metering::Off],
        ) {
            let opts = KernelOptions { wave, schedule, metering, ..Default::default() };
            let row =
                format!("{wave:?} {schedule:?} faulted={faulted} traced={traced} {metering:?}");
            let got = resolve(&opts, Some(kernel), plan, traced);
            let forced = faulted && metering == Metering::Off;
            let rules = [
                (wave.is_some() && faulted, WaveDroppedUnderFaults),
                (wave.is_some() && traced, WaveDroppedWhenTraced),
                (schedule == QuerySchedule::Hilbert && traced, ScheduleDroppedWhenTraced),
                (forced, MeteringForcedByFaults),
                (faulted, MemoOffUnderFaults),
            ];
            let want = Resolved {
                wave: if faulted || traced { None } else { wave },
                schedule: if traced { QuerySchedule::Submission } else { schedule },
                metering: if faulted { Metering::Simulated } else { metering },
                memo: !faulted && (wave.is_none() || traced),
                overrides: rules.into_iter().filter(|r| r.0).map(|r| r.1).collect(),
            };
            assert_eq!(got, want, "{row}");

            let effective = KernelOptions {
                wave: got.wave,
                schedule: got.schedule,
                metering: got.metering,
                ..opts.clone()
            };
            let again = resolve(&effective, Some(kernel), plan, traced);
            let unspellable: Vec<_> = faulted.then_some(MemoOffUnderFaults).into_iter().collect();
            assert_eq!(again, Resolved { overrides: unspellable, ..got.clone() }, "{row}");

            let run = |opts: &KernelOptions| {
                let mut sink = VecSink::new();
                let sink = traced.then_some(&mut sink as &mut dyn TraceSink);
                launch(&tree, &queries, kernel, &cfg, opts, plan, sink).expect("launch")
            };
            let (mut asked, mut spelled) = (run(&opts), run(&effective));
            for o in &asked.outcomes {
                rungs[match o {
                    QueryOutcome::Clean => 0,
                    QueryOutcome::Retried { .. } => 1,
                    _ => 2,
                }] += 1;
            }
            if forced && asked.report.degraded_queries > 0 {
                // The one difference forcing the metering on leaves: the brute
                // rung carries no fault state, so under the request it runs
                // unmetered and under the spelled-out options it is metered.
                assert_eq!(asked.outcomes, spelled.outcomes, "{row}");
                for r in [&mut asked, &mut spelled] {
                    for (st, o) in r.per_block.iter_mut().zip(&r.outcomes) {
                        if matches!(o, QueryOutcome::Degraded { .. }) {
                            *st = KernelStats::default();
                        }
                    }
                    r.report = launch_blocks(&cfg, 1, &r.per_block);
                }
            }
            assert_eq!(fingerprint(&asked), fingerprint(&spelled), "{row}");
        }
        assert!(rungs.iter().all(|&n| n > 0), "the real plan must exercise every rung: {rungs:?}");

        // Kernels without a memo fire no memo rule; kernels outside the table
        // have no wave form.
        let opts = KernelOptions { wave: waved, ..Default::default() };
        assert_eq!(
            resolve(&opts, Some(Kernel::Bnb { k: 6 }), &real, false).overrides,
            [WaveDroppedUnderFaults]
        );
        let outside = resolve(&opts, None, &none, false);
        assert_eq!((outside.wave, &outside.overrides[..]), (None, &[WaveDroppedNoNodeBlocks][..]));
    }

    /// The cartesian product of the table's five axes.
    fn product<A: Copy, B: Copy, C: Copy, D: Copy, E: Copy>(
        a: [A; 2],
        b: [B; 2],
        c: [C; 2],
        d: [D; 2],
        e: [E; 2],
    ) -> impl Iterator<Item = (A, B, C, D, E)> {
        (0..32usize)
            .map(move |i| (a[i & 1], b[i >> 1 & 1], c[i >> 2 & 1], d[i >> 3 & 1], e[i >> 4]))
    }

    /// A fault plan and a trace sink together — a combination no entry point
    /// offered before the one runner: the traced ladder equals the untraced
    /// one, and the sink receives, query by query, exactly the events of the
    /// attempts whose counters `per_block` keeps.
    #[test]
    fn a_traced_ladder_equals_the_untraced_one_and_records_the_kept_attempts() {
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let plan = FaultPlan::bit_flips(0xFA17, 2);
        for kernel in [Kernel::Psb { k: 6 }, Kernel::Bnb { k: 6 }, Kernel::Range { radius: 300.0 }]
        {
            let silent = launch(&tree, &queries, kernel, &cfg, &opts, &plan, None).expect("launch");
            let mut sink = VecSink::new();
            let traced = launch(&tree, &queries, kernel, &cfg, &opts, &plan, Some(&mut sink))
                .expect("launch");
            assert_eq!(fingerprint(&silent), fingerprint(&traced), "{kernel:?}");
            assert!(traced.report.retried_queries > 0, "{kernel:?}: the plan must bite");

            // One event group per query: the stream holds the events of the
            // kept attempts and nothing else. (A failed attempt's events are
            // dropped with its counters; the brute rung records nothing.)
            let kept = || {
                let rows = traced.per_block.iter().zip(&traced.outcomes);
                rows.filter(|(_, o)| !matches!(o, QueryOutcome::Degraded { .. })).map(|(st, _)| st)
            };
            let events = |want: fn(&TraceEvent) -> bool| {
                sink.events.iter().filter(|e| want(e)).count() as u64
            };
            assert_eq!(
                events(|e| matches!(e, TraceEvent::NodeVisit { .. })),
                kept().map(|st| st.nodes_visited).sum::<u64>(),
                "{kernel:?}"
            );
            assert_eq!(
                events(|e| matches!(e, TraceEvent::Backtrack { .. })),
                kept().map(|st| st.backtracks).sum::<u64>(),
                "{kernel:?}"
            );
        }
    }
}
