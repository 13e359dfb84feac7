//! Batched query execution: one simulated thread block per query, host-parallel.
//!
//! The paper's experiments submit 240 queries per batch (§V-B). Each query runs
//! as an independent simulated block on the host's threads — the rayon shim
//! hands fixed pieces of the batch to scoped workers — and the per-block
//! counters are collected by submission index, so every output is bit-identical
//! at any host thread count (`tests/threads.rs`). The device cost model then
//! aggregates them into the figures' metrics.
//!
//! The `*_batch_recovering` runners add the fault-tolerance ladder: each query
//! is attempted under its own deterministic fault substream, retried once on a
//! typed [`KernelError`], and finally degraded to an exact brute-force scan
//! that follows no structural links. Results are exact under every rung; the
//! rung taken per query is recorded in [`QueryBatchResult::outcomes`].

use psb_geom::PointSet;
use psb_gpu::{
    launch_blocks_fused, DeviceConfig, FaultPlan, FaultState, KernelStats, LaunchReport, NoopSink,
    Phase, PhaseBreakdown, TraceSink,
};
use psb_sstree::Neighbor;

use crate::error::{EngineError, KernelError, QueryOutcome};
use crate::index::{GpuIndex, ImplicitKdIndex};
use rayon::prelude::*;

use crate::kernels::tpss::tpss_batch;
use crate::kernels::{
    bnb::bnb_query, bnb::bnb_query_traced, range::range_query_gpu, restart::restart_query,
};
use crate::kernels::{
    bnb::bnb_try_query, brute::brute_index_query, brute::brute_index_range, brute::brute_query,
    psb::psb_query, psb::psb_query_replay, psb::psb_query_traced, psb::psb_try_query,
    psb::psb_try_query_replay, range::range_try_query, restart::restart_try_query,
    stackfree::stackfree_query, stackfree::stackfree_try_query,
};
use crate::options::KernelOptions;
use crate::schedule::{hilbert_order, QuerySchedule};

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
    /// Per-query (per-block) raw counters, in query order. For a recovering
    /// run this is the counters of the attempt that produced the result
    /// (failed attempts' partial counters are discarded — they model work a
    /// real device would have thrown away with the faulted launch).
    pub per_block: Vec<KernelStats>,
    /// Which recovery rung produced each query's result, in query order.
    /// All-[`QueryOutcome::Clean`] for the plain (non-recovering) runners.
    pub outcomes: Vec<QueryOutcome>,
    /// Aggregated metrics under the cost model.
    pub report: LaunchReport,
}

impl QueryBatchResult {
    /// Per-phase warp-efficiency / accessed-MB breakdown of the batch, one row
    /// per [`Phase`] in [`Phase::ALL`] order.
    pub fn phase_breakdown(&self) -> [PhaseBreakdown; Phase::COUNT] {
        self.report.phase_breakdown()
    }

    /// The batch's merged counters for one traversal phase.
    pub fn phase(&self, phase: Phase) -> &psb_gpu::PhaseStats {
        self.report.merged.phase(phase)
    }
}

/// Warps per simulated (pre-fusion) block under these options.
pub(crate) fn warps_of(cfg: &DeviceConfig, opts: &KernelOptions) -> u32 {
    opts.threads_per_block.div_ceil(cfg.warp_size)
}

/// The execution order the options ask for: `None` is submission order,
/// `Some(perm)` executes `perm[j]` as the `j`-th query (Hilbert schedule).
pub(crate) fn schedule_order(queries: &PointSet, opts: &KernelOptions) -> Option<Vec<u32>> {
    match opts.schedule {
        QuerySchedule::Submission => None,
        QuerySchedule::Hilbert => Some(hilbert_order(queries)),
    }
}

/// Per-batch telemetry shared by every runner: wall-clock latency histogram,
/// batch/query counters, and the launch report's simulated figures, all keyed
/// by the kernel `label`. `started` is `Some` only when a registry is attached
/// (the no-op path reads no clock).
pub(crate) fn record_batch(
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

fn run_batch(
    queries: &PointSet,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    label: &str,
    f: impl Fn(&[f32]) -> (Vec<Neighbor>, KernelStats) + Sync,
) -> Result<QueryBatchResult, EngineError> {
    let order = schedule_order(queries, opts);
    run_batch_ordered(queries, cfg, opts, order.as_deref(), label, f)
}

/// [`run_batch`] with a precomputed execution order (the streaming pipeline
/// schedules chunk N+1 while chunk N executes, so it hands the permutation
/// in). Queries execute in scheduled order; neighbors and per-query counters
/// are un-permuted back to submission order, so every per-query output is
/// bit-identical to the submission-order engine. Only the launch aggregation
/// sees the schedule (it groups scheduled neighbors when fusing blocks).
pub(crate) fn run_batch_ordered(
    queries: &PointSet,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    order: Option<&[u32]>,
    label: &str,
    f: impl Fn(&[f32]) -> (Vec<Neighbor>, KernelStats) + Sync,
) -> Result<QueryBatchResult, EngineError> {
    if queries.is_empty() {
        return Err(EngineError::EmptyBatch);
    }
    let m = &opts.metrics;
    let started = m.is_attached().then(std::time::Instant::now);
    let _batch_span = m.span("engine");
    let _kernel_span = m.span(label);
    let n = queries.len();
    let (neighbors, per_block) = m.time("execute", || match order {
        None => {
            let results: Vec<(Vec<Neighbor>, KernelStats)> =
                (0..n).into_par_iter().map(|i| f(queries.point(i))).collect();
            results.into_iter().unzip()
        }
        Some(perm) => {
            debug_assert_eq!(perm.len(), n);
            let results: Vec<(u32, (Vec<Neighbor>, KernelStats))> =
                perm.par_iter().map(|&i| (i, f(queries.point(i as usize)))).collect();
            // Un-permute into submission order. `perm` is a permutation, so
            // every slot is overwritten exactly once.
            let mut neighbors = vec![Vec::new(); n];
            let mut per_block = vec![KernelStats::default(); n];
            for (i, (nb, st)) in results {
                neighbors[i as usize] = nb;
                per_block[i as usize] = st;
            }
            (neighbors, per_block)
        }
    });
    let report = m.time("aggregate", || {
        launch_blocks_fused(cfg, warps_of(cfg, opts), &per_block, opts.fuse, order)
    });
    record_batch(opts, label, started, &report);
    let outcomes = vec![QueryOutcome::Clean; n];
    Ok(QueryBatchResult { neighbors, per_block, outcomes, report })
}

/// Sequential batch runner for recording runs: queries execute in order so the
/// event stream is deterministic and grouped per query.
fn run_batch_traced(
    queries: &PointSet,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    label: &str,
    sink: &mut dyn TraceSink,
    mut f: impl FnMut(&[f32], &mut dyn TraceSink) -> (Vec<Neighbor>, KernelStats),
) -> Result<QueryBatchResult, EngineError> {
    if queries.is_empty() {
        return Err(EngineError::EmptyBatch);
    }
    let m = &opts.metrics;
    let started = m.is_attached().then(std::time::Instant::now);
    let _batch_span = m.span("engine");
    let _kernel_span = m.span(label);
    let mut neighbors = Vec::with_capacity(queries.len());
    let mut per_block = Vec::with_capacity(queries.len());
    {
        let _exec_span = m.span("execute");
        for i in 0..queries.len() {
            let (n, s) = f(queries.point(i), sink);
            neighbors.push(n);
            per_block.push(s);
        }
    }
    // Recording runs always execute (and fuse) in submission order so the
    // event stream stays grouped per query — the schedule knob is ignored
    // here, by design.
    let report = m.time("aggregate", || {
        launch_blocks_fused(cfg, warps_of(cfg, opts), &per_block, opts.fuse, None)
    });
    record_batch(opts, label, started, &report);
    let outcomes = vec![QueryOutcome::Clean; neighbors.len()];
    Ok(QueryBatchResult { neighbors, per_block, outcomes, report })
}

/// The recovery ladder, applied per query on the rayon pool:
///
/// 1. **Attempt 0** under the query's fault substream (`plan.state_for(i, 0)`).
/// 2. **Retry** once under a fresh substream (`plan.state_for(i, 1)`) — a real
///    driver re-launching the failed block; transient upsets usually miss the
///    second run.
/// 3. **Degrade** to `fallback`, an exact brute-force scan that attaches no
///    fault state and follows no structural links, so it cannot fail.
///
/// A no-op plan attaches no fault state at all, so attempt 0 is bit-identical
/// to the plain runner and the ladder never advances.
fn run_batch_recovering(
    queries: &PointSet,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    label: &str,
    plan: &FaultPlan,
    attempt: impl Fn(&[f32], Option<FaultState>) -> Result<(Vec<Neighbor>, KernelStats), KernelError>
        + Sync,
    fallback: impl Fn(&[f32]) -> (Vec<Neighbor>, KernelStats) + Sync,
) -> Result<QueryBatchResult, EngineError> {
    if queries.is_empty() {
        return Err(EngineError::EmptyBatch);
    }
    let m = &opts.metrics;
    let started = m.is_attached().then(std::time::Instant::now);
    let _batch_span = m.span("engine");
    let _kernel_span = m.span(label);
    let n_queries = queries.len();
    let order = schedule_order(queries, opts);
    // Fault substreams are keyed by *submission* index, so the ladder a query
    // climbs is independent of where the schedule places it.
    let ladder = |i: usize| {
        let q = queries.point(i);
        let faults = |attempt_no: u32| {
            if plan.is_noop() {
                None
            } else {
                Some(plan.state_for(i as u64, attempt_no))
            }
        };
        match attempt(q, faults(0)) {
            Ok((n, s)) => (n, s, QueryOutcome::Clean),
            Err(first) => match attempt(q, faults(1)) {
                Ok((n, s)) => (n, s, QueryOutcome::Retried { first }),
                Err(retry) => {
                    let (n, s) = fallback(q);
                    (n, s, QueryOutcome::Degraded { first, retry })
                }
            },
        }
    };
    type LadderResult = (Vec<Neighbor>, KernelStats, QueryOutcome);
    let mut neighbors = vec![Vec::new(); n_queries];
    let mut per_block = vec![KernelStats::default(); n_queries];
    let mut outcomes = vec![QueryOutcome::Clean; n_queries];
    {
        let _exec_span = m.span("execute");
        match &order {
            None => {
                let results: Vec<LadderResult> =
                    (0..n_queries).into_par_iter().map(ladder).collect();
                for (i, (n, s, o)) in results.into_iter().enumerate() {
                    neighbors[i] = n;
                    per_block[i] = s;
                    outcomes[i] = o;
                }
            }
            Some(perm) => {
                let results: Vec<(u32, LadderResult)> =
                    perm.par_iter().map(|&i| (i, ladder(i as usize))).collect();
                for (i, (n, s, o)) in results {
                    neighbors[i as usize] = n;
                    per_block[i as usize] = s;
                    outcomes[i as usize] = o;
                }
            }
        }
    }
    let mut report = m.time("aggregate", || {
        launch_blocks_fused(cfg, warps_of(cfg, opts), &per_block, opts.fuse, order.as_deref())
    });
    report.retried_queries =
        outcomes.iter().filter(|o| matches!(o, QueryOutcome::Retried { .. })).count() as u64;
    report.degraded_queries =
        outcomes.iter().filter(|o| matches!(o, QueryOutcome::Degraded { .. })).count() as u64;
    record_batch(opts, label, started, &report);
    Ok(QueryBatchResult { neighbors, per_block, outcomes, report })
}

/// PSB over a batch of queries. Under [`QuerySchedule::Hilbert`] the batch
/// runs through the throughput kernel (sweep-replay memo) in Hilbert order —
/// results, per-query counters, and the fuse-1 report are bit-identical to the
/// submission-order engine (`tests/schedule_parity.rs`), only the wall-clock
/// host cost drops.
/// With [`KernelOptions::wave`] set, the batch instead runs through the
/// buffer-wave node-centric engine (`wave.rs`): neighbors and outcomes are
/// bit-identical, counters reflect the amortized coalesced-sweep schedule.
pub fn psb_batch<T: GpuIndex>(
    tree: &T,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> Result<QueryBatchResult, EngineError> {
    if opts.wave.is_some() {
        return crate::wave::wave_knn_batch(tree, queries, k, cfg, opts).map(|(r, _)| r);
    }
    run_batch(queries, cfg, opts, "psb", |q| match opts.schedule {
        QuerySchedule::Submission => psb_query(tree, q, k, cfg, opts),
        QuerySchedule::Hilbert => psb_query_replay(tree, q, k, cfg, opts),
    })
}

/// [`psb_batch`] with every metering call mirrored into `sink`; runs
/// sequentially so the event stream is in query order. Results and counters
/// are bit-identical to [`psb_batch`].
pub fn psb_batch_traced<T: GpuIndex>(
    tree: &T,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    sink: &mut dyn TraceSink,
) -> Result<QueryBatchResult, EngineError> {
    run_batch_traced(queries, cfg, opts, "psb", sink, |q, s| {
        psb_query_traced(tree, q, k, cfg, opts, s)
    })
}

/// [`psb_batch`] under a fault plan, with the retry/degrade recovery ladder.
/// Results are exact under any plan; with [`FaultPlan::none`] this is
/// bit-identical to [`psb_batch`] (results, counters, and report).
pub fn psb_batch_recovering<T: GpuIndex>(
    tree: &T,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    plan: &FaultPlan,
) -> Result<QueryBatchResult, EngineError> {
    // The wave engine serves the fault-free path only (like the sweep-replay
    // memo): a no-op plan routes to the wave engine whole-batch, a real plan
    // disables waves and climbs the per-query ladder below.
    if opts.wave.is_some() && plan.is_noop() {
        return psb_batch(tree, queries, k, cfg, opts);
    }
    run_batch_recovering(
        queries,
        cfg,
        opts,
        "psb",
        plan,
        |q, faults| match opts.schedule {
            // The replay kernel self-disables whenever a fault state is
            // attached, so the ladder's faulted attempts are bit-identical to
            // the reference kernel's and only clean attempts take the memo.
            QuerySchedule::Submission => {
                psb_try_query(tree, q, k, cfg, opts, faults, &mut NoopSink)
            }
            QuerySchedule::Hilbert => {
                psb_try_query_replay(tree, q, k, cfg, opts, faults, &mut NoopSink)
            }
        },
        |q| brute_index_query(tree, q, k, cfg, opts),
    )
}

/// Branch-and-bound over a batch of queries.
pub fn bnb_batch<T: GpuIndex>(
    tree: &T,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> Result<QueryBatchResult, EngineError> {
    if opts.wave.is_some() {
        return crate::wave::wave_knn_batch(tree, queries, k, cfg, opts).map(|(r, _)| r);
    }
    run_batch(queries, cfg, opts, "bnb", |q| bnb_query(tree, q, k, cfg, opts))
}

/// [`bnb_batch`] with every metering call mirrored into `sink`; runs
/// sequentially so the event stream is in query order. Results and counters
/// are bit-identical to [`bnb_batch`].
pub fn bnb_batch_traced<T: GpuIndex>(
    tree: &T,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    sink: &mut dyn TraceSink,
) -> Result<QueryBatchResult, EngineError> {
    run_batch_traced(queries, cfg, opts, "bnb", sink, |q, s| {
        bnb_query_traced(tree, q, k, cfg, opts, s)
    })
}

/// [`bnb_batch`] under a fault plan, with the retry/degrade recovery ladder.
pub fn bnb_batch_recovering<T: GpuIndex>(
    tree: &T,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    plan: &FaultPlan,
) -> Result<QueryBatchResult, EngineError> {
    if opts.wave.is_some() && plan.is_noop() {
        return bnb_batch(tree, queries, k, cfg, opts);
    }
    run_batch_recovering(
        queries,
        cfg,
        opts,
        "bnb",
        plan,
        |q, faults| bnb_try_query(tree, q, k, cfg, opts, faults, &mut NoopSink),
        |q| brute_index_query(tree, q, k, cfg, opts),
    )
}

/// Fixed-radius range queries over a batch (PSB-style sweep, fixed bound).
pub fn range_batch<T: GpuIndex>(
    tree: &T,
    queries: &PointSet,
    radius: f32,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> Result<QueryBatchResult, EngineError> {
    if opts.wave.is_some() {
        return crate::wave::wave_range_batch(tree, queries, radius, cfg, opts).map(|(r, _)| r);
    }
    run_batch(queries, cfg, opts, "range", |q| range_query_gpu(tree, q, radius, cfg, opts))
}

/// [`range_batch`] under a fault plan, with the retry/degrade recovery ladder.
/// The degraded rung is an exact brute-force range scan over the flat point
/// array.
pub fn range_batch_recovering<T: GpuIndex>(
    tree: &T,
    queries: &PointSet,
    radius: f32,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    plan: &FaultPlan,
) -> Result<QueryBatchResult, EngineError> {
    if opts.wave.is_some() && plan.is_noop() {
        return range_batch(tree, queries, radius, cfg, opts);
    }
    run_batch_recovering(
        queries,
        cfg,
        opts,
        "range",
        plan,
        |q, faults| range_try_query(tree, q, radius, cfg, opts, faults, &mut NoopSink),
        |q| brute_index_range(tree, q, radius, cfg, opts),
    )
}

/// Scan-and-restart (no parent links) over a batch of queries.
pub fn restart_batch<T: GpuIndex>(
    tree: &T,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> Result<QueryBatchResult, EngineError> {
    if opts.wave.is_some() {
        return crate::wave::wave_knn_batch(tree, queries, k, cfg, opts).map(|(r, _)| r);
    }
    run_batch(queries, cfg, opts, "restart", |q| restart_query(tree, q, k, cfg, opts))
}

/// [`restart_batch`] under a fault plan, with the retry/degrade recovery
/// ladder.
pub fn restart_batch_recovering<T: GpuIndex>(
    tree: &T,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    plan: &FaultPlan,
) -> Result<QueryBatchResult, EngineError> {
    if opts.wave.is_some() && plan.is_noop() {
        return restart_batch(tree, queries, k, cfg, opts);
    }
    run_batch_recovering(
        queries,
        cfg,
        opts,
        "restart",
        plan,
        |q, faults| restart_try_query(tree, q, k, cfg, opts, faults, &mut NoopSink),
        |q| brute_index_query(tree, q, k, cfg, opts),
    )
}

/// Stack-free kNN over a batch of queries (the implicit left-balanced kd-tree
/// family — see `kernels::stackfree`).
///
/// [`KernelOptions::wave`] is ignored here by design: the buffer-wave engine
/// amortizes *node-block* fetches over query buffers, and the implicit tree
/// has no node blocks to amortize (every node is one point entry), so there
/// is no wave schedule to run. Everything else — Hilbert scheduling,
/// metering modes, metrics — behaves like the other per-query engines.
pub fn stackfree_batch<T: ImplicitKdIndex>(
    tree: &T,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> Result<QueryBatchResult, EngineError> {
    run_batch(queries, cfg, opts, "stackfree", |q| stackfree_query(tree, q, k, cfg, opts))
}

/// [`stackfree_batch`] under a fault plan, with the retry/degrade recovery
/// ladder. The degraded rung is the same exact brute scan as every other
/// engine's — it touches only the flat point array, which the implicit tree
/// has by construction.
pub fn stackfree_batch_recovering<T: ImplicitKdIndex>(
    tree: &T,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
    plan: &FaultPlan,
) -> Result<QueryBatchResult, EngineError> {
    run_batch_recovering(
        queries,
        cfg,
        opts,
        "stackfree",
        plan,
        |q, faults| stackfree_try_query(tree, q, k, cfg, opts, faults, &mut NoopSink),
        |q| brute_index_query(tree, q, k, cfg, opts),
    )
}

/// [`tpss_batch`] with the batch rescheduled into Hilbert order before the
/// task-parallel packer groups queries into blocks, and the neighbor lists
/// un-permuted back to submission order afterwards.
///
/// Unlike the block-per-query engines, TPSS packs queries into warps *by
/// position*, so rescheduling changes which queries share a block — per-block
/// counters are therefore reported in scheduled order and are **not**
/// comparable block-for-block with [`tpss_batch`]'s (the merged totals of a
/// lockstep simulation legitimately differ when lane groupings change).
/// Results are exact and identical either way; this wrapper guarantees
/// neighbors-parity only, by design (DESIGN.md §12).
pub fn tpss_batch_scheduled<T: GpuIndex>(
    tree: &T,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    threads_per_block: u32,
) -> (Vec<Vec<Neighbor>>, Vec<KernelStats>) {
    let perm = hilbert_order(queries);
    let mut scheduled = PointSet::new(queries.dims());
    for &i in &perm {
        scheduled.push(queries.point(i as usize));
    }
    let (sched_neighbors, stats) = tpss_batch(tree, &scheduled, k, cfg, threads_per_block);
    let mut neighbors = vec![Vec::new(); queries.len()];
    for (j, nb) in sched_neighbors.into_iter().enumerate() {
        neighbors[perm[j] as usize] = nb;
    }
    (neighbors, stats)
}

/// Brute-force scan over a batch of queries.
pub fn brute_batch(
    points: &PointSet,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> Result<QueryBatchResult, EngineError> {
    run_batch(queries, cfg, opts, "brute", |q| brute_query(points, q, k, cfg, opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_data::{sample_queries, ClusteredSpec};
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
        let empty = PointSet::new(tree.dims());
        assert!(matches!(psb_batch(&tree, &empty, 4, &cfg, &opts), Err(EngineError::EmptyBatch)));
        assert!(matches!(
            psb_batch_recovering(&tree, &empty, 4, &cfg, &opts, &FaultPlan::none()),
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
}
