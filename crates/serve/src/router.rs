//! The shard router: MINDIST-ordered shard visits, shard-level pruning,
//! scatter-gather exact top-k merge, and the replica failover ladder.

use crate::deadline::{DeadlineBudget, DeadlineClock};
use crate::plan::{Visit, VisitPlan};
use crate::resilient::{ResilienceConfig, ServeOutcome};
use crate::runner::{run_batch, Batch, FrontEnd};
use psb_core::knnlist::GpuKnnList;
use psb_core::shard::{partition, shard_sphere, ShardPolicy};
use psb_core::{
    brute_index_query, dist_cost, EngineError, Kernel, KernelError, KernelOptions, Metering,
    QueryOutcome,
};
use psb_geom::{PointSet, RitterMode, Sphere};
use psb_gpu::{
    launch_blocks, Block, DeviceConfig, FaultPlan, KernelStats, LaunchReport, NodeKind, Phase,
    TraceEvent, TraceSink, VecSink,
};
use psb_metrics::MetricsHandle;
use psb_sstree::{FlatTree, Neighbor, Volumes};

/// How a [`ShardRouter`] is laid out: shard count, replication factor, and
/// the split policy.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of disjoint shards (devices).
    pub shards: usize,
    /// Replicas per shard. Every replica indexes the same shard; replica 0 is
    /// the primary, the rest are failover targets.
    pub replicas: usize,
    /// How the dataset is split into shards.
    pub policy: ShardPolicy,
}

impl ServeConfig {
    /// `shards` shards, one replica each, Hilbert-range split.
    pub fn new(shards: usize) -> Self {
        Self { shards, replicas: 1, policy: ShardPolicy::HilbertRange }
    }

    /// Sets the replication factor.
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Sets the split policy.
    pub fn with_policy(mut self, policy: ShardPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// Health of one replica. Demotion latches: once a replica's launch dies with
/// a typed error it stays demoted until [`ShardRouter::restore_replica`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaState {
    /// Serving queries.
    Healthy,
    /// Taken out of rotation after a faulted launch.
    Demoted {
        /// The error that demoted it.
        error: KernelError,
    },
}

#[derive(Clone, Debug)]
struct Replica {
    device: DeviceConfig,
    plan: FaultPlan,
    state: ReplicaState,
}

struct ShardEntry<T> {
    index: T,
    sphere: Sphere,
    /// Global dataset position of each local point position, i.e. the shard's
    /// slice of the [`partition`] assignment. Maps per-shard neighbor ids back
    /// to global ids during the merge.
    ids: Vec<u32>,
    replicas: Vec<Replica>,
}

/// One failover decision: while serving `query`, `replica` of `shard` died
/// with `error` and was demoted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailoverEvent {
    /// Batch-local query index.
    pub query: usize,
    /// Shard whose replica was demoted.
    pub shard: usize,
    /// Replica index within the shard.
    pub replica: usize,
    /// The typed kernel error.
    pub error: KernelError,
}

/// Aggregated serving metrics for one batch.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Device cost-model aggregation over the per-query router blocks (shard
    /// directory scan + merge) merged with the per-shard kernel counters.
    pub launch: LaunchReport,
    /// Per shard: queries that visited it (MINDIST within the bound).
    pub shard_visits: Vec<u64>,
    /// Per shard: queries that skipped it (MINDIST above the bound).
    pub shard_prunes: Vec<u64>,
    /// Every failover decision of the batch, in query order.
    pub failovers: Vec<FailoverEvent>,
}

impl ServeReport {
    /// Total shard visits across the batch.
    pub fn shards_visited(&self) -> u64 {
        self.shard_visits.iter().sum()
    }

    /// Total shard prunes across the batch.
    pub fn shards_pruned(&self) -> u64 {
        self.shard_prunes.iter().sum()
    }

    /// Fraction of shard decisions that pruned, in `[0, 1]`. A report with no
    /// shard decisions at all reports `0.0`, never `NaN`.
    pub fn prune_rate(&self) -> f64 {
        let total = self.shards_visited() + self.shards_pruned();
        if total == 0 {
            0.0
        } else {
            self.shards_pruned() as f64 / total as f64
        }
    }

    /// Records this report into a metrics registry — the single bridge from
    /// serving results to telemetry. Every counter is derived from the report
    /// fields alone (per-shard visits/prunes, the failover list, the launch
    /// report's retry/degrade tallies), so the registry can never drift from
    /// what the report says. No-op when `m` is detached.
    pub fn record_into(&self, m: &MetricsHandle) {
        if !m.is_attached() {
            return;
        }
        for (s, &v) in self.shard_visits.iter().enumerate() {
            m.counter(&format!("serve.shard_visits{{shard=\"{s}\"}}"), v);
        }
        for (s, &v) in self.shard_prunes.iter().enumerate() {
            m.counter(&format!("serve.shard_prunes{{shard=\"{s}\"}}"), v);
        }
        m.counter("serve.queries", self.launch.merged.blocks);
        m.counter("serve.failovers", self.failovers.len() as u64);
        m.counter("serve.retried_queries", self.launch.retried_queries);
        m.counter("serve.degraded_queries", self.launch.degraded_queries);
        m.gauge("serve.prune_rate", self.prune_rate());
        self.launch.record_into(m, "serve");
    }
}

/// Exact results plus serving metrics for one batch.
#[derive(Clone, Debug)]
pub struct ServeBatchResult {
    /// Per-query global neighbor lists, ascending by distance — bit-identical
    /// to a single-device run over the unsharded tree.
    pub neighbors: Vec<Vec<Neighbor>>,
    /// Per-query merged counters (router block + visited shard kernels).
    pub per_query: Vec<KernelStats>,
    /// Recovery rung per query: `Clean` (no failover touched it), `Retried`
    /// (a replica was demoted but a peer answered), `Degraded` (some shard had
    /// no healthy replica and fell back to the exact brute scan).
    pub outcomes: Vec<QueryOutcome>,
    /// Aggregated serving metrics.
    pub report: ServeReport,
}

/// Routes batched kNN queries across sharded single-device indexes.
pub struct ShardRouter<T> {
    shards: Vec<ShardEntry<T>>,
    device: DeviceConfig,
    dims: usize,
    /// Telemetry sink; the detached default records nothing and costs one
    /// branch per batch.
    metrics: MetricsHandle,
}

impl<V: Volumes> ShardRouter<FlatTree<V>> {
    /// Partitions `points` per `cfg`, builds one index per shard with
    /// `build_index` (over the gathered per-shard [`PointSet`], whose local
    /// position `i` is global position `assignments[s][i]`), computes each
    /// shard's (parallel-mode) Ritter bounding sphere, and provisions
    /// `cfg.replicas` simulated devices per shard.
    ///
    /// Panics on an invalid layout; [`ShardRouter::try_build`] is the typed
    /// variant.
    pub fn build(
        points: &PointSet,
        cfg: &ServeConfig,
        device: &DeviceConfig,
        build_index: impl Fn(&PointSet) -> FlatTree<V>,
    ) -> Self {
        match Self::try_build(points, cfg, device, build_index) {
            Ok(r) => r,
            Err(e) => panic!("invalid serve layout: {e}"),
        }
    }

    /// Like [`ShardRouter::build`], but an impossible layout — zero shards, or
    /// more shards than points to spread over them — is a typed
    /// [`EngineError`] instead of a panic.
    pub fn try_build(
        points: &PointSet,
        cfg: &ServeConfig,
        device: &DeviceConfig,
        build_index: impl Fn(&PointSet) -> FlatTree<V>,
    ) -> Result<Self, EngineError> {
        if cfg.shards == 0 {
            return Err(EngineError::NoShards);
        }
        if cfg.shards > points.len() {
            return Err(EngineError::TooManyShards { shards: cfg.shards, points: points.len() });
        }
        assert!(cfg.replicas >= 1, "each shard needs at least one replica");
        let plan = partition(points, cfg.shards, &cfg.policy);
        let shards = plan
            .assignments
            .iter()
            .map(|ids| {
                let local = points.gather(ids);
                // Parallel Ritter: the SS-tree builder's spheres, bit for bit.
                let sphere = shard_sphere(points, ids, RitterMode::Parallel);
                let index = build_index(&local);
                assert_eq!(index.points.len(), ids.len(), "index must cover its shard");
                let replicas = (0..cfg.replicas)
                    .map(|_| Replica {
                        device: device.clone(),
                        plan: FaultPlan::none(),
                        state: ReplicaState::Healthy,
                    })
                    .collect();
                ShardEntry { index, sphere, ids: ids.clone(), replicas }
            })
            .collect();
        Ok(Self {
            shards,
            device: device.clone(),
            dims: points.dims(),
            metrics: MetricsHandle::noop(),
        })
    }

    /// The simulated device the router prices its blocks on.
    pub(crate) fn device(&self) -> &DeviceConfig {
        &self.device
    }

    /// Query dimensionality the router was built for.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Attaches a metrics registry: subsequent batches record per-shard
    /// visit/prune counters, failover/degrade tallies, per-query and per-batch
    /// latency histograms, and the launch report's simulated figures.
    pub fn attach_metrics(&mut self, metrics: MetricsHandle) {
        self.metrics = metrics;
    }

    /// The router's current metrics handle (detached unless
    /// [`ShardRouter::attach_metrics`] was called).
    pub fn metrics(&self) -> &MetricsHandle {
        &self.metrics
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `s`'s bounding sphere.
    pub fn sphere(&self, s: usize) -> &Sphere {
        &self.shards[s].sphere
    }

    /// Arms replica `(s, r)` with a fault plan (the PR-2 injection layer).
    /// Subsequent launches on that replica run under the plan's deterministic
    /// per-query substreams.
    pub fn set_fault_plan(&mut self, s: usize, r: usize, plan: FaultPlan) {
        self.shards[s].replicas[r].plan = plan;
    }

    /// Current health of replica `(s, r)`.
    pub fn replica_state(&self, s: usize, r: usize) -> ReplicaState {
        self.shards[s].replicas[r].state
    }

    /// Clears replica `(s, r)`'s latched demotion (and its fault plan):
    /// operator-initiated recovery after the simulated device is serviced.
    pub fn restore_replica(&mut self, s: usize, r: usize) {
        let rep = &mut self.shards[s].replicas[r];
        rep.plan = FaultPlan::none();
        rep.state = ReplicaState::Healthy;
    }

    /// Serves a batch; see [`ShardRouter::serve_batch_traced`].
    pub fn serve_batch(
        &mut self,
        queries: &PointSet,
        k: usize,
        opts: &KernelOptions,
    ) -> Result<ServeBatchResult, EngineError> {
        self.serve_windowed(queries, k, opts, None, usize::MAX)
    }

    /// Serves a batch of kNN queries, recording router-level trace events
    /// (shard directory loads, prune decisions, failovers) into `sink`.
    ///
    /// The batch goes through the one serve runner (`crate::runner`) behind
    /// a transparent front-end: queries execute in parallel on the rayon pool
    /// against the replica states the batch started with and commit in
    /// submission order, so a replica demoted while serving query `i` is
    /// already out of rotation for query `i + 1` — whatever had been executed
    /// ahead of the demotion is dropped and run again. Results, reports and
    /// the event sequence do not depend on the thread count.
    pub fn serve_batch_traced(
        &mut self,
        queries: &PointSet,
        k: usize,
        opts: &KernelOptions,
        sink: &mut dyn TraceSink,
    ) -> Result<ServeBatchResult, EngineError> {
        self.serve_windowed(queries, k, opts, Some(sink), usize::MAX)
    }

    /// [`ShardRouter::serve_batch_traced`] looking at most `window` queries
    /// ahead of the one it is committing (`1` = strictly one at a time).
    pub(crate) fn serve_windowed(
        &mut self,
        queries: &PointSet,
        k: usize,
        opts: &KernelOptions,
        sink: Option<&mut dyn TraceSink>,
        window: usize,
    ) -> Result<ServeBatchResult, EngineError> {
        // The runner borrows `self` mutably, so work through a clone of the
        // handle (an `Option<Arc>` — the clone is two words).
        let m = self.metrics.clone();
        let batch_started = m.is_attached().then(std::time::Instant::now);
        let _span = m.span("serve");
        let mut front = FrontEnd::new(self.shards.len(), &ResilienceConfig::default());
        let batch = Batch { queries, k, opts, requests: &[] };
        let run = run_batch(self, &mut front, &batch, sink, m.is_attached(), window)?;
        for &(_, us) in &run.latencies_us {
            m.observe("serve.query_us", us);
        }
        let report = m.time("aggregate", || run.acc.into_report(&self.device, opts));
        if let Some(t0) = batch_started {
            m.observe("serve.batch_us", t0.elapsed().as_secs_f64() * 1e6);
            m.counter("serve.batches", 1);
            m.counter("serve.discarded_executions", run.discarded as u64);
        }
        report.record_into(&m);
        // A transparent front-end rejects nothing.
        let outcomes = run.outcomes.iter().filter_map(ServeOutcome::executed).collect();
        Ok(ServeBatchResult {
            neighbors: run.neighbors,
            per_query: run.per_query,
            outcomes,
            report,
        })
    }

    /// One query through the router block — shard directory scan, MINDIST
    /// ordering, MAXDIST-prefix initial bound, best-first shard visits with
    /// pruning, replica ladder per visited shard, global merge — under the
    /// resilience layer's constraints: `skip[s]` routes around shard `s` (its
    /// circuit breaker is open) and `budget` is charged per shard visit and
    /// checked between visits.
    ///
    /// Reads the router and changes nothing: everything the query did comes
    /// back in the [`QueryEffect`], and [`ShardRouter::latch`] is the only
    /// mutator. That is what lets the runner execute queries ahead of the one
    /// it is committing, on any thread — the answer depends on the arguments
    /// and the replica states alone (fault substreams are keyed on `qi`).
    ///
    /// With `skip` all `false` and [`DeadlineBudget::None`] no constraint ever
    /// fires: the transparent front-end runs the bare router's instructions.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute(
        &self,
        qi: usize,
        q: &[f32],
        k: usize,
        opts: &KernelOptions,
        skip: &[bool],
        budget: DeadlineBudget,
        traced: bool,
    ) -> QueryEffect {
        // A cycle-priced deadline charges against the simulated counters; an
        // unmetered kernel would report zero cycles and the clock would never
        // advance. Force metering back on for this request only — the
        // caller's `Metering::Off` stays in effect for unconstrained traffic.
        let metered_opts;
        let opts = if opts.metering == Metering::Off && matches!(budget, DeadlineBudget::Cycles(_))
        {
            metered_opts = KernelOptions { metering: Metering::Simulated, ..opts.clone() };
            &metered_opts
        } else {
            opts
        };
        let mut clock = DeadlineClock::start(budget);
        let s = self.shards.len();
        let dims = self.dims;
        let warps = opts.threads_per_block.div_ceil(self.device.warp_size).max(1);
        let mut events = VecSink::new();
        let sink = traced.then_some(&mut events as &mut dyn TraceSink);
        let mut block: Block<'_> = Block::with_sink(opts.threads_per_block, &self.device, sink);
        block.set_phase(Phase::Descend);
        // The shard directory is one SoA record per shard: sphere center
        // (dims × f32) plus radius — the router's analogue of an internal
        // node's child-sphere block.
        block.load_global((s * (dims * 4 + 4)) as u64);
        block.par_for(s, dist_cost(dims) + 2, |_| {});
        // Shards behind an open breaker won't be consulted, so they must not
        // contribute to the initial bound either. Deriving it is one scalar
        // pass over the directory.
        let plan = VisitPlan::new(q, k, self.shards.iter().zip(skip), |&(shard, &skipped)| {
            (&shard.sphere, shard.ids.len(), skipped)
        });
        let order = &plan.order;
        block.scalar(s as u64);
        let prev = block.set_phase(Phase::ResultMerge);
        let mut list = GpuKnnList::new(k, opts.smem_policy, &mut block, self.device.smem_per_sm);
        block.set_phase(prev);

        let mut extra = KernelStats::default();
        let mut first_err: Option<KernelError> = None;
        let mut retry_err: Option<KernelError> = None;
        let mut degraded = false;
        let mut visited: Vec<(usize, ShardSignal)> = Vec::with_capacity(s);
        let mut pruned: Vec<usize> = Vec::new();
        let mut failovers: Vec<FailoverEvent> = Vec::new();
        let mut breaker_skips = 0u64;
        let mut deadline_skips = 0u64;

        for oi in 0..order.len() {
            let Visit { shard: si, mindist, .. } = order[oi];
            // Deadline checkpoint, *between* shard visits: a blown budget
            // settles every remaining directory entry right here — prune what
            // the bound already rules out (exactness unharmed), mark the rest
            // skipped — and, if nothing was visited yet, pays for one exact
            // brute scan over the nearest live shard so the answer is never
            // empty-handed.
            if clock.blown() {
                let brute_pos = if visited.is_empty() {
                    (oi..order.len()).find(|&j| !skip[order[j].shard])
                } else {
                    None
                };
                if let Some(pos) = brute_pos {
                    let sj = order[pos].shard;
                    block.visit_node(0, NodeKind::Internal);
                    let (nb, st) =
                        brute_index_query(&self.shards[sj].index, q, k, &self.device, opts);
                    extra.merge(&st);
                    let prev = block.set_phase(Phase::ResultMerge);
                    for n in &nb {
                        list.offer(&mut block, n.dist, self.shards[sj].ids[n.id as usize]);
                    }
                    block.set_phase(prev);
                    // The shard itself is healthy — a deadline economy says
                    // nothing about its device, so the breaker hears nothing.
                    visited.push((sj, ShardSignal::Neutral));
                }
                for (j, later) in order.iter().enumerate().skip(oi) {
                    if Some(j) == brute_pos {
                        continue;
                    }
                    let sj = later.shard;
                    if plan.prunes(later.mindist, list.bound()) {
                        pruned.push(sj);
                    } else if skip[sj] {
                        breaker_skips += 1;
                    } else {
                        deadline_skips += 1;
                    }
                }
                break;
            }
            block.set_phase(Phase::Descend);
            block.scalar(1);
            if plan.prunes(mindist, list.bound()) {
                pruned.push(si);
                block.emit(|| TraceEvent::KnnUpdate { pruned: true, phase: Phase::Descend });
                continue;
            }
            // Open breaker: the bound says this shard matters, but it is being
            // routed around — a marked degrade, counted apart from prunes.
            if skip[si] {
                breaker_skips += 1;
                continue;
            }
            block.visit_node(0, NodeKind::Internal);
            let shard = &self.shards[si];
            let failovers_before = failovers.len();

            // Replica ladder: first healthy replica answers; a replica that
            // dies is reported for demotion and the next one is tried.
            let mut answered: Option<(Vec<Neighbor>, KernelStats)> = None;
            for (ri, replica) in shard.replicas.iter().enumerate() {
                if matches!(replica.state, ReplicaState::Demoted { .. }) {
                    continue;
                }
                let faults =
                    (!replica.plan.is_noop()).then(|| replica.plan.state_for(qi as u64, 0));
                let launch =
                    Kernel::Psb { k }.attempt(&shard.index, q, &replica.device, opts, faults, None);
                match launch {
                    Ok(res) => {
                        answered = Some(res);
                        break;
                    }
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        } else if retry_err.is_none() {
                            retry_err = Some(e);
                        }
                        failovers.push(FailoverEvent {
                            query: qi,
                            shard: si,
                            replica: ri,
                            error: e,
                        });
                        block
                            .emit(|| TraceEvent::Failover { shard: si as u32, replica: ri as u32 });
                    }
                }
            }
            let exhausted = answered.is_none();
            let (shard_nb, shard_stats) = match answered {
                Some(r) => r,
                None => {
                    // No healthy replica left. Earlier queries may have done
                    // the demoting, so harvest the latched errors (and the
                    // ones this visit is about to latch) for the outcome,
                    // then answer with the exact link-free scan.
                    degraded = true;
                    let died_now = &failovers[failovers_before..];
                    for (ri, replica) in shard.replicas.iter().enumerate() {
                        let error = match replica.state {
                            ReplicaState::Demoted { error } => Some(error),
                            ReplicaState::Healthy => {
                                died_now.iter().find(|f| f.replica == ri).map(|f| f.error)
                            }
                        };
                        if let Some(error) = error {
                            if first_err.is_none() {
                                first_err = Some(error);
                            } else if retry_err.is_none() {
                                retry_err = Some(error);
                            }
                        }
                    }
                    brute_index_query(&shard.index, q, k, &self.device, opts)
                }
            };
            // The breaker's per-visit verdict on this shard: a clean replica
            // answer is a success; a demotion during the visit or a ladder
            // with no healthy rung is a failure.
            let signal = if exhausted || failovers.len() > failovers_before {
                ShardSignal::Fail
            } else {
                ShardSignal::Ok
            };
            visited.push((si, signal));
            clock.charge(&shard_stats, &self.device, warps);
            extra.merge(&shard_stats);
            let prev = block.set_phase(Phase::ResultMerge);
            for nb in &shard_nb {
                // Scatter-gather merge: per-shard ids are local positions in
                // the gathered point set; map back to global ids and offer to
                // the same k-best list the kernels use.
                list.offer(&mut block, nb.dist, shard.ids[nb.id as usize]);
            }
            block.set_phase(prev);
        }

        block.set_phase(Phase::ResultMerge);
        let neighbors = list.into_sorted();
        let mut stats = block.finish();
        stats.merge(&extra);
        // Like the dynamic-tree engine: many physical launches, one logical
        // query block.
        stats.blocks = 1;
        let skipped = breaker_skips + deadline_skips;
        let outcome = if skipped > 0 {
            // Any shard skipped past the pruning rule makes the answer
            // best-effort — marked, never a silent partial.
            QueryOutcome::DeadlineDegraded {
                visited: visited.len() as u32,
                skipped: skipped as u32,
            }
        } else {
            match (degraded, first_err) {
                (true, Some(first)) => {
                    QueryOutcome::Degraded { first, retry: retry_err.unwrap_or(first) }
                }
                (false, Some(first)) => QueryOutcome::Retried { first },
                (_, None) => QueryOutcome::Clean,
            }
        };
        QueryEffect {
            neighbors,
            stats,
            outcome,
            visited,
            pruned,
            breaker_skips,
            deadline_skips,
            failovers,
            events: events.events,
        }
    }

    /// Takes the replicas that died serving a query out of rotation — the one
    /// change a query makes to the router.
    pub(crate) fn latch(&mut self, failovers: &[FailoverEvent]) {
        for f in failovers {
            self.shards[f.shard].replicas[f.replica].state =
                ReplicaState::Demoted { error: f.error };
        }
    }
}

/// The per-visit verdict [`ShardRouter::execute`] hands the resilience layer
/// for each shard it consulted, in visit order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ShardSignal {
    /// A replica answered with no demotion during the visit.
    Ok,
    /// The visit demoted a replica, or found the whole ladder exhausted.
    Fail,
    /// The shard was consulted without exercising its devices (the
    /// blown-deadline brute rung) — the breaker hears nothing.
    Neutral,
}

/// Everything one query did, as a value: what [`ShardRouter::execute`]
/// returns and the runner commits in submission order.
#[derive(Debug)]
pub(crate) struct QueryEffect {
    pub(crate) neighbors: Vec<Neighbor>,
    pub(crate) stats: KernelStats,
    pub(crate) outcome: QueryOutcome,
    /// Shards consulted, in visit order, with the breaker verdict on each.
    pub(crate) visited: Vec<(usize, ShardSignal)>,
    /// Shards the bound ruled out.
    pub(crate) pruned: Vec<usize>,
    /// Shards routed around because their breaker was open.
    pub(crate) breaker_skips: u64,
    /// Shards skipped because the deadline budget blew.
    pub(crate) deadline_skips: u64,
    /// Replicas that died serving this query, in ladder order: the demotions
    /// [`ShardRouter::latch`] makes.
    pub(crate) failovers: Vec<FailoverEvent>,
    /// The router block's trace events (empty unless the run is traced).
    pub(crate) events: Vec<TraceEvent>,
}

/// Per-batch accumulators, added to at commit in submission order.
pub(crate) struct BatchAcc {
    pub(crate) shard_visits: Vec<u64>,
    pub(crate) shard_prunes: Vec<u64>,
    pub(crate) failovers: Vec<FailoverEvent>,
    /// Counters of the queries that launched, in submission order.
    pub(crate) executed: Vec<KernelStats>,
    retried: u64,
    degraded: u64,
}

impl BatchAcc {
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            shard_visits: vec![0; shards],
            shard_prunes: vec![0; shards],
            failovers: Vec::new(),
            executed: Vec::new(),
            retried: 0,
            degraded: 0,
        }
    }

    pub(crate) fn add(&mut self, effect: &QueryEffect) {
        for &(s, _) in &effect.visited {
            self.shard_visits[s] += 1;
        }
        for &s in &effect.pruned {
            self.shard_prunes[s] += 1;
        }
        self.failovers.extend_from_slice(&effect.failovers);
        self.executed.push(effect.stats);
        self.retried += u64::from(matches!(effect.outcome, QueryOutcome::Retried { .. }));
        self.degraded += u64::from(matches!(effect.outcome, QueryOutcome::Degraded { .. }));
    }

    /// Router-level aggregation over the queries that launched. A batch in
    /// which none did (all rejected or cached) aggregates one zero block so
    /// the cost model has something to price; its counters are all zero.
    pub(crate) fn into_report(self, device: &DeviceConfig, opts: &KernelOptions) -> ServeReport {
        let warps = opts.threads_per_block.div_ceil(device.warp_size).max(1);
        let mut launch = if self.executed.is_empty() {
            launch_blocks(device, warps, &[KernelStats::default()])
        } else {
            launch_blocks(device, warps, &self.executed)
        };
        launch.retried_queries = self.retried;
        launch.degraded_queries = self.degraded;
        ServeReport {
            launch,
            shard_visits: self.shard_visits,
            shard_prunes: self.shard_prunes,
            failovers: self.failovers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_data::UniformSpec;
    use psb_sstree::{BuildMethod, SsTree};

    fn build(ps: &PointSet) -> SsTree {
        psb_sstree::build(ps, 8, &BuildMethod::Hilbert)
    }

    fn router(n: usize, dims: usize, cfg: &ServeConfig) -> (PointSet, ShardRouter<SsTree>) {
        let ps = UniformSpec { len: n, dims, seed: 42 }.generate();
        let r = ShardRouter::build(&ps, cfg, &DeviceConfig::k40(), build);
        (ps, r)
    }

    #[test]
    fn build_provisions_shards_and_replicas() {
        let (ps, r) = router(600, 4, &ServeConfig::new(4).with_replicas(2));
        assert_eq!(r.num_shards(), 4);
        assert_eq!(r.shards.iter().map(|s| s.ids.len()).sum::<usize>(), ps.len());
        for s in 0..4 {
            for rep in 0..2 {
                assert_eq!(r.replica_state(s, rep), ReplicaState::Healthy);
            }
        }
    }

    #[test]
    fn serve_matches_brute_force_oracle() {
        let (ps, mut r) = router(500, 4, &ServeConfig::new(4));
        let queries = UniformSpec { len: 12, dims: 4, seed: 7 }.generate();
        let opts = KernelOptions::default();
        let out = r.serve_batch(&queries, 5, &opts).expect("serve");
        let full = build(&ps);
        for (qi, nb) in out.neighbors.iter().enumerate() {
            let (oracle, _) =
                brute_index_query(&full, queries.point(qi), 5, &DeviceConfig::k40(), &opts);
            assert_eq!(nb, &oracle, "query {qi}");
        }
        assert!(out.outcomes.iter().all(QueryOutcome::is_clean));
        assert!(out.report.failovers.is_empty());
    }

    #[test]
    fn pruning_skips_far_shards_without_wrong_answers() {
        let (_, mut r) = router(800, 4, &ServeConfig::new(8));
        let queries = UniformSpec { len: 40, dims: 4, seed: 8 }.generate();
        let out = r.serve_batch(&queries, 4, &KernelOptions::default()).expect("serve");
        // 8 shards × 40 queries = 320 decisions, every one visit or prune.
        assert_eq!(out.report.shards_visited() + out.report.shards_pruned(), 320);
        assert!(out.report.shards_pruned() > 0, "no shard pruning on uniform data");
        assert!(out.report.prune_rate() > 0.0 && out.report.prune_rate() < 1.0);
    }

    #[test]
    fn prune_rate_is_zero_not_nan_with_no_shard_decisions() {
        // A report whose batch made zero visit/prune decisions (e.g. a router
        // with no shards to decide over) must report 0.0, not 0/0 = NaN.
        let launch = launch_blocks(&DeviceConfig::k40(), 1, &[KernelStats::default()]);
        let report = ServeReport {
            launch,
            shard_visits: vec![0; 4],
            shard_prunes: vec![0; 4],
            failovers: Vec::new(),
        };
        assert_eq!(report.shards_visited(), 0);
        assert_eq!(report.shards_pruned(), 0);
        let rate = report.prune_rate();
        assert!(!rate.is_nan(), "prune_rate must never be NaN");
        assert_eq!(rate, 0.0);
        // And it feeds the registry as a clean 0.0 gauge.
        let reg = psb_metrics::Registry::new();
        report.record_into(&MetricsHandle::attached(&reg));
        let snap = reg.snapshot();
        let gauge = snap.gauges.iter().find(|(k, _)| k == "serve.prune_rate").map(|(_, v)| *v);
        assert_eq!(gauge, Some(0.0));
    }

    #[test]
    fn empty_batch_serve_is_a_typed_error() {
        let (_, mut r) = router(200, 3, &ServeConfig::new(2));
        let empty = PointSet::new(3);
        assert!(matches!(
            r.serve_batch(&empty, 3, &KernelOptions::default()),
            Err(EngineError::EmptyBatch)
        ));
    }

    #[test]
    fn attached_registry_matches_the_report_exactly() {
        // Satellite: the registry is fed from the report (one source of
        // truth), so every counter must equal the report field it came from.
        let (_, mut r) = router(600, 4, &ServeConfig::new(4).with_replicas(2));
        r.set_fault_plan(0, 0, FaultPlan::truncation(1));
        let reg = psb_metrics::Registry::new();
        r.attach_metrics(MetricsHandle::attached(&reg));
        let queries = UniformSpec { len: 10, dims: 4, seed: 17 }.generate();
        let out = r.serve_batch(&queries, 4, &KernelOptions::default()).expect("serve");
        let snap = reg.snapshot();
        let counter = |name: &str| {
            snap.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v).unwrap_or(0)
        };
        for s in 0..4 {
            assert_eq!(
                counter(&format!("serve.shard_visits{{shard=\"{s}\"}}")),
                out.report.shard_visits[s],
                "shard {s} visits"
            );
            assert_eq!(
                counter(&format!("serve.shard_prunes{{shard=\"{s}\"}}")),
                out.report.shard_prunes[s],
                "shard {s} prunes"
            );
        }
        assert_eq!(counter("serve.queries"), queries.len() as u64);
        assert_eq!(counter("serve.failovers"), out.report.failovers.len() as u64);
        assert_eq!(counter("serve.retried_queries"), out.report.launch.retried_queries);
        assert_eq!(counter("serve.degraded_queries"), out.report.launch.degraded_queries);
        assert_eq!(counter("serve.batches"), 1);
        let gauge =
            |name: &str| snap.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v).expect(name);
        assert_eq!(gauge("serve.prune_rate"), out.report.prune_rate());
        // Latency histograms saw every query and the batch.
        let hist = |name: &str| {
            snap.histograms.iter().find(|(k, _)| k == name).map(|(_, h)| *h).expect(name)
        };
        assert_eq!(hist("serve.query_us").count, queries.len() as u64);
        assert_eq!(hist("serve.batch_us").count, 1);
        // The batch span landed in the wall-clock tree.
        assert!(snap.spans.iter().any(|(p, _)| p == "serve"), "missing serve span");
    }

    #[test]
    fn restore_replica_clears_the_latch() {
        let (_, mut r) = router(300, 3, &ServeConfig::new(2).with_replicas(2));
        r.set_fault_plan(0, 0, FaultPlan::truncation(1));
        let queries = UniformSpec { len: 4, dims: 3, seed: 9 }.generate();
        let out = r.serve_batch(&queries, 3, &KernelOptions::default()).expect("serve");
        assert!(matches!(r.replica_state(0, 0), ReplicaState::Demoted { .. }));
        assert_eq!(out.report.failovers.len(), 1, "latched demotion fails over once");
        r.restore_replica(0, 0);
        assert_eq!(r.replica_state(0, 0), ReplicaState::Healthy);
        let again = r.serve_batch(&queries, 3, &KernelOptions::default()).expect("serve");
        assert!(again.report.failovers.is_empty(), "restored replica is healthy again");
    }
}
