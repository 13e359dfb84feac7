//! The resilience front-end: admission control, deadline-aware execution,
//! per-shard circuit breakers, and the exact-result cache, wrapped around a
//! [`ShardRouter`].
//!
//! [`ResilientRouter`] decides *which* queries run (admission + quotas),
//! *how long* they may run (deadline budgets, checked between shard visits),
//! and *what happens* when a shard is sick (circuit breakers that route
//! around it via the MINDIST skip bound). Every submitted query resolves to
//! exactly one typed [`ServeOutcome`]:
//!
//! | outcome                          | exact? | meaning |
//! |----------------------------------|--------|---------|
//! | `Executed(Clean)`                | yes    | answered, no recovery |
//! | `Executed(Retried { .. })`       | yes    | a replica died, a peer answered |
//! | `Executed(Degraded { .. })`      | yes    | ladder exhausted, brute fallback |
//! | `Executed(DeadlineDegraded)`     | marked | shards skipped (deadline/breaker) |
//! | `Rejected(reason)`               | —      | shed at admission, never ran |
//!
//! The golden-parity discipline: [`ResilienceConfig::default`] is fully
//! transparent — unbounded queue, no quotas, breakers disabled, cache off, no
//! deadline — and under it every batch is **bit-identical** to the bare
//! [`ShardRouter`], faults or not. Pressure is always opt-in.

use std::collections::BTreeMap;

use psb_core::{EngineError, GpuIndex, KernelOptions, QueryOutcome};
use psb_geom::PointSet;
use psb_gpu::KernelStats;
use psb_metrics::MetricsHandle;
use psb_sstree::Neighbor;

use crate::admission::{
    AdmissionConfig, BreakerConfig, BreakerState, QuotaConfig, RejectReason, TenantId,
};
use crate::deadline::DeadlineBudget;
use crate::router::{ServeReport, ShardRouter};
use crate::runner::{run_batch, Batch, FrontEnd};

/// Tuning for the whole resilience layer. The default is transparent: the
/// front-end admits everything, runs everything to exact completion, and
/// caches nothing.
#[derive(Clone, Debug, Default)]
pub struct ResilienceConfig {
    /// Submission queue bound and default tenant quota.
    pub admission: AdmissionConfig,
    /// Circuit-breaker tuning applied to every shard
    /// ([`BreakerConfig::disabled`] by default).
    pub breaker: BreakerConfig,
    /// Exact-result cache capacity; 0 disables the cache.
    pub cache_capacity: usize,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline: DeadlineBudget,
}

/// Per-request metadata a caller submits alongside each query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestMeta {
    /// Tenant for quota accounting (0 = default tenant).
    pub tenant: TenantId,
    /// This request's deadline; `None` falls back to
    /// [`ResilienceConfig::default_deadline`].
    pub deadline: Option<DeadlineBudget>,
}

impl RequestMeta {
    /// A request from `tenant` with no deadline of its own.
    pub fn tenant(tenant: TenantId) -> Self {
        Self { tenant, deadline: None }
    }

    /// Sets an explicit deadline for this request.
    pub fn with_deadline(mut self, deadline: DeadlineBudget) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// How one submitted query resolved at the front-end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeOutcome {
    /// The query ran; the inner [`QueryOutcome`] says which recovery rung
    /// answered it. Cache hits surface as `Executed(Clean)` (the cached
    /// answer was exact when computed and has not been flushed since).
    Executed(QueryOutcome),
    /// Shed at admission with a typed reason; the query never executed and
    /// its neighbor list is empty.
    Rejected(RejectReason),
}

impl ServeOutcome {
    /// Whether the answer is exact over the full dataset.
    pub fn is_exact(&self) -> bool {
        matches!(self, ServeOutcome::Executed(o) if o.is_exact())
    }

    /// The recovery rung that answered, unless the query was shed.
    pub(crate) fn executed(&self) -> Option<QueryOutcome> {
        match self {
            ServeOutcome::Executed(outcome) => Some(*outcome),
            ServeOutcome::Rejected(_) => None,
        }
    }
}

/// The five-bucket outcome tally the chaos soak pins:
/// every submitted query lands in exactly one bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutcomeTally {
    /// `Executed(Clean)`.
    pub clean: u64,
    /// `Executed(Retried)`.
    pub retried: u64,
    /// `Executed(Degraded)` — exact via the brute fallback.
    pub degraded: u64,
    /// `Executed(DeadlineDegraded)` — marked best-effort.
    pub deadline_degraded: u64,
    /// `Rejected` at admission.
    pub rejected: u64,
}

impl OutcomeTally {
    /// Buckets a batch's outcomes.
    pub(crate) fn from_outcomes(outcomes: &[ServeOutcome]) -> Self {
        let mut t = Self::default();
        for o in outcomes {
            match o {
                ServeOutcome::Executed(QueryOutcome::Clean) => t.clean += 1,
                ServeOutcome::Executed(QueryOutcome::Retried { .. }) => t.retried += 1,
                ServeOutcome::Executed(QueryOutcome::Degraded { .. }) => t.degraded += 1,
                ServeOutcome::Executed(QueryOutcome::DeadlineDegraded { .. }) => {
                    t.deadline_degraded += 1
                }
                ServeOutcome::Rejected(_) => t.rejected += 1,
            }
        }
        t
    }

    /// Sum over all five buckets — must equal the submitted query count.
    pub fn total(&self) -> u64 {
        self.clean + self.retried + self.degraded + self.deadline_degraded + self.rejected
    }
}

/// Front-end accounting for one batch, alongside the router-level
/// [`ServeReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Queries submitted (admitted + rejected).
    pub submitted: u64,
    /// Queries past admission (executed or cache-served).
    pub admitted: u64,
    /// Shed by the queue bound.
    pub rejected_queue: u64,
    /// Shed by a tenant quota.
    pub rejected_quota: u64,
    /// Answered from the exact-result cache without touching the router.
    pub cache_hits: u64,
    /// Queries that resolved to the marked best-effort rung.
    pub deadline_degraded: u64,
    /// Shard visits skipped because a breaker was open (batch total).
    pub breaker_skips: u64,
    /// Shard visits skipped because a deadline blew (batch total).
    pub deadline_skips: u64,
    /// Breaker open transitions during this batch.
    pub breaker_opened: u64,
    /// Deepest the submission queue got during this batch.
    pub peak_queue_depth: usize,
}

/// Results plus both accounting layers for one batch through the front-end.
#[derive(Clone, Debug)]
pub struct ResilientBatchResult {
    /// Per-query neighbor lists; empty for rejected queries.
    pub neighbors: Vec<Vec<Neighbor>>,
    /// Per-query counters; all-zero for rejected queries and cache hits.
    pub per_query: Vec<KernelStats>,
    /// Exactly one typed outcome per submitted query.
    pub outcomes: Vec<ServeOutcome>,
    /// Router-level accounting over the executed queries.
    pub report: ServeReport,
    /// Front-end accounting.
    pub resilience: ResilienceReport,
}

impl ResilientBatchResult {
    /// The five-bucket outcome tally for this batch.
    pub fn tally(&self) -> OutcomeTally {
        OutcomeTally::from_outcomes(&self.outcomes)
    }
}

/// The resilience front-end around a [`ShardRouter`].
pub struct ResilientRouter<T> {
    router: ShardRouter<T>,
    front: FrontEnd,
    metrics: MetricsHandle,
}

impl<T: GpuIndex> ResilientRouter<T> {
    /// Wraps `router` under `cfg`. The wrapped router's shards each get one
    /// breaker.
    pub fn new(router: ShardRouter<T>, cfg: ResilienceConfig) -> Self {
        let front = FrontEnd::new(router.num_shards(), &cfg);
        Self { router, front, metrics: MetricsHandle::noop() }
    }

    /// The wrapped router.
    pub fn inner(&self) -> &ShardRouter<T> {
        &self.router
    }

    /// The wrapped router, mutably — fault plans and replica restores go
    /// through here.
    pub fn inner_mut(&mut self) -> &mut ShardRouter<T> {
        &mut self.router
    }

    /// Attaches a metrics registry: queue depth gauges, shed/deadline-miss
    /// counters, per-tenant latency histograms, plus everything the wrapped
    /// report records.
    pub fn attach_metrics(&mut self, metrics: MetricsHandle) {
        self.metrics = metrics;
    }

    /// Sets (or replaces) one tenant's token-bucket quota.
    pub fn set_quota(&mut self, tenant: TenantId, quota: QuotaConfig) {
        self.front.admission.set_quota(tenant, quota);
    }

    /// Current state of shard `s`'s breaker.
    pub fn breaker_state(&self, s: usize) -> BreakerState {
        self.front.breakers[s].state()
    }

    /// The logical tick clock (one tick per submitted query).
    pub fn tick(&self) -> u64 {
        self.front.tick
    }

    /// `(hits, misses, evictions, invalidations)` of the exact-result cache.
    pub fn cache_stats(&self) -> (u64, u64, u64, u64) {
        self.front.cache.stats()
    }

    /// Drops every cached result. The static router's dataset never mutates,
    /// so this only matters after operator interventions (replacing the
    /// wrapped router's fault plans is harmless — results are exact either
    /// way); [`DynamicShardRouter`](crate::DynamicShardRouter)'s removes
    /// flush the same way.
    pub fn invalidate_cache(&mut self) {
        self.front.cache.flush();
    }

    /// Serves one batch through admission → cache → constrained router.
    ///
    /// `requests` carries per-query tenant and deadline; pass `&[]` for
    /// all-default metadata, otherwise it must be one entry per query.
    ///
    /// Every decision is taken in submission order, one logical tick per
    /// query, so quota refills, breaker transitions and replica demotions are
    /// deterministic — but the cache misses of a batch *execute* together,
    /// in parallel on the rayon pool, ahead of their turn (`crate::runner`):
    /// each is committed only if what it ran under still holds when its turn
    /// comes, and runs again if not. Results, both reports and all front-end
    /// state are those of the one-query-at-a-time loop at any thread count;
    /// with a breaker away from `Closed` the batch *is* that loop.
    pub fn serve_batch(
        &mut self,
        queries: &PointSet,
        k: usize,
        opts: &KernelOptions,
        requests: &[RequestMeta],
    ) -> Result<ResilientBatchResult, EngineError> {
        self.serve_windowed(queries, k, opts, requests, usize::MAX)
    }

    /// [`ResilientRouter::serve_batch`] looking at most `window` queries
    /// ahead of the one it is committing (`1` = strictly one at a time).
    pub(crate) fn serve_windowed(
        &mut self,
        queries: &PointSet,
        k: usize,
        opts: &KernelOptions,
        requests: &[RequestMeta],
        window: usize,
    ) -> Result<ResilientBatchResult, EngineError> {
        let m = &self.metrics;
        let _span = m.span("resilient_serve");
        let batch = Batch { queries, k, opts, requests };
        let run =
            run_batch(&mut self.router, &mut self.front, &batch, None, m.is_attached(), window)?;
        let res = run.resilience;
        let report = run.acc.into_report(self.router.device(), opts);

        if m.is_attached() {
            // One label per tenant per batch, not one per query.
            let mut labels: BTreeMap<TenantId, String> = BTreeMap::new();
            for &(qi, us) in &run.latencies_us {
                let tenant = batch.meta(qi).tenant;
                let label = labels
                    .entry(tenant)
                    .or_insert_with(|| format!("serve.tenant_us{{tenant=\"{tenant}\"}}"));
                m.observe(label, us);
            }
            report.record_into(m);
            m.counter("serve.submitted", res.submitted);
            m.counter("serve.admitted", res.admitted);
            m.counter("serve.shed_queue", res.rejected_queue);
            m.counter("serve.shed_quota", res.rejected_quota);
            m.counter("serve.cache_hits", res.cache_hits);
            m.counter("serve.deadline_miss", res.deadline_degraded);
            m.counter("serve.breaker_skips", res.breaker_skips);
            m.counter("serve.deadline_skips", res.deadline_skips);
            m.counter("serve.breaker_opened", res.breaker_opened);
            m.counter("serve.discarded_executions", run.discarded as u64);
            m.gauge("serve.queue_depth", self.front.admission.depth() as f64);
            m.gauge("serve.queue_peak_depth", res.peak_queue_depth as f64);
        }

        Ok(ResilientBatchResult {
            neighbors: run.neighbors,
            per_query: run.per_query,
            outcomes: run.outcomes,
            report,
            resilience: res,
        })
    }
}
