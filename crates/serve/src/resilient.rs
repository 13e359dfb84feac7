//! The resilience front-end: admission control, deadline-aware execution
//! and per-shard circuit breakers, wrapped around a [`ShardRouter`] whose
//! exact-result cache its batches probe and fill.
//!
//! [`ResilientRouter`] decides *which* queries run (a per-batch admission
//! bound + quotas), *how long* they may run (deadline budgets, checked
//! between shard visits), and *what happens* when a shard is sick (circuit
//! breakers that route around it via the MINDIST skip bound). Every submitted
//! query resolves to exactly one typed [`ServeOutcome`]:
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
//! transparent — unbounded batches, no quotas, breakers disabled, cache off,
//! no deadline — and under it every batch is **bit-identical** to the bare
//! [`ShardRouter`], faults or not. Pressure is always opt-in.

use psb_core::{EngineError, KernelOptions, QueryOutcome};
use psb_geom::PointSet;
use psb_gpu::KernelStats;
use psb_sstree::{FlatTree, Neighbor, Volumes};

use crate::admission::{BreakerConfig, BreakerState, QuotaConfig, RejectReason, TenantId};
use crate::deadline::DeadlineBudget;
use crate::router::{ServeReport, ShardIndex, ShardRouter};
use crate::runner::{serve, Batch, FrontEnd};

/// Tuning for the whole resilience layer. The default is transparent: the
/// front-end admits everything, runs everything to exact completion, and
/// caches nothing.
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// Most queries one batch admits; the rest of the batch is shed with
    /// [`RejectReason::QueueFull`] before its tenants' buckets are asked.
    /// `usize::MAX` = unbounded. Quotas are per tenant
    /// ([`ResilientRouter::set_quota`]).
    pub queue_capacity: usize,
    /// Circuit-breaker tuning applied to every shard
    /// ([`BreakerConfig::disabled`] by default).
    pub breaker: BreakerConfig,
    /// Capacity of the router's exact-result cache; above 0,
    /// [`ResilientRouter::new`] sizes it through
    /// [`ShardRouter::attach_cache`], and 0 leaves it as the router had it
    /// (disabled unless the caller attached one).
    pub cache_capacity: usize,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline: DeadlineBudget,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: usize::MAX,
            breaker: BreakerConfig::disabled(),
            cache_capacity: 0,
            default_deadline: DeadlineBudget::None,
        }
    }
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
    /// Shed by the batch's admission bound.
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

/// The resilience front-end around a [`ShardRouter`]. It keeps admission,
/// breakers and the tick; the result cache and the telemetry handle are the
/// router's.
pub struct ResilientRouter<T: ShardIndex> {
    router: ShardRouter<T>,
    front: FrontEnd,
}

impl<V: Volumes> ResilientRouter<FlatTree<V>> {
    /// Wraps `router` under `cfg`. The wrapped router's shards each get one
    /// breaker, and a `cfg.cache_capacity` above 0 sizes the router's result
    /// cache ([`ShardRouter::attach_cache`]).
    pub fn new(mut router: ShardRouter<FlatTree<V>>, cfg: ResilienceConfig) -> Self {
        if cfg.cache_capacity > 0 {
            router.attach_cache(cfg.cache_capacity);
        }
        let front = FrontEnd::new(router.num_shards(), &cfg);
        Self { router, front }
    }

    /// The wrapped router.
    pub fn inner(&self) -> &ShardRouter<FlatTree<V>> {
        &self.router
    }

    /// The wrapped router, mutably — fault plans, replica restores, writes
    /// and telemetry ([`ShardRouter::attach_metrics`]) go through here.
    /// Writes keep the cached answers exact by the router's rule: an insert
    /// is folded into them, a remove drops them.
    pub fn inner_mut(&mut self) -> &mut ShardRouter<FlatTree<V>> {
        &mut self.router
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

    /// `(hits, misses, evictions, invalidations)` of the router's result
    /// cache ([`ShardRouter::cache_stats`]).
    pub fn cache_stats(&self) -> (u64, u64, u64, u64) {
        self.router.cache_stats()
    }

    /// Drops every cached result. A write through
    /// [`ResilientRouter::inner_mut`] needs no call: the router keeps its
    /// cache exact under writes itself.
    pub fn invalidate_cache(&mut self) {
        self.router.cache_mut().flush();
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
    ///
    /// `opts.metrics` is not read: the shard launches record nothing, and
    /// the batch records into the router's own handle
    /// ([`ShardRouter::attach_metrics`], through
    /// [`ResilientRouter::inner_mut`]).
    pub fn serve_batch(
        &mut self,
        queries: &PointSet,
        k: usize,
        opts: &KernelOptions,
        requests: &[RequestMeta],
    ) -> Result<ResilientBatchResult, EngineError> {
        let batch = Batch { queries, k, opts, requests, cached: true };
        serve(&mut self.router, &mut self.front, &batch, None, usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ServeConfig;
    use psb_data::UniformSpec;
    use psb_gpu::{DeviceConfig, FaultPlan};
    use psb_metrics::{MetricsHandle, Registry};
    use psb_sstree::{BuildMethod, SsTree};

    const K: usize = 4;

    /// 600 uniform 4-d points over four shards of two replicas, behind a
    /// front end under `cfg`.
    fn fronted(cfg: ResilienceConfig) -> (PointSet, ResilientRouter<SsTree>) {
        let ps = UniformSpec { len: 600, dims: 4, seed: 42 }.generate();
        let serve = ServeConfig::new(4).with_replicas(2);
        let router = ShardRouter::build(&ps, &serve, &DeviceConfig::k40(), |ps| {
            psb_sstree::build(ps, 8, &BuildMethod::Hilbert)
        });
        (ps, ResilientRouter::new(router, cfg))
    }

    fn cached(capacity: usize) -> ResilienceConfig {
        ResilienceConfig { cache_capacity: capacity, ..ResilienceConfig::default() }
    }

    fn one(q: &[f32]) -> PointSet {
        let mut queries = PointSet::new(q.len());
        queries.push(q);
        queries
    }

    /// The front end records through the router's handle, from the report
    /// it returns: every counter equals its `ResilienceReport` field, and
    /// every admitted query — hit or miss — is one latency, once overall and
    /// once under its tenant.
    #[test]
    fn attached_registry_matches_the_resilience_report_exactly() {
        let (ps, mut front) = fronted(cached(8));
        front.inner_mut().set_fault_plan(0, 0, FaultPlan::truncation(1));
        front.set_quota(7, QuotaConfig { burst: 2, refill_per_tick: 0 });
        let reg = Registry::new();
        front.inner_mut().attach_metrics(MetricsHandle::attached(&reg));
        let mut queries = PointSet::new(ps.dims());
        let mut requests = Vec::new();
        for (i, p) in [0, 150, 300, 0, 150, 450, 0, 599, 300, 450, 0, 150].into_iter().enumerate() {
            queries.push(ps.point(p));
            let meta = RequestMeta::tenant(if i % 3 == 1 { 7 } else { 0 });
            requests.push(if i == 5 {
                meta.with_deadline(DeadlineBudget::Cycles(0))
            } else {
                meta
            });
        }
        let out = front
            .serve_batch(&queries, K, &KernelOptions::default(), &requests)
            .expect("a non-empty batch over four shards");
        let res = out.resilience;
        assert!(res.cache_hits > 0, "{res:?}");
        assert!(res.rejected_quota > 0, "{res:?}");
        assert!(res.deadline_degraded > 0, "{res:?}");
        assert!(!out.report.failovers.is_empty(), "the primary of shard 0 must die");

        let snap = reg.snapshot();
        let counter =
            |name: &str| snap.counters.iter().find(|(key, _)| key == name).map_or(0, |(_, v)| *v);
        let fields = [
            ("serve.submitted", res.submitted),
            ("serve.admitted", res.admitted),
            ("serve.shed_queue", res.rejected_queue),
            ("serve.shed_quota", res.rejected_quota),
            ("serve.cache_hits", res.cache_hits),
            ("serve.deadline_miss", res.deadline_degraded),
            ("serve.breaker_skips", res.breaker_skips),
            ("serve.deadline_skips", res.deadline_skips),
            ("serve.breaker_opened", res.breaker_opened),
            ("serve.failovers", out.report.failovers.len() as u64),
            ("serve.queries", out.report.launch.merged.blocks),
            ("serve.batches", 1),
        ];
        for (name, want) in fields {
            assert_eq!(counter(name), want, "{name}");
        }
        // Neither the depth nor the peak depth of a queue: admission models none.
        assert!(
            !snap.gauges.iter().any(|(key, _)| key.starts_with("serve.queue")),
            "{:?}",
            snap.gauges
        );
        let count = |name: &str| {
            snap.histograms.iter().find(|(key, _)| key == name).map_or(0, |(_, h)| h.count)
        };
        assert_eq!(count("serve.query_us"), res.admitted);
        let per_tenant: u64 = snap
            .histograms
            .iter()
            .filter(|(key, _)| key.starts_with("serve.tenant_us{"))
            .map(|(_, h)| h.count)
            .sum();
        assert_eq!(per_tenant, res.admitted);
        assert_eq!(count("serve.batch_us"), 1);
        assert!(snap.spans.iter().any(|(path, _)| path == "serve"), "missing serve span");

        // A batch without request metadata has no tenants to file under.
        front.serve_batch(&queries, K, &KernelOptions::default(), &[]).expect("serve");
        let again = reg.snapshot();
        let per_tenant_now: u64 = again
            .histograms
            .iter()
            .filter(|(key, _)| key.starts_with("serve.tenant_us{"))
            .map(|(_, h)| h.count)
            .sum();
        assert_eq!(per_tenant_now, per_tenant);
    }

    /// A batch the bound cuts files what it shed under `serve.shed_queue`,
    /// and only what it admitted under `serve.admitted` and `serve.query_us`.
    #[test]
    fn a_batch_cut_by_the_bound_records_its_sheds() {
        let (ps, mut front) = fronted(ResilienceConfig { queue_capacity: 5, ..cached(8) });
        let reg = Registry::new();
        front.inner_mut().attach_metrics(MetricsHandle::attached(&reg));
        let mut queries = PointSet::new(ps.dims());
        for p in 0..12 {
            queries.push(ps.point(p * 50));
        }
        let out = front
            .serve_batch(&queries, K, &KernelOptions::default(), &[])
            .expect("a non-empty batch over four shards");
        let res = out.resilience;
        assert_eq!((res.admitted, res.rejected_queue), (5, 7), "{res:?}");

        let snap = reg.snapshot();
        let counter =
            |name: &str| snap.counters.iter().find(|(key, _)| key == name).map_or(0, |(_, v)| *v);
        assert_eq!(counter("serve.shed_queue"), res.rejected_queue);
        assert_eq!(counter("serve.admitted"), res.admitted);
        let latencies = snap.histograms.iter().find(|(key, _)| key == "serve.query_us");
        assert_eq!(latencies.map(|(_, h)| h.count), Some(res.admitted));
    }

    /// One cache: an answer a resilient batch files is a hit for the
    /// router's `knn`, and the reverse; a bare batch passes it by.
    #[test]
    fn a_resilient_batch_and_knn_share_one_cache() {
        let (ps, mut front) = fronted(cached(8));
        let opts = KernelOptions::default();
        let filed = front.serve_batch(&one(ps.point(3)), K, &opts, &[]).expect("serve");
        assert_eq!(front.cache_stats(), (0, 1, 0, 0), "the batch missed and filed");
        assert_eq!(front.inner().knn(ps.point(3), K), filed.neighbors[0]);
        assert_eq!(front.cache_stats(), (1, 1, 0, 0), "knn hit the batch's answer");

        let want = front.inner().knn(ps.point(9), K);
        assert_eq!(front.cache_stats(), (1, 2, 0, 0), "knn missed and filed");
        let hit = front.serve_batch(&one(ps.point(9)), K, &opts, &[]).expect("serve");
        assert_eq!(hit.resilience.cache_hits, 1, "the batch hit knn's answer");
        assert_eq!(hit.neighbors[0], want);
        assert_eq!(front.cache_stats(), (2, 2, 0, 0));

        let bare = front.inner_mut().serve_batch(&one(ps.point(9)), K, &opts).expect("serve");
        assert_eq!(bare.neighbors[0], want);
        assert_eq!(bare.report.launch.merged.blocks, 1, "the bare batch executed");
        assert_eq!(front.cache_stats(), (2, 2, 0, 0), "and consulted no cache");
    }
}
