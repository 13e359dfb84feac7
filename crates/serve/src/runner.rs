//! The one serve runner: plan → execute → commit, then one epilogue.
//!
//! Both batch entry points — [`ShardRouter::serve_batch_traced`] behind a
//! transparent front-end, [`ResilientRouter::serve_batch`](crate::ResilientRouter::serve_batch)
//! behind a configured one — are [`serve`]: this loop, then one record of the
//! batch. The loop walks the batch in submission order and, per query, does
//! exactly what a one-at-a-time server does: tick, admission, probe of the
//! router's cache, breaker mask, execution, breaker feed, cache fill (a bare
//! batch passes the cache by). The only liberty it takes is *when* the
//! execution happens:
//!
//! * **Plan.** Ticks, admission and quotas depend on the submission order
//!   alone, never on an answer, so they are settled for the whole batch up
//!   front. At the first query that really misses the cache the runner plays
//!   the cache's eviction hand forward over the admitted queries ahead — hits
//!   mark, misses evict and insert ([`QueryCache::predict_misses`]) — and
//!   picks the ones that will have to run.
//! * **Execute.** Those run in one `par_iter` region against the shared
//!   `&ShardRouter` ([`ShardRouter::execute`] reads the router and returns
//!   the query's whole effect as a value), with an all-clear breaker mask.
//! * **Commit.** Back in submission order every query still goes through the
//!   real cache probe and the real breaker mask; a result executed ahead is
//!   used only if its inputs still hold — the probe missed, the mask is still
//!   all-clear, and no replica was demoted since it ran (a demotion drops
//!   everything executed ahead). Otherwise the query runs again, now, with
//!   the inputs it really has. An answer depends on the query, the mask, the
//!   deadline budget and the replica states only (fault substreams are keyed
//!   on the batch-local index), so a result that passes is the result the
//!   one-at-a-time loop would have computed.
//!
//! A plan is therefore a guess about which executions are worth doing early,
//! never an input to a result: a wrong guess (a non-exact answer that is not
//! cached after all, a breaker that trips mid-batch) costs a discarded or a
//! late execution, and every output and all router and front-end state are
//! bit-identical to the strictly sequential loop — which is this loop with a
//! window of one — at any thread count. Nothing is executed ahead while any
//! breaker is away from `Closed`: the masks ahead are then not predictable.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use psb_core::{EngineError, KernelOptions, QueryOutcome};
use psb_geom::PointSet;
use psb_gpu::{KernelStats, TraceSink};
use psb_sstree::{FlatTree, Neighbor, Volumes};
use rayon::prelude::*;

use crate::admission::{
    AdmissionControl, BreakerState, CacheKey, CircuitBreaker, QueryCache, RejectReason, TenantId,
};
use crate::deadline::DeadlineBudget;
use crate::resilient::{
    RequestMeta, ResilienceConfig, ResilienceReport, ResilientBatchResult, ServeOutcome,
};
use crate::router::{BatchAcc, QueryEffect, ShardRouter, ShardSignal};

/// The state in front of a router: admission, breakers and the logical
/// clock; the result cache and the telemetry handle are the router's.
/// [`ResilienceConfig::default`] makes it transparent.
pub(crate) struct FrontEnd {
    pub(crate) admission: AdmissionControl,
    pub(crate) breakers: Vec<CircuitBreaker>,
    default_deadline: DeadlineBudget,
    /// Logical clock: one tick per submitted query, across batches.
    pub(crate) tick: u64,
}

impl FrontEnd {
    /// A front-end for `shards` shards (one breaker each) under `cfg`.
    pub(crate) fn new(shards: usize, cfg: &ResilienceConfig) -> Self {
        Self {
            admission: AdmissionControl::new(cfg.queue_capacity),
            breakers: (0..shards).map(|_| CircuitBreaker::new(cfg.breaker)).collect(),
            default_deadline: cfg.default_deadline,
            tick: 0,
        }
    }

    fn opened_total(&self) -> u64 {
        self.breakers.iter().map(CircuitBreaker::opened_total).sum()
    }
}

/// One batch as submitted.
pub(crate) struct Batch<'a> {
    pub(crate) queries: &'a PointSet,
    pub(crate) k: usize,
    pub(crate) opts: &'a KernelOptions,
    /// Per-query tenant and deadline: empty (all default) or one per query.
    pub(crate) requests: &'a [RequestMeta],
    /// Whether the batch probes and fills the router's result cache.
    pub(crate) cached: bool,
}

impl Batch<'_> {
    pub(crate) fn meta(&self, qi: usize) -> RequestMeta {
        self.requests.get(qi).copied().unwrap_or_default()
    }
}

/// What [`run_batch`] hands back: per-query results plus both accounting
/// layers, for [`serve`] to record and return.
pub(crate) struct BatchRun {
    pub(crate) neighbors: Vec<Vec<Neighbor>>,
    pub(crate) per_query: Vec<KernelStats>,
    pub(crate) outcomes: Vec<ServeOutcome>,
    pub(crate) acc: BatchAcc,
    pub(crate) resilience: ResilienceReport,
    /// `(query, µs)` for every admitted query of a `timed` run: a cache hit's
    /// probe on the caller, a miss's execution on the thread that ran it.
    pub(crate) latencies_us: Vec<(usize, f64)>,
    /// Executions done ahead and never committed: the price of the guesses
    /// that were wrong.
    pub(crate) discarded: usize,
}

/// A query executed ahead of its commit: index, effect, execution µs.
type Ahead = (usize, QueryEffect, f64);

/// Serves one batch through `front` and `router` — [`run_batch`] under the
/// span `serve` — and records it into the router's telemetry handle, the one
/// record both entry points make: `serve.query_us` per admitted query (and
/// `serve.tenant_us{tenant}` when the batch carries [`RequestMeta`]),
/// `serve.batch_us`, `serve.batches`, `serve.discarded_executions`, the
/// report ([`ServeReport::record_into`](crate::ServeReport::record_into)) and
/// the front end's counters. A detached handle reads no clock.
pub(crate) fn serve<V: Volumes>(
    router: &mut ShardRouter<FlatTree<V>>,
    front: &mut FrontEnd,
    batch: &Batch<'_>,
    sink: Option<&mut dyn TraceSink>,
    window: usize,
) -> Result<ResilientBatchResult, EngineError> {
    // The runner borrows the router mutably: a clone of the handle is two words.
    let m = router.metrics.clone();
    let started = m.is_attached().then(Instant::now);
    let _span = m.span("serve");
    let run = run_batch(router, front, batch, sink, started.is_some(), window)?;
    let report = m.time("aggregate", || run.acc.into_report(router.device(), batch.opts));
    let res = run.resilience;
    if let Some(t0) = started {
        // One label per tenant per batch, not one per query.
        let mut tenants: BTreeMap<TenantId, String> = BTreeMap::new();
        for &(qi, us) in &run.latencies_us {
            m.observe("serve.query_us", us);
            if !batch.requests.is_empty() {
                let tenant = batch.meta(qi).tenant;
                let label = tenants
                    .entry(tenant)
                    .or_insert_with(|| format!("serve.tenant_us{{tenant=\"{tenant}\"}}"));
                m.observe(label, us);
            }
        }
        m.observe("serve.batch_us", t0.elapsed().as_secs_f64() * 1e6);
        m.counter("serve.batches", 1);
        m.counter("serve.discarded_executions", run.discarded as u64);
        report.record_into(&m);
        m.counter("serve.submitted", res.submitted);
        m.counter("serve.admitted", res.admitted);
        m.counter("serve.shed_queue", res.rejected_queue);
        m.counter("serve.shed_quota", res.rejected_quota);
        m.counter("serve.cache_hits", res.cache_hits);
        m.counter("serve.deadline_miss", res.deadline_degraded);
        m.counter("serve.breaker_skips", res.breaker_skips);
        m.counter("serve.deadline_skips", res.deadline_skips);
        m.counter("serve.breaker_opened", res.breaker_opened);
    }
    Ok(ResilientBatchResult {
        neighbors: run.neighbors,
        per_query: run.per_query,
        outcomes: run.outcomes,
        report,
        resilience: res,
    })
}

/// Runs one batch through `front` and `router`, looking at most `window`
/// queries ahead of the one being committed (`1` is the strictly sequential
/// loop). See the module docs for why the window never shows in a result.
pub(crate) fn run_batch<V: Volumes>(
    router: &mut ShardRouter<FlatTree<V>>,
    front: &mut FrontEnd,
    batch: &Batch<'_>,
    mut sink: Option<&mut dyn TraceSink>,
    timed: bool,
    window: usize,
) -> Result<BatchRun, EngineError> {
    let Batch { queries, k, .. } = *batch;
    let shards = router.num_shards();
    if shards == 0 {
        return Err(EngineError::NoShards);
    }
    if queries.is_empty() {
        return Err(EngineError::EmptyBatch);
    }
    assert!(k >= 1, "k must be at least 1");
    assert!(
        batch.requests.is_empty() || batch.requests.len() == queries.len(),
        "requests must be empty or one per query"
    );
    assert_eq!(queries.dims(), router.dims(), "query dimensionality mismatch");
    let cached = batch.cached && router.cache_mut().is_enabled();
    let n = queries.len();
    let traced = sink.is_some();
    let mut res = ResilienceReport { submitted: n as u64, ..Default::default() };
    let opened_before = front.opened_total();

    // Plan, the part that needs no answers: one tick per query, the batch
    // bound, the tenant's bucket.
    let first_tick = front.tick + 1;
    let admitted = front.admission.admit_batch((0..n).map(|qi| batch.meta(qi).tenant), first_tick);
    front.tick += n as u64;
    let mut keys: Vec<Option<CacheKey>> = (0..n)
        .map(|qi| (cached && admitted[qi].is_ok()).then(|| CacheKey::new(queries.point(qi), k)))
        .collect();

    let mut neighbors = Vec::with_capacity(n);
    let mut per_query = Vec::with_capacity(n);
    let mut outcomes = Vec::with_capacity(n);
    let mut latencies_us = Vec::new();
    let mut acc = BatchAcc::new(shards);
    let mut skip = vec![false; shards];
    // Executed ahead and still uncommitted, ascending by query.
    let mut ahead: VecDeque<Ahead> = VecDeque::new();
    // Queries below this index have been looked at by a plan.
    let mut planned_to = 0;
    let mut discarded = 0;

    for qi in 0..n {
        let tick = first_tick + qi as u64;
        if let Err(reason) = admitted[qi] {
            match reason {
                RejectReason::QueueFull { .. } => res.rejected_queue += 1,
                RejectReason::QuotaExhausted { .. } => res.rejected_quota += 1,
            }
            neighbors.push(Vec::new());
            per_query.push(KernelStats::default());
            outcomes.push(ServeOutcome::Rejected(reason));
            continue;
        }
        res.admitted += 1;
        let probe_started = timed.then(Instant::now);

        // Exact-result cache.
        if let Some(hit) = keys[qi].as_ref().and_then(|key| router.cache_mut().get(key)) {
            neighbors.push(hit);
            per_query.push(KernelStats::default());
            outcomes.push(ServeOutcome::Executed(QueryOutcome::Clean));
            res.cache_hits += 1;
            if let Some(t0) = probe_started {
                latencies_us.push((qi, t0.elapsed().as_secs_f64() * 1e6));
            }
            continue;
        }

        // Breaker skip mask, then the execution: one done ahead if its inputs
        // held, else now.
        for (s, slot) in skip.iter_mut().enumerate() {
            *slot = !front.breakers[s].allows(tick);
        }
        let routed_around = skip.contains(&true);
        while ahead.front().is_some_and(|done| done.0 < qi) {
            ahead.pop_front(); // planned as a miss, hit after all — or routed around
            discarded += 1;
        }
        let ready = if routed_around { None } else { ahead.pop_front_if(|done| done.0 == qi) };
        let (_, effect, us) = match ready {
            Some(done) => done,
            None => {
                // Inside an earlier plan's range this query was expected to
                // hit: it runs alone, and the rest of that plan stands.
                let speculate = !routed_around
                    && qi >= planned_to
                    && front.breakers.iter().all(|b| b.state() == BreakerState::Closed);
                let end = if speculate { n.min(qi.saturating_add(window)) } else { qi + 1 };
                planned_to = planned_to.max(end);
                let cache = cached.then_some(&*router.cache_mut());
                let todo = plan(cache, &admitted, &keys, qi, end);
                let deadline = front.default_deadline;
                let mut done =
                    execute(router, batch, deadline, &skip, &todo, traced, timed).into_iter();
                let Some(now) = done.next() else {
                    unreachable!("a plan starts with the query in hand");
                };
                ahead.extend(done);
                now
            }
        };

        // Commit: latch demotions, feed the breakers, fill the cache, add
        // the accumulators.
        if !effect.failovers.is_empty() {
            router.latch(&effect.failovers);
            discarded += ahead.len();
            ahead.clear();
            planned_to = qi + 1;
        }
        for &(s, signal) in &effect.visited {
            match signal {
                ShardSignal::Ok => front.breakers[s].on_success(),
                ShardSignal::Fail => front.breakers[s].on_failure(tick),
                ShardSignal::Neutral => {}
            }
        }
        res.breaker_skips += effect.breaker_skips;
        res.deadline_skips += effect.deadline_skips;
        acc.add(&effect);
        if let Some(sink) = sink.as_deref_mut() {
            for &event in &effect.events {
                sink.record(event);
            }
        }
        if !effect.outcome.is_exact() {
            res.deadline_degraded += 1;
        } else if let Some(key) = keys[qi].take() {
            // Only exact answers are cacheable.
            router.cache_mut().insert(key, &effect.neighbors);
        }
        neighbors.push(effect.neighbors);
        per_query.push(effect.stats);
        outcomes.push(ServeOutcome::Executed(effect.outcome));
        if timed {
            latencies_us.push((qi, us));
        }
    }

    res.breaker_opened = front.opened_total() - opened_before;
    discarded += ahead.len();
    Ok(BatchRun { neighbors, per_query, outcomes, acc, resilience: res, latencies_us, discarded })
}

/// The queries of `from..end` worth executing now: `from` itself (its probe
/// just missed) and every admitted query after it whose probe will miss if
/// each execution comes back exact and is cached — every admitted one when
/// the batch probes no `cache`.
fn plan(
    cache: Option<&QueryCache>,
    admitted: &[Result<(), RejectReason>],
    keys: &[Option<CacheKey>],
    from: usize,
    end: usize,
) -> Vec<usize> {
    let candidates = (from..end).filter(|&qi| admitted[qi].is_ok());
    let Some(cache) = cache else {
        return candidates.collect();
    };
    let (at, probes): (Vec<usize>, Vec<&CacheKey>) =
        candidates.filter_map(|qi| keys[qi].as_ref().map(|key| (qi, key))).unzip();
    cache.predict_misses(probes).into_iter().map(|miss| at[miss]).collect()
}

/// Executes `todo` in one parallel region against the shared router, results
/// in `todo` order. Execution is timed on the thread that does it.
fn execute<V: Volumes>(
    router: &ShardRouter<FlatTree<V>>,
    batch: &Batch<'_>,
    default_deadline: DeadlineBudget,
    skip: &[bool],
    todo: &[usize],
    traced: bool,
    timed: bool,
) -> Vec<Ahead> {
    todo.par_iter()
        .map(|&qi| {
            let started = timed.then(Instant::now);
            let budget = batch.meta(qi).deadline.unwrap_or(default_deadline);
            let q = batch.queries.point(qi);
            let effect = router.execute(qi, q, batch.k, batch.opts, skip, budget, traced);
            (qi, effect, started.map_or(0.0, |t0| t0.elapsed().as_secs_f64() * 1e6))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{BreakerConfig, QuotaConfig};
    use crate::router::{ReplicaState, ServeConfig};
    use psb_core::shard::{partition, ShardPolicy};
    use psb_data::ClusteredSpec;
    use psb_gpu::{DeviceConfig, FaultPlan, VecSink};
    use psb_sstree::{BuildMethod, SsTree};

    const K: usize = 5;
    const SHARDS: usize = 4;
    const POLICY: ShardPolicy = ShardPolicy::KMeans { seed: 3 };

    /// Two batches of one stream against a router with faults armed, behind
    /// a configured front-end.
    struct Case {
        points: PointSet,
        /// `owned[s]`: the data points of shard `s` — queries that stay home.
        owned: Vec<Vec<u32>>,
        faults: Vec<(usize, usize, FaultPlan)>,
        cfg: ResilienceConfig,
        quota: Option<(u32, QuotaConfig)>,
        queries: PointSet,
        requests: Vec<RequestMeta>,
    }

    impl Case {
        fn new(cfg: ResilienceConfig) -> Self {
            let points = ClusteredSpec {
                clusters: 8,
                points_per_cluster: 200,
                dims: 4,
                sigma: 60.0,
                seed: 71,
            }
            .generate();
            let owned = partition(&points, SHARDS, &POLICY).assignments;
            Self {
                queries: PointSet::new(points.dims()),
                points,
                owned,
                faults: Vec::new(),
                cfg,
                quota: None,
                requests: Vec::new(),
            }
        }

        /// The `nth` data point of shard `s`.
        fn home(&self, s: usize, nth: usize) -> Vec<f32> {
            self.points.point(self.owned[s][nth * 31 % self.owned[s].len()] as usize).to_vec()
        }

        /// Halfway between two shards: needs both, so a budget below one
        /// shard visit leaves it marked.
        fn between(&self, a: usize, b: usize) -> Vec<f32> {
            self.home(a, 0).iter().zip(self.home(b, 0)).map(|(x, y)| (x + y) / 2.0).collect()
        }

        fn push(&mut self, q: &[f32], meta: RequestMeta) {
            self.queries.push(q);
            self.requests.push(meta);
        }

        fn router(&self) -> ShardRouter<SsTree> {
            let cfg = ServeConfig::new(SHARDS).with_replicas(2).with_policy(POLICY);
            let mut router = ShardRouter::build(&self.points, &cfg, &DeviceConfig::k40(), |ps| {
                psb_sstree::build(ps, 8, &BuildMethod::Hilbert)
            });
            for (s, r, plan) in &self.faults {
                router.set_fault_plan(*s, *r, plan.clone());
            }
            router
        }

        /// Everything two batches at `window` leave behind — results, both
        /// reports, router and front-end state — as one comparable string,
        /// plus how many executions were thrown away.
        fn observe(&self, window: usize) -> (String, usize) {
            let mut router = self.router();
            *router.cache_mut() = QueryCache::new(self.cfg.cache_capacity);
            let mut front = FrontEnd::new(SHARDS, &self.cfg);
            if let Some((tenant, quota)) = self.quota {
                front.admission.set_quota(tenant, quota);
            }
            let opts = KernelOptions::default();
            let batch = Batch {
                queries: &self.queries,
                k: K,
                opts: &opts,
                requests: &self.requests,
                cached: true,
            };
            let mut seen = String::new();
            let mut discarded = 0;
            for _ in 0..2 {
                let run = run_batch(&mut router, &mut front, &batch, None, false, window)
                    .expect("a non-empty batch over four shards");
                discarded += run.discarded;
                let report = run.acc.into_report(router.device(), &opts);
                seen += &format!(
                    "{:?} {:?} {:?} {:?} {:?}\n",
                    run.neighbors, run.per_query, run.outcomes, run.resilience, report
                );
            }
            let replicas: Vec<ReplicaState> =
                (0..SHARDS * 2).map(|i| router.replica_state(i / 2, i % 2)).collect();
            seen += &format!(
                "{:?} {:?} {:?} {:?} {:?} tick {}",
                replicas,
                front.admission,
                front.breakers,
                router.cache_mut().stats(),
                router.cache_mut().residency(),
                front.tick
            );
            (seen, discarded)
        }

        /// The strictly sequential loop against windows that look ahead.
        /// Returns what the whole-batch window saw and threw away.
        fn assert_window_never_shows(&self) -> (String, usize) {
            let (sequential, wasted) = self.observe(1);
            assert_eq!(wasted, 0, "a window of one executes nothing ahead");
            for window in [2, 3, 7] {
                assert!(self.observe(window).0 == sequential, "window {window} shows");
            }
            let whole = self.observe(usize::MAX);
            assert!(whole.0 == sequential, "the whole-batch window shows");
            whole
        }
    }

    fn cached(capacity: usize) -> ResilienceConfig {
        ResilienceConfig { cache_capacity: capacity, ..ResilienceConfig::default() }
    }

    #[test]
    fn a_marked_answer_voids_the_hit_planned_on_it() {
        let mut case = Case::new(cached(8));
        let tight = RequestMeta::default().with_deadline(DeadlineBudget::Cycles(1_000));
        let (a, b) = (case.between(0, 3), case.between(1, 2));
        // `a` comes back marked and is not cached, so its repeats — planned as
        // hits — miss; the second one runs exact and the third does hit.
        case.push(&a, tight);
        case.push(&case.home(0, 1), RequestMeta::default());
        case.push(&a, RequestMeta::default());
        case.push(&b, RequestMeta::default());
        case.push(&a, RequestMeta::default());
        case.push(&b, tight);
        let (seen, _) = case.assert_window_never_shows();
        assert!(seen.contains("DeadlineDegraded"), "the tight budget must mark an answer");
        assert!(seen.contains("cache_hits: 2,"), "b and the third a hit, the second a does not");
    }

    #[test]
    fn a_hot_key_keeps_its_place_and_the_plan_stays_exact_under_marks() {
        let mut case = Case::new(cached(4));
        // Asked twice, then once after every five one-off queries: its mark
        // keeps it resident, which the plan must foresee, or a planned miss
        // hits and its execution is thrown away.
        let hot = case.home(0, 0);
        case.push(&hot, RequestMeta::default());
        case.push(&hot, RequestMeta::default());
        for i in 0..20usize {
            let cold = case.home(i % SHARDS, 1 + i / SHARDS);
            case.push(&cold, RequestMeta::default());
            if i % 5 == 4 {
                case.push(&hot, RequestMeta::default());
            }
        }
        let (seen, wasted) = case.assert_window_never_shows();
        // Every ask after the first hits: 1 + 4 in the first batch, and all
        // six in the second.
        assert!(seen.contains("cache_hits: 5,") && seen.contains("cache_hits: 6,"), "{seen}");
        assert_eq!(wasted, 0, "a fault-free batch: every planned miss missed");
    }

    #[test]
    fn a_mid_batch_demotion_drops_what_ran_ahead() {
        let mut case = Case::new(cached(3));
        case.faults = vec![(1, 0, FaultPlan::truncation(1))];
        case.quota = Some((7, QuotaConfig { burst: 2, refill_per_tick: 0 }));
        // Shard 1 is first reached a third of the way in; everything behind
        // that query had run against its healthy primary. Twelve keys through
        // a cache of three evict mid-batch; tenant 7 runs dry.
        for i in 0..24usize {
            let s = if i < 8 { [0, 3][i % 2] } else { [0, 1, 3][i % 3] };
            let q = case.home(s, (i / 3) % 4);
            case.push(&q, RequestMeta::tenant(if i % 4 == 1 { 7 } else { 0 }));
        }
        let (seen, wasted) = case.assert_window_never_shows();
        assert!(seen.contains("Retried"), "the primary's death must show as a retried query");
        assert!(seen.contains("QuotaExhausted"));
        assert!(wasted > 0, "the demotion found nothing executed ahead to drop");
    }

    #[test]
    fn a_breaker_trip_ends_execution_ahead() {
        let mut case = Case::new(ResilienceConfig {
            breaker: BreakerConfig { failure_threshold: 2, backoff_base: 3, backoff_max: 6 },
            ..cached(4)
        });
        // Both of shard 2's devices die on first contact, mid-batch: two
        // failed visits trip its breaker, and from there on the batch is
        // routed around it, probes it, and re-opens.
        case.faults = vec![(2, 0, FaultPlan::watchdog(1)), (2, 1, FaultPlan::truncation(1))];
        for i in 0..30usize {
            let s = if i < 10 { [0, 3][i % 2] } else { [2, 0, 2, 3][i % 4] };
            let q = if i % 7 == 6 { case.between(2, 0) } else { case.home(s, i / 3) };
            case.push(&q, RequestMeta::default());
        }
        let (seen, wasted) = case.assert_window_never_shows();
        assert!(!seen.contains("breaker_opened: 0"), "the breaker must trip in both batches");
        assert!(seen.contains("Degraded {"), "an exhausted ladder must show as degraded");
        assert!(wasted > 0, "the trip found nothing executed ahead to drop");
    }

    #[test]
    fn the_bare_router_and_its_trace_do_not_show_the_window_either() {
        let mut case = Case::new(ResilienceConfig::default());
        case.faults = vec![(3, 0, FaultPlan::truncation(1))];
        for i in 0..20usize {
            let s = if i < 9 { [0, 1][i % 2] } else { [3, 0][i % 2] };
            let q = case.home(s, i);
            case.push(&q, RequestMeta::default());
        }
        let serve = |window: usize| {
            let mut router = case.router();
            let mut sink = VecSink::new();
            let out = router
                .serve_windowed(
                    &case.queries,
                    K,
                    &KernelOptions::default(),
                    Some(&mut sink),
                    window,
                )
                .expect("serve");
            assert!(out.report.failovers.iter().any(|f| f.query >= 9), "{:?}", out.report);
            format!("{out:?} {:?} {:?}", sink.events, router.replica_state(3, 0))
        };
        let sequential = serve(1);
        assert!(serve(4) == sequential, "window 4 shows");
        assert!(serve(usize::MAX) == sequential, "the whole-batch window shows");
    }
}
