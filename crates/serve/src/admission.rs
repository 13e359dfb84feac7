//! Admission control for the serving front-end: a per-batch admission
//! bound, per-tenant token-bucket quotas, per-shard circuit breakers, and the
//! exact-result query cache.
//!
//! Everything here runs on a **logical clock**: one tick per submitted query.
//! Token buckets refill per tick and breaker backoffs are measured in ticks,
//! so every admission decision, breaker transition, and shed is a pure
//! function of the submission sequence — reproducible in tests and in the
//! chaos soak, with no wall-clock in the control path. Deadlines are priced
//! in simulated device cycles and read no clock either ([`crate::deadline`]).
//!
//! The load-shedding contract: an overloaded front-end rejects with a typed
//! [`RejectReason`] instead of running more than it was sized for, and a
//! rejected query is never silently dropped — it resolves to
//! [`ServeOutcome::Rejected`](crate::ServeOutcome::Rejected) with empty
//! results.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem;
use std::sync::Arc;

use psb_geom::dist;
use psb_sstree::Neighbor;

/// Tenant identity for quota accounting. Tenant `0` is the default tenant.
pub type TenantId = u32;

/// Why a query was rejected at admission instead of executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Its batch had already admitted as many queries as the bound allows;
    /// the query was shed before its tenant's bucket was asked.
    QueueFull {
        /// The configured bound it hit.
        capacity: usize,
    },
    /// The tenant's token bucket was empty in this refill window.
    QuotaExhausted {
        /// The tenant whose quota ran out.
        tenant: TenantId,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull { capacity } => {
                write!(f, "batch admission bound reached ({capacity} admitted)")
            }
            RejectReason::QuotaExhausted { tenant } => {
                write!(f, "tenant {tenant} quota exhausted")
            }
        }
    }
}

/// A tenant's token-bucket quota: at most `burst` queries at once, refilling
/// at `refill_per_tick` tokens per logical tick. Over any window of `w` ticks
/// a tenant is admitted at most `burst + w * refill_per_tick` queries — the
/// invariant `tests/admission.rs` proves by property.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuotaConfig {
    /// Bucket capacity (and initial fill).
    pub burst: u64,
    /// Tokens added per logical tick, capped at `burst`.
    pub refill_per_tick: u64,
}

/// One tenant's live token bucket.
#[derive(Clone, Debug)]
pub(crate) struct TokenBucket {
    cfg: QuotaConfig,
    tokens: u64,
    last_tick: u64,
}

impl TokenBucket {
    /// A bucket that starts full at tick `now`.
    pub(crate) fn new(cfg: QuotaConfig, now: u64) -> Self {
        Self { cfg, tokens: cfg.burst, last_tick: now }
    }

    fn refill(&mut self, now: u64) {
        if now > self.last_tick {
            let added = (now - self.last_tick).saturating_mul(self.cfg.refill_per_tick);
            self.tokens = self.tokens.saturating_add(added).min(self.cfg.burst);
            self.last_tick = now;
        }
    }

    /// Takes one token at tick `now` if available.
    pub(crate) fn try_take(&mut self, now: u64) -> bool {
        self.refill(now);
        if self.tokens > 0 {
            self.tokens -= 1;
            true
        } else {
            false
        }
    }
}

/// The admission controller: the per-batch bound plus per-tenant token
/// buckets, all on the logical tick clock. A tenant without a
/// [`AdmissionControl::set_quota`] entry is unmetered.
#[derive(Debug)]
pub struct AdmissionControl {
    capacity: usize,
    quotas: BTreeMap<TenantId, QuotaConfig>,
    buckets: BTreeMap<TenantId, TokenBucket>,
}

impl AdmissionControl {
    /// A controller that admits at most `capacity` queries of a batch
    /// (`usize::MAX` = unbounded), with no quotas.
    pub fn new(capacity: usize) -> Self {
        Self { capacity, quotas: BTreeMap::new(), buckets: BTreeMap::new() }
    }

    /// Sets (or replaces) one tenant's quota. Replacing resets the tenant's
    /// bucket to full at its next admission.
    pub fn set_quota(&mut self, tenant: TenantId, quota: QuotaConfig) {
        self.quotas.insert(tenant, quota);
        self.buckets.remove(&tenant);
    }

    /// Admits one batch whose query `i` comes from the `i`-th of `tenants`
    /// and arrives at tick `first_tick + i`, one verdict per query in order.
    /// Once the batch has admitted the bound's worth, every later query is
    /// shed with [`RejectReason::QueueFull`] before its tenant's bucket is
    /// asked, so it spends no token; otherwise a metered tenant's query takes
    /// a token or is shed with [`RejectReason::QuotaExhausted`].
    pub fn admit_batch(
        &mut self,
        tenants: impl IntoIterator<Item = TenantId>,
        first_tick: u64,
    ) -> Vec<Result<(), RejectReason>> {
        let mut admitted = 0;
        tenants
            .into_iter()
            .zip(first_tick..)
            .map(|(tenant, now)| {
                if admitted >= self.capacity {
                    return Err(RejectReason::QueueFull { capacity: self.capacity });
                }
                if let Some(&quota) = self.quotas.get(&tenant) {
                    let bucket =
                        self.buckets.entry(tenant).or_insert_with(|| TokenBucket::new(quota, now));
                    if !bucket.try_take(now) {
                        return Err(RejectReason::QuotaExhausted { tenant });
                    }
                }
                admitted += 1;
                Ok(())
            })
            .collect()
    }
}

/// Circuit-breaker tuning for one shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that open the breaker. `u32::MAX` disables it.
    pub failure_threshold: u32,
    /// Ticks the breaker stays open the first time; doubles on every reopen.
    pub backoff_base: u64,
    /// Backoff ceiling in ticks.
    pub backoff_max: u64,
}

impl BreakerConfig {
    /// A breaker that never opens — the golden-parity default: with breakers
    /// effectively closed forever, the front-end routes exactly like the bare
    /// router even under faults.
    pub fn disabled() -> Self {
        Self { failure_threshold: u32::MAX, backoff_base: 1, backoff_max: 1 }
    }
}

/// Where a breaker is in its state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; consecutive failures are being counted.
    Closed,
    /// The shard is being routed around until the backoff elapses.
    Open,
    /// Backoff elapsed; probe traffic is allowed through. The first probe
    /// success closes the breaker, a probe failure reopens it with doubled
    /// backoff.
    HalfOpen,
}

/// One shard's circuit breaker. All transitions are driven by the logical
/// tick clock plus explicit success/failure reports from the replica ladder —
/// fully deterministic under a seeded fault plan.
#[derive(Clone, Debug)]
pub(crate) struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    open_until: u64,
    backoff: u64,
    opened_total: u64,
}

impl CircuitBreaker {
    /// A closed breaker with its backoff at the base.
    pub(crate) fn new(cfg: BreakerConfig) -> Self {
        Self {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until: 0,
            backoff: cfg.backoff_base.max(1),
            opened_total: 0,
        }
    }

    /// Current state (without advancing the open→half-open transition).
    pub(crate) fn state(&self) -> BreakerState {
        self.state
    }

    /// Times this breaker has opened.
    pub(crate) fn opened_total(&self) -> u64 {
        self.opened_total
    }

    /// Whether traffic may reach the shard at tick `now`. An open breaker
    /// whose backoff has elapsed transitions to half-open here and admits the
    /// probe.
    pub(crate) fn allows(&mut self, now: u64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now >= self.open_until {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// The shard answered through a healthy replica.
    pub(crate) fn on_success(&mut self) {
        match self.state {
            BreakerState::Closed => self.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                self.state = BreakerState::Closed;
                self.consecutive_failures = 0;
                self.backoff = self.cfg.backoff_base.max(1);
            }
            BreakerState::Open => {}
        }
    }

    /// The shard failed: a replica launch died (one failover event), or the
    /// whole ladder was exhausted and the query paid the brute fallback.
    pub(crate) fn on_failure(&mut self, now: u64) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures = self.consecutive_failures.saturating_add(1);
                if self.consecutive_failures >= self.cfg.failure_threshold {
                    self.trip(now);
                }
            }
            // A failed probe reopens immediately with doubled backoff.
            BreakerState::HalfOpen => self.trip(now),
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now: u64) {
        self.state = BreakerState::Open;
        self.open_until = now.saturating_add(self.backoff);
        self.backoff = self.backoff.saturating_mul(2).min(self.cfg.backoff_max.max(1));
        self.consecutive_failures = 0;
        self.opened_total += 1;
    }
}

/// Key of one cached result: the query, compared and hashed by its exact f32
/// bit pattern, plus `k`.
///
/// Built once per query and then moved: the row sits behind an `Arc`, so the
/// copy the eviction order keeps beside the map's is a reference count, not a
/// second allocation. The row is kept as `f32` because [`QueryCache::absorb`]
/// measures distances from it.
#[derive(Clone, Debug)]
pub struct CacheKey {
    q: Arc<[f32]>,
    k: usize,
}

impl CacheKey {
    /// The key of query `q` asked for `k` neighbours.
    pub fn new(q: &[f32], k: usize) -> Self {
        Self { q: q.into(), k }
    }

    fn bits(&self) -> impl Iterator<Item = u32> + '_ {
        self.q.iter().map(|x| x.to_bits())
    }
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &Self) -> bool {
        self.k == other.k && self.bits().eq(other.bits())
    }
}

impl Eq for CacheKey {}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.k.hash(state);
        for bits in self.bits() {
            bits.hash(state);
        }
    }
}

/// One resident result and its SIEVE mark.
#[derive(Debug)]
struct CacheEntry {
    /// Set by a hit, cleared when the eviction hand passes over the entry: a
    /// marked entry outlives one pass.
    visited: bool,
    neighbors: Vec<Neighbor>,
}

/// SIEVE's eviction step (Zhang et al., NSDI 2024) over the resident keys
/// `order`, oldest first. From the hand toward newer entries, wrapping round
/// to the oldest, it clears each marked entry's mark (`take_mark` returns
/// the mark and clears it) and removes the first unmarked one. The hand
/// rests on the evicted slot, which the next newer entry slides into — or on
/// the oldest, if the newest went. `None` only when nothing is resident.
///
/// [`QueryCache::insert`] evicts through it, and
/// [`QueryCache::predict_misses`] plays it forward over a shadow.
fn evict<K>(
    order: &mut VecDeque<K>,
    hand: &mut usize,
    mut take_mark: impl FnMut(&K) -> bool,
) -> Option<K> {
    loop {
        if *hand >= order.len() {
            *hand = 0;
        }
        if !take_mark(order.get(*hand)?) {
            break;
        }
        *hand += 1;
    }
    let victim = order.remove(*hand);
    if *hand == order.len() {
        *hand = 0;
    }
    victim
}

/// Exact-result query cache, keyed on `(query_bits, k)`.
///
/// Only exact outcomes are cacheable (the resilience layer never inserts a
/// deadline-degraded result), so a hit is an exact answer for the set the
/// owner indexes — as long as the owner keeps the entries in step with that
/// set. There are two ways to: fold a point that joined the set into every
/// resident answer ([`QueryCache::absorb`]), or drop them all
/// ([`QueryCache::flush`]) — what a removal needs, since the point
/// that would move up into the k-th place is not in the entry. A rebuild of
/// the index over the same set needs neither.
///
/// Eviction is SIEVE: the resident keys sit in insertion order with one mark
/// each, a hit marks its entry, and an insert into a full cache walks the
/// hand from where it rests toward newer entries, clearing marks, and evicts
/// the first unmarked one — so a query asked again and again stays resident
/// while one-off queries pass through. Residency is a function of the probe
/// sequence alone, never of the answers — hits mark, misses insert — which
/// is what [`QueryCache::predict_misses`] rests on (`absorb` changes answers,
/// never residency).
#[derive(Debug, Default)]
pub struct QueryCache {
    capacity: usize,
    map: HashMap<CacheKey, CacheEntry>,
    /// The resident keys, oldest first.
    order: VecDeque<CacheKey>,
    /// Where the eviction hand rests: an index into `order`.
    hand: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
}

impl QueryCache {
    /// A SIEVE-evicted cache holding at most `capacity` results. Capacity 0
    /// disables it.
    pub fn new(capacity: usize) -> Self {
        Self { capacity, ..Default::default() }
    }

    /// Whether the cache can ever hold anything.
    pub(crate) fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Drops every resident entry and returns whether there was one to drop
    /// — what the owner does about a change it cannot fold into the resident
    /// answers (a removal, an operator's invalidation).
    pub fn flush(&mut self) -> bool {
        let flushed = !self.map.is_empty();
        self.invalidations += u64::from(flushed);
        self.map.clear();
        self.order.clear();
        self.hand = 0;
        flushed
    }

    /// Looks up `key`; a hit marks its entry.
    pub fn get(&mut self, key: &CacheKey) -> Option<Vec<Neighbor>> {
        if !self.is_enabled() {
            return None;
        }
        match self.map.get_mut(key) {
            Some(hit) => {
                self.hits += 1;
                hit.visited = true;
                Some(hit.neighbors.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores an exact result under `key`, unmarked, evicting one entry by
    /// SIEVE when full.
    pub fn insert(&mut self, key: CacheKey, neighbors: &[Neighbor]) {
        if !self.is_enabled() || self.map.contains_key(&key) {
            return;
        }
        if self.map.len() >= self.capacity {
            let map = &mut self.map;
            let take_mark =
                |k: &CacheKey| map.get_mut(k).is_some_and(|e| mem::take(&mut e.visited));
            if let Some(victim) = evict(&mut self.order, &mut self.hand, take_mark) {
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
        self.order.push_back(key.clone());
        self.map.insert(key, CacheEntry { visited: false, neighbors: neighbors.to_vec() });
    }

    /// Folds point `p`, which joined the indexed set under `id`, into every
    /// resident answer, and returns how many changed. kNN(S ∪ {p}) is the
    /// first k of kNN(S) ∪ {p} in `(dist, id)` order: a point of S that is
    /// not among the k nearest of S has k points of S ∪ {p} before it too.
    /// An answer short of `k` holds all of S and takes `p` whatever its
    /// distance. The distance is [`psb_geom::dist()`] from the key's own row —
    /// the function the tree search and the delta scan call, so the bits are
    /// the ones a recompute would produce.
    pub fn absorb(&mut self, p: &[f32], id: u32) -> usize {
        let mut changed = 0;
        for (key, entry) in &mut self.map {
            let d = dist(&key.q, p);
            let list = &mut entry.neighbors;
            let after = |n: &Neighbor| n.dist.total_cmp(&d).then(n.id.cmp(&id)).is_gt();
            let full = list.len() >= key.k;
            if full && !list.last().is_some_and(after) {
                continue;
            }
            if full {
                list.pop();
            }
            let rank = list.partition_point(|n| !after(n));
            list.insert(rank, Neighbor { dist: d, id });
            changed += 1;
        }
        changed
    }

    /// Positions in `probes` that would miss if the probes ran now, in
    /// order, each miss followed by the insert of its result (every answer
    /// assumed exact). Reads the cache and changes nothing: residency depends
    /// on which keys were probed in which order, so it can be played forward
    /// without a single answer — over a shadow of the resident order, the
    /// marks and the hand, where a hit marks and a miss evicts through the
    /// same `evict` as [`QueryCache::insert`] and goes in unmarked.
    pub fn predict_misses<'a>(
        &'a self,
        probes: impl IntoIterator<Item = &'a CacheKey>,
    ) -> Vec<usize> {
        if !self.is_enabled() {
            return probes.into_iter().enumerate().map(|(at, _)| at).collect();
        }
        let mut order: VecDeque<&CacheKey> = self.order.iter().collect();
        let mut marks: HashMap<&CacheKey, bool> =
            self.map.iter().map(|(key, entry)| (key, entry.visited)).collect();
        let mut hand = self.hand;
        let mut misses = Vec::new();
        for (at, key) in probes.into_iter().enumerate() {
            if let Some(mark) = marks.get_mut(key) {
                *mark = true;
                continue;
            }
            misses.push(at);
            if marks.len() >= self.capacity {
                let take_mark = |k: &&CacheKey| marks.get_mut(*k).is_some_and(mem::take);
                if let Some(victim) = evict(&mut order, &mut hand, take_mark) {
                    marks.remove(victim);
                }
            }
            order.push_back(key);
            marks.insert(key, false);
        }
        misses
    }

    /// The resident keys oldest first, each with its mark, and the hand.
    #[cfg(test)]
    pub(crate) fn residency(&self) -> (Vec<(CacheKey, bool)>, usize) {
        let marked = |key: &CacheKey| (key.clone(), self.map[key].visited);
        (self.order.iter().map(marked).collect(), self.hand)
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(hits, misses, evictions, invalidations)` since construction; an
    /// invalidation is a [`QueryCache::flush`] that dropped entries.
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        (self.hits, self.misses, self.evictions, self.invalidations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop, prop_assert_eq, proptest};

    #[test]
    fn bucket_burst_then_refill() {
        let mut b = TokenBucket::new(QuotaConfig { burst: 3, refill_per_tick: 1 }, 0);
        assert!(b.try_take(0) && b.try_take(0) && b.try_take(0));
        assert!(!b.try_take(0), "burst exhausted");
        assert!(b.try_take(2), "two ticks refill two tokens");
        assert!(b.try_take(2));
        assert!(!b.try_take(2));
    }

    #[test]
    fn bucket_never_exceeds_burst() {
        let mut b = TokenBucket::new(QuotaConfig { burst: 2, refill_per_tick: 10 }, 0);
        assert!(b.try_take(1000) && b.try_take(1000));
        assert!(!b.try_take(1000), "refill caps at burst");
    }

    #[test]
    fn queue_bound_sheds_with_typed_reason() {
        let mut ac = AdmissionControl::new(2);
        ac.set_quota(1, QuotaConfig { burst: 1, refill_per_tick: 0 });
        let full = Err(RejectReason::QueueFull { capacity: 2 });
        let dry = Err(RejectReason::QuotaExhausted { tenant: 1 });
        // Tenant 1's second query is shed by its bucket and takes no slot;
        // once two are admitted the bound sheds the rest before any bucket.
        assert_eq!(ac.admit_batch([1, 1, 0, 0, 1], 1), vec![Ok(()), dry, Ok(()), full, full]);
        // The bound is per batch: the next one admits two again.
        assert_eq!(ac.admit_batch([0, 0, 0], 6), vec![Ok(()), Ok(()), full]);
    }

    #[test]
    fn per_tenant_quota_is_isolated() {
        let mut ac = AdmissionControl::new(usize::MAX);
        ac.set_quota(1, QuotaConfig { burst: 1, refill_per_tick: 0 });
        let dry = Err(RejectReason::QuotaExhausted { tenant: 1 });
        assert_eq!(ac.admit_batch([1, 1], 0), vec![Ok(()), dry]);
        // Tenant 2 has no quota and is unmetered.
        assert!(ac.admit_batch([2; 10], 2).iter().all(Result::is_ok));
    }

    #[test]
    fn breaker_opens_after_threshold_and_backs_off_exponentially() {
        let cfg = BreakerConfig { failure_threshold: 2, backoff_base: 4, backoff_max: 16 };
        let mut b = CircuitBreaker::new(cfg);
        b.on_failure(0);
        assert_eq!(b.state(), BreakerState::Closed, "one failure below threshold");
        b.on_failure(1);
        assert_eq!(b.state(), BreakerState::Open, "threshold trips the breaker");
        assert!(!b.allows(2), "open during backoff");
        assert!(b.allows(5), "backoff elapsed: half-open probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Failed probe: reopen with doubled backoff (8 ticks).
        b.on_failure(5);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allows(12), "doubled backoff still running");
        assert!(b.allows(13), "8-tick backoff elapsed");
        // Successful probe closes and resets the backoff to base.
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.opened_total(), 2);
        b.on_failure(20);
        b.on_failure(20);
        assert!(!b.allows(23), "backoff reset to base (4 ticks) after close");
        assert!(b.allows(24));
    }

    #[test]
    fn success_resets_consecutive_failures() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            backoff_base: 1,
            backoff_max: 1,
        });
        b.on_failure(0);
        b.on_success();
        b.on_failure(1);
        assert_eq!(b.state(), BreakerState::Closed, "non-consecutive failures never trip");
    }

    #[test]
    fn disabled_breaker_never_opens() {
        let mut b = CircuitBreaker::new(BreakerConfig::disabled());
        for t in 0..10_000u64 {
            b.on_failure(t);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows(10_000));
    }

    fn key(q: &[f32], k: usize) -> CacheKey {
        CacheKey::new(q, k)
    }

    #[test]
    fn cache_round_trips_and_flush_invalidates() {
        let mut c = QueryCache::new(4);
        let q = [1.0f32, 2.0, 3.0];
        let hit = vec![Neighbor { dist: 0.5, id: 7 }];
        assert!(c.get(&key(&q, 3)).is_none());
        c.insert(key(&q, 3), &hit);
        assert_eq!(c.get(&key(&q, 3)).as_deref(), Some(hit.as_slice()));
        assert!(c.get(&key(&q, 4)).is_none(), "k is part of the key");
        assert!(c.flush());
        assert!(c.get(&key(&q, 3)).is_none(), "a flush invalidates");
        assert!(!c.flush(), "nothing left to drop");
        assert_eq!(c.stats().3, 1, "one invalidation recorded");
    }

    #[test]
    fn absorb_puts_a_new_point_at_its_rank_or_leaves_the_answer_alone() {
        let n = |dist: f32, id: u32| Neighbor { dist, id };
        let mut c = QueryCache::new(4);
        let q = [0.0f32];
        c.insert(key(&q, 2), &[n(1.0, 3), n(2.0, 5)]);
        c.insert(key(&q, 4), &[n(1.0, 3), n(2.0, 5)]); // k beyond the set: holds all of it
        let answers = |c: &mut QueryCache| (c.get(&key(&q, 2)), c.get(&key(&q, 4)));
        // Beyond the k-th place: only the short answer takes it.
        assert_eq!(c.absorb(&[5.0], 10), 1);
        let short = vec![n(1.0, 3), n(2.0, 5), n(5.0, 10)];
        assert_eq!(answers(&mut c), (Some(vec![n(1.0, 3), n(2.0, 5)]), Some(short)));
        // Inside: it goes in at its rank and the old k-th drops out.
        assert_eq!(c.absorb(&[-1.5], 9), 2);
        let full = vec![n(1.0, 3), n(1.5, 9), n(2.0, 5), n(5.0, 10)];
        assert_eq!(answers(&mut c), (Some(vec![n(1.0, 3), n(1.5, 9)]), Some(full.clone())));
        // At the k-th distance exactly, the smaller id is first.
        assert_eq!(c.absorb(&[1.5], 11), 1, "(1.5, 11) is behind (1.5, 9), before (5.0, 10)");
        assert_eq!(c.absorb(&[1.5], 7), 2);
        let full = vec![n(1.0, 3), n(1.5, 7), n(1.5, 9), n(1.5, 11)];
        assert_eq!(answers(&mut c), (Some(vec![n(1.0, 3), n(1.5, 7)]), Some(full)));
        assert_eq!(c.stats().3, 0, "nothing was dropped");
    }

    #[test]
    fn cache_evicts_fifo_at_capacity() {
        let mut c = QueryCache::new(2);
        for i in 0..3 {
            c.insert(key(&[i as f32], 1), &[Neighbor { dist: 0.0, id: i }]);
        }
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(&[0.0], 1)).is_none(), "oldest entry evicted");
        assert!(c.get(&key(&[2.0], 1)).is_some());
    }

    /// The residency of a cache of one-coordinate keys: each key's
    /// coordinate and mark, oldest first, and the hand.
    fn shown(c: &QueryCache) -> (Vec<(f32, bool)>, usize) {
        let (order, hand) = c.residency();
        (order.into_iter().map(|(key, marked)| (key.q[0], marked)).collect(), hand)
    }

    #[test]
    fn sieve_spares_a_marked_entry_once_and_the_hand_wraps() {
        let mut c = QueryCache::new(3);
        let put = |c: &mut QueryCache, x: f32| c.insert(key(&[x], 1), &[]);
        let ask = |c: &mut QueryCache, x: f32| c.get(&key(&[x], 1)).is_some();
        for x in [1.0, 2.0, 3.0] {
            put(&mut c, x);
        }
        assert!(ask(&mut c, 1.0));
        assert_eq!(shown(&c), (vec![(1.0, true), (2.0, false), (3.0, false)], 0));
        // 1 is marked: the hand clears it and evicts 2, the first unmarked;
        // 3 slides into the slot the hand rests on.
        put(&mut c, 4.0);
        assert_eq!(shown(&c), (vec![(1.0, false), (3.0, false), (4.0, false)], 1));
        // From 3, both marked: cleared; the hand wraps to 1, now unmarked.
        assert!(ask(&mut c, 3.0) && ask(&mut c, 4.0));
        put(&mut c, 5.0);
        assert_eq!(shown(&c), (vec![(3.0, false), (4.0, false), (5.0, false)], 0));
        // The newest goes: the hand wraps to the oldest, not onto the insert.
        assert!(ask(&mut c, 3.0) && ask(&mut c, 4.0));
        put(&mut c, 6.0);
        assert_eq!(shown(&c), (vec![(3.0, false), (4.0, false), (6.0, false)], 0));
        assert!(!ask(&mut c, 5.0), "the newest unmarked entry went before older marked ones");
        assert!(ask(&mut c, 3.0));
        put(&mut c, 7.0);
        assert_eq!(shown(&c), (vec![(3.0, false), (6.0, false), (7.0, false)], 1));
        assert_eq!(c.stats(), (6, 1, 4, 0));
        // A flush drops the order and the hand.
        assert!(c.flush());
        assert_eq!(shown(&c), (vec![], 0));
        put(&mut c, 8.0);
        assert_eq!(shown(&c), (vec![(8.0, false)], 0));
    }

    #[test]
    fn zero_capacity_cache_is_inert() {
        let mut c = QueryCache::new(0);
        c.insert(key(&[1.0], 1), &[Neighbor { dist: 0.0, id: 0 }]);
        assert!(c.get(&key(&[1.0], 1)).is_none());
        assert!(c.is_empty());
        assert_eq!(c.predict_misses([&key(&[1.0], 1), &key(&[1.0], 1)]), [0, 1]);
    }

    /// The plain sequence the serving loops run: probe, and on a miss insert
    /// the answer. Returns the positions that missed.
    fn replay(cache: &mut QueryCache, stream: &[CacheKey]) -> Vec<usize> {
        let mut misses = Vec::new();
        for (at, key) in stream.iter().enumerate() {
            if cache.get(key).is_none() {
                misses.push(at);
                cache.insert(key.clone(), &[Neighbor { dist: at as f32, id: at as u32 }]);
            }
        }
        misses
    }

    // The plan against the sequence it predicts, from warm and cold caches,
    // with repeats inside the stream and more distinct keys than the cache
    // holds: same misses; and a second cache driven by the plan alone — a
    // probe everywhere, an insert exactly where a miss was planned — ends with
    // the same counters and the same residents, marks and hand. A hot stream asks
    // three keys two times in three, so marks pile up and the hand wraps.
    proptest! {
        #[test]
        fn predicted_misses_are_the_replayed_misses(
            warmup in prop::collection::vec(0u32..12, 0..20),
            stream in prop::collection::vec(0u32..24, 1..80),
            hot in 0u8..2,
        ) {
            let hot = hot == 1;
            let keys = |ids: &[u32]| {
                let id = |i: u32| if hot && i < 16 { i % 3 } else { i % 12 + 3 * u32::from(hot) };
                ids.iter().map(|&i| key(&[id(i) as f32], 3)).collect::<Vec<_>>()
            };
            let (warmup, stream) = (keys(&warmup), keys(&stream));
            for capacity in 1..=8 {
                let mut plain = QueryCache::new(capacity);
                let mut planned = QueryCache::new(capacity);
                replay(&mut plain, &warmup);
                replay(&mut planned, &warmup);

                let plan = planned.predict_misses(&stream);
                prop_assert_eq!(&plan, &replay(&mut plain, &stream), "capacity {}", capacity);

                for (at, key) in stream.iter().enumerate() {
                    let missed = planned.get(key).is_none();
                    prop_assert_eq!(missed, plan.contains(&at));
                    if missed {
                        planned.insert(key.clone(), &[]);
                    }
                }
                prop_assert_eq!(planned.stats(), plain.stats());
                prop_assert_eq!(planned.residency(), plain.residency());
            }
        }
    }
}
