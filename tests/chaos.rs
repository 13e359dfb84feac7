//! Chaos soak: the resilience front-end under simultaneous fault injection,
//! deadline pressure, quota pressure, and a skewed Zipf workload.
//!
//! The invariants the soak pins (the ci.sh `chaos` stage runs this suite):
//!
//! * zero panics — every failure mode resolves through typed paths;
//! * every submitted query lands in **exactly one** of the five outcome
//!   buckets (clean / retried / degraded / rejected / deadline-degraded), and
//!   the front-end's accounting agrees with the per-query outcomes;
//! * every outcome that *claims* exactness **is** exact against the oracle —
//!   a blown deadline or an open breaker is always a marked outcome, never a
//!   silent partial answer;
//! * the whole trajectory — breaker trips included — is deterministic: the
//!   same seeds replay the same soak, tick for tick.

use psb::prelude::*;

const K: usize = 6;
const BATCHES: usize = 6;

fn build_ss(ps: &PointSet) -> SsTree {
    build(ps, 16, &BuildMethod::Hilbert)
}

struct SoakSummary {
    tally: OutcomeTally,
    rejected_queue: u64,
    breaker_opened: u64,
    cache_hits: u64,
    exact_checked: u64,
    final_states: Vec<BreakerState>,
}

/// Runs the full soak: 4 shards (two of them permanently faulted), breakers
/// armed, at most `queue_capacity` queries admitted per batch, one metered
/// tenant, tight cycle deadlines on every third request, Zipf-repeated
/// queries. Returns the aggregate accounting.
fn run_soak(
    ps: &PointSet,
    oracle: &[Vec<Neighbor>],
    queries: &PointSet,
    queue_capacity: usize,
) -> SoakSummary {
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let mut router = ShardRouter::build(ps, &ServeConfig::new(4), &cfg, build_ss);
    // Two sick shards: single replicas that die on every launch. The ladder
    // degrades them to the exact brute scan; the breakers then learn to route
    // around them.
    router.set_fault_plan(0, 0, FaultPlan::truncation(1));
    router.set_fault_plan(2, 0, FaultPlan::bit_flips(0xBAD5EED, 1));
    let mut front = ResilientRouter::new(
        router,
        ResilienceConfig {
            queue_capacity,
            breaker: BreakerConfig { failure_threshold: 3, backoff_base: 8, backoff_max: 64 },
            cache_capacity: 32,
            default_deadline: DeadlineBudget::None,
        },
    );
    // Tenant 9 is metered hard enough to shed under the bursty stream.
    front.set_quota(9, QuotaConfig { burst: 2, refill_per_tick: 0 });

    let mut tally = OutcomeTally::default();
    let mut rejected_queue = 0u64;
    let mut cache_hits = 0u64;
    let mut breaker_opened = 0u64;
    let mut exact_checked = 0u64;
    for batch in 0..BATCHES {
        let requests: Vec<RequestMeta> = (0..queries.len())
            .map(|i| {
                let tenant = if i % 4 == 0 { 9 } else { 1 };
                let mut m = RequestMeta::tenant(tenant);
                if i % 3 == 0 {
                    // Below one shard visit's cost (~1.7k cycles on this
                    // workload): enough to start, guaranteed to blow after the
                    // first visit on multi-shard queries.
                    m = m.with_deadline(DeadlineBudget::Cycles(1_000));
                }
                m
            })
            .collect();
        let out = front.serve_batch(queries, K, &opts, &requests).expect("soak batch");

        // Accounting consistency, batch by batch.
        let t = out.tally();
        assert_eq!(t.total(), queries.len() as u64, "batch {batch}: outcome buckets must cover");
        assert_eq!(
            t.rejected,
            out.resilience.rejected_queue + out.resilience.rejected_quota,
            "batch {batch}: reject accounting"
        );
        assert_eq!(
            t.deadline_degraded, out.resilience.deadline_degraded,
            "batch {batch}: degrade accounting"
        );
        assert_eq!(
            out.resilience.admitted + t.rejected,
            queries.len() as u64,
            "batch {batch}: admitted + rejected = submitted"
        );

        // Exactness: every outcome that claims the exact rungs must match the
        // oracle bit for bit; rejected queries answer nothing; marked
        // degrades name what they skipped.
        for (qi, o) in out.outcomes.iter().enumerate() {
            match o {
                ServeOutcome::Rejected(_) => {
                    assert!(out.neighbors[qi].is_empty(), "batch {batch} q{qi}: rejected answered");
                }
                ServeOutcome::Executed(QueryOutcome::DeadlineDegraded { visited, skipped }) => {
                    assert!(*skipped > 0, "batch {batch} q{qi}: marked degrade skipped nothing");
                    assert!(*visited >= 1, "batch {batch} q{qi}: answered from nothing");
                }
                ServeOutcome::Executed(exact) => {
                    assert!(exact.is_exact());
                    let want = &oracle[qi];
                    let got = &out.neighbors[qi];
                    assert_eq!(got.len(), want.len(), "batch {batch} q{qi}: length");
                    for (g, w) in got.iter().zip(want) {
                        assert_eq!(g.id, w.id, "batch {batch} q{qi}: silent partial answer");
                        assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "batch {batch} q{qi}");
                    }
                    exact_checked += 1;
                }
            }
        }
        tally.clean += t.clean;
        tally.retried += t.retried;
        tally.degraded += t.degraded;
        tally.deadline_degraded += t.deadline_degraded;
        tally.rejected += t.rejected;
        rejected_queue += out.resilience.rejected_queue;
        breaker_opened += out.resilience.breaker_opened;
        cache_hits += out.resilience.cache_hits;
    }
    let final_states = (0..4).map(|s| front.breaker_state(s)).collect();
    SoakSummary { tally, rejected_queue, breaker_opened, cache_hits, exact_checked, final_states }
}

/// The soak's data, its Zipf query stream and the oracle's answers.
fn soak_inputs() -> (PointSet, PointSet, Vec<Vec<Neighbor>>) {
    let ps = UniformSpec { len: 1_200, dims: 4, seed: 9001 }.generate();
    // A wider pool than `bursty` (12 distinct over 48) so the cache hits on
    // repeats without absorbing the whole stream — deadline-degraded answers
    // are never cached, so misses must keep occurring for degrades to show.
    let queries = SkewedQuerySpec {
        count: 48,
        distinct: 12,
        zipf_s: 0.9,
        hotspots: 3,
        hot_fraction: 0.25,
        jitter: 0.005,
        seed: 9002,
    }
    .generate(&ps);
    let full = build_ss(&ps);
    let opts = KernelOptions::default();
    let oracle = psb_batch(&full, &queries, K, &DeviceConfig::k40(), &opts).expect("oracle");
    (ps, queries, oracle.neighbors)
}

#[test]
fn chaos_soak_every_query_resolves_to_exactly_one_typed_outcome() {
    let (ps, queries, oracle) = soak_inputs();

    let s = run_soak(&ps, &oracle, &queries, usize::MAX);

    // The soak must actually exercise every mechanism it claims to cover.
    let n = (BATCHES * queries.len()) as u64;
    assert_eq!(s.tally.total(), n, "all submitted queries accounted for");
    assert!(s.tally.clean > 0, "some queries must run clean");
    assert!(s.tally.rejected > 0, "the metered tenant must shed");
    assert!(s.tally.deadline_degraded > 0, "tight budgets must produce marked degrades");
    assert!(
        s.tally.retried + s.tally.degraded > 0,
        "the fault plans must push queries down the recovery ladder"
    );
    assert!(s.breaker_opened > 0, "repeated shard failures must trip breakers");
    assert!(s.cache_hits > 0, "a Zipf stream against a 32-entry cache must hit");
    assert!(s.exact_checked > 0, "exactness must actually get verified");

    // Determinism: the identical soak replays the identical trajectory.
    let again = run_soak(&ps, &oracle, &queries, usize::MAX);
    assert_eq!(again.tally, s.tally, "soak tallies must replay identically");
    assert_eq!(again.breaker_opened, s.breaker_opened);
    assert_eq!(again.cache_hits, s.cache_hits);
    assert_eq!(again.final_states, s.final_states);
}

/// The same soak with every batch cut by the admission bound: each batch
/// admits exactly `CAPACITY` of its 48 queries (the metered tenant sheds at
/// most 12, so the bound is always reached) and every invariant still holds.
#[test]
fn chaos_soak_under_a_batch_bound_keeps_every_invariant() {
    const CAPACITY: usize = 30;
    let (ps, queries, oracle) = soak_inputs();

    let s = run_soak(&ps, &oracle, &queries, CAPACITY);

    let n = (BATCHES * queries.len()) as u64;
    assert_eq!(s.tally.total(), n, "all submitted queries accounted for");
    assert_eq!(
        n - s.tally.rejected,
        (BATCHES * CAPACITY) as u64,
        "every batch admits exactly the bound's worth"
    );
    assert!(s.rejected_queue > 0, "the bound must shed");
    assert!(s.tally.rejected > s.rejected_queue, "the metered tenant must shed too");
    assert!(s.exact_checked > 0, "exactness must actually get verified");

    let again = run_soak(&ps, &oracle, &queries, CAPACITY);
    assert_eq!(again.tally, s.tally, "soak tallies must replay identically");
    assert_eq!(again.rejected_queue, s.rejected_queue);
    assert_eq!(again.breaker_opened, s.breaker_opened);
    assert_eq!(again.cache_hits, s.cache_hits);
    assert_eq!(again.final_states, s.final_states);
}

#[test]
fn operator_recovery_closes_breakers_and_restores_clean_serving() {
    // After the storm: restore the sick replicas (which also clears their
    // fault plans) and keep serving — half-open probes must close the
    // breakers and the tail of the run must be fully exact.
    let ps = UniformSpec { len: 800, dims: 3, seed: 9101 }.generate();
    let queries = sample_queries(&ps, 16, 0.01, 9102);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let mut router = ShardRouter::build(&ps, &ServeConfig::new(3), &cfg, build_ss);
    router.set_fault_plan(0, 0, FaultPlan::truncation(1));
    let mut front = ResilientRouter::new(
        router,
        ResilienceConfig {
            breaker: BreakerConfig { failure_threshold: 2, backoff_base: 4, backoff_max: 32 },
            ..ResilienceConfig::default()
        },
    );
    // Storm: enough batches to trip shard 0's breaker.
    let mut tripped = false;
    for _ in 0..4 {
        front.serve_batch(&queries, K, &opts, &[]).expect("storm batch");
        tripped |= front.breaker_state(0) != BreakerState::Closed;
    }
    assert!(tripped, "the faulted shard's breaker never tripped");

    // Operator intervention: service the replica.
    front.inner_mut().restore_replica(0, 0);

    // Recovery: ticks advance, the breaker half-opens, a probe succeeds, the
    // breaker closes, and serving is clean + exact again.
    let mut closed = false;
    for _ in 0..8 {
        let out = front.serve_batch(&queries, K, &opts, &[]).expect("recovery batch");
        if front.breaker_state(0) == BreakerState::Closed {
            closed = true;
            // With the breaker closed and the replica healthy the batch is
            // fully exact and clean.
            let t = out.tally();
            if t.clean == queries.len() as u64 {
                break;
            }
        }
    }
    assert!(closed, "the breaker never closed after the replica was restored");
    let final_out = front.serve_batch(&queries, K, &opts, &[]).expect("final batch");
    let t = final_out.tally();
    assert_eq!(t.clean, queries.len() as u64, "restored serving must be fully clean: {t:?}");
}
