//! Property tests for the resilience front-end's three control mechanisms:
//!
//! (a) **quotas** — a tenant's token bucket never admits more than
//!     `burst + window × refill` queries over any window of logical ticks;
//! (b) **deadlines** — a blown deadline always resolves to the *marked*
//!     `DeadlineDegraded` outcome; any answer that differs from the exact
//!     oracle is marked, never a silent partial;
//! (c) **breakers** — open/half-open/close transitions are a pure function of
//!     the seeded fault plan: two identical routers replay identical breaker
//!     trajectories, outcome for outcome.

use proptest::prelude::*;
use psb::prelude::*;
use psb::serve::AdmissionControl;

fn build_ss(ps: &PointSet) -> SsTree {
    build(ps, 16, &BuildMethod::Hilbert)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // (a) Over ANY window of ticks [a, b], a tenant with quota
    // (burst, refill) is admitted at most burst + (b - a) * refill queries.
    #[test]
    fn token_buckets_never_exceed_quota_per_window(
        burst in 1u64..6,
        refill in 0u64..4,
        submissions in prop::collection::vec(0u32..3, 1..120),
    ) {
        let mut ac = AdmissionControl::new(AdmissionConfig::default());
        for t in 0..3 {
            ac.set_quota(t, QuotaConfig { burst, refill_per_tick: refill });
        }
        // One logical tick per submission; record each tenant's admit ticks.
        let mut admits: Vec<Vec<u64>> = vec![Vec::new(); 3];
        for (i, &tenant) in submissions.iter().enumerate() {
            let tick = i as u64 + 1;
            if ac.try_admit(tenant, tick).is_ok() {
                admits[tenant as usize].push(tick);
                ac.complete();
            }
        }
        for ticks in &admits {
            for i in 0..ticks.len() {
                for j in i..ticks.len() {
                    let window = ticks[j] - ticks[i];
                    let admitted = (j - i + 1) as u64;
                    prop_assert!(
                        admitted <= burst + window * refill,
                        "window [{}, {}]: {admitted} admits > {} allowed",
                        ticks[i], ticks[j], burst + window * refill
                    );
                }
            }
        }
    }

    // (b) Under random cycle budgets, every query whose answer deviates from
    // the exact oracle carries the marked DeadlineDegraded outcome — a blown
    // deadline is never a silent partial result — and every exact-marked
    // outcome really is bit-identical to the oracle.
    #[test]
    fn blown_deadlines_are_always_marked_never_silent(
        seed in 1u64..5_000,
        budget in 0u64..200_000,
        k in 1usize..12,
    ) {
        let ps = ClusteredSpec {
            clusters: 4, points_per_cluster: 150, dims: 4, sigma: 120.0, seed,
        }.generate();
        let queries = sample_queries(&ps, 8, 0.02, seed ^ 0x5EED);
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let full = build_ss(&ps);
        let oracle = psb_batch(&full, &queries, k, &cfg, &opts).expect("oracle");

        let router = ShardRouter::build(&ps, &ServeConfig::new(4), &cfg, build_ss);
        let mut front = ResilientRouter::new(router, ResilienceConfig {
            default_deadline: DeadlineBudget::Cycles(budget),
            ..ResilienceConfig::default()
        });
        let got = front.serve_batch(&queries, k, &opts, &[]).expect("serve");

        prop_assert_eq!(got.tally().total(), queries.len() as u64);
        for (qi, outcome) in got.outcomes.iter().enumerate() {
            let exact_bits = got.neighbors[qi].len() == oracle.neighbors[qi].len()
                && got.neighbors[qi].iter().zip(&oracle.neighbors[qi]).all(|(g, w)| {
                    g.id == w.id && g.dist.to_bits() == w.dist.to_bits()
                });
            match outcome {
                ServeOutcome::Executed(QueryOutcome::DeadlineDegraded { visited, skipped }) => {
                    // Marked: accounting must name what was skipped.
                    prop_assert!(*skipped > 0, "query {qi}: marked outcome with nothing skipped");
                    prop_assert!(
                        *visited > 0 || got.neighbors[qi].is_empty(),
                        "query {qi}: answered from zero visited shards"
                    );
                }
                ServeOutcome::Executed(o) => {
                    prop_assert!(o.is_exact());
                    prop_assert!(
                        exact_bits,
                        "query {qi}: outcome {o:?} claims exact but differs from the oracle — \
                         a silent partial answer"
                    );
                }
                ServeOutcome::Rejected(r) => {
                    prop_assert!(false, "no admission pressure configured, got {r}");
                }
            }
        }
    }

    // (c) Breaker trajectories are deterministic: two identically built,
    // identically faulted routers under the same breaker config replay the
    // same outcomes and the same breaker states, batch after batch.
    #[test]
    fn breaker_transitions_are_deterministic_under_a_seeded_fault_plan(
        seed in 1u64..5_000,
        threshold in 1u32..4,
        backoff in 1u64..6,
    ) {
        let ps = ClusteredSpec {
            clusters: 4, points_per_cluster: 120, dims: 3, sigma: 100.0, seed,
        }.generate();
        let queries = sample_queries(&ps, 10, 0.02, seed ^ 0xF00D);
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let rc = ResilienceConfig {
            breaker: BreakerConfig {
                failure_threshold: threshold,
                backoff_base: backoff,
                backoff_max: backoff * 8,
                half_open_probes: 1,
            },
            ..ResilienceConfig::default()
        };
        let mk = || {
            let mut r = ShardRouter::build(&ps, &ServeConfig::new(4), &cfg, build_ss);
            r.set_fault_plan(0, 0, FaultPlan::truncation(1));
            r.set_fault_plan(1, 0, FaultPlan::truncation(1));
            ResilientRouter::new(r, rc.clone())
        };
        let mut a = mk();
        let mut b = mk();
        for batch in 0..3 {
            let ra = a.serve_batch(&queries, 6, &opts, &[]).expect("a");
            let rb = b.serve_batch(&queries, 6, &opts, &[]).expect("b");
            prop_assert_eq!(&ra.outcomes, &rb.outcomes, "batch {} outcomes", batch);
            prop_assert_eq!(ra.neighbors, rb.neighbors, "batch {} neighbors", batch);
            prop_assert_eq!(
                ra.resilience, rb.resilience,
                "batch {} resilience accounting", batch
            );
            for s in 0..4 {
                prop_assert_eq!(
                    a.breaker_state(s), b.breaker_state(s),
                    "batch {} shard {} breaker state", batch, s
                );
            }
        }
    }
}

#[test]
fn queue_pressure_sheds_with_typed_outcomes() {
    // A queue bound of zero sheds everything: each query still gets exactly
    // one typed outcome, and nothing executes.
    let ps = UniformSpec { len: 200, dims: 3, seed: 11 }.generate();
    let queries = UniformSpec { len: 10, dims: 3, seed: 12 }.generate();
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let router = ShardRouter::build(&ps, &ServeConfig::new(2), &cfg, build_ss);
    let mut front = ResilientRouter::new(
        router,
        ResilienceConfig {
            admission: AdmissionConfig { queue_capacity: 0, default_quota: None },
            ..ResilienceConfig::default()
        },
    );
    let out = front.serve_batch(&queries, 4, &opts, &[]).expect("serve");
    let tally = out.tally();
    assert_eq!(tally.rejected, 10);
    assert_eq!(tally.total(), 10);
    assert!(out.neighbors.iter().all(Vec::is_empty), "rejected queries must answer nothing");
    assert!(out
        .outcomes
        .iter()
        .all(|o| matches!(o, ServeOutcome::Rejected(RejectReason::QueueFull { .. }))));
    assert_eq!(out.resilience.rejected_queue, 10);
}

#[test]
fn tenant_quota_sheds_only_the_noisy_tenant() {
    let ps = UniformSpec { len: 200, dims: 3, seed: 13 }.generate();
    let queries = UniformSpec { len: 12, dims: 3, seed: 14 }.generate();
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let router = ShardRouter::build(&ps, &ServeConfig::new(2), &cfg, build_ss);
    let mut front = ResilientRouter::new(router, ResilienceConfig::default());
    // Tenant 7 may run 2 queries and never refills; tenant 1 is unmetered.
    front.set_quota(7, QuotaConfig { burst: 2, refill_per_tick: 0 });
    let requests: Vec<RequestMeta> =
        (0..queries.len()).map(|i| RequestMeta::tenant(if i % 2 == 0 { 7 } else { 1 })).collect();
    let out = front.serve_batch(&queries, 4, &opts, &requests).expect("serve");
    let tally = out.tally();
    assert_eq!(tally.rejected, 4, "6 submissions from tenant 7 minus burst of 2");
    assert_eq!(out.resilience.rejected_quota, 4);
    for (i, o) in out.outcomes.iter().enumerate() {
        if let ServeOutcome::Rejected(reason) = o {
            assert_eq!(i % 2, 0, "only tenant 7's queries may be shed");
            assert_eq!(*reason, RejectReason::QuotaExhausted { tenant: 7 });
        }
    }
}

#[test]
fn zero_budget_falls_to_nearest_shard_brute_marked() {
    // Cycles(0): no traversal budget at all. The front-end answers each query
    // with the exact brute scan over its nearest shard only — visited = 1,
    // everything else skipped or pruned, outcome marked. Uniform data makes
    // the shard spheres overlap, so the un-visited shards cannot all be
    // pruned away and the degrade is guaranteed to be marked.
    let ps = UniformSpec { len: 800, dims: 3, seed: 15 }.generate();
    let queries = sample_queries(&ps, 8, 0.005, 16);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let router = ShardRouter::build(&ps, &ServeConfig::new(4), &cfg, build_ss);
    let mut front = ResilientRouter::new(
        router,
        ResilienceConfig {
            default_deadline: DeadlineBudget::Cycles(0),
            ..ResilienceConfig::default()
        },
    );
    let out = front.serve_batch(&queries, 4, &opts, &[]).expect("serve");
    let mut marked = 0u64;
    for (qi, o) in out.outcomes.iter().enumerate() {
        match o {
            ServeOutcome::Executed(QueryOutcome::DeadlineDegraded { visited, skipped }) => {
                marked += 1;
                assert_eq!(*visited, 1, "query {qi}: exactly the nearest shard");
                assert!(*skipped >= 1, "query {qi}: the other shards are skipped");
                assert_eq!(out.neighbors[qi].len(), 4, "query {qi}: still answers k");
            }
            ServeOutcome::Executed(QueryOutcome::Clean) => {
                // Legitimate: the nearest shard's k-th distance pruned every
                // other shard, so the single brute visit is provably exact —
                // prune-only degradation stays unmarked because nothing was
                // actually given up.
                let oracle = linear_knn(&ps, queries.point(qi), 4);
                for (g, w) in out.neighbors[qi].iter().zip(&oracle) {
                    assert_eq!(g.id, w.id, "query {qi}: unmarked answer must be exact");
                    assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "query {qi}");
                }
            }
            other => panic!("query {qi}: unexpected outcome {other:?}"),
        }
    }
    assert!(marked > 0, "overlapping uniform shards must force marked degrades");
    assert_eq!(out.resilience.deadline_degraded, marked);
}

#[test]
fn per_request_deadline_overrides_the_default() {
    // Uniform data: overlapping shard spheres guarantee the zero-budget query
    // really has shards to skip (see zero_budget_falls_to_nearest_shard_*).
    let ps = UniformSpec { len: 800, dims: 3, seed: 17 }.generate();
    let queries = sample_queries(&ps, 6, 0.005, 18);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let router = ShardRouter::build(&ps, &ServeConfig::new(4), &cfg, build_ss);
    // Default: unlimited. Request 0 carries its own zero budget.
    let mut front = ResilientRouter::new(router, ResilienceConfig::default());
    let mut requests = vec![RequestMeta::default(); queries.len()];
    requests[0] = RequestMeta::default().with_deadline(DeadlineBudget::Cycles(0));
    let out = front.serve_batch(&queries, 4, &opts, &requests).expect("serve");
    assert!(
        matches!(out.outcomes[0], ServeOutcome::Executed(QueryOutcome::DeadlineDegraded { .. })),
        "query 0 carries the zero budget"
    );
    for (qi, o) in out.outcomes.iter().enumerate().skip(1) {
        assert!(o.is_exact(), "query {qi} runs unlimited, got {o:?}");
    }
}

#[test]
fn exact_result_cache_hits_bit_identically_and_epoch_invalidates() {
    let ps = UniformSpec { len: 400, dims: 3, seed: 19 }.generate();
    let mut queries = PointSet::new(3);
    let q0 = ps.point(5).to_vec();
    for _ in 0..6 {
        queries.push(&q0); // the same query six times — a cache's best day
    }
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let router = ShardRouter::build(&ps, &ServeConfig::new(2), &cfg, build_ss);
    let mut front = ResilientRouter::new(
        router,
        ResilienceConfig { cache_capacity: 16, ..ResilienceConfig::default() },
    );
    let out = front.serve_batch(&queries, 5, &opts, &[]).expect("serve");
    assert_eq!(out.resilience.cache_hits, 5, "first miss, five hits");
    for nb in &out.neighbors {
        assert_eq!(nb.len(), 5);
        for (a, b) in nb.iter().zip(&out.neighbors[0]) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.dist.to_bits(), b.dist.to_bits());
        }
    }
    front.invalidate_cache();
    let again = front.serve_batch(&queries, 5, &opts, &[]).expect("serve");
    assert_eq!(again.resilience.cache_hits, 5, "epoch bump: one recompute, then hits again");
    let (hits, misses, _, invalidations) = front.cache_stats();
    assert_eq!(hits, 10);
    assert_eq!(misses, 2);
    assert_eq!(invalidations, 1);
}

/// The dynamic router keeps its cached answers right under writes instead of
/// dropping them: a rebuild changes no answer, an insert is folded into every
/// resident one, and only a remove — whose successor in the k-th place no
/// entry holds — flushes. Every repeat is held to the linear oracle over the
/// set as it stands.
#[test]
fn dynamic_router_cache_stays_exact_under_writes() {
    const K: usize = 5;
    let ps = UniformSpec { len: 300, dims: 3, seed: 21 }.generate();
    let mut r = DynamicShardRouter::build(&ps, 3, &psb::core::shard::ShardPolicy::HilbertRange, 8);
    r.attach_cache(32);
    let mut mirror: Vec<(u32, Vec<f32>)> =
        (0..ps.len()).map(|i| (i as u32, ps.point(i).to_vec())).collect();
    let q = ps.point(0).to_vec();
    let oracle = |mirror: &[(u32, Vec<f32>)]| {
        let mut all: Vec<Neighbor> =
            mirror.iter().map(|(id, p)| Neighbor { dist: dist(&q, p), id: *id }).collect();
        all.sort_by(Neighbor::by_rank);
        all.truncate(K);
        all
    };
    let first = r.knn(&q, K);
    assert_eq!(first, oracle(&mirror));
    assert_eq!(r.knn(&q, K), first);
    assert_eq!(r.cache_stats(), (1, 1, 0, 0), "second ask hits");

    // A rebuild indexes the same set: the entry stays and is served.
    let version = r.version();
    for s in 0..r.num_shards() {
        r.rebuild_shard(s);
    }
    assert_eq!(r.version(), version, "a rebuild is not a mutation");
    assert_eq!(r.knn(&q, K), first);
    assert_eq!(r.cache_stats(), (2, 1, 0, 0), "a repeat after the rebuilds hits");

    // An insert beyond the k-th neighbour: a hit, and the same answer.
    let along_x = |dx: f32| vec![q[0] + dx, q[1], q[2]];
    let far = along_x(first[K - 1].dist * 2.0);
    mirror.push((r.insert(&far), far));
    assert_eq!(r.version(), version + 1);
    assert_eq!(r.knn(&q, K), first);
    assert_eq!(r.knn(&q, K), oracle(&mirror));
    assert_eq!(r.cache_stats(), (4, 1, 0, 0));

    // An insert between the (k-1)-th and the k-th: the hit shows it in the
    // k-th place, as the oracle over the grown set does.
    let near = along_x((first[K - 2].dist + first[K - 1].dist) / 2.0);
    let id = r.insert(&near);
    mirror.push((id, near));
    let grown = r.knn(&q, K);
    assert_eq!(grown[..K - 1], first[..K - 1]);
    assert_eq!(grown[K - 1].id, id, "the inserted point took the k-th place");
    assert_eq!(grown, oracle(&mirror));
    assert_eq!(r.cache_stats(), (5, 1, 0, 0), "and that was a hit");

    // A remove drops every entry: the repeat recomputes.
    assert!(r.remove(grown[1].id));
    mirror.retain(|(g, _)| *g != grown[1].id);
    assert_eq!(r.knn(&q, K), oracle(&mirror));
    assert_eq!(r.cache_stats(), (5, 2, 0, 1), "a miss after the one flush");
    assert!(!r.remove(grown[1].id), "a remove that finds nothing");
    assert_eq!(r.knn(&q, K), oracle(&mirror));
    assert_eq!(r.cache_stats(), (6, 2, 0, 1), "flushes nothing");
}

/// A query asked twice, then once more after every `capacity + 1` one-off
/// queries. The resilient front end's cache marks hits, so the hand spares
/// it each time it passes and every return hits; the dynamic router's cache
/// evicts in insertion order, so by every return it is gone. Either way each
/// answer is the uncached router's and the linear oracle's, bit for bit.
#[test]
fn a_hot_query_outlives_one_off_queries_only_where_hits_mark() {
    const K: usize = 4;
    const CAPACITY: usize = 4;
    const RETURNS: usize = 5;
    let ps = UniformSpec { len: 400, dims: 3, seed: 23 }.generate();
    let hot = ps.point(0).to_vec();
    let mut queries = PointSet::new(3);
    queries.push(&hot);
    queries.push(&hot);
    for r in 0..RETURNS {
        for c in 0..=CAPACITY {
            queries.push(ps.point(1 + r * (CAPACITY + 1) + c));
        }
        queries.push(&hot);
    }
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let router = || ShardRouter::build(&ps, &ServeConfig::new(2), &cfg, build_ss);
    let uncached = router().serve_batch(&queries, K, &opts).expect("serve");

    let mut front = ResilientRouter::new(
        router(),
        ResilienceConfig { cache_capacity: CAPACITY, ..ResilienceConfig::default() },
    );
    let out = front.serve_batch(&queries, K, &opts, &[]).expect("serve");
    assert_eq!(out.resilience.cache_hits, 1 + RETURNS as u64, "the second ask and every return");

    let mut dynamic =
        DynamicShardRouter::build(&ps, 2, &psb::core::shard::ShardPolicy::HilbertRange, 8);
    dynamic.attach_cache(CAPACITY);
    let answers: Vec<Vec<Neighbor>> = queries.iter().map(|q| dynamic.knn(q, K)).collect();
    let (hits, misses, _, _) = dynamic.cache_stats();
    assert_eq!((hits, misses), (1, (queries.len() - 1) as u64), "only the second ask hits");

    let bits = |nb: &[Neighbor]| nb.iter().map(|n| (n.id, n.dist.to_bits())).collect::<Vec<_>>();
    for (qi, dynamic) in answers.iter().enumerate() {
        let oracle = bits(&linear_knn(&ps, queries.point(qi), K));
        assert_eq!(bits(&out.neighbors[qi]), oracle, "resilient, query {qi}");
        assert_eq!(bits(&uncached.neighbors[qi]), oracle, "uncached, query {qi}");
        assert_eq!(bits(dynamic), oracle, "dynamic, query {qi}");
    }
}

/// Writes reach a fronted router through `inner_mut`, past the front end's
/// cache: the next batch sees the router's version move and drops the cached
/// answers, so an insert nearer than a cached answer's k-th neighbour shows
/// in the repeat, and a remove of it does too.
#[test]
fn writes_through_inner_mut_leave_no_stale_front_end_answer() {
    const K: usize = 5;
    let ps = UniformSpec { len: 300, dims: 3, seed: 25 }.generate();
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let router = ShardRouter::build(&ps, &ServeConfig::new(3), &cfg, build_ss);
    let mut front = ResilientRouter::new(
        router,
        ResilienceConfig { cache_capacity: 8, ..ResilienceConfig::default() },
    );
    let mut queries = PointSet::new(3);
    queries.push(ps.point(0));
    queries.push(ps.point(1));
    let mut mirror: Vec<(u32, Vec<f32>)> =
        (0..ps.len()).map(|i| (i as u32, ps.point(i).to_vec())).collect();
    let oracle = |mirror: &[(u32, Vec<f32>)], q: &[f32]| {
        let mut all: Vec<Neighbor> =
            mirror.iter().map(|(id, p)| Neighbor { dist: dist(q, p), id: *id }).collect();
        all.sort_by(Neighbor::by_rank);
        all.truncate(K);
        all
    };
    let serve = |front: &mut ResilientRouter<SsTree>| {
        front.serve_batch(&queries, K, &opts, &[]).expect("serve").neighbors
    };
    let first = serve(&mut front);
    assert_eq!(serve(&mut front), first);
    assert_eq!(front.cache_stats().0, 2, "the repeat hits");

    // Halfway to the nearest neighbour other than the query point itself.
    let q = ps.point(0);
    let near: Vec<f32> =
        q.iter().zip(ps.point(first[0][1].id as usize)).map(|(a, b)| (a + b) / 2.0).collect();
    let id = front.inner_mut().insert(&near);
    mirror.push((id, near));
    let grown = serve(&mut front);
    assert_eq!(grown[0][1].id, id, "the insert took second place");
    for (qi, got) in grown.iter().enumerate() {
        assert_eq!(got, &oracle(&mirror, queries.point(qi)), "after the insert, query {qi}");
    }

    assert!(front.inner_mut().remove(id));
    mirror.pop();
    let back = serve(&mut front);
    assert_eq!(back, first, "after the remove");
    assert_eq!(front.cache_stats().3, 2, "one flush per write");
}
