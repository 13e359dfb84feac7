//! Golden parity for the resilience front-end: with admission unconstrained —
//! no deadline, no quota, breakers disabled, cache off — [`ResilientRouter`]
//! must be **bit-identical** to the bare [`ShardRouter`], across both index
//! families, with and without faults in the replica path; and the bare router
//! itself is pinned against every exact-kNN kernel the engine ships. Plus the
//! router edge cases the robustness pass hardened: impossible layouts are
//! typed errors, oversized `k` yields exact partial results, never a panic.

use psb::prelude::*;

const K: usize = 8;

fn assert_neighbors_bit_identical(a: &[Vec<Neighbor>], b: &[Vec<Neighbor>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: query count differs");
    for (qi, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.len(), y.len(), "{what}: query {qi} result length differs");
        for (j, (nx, ny)) in x.iter().zip(y).enumerate() {
            assert_eq!(nx.id, ny.id, "{what}: query {qi} rank {j} id differs");
            assert_eq!(
                nx.dist.to_bits(),
                ny.dist.to_bits(),
                "{what}: query {qi} rank {j} distance bits differ"
            );
        }
    }
}

fn workload(dims: usize, seed: u64) -> (PointSet, PointSet) {
    let ps =
        ClusteredSpec { clusters: 6, points_per_cluster: 250, dims, sigma: 130.0, seed }.generate();
    let queries = sample_queries(&ps, 20, 0.01, seed ^ 0xA11CE);
    (ps, queries)
}

fn build_ss(ps: &PointSet) -> SsTree {
    build(ps, 16, &BuildMethod::Hilbert)
}

fn build_rs(ps: &PointSet) -> RsTree {
    build_rtree(ps, 16, &RtreeBuildMethod::Hilbert)
}

/// Runs the same workload through the bare router and a transparent resilient
/// front-end (both freshly built, same fault plans) and demands bit-identity
/// on results, counters, and outcome classification.
fn assert_transparent_parity<V: Volumes>(
    ps: &PointSet,
    queries: &PointSet,
    sc: &ServeConfig,
    build_index: impl Fn(&PointSet) -> FlatTree<V> + Copy,
    faults: &[(usize, usize, FaultPlan)],
    what: &str,
) {
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let mut bare = ShardRouter::build(ps, sc, &cfg, build_index);
    let mut front = {
        let mut r = ShardRouter::build(ps, sc, &cfg, build_index);
        for (s, rep, plan) in faults {
            r.set_fault_plan(*s, *rep, plan.clone());
        }
        ResilientRouter::new(r, ResilienceConfig::default())
    };
    for (s, rep, plan) in faults {
        bare.set_fault_plan(*s, *rep, plan.clone());
    }

    let want = bare.serve_batch(queries, K, &opts).expect("bare serve");
    let got = front.serve_batch(queries, K, &opts, &[]).expect("resilient serve");

    assert_neighbors_bit_identical(&want.neighbors, &got.neighbors, what);
    assert_eq!(want.per_query, got.per_query, "{what}: per-query counters differ");
    assert_eq!(want.outcomes.len(), got.outcomes.len(), "{what}: outcome count differs");
    for (qi, (w, g)) in want.outcomes.iter().zip(&got.outcomes).enumerate() {
        assert_eq!(
            &ServeOutcome::Executed(*w),
            g,
            "{what}: query {qi} outcome classification differs"
        );
    }
    assert_eq!(want.report.shard_visits, got.report.shard_visits, "{what}: visit ledger differs");
    assert_eq!(want.report.shard_prunes, got.report.shard_prunes, "{what}: prune ledger differs");
    assert_eq!(want.report.failovers, got.report.failovers, "{what}: failover log differs");
    assert_eq!(
        want.report.launch.merged, got.report.launch.merged,
        "{what}: merged launch counters differ"
    );
    // The transparent front-end admits everything and degrades nothing.
    let tally = got.tally();
    assert_eq!(tally.rejected, 0, "{what}: transparent config must admit everything");
    assert_eq!(tally.deadline_degraded, 0, "{what}: transparent config never degrades");
    assert_eq!(tally.total(), queries.len() as u64);
    assert_eq!(got.resilience.breaker_skips + got.resilience.deadline_skips, 0);
}

#[test]
fn transparent_front_end_is_bit_identical_sstree() {
    let (ps, queries) = workload(4, 7101);
    assert_transparent_parity(&ps, &queries, &ServeConfig::new(4), build_ss, &[], "ss clean");
}

#[test]
fn transparent_front_end_is_bit_identical_rtree() {
    let (ps, queries) = workload(6, 7201);
    assert_transparent_parity(&ps, &queries, &ServeConfig::new(4), build_rs, &[], "rs clean");
}

#[test]
fn transparent_front_end_is_bit_identical_under_faults() {
    let (ps, queries) = workload(4, 7301);
    // One faulted primary (peer answers: Retried path) and one fully faulted
    // single-replica shard (brute fallback: Degraded path).
    assert_transparent_parity(
        &ps,
        &queries,
        &ServeConfig::new(4).with_replicas(2),
        build_ss,
        &[(0, 0, FaultPlan::truncation(1))],
        "ss faulted primary",
    );
    assert_transparent_parity(
        &ps,
        &queries,
        &ServeConfig::new(4),
        build_ss,
        &[
            (0, 0, FaultPlan::truncation(1)),
            (1, 0, FaultPlan::truncation(1)),
            (2, 0, FaultPlan::truncation(1)),
            (3, 0, FaultPlan::truncation(1)),
        ],
        "ss all shards faulted",
    );
    assert_transparent_parity(
        &ps,
        &queries,
        &ServeConfig::new(4).with_replicas(2),
        build_rs,
        &[(1, 0, FaultPlan::bit_flips(0xF00D, 1))],
        "rs faulted primary",
    );
}

/// The front-end's answers pinned against every exact-kNN kernel the engine
/// ships: PSB, branch-and-bound, restart, brute force, and the task-parallel
/// TPSS lanes. (The sixth kernel, range, answers a different question — all
/// points within a radius — and has no kNN result to compare.)
#[test]
fn transparent_front_end_matches_every_exact_kernel() {
    let (ps, queries) = workload(4, 7401);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let full = build_ss(&ps);

    let router = ShardRouter::build(&ps, &ServeConfig::new(4), &cfg, build_ss);
    let mut front = ResilientRouter::new(router, ResilienceConfig::default());
    let got = front.serve_batch(&queries, K, &opts, &[]).expect("resilient serve");

    let psb = psb_batch(&full, &queries, K, &cfg, &opts).expect("psb");
    assert_neighbors_bit_identical(&psb.neighbors, &got.neighbors, "vs psb");
    let bnb = bnb_batch(&full, &queries, K, &cfg, &opts).expect("bnb");
    assert_neighbors_bit_identical(&bnb.neighbors, &got.neighbors, "vs bnb");
    let restart = restart_batch(&full, &queries, K, &cfg, &opts).expect("restart");
    assert_neighbors_bit_identical(&restart.neighbors, &got.neighbors, "vs restart");
    let brute = brute_batch(&ps, &queries, K, &cfg, &opts).expect("brute");
    assert_neighbors_bit_identical(&brute.neighbors, &got.neighbors, "vs brute");
    let (tpss, _) = tpss_batch(&full, &queries, K, &cfg, 32);
    assert_neighbors_bit_identical(&tpss, &got.neighbors, "vs tpss");
}

#[test]
fn zero_shards_is_a_typed_error_not_a_panic() {
    let ps = UniformSpec { len: 100, dims: 3, seed: 1 }.generate();
    let err = ShardRouter::try_build(&ps, &ServeConfig::new(0), &DeviceConfig::k40(), build_ss)
        .err()
        .expect("zero shards must fail");
    assert!(matches!(err, EngineError::NoShards), "got {err:?}");
}

#[test]
fn more_shards_than_points_is_a_typed_error() {
    let ps = UniformSpec { len: 5, dims: 3, seed: 2 }.generate();
    let err = ShardRouter::try_build(&ps, &ServeConfig::new(8), &DeviceConfig::k40(), build_ss)
        .err()
        .expect("8 shards over 5 points must fail");
    assert!(matches!(err, EngineError::TooManyShards { shards: 8, points: 5 }), "got {err:?}");
}

#[test]
fn empty_dataset_is_a_typed_error() {
    let ps = PointSet::new(3);
    let err = ShardRouter::try_build(&ps, &ServeConfig::new(2), &DeviceConfig::k40(), build_ss)
        .err()
        .expect("empty dataset must fail");
    assert!(matches!(err, EngineError::TooManyShards { shards: 2, points: 0 }), "got {err:?}");
}

#[test]
fn k_beyond_the_nearest_shard_stays_exact() {
    // 5 shards over 40 points → 8 points per shard; k = 20 forces the merge
    // to pull from several shards. Exact, no panic, matches the oracle.
    let ps = UniformSpec { len: 40, dims: 3, seed: 3 }.generate();
    let queries = UniformSpec { len: 6, dims: 3, seed: 4 }.generate();
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let mut router = ShardRouter::build(&ps, &ServeConfig::new(5), &cfg, build_ss);
    let out = router.serve_batch(&queries, 20, &opts).expect("serve");
    for (qi, nb) in out.neighbors.iter().enumerate() {
        let oracle = linear_knn(&ps, queries.point(qi), 20);
        assert_eq!(nb.len(), 20, "query {qi}");
        for (g, w) in nb.iter().zip(&oracle) {
            assert_eq!(g.id, w.id, "query {qi}");
            assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "query {qi}");
        }
    }
}

#[test]
fn k_beyond_the_whole_dataset_returns_partial_results() {
    // k = 100 over 30 points: every query answers with all 30 points, ranked.
    let ps = UniformSpec { len: 30, dims: 3, seed: 5 }.generate();
    let queries = UniformSpec { len: 4, dims: 3, seed: 6 }.generate();
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let mut router = ShardRouter::build(&ps, &ServeConfig::new(3), &cfg, build_ss);
    let out = router.serve_batch(&queries, 100, &opts).expect("serve");
    for (qi, nb) in out.neighbors.iter().enumerate() {
        assert_eq!(nb.len(), 30, "query {qi}: partial result must cover the dataset");
        let oracle = linear_knn(&ps, queries.point(qi), 30);
        assert_eq!(nb.len(), oracle.len());
        for (g, w) in nb.iter().zip(&oracle) {
            assert_eq!(g.id, w.id, "query {qi}");
        }
    }
    assert!(out.outcomes.iter().all(QueryOutcome::is_clean));
}
