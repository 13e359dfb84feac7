//! Shard parity: the serving layer is invisible in the results.
//!
//! The shard router partitions the dataset across S simulated devices, prunes
//! shards by MINDIST, and merges per-shard top-k lists — and the acceptance
//! bar for all of it is **bit-identity**: for every S and both index families
//! the served neighbors must equal a single-device run over the unsharded
//! tree, id for id and distance bit for bit. The failover tests hold the same
//! bar with faulted replicas in the path: demote-and-reroute must produce
//! zero wrong answers.

use proptest::prelude::*;
use psb::prelude::*;

/// Bitwise equality for neighbor lists (same contract as the other parity
/// suites): ids exact, distances compared via `to_bits`.
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
    let queries = sample_queries(&ps, 24, 0.01, seed ^ 0xA11CE);
    (ps, queries)
}

fn build_ss(ps: &PointSet) -> SsTree {
    build(ps, 16, &BuildMethod::Hilbert)
}

fn build_rs(ps: &PointSet) -> RsTree {
    build_rtree(ps, 16, &RtreeBuildMethod::Hilbert)
}

#[test]
fn sstree_sharded_knn_is_bit_identical_to_single_device() {
    let (ps, queries) = workload(4, 3101);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let full = build_ss(&ps);
    let single = psb_batch(&full, &queries, 8, &cfg, &opts).expect("single-device");
    for shards in [2, 4, 8] {
        for policy in [ShardPolicy::HilbertRange, ShardPolicy::KMeans { seed: 77 }] {
            let sc = ServeConfig::new(shards).with_policy(policy);
            let mut router = ShardRouter::build(&ps, &sc, &cfg, build_ss);
            let served = router.serve_batch(&queries, 8, &opts).expect("serve");
            assert_neighbors_bit_identical(
                &single.neighbors,
                &served.neighbors,
                &format!("sstree S={shards} {policy:?}"),
            );
            assert!(served.outcomes.iter().all(QueryOutcome::is_clean));
            assert!(served.report.failovers.is_empty());
        }
    }
}

#[test]
fn rtree_sharded_knn_is_bit_identical_to_single_device() {
    let (ps, queries) = workload(6, 3201);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let full = build_rs(&ps);
    let single = psb_batch(&full, &queries, 8, &cfg, &opts).expect("single-device");
    for shards in [2, 4, 8] {
        let sc = ServeConfig::new(shards);
        let mut router = ShardRouter::build(&ps, &sc, &cfg, build_rs);
        let served = router.serve_batch(&queries, 8, &opts).expect("serve");
        assert_neighbors_bit_identical(
            &single.neighbors,
            &served.neighbors,
            &format!("rtree S={shards}"),
        );
        assert!(served.outcomes.iter().all(QueryOutcome::is_clean));
    }
}

#[test]
fn faulted_replica_fails_over_to_peer_with_zero_wrong_answers() {
    let (ps, queries) = workload(4, 3301);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let full = build_ss(&ps);
    let single = psb_batch(&full, &queries, 8, &cfg, &opts).expect("single-device");

    let sc = ServeConfig::new(4).with_replicas(2);
    let mut router = ShardRouter::build(&ps, &sc, &cfg, build_ss);
    // Seed a fault on shard 0's primary: its first launch dies immediately.
    router.set_fault_plan(0, 0, FaultPlan::truncation(1));

    let served = router.serve_batch(&queries, 8, &opts).expect("serve");
    assert_neighbors_bit_identical(&single.neighbors, &served.neighbors, "failover batch");

    // Exactly one failover: the first query to visit shard 0 demotes the
    // primary; the latch keeps it out of rotation afterwards.
    assert_eq!(served.report.failovers.len(), 1, "latched demotion must fail over once");
    let ev = served.report.failovers[0];
    assert_eq!((ev.shard, ev.replica), (0, 0));
    assert!(matches!(router.replica_state(0, 0), ReplicaState::Demoted { .. }));
    assert_eq!(router.replica_state(0, 1), ReplicaState::Healthy);

    // The query that hit the fault is Retried (peer answered); nothing
    // degraded; the aggregated report agrees with the outcomes.
    let retried = served.outcomes.iter().filter(|o| !o.is_clean()).count();
    assert_eq!(retried, 1);
    assert!(served.outcomes.iter().all(|o| !matches!(o, QueryOutcome::Degraded { .. })));
    assert_eq!(served.report.launch.retried_queries, 1);
    assert_eq!(served.report.launch.degraded_queries, 0);

    // A second batch sees the demotion already latched: no new failover
    // events, still bit-identical answers.
    let again = router.serve_batch(&queries, 8, &opts).expect("second batch");
    assert_neighbors_bit_identical(&single.neighbors, &again.neighbors, "post-latch batch");
    assert!(again.report.failovers.is_empty());
    assert!(again.outcomes.iter().all(QueryOutcome::is_clean));
}

#[test]
fn shard_with_no_healthy_replica_degrades_exactly() {
    let (ps, queries) = workload(4, 3401);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let full = build_ss(&ps);
    let single = psb_batch(&full, &queries, 8, &cfg, &opts).expect("single-device");

    // Single replica per shard, every shard's replica faulted: once demoted,
    // each visited shard must answer through the exact link-free brute scan.
    let mut router = ShardRouter::build(&ps, &ServeConfig::new(4), &cfg, build_ss);
    for s in 0..router.num_shards() {
        router.set_fault_plan(s, 0, FaultPlan::truncation(1));
    }
    let served = router.serve_batch(&queries, 8, &opts).expect("serve");
    assert_neighbors_bit_identical(&single.neighbors, &served.neighbors, "degraded batch");
    assert!(
        served.outcomes.iter().any(|o| matches!(o, QueryOutcome::Degraded { .. })),
        "an all-faulted router must record degraded queries"
    );
    assert_eq!(
        served.report.launch.degraded_queries,
        served.outcomes.iter().filter(|o| matches!(o, QueryOutcome::Degraded { .. })).count()
            as u64,
    );
    for s in 0..router.num_shards() {
        assert!(matches!(router.replica_state(s, 0), ReplicaState::Demoted { .. }));
    }
}

#[test]
fn sharding_prunes_but_never_loses_neighbors() {
    // The metering side of the tentpole: pruning must actually happen on a
    // workload with spatial structure (in high-dim uniform data shard spheres
    // overlap almost totally and MINDIST prunes nothing — that regime is
    // covered by the parity tests above), and the prune/visit ledger must
    // cover every (query, shard) decision.
    let ps =
        ClusteredSpec { clusters: 8, points_per_cluster: 400, dims: 4, sigma: 90.0, seed: 3501 }
            .generate();
    let queries = sample_queries(&ps, 24, 0.005, 3502);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let full = build_ss(&ps);
    let single = psb_batch(&full, &queries, 8, &cfg, &opts).expect("single-device");
    let mut router = ShardRouter::build(&ps, &ServeConfig::new(8), &cfg, build_ss);
    let served = router.serve_batch(&queries, 8, &opts).expect("serve");
    assert_neighbors_bit_identical(&single.neighbors, &served.neighbors, "clustered S=8");
    let decisions = served.report.shards_visited() + served.report.shards_pruned();
    assert_eq!(decisions, 8 * queries.len() as u64);
    assert!(served.report.shards_pruned() > 0, "no pruning on 8 shards");
    // Pruned shards must save real work: serving from 8 shards has to cost
    // fewer node visits than paying the single-device bill once per shard.
    let (sharded, one_device) =
        (served.report.launch.merged.nodes_visited, single.report.merged.nodes_visited);
    assert!(
        sharded < 8 * one_device,
        "S=8 served {sharded} node visits, not below 8 x {one_device} single-device"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Randomized sweep over workload shape, shard count, policy, and k: the
    // served result must stay bit-identical to the unsharded single-device
    // engine everywhere.
    #[test]
    fn sharded_serving_parity_holds_everywhere(
        seed in 1u64..10_000,
        dims in 2usize..9,
        k in 1usize..16,
        shards in 2usize..9,
        kmeans in 0u8..2,
    ) {
        let ps = ClusteredSpec {
            clusters: 4, points_per_cluster: 150, dims, sigma: 120.0, seed,
        }.generate();
        let queries = sample_queries(&ps, 10, 0.02, seed ^ 0x5EED);
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let full = build_ss(&ps);
        let single = psb_batch(&full, &queries, k, &cfg, &opts).expect("single-device");
        let policy = if kmeans == 1 {
            ShardPolicy::KMeans { seed: seed ^ 0xC0FFEE }
        } else {
            ShardPolicy::HilbertRange
        };
        let sc = ServeConfig::new(shards).with_policy(policy);
        let mut router = ShardRouter::build(&ps, &sc, &cfg, build_ss);
        let served = router.serve_batch(&queries, k, &opts).expect("serve");
        assert_neighbors_bit_identical(&single.neighbors, &served.neighbors, "proptest");
    }
}

/// Mutable shards under faults: every shard holds pending inserts and
/// tombstones, and the served answers are the linear scan of the live set,
/// bit for bit — first with one shard's primary dying (a peer answers), then
/// with every replica of another shard demoted, so that its brute rung
/// answers and must turn the tombstones away; half the queries sit on a
/// removed point, at distance 0 from it. Then every shard rebuilds and the
/// answers hold.
fn mutable_shards_answer_the_live_set_under_faults<V: Volumes>(
    build_index: fn(&PointSet) -> FlatTree<V>,
    dims: usize,
    seed: u64,
) {
    const K: usize = 6;
    let (ps, sampled) = workload(dims, seed);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let sc = ServeConfig::new(4).with_replicas(2);
    let mut router = ShardRouter::build(&ps, &sc, &cfg, build_index);
    let mut live: Vec<(u32, Vec<f32>)> =
        (0..ps.len()).map(|i| (i as u32, ps.point(i).to_vec())).collect();
    // Tombstones: four points of every shard, each also a query.
    let mut queries = PointSet::new(dims);
    for members in &partition(&ps, 4, &sc.policy).assignments {
        for j in 0..4 {
            let id = members[j * 37 % members.len()];
            assert!(router.remove(id));
            live.retain(|(g, _)| *g != id);
            queries.push(ps.point(id as usize));
        }
    }
    sampled.iter().take(16).for_each(|q| queries.push(q));
    // Pending inserts: three at every shard's center, which routes them there.
    for s in 0..router.num_shards() {
        for j in 0..3 {
            let mut p = router.sphere(s).center.clone();
            p[0] += j as f32 * 0.25;
            live.push((router.insert(&p), p));
        }
    }
    let oracle: Vec<Vec<Neighbor>> = queries
        .iter()
        .map(|q| {
            let mut all: Vec<Neighbor> =
                live.iter().map(|(id, p)| Neighbor { dist: dist(q, p), id: *id }).collect();
            all.sort_by(Neighbor::by_rank);
            all.truncate(K);
            all
        })
        .collect();
    let has =
        |out: &ServeBatchResult, rung: fn(&QueryOutcome) -> bool| out.outcomes.iter().any(rung);

    router.set_fault_plan(0, 0, FaultPlan::truncation(1));
    let served = router.serve_batch(&queries, K, &opts).expect("serve");
    assert_neighbors_bit_identical(&oracle, &served.neighbors, "a primary dies");
    assert!(has(&served, |o| matches!(o, QueryOutcome::Retried { .. })));

    router.set_fault_plan(1, 0, FaultPlan::truncation(1));
    router.set_fault_plan(1, 1, FaultPlan::watchdog(1));
    let served = router.serve_batch(&queries, K, &opts).expect("serve");
    assert_neighbors_bit_identical(&oracle, &served.neighbors, "a shard on its brute rung");
    assert!(has(&served, |o| matches!(o, QueryOutcome::Degraded { .. })));
    assert!(matches!(router.replica_state(1, 1), ReplicaState::Demoted { .. }));

    for s in 0..router.num_shards() {
        router.rebuild_shard(s);
    }
    let served = router.serve_batch(&queries, K, &opts).expect("serve");
    assert_neighbors_bit_identical(&oracle, &served.neighbors, "after the rebuilds");
}

#[test]
fn mutable_sstree_shards_answer_the_live_set_under_faults() {
    mutable_shards_answer_the_live_set_under_faults(build_ss, 4, 3601);
}

#[test]
fn mutable_rtree_shards_answer_the_live_set_under_faults() {
    mutable_shards_answer_the_live_set_under_faults(build_rs, 6, 3701);
}
