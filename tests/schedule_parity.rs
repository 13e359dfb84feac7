//! Schedule parity: the spatial query scheduler is a *pure permutation*.
//!
//! Under [`QuerySchedule::Hilbert`] the engine executes a batch in
//! Hilbert-curve order (and PSB additionally runs through the sweep-replay
//! throughput kernel), then un-permutes every per-query output back to
//! submission order. These tests prove the whole visible surface is
//! bit-identical to the submission-order engine — neighbors (ids and distance
//! bits), per-query `KernelStats`, outcomes, and the derived `LaunchReport` —
//! across the five scheduled kernels and both index types, mirroring
//! `tests/layout_parity.rs`. TPSS takes no options, so it has no schedule.

use proptest::prelude::*;
use psb::prelude::*;

/// Bitwise equality for neighbor lists: ids must match exactly and distances
/// must match *to the bit* — `PartialEq` on f32 would let -0.0 == 0.0 slide.
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

/// Full-result equality: per-query counters and outcomes via `Eq`, derived
/// f64 report metrics via `to_bits` so a ULP of drift fails loudly.
fn assert_batches_bit_identical(a: &QueryBatchResult, b: &QueryBatchResult, what: &str) {
    assert_neighbors_bit_identical(&a.neighbors, &b.neighbors, what);
    assert_eq!(a.per_block, b.per_block, "{what}: per-block KernelStats differ");
    assert_eq!(a.outcomes, b.outcomes, "{what}: outcomes differ");
    assert_eq!(a.report.merged, b.report.merged, "{what}: merged KernelStats differ");
    assert_eq!(
        a.report.avg_response_ms.to_bits(),
        b.report.avg_response_ms.to_bits(),
        "{what}: avg_response_ms differs"
    );
    assert_eq!(
        a.report.max_response_ms.to_bits(),
        b.report.max_response_ms.to_bits(),
        "{what}: max_response_ms differs"
    );
    assert_eq!(
        a.report.makespan_ms.to_bits(),
        b.report.makespan_ms.to_bits(),
        "{what}: makespan_ms differs"
    );
    assert_eq!(
        a.report.warp_efficiency.to_bits(),
        b.report.warp_efficiency.to_bits(),
        "{what}: warp_efficiency differs"
    );
    assert_eq!(
        a.report.avg_accessed_mb.to_bits(),
        b.report.avg_accessed_mb.to_bits(),
        "{what}: avg_accessed_mb differs"
    );
    assert_eq!(a.report.occupancy, b.report.occupancy, "{what}: occupancy differs");
}

fn scheduled(opts: &KernelOptions) -> KernelOptions {
    KernelOptions { schedule: QuerySchedule::Hilbert, ..opts.clone() }
}

/// Runs the five kernels over one index under both schedules and asserts
/// bit-identity on everything a caller can observe.
fn check_schedules<V: Volumes>(
    tree: &FlatTree<V>,
    ps: &PointSet,
    queries: &PointSet,
    k: usize,
    label: &str,
) {
    let cfg = DeviceConfig::k40();
    let sub = KernelOptions::default();
    let hil = scheduled(&sub);

    let a = psb_batch(tree, queries, k, &cfg, &sub).expect("psb submission");
    let b = psb_batch(tree, queries, k, &cfg, &hil).expect("psb scheduled");
    assert_batches_bit_identical(&a, &b, &format!("{label}/psb"));

    let a = bnb_batch(tree, queries, k, &cfg, &sub).expect("bnb submission");
    let b = bnb_batch(tree, queries, k, &cfg, &hil).expect("bnb scheduled");
    assert_batches_bit_identical(&a, &b, &format!("{label}/bnb"));

    let a = restart_batch(tree, queries, k, &cfg, &sub).expect("restart submission");
    let b = restart_batch(tree, queries, k, &cfg, &hil).expect("restart scheduled");
    assert_batches_bit_identical(&a, &b, &format!("{label}/restart"));

    let a = range_batch(tree, queries, 250.0, &cfg, &sub).expect("range submission");
    let b = range_batch(tree, queries, 250.0, &cfg, &hil).expect("range scheduled");
    assert_batches_bit_identical(&a, &b, &format!("{label}/range"));

    // Brute force is schedule-oblivious by construction, but the scheduled
    // path still permutes + un-permutes — pin that round trip too.
    let a = brute_batch(ps, queries, k, &cfg, &sub).expect("brute submission");
    let b = brute_batch(ps, queries, k, &cfg, &hil).expect("brute scheduled");
    assert_batches_bit_identical(&a, &b, &format!("{label}/brute"));
}

#[test]
fn sstree_scheduled_engine_is_bit_identical() {
    let ps =
        ClusteredSpec { clusters: 5, points_per_cluster: 300, dims: 4, sigma: 140.0, seed: 2101 }
            .generate();
    let queries = sample_queries(&ps, 24, 0.01, 2102);
    let tree = build(&ps, 16, &BuildMethod::Hilbert);
    check_schedules(&tree, &ps, &queries, 8, "sstree");
}

#[test]
fn rtree_scheduled_engine_is_bit_identical() {
    let ps =
        ClusteredSpec { clusters: 5, points_per_cluster: 300, dims: 6, sigma: 140.0, seed: 2201 }
            .generate();
    let queries = sample_queries(&ps, 24, 0.01, 2202);
    let tree = build_rtree(&ps, 16, &RtreeBuildMethod::Hilbert);
    check_schedules(&tree, &ps, &queries, 8, "rtree");
}

#[test]
fn uniform_high_dims_heavy_backtracking_is_bit_identical() {
    // 16-dim uniform data is the replay memo's richest regime — PSB revisits
    // internal nodes hundreds of times per query, so every replayed sweep is
    // exercised against its reference recomputation.
    let ps = UniformSpec { len: 4000, dims: 16, seed: 2301 }.generate();
    let queries = sample_queries(&ps, 24, 0.01, 2302);
    let tree = build(&ps, 16, &BuildMethod::Hilbert);
    check_schedules(&tree, &ps, &queries, 8, "uniform16");
}

#[test]
fn scheduled_recovery_ladder_is_bit_identical() {
    // Fault substreams are keyed by submission index, so the recovering
    // engine's outcomes (and the exact per-query counters of whichever rung
    // answered) must not depend on the schedule. The replay memo is bypassed
    // whenever a fault state is attached — this is the test that would catch
    // a memoized value leaking into a faulted attempt.
    let ps =
        ClusteredSpec { clusters: 5, points_per_cluster: 300, dims: 4, sigma: 140.0, seed: 2401 }
            .generate();
    let queries = sample_queries(&ps, 24, 0.01, 2402);
    let tree = build(&ps, 16, &BuildMethod::Hilbert);
    let cfg = DeviceConfig::k40();
    let sub = KernelOptions::default();
    let hil = scheduled(&sub);
    for plan in [FaultPlan::none(), FaultPlan::bit_flips(0xF00D, 2), FaultPlan::truncation(24)] {
        let a = launch(&tree, &queries, Kernel::Psb { k: 8 }, &cfg, &sub, &plan, None)
            .expect("submission");
        let b = launch(&tree, &queries, Kernel::Psb { k: 8 }, &cfg, &hil, &plan, None)
            .expect("scheduled");
        assert_batches_bit_identical(&a, &b, "recovering/psb");
        assert_eq!(a.report.retried_queries, b.report.retried_queries);
        assert_eq!(a.report.degraded_queries, b.report.degraded_queries);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // Randomized sweep: arbitrary workload shape, k, and degree — the
    // scheduled PSB engine (Hilbert order + sweep-replay memo) must stay
    // bit-identical to the reference engine on every axis a caller can see.
    #[test]
    fn psb_schedule_parity_holds_everywhere(
        seed in 1u64..10_000,
        dims in 2usize..9,
        k in 1usize..20,
        degree_log2 in 3u32..6, // degree ∈ {8, 16, 32}
    ) {
        let degree = 1usize << degree_log2;
        let ps = ClusteredSpec {
            clusters: 4, points_per_cluster: 150, dims, sigma: 120.0, seed,
        }.generate();
        let queries = sample_queries(&ps, 12, 0.02, seed ^ 0x5EED);
        let tree = build(&ps, degree, &BuildMethod::Hilbert);
        let cfg = DeviceConfig::k40();
        let sub = KernelOptions::default();
        let a = psb_batch(&tree, &queries, k, &cfg, &sub).expect("submission");
        let b = psb_batch(&tree, &queries, k, &cfg, &scheduled(&sub)).expect("scheduled");
        assert_batches_bit_identical(&a, &b, "proptest/psb");
    }
}
