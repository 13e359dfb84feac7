//! Fast-path parity: `Metering::Off` and the explicit SIMD distance lanes
//! change *nothing a caller can observe except the counters they disable*.
//!
//! Two switches make up the fast path (DESIGN.md "Distance evaluators", "Metering::Off"):
//!
//! * [`Metering::Off`] monomorphizes the `Block` accounting out of the hot
//!   loop. Neighbors and outcomes must be bit-identical to the metered run
//!   across every kernel, both index families, and the scheduled / wave
//!   engines; the returned `KernelStats` must stay at launch values
//!   (the proof the accounting actually compiled out).
//! * [`DistLanes::Scalar`] vs [`DistLanes::Simd`] selects the reference
//!   scalar distance loops or the same-op-order SIMD evaluators. These are
//!   bit-identical by IEEE exactness, so *everything* — neighbors, per-query
//!   counters, launch report — must match to the bit.
//!
//! TPSS is metering-exempt by construction: it takes no options, so it has
//! no fast path to diverge.

use proptest::prelude::*;
use psb::prelude::*;

/// Bitwise equality for neighbor lists (see `tests/schedule_parity.rs`).
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

/// What `Metering::Off` must preserve: results and outcome classification.
fn assert_results_identical(a: &QueryBatchResult, b: &QueryBatchResult, what: &str) {
    assert_neighbors_bit_identical(&a.neighbors, &b.neighbors, what);
    assert_eq!(a.outcomes, b.outcomes, "{what}: outcomes differ");
}

/// What the lane switch must preserve: absolutely everything.
fn assert_batches_bit_identical(a: &QueryBatchResult, b: &QueryBatchResult, what: &str) {
    assert_results_identical(a, b, what);
    assert_eq!(a.per_block, b.per_block, "{what}: per-block KernelStats differ");
    assert_eq!(a.report.merged, b.report.merged, "{what}: merged KernelStats differ");
    assert_eq!(a.report.occupancy, b.report.occupancy, "{what}: occupancy differs");
}

/// The unmetered block must report *no* simulated work: if any cycle or byte
/// leaks into the stats, some accounting survived the monomorphization.
fn assert_accounting_compiled_out(per_block: &[KernelStats], what: &str) {
    for (qi, s) in per_block.iter().enumerate() {
        assert_eq!(s.global_bytes, 0, "{what}: query {qi} leaked bytes into an unmetered block");
        assert_eq!(s.nodes_visited, 0, "{what}: query {qi} counted nodes on an unmetered block");
        assert_eq!(s.compute_issues, 0, "{what}: query {qi} issued ops on an unmetered block");
    }
}

fn off(opts: &KernelOptions) -> KernelOptions {
    KernelOptions { metering: Metering::Off, ..opts.clone() }
}

/// Runs the five option-driven kernels over one index with metering on and
/// off, demanding identical results/outcomes and empty fast-path counters.
fn check_metering_off<V: Volumes>(
    tree: &FlatTree<V>,
    ps: &PointSet,
    queries: &PointSet,
    k: usize,
    label: &str,
) {
    let cfg = DeviceConfig::k40();
    let sim = KernelOptions::default();
    let fast = off(&sim);

    let a = psb_batch(tree, queries, k, &cfg, &sim).expect("psb metered");
    let b = psb_batch(tree, queries, k, &cfg, &fast).expect("psb unmetered");
    assert_results_identical(&a, &b, &format!("{label}/psb"));
    assert_accounting_compiled_out(&b.per_block, &format!("{label}/psb"));

    let a = bnb_batch(tree, queries, k, &cfg, &sim).expect("bnb metered");
    let b = bnb_batch(tree, queries, k, &cfg, &fast).expect("bnb unmetered");
    assert_results_identical(&a, &b, &format!("{label}/bnb"));

    let a = restart_batch(tree, queries, k, &cfg, &sim).expect("restart metered");
    let b = restart_batch(tree, queries, k, &cfg, &fast).expect("restart unmetered");
    assert_results_identical(&a, &b, &format!("{label}/restart"));

    let a = range_batch(tree, queries, 250.0, &cfg, &sim).expect("range metered");
    let b = range_batch(tree, queries, 250.0, &cfg, &fast).expect("range unmetered");
    assert_results_identical(&a, &b, &format!("{label}/range"));

    let a = brute_batch(ps, queries, k, &cfg, &sim).expect("brute metered");
    let b = brute_batch(ps, queries, k, &cfg, &fast).expect("brute unmetered");
    assert_results_identical(&a, &b, &format!("{label}/brute"));
}

fn workload(dims: usize, seed: u64) -> (PointSet, PointSet) {
    let ps =
        ClusteredSpec { clusters: 5, points_per_cluster: 300, dims, sigma: 140.0, seed }.generate();
    let queries = sample_queries(&ps, 24, 0.01, seed ^ 0xFA57);
    (ps, queries)
}

#[test]
fn metering_off_is_result_identical_on_the_sstree() {
    let (ps, queries) = workload(4, 9101);
    let tree = build(&ps, 16, &BuildMethod::Hilbert);
    check_metering_off(&tree, &ps, &queries, 8, "sstree");
}

#[test]
fn metering_off_is_result_identical_on_the_rtree() {
    let (ps, queries) = workload(6, 9201);
    let tree = build_rtree(&ps, 16, &RtreeBuildMethod::Hilbert);
    check_metering_off(&tree, &ps, &queries, 8, "rtree");
}

#[test]
fn metering_off_is_result_identical_under_schedule_fuse_and_wave() {
    let (ps, queries) = workload(4, 9301);
    let tree = build(&ps, 16, &BuildMethod::Hilbert);
    let cfg = DeviceConfig::k40();

    // Hilbert-scheduled engine (routes PSB through the sweep-replay kernel).
    let sim = KernelOptions { schedule: QuerySchedule::Hilbert, ..Default::default() };
    let a = psb_batch(&tree, &queries, 8, &cfg, &sim).expect("scheduled metered");
    let b = psb_batch(&tree, &queries, 8, &cfg, &off(&sim)).expect("scheduled unmetered");
    assert_results_identical(&a, &b, "scheduled/psb");

    // Buffer-wave engine, kNN and range modes.
    let sim = KernelOptions::default();
    let (a, _) = wave_knn_batch(&tree, &queries, 8, &cfg, &sim).expect("wave metered");
    let (b, _) = wave_knn_batch(&tree, &queries, 8, &cfg, &off(&sim)).expect("wave unmetered");
    assert_results_identical(&a, &b, "wave/knn");
    assert_accounting_compiled_out(&b.per_block, "wave/knn");
    let (a, _) = wave_range_batch(&tree, &queries, 250.0, &cfg, &sim).expect("wave metered");
    let (b, _) =
        wave_range_batch(&tree, &queries, 250.0, &cfg, &off(&sim)).expect("wave unmetered");
    assert_results_identical(&a, &b, "wave/range");
}

#[test]
fn metering_off_recovery_still_detects_faults() {
    // Fault injection lives inside the accounting, so a faulted launch is
    // forced back to Metering::Simulated: the recovering engine must produce
    // the same outcomes (including the retries) whatever the caller asked.
    let (ps, queries) = workload(4, 9401);
    let tree = build(&ps, 16, &BuildMethod::Hilbert);
    let cfg = DeviceConfig::k40();
    let sim = KernelOptions::default();
    let plan = FaultPlan::bit_flips(0xF00D, 2);
    let a =
        launch(&tree, &queries, Kernel::Psb { k: 8 }, &cfg, &sim, &plan, None).expect("metered");
    let b = launch(&tree, &queries, Kernel::Psb { k: 8 }, &cfg, &off(&sim), &plan, None)
        .expect("unmetered");
    assert_results_identical(&a, &b, "recovering/psb");
    assert_eq!(a.report.retried_queries, b.report.retried_queries);
    assert_eq!(a.report.degraded_queries, b.report.degraded_queries);
}

#[test]
fn scalar_and_simd_lanes_are_bit_identical_everywhere() {
    // The lane switch must not move a single observable bit: the SIMD
    // evaluators run the scalar code's exact operation order.
    for dims in [2usize, 3, 4, 8, 16, 17] {
        let (ps, queries) = workload(dims, 9500 + dims as u64);
        let tree = build(&ps, 16, &BuildMethod::Hilbert);
        let cfg = DeviceConfig::k40();
        let simd = KernelOptions::default();
        let scalar = KernelOptions { lanes: DistLanes::Scalar, ..Default::default() };
        let a = psb_batch(&tree, &queries, 8, &cfg, &simd).expect("simd");
        let b = psb_batch(&tree, &queries, 8, &cfg, &scalar).expect("scalar");
        assert_batches_bit_identical(&a, &b, &format!("lanes/psb/d{dims}"));
        let a = brute_batch(&ps, &queries, 8, &cfg, &simd).expect("simd");
        let b = brute_batch(&ps, &queries, 8, &cfg, &scalar).expect("scalar");
        assert_batches_bit_identical(&a, &b, &format!("lanes/brute/d{dims}"));
    }
}

#[test]
fn cycle_deadlines_force_metering_back_on() {
    // A cycle-priced deadline charges against simulated counters, so the
    // router re-enables metering per request: the degradation pattern under
    // Metering::Off must match the metered run exactly, not collapse to
    // "clock never advances, nothing degrades".
    let (ps, queries) = workload(4, 9601);
    let cfg = DeviceConfig::k40();
    let sc = ServeConfig::new(4);
    let build_index = |ps: &PointSet| build(ps, 16, &BuildMethod::Hilbert);
    let serve = |opts: &KernelOptions| {
        let router = ShardRouter::build(&ps, &sc, &cfg, build_index);
        let mut front = ResilientRouter::new(
            router,
            ResilienceConfig {
                default_deadline: DeadlineBudget::Cycles(50_000),
                ..Default::default()
            },
        );
        front.serve_batch(&queries, 8, opts, &[]).expect("serve")
    };
    let sim = KernelOptions::default();
    let a = serve(&sim);
    let b = serve(&off(&sim));
    assert_neighbors_bit_identical(&a.neighbors, &b.neighbors, "deadline/cycles");
    assert_eq!(a.outcomes, b.outcomes, "deadline/cycles: outcomes differ");
}

#[test]
fn an_unmetered_serve_batch_counts_nothing() {
    // The router block is dispatched on the caller's metering like every
    // kernel: unmetered, its per-query counters stay at launch values, and
    // neighbours, outcomes and failovers are the metered run's.
    let (ps, queries) = workload(4, 9701);
    let cfg = DeviceConfig::k40();
    let serve = |opts: &KernelOptions| {
        let build_index = |ps: &PointSet| build(ps, 16, &BuildMethod::Hilbert);
        let mut router = ShardRouter::build(&ps, &ServeConfig::new(4), &cfg, build_index);
        router.serve_batch(&queries, 8, opts).expect("serve")
    };
    let sim = KernelOptions::default();
    let (a, b) = (serve(&sim), serve(&off(&sim)));
    assert_neighbors_bit_identical(&a.neighbors, &b.neighbors, "serve");
    assert_eq!(a.outcomes, b.outcomes, "serve: outcomes differ");
    assert_eq!(a.report.failovers, b.report.failovers, "serve: failovers differ");
    assert_accounting_compiled_out(&b.per_query, "serve");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Randomized sweep over workload shape: the unmetered PSB engine stays
    // result-identical and counter-silent on every axis.
    #[test]
    fn metering_off_parity_holds_everywhere(
        seed in 1u64..10_000,
        dims in 2usize..9,
        k in 1usize..20,
    ) {
        let ps = ClusteredSpec {
            clusters: 4, points_per_cluster: 150, dims, sigma: 120.0, seed,
        }.generate();
        let queries = sample_queries(&ps, 10, 0.02, seed ^ 0x0FF);
        let tree = build(&ps, 16, &BuildMethod::Hilbert);
        let cfg = DeviceConfig::k40();
        let sim = KernelOptions::default();
        let a = psb_batch(&tree, &queries, k, &cfg, &sim).expect("metered");
        let b = psb_batch(&tree, &queries, k, &cfg, &off(&sim)).expect("unmetered");
        assert_results_identical(&a, &b, "proptest/psb");
        assert_accounting_compiled_out(&b.per_block, "proptest/psb");
    }
}
