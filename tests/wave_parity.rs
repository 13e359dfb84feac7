//! Wave parity: the buffer-wave engine is a *pure re-schedule*.
//!
//! Setting [`KernelOptions::wave`] routes the tree-kernel batch entry points
//! (`psb_batch`, `bnb_batch`, `restart_batch`, `range_batch`) through the
//! node-centric buffer-wave engine (`wave.rs`, DESIGN.md "Buffer-wave traversal"). The engine
//! changes *when* node work happens — one coalesced sweep per buffered node
//! instead of one traversal per query — but never *what* the caller sees:
//! neighbors (ids and distance bits) and outcomes must be bit-identical to
//! the per-query engine, across both index types, any batch size ≥ 1, and
//! with or without a metrics registry attached. Kernels the wave engine
//! does not serve (brute force, TPSS) must ignore the option entirely, and
//! the recovering runners must disable waves the moment a real fault plan is
//! attached — the same fault-safe discipline as the sweep-replay memo.

use proptest::prelude::*;
use psb::prelude::*;

const K: usize = 8;
const RADIUS: f32 = 250.0;

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

/// The wave engine's exactness contract: neighbors and outcomes, nothing
/// less. Counters are *expected* to differ (that is the optimization), so
/// they are deliberately not compared here.
fn assert_results_bit_identical(a: &QueryBatchResult, b: &QueryBatchResult, what: &str) {
    assert_neighbors_bit_identical(&a.neighbors, &b.neighbors, what);
    assert_eq!(a.outcomes, b.outcomes, "{what}: outcomes differ");
}

/// Full-surface equality, for the paths where the wave option must be a
/// strict no-op (brute, TPSS, faulted recovery ladders).
fn assert_batches_bit_identical(a: &QueryBatchResult, b: &QueryBatchResult, what: &str) {
    assert_results_bit_identical(a, b, what);
    assert_eq!(a.per_block, b.per_block, "{what}: per-block KernelStats differ");
    assert_eq!(a.report.merged, b.report.merged, "{what}: merged KernelStats differ");
    assert_eq!(
        a.report.avg_response_ms.to_bits(),
        b.report.avg_response_ms.to_bits(),
        "{what}: avg_response_ms differs"
    );
    assert_eq!(
        a.report.makespan_ms.to_bits(),
        b.report.makespan_ms.to_bits(),
        "{what}: makespan_ms differs"
    );
    assert_eq!(a.report.occupancy, b.report.occupancy, "{what}: occupancy differs");
}

fn waved(opts: &KernelOptions) -> KernelOptions {
    KernelOptions { wave: Some(WaveConfig), ..opts.clone() }
}

/// Runs the four wave-served kernels over one index, per-query vs wave, and
/// asserts the exactness contract; then pins that brute force and TPSS
/// ignore the option outright.
fn check_wave<T: psb_core::GpuIndex>(
    tree: &T,
    ps: &PointSet,
    queries: &PointSet,
    k: usize,
    label: &str,
) {
    let cfg = DeviceConfig::k40();
    let base = KernelOptions::default();
    let wave = waved(&base);

    let a = psb_batch(tree, queries, k, &cfg, &base).expect("psb per-query");
    let b = psb_batch(tree, queries, k, &cfg, &wave).expect("psb wave");
    assert_results_bit_identical(&a, &b, &format!("{label}/psb"));

    let a = bnb_batch(tree, queries, k, &cfg, &base).expect("bnb per-query");
    let b = bnb_batch(tree, queries, k, &cfg, &wave).expect("bnb wave");
    assert_results_bit_identical(&a, &b, &format!("{label}/bnb"));

    let a = restart_batch(tree, queries, k, &cfg, &base).expect("restart per-query");
    let b = restart_batch(tree, queries, k, &cfg, &wave).expect("restart wave");
    assert_results_bit_identical(&a, &b, &format!("{label}/restart"));

    let a = range_batch(tree, queries, RADIUS, &cfg, &base).expect("range per-query");
    let b = range_batch(tree, queries, RADIUS, &cfg, &wave).expect("range wave");
    assert_results_bit_identical(&a, &b, &format!("{label}/range"));

    // The wave engine must actually have amortized something on these
    // workloads, or the parity above is vacuous.
    let (_, wr) = wave_knn_batch(tree, queries, k, &cfg, &wave).expect("wave report");
    assert!(wr.waves >= 1, "{label}: no wave fronts ran");
    assert!(wr.coalesced_sweeps > 0, "{label}: no coalesced sweeps issued");
    assert!(wr.mean_fill() > 1.0, "{label}: buffers never amortized a fetch");

    // Brute force and TPSS are not wave-served: the option must be inert on
    // every observable surface, counters included.
    let a = brute_batch(ps, queries, k, &cfg, &base).expect("brute per-query");
    let b = brute_batch(ps, queries, k, &cfg, &wave).expect("brute wave opts");
    assert_batches_bit_identical(&a, &b, &format!("{label}/brute"));

    let (an, asts) = tpss_batch(tree, queries, k, &cfg, 128);
    let (bn, bsts) = tpss_batch(tree, queries, k, &cfg, 128);
    assert_neighbors_bit_identical(&an, &bn, &format!("{label}/tpss"));
    assert_eq!(asts.len(), bsts.len(), "{label}/tpss: block count differs");
}

#[test]
fn sstree_wave_engine_is_results_identical() {
    let ps =
        ClusteredSpec { clusters: 5, points_per_cluster: 300, dims: 4, sigma: 140.0, seed: 2101 }
            .generate();
    let queries = sample_queries(&ps, 24, 0.01, 2102);
    let tree = build(&ps, 16, &BuildMethod::Hilbert);
    check_wave(&tree, &ps, &queries, K, "sstree");
}

#[test]
fn rtree_wave_engine_is_results_identical() {
    let ps =
        ClusteredSpec { clusters: 5, points_per_cluster: 300, dims: 6, sigma: 140.0, seed: 2201 }
            .generate();
    let queries = sample_queries(&ps, 24, 0.01, 2202);
    let tree = build_rtree(&ps, 16, &RtreeBuildMethod::Hilbert);
    check_wave(&tree, &ps, &queries, K, "rtree");
}

#[test]
fn uniform_high_dims_wave_engine_is_results_identical() {
    // 16-dim uniform data keeps many subtrees alive per query — the densest
    // buffers and the deepest cascade of admission re-checks.
    let ps = UniformSpec { len: 4000, dims: 16, seed: 2301 }.generate();
    let queries = sample_queries(&ps, 24, 0.01, 2302);
    let tree = build(&ps, 16, &BuildMethod::Hilbert);
    check_wave(&tree, &ps, &queries, K, "uniform16");
}

#[test]
fn wave_composes_with_hilbert_scheduling() {
    // Hilbert scheduling only changes buffer *order* (seeding), never
    // membership — results stay bit-identical on both axes.
    let ps =
        ClusteredSpec { clusters: 5, points_per_cluster: 300, dims: 4, sigma: 140.0, seed: 2501 }
            .generate();
    let queries = sample_queries(&ps, 24, 0.01, 2502);
    let tree = build(&ps, 16, &BuildMethod::Hilbert);
    let cfg = DeviceConfig::k40();
    let base = KernelOptions::default();
    let hil = KernelOptions { schedule: QuerySchedule::Hilbert, ..base.clone() };
    let a = psb_batch(&tree, &queries, K, &cfg, &base).expect("per-query submission");
    let b = psb_batch(&tree, &queries, K, &cfg, &waved(&hil)).expect("wave hilbert");
    assert_results_bit_identical(&a, &b, "hilbert/psb");
    let a = range_batch(&tree, &queries, RADIUS, &cfg, &base).expect("per-query submission");
    let b = range_batch(&tree, &queries, RADIUS, &cfg, &waved(&hil)).expect("wave hilbert");
    assert_results_bit_identical(&a, &b, "hilbert/range");
}

#[test]
fn wave_takes_the_fault_safe_path_when_faults_are_attached() {
    // The sweep-replay memo's discipline, inherited: a traversal that may
    // see corrupted bytes must never run through a shared fast path. With a
    // real fault plan the recovering runners disable waves entirely, so the
    // wave-enabled run is bit-identical — counters, outcomes, retry/degrade
    // tallies — to the wave-free ladder, and corruption surfaces as typed
    // outcomes, never a panic.
    let ps =
        ClusteredSpec { clusters: 5, points_per_cluster: 300, dims: 4, sigma: 140.0, seed: 2401 }
            .generate();
    let queries = sample_queries(&ps, 24, 0.01, 2402);
    let tree = build(&ps, 16, &BuildMethod::Hilbert);
    let cfg = DeviceConfig::k40();
    let base = KernelOptions::default();
    let wave = waved(&base);

    for plan in [FaultPlan::bit_flips(0xF00D, 2), FaultPlan::truncation(24)] {
        let a = launch(&tree, &queries, Kernel::Psb { k: K }, &cfg, &base, &plan, None)
            .expect("ladder");
        let b = launch(&tree, &queries, Kernel::Psb { k: K }, &cfg, &wave, &plan, None)
            .expect("wave ladder");
        assert_batches_bit_identical(&a, &b, "faulted/psb");
        assert_eq!(a.report.retried_queries, b.report.retried_queries);
        assert_eq!(a.report.degraded_queries, b.report.degraded_queries);

        let a = launch(&tree, &queries, Kernel::Range { radius: RADIUS }, &cfg, &base, &plan, None)
            .expect("range ladder");
        let b = launch(&tree, &queries, Kernel::Range { radius: RADIUS }, &cfg, &wave, &plan, None)
            .expect("range wave ladder");
        assert_batches_bit_identical(&a, &b, "faulted/range");
    }

    // The truncation plan must actually have tripped the ladder, or the
    // "typed errors, never panics" claim went untested.
    let plan = FaultPlan::truncation(24);
    let r = launch(&tree, &queries, Kernel::Psb { k: K }, &cfg, &wave, &plan, None)
        .expect("wave ladder");
    let non_clean = r.outcomes.iter().filter(|o| !matches!(o, QueryOutcome::Clean)).count();
    assert!(non_clean > 0, "truncation plan never fired — fault path untested");

    // A no-op plan is the fault-free path: the wave engine serves it whole
    // batch, bit-identical to the plain wave entry point.
    let plan = FaultPlan::none();
    let a = psb_batch(&tree, &queries, K, &cfg, &wave).expect("wave");
    let b = launch(&tree, &queries, Kernel::Psb { k: K }, &cfg, &wave, &plan, None)
        .expect("noop ladder");
    assert_batches_bit_identical(&a, &b, "noop/psb");
    assert!(b.outcomes.iter().all(|o| matches!(o, QueryOutcome::Clean)));
}

#[test]
fn wave_metrics_are_no_op_parity_and_populated() {
    // DESIGN.md "Telemetry (psb-metrics)" contract extended to the wave engine: attaching a
    // registry observes the run, never changes it — and the attached run
    // must actually emit the wave counters.
    let ps =
        ClusteredSpec { clusters: 5, points_per_cluster: 300, dims: 4, sigma: 140.0, seed: 2601 }
            .generate();
    let queries = sample_queries(&ps, 24, 0.01, 2602);
    let tree = build(&ps, 16, &BuildMethod::Hilbert);
    let cfg = DeviceConfig::k40();
    let detached = waved(&KernelOptions::default());
    let registry = Registry::new();
    let attached =
        KernelOptions { metrics: MetricsHandle::attached(&registry), ..detached.clone() };

    let (a, ra) = wave_knn_batch(&tree, &queries, K, &cfg, &detached).expect("detached");
    let (b, rb) = wave_knn_batch(&tree, &queries, K, &cfg, &attached).expect("attached");
    assert_batches_bit_identical(&a, &b, "metrics/wave");
    assert_eq!(ra, rb, "metrics/wave: WaveReport differs under a registry");

    let snap = registry.snapshot();
    let counter = |key: &str| {
        snap.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {key} missing from the attached run"))
    };
    assert_eq!(counter("wave.waves"), u64::from(ra.waves));
    assert_eq!(counter("wave.coalesced_sweeps"), ra.coalesced_sweeps);
    assert_eq!(counter("wave.buffered_entries"), ra.buffered_entries);
    assert!(
        snap.gauges.iter().any(|(k, _)| k == "wave.mean_buffer_fill"),
        "mean buffer fill gauge missing"
    );
}

#[test]
fn streamed_wave_chunks_agree_with_the_wave_batch_engine() {
    let ps =
        ClusteredSpec { clusters: 5, points_per_cluster: 300, dims: 4, sigma: 140.0, seed: 2701 }
            .generate();
    let queries = sample_queries(&ps, 24, 0.01, 2702);
    let tree = build(&ps, 16, &BuildMethod::Hilbert);
    let cfg = DeviceConfig::k40();
    let opts = waved(&KernelOptions::default());

    // One chunk the size of the batch: the stream must route through the
    // wave engine and reproduce the whole-batch call on every surface.
    let whole = psb_batch(&tree, &queries, K, &cfg, &opts).expect("wave batch");
    let mut stream = psb_core::QueryStream::with_chunk_size(
        &tree,
        psb_core::StreamKernel::Psb { k: K },
        cfg.clone(),
        opts.clone(),
        queries.len(),
    );
    for q in queries.iter() {
        stream.push(q);
    }
    let chunks = stream.finish();
    assert_eq!(chunks.len(), 1);
    assert_batches_bit_identical(&chunks[0], &whole, "stream/one-chunk");

    // Smaller chunks re-buffer per chunk but stay exact: concatenated
    // neighbors equal the per-query engine's.
    let base = psb_batch(&tree, &queries, K, &cfg, &KernelOptions::default()).expect("per-query");
    let mut stream = psb_core::QueryStream::with_chunk_size(
        &tree,
        psb_core::StreamKernel::Psb { k: K },
        cfg.clone(),
        opts.clone(),
        7,
    );
    for q in queries.iter() {
        stream.push(q);
    }
    let mut streamed: Vec<Vec<Neighbor>> = Vec::new();
    for chunk in stream.finish() {
        streamed.extend(chunk.neighbors);
    }
    assert_neighbors_bit_identical(&base.neighbors, &streamed, "stream/chunked");

    // Range through the stream, same wiring.
    let whole = range_batch(&tree, &queries, RADIUS, &cfg, &opts).expect("wave range");
    let mut stream = psb_core::QueryStream::with_chunk_size(
        &tree,
        psb_core::StreamKernel::Range { radius: RADIUS },
        cfg.clone(),
        opts,
        queries.len(),
    );
    for q in queries.iter() {
        stream.push(q);
    }
    let chunks = stream.finish();
    assert_eq!(chunks.len(), 1);
    assert_batches_bit_identical(&chunks[0], &whole, "stream/range");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // How many queries share a sweep is a function of the batch (one query
    // degenerates to per-query fetching, 47 fill the upper levels' buffers),
    // yet any batch size ≥ 1 must yield bit-identical neighbors and outcomes
    // to the per-query engine — across both index types and dims {4, 16}.
    // (The name is from when a `capacity` option bounded the buffers; the
    // axis it swept is the batch's now.)
    #[test]
    fn wave_capacity_is_invisible_to_results(
        seed in 1u64..10_000,
        batch in 1usize..48,
        wide in 0u8..2,     // dims ∈ {4, 16}
        rtree in 0u8..2,    // index family
        k in 1usize..12,
    ) {
        let dims = if wide == 1 { 16 } else { 4 };
        let ps = ClusteredSpec {
            clusters: 4, points_per_cluster: 150, dims, sigma: 120.0, seed,
        }.generate();
        let queries = sample_queries(&ps, batch, 0.02, seed ^ 0x5EED);
        let cfg = DeviceConfig::k40();
        let base = KernelOptions::default();
        let wave = waved(&base);
        if rtree == 1 {
            let tree = build_rtree(&ps, 16, &RtreeBuildMethod::Hilbert);
            let a = psb_batch(&tree, &queries, k, &cfg, &base).expect("per-query");
            let b = psb_batch(&tree, &queries, k, &cfg, &wave).expect("wave");
            assert_results_bit_identical(&a, &b, "proptest/rtree");
        } else {
            let tree = build(&ps, 16, &BuildMethod::Hilbert);
            let a = psb_batch(&tree, &queries, k, &cfg, &base).expect("per-query");
            let b = psb_batch(&tree, &queries, k, &cfg, &wave).expect("wave");
            assert_results_bit_identical(&a, &b, "proptest/sstree");
        }
    }
}
