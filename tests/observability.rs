//! Observability invariants: tracing never perturbs the simulation, phase
//! counters always reconcile with the aggregates, and PSB's trace shows the
//! structure the paper claims (streamed sibling-leaf scans).

use proptest::prelude::*;
use psb::prelude::*;

fn workload(seed: u64) -> (PointSet, SsTree, PointSet) {
    let ps = ClusteredSpec { clusters: 6, points_per_cluster: 300, dims: 6, sigma: 140.0, seed }
        .generate();
    let tree = build(&ps, 16, &BuildMethod::Hilbert);
    let queries = sample_queries(&ps, 8, 0.01, seed ^ 0xABCD);
    (ps, tree, queries)
}

/// Satellite: enabling a recording sink must change nothing — neighbors and
/// every counter bit-identical across all kernels.
#[test]
fn recording_sink_changes_no_simulation_output() {
    let (ps, tree, queries) = workload(2016);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let k = 8;

    for q in queries.iter() {
        // PSB
        let silent = psb_query(&tree, q, k, &cfg, &opts);
        let mut sink = VecSink::new();
        let traced = Kernel::Psb { k }
            .attempt(&tree, q, &cfg, &opts, None, Some(&mut sink))
            .expect("trusted tree");
        assert_eq!(silent, traced, "psb");
        assert!(!sink.events.is_empty(), "psb must emit events");

        // Branch-and-bound
        let silent = bnb_query(&tree, q, k, &cfg, &opts);
        let mut sink = VecSink::new();
        let traced = Kernel::Bnb { k }
            .attempt(&tree, q, &cfg, &opts, None, Some(&mut sink))
            .expect("trusted tree");
        assert_eq!(silent, traced, "bnb");
        assert!(!sink.events.is_empty(), "bnb must emit events");

        // Restart
        let silent = restart_query(&tree, q, k, &cfg, &opts);
        let mut sink = VecSink::new();
        let traced = Kernel::Restart { k }
            .attempt(&tree, q, &cfg, &opts, None, Some(&mut sink))
            .expect("trusted tree");
        assert_eq!(silent, traced, "restart");

        // Brute force
        let silent = brute_query(&ps, q, k, &cfg, &opts);
        let mut sink = VecSink::new();
        let traced =
            brute_try_query(&ps, q, k, &cfg, &opts, None, Some(&mut sink)).expect("trusted tree");
        assert_eq!(silent, traced, "brute");

        // Range
        let silent = range_query_gpu(&tree, q, 300.0, &cfg, &opts);
        let mut sink = VecSink::new();
        let traced = Kernel::Range { radius: 300.0 }
            .attempt(&tree, q, &cfg, &opts, None, Some(&mut sink))
            .expect("trusted tree");
        assert_eq!(silent, traced, "range");
    }

    // Task-parallel batch
    let (silent_n, silent_s) = tpss_batch(&tree, &queries, k, &cfg, 32);
    let mut sink = VecSink::new();
    let (traced_n, traced_s) =
        tpss_try_batch(&tree, &queries, k, &cfg, 32, Some(&mut sink)).expect("non-empty batch");
    let traced_n: Vec<_> = traced_n.into_iter().map(|r| r.expect("trusted tree")).collect();
    assert_eq!(silent_n, traced_n, "tpss neighbors");
    assert_eq!(silent_s, traced_s, "tpss stats");
    assert!(!sink.events.is_empty(), "tpss must emit events");
}

/// Satellite: batch-level no-op parity including the LaunchReport surface.
#[test]
fn traced_batches_reproduce_untraced_reports() {
    let (_, tree, queries) = workload(77);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();

    let silent = psb_batch(&tree, &queries, 8, &cfg, &opts).expect("batch");
    let mut sink = VecSink::new();
    let traced = launch(
        &tree,
        &queries,
        Kernel::Psb { k: 8 },
        &cfg,
        &opts,
        &FaultPlan::none(),
        Some(&mut sink),
    )
    .expect("batch");
    assert_eq!(silent.neighbors, traced.neighbors);
    assert_eq!(silent.per_block, traced.per_block);
    assert_eq!(silent.report.merged, traced.report.merged);
    assert_eq!(silent.report.occupancy_min, traced.report.occupancy_min);
    assert_eq!(silent.report.occupancy_max, traced.report.occupancy_max);

    let silent = bnb_batch(&tree, &queries, 8, &cfg, &opts).expect("batch");
    let mut sink = VecSink::new();
    let traced = launch(
        &tree,
        &queries,
        Kernel::Bnb { k: 8 },
        &cfg,
        &opts,
        &FaultPlan::none(),
        Some(&mut sink),
    )
    .expect("batch");
    assert_eq!(silent.neighbors, traced.neighbors);
    assert_eq!(silent.report.merged, traced.report.merged);
}

/// Every kernel's per-phase counters must sum exactly to its aggregates.
#[test]
fn phase_counters_sum_to_aggregates_for_every_kernel() {
    let (ps, tree, queries) = workload(91);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();

    for q in queries.iter() {
        for (name, stats) in [
            ("psb", psb_query(&tree, q, 8, &cfg, &opts).1),
            ("bnb", bnb_query(&tree, q, 8, &cfg, &opts).1),
            ("restart", restart_query(&tree, q, 8, &cfg, &opts).1),
            ("brute", brute_query(&ps, q, 8, &cfg, &opts).1),
            ("range", range_query_gpu(&tree, q, 250.0, &cfg, &opts).1),
        ] {
            assert!(
                stats.phase_totals_consistent(),
                "{name}: phase counters do not reconcile with aggregates"
            );
        }
    }
    let (_, blocks) = tpss_batch(&tree, &queries, 8, &cfg, 32);
    for b in &blocks {
        assert!(b.phase_totals_consistent(), "tpss block");
    }
    // And merging preserves the invariant.
    let merged = merge_stats(&blocks);
    assert!(merged.phase_totals_consistent(), "merged tpss");
}

// PSB's phase structure tells the paper's story: the level histogram covers
// every visit, sibling-leaf arrivals are streamed loads in the leaf-scan
// phase, and backtracks only re-read internal nodes (descend/backtrack
// phases never stream).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn psb_trace_invariants(seed in 1u64..500, k in 1usize..24) {
        let (_, tree, queries) = workload(seed);
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let q = queries.point(0);

        let mut sink = VecSink::new();
        let (_, stats) = Kernel::Psb { k }
            .attempt(&tree, q, &cfg, &opts, None, Some(&mut sink))
            .expect("trusted tree");

        // Always-on counters reconcile.
        prop_assert!(stats.phase_totals_consistent());
        // The level histogram covers every node visit.
        let level_sum: u64 = stats.level_visits.iter().sum();
        prop_assert_eq!(level_sum, stats.nodes_visited);
        // Root is visited at least once per descent.
        prop_assert!(stats.level_visits[0] >= 1);

        // Event-stream cross-checks against the counters.
        let mut visit_events = 0u64;
        let mut backtrack_events = 0u64;
        let mut streamed_outside_leaf_scan = 0u64;
        let mut streamed_trans = 0u64;
        let mut leaf_visits_in_leaf_scan = 0u64;
        for e in &sink.events {
            match *e {
                TraceEvent::NodeVisit { kind, phase, .. } => {
                    visit_events += 1;
                    if kind == NodeKind::Leaf && phase == Phase::LeafScan {
                        leaf_visits_in_leaf_scan += 1;
                    }
                    // PSB only ever fetches leaves inside the leaf-scan phase.
                    if kind == NodeKind::Leaf {
                        prop_assert_eq!(phase, Phase::LeafScan);
                    }
                }
                TraceEvent::Backtrack { .. } => backtrack_events += 1,
                TraceEvent::GlobalLoad { transactions, streamed: true, phase, .. } => {
                    streamed_trans += transactions;
                    if phase != Phase::LeafScan {
                        streamed_outside_leaf_scan += transactions;
                    }
                }
                _ => {}
            }
        }
        prop_assert_eq!(visit_events, stats.nodes_visited);
        prop_assert_eq!(backtrack_events, stats.backtracks);
        prop_assert!(leaf_visits_in_leaf_scan >= 1);
        // Sibling-link streaming is a leaf-scan-only phenomenon.
        prop_assert_eq!(streamed_outside_leaf_scan, 0);
        prop_assert_eq!(streamed_trans, stats.stream_transactions);
        // All streaming is attributed to the leaf-scan phase counters too.
        prop_assert_eq!(
            stats.phase(Phase::LeafScan).stream_transactions,
            stats.stream_transactions
        );
    }
}

/// When the leaf chain is actually walked, the streamed arrivals must show up;
/// disabling the leaf scan must eliminate them.
#[test]
fn sibling_scan_streams_and_ablation_removes_it() {
    let (_, tree, queries) = workload(123);
    let cfg = DeviceConfig::k40();
    let with = KernelOptions::default();
    let without = KernelOptions { leaf_scan: false, ..Default::default() };

    let mut streamed_with = 0u64;
    let mut streamed_without = 0u64;
    for q in queries.iter() {
        streamed_with += psb_query(&tree, q, 8, &cfg, &with).1.stream_transactions;
        streamed_without += psb_query(&tree, q, 8, &cfg, &without).1.stream_transactions;
    }
    assert_eq!(streamed_without, 0, "no sibling links, no streaming");
    assert!(streamed_with > 0, "the sibling-leaf chain must produce streamed transactions");
}
