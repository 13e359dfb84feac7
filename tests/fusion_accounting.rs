//! Multi-query block fusion accounting (DESIGN.md §12).
//!
//! With `KernelOptions::fuse = F > 1`, F queries share one simulated block,
//! each owning a lane group of `warp_size / F` lanes. Fusion is a *metering*
//! change: the traversal itself is untouched, so results stay exact, the
//! per-query node-visit histograms are identical to the unfused engine, and
//! the per-query counters still attribute every phase's work to the query
//! that did it. What changes is the cost model: narrow parallel sweeps that
//! idled 24 of 32 lanes now idle at most `lane_width - 1` of `lane_width`,
//! raising modeled warp efficiency on low-fanout trees, and the launch packs
//! F neighbors into each physical block.

use psb::prelude::*;

fn low_fanout_workload(seed: u64) -> (PointSet, SsTree, PointSet) {
    // Degree 8 < warp width 32: the regime fusion exists for.
    let ps = ClusteredSpec { clusters: 5, points_per_cluster: 300, dims: 6, sigma: 130.0, seed }
        .generate();
    let tree = build(&ps, 8, &BuildMethod::Hilbert);
    let queries = sample_queries(&ps, 24, 0.01, seed ^ 0xFACE);
    (ps, tree, queries)
}

#[test]
fn fused_runs_preserve_exact_knn() {
    let (ps, tree, queries) = low_fanout_workload(3101);
    let cfg = DeviceConfig::k40();
    let k = 8;
    for fuse in [2u32, 4] {
        let opts = KernelOptions { fuse, ..Default::default() };
        let fused = psb_batch(&tree, &queries, k, &cfg, &opts).expect("fused batch");
        for (qi, q) in queries.iter().enumerate() {
            let want = linear_knn(&ps, q, k);
            let got = &fused.neighbors[qi];
            assert_eq!(got.len(), want.len(), "fuse={fuse} query {qi}");
            for (g, w) in got.iter().zip(&want) {
                let scale = w.dist.max(1.0);
                assert!(
                    (g.dist - w.dist).abs() <= scale * 1e-4,
                    "fuse={fuse} query {qi}: got {} want {}",
                    g.dist,
                    w.dist
                );
            }
        }
    }
}

#[test]
fn fused_neighbor_values_match_unfused_bit_for_bit() {
    // Fusion only re-meters; the arithmetic path is identical, so neighbor
    // ids and distance bits must match the unfused engine exactly.
    let (_, tree, queries) = low_fanout_workload(3201);
    let cfg = DeviceConfig::k40();
    let base = psb_batch(&tree, &queries, 6, &cfg, &KernelOptions::default()).expect("unfused");
    let opts = KernelOptions { fuse: 4, ..Default::default() };
    let fused = psb_batch(&tree, &queries, 6, &cfg, &opts).expect("fused");
    for (qi, (a, b)) in base.neighbors.iter().zip(&fused.neighbors).enumerate() {
        assert_eq!(a.len(), b.len(), "query {qi}");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.id, y.id, "query {qi}");
            assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "query {qi}");
        }
    }
}

#[test]
fn per_query_visit_histograms_sum_to_unfused_totals() {
    let (_, tree, queries) = low_fanout_workload(3301);
    let cfg = DeviceConfig::k40();
    let base = psb_batch(&tree, &queries, 8, &cfg, &KernelOptions::default()).expect("unfused");
    let opts = KernelOptions { fuse: 4, ..Default::default() };
    let fused = psb_batch(&tree, &queries, 8, &cfg, &opts).expect("fused");
    // Work attribution per fused query is exact: each query's traversal is
    // unchanged, so its visit histogram matches the unfused run level by
    // level — not just in aggregate.
    for (qi, (a, b)) in base.per_block.iter().zip(&fused.per_block).enumerate() {
        assert_eq!(a.nodes_visited, b.nodes_visited, "query {qi} nodes_visited");
        assert_eq!(a.level_visits, b.level_visits, "query {qi} level histogram");
        assert_eq!(a.backtracks, b.backtracks, "query {qi} backtracks");
    }
    // And therefore the per-level totals sum to the unfused batch's.
    let sum = |r: &QueryBatchResult| {
        r.per_block.iter().fold(vec![0u64; 24], |mut acc, s| {
            for (a, v) in acc.iter_mut().zip(s.level_visits.iter()) {
                *a += v;
            }
            acc
        })
    };
    assert_eq!(sum(&base), sum(&fused), "batch level-visit totals");
    assert_eq!(base.report.merged.nodes_visited, fused.report.merged.nodes_visited);
}

#[test]
fn fusion_raises_modeled_warp_efficiency_on_low_fanout_trees() {
    let (_, tree, queries) = low_fanout_workload(3401);
    let cfg = DeviceConfig::k40();
    let base = psb_batch(&tree, &queries, 8, &cfg, &KernelOptions::default()).expect("unfused");
    let opts = KernelOptions { fuse: 4, ..Default::default() };
    let fused = psb_batch(&tree, &queries, 8, &cfg, &opts).expect("fused");
    assert!(
        fused.report.warp_efficiency > base.report.warp_efficiency,
        "fuse=4 efficiency {} must beat unfused {} on a degree-8 tree",
        fused.report.warp_efficiency,
        base.report.warp_efficiency
    );
    assert_eq!(fused.report.fusion, 4);
    assert_eq!(fused.report.physical_blocks, (queries.len() as u64).div_ceil(4));
    assert_eq!(base.report.fusion, 1);
    assert_eq!(base.report.physical_blocks, queries.len() as u64);
}

#[test]
fn fusion_composes_with_the_hilbert_schedule() {
    // Scheduled + fused: results still bit-identical to the plain engine,
    // and the launch groups *scheduled* neighbors into physical blocks.
    let (_, tree, queries) = low_fanout_workload(3501);
    let cfg = DeviceConfig::k40();
    let base = psb_batch(&tree, &queries, 8, &cfg, &KernelOptions::default()).expect("unfused");
    let opts = KernelOptions { fuse: 4, schedule: QuerySchedule::Hilbert, ..Default::default() };
    let fused = psb_batch(&tree, &queries, 8, &cfg, &opts).expect("fused scheduled");
    for (a, b) in base.neighbors.iter().zip(&fused.neighbors) {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.dist.to_bits(), y.dist.to_bits());
        }
    }
    assert_eq!(fused.report.merged.nodes_visited, base.report.merged.nodes_visited);
    assert!(fused.report.warp_efficiency > base.report.warp_efficiency);
}

#[test]
fn faults_still_latch_inside_fused_blocks() {
    let (_, tree, queries) = low_fanout_workload(3601);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions { fuse: 4, ..Default::default() };
    // A tight transaction budget must still cut fused queries off: the latch
    // lives on the (shared) block, polled by every fused query's ticks.
    let plan = FaultPlan::truncation(8);
    let r = launch(&tree, &queries, Kernel::Psb { k: 8 }, &cfg, &opts, &plan, None)
        .expect("recovering");
    let non_clean = r.outcomes.iter().filter(|o| !matches!(o, QueryOutcome::Clean)).count();
    assert!(non_clean > 0, "an 8-transaction budget must trip on every real traversal");
    assert_eq!(r.report.degraded_queries as usize + r.report.retried_queries as usize, non_clean);
    // Whatever rung answered, the results are exact.
    let clean = psb_batch(&tree, &queries, 8, &cfg, &opts).expect("clean");
    for (a, b) in clean.neighbors.iter().zip(&r.neighbors) {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.dist.to_bits(), y.dist.to_bits());
        }
    }
}

#[test]
fn streamed_fused_chunks_agree_with_the_batch_engine() {
    let (_, tree, queries) = low_fanout_workload(3701);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions { fuse: 4, schedule: QuerySchedule::Hilbert, ..Default::default() };
    let whole = psb_batch(&tree, &queries, 5, &cfg, &opts).expect("batch");
    let mut stream = psb_core::QueryStream::with_chunk_size(
        &tree,
        psb_core::StreamKernel::Psb { k: 5 },
        cfg,
        opts,
        queries.len(),
    );
    for q in queries.iter() {
        stream.push(q);
    }
    let chunks = stream.finish();
    assert_eq!(chunks.len(), 1);
    assert_eq!(chunks[0].per_block, whole.per_block);
    assert_eq!(chunks[0].report.merged, whole.report.merged);
    assert_eq!(chunks[0].report.physical_blocks, whole.report.physical_blocks);
}
