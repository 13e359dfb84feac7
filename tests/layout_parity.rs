//! Golden parity: the packed device arenas are a *host-speed* change only.
//!
//! Every kernel must produce bit-identical neighbors (ids AND distance bits)
//! and bit-identical simulated counters (global bytes, transactions, warp
//! efficiency, cycles — the whole `KernelStats` struct and the derived
//! `LaunchReport`) whether the index carries its packed arena or has been
//! stripped back to the seed's gather path. The test covers all six kernels,
//! both index types, a dimension with a specialized distance kernel (4) and
//! one on the generic fallback (6), plus a duplicate-point workload that
//! forces distance ties so the tie-breaking order is pinned too.

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

/// Full-report equality: merged counters via `Eq`, derived f64 metrics via
/// `to_bits` so a ULP of drift anywhere in the cost model fails loudly.
fn assert_batches_bit_identical(a: &QueryBatchResult, b: &QueryBatchResult, what: &str) {
    assert_neighbors_bit_identical(&a.neighbors, &b.neighbors, what);
    assert_eq!(a.per_block, b.per_block, "{what}: per-block KernelStats differ");
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

fn dataset(dims: usize, seed: u64) -> PointSet {
    ClusteredSpec { clusters: 5, points_per_cluster: 300, dims, sigma: 140.0, seed }.generate()
}

/// Runs all six kernels on one (packed, legacy) index pair and asserts
/// bit-identity on every batch result.
fn check_index_pair<V: Volumes>(
    packed: &FlatTree<V>,
    legacy: &FlatTree<V>,
    ps: &PointSet,
    queries: &PointSet,
    label: &str,
) {
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let k = 8;

    let a = psb_batch(packed, queries, k, &cfg, &opts).expect("psb packed");
    let b = psb_batch(legacy, queries, k, &cfg, &opts).expect("psb legacy");
    assert_batches_bit_identical(&a, &b, &format!("{label}/psb"));

    let a = bnb_batch(packed, queries, k, &cfg, &opts).expect("bnb packed");
    let b = bnb_batch(legacy, queries, k, &cfg, &opts).expect("bnb legacy");
    assert_batches_bit_identical(&a, &b, &format!("{label}/bnb"));

    let a = restart_batch(packed, queries, k, &cfg, &opts).expect("restart packed");
    let b = restart_batch(legacy, queries, k, &cfg, &opts).expect("restart legacy");
    assert_batches_bit_identical(&a, &b, &format!("{label}/restart"));

    let a = range_batch(packed, queries, 250.0, &cfg, &opts).expect("range packed");
    let b = range_batch(legacy, queries, 250.0, &cfg, &opts).expect("range legacy");
    assert_batches_bit_identical(&a, &b, &format!("{label}/range"));

    let (an, astats) = tpss_batch(packed, queries, k, &cfg, 128);
    let (bn, bstats) = tpss_batch(legacy, queries, k, &cfg, 128);
    assert_neighbors_bit_identical(&an, &bn, &format!("{label}/tpss"));
    assert_eq!(astats, bstats, "{label}/tpss: per-block KernelStats differ");

    // Brute force never touches the index; it pins the scratch/DistKernel
    // rewiring of the tile loop against itself across repeated runs.
    let a = brute_batch(ps, queries, k, &cfg, &opts).expect("brute 1st");
    let b = brute_batch(ps, queries, k, &cfg, &opts).expect("brute 2nd");
    assert_batches_bit_identical(&a, &b, &format!("{label}/brute"));
}

#[test]
fn sstree_arena_is_bit_identical_specialized_dims() {
    let ps = dataset(4, 1201);
    let queries = sample_queries(&ps, 24, 0.01, 1202);
    let packed = build(&ps, 16, &BuildMethod::Hilbert);
    assert!(packed.arena.is_some(), "build must attach the packed arena");
    let mut legacy = packed.clone();
    legacy.strip_arena();
    assert!(legacy.arena.is_none());
    check_index_pair(&packed, &legacy, &ps, &queries, "sstree-d4");
}

#[test]
fn sstree_arena_is_bit_identical_generic_dims() {
    let ps = dataset(6, 1301);
    let queries = sample_queries(&ps, 24, 0.01, 1302);
    let packed = build(&ps, 16, &BuildMethod::Hilbert);
    let mut legacy = packed.clone();
    legacy.strip_arena();
    check_index_pair(&packed, &legacy, &ps, &queries, "sstree-d6");
}

#[test]
fn rtree_arena_is_bit_identical_specialized_dims() {
    let ps = dataset(4, 1401);
    let queries = sample_queries(&ps, 24, 0.01, 1402);
    let packed = build_rtree(&ps, 16, &RtreeBuildMethod::Hilbert);
    assert!(packed.arena.is_some(), "build_rtree must attach the packed arena");
    let mut legacy = packed.clone();
    legacy.strip_arena();
    assert!(legacy.arena.is_none());
    check_index_pair(&packed, &legacy, &ps, &queries, "rtree-d4");
}

#[test]
fn rtree_arena_is_bit_identical_generic_dims() {
    let ps = dataset(6, 1501);
    let queries = sample_queries(&ps, 24, 0.01, 1502);
    let packed = build_rtree(&ps, 16, &RtreeBuildMethod::Hilbert);
    let mut legacy = packed.clone();
    legacy.strip_arena();
    check_index_pair(&packed, &legacy, &ps, &queries, "rtree-d6");
}

#[test]
fn duplicate_distances_tie_break_identically() {
    // Stacks of coincident points force exact distance ties; the survivors'
    // ids must be identical between the arena and gather sweeps, which both
    // offer candidates to the k-best list in the same leaf order.
    let mut ps = PointSet::new(3);
    for i in 0..120 {
        let base = [(i / 4) as f32 * 10.0, ((i / 4) % 5) as f32 * 10.0, 0.0];
        ps.push(&base); // 4 coincident copies of each site
    }
    let queries = sample_queries(&ps, 12, 0.05, 1601);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();

    let packed = build(&ps, 8, &BuildMethod::Hilbert);
    let mut legacy = packed.clone();
    legacy.strip_arena();
    let a = psb_batch(&packed, &queries, 6, &cfg, &opts).expect("psb packed");
    let b = psb_batch(&legacy, &queries, 6, &cfg, &opts).expect("psb legacy");
    assert_batches_bit_identical(&a, &b, "ties/sstree/psb");

    let packed = build_rtree(&ps, 8, &RtreeBuildMethod::Hilbert);
    let mut legacy = packed.clone();
    legacy.strip_arena();
    let a = psb_batch(&packed, &queries, 6, &cfg, &opts).expect("psb packed");
    let b = psb_batch(&legacy, &queries, 6, &cfg, &opts).expect("psb legacy");
    assert_batches_bit_identical(&a, &b, "ties/rtree/psb");
}

#[test]
fn rebuild_after_strip_restores_parity() {
    // strip → query → rebuild → query must round-trip: the arena is a pure
    // cache of the live tree, so rebuilding it cannot change any result.
    let ps = dataset(4, 1701);
    let queries = sample_queries(&ps, 8, 0.01, 1702);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let mut tree = build(&ps, 16, &BuildMethod::Hilbert);
    let with_arena = psb_batch(&tree, &queries, 8, &cfg, &opts).expect("arena run");
    tree.strip_arena();
    let stripped = psb_batch(&tree, &queries, 8, &cfg, &opts).expect("stripped run");
    tree.rebuild_arena();
    let rebuilt = psb_batch(&tree, &queries, 8, &cfg, &opts).expect("rebuilt run");
    assert_batches_bit_identical(&with_arena, &stripped, "roundtrip/stripped");
    assert_batches_bit_identical(&with_arena, &rebuilt, "roundtrip/rebuilt");
}
