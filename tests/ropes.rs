//! Rope-link suite: the escape links retrofitted onto both bounding-volume
//! arenas (DESIGN.md "Rope links") are exactly the preorder-successor pointers, and
//! traversing with them is *observationally identical* to the stacked code.
//!
//! Three layers of evidence, each over both index families:
//!
//! 1. **Link oracle** — every node's rope must equal an independently
//!    recomputed preorder successor of its subtree: the next sibling if one
//!    exists, else the parent's rope, `NO_ROPE` at the root.
//! 2. **Visited-set equality** — for a range volume, a host-side rope walk
//!    visits *exactly* the node set the stacked recursion expands. This is
//!    the structural theorem behind the kernels' result parity: ropes skip
//!    precisely the subtrees the stack would have pruned.
//! 3. **Kernel bit-identity** — `KernelOptions::rope` flips the range and
//!    restart kernels into rope mode; neighbors, outcomes, and (for range)
//!    a zero backtrack counter must match the stacked runs to the bit.

use proptest::prelude::*;
use psb::prelude::*;
use std::collections::BTreeSet;

/// Preorder-successor oracle, recomputed from parent/children links only.
fn rope_oracle<T: GpuIndex>(t: &T, n: u32) -> u32 {
    let mut c = n;
    while c != t.root() {
        let p = t.parent(c);
        if c + 1 < t.children(p).end {
            return c + 1;
        }
        c = p;
    }
    NO_ROPE
}

fn assert_ropes_match_oracle<T: GpuIndex>(t: &T, label: &str) {
    for n in 0..t.num_nodes() as u32 {
        assert_eq!(t.rope(n), rope_oracle(t, n), "{label}: node {n} rope != preorder successor");
    }
}

/// Node set the stacked range recursion expands: the root plus every child
/// of an expanded node whose volume intersects the query ball.
fn stacked_visited<T: GpuIndex>(t: &T, q: &[f32], r: f32) -> BTreeSet<u32> {
    let mut set = BTreeSet::new();
    let mut stack = vec![t.root()];
    set.insert(t.root());
    while let Some(n) = stack.pop() {
        if t.is_leaf(n) {
            continue;
        }
        for c in t.children(n) {
            if t.child_min_max(c, q, false).0 <= r {
                set.insert(c);
                stack.push(c);
            }
        }
    }
    set
}

/// Node set a rope walk visits: follow first-child on a qualifying internal
/// node, the rope everywhere else; only qualifying nodes count as visited.
fn rope_visited<T: GpuIndex>(t: &T, q: &[f32], r: f32) -> BTreeSet<u32> {
    let mut set = BTreeSet::new();
    let mut n = t.root();
    loop {
        let qualifies = n == t.root() || t.child_min_max(n, q, false).0 <= r;
        if qualifies {
            set.insert(n);
            n = if t.is_leaf(n) { t.rope(n) } else { t.children(n).start };
        } else {
            n = t.rope(n);
        }
        if n == NO_ROPE {
            return set;
        }
    }
}

fn workload(dims: usize, seed: u64) -> (PointSet, PointSet) {
    let ps =
        ClusteredSpec { clusters: 5, points_per_cluster: 260, dims, sigma: 130.0, seed }.generate();
    let queries = sample_queries(&ps, 16, 0.01, seed ^ 0x40BE);
    (ps, queries)
}

#[test]
fn escape_links_are_preorder_successors_on_both_families() {
    for (dims, degree, seed) in [(2usize, 8usize, 8101u64), (4, 16, 8102), (8, 32, 8103)] {
        let (ps, _) = workload(dims, seed);
        let ss = build(&ps, degree, &BuildMethod::Hilbert);
        assert_ropes_match_oracle(&ss, &format!("sstree/d{dims}/m{degree}"));
        let rt = build_rtree(&ps, degree, &RtreeBuildMethod::Hilbert);
        assert_ropes_match_oracle(&rt, &format!("rtree/d{dims}/m{degree}"));
    }
}

#[test]
fn rope_mode_range_is_bit_identical_to_stacked_on_both_families() {
    let cfg = DeviceConfig::k40();
    let stacked = KernelOptions::default();
    let roped = KernelOptions { rope: true, ..Default::default() };
    let (ps, queries) = workload(4, 8201);
    let ss = build(&ps, 16, &BuildMethod::Hilbert);
    let rt = build_rtree(&ps, 16, &RtreeBuildMethod::Hilbert);
    for radius in [15.0f32, 180.0, 2_500.0] {
        let a = range_batch(&ss, &queries, radius, &cfg, &stacked).expect("sstree stacked");
        let b = range_batch(&ss, &queries, radius, &cfg, &roped).expect("sstree roped");
        assert_eq!(a.neighbors, b.neighbors, "sstree r={radius}: results differ");
        assert_eq!(a.outcomes, b.outcomes, "sstree r={radius}: outcomes differ");
        assert!(
            b.per_block.iter().all(|s| s.backtracks == 0),
            "sstree r={radius}: rope mode must never pop a stack"
        );
        let a = range_batch(&rt, &queries, radius, &cfg, &stacked).expect("rtree stacked");
        let b = range_batch(&rt, &queries, radius, &cfg, &roped).expect("rtree roped");
        assert_eq!(a.neighbors, b.neighbors, "rtree r={radius}: results differ");
        assert!(
            b.per_block.iter().all(|s| s.backtracks == 0),
            "rtree r={radius}: rope mode must never pop a stack"
        );
    }
}

#[test]
fn rope_mode_restart_is_bit_identical_to_stacked_on_both_families() {
    let cfg = DeviceConfig::k40();
    let stacked = KernelOptions::default();
    let roped = KernelOptions { rope: true, ..Default::default() };
    for k in [1usize, 8, 32] {
        let (ps, queries) = workload(6, 8300 + k as u64);
        let ss = build(&ps, 16, &BuildMethod::Hilbert);
        let a = restart_batch(&ss, &queries, k, &cfg, &stacked).expect("sstree stacked");
        let b = restart_batch(&ss, &queries, k, &cfg, &roped).expect("sstree roped");
        assert_eq!(a.neighbors, b.neighbors, "sstree k={k}: results differ");
        let rt = build_rtree(&ps, 16, &RtreeBuildMethod::Hilbert);
        let a = restart_batch(&rt, &queries, k, &cfg, &stacked).expect("rtree stacked");
        let b = restart_batch(&rt, &queries, k, &cfg, &roped).expect("rtree roped");
        assert_eq!(a.neighbors, b.neighbors, "rtree k={k}: results differ");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Randomized link oracle: tree shape (size, width, dimensionality) never
    // breaks the preorder-successor property.
    #[test]
    fn escape_links_match_the_oracle_everywhere(
        seed in 1u64..10_000,
        dims in 2usize..7,
        degree_pow in 3u32..6,
        per_cluster in 40usize..400,
    ) {
        let degree = 1usize << degree_pow;
        let ps = ClusteredSpec {
            clusters: 4, points_per_cluster: per_cluster, dims, sigma: 110.0, seed,
        }.generate();
        let ss = build(&ps, degree, &BuildMethod::Hilbert);
        assert_ropes_match_oracle(&ss, "proptest/sstree");
        let rt = build_rtree(&ps, degree, &RtreeBuildMethod::Hilbert);
        assert_ropes_match_oracle(&rt, "proptest/rtree");
    }

    // Randomized visited-set equality: for any query ball, the rope walk
    // visits exactly the stacked expansion set on both families.
    #[test]
    fn rope_walk_visits_exactly_the_stacked_node_set(
        seed in 1u64..10_000,
        dims in 2usize..7,
        radius in 5.0f32..3_000.0,
    ) {
        let (ps, queries) = workload(dims, seed);
        let ss = build(&ps, 16, &BuildMethod::Hilbert);
        let rt = build_rtree(&ps, 16, &RtreeBuildMethod::Hilbert);
        for q in queries.iter().take(4) {
            prop_assert_eq!(
                stacked_visited(&ss, q, radius),
                rope_visited(&ss, q, radius),
                "sstree visited sets diverge"
            );
            prop_assert_eq!(
                stacked_visited(&rt, q, radius),
                rope_visited(&rt, q, radius),
                "rtree visited sets diverge"
            );
        }
    }
}
