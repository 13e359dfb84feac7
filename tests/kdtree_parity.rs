//! Golden parity suite for the implicit left-balanced kd-tree family.
//!
//! The stack-free kernel (DESIGN.md "Stack-free kd kernel and rope modes") is
//! an *exact* kNN search: it visits a superset of the nodes a stacked
//! kd-traversal would prune into, offers every visited point through the same
//! `GpuKnnList` the other kernels use, and computes distances with the same
//! `DistKernel` operation order. Parity is therefore demanded to the **bit**,
//! on three axes:
//!
//! 1. against the brute-force oracle over the same point set — the exactness
//!    ground truth;
//! 2. against the SS-tree PSB engine built on the same data — the paper's
//!    traversal must agree with the new family, not just with brute force;
//! 3. across the engine's operational modes — `Metering::Off`, seeded device
//!    faults (retry/degrade ladder), and a zero-fault recovery plan that must
//!    be indistinguishable from the plain engine.
//!
//! Dimensions sweep {2, 3, 4, 8, 16}: below, at, and above the widths where
//! the split-dimension cycle wraps within a single root-to-leaf path.

use psb::prelude::*;

const DIMS: [usize; 5] = [2, 3, 4, 8, 16];
const K: usize = 8;

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

fn workload(dims: usize, seed: u64) -> (PointSet, PointSet) {
    let ps =
        ClusteredSpec { clusters: 5, points_per_cluster: 300, dims, sigma: 140.0, seed }.generate();
    let queries = sample_queries(&ps, 20, 0.01, seed ^ 0x5AC);
    (ps, queries)
}

#[test]
fn stackfree_matches_the_brute_oracle_bitwise_across_dims() {
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    for dims in DIMS {
        let (ps, queries) = workload(dims, 7000 + dims as u64);
        let kd = LbKdTree::build(&ps);
        kd.validate().expect("left-balanced invariants");
        let a = stackfree_batch(&kd, &queries, K, &cfg, &opts).expect("stackfree");
        let b = brute_batch(&ps, &queries, K, &cfg, &opts).expect("brute");
        assert_neighbors_bit_identical(&a.neighbors, &b.neighbors, &format!("brute/d{dims}"));
    }
}

#[test]
fn stackfree_matches_sstree_psb_bitwise_across_dims() {
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    for dims in DIMS {
        let (ps, queries) = workload(dims, 7100 + dims as u64);
        let kd = LbKdTree::build(&ps);
        let ss = build(&ps, 16, &BuildMethod::Hilbert);
        let a = stackfree_batch(&kd, &queries, K, &cfg, &opts).expect("stackfree");
        let b = psb_batch(&ss, &queries, K, &cfg, &opts).expect("psb");
        assert_neighbors_bit_identical(&a.neighbors, &b.neighbors, &format!("psb/d{dims}"));
    }
}

#[test]
fn stackfree_is_exact_on_tiny_trees() {
    // Every structural corner of the implicit layout: single node, one-level
    // trees, the first incomplete bottom row, and k saturating the point count.
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    for n in 1..=9usize {
        let ps = ClusteredSpec {
            clusters: 1,
            points_per_cluster: n,
            dims: 3,
            sigma: 90.0,
            seed: 7200 + n as u64,
        }
        .generate();
        let kd = LbKdTree::build(&ps);
        let queries = sample_queries(&ps, 4, 0.05, 7300 + n as u64);
        let a = stackfree_batch(&kd, &queries, n, &cfg, &opts).expect("stackfree");
        let b = brute_batch(&ps, &queries, n, &cfg, &opts).expect("brute");
        assert_neighbors_bit_identical(&a.neighbors, &b.neighbors, &format!("tiny/n{n}"));
    }
}

#[test]
fn visits_far_fewer_nodes_than_the_whole_tree() {
    // On clustered data the plane test prunes most of the tree; the counter
    // proves the kernel is a traversal, not a disguised scan.
    let ps =
        ClusteredSpec { clusters: 8, points_per_cluster: 500, dims: 3, sigma: 40.0, seed: 105 }
            .generate();
    let kd = LbKdTree::build(&ps);
    let q = sample_queries(&ps, 1, 0.005, 106);
    let found =
        stackfree_batch(&kd, &q, 4, &DeviceConfig::k40(), &KernelOptions::default()).expect("one");
    let stats = found.per_block[0];
    assert!(
        stats.nodes_visited < ps.len() as u64 / 2,
        "visited {} of {}",
        stats.nodes_visited,
        ps.len()
    );
    assert!(stats.backtracks > 0, "must climb through parents");
}

#[test]
fn metering_off_is_result_identical_and_counter_silent() {
    let cfg = DeviceConfig::k40();
    let sim = KernelOptions::default();
    let fast = KernelOptions { metering: Metering::Off, ..Default::default() };
    for dims in DIMS {
        let (ps, queries) = workload(dims, 7400 + dims as u64);
        let kd = LbKdTree::build(&ps);
        let a = stackfree_batch(&kd, &queries, K, &cfg, &sim).expect("metered");
        let b = stackfree_batch(&kd, &queries, K, &cfg, &fast).expect("unmetered");
        assert_neighbors_bit_identical(&a.neighbors, &b.neighbors, &format!("off/d{dims}"));
        assert_eq!(a.outcomes, b.outcomes, "off/d{dims}: outcomes differ");
        for (qi, s) in b.per_block.iter().enumerate() {
            assert_eq!(s.global_bytes, 0, "off/d{dims}: query {qi} leaked bytes");
            assert_eq!(s.nodes_visited, 0, "off/d{dims}: query {qi} counted nodes");
            assert_eq!(s.compute_issues, 0, "off/d{dims}: query {qi} issued ops");
        }
    }
}

#[test]
fn zero_fault_recovery_is_bit_identical_to_the_plain_engine() {
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let (ps, queries) = workload(4, 7500);
    let kd = LbKdTree::build(&ps);
    let plain = stackfree_batch(&kd, &queries, K, &cfg, &opts).expect("plain");
    let rec = launch_stackfree(&kd, &queries, K, &cfg, &opts, &FaultPlan::none(), None)
        .expect("recovering");
    assert_eq!(rec.neighbors, plain.neighbors, "results must be bit-identical");
    assert_eq!(rec.per_block, plain.per_block, "per-query counters must be bit-identical");
    assert_eq!(rec.report.merged, plain.report.merged, "merged counters must be bit-identical");
    assert!(rec.outcomes.iter().all(|o| matches!(o, QueryOutcome::Clean)));
}

#[test]
fn seeded_faults_never_cost_exactness() {
    // Faults push queries down the retry/degrade ladder, but every rung — the
    // fresh-substream retry and the brute fallback — is the same exact search,
    // so the answers must still be bit-identical to the clean run.
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    for dims in [2usize, 4, 16] {
        let (ps, queries) = workload(dims, 7600 + dims as u64);
        let kd = LbKdTree::build(&ps);
        let clean = stackfree_batch(&kd, &queries, K, &cfg, &opts).expect("clean");
        let plan = FaultPlan::bit_flips(0xF1A7 + dims as u64, 2);
        let rec = launch_stackfree(&kd, &queries, K, &cfg, &opts, &plan, None).expect("recovering");
        assert_neighbors_bit_identical(
            &rec.neighbors,
            &clean.neighbors,
            &format!("faults/d{dims}"),
        );
        let (mut retried, mut degraded) = (0u64, 0u64);
        for o in &rec.outcomes {
            match o {
                QueryOutcome::Clean => {}
                QueryOutcome::Retried { .. } => retried += 1,
                QueryOutcome::Degraded { .. } => degraded += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(rec.report.retried_queries, retried, "report vs outcomes: retried");
        assert_eq!(rec.report.degraded_queries, degraded, "report vs outcomes: degraded");
        // Determinism: the same plan replays to the same ladder and answers.
        let again =
            launch_stackfree(&kd, &queries, K, &cfg, &opts, &plan, None).expect("recovering again");
        assert_eq!(again.neighbors, rec.neighbors);
        assert_eq!(again.outcomes, rec.outcomes);
    }
}

#[test]
fn cpu_reference_search_agrees_with_the_kernel() {
    let (ps, queries) = workload(8, 7700);
    let kd = LbKdTree::build(&ps);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let batch = stackfree_batch(&kd, &queries, K, &cfg, &opts).expect("stackfree");
    for (qi, q) in queries.iter().enumerate() {
        let want = kd.knn_cpu(q, K);
        let got = &batch.neighbors[qi];
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.id, w.id, "query {qi}: id differs from CPU reference");
            assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "query {qi}: distance bits differ");
        }
    }
}

#[test]
fn non_finite_coordinates_are_a_typed_build_error() {
    let mut ps = PointSet::new(3);
    ps.push(&[1.0, 2.0, 3.0]);
    ps.push(&[4.0, f32::NEG_INFINITY, 6.0]);
    assert_eq!(LbKdTree::try_build(&ps).err(), Some(KdBuildError::NonFinite { id: 1, dim: 1 }));
    // The seed kd-tree baseline enforces the same gate (satellite #1).
    assert_eq!(KdTree::try_build(&ps, 8).err(), Some(KdBuildError::NonFinite { id: 1, dim: 1 }));
}
