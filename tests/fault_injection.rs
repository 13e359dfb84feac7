//! Fault-injection suite: seeded device faults must never cost exactness.
//!
//! The recovery ladder (retry on a fresh fault substream, then degrade to the
//! exact brute-force fallback) has three externally visible guarantees:
//!
//! 1. A zero-fault plan is *bit-identical* to the plain engine — results,
//!    per-query counters, and the aggregated report.
//! 2. Under any seeded plan, every answer still matches the CPU oracle
//!    exactly; faults shift queries down the ladder but never corrupt output.
//! 3. The ladder's accounting is consistent: per-query outcomes and the
//!    report's retried/degraded counters tell the same story, and repeated
//!    runs of the same plan are deterministic.

use psb::prelude::*;

const K: usize = 8;

fn workload(seed: u64) -> (PointSet, SsTree, PointSet) {
    let data = ClusteredSpec { clusters: 8, points_per_cluster: 250, dims: 6, sigma: 80.0, seed }
        .generate();
    let tree = build(&data, 16, &BuildMethod::Hilbert);
    let queries = sample_queries(&data, 24, 0.01, seed ^ 9);
    (data, tree, queries)
}

/// (clean, retried, degraded) tallies from the per-query outcomes.
fn tally(r: &QueryBatchResult) -> (u64, u64, u64) {
    let mut c = (0, 0, 0);
    for o in &r.outcomes {
        match o {
            QueryOutcome::Clean => c.0 += 1,
            QueryOutcome::Retried { .. } => c.1 += 1,
            QueryOutcome::Degraded { .. } => c.2 += 1,
            QueryOutcome::DeadlineDegraded { .. } => {
                unreachable!("the batch engine never emits serving-layer deadline outcomes")
            }
        }
    }
    c
}

/// Outcomes, counters, and batch shape must agree with each other.
fn assert_accounting_consistent(r: &QueryBatchResult, nq: usize) {
    let (clean, retried, degraded) = tally(r);
    assert_eq!(r.outcomes.len(), nq);
    assert_eq!(r.neighbors.len(), nq);
    assert_eq!(r.per_block.len(), nq);
    assert_eq!(clean + retried + degraded, nq as u64, "outcomes must cover every query");
    assert_eq!(r.report.retried_queries, retried, "report vs outcomes: retried");
    assert_eq!(r.report.degraded_queries, degraded, "report vs outcomes: degraded");
}

fn assert_exact_knn(r: &QueryBatchResult, data: &PointSet, queries: &PointSet, ctx: &str) {
    for (qi, q) in queries.iter().enumerate() {
        let want = linear_knn(data, q, K);
        let got = &r.neighbors[qi];
        assert_eq!(got.len(), want.len(), "{ctx}: query {qi} result count");
        for (g, w) in got.iter().zip(&want) {
            assert!(
                (g.dist - w.dist).abs() <= w.dist.max(1.0) * 1e-4,
                "{ctx}: query {qi} distance {} != oracle {}",
                g.dist,
                w.dist
            );
        }
    }
}

#[test]
fn zero_fault_plan_is_bit_identical_to_the_plain_engine() {
    let (_, tree, queries) = workload(11);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let plain = psb_batch(&tree, &queries, K, &cfg, &opts).expect("batch");
    let rec = launch(&tree, &queries, Kernel::Psb { k: K }, &cfg, &opts, &FaultPlan::none(), None)
        .expect("batch");

    assert_eq!(rec.neighbors, plain.neighbors, "results must be bit-identical");
    assert_eq!(rec.per_block, plain.per_block, "per-query counters must be bit-identical");
    assert_eq!(rec.report.merged, plain.report.merged, "merged counters must be bit-identical");
    assert!(
        rec.report.avg_response_ms == plain.report.avg_response_ms
            && rec.report.avg_accessed_mb == plain.report.avg_accessed_mb
            && rec.report.warp_efficiency == plain.report.warp_efficiency,
        "modeled metrics must be bit-identical under a no-fault plan"
    );
    assert!(rec.outcomes.iter().all(|o| o.is_clean()));
    assert_eq!(rec.report.retried_queries, 0);
    assert_eq!(rec.report.degraded_queries, 0);
    assert_accounting_consistent(&rec, queries.len());
}

#[test]
fn bit_flips_walk_the_ladder_and_stay_exact() {
    let (data, tree, queries) = workload(12);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let plan = FaultPlan::bit_flips(0xF00D, 1);
    let rec =
        launch(&tree, &queries, Kernel::Psb { k: K }, &cfg, &opts, &plan, None).expect("batch");

    assert_accounting_consistent(&rec, queries.len());
    assert_exact_knn(&rec, &data, &queries, "bit-flips");
    let (_, retried, degraded) = tally(&rec);
    assert!(
        retried > 0 && degraded > 0,
        "plan must exercise both recovery rungs (retried {retried}, degraded {degraded})"
    );

    // Same plan, same workload: the ladder is deterministic end to end.
    let again =
        launch(&tree, &queries, Kernel::Psb { k: K }, &cfg, &opts, &plan, None).expect("batch");
    assert_eq!(again.neighbors, rec.neighbors);
    assert_eq!(again.outcomes, rec.outcomes);
    assert_eq!(again.per_block, rec.per_block);
}

#[test]
fn truncation_faults_degrade_every_query_exactly() {
    let (data, tree, queries) = workload(13);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    // Truncating after a handful of transactions kills both tree attempts of
    // every query, forcing the whole batch onto the brute-force rung.
    let plan = FaultPlan::truncation(8);
    let rec =
        launch(&tree, &queries, Kernel::Psb { k: K }, &cfg, &opts, &plan, None).expect("batch");

    assert_accounting_consistent(&rec, queries.len());
    assert_exact_knn(&rec, &data, &queries, "truncation");
    let (clean, _, degraded) = tally(&rec);
    assert_eq!(clean, 0, "an 8-transaction budget cannot complete any tree traversal");
    assert_eq!(degraded, queries.len() as u64);
}

#[test]
fn watchdog_faults_degrade_every_query_exactly() {
    let (data, tree, queries) = workload(14);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let plan = FaultPlan::watchdog(32);
    let rec =
        launch(&tree, &queries, Kernel::Psb { k: K }, &cfg, &opts, &plan, None).expect("batch");

    assert_accounting_consistent(&rec, queries.len());
    assert_exact_knn(&rec, &data, &queries, "watchdog");
    let (clean, _, degraded) = tally(&rec);
    assert_eq!(clean, 0, "a 32-issue watchdog cannot complete any tree traversal");
    assert_eq!(degraded, queries.len() as u64);
}

#[test]
fn other_engines_recover_too() {
    let (data, tree, queries) = workload(15);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let plan = FaultPlan::bit_flips(0xBEEF, 1);
    for (name, rec) in [
        (
            "bnb",
            launch(&tree, &queries, Kernel::Bnb { k: K }, &cfg, &opts, &plan, None).expect("batch"),
        ),
        (
            "restart",
            launch(&tree, &queries, Kernel::Restart { k: K }, &cfg, &opts, &plan, None)
                .expect("batch"),
        ),
    ] {
        assert_accounting_consistent(&rec, queries.len());
        assert_exact_knn(&rec, &data, &queries, name);
        let (_, retried, degraded) = tally(&rec);
        assert!(retried + degraded > 0, "{name}: the plan must actually inject faults");
    }
}

#[test]
fn range_recovery_matches_the_linear_oracle() {
    let (data, tree, queries) = workload(16);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    // A radius around the first query's 12th neighbor guarantees the batch
    // actually selects points in this dimensionality.
    let radius = linear_knn(&data, queries.point(0), 12).last().expect("oracle").dist * 1.1;
    let plan = FaultPlan::bit_flips(0xCAFE, 1);
    let rec =
        launch(&tree, &queries, Kernel::Range { radius }, &cfg, &opts, &plan, None).expect("batch");

    assert_accounting_consistent(&rec, queries.len());
    let mut total_hits = 0usize;
    for (qi, q) in queries.iter().enumerate() {
        let want = linear_range(&data, q, radius);
        let got = &rec.neighbors[qi];
        assert_eq!(got.len(), want.len(), "query {qi} hit count");
        total_hits += got.len();
        for (g, w) in got.iter().zip(&want) {
            assert!(
                (g.dist - w.dist).abs() <= w.dist.max(1.0) * 1e-4,
                "query {qi}: range hit {} != oracle {}",
                g.dist,
                w.dist
            );
        }
    }
    assert!(total_hits > 0, "the workload radius must actually select points");
    let (_, retried, degraded) = tally(&rec);
    assert!(retried + degraded > 0, "the plan must actually inject faults");
}

#[test]
fn empty_batches_are_a_typed_error_under_recovery() {
    let (_, tree, _) = workload(17);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let empty = PointSet::new(tree.dims);
    let err = launch(&tree, &empty, Kernel::Psb { k: K }, &cfg, &opts, &FaultPlan::none(), None)
        .expect_err("empty batch must be rejected");
    assert!(matches!(err, EngineError::EmptyBatch));
}
