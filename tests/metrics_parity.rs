//! No-op-parity golden tests for the telemetry layer.
//!
//! The metrics registry's core guarantee (DESIGN.md "Telemetry (psb-metrics)"): attaching a
//! [`Registry`] observes a run, it never *changes* it. Every engine batch
//! path and the serving path must produce **bit-identical** neighbors,
//! per-block [`KernelStats`], and [`LaunchReport`]s whether the
//! [`KernelOptions::metrics`] handle is the detached no-op default or a live
//! registry — instrumentation reads the simulator's outputs, it never feeds
//! back into the cost model. Floats are compared by `to_bits`, not by
//! tolerance: the two runs execute the same arithmetic in the same order.
//!
//! The flip side is pinned too: the attached run must actually *populate* the
//! registry (non-empty counters, histograms, and a span tree), so the no-op
//! parity can't be trivially satisfied by instrumentation that never fires.

use psb::prelude::*;
use psb_metrics::{HistogramSummary, MetricsHandle, Registry, Snapshot};
use std::sync::Arc;

const K: usize = 8;
const RADIUS: f32 = 250.0;

fn counter(snap: &Snapshot, key: &str) -> Option<u64> {
    snap.counters.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

fn histogram<'a>(snap: &'a Snapshot, key: &str) -> Option<&'a HistogramSummary> {
    snap.histograms.iter().find(|(k, _)| k == key).map(|(_, h)| h)
}

fn workload() -> (PointSet, SsTree, PointSet) {
    let ps = ClusteredSpec { clusters: 8, points_per_cluster: 300, dims: 8, sigma: 150.0, seed: 7 }
        .generate();
    let tree = build(&ps, 16, &BuildMethod::Hilbert);
    let queries = sample_queries(&ps, 24, 0.01, 11);
    (ps, tree, queries)
}

fn assert_reports_identical(a: &LaunchReport, b: &LaunchReport, ctx: &str) {
    assert_eq!(a.merged, b.merged, "{ctx}: merged counters diverge");
    for (name, x, y) in [
        ("avg_response_ms", a.avg_response_ms, b.avg_response_ms),
        ("max_response_ms", a.max_response_ms, b.max_response_ms),
        ("makespan_ms", a.makespan_ms, b.makespan_ms),
        ("warp_efficiency", a.warp_efficiency, b.warp_efficiency),
        ("avg_accessed_mb", a.avg_accessed_mb, b.avg_accessed_mb),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: {name} diverges ({x} vs {y})");
    }
    assert_eq!(a.occupancy, b.occupancy, "{ctx}: occupancy");
    assert_eq!(a.occupancy_min, b.occupancy_min, "{ctx}: occupancy_min");
    assert_eq!(a.occupancy_max, b.occupancy_max, "{ctx}: occupancy_max");
    assert_eq!(a.retried_queries, b.retried_queries, "{ctx}: retried_queries");
    assert_eq!(a.degraded_queries, b.degraded_queries, "{ctx}: degraded_queries");
}

fn assert_neighbors_identical(a: &[Vec<Neighbor>], b: &[Vec<Neighbor>], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: query count diverges");
    for (qi, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.len(), y.len(), "{ctx}: query {qi} result length diverges");
        for (n, m) in x.iter().zip(y) {
            assert_eq!(n.id, m.id, "{ctx}: query {qi} neighbor id diverges");
            assert_eq!(
                n.dist.to_bits(),
                m.dist.to_bits(),
                "{ctx}: query {qi} neighbor dist diverges"
            );
        }
    }
}

fn assert_results_identical(a: &QueryBatchResult, b: &QueryBatchResult, ctx: &str) {
    assert_neighbors_identical(&a.neighbors, &b.neighbors, ctx);
    assert_eq!(a.per_block, b.per_block, "{ctx}: per-block counters diverge");
    assert_eq!(a.outcomes, b.outcomes, "{ctx}: outcomes diverge");
    assert_reports_identical(&a.report, &b.report, ctx);
}

/// Runs `f` once detached and once attached; asserts bit-identical results
/// and that the attached run left something in the registry.
fn parity<R>(ctx: &str, mut f: impl FnMut(&KernelOptions) -> R) -> (R, R, psb_metrics::Snapshot) {
    let detached = KernelOptions::default();
    let reg = Registry::new();
    let attached = KernelOptions { metrics: MetricsHandle::attached(&reg), ..Default::default() };
    let plain = f(&detached);
    let instrumented = f(&attached);
    let snap = reg.snapshot();
    assert!(
        !snap.counters.is_empty() && !snap.spans.is_empty(),
        "{ctx}: attached run recorded nothing — parity would be vacuous"
    );
    (plain, instrumented, snap)
}

#[test]
fn all_kernels_are_bit_identical_with_and_without_registry() {
    let (ps, tree, queries) = workload();
    let cfg = DeviceConfig::k40();
    let run_all = |opts: &KernelOptions| {
        vec![
            ("psb", psb_batch(&tree, &queries, K, &cfg, opts).unwrap()),
            ("bnb", bnb_batch(&tree, &queries, K, &cfg, opts).unwrap()),
            ("restart", restart_batch(&tree, &queries, K, &cfg, opts).unwrap()),
            ("range", range_batch(&tree, &queries, RADIUS, &cfg, opts).unwrap()),
            ("brute", brute_batch(&ps, &queries, K, &cfg, opts).unwrap()),
        ]
    };
    let (plain, instrumented, snap) = parity("kernels", run_all);
    for ((name, a), (_, b)) in plain.iter().zip(&instrumented) {
        assert_results_identical(a, b, name);
    }
    // Every kernel label shows up in the engine's counter families and in the
    // span tree — the instrumentation covered all five paths.
    for name in ["psb", "bnb", "restart", "range", "brute"] {
        let key = format!("engine.batches{{kernel=\"{name}\"}}");
        assert_eq!(counter(&snap, &key), Some(1), "missing {key}");
        assert!(
            snap.spans.iter().any(|(p, _)| p == &format!("engine/{name}/execute")),
            "missing execute span for {name}"
        );
    }
}

#[test]
fn scheduled_and_fused_paths_are_bit_identical() {
    let (_, tree, queries) = workload();
    let cfg = DeviceConfig::k40();
    let run = |base: &KernelOptions| {
        let sched = KernelOptions {
            schedule: QuerySchedule::Hilbert,
            metrics: base.metrics.clone(),
            ..Default::default()
        };
        psb_batch(&tree, &queries, K, &cfg, &sched).unwrap()
    };
    let (plain, instrumented, _) = parity("scheduled", run);
    assert_results_identical(&plain, &instrumented, "psb+hilbert");
}

#[test]
fn recovering_path_is_bit_identical_under_the_same_fault_plan() {
    let (_, tree, queries) = workload();
    let cfg = DeviceConfig::k40();
    let plan = FaultPlan::bit_flips(0xFA17, 1);
    let run = |opts: &KernelOptions| {
        launch(&tree, &queries, Kernel::Psb { k: K }, &cfg, opts, &plan, None).unwrap()
    };
    let (a, b, snap) = parity("recovering", run);
    assert_results_identical(&a, &b, "psb recovering");
    // The recovery tallies flow into the sim counters from the report.
    let retried = counter(&snap, "sim.retried_queries{kernel=\"psb\"}");
    assert_eq!(retried, Some(a.report.retried_queries), "retried count mismatch");
}

#[test]
fn serve_path_is_bit_identical_with_and_without_registry() {
    let (ps, _, queries) = workload();
    let cfg = DeviceConfig::k40();
    let serve = |metrics: MetricsHandle, opts: &KernelOptions| {
        let mut router = ShardRouter::build(&ps, &ServeConfig::new(4), &cfg, |shard| {
            build(shard, 16, &BuildMethod::Hilbert)
        });
        router.attach_metrics(metrics);
        router.serve_batch(&queries, K, opts).unwrap()
    };
    let detached = serve(MetricsHandle::noop(), &KernelOptions::default());
    let reg = Registry::new();
    let opts = KernelOptions { metrics: MetricsHandle::attached(&reg), ..Default::default() };
    let attached = serve(MetricsHandle::attached(&reg), &opts);

    assert_neighbors_identical(&detached.neighbors, &attached.neighbors, "serve");
    assert_eq!(detached.per_query, attached.per_query, "serve: per-query counters diverge");
    assert_eq!(detached.outcomes, attached.outcomes, "serve: outcomes diverge");
    assert_reports_identical(&detached.report.launch, &attached.report.launch, "serve");

    let snap = reg.snapshot();
    assert_eq!(
        counter(&snap, "serve.queries"),
        Some(queries.len() as u64),
        "serve.queries should count the batch"
    );
    assert!(snap.spans.iter().any(|(p, _)| p == "serve"), "missing serve span");
    assert!(
        histogram(&snap, "serve.query_us").is_some_and(|h| h.count == queries.len() as u64),
        "per-query latency histogram should hold one observation per query"
    );
}

/// The registry is shared state behind a mutex; the engine's parallel batch
/// paths hit it from rayon workers. Pin that a shared registry across
/// concurrent batches still sums to the right totals.
#[test]
fn one_registry_shared_across_batches_accumulates() {
    let (_, tree, queries) = workload();
    let cfg = DeviceConfig::k40();
    let reg: Arc<Registry> = Registry::new();
    let opts = KernelOptions { metrics: MetricsHandle::attached(&reg), ..Default::default() };
    for _ in 0..3 {
        psb_batch(&tree, &queries, K, &cfg, &opts).unwrap();
    }
    let snap = reg.snapshot();
    assert_eq!(counter(&snap, "engine.batches{kernel=\"psb\"}"), Some(3));
    assert_eq!(counter(&snap, "engine.queries{kernel=\"psb\"}"), Some(3 * queries.len() as u64));
    let h = histogram(&snap, "engine.batch_us{kernel=\"psb\"}").expect("batch histogram");
    assert_eq!(h.count, 3);
}
