//! The benchmark's declared surface: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repo root is
//! this table rendered (`--emit-spec`), and `--smoke` fails if the two differ.

use crate::json::Value;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression; `None` for per-layer
    /// metrics, which are never gated.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Lower, bound: None }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Higher, bound: None }
}

/// `(name, why)`. Sizes, k and degree are fixed in `workloads.rs`.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "paper-clustered16",
        "paper setting scaled: 100x1000 clustered 16-d, degree 128, k=32, metered psb_batch; tree prunes and the simulator's accounting is 25-30% of host time",
    ),
    (
        "host-uniform16",
        "20000 uniform 16-d, degree 16, k=8, Hilbert schedule + Metering::Off: the tree barely prunes, so sweeps and distance rows are nearly all the time",
    ),
    (
        "serve-noaa4",
        "100k NOAA-like 4-d behind ResilientRouter over 4 k-means shards, Zipf stream, cache 256: shards prune, kernels are cheap, front-end/cache/merge dominate",
    ),
    (
        "ingest-clustered4",
        "DynamicShardRouter over 10x4000 clustered 4-d: cycles of 240 knn + 24 inserts + a shard rebuild every 10th; build, delta scan, epochs and locks do the work",
    ),
];

/// What a user of the system sees. The two serving metrics are priced in
/// reference scans (see `refscan.rs`); `setup_s` and `peak_rss_mb` are raw
/// and depend on what the allocator and the kernel hand the process, hence
/// the widest bounds. The three model outputs repeat bit-for-bit at a fixed
/// seed; their bounds cover only what the seed does to the query sample.
/// Every bound is at least three times the largest spread (IQR / median) seen
/// over ten seeds, except where 0.25, the widest bound there is, falls short
/// of that: `peak_rss_mb` and `tail_ratio`, on one workload each — see README,
/// *Measured steadiness*.
pub const END_TO_END: [Metric; 7] = [
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("scan_speedup", "x", Better::Higher, 0.15),
    gated("tail_ratio", "x", Better::Lower, 0.25),
    gated("sim_response_ms", "ms", Better::Lower, 0.05),
    gated("sim_accessed_mb", "MB", Better::Lower, 0.05),
    gated("index_bytes_per_point", "B", Better::Lower, 0.02),
    gated("peak_rss_mb", "MB", Better::Lower, 0.25),
];

/// Single-layer numbers from the traced pass; prefix = module. Ungated.
pub const PER_LAYER: [Metric; 66] = [
    // The harness's own view: raw numbers beside the normalised ones.
    hi("client.qps_raw", "1/s"),
    lo("client.batch_ms_p50", "ms"),
    lo("client.batch_ms_p95", "ms"),
    lo("client.ref_scan_us", "us"),
    lo("client.ref_drift_frac", "fraction"),
    hi("client.samples", "count"),
    hi("client.verified_ops", "count"),
    lo("client.trace_overhead_frac", "fraction"),
    lo("client.setup_scans", "ref-scans"),
    lo("data.generate_ms", "ms"),
    // psb-geom
    lo("geom.dist_rows_ns_per_row", "ns"),
    lo("geom.dist_rows_scalar_ns_per_row", "ns"),
    lo("geom.rect_rows_ns_per_row", "ns"),
    lo("geom.hilbert_key_ns_per_point", "ns"),
    lo("geom.ritter_us_per_sphere", "us"),
    // psb-gpu: host cost of the simulator, then its deterministic counters.
    lo("gpu.metering_overhead_frac", "fraction"),
    lo("gpu.launch_blocks_us", "us"),
    hi("gpu.sim_warp_efficiency", "fraction"),
    lo("gpu.sim_nodes_per_query", "count"),
    lo("gpu.sim_transactions_per_query", "count"),
    hi("gpu.sim_stream_frac", "fraction"),
    lo("gpu.sim_issues_per_query", "count"),
    lo("gpu.sim_backtracks_per_query", "count"),
    // Index families.
    lo("sstree.build_ms", "ms"),
    lo("sstree.validate_ms", "ms"),
    lo("sstree.child_sweep_ns", "ns"),
    lo("sstree.leaf_sweep_ns", "ns"),
    lo("sstree.cpu_knn_us", "us"),
    lo("rtree.build_ms", "ms"),
    lo("rtree.psb_us_per_query", "us"),
    lo("kdtree.build_ms", "ms"),
    lo("kdtree.stackfree_us_per_query", "us"),
    // psb-core kernels: per-query entry points, same queries.
    lo("kernels.psb_us_per_query", "us"),
    lo("kernels.psb_metered_us_per_query", "us"),
    lo("kernels.bnb_us_per_query", "us"),
    lo("kernels.restart_us_per_query", "us"),
    lo("kernels.brute_us_per_query", "us"),
    lo("kernels.sweep_share_est", "fraction"),
    lo("kernels.dist_share_est", "fraction"),
    // psb-core batch engines.
    lo("engine.batch_us_per_query", "us"),
    lo("engine.self_frac", "fraction"),
    lo("engine.scheduled_us_per_query", "us"),
    hi("engine.schedule_gain", "x"),
    lo("schedule.hilbert_order_us", "us"),
    lo("wave.us_per_query", "us"),
    hi("wave.mean_buffer_fill", "count"),
    lo("wave.coalesced_sweeps", "count"),
    lo("stream.us_per_query", "us"),
    lo("stream.self_frac", "fraction"),
    // psb-serve.
    lo("router.build_ms", "ms"),
    lo("router.us_per_query", "us"),
    lo("router.self_frac", "fraction"),
    hi("router.prune_rate", "fraction"),
    lo("router.shards_visited_per_query", "count"),
    lo("resilient.us_per_query", "us"),
    lo("resilient.front_self_frac", "fraction"),
    hi("resilient.cache_hit_frac", "fraction"),
    lo("resilient.hit_us", "us"),
    lo("resilient.miss_us", "us"),
    lo("dynamic.build_ms", "ms"),
    lo("dynamic.insert_us_p50", "us"),
    lo("dynamic.rebuild_shard_ms_p50", "ms"),
    lo("dynamic.knn_us_p50", "us"),
    lo("dynamic.knn_pending_us_p50", "us"),
    hi("dynamic.cache_hit_frac", "fraction"),
    // psb-metrics.
    lo("metrics.attached_overhead_frac", "fraction"),
];

/// Model outputs: equal bit for bit across two runs at one seed. `--smoke`
/// and `--repeat-check` hold every one of these to exact equality.
pub const DETERMINISTIC: [&str; 15] = [
    "sim_response_ms",
    "sim_accessed_mb",
    "index_bytes_per_point",
    "gpu.sim_warp_efficiency",
    "gpu.sim_nodes_per_query",
    "gpu.sim_transactions_per_query",
    "gpu.sim_stream_frac",
    "gpu.sim_issues_per_query",
    "gpu.sim_backtracks_per_query",
    "router.prune_rate",
    "router.shards_visited_per_query",
    "resilient.cache_hit_frac",
    "dynamic.cache_hit_frac",
    "wave.mean_buffer_fill",
    "wave.coalesced_sweeps",
];

/// Directory (relative to the repo root) that holds the benchmark.
pub const BENCH_DIR: &str = "benchmark";

fn metric_json(m: &Metric) -> Value {
    let better = Value::str(match m.better {
        Better::Lower => "lower",
        Better::Higher => "higher",
    });
    match m.bound {
        Some(b) => Value::obj([
            ("name", Value::str(m.name)),
            ("unit", Value::str(m.unit)),
            ("better", better),
            ("bound", Value::Num(b)),
        ]),
        None => Value::obj([
            ("name", Value::str(m.name)),
            ("unit", Value::str(m.unit)),
            ("better", better),
        ]),
    }
}

/// The document `BENCHMARK.json` must hold.
pub fn benchmark_json() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Value::obj([
        ("command", Value::Arr(command.iter().map(|s| Value::str(s)).collect())),
        ("paths", Value::Arr(vec![Value::str(BENCH_DIR)])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(n, w)| Value::obj([("name", Value::str(n)), ("why", Value::str(w))]))
                    .collect(),
            ),
        ),
        ("end_to_end", Value::Arr(END_TO_END.iter().map(metric_json).collect())),
        ("per_layer", Value::Arr(PER_LAYER.iter().map(metric_json).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn declared_names_units_and_bounds_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for (n, why) in WORKLOADS {
            assert!(name_ok(n) && seen.insert(n), "{n}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{n}: why too long");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        assert!(END_TO_END.iter().all(|m| matches!(m.bound, Some(b) if b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        for d in DETERMINISTIC {
            assert!(seen.contains(d), "{d} is not a declared metric");
        }
        assert!(benchmark_json().render().len() < 64 * 1024);
    }
}
