//! Host wall-clock benchmark harness — `BENCH_psb.json`.
//!
//! Unlike the `figures` binary (which reports *simulated device* metrics under
//! the cost model), this harness measures what the packed arenas and
//! dimension-specialized distance kernels actually buy on the host: build
//! time, sustained queries/sec, and p50/p99 per-query wall time for all six
//! kernels over both index types, on uniform and gaussian workloads.
//!
//! ```text
//! cargo run --release -p psb-bench --bin bench                  # arena layout
//! cargo run --release -p psb-bench --bin bench -- --legacy-layout
//! cargo run --release -p psb-bench --bin bench -- --smoke --out target/BENCH_smoke.json
//! cargo run --release -p psb-bench --bin bench -- --metrics target/metrics.prom
//! cargo run --release -p psb-bench --bin bench -- compare old.json new.json
//! ```
//!
//! The default (arena) run additionally times the headline workload — PSB on
//! a 16-dim uniform SS-tree — with the arena stripped, and records the ratio
//! as `speedup_vs_legacy`. `--smoke` shrinks every workload to seconds-scale,
//! then self-validates the emitted JSON (required keys present, finite and
//! nonzero) and exits nonzero if the schema check fails.
//!
//! Schema v4 adds a `metrics` section: after the timed rows, the headline
//! workload is replayed once with a live [`psb_metrics::Registry`] attached
//! (one scheduled PSB batch through the engine plus one 4-shard served batch)
//! and the registry's JSON snapshot is embedded verbatim. `--metrics PATH`
//! additionally writes the Prometheus text dump plus the span tree to `PATH`.
//! The replay runs *after* every measurement, and the measured sections keep
//! the detached no-op handle, so instrumentation cannot perturb the rows.
//!
//! Schema v5 adds tail latency (`p999_us` on every result row) and a
//! `serving` section: the headline workload pushed through the resilience
//! front-end ([`ResilientRouter`]) under deterministic pressure — one metered
//! tenant, cycle deadlines on every third request, one faulted primary — with
//! the resulting **outcome mix** (clean / retried / degraded /
//! deadline-degraded / rejected fractions) recorded. The mix is a model
//! output: logical ticks and cycle budgets make it machine-independent, so
//! `bench compare` can gate on it exactly.
//!
//! Schema v6 adds a `wave` section: the headline batch replayed through the
//! buffer-wave node-centric engine ([`KernelOptions::wave`], DESIGN.md §16) —
//! wave qps beside the scheduled engine's, plus the engine's own occupancy
//! stats (wave fronts, coalesced sweeps, mean/max buffer fill — deterministic
//! model outputs). The smoke gate asserts the wave engine never falls behind
//! the scheduled engine on the 240-query batch, and `bench compare` gates the
//! section against the committed baseline.
//!
//! Schema v7 adds a `fast_path` section: the headline batch timed under the
//! three fast-path configurations — metered scalar lanes (the all-reference
//! floor), the default (metered + SIMD lanes), and the full fast path
//! (`Metering::Off` + SIMD) — with `combined_speedup` recording what the
//! explicit SIMD evaluators plus the zero-accounting mode buy over the
//! metered-scalar floor. All three run the identical tree, queries, and
//! engine; results are bit-identical across them (`tests/fastpath_parity.rs`),
//! so the section is pure wall-clock. The smoke gate asserts the fast path
//! never falls behind the default, and `bench compare` gates the section
//! against the committed baseline.
//!
//! Schema v8 adds the third index family and its footprint: a per-workload
//! `kdtree`/`stackfree` result row (the implicit left-balanced kd-tree under
//! the Wald stack-free kNN kernel, DESIGN.md §18) and a `memory` section
//! recording `index_bytes` beside the raw `points_bytes` for all three
//! families on the headline workload. Index footprints are deterministic
//! model outputs; the smoke gate asserts the implicit tree costs no more
//! than the points array plus a constant header, and `bench compare` gates
//! every family's bytes-per-point against the committed baseline.
//!
//! `bench compare old.json new.json [--threshold F]` is the perf-trajectory
//! gate: it diffs two BENCH files row-by-row and exits nonzero when any
//! kernel's qps dropped or p99/p999 rose by more than the threshold (default
//! 10%), or when the serving outcome mix shifted toward degradation by more
//! than the threshold in absolute fraction points, or when the wave or
//! fast-path section lost throughput (or buffer occupancy) beyond the
//! threshold.

use std::fmt::Write as _;
use std::time::Instant;

use psb_bench::{compare, parse_bench, render_report};
use psb_core::kernels::brute::brute_query;
use psb_core::kernels::psb::psb_query;
use psb_core::kernels::range::range_query_gpu;
use psb_core::kernels::restart::restart_query;
use psb_core::kernels::stackfree::stackfree_query;
use psb_core::kernels::{bnb::bnb_query, tpss::tpss_batch};
use psb_core::{
    psb_batch, wave_knn_batch, DistLanes, GpuIndex, KernelOptions, Metering, QuerySchedule,
    WaveConfig,
};
use psb_data::{sample_queries, ClusteredSpec, SkewedQuerySpec, UniformSpec};
use psb_geom::PointSet;
use psb_gpu::{DeviceConfig, FaultPlan};
use psb_kdtree::LbKdTree;
use psb_metrics::{render_json, render_prometheus, render_span_tree, MetricsHandle, Registry};
use psb_rtree::{build_rtree, RtreeBuildMethod};
use psb_serve::{
    DeadlineBudget, QuotaConfig, RequestMeta, ResilienceConfig, ResilientRouter, ServeConfig,
    ShardRouter,
};
use psb_sstree::{build, BuildMethod};

const SCHEMA: &str = "psb-bench-v8";
const K: usize = 8;
/// Queries per batch: the paper's §V-B experiment size. Per-kernel rows and
/// the throughput section both run full 240-query batches (smoke mode shrinks
/// the per-kernel rows but keeps the throughput batch at 240 so the
/// scheduled-vs-unscheduled gate measures a real batch).
const BATCH: usize = 240;
const RANGE_RADIUS: f32 = 250.0;

struct Config {
    scale: f64,
    legacy: bool,
    smoke: bool,
    seed: u64,
    out: String,
    metrics: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench [--scale F] [--seed S] [--legacy-layout] [--smoke] [--out PATH] \
         [--metrics PATH]\n       bench compare OLD.json NEW.json [--threshold F]"
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Config {
    let mut cfg = Config {
        scale: 1.0,
        legacy: false,
        smoke: false,
        seed: 0x2016,
        out: "BENCH_psb.json".to_string(),
        metrics: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                cfg.scale = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                cfg.seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--legacy-layout" => cfg.legacy = true,
            "--smoke" => cfg.smoke = true,
            "--out" => {
                i += 1;
                cfg.out = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--metrics" => {
                i += 1;
                cfg.metrics = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }
    cfg
}

/// `bench compare OLD NEW [--threshold F]`: the perf-trajectory gate. Exits 0
/// when every matched row is within the threshold, 1 on any regression, 2 on
/// unusable input.
fn run_compare(args: &[String]) -> ! {
    let mut threshold = 0.10f64;
    let mut paths: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--threshold" {
            i += 1;
            threshold = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
        } else {
            paths.push(&args[i]);
        }
        i += 1;
    }
    if paths.len() != 2 {
        usage();
    }
    let load = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => match parse_bench(&text) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("bench compare: {path}: {e}");
                std::process::exit(2);
            }
        },
        Err(e) => {
            eprintln!("bench compare: {path}: {e}");
            std::process::exit(2);
        }
    };
    let old = load(paths[0]);
    let new = load(paths[1]);
    let regs = compare(&old, &new, threshold);
    print!("{}", render_report(&old, &new, threshold, &regs));
    std::process::exit(if regs.is_empty() { 0 } else { 1 });
}

/// One (workload, dims, index, kernel) measurement row.
struct Row {
    workload: &'static str,
    dims: usize,
    index: &'static str,
    kernel: &'static str,
    build_ms: f64,
    queries: usize,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)]
}

/// Times `run` once per query (after a small warm-up) and summarizes. At the
/// default 240-query batch p99.9 is effectively the per-batch maximum — that
/// is the point: one stalled query is exactly what the tail gate exists to
/// catch, and the nearest-rank estimator keeps it comparable across runs.
fn measure(queries: &PointSet, mut run: impl FnMut(&[f32])) -> (f64, f64, f64, f64) {
    for q in queries.iter().take(2) {
        run(q);
    }
    let mut per_query_us: Vec<f64> = Vec::with_capacity(queries.len());
    let total = Instant::now();
    for q in queries.iter() {
        let t = Instant::now();
        run(q);
        per_query_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let total_s = total.elapsed().as_secs_f64();
    per_query_us.sort_by(f64::total_cmp);
    let qps = queries.len() as f64 / total_s.max(1e-12);
    (
        qps,
        percentile(&per_query_us, 0.50),
        percentile(&per_query_us, 0.99),
        percentile(&per_query_us, 0.999),
    )
}

/// Runs all six kernels against one index pair + raw points; pushes rows.
#[allow(clippy::too_many_arguments)]
fn bench_index<T: GpuIndex>(
    rows: &mut Vec<Row>,
    workload: &'static str,
    dims: usize,
    index: &'static str,
    tree: &T,
    ps: &PointSet,
    queries: &PointSet,
    build_ms: f64,
) {
    let dev = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let nq = queries.len();
    let mut push = |kernel: &'static str, (qps, p50, p99, p999): (f64, f64, f64, f64)| {
        rows.push(Row {
            workload,
            dims,
            index,
            kernel,
            build_ms,
            queries: nq,
            qps,
            p50_us: p50,
            p99_us: p99,
            p999_us: p999,
        });
    };
    push("psb", measure(queries, |q| drop(psb_query(tree, q, K, &dev, &opts))));
    push("bnb", measure(queries, |q| drop(bnb_query(tree, q, K, &dev, &opts))));
    push("restart", measure(queries, |q| drop(restart_query(tree, q, K, &dev, &opts))));
    push("range", measure(queries, |q| drop(range_query_gpu(tree, q, RANGE_RADIUS, &dev, &opts))));
    push(
        "tpss",
        measure(queries, |q| {
            let mut one = PointSet::new(dims);
            one.push(q);
            drop(tpss_batch(tree, &one, K, &dev, opts.threads_per_block));
        }),
    );
    // Brute force ignores the index; report it once per (workload, index) so
    // the baseline lands beside each tree's rows in the JSON.
    push("brute", measure(queries, |q| drop(brute_query(ps, q, K, &dev, &opts))));
}

/// The implicit kd-tree row: the generic six-kernel sweep cannot run on an
/// index with no bounding volumes, so the family gets exactly the kernel it
/// exists for — the Wald stack-free kNN.
fn bench_kdtree(
    rows: &mut Vec<Row>,
    workload: &'static str,
    dims: usize,
    tree: &LbKdTree,
    queries: &PointSet,
    build_ms: f64,
) {
    let dev = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let (qps, p50, p99, p999) =
        measure(queries, |q| drop(stackfree_query(tree, q, K, &dev, &opts)));
    rows.push(Row {
        workload,
        dims,
        index: "kdtree",
        kernel: "stackfree",
        build_ms,
        queries: queries.len(),
        qps,
        p50_us: p50,
        p99_us: p99,
        p999_us: p999,
    });
}

/// The memory section: every family's index footprint beside the raw point
/// array on the headline workload. All deterministic model outputs — the
/// arenas and the implicit layout are sized by construction, not measured.
struct MemoryRow {
    index: &'static str,
    index_bytes: u64,
}

struct Memory {
    points_bytes: u64,
    rows: Vec<MemoryRow>,
}

struct Workload {
    name: &'static str,
    dims: usize,
    points: PointSet,
    queries: PointSet,
}

fn workloads(cfg: &Config) -> Vec<Workload> {
    let (n, nq) = if cfg.smoke { (1200, 8) } else { ((20_000.0 * cfg.scale) as usize, BATCH) };
    let n = n.max(256);
    let dims_list: &[usize] = if cfg.smoke { &[16] } else { &[4, 16] };
    let mut out = Vec::new();
    for &dims in dims_list {
        let uni = UniformSpec { len: n, dims, seed: cfg.seed }.generate();
        let uni_q = sample_queries(&uni, nq, 0.01, cfg.seed ^ q_marker());
        out.push(Workload { name: "uniform", dims, points: uni, queries: uni_q });
        let gauss = ClusteredSpec {
            clusters: 10,
            points_per_cluster: n / 10,
            dims,
            sigma: 150.0,
            seed: cfg.seed + 1,
        }
        .generate();
        let gauss_q = sample_queries(&gauss, nq, 0.01, cfg.seed ^ q_marker());
        out.push(Workload { name: "gaussian", dims, points: gauss, queries: gauss_q });
    }
    out
}

const fn q_marker() -> u64 {
    0x51
}

/// Queries/sec of PSB on an SS-tree for one layout of the same dataset.
/// Best-of-3 passes: the speedup ratio is about steady-state layout cost, so
/// each layout gets its least-noisy pass.
fn headline_qps(tree: &psb_sstree::SsTree, queries: &PointSet) -> f64 {
    let dev = DeviceConfig::k40();
    let opts = KernelOptions::default();
    (0..3)
        .map(|_| measure(queries, |q| drop(psb_query(tree, q, K, &dev, &opts))).0)
        .fold(0.0, f64::max)
}

/// The throughput section: batch-engine wall clock on the headline workload
/// (PSB / SS-tree / 16-dim uniform), submission order vs the Hilbert-scheduled
/// throughput engine, plus the fusion row on a low-fanout (degree-8) tree.
struct Throughput {
    batch_size: usize,
    unscheduled_qps: f64,
    scheduled_qps: f64,
    fused_qps: f64,
    warp_eff_unfused: f64,
    warp_eff_fused: f64,
}

/// Best-of-3 whole-batch queries/sec through the batch engine.
fn batch_qps<T: GpuIndex>(tree: &T, queries: &PointSet, opts: &KernelOptions) -> f64 {
    let dev = DeviceConfig::k40();
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t = Instant::now();
        let r = psb_batch(tree, queries, K, &dev, opts);
        let dt = t.elapsed().as_secs_f64();
        assert!(r.is_ok(), "batch engine failed on a trusted tree");
        best = best.max(queries.len() as f64 / dt.max(1e-12));
    }
    best
}

fn throughput_section(points: &PointSet, seed: u64) -> Throughput {
    let dev = DeviceConfig::k40();
    let queries = sample_queries(points, BATCH, 0.01, seed ^ q_marker() ^ 0xB47C);
    let tree = build(points, 16, &BuildMethod::Hilbert);
    let base = KernelOptions::default();
    let sched = KernelOptions { schedule: QuerySchedule::Hilbert, ..Default::default() };
    let unscheduled_qps = batch_qps(&tree, &queries, &base);
    let scheduled_qps = batch_qps(&tree, &queries, &sched);

    // Fusion row: a degree-8 tree (fanout far below the warp width) with four
    // queries per block. Warp efficiency is a *model* output — deterministic —
    // so the before/after pair is asserted by the smoke gate, not just logged.
    let low_fanout = build(points, 8, &BuildMethod::Hilbert);
    let fused_opts =
        KernelOptions { fuse: 4, schedule: QuerySchedule::Hilbert, ..Default::default() };
    let eff = |opts: &KernelOptions| match psb_batch(&low_fanout, &queries, K, &dev, opts) {
        Ok(r) => r.report.warp_efficiency,
        Err(_) => 0.0,
    };
    let warp_eff_unfused = eff(&base);
    let warp_eff_fused = eff(&fused_opts);
    let fused_qps = batch_qps(&low_fanout, &queries, &fused_opts);
    Throughput {
        batch_size: BATCH,
        unscheduled_qps,
        scheduled_qps,
        fused_qps,
        warp_eff_unfused,
        warp_eff_fused,
    }
}

/// The wave section: the headline batch through the buffer-wave node-centric
/// engine. `wave_qps` and `vs_scheduled_qps` are wall clock (best-of-3, same
/// tree and queries); the occupancy stats come from the engine's
/// [`WaveReport`](psb_core::WaveReport) and are deterministic model outputs.
struct Wave {
    batch_size: usize,
    wave_qps: f64,
    vs_scheduled_qps: f64,
    waves: u32,
    coalesced_sweeps: u64,
    buffered_entries: u64,
    mean_buffer_fill: f64,
    max_buffer_fill: u32,
}

fn wave_section(points: &PointSet, seed: u64) -> Wave {
    let dev = DeviceConfig::k40();
    // Same tree, queries, and schedule as the throughput section, so
    // `vs_scheduled_qps` is measured under identical conditions to
    // `scheduled_qps` — the wave/scheduled ratio is apples-to-apples.
    let queries = sample_queries(points, BATCH, 0.01, seed ^ q_marker() ^ 0xB47C);
    let tree = build(points, 16, &BuildMethod::Hilbert);
    let sched = KernelOptions { schedule: QuerySchedule::Hilbert, ..Default::default() };
    let wave_opts = KernelOptions { wave: Some(WaveConfig::default()), ..sched.clone() };
    // The smoke gate compares these two numbers directly, so they must be
    // robust to machine-state drift: interleave the passes (each pair sees
    // the same transient load) and take medians, not best-of — a single
    // lucky pass for either side must not decide the gate.
    let one_pass = |opts: &KernelOptions| {
        let t = Instant::now();
        let r = psb_batch(&tree, &queries, K, &dev, opts);
        assert!(r.is_ok(), "batch engine failed on a trusted tree");
        queries.len() as f64 / t.elapsed().as_secs_f64().max(1e-12)
    };
    let mut sched_runs = Vec::with_capacity(5);
    let mut wave_runs = Vec::with_capacity(5);
    for _ in 0..5 {
        sched_runs.push(one_pass(&sched));
        wave_runs.push(one_pass(&wave_opts));
    }
    let median = |runs: &mut Vec<f64>| {
        runs.sort_by(f64::total_cmp);
        runs[runs.len() / 2]
    };
    let vs_scheduled_qps = median(&mut sched_runs);
    let wave_qps = median(&mut wave_runs);
    let report = match wave_knn_batch(&tree, &queries, K, &dev, &wave_opts) {
        Ok((_, wr)) => wr,
        Err(_) => unreachable!("wave engine failed on a trusted tree"),
    };
    Wave {
        batch_size: BATCH,
        wave_qps,
        vs_scheduled_qps,
        waves: report.waves,
        coalesced_sweeps: report.coalesced_sweeps,
        buffered_entries: report.buffered_entries,
        mean_buffer_fill: report.mean_fill(),
        max_buffer_fill: report.max_fill,
    }
}

/// The fast-path section: the headline batch under the three fast-path
/// configurations. `metered_scalar_qps` is the all-reference floor (simulated
/// cost model + scalar distance loops), `simd_qps` is the default
/// configuration (metered + SIMD lanes), `metering_off_qps` is the full fast
/// path (`Metering::Off` + SIMD). Results are bit-identical across all three
/// (`tests/fastpath_parity.rs`), so this section measures nothing but the
/// cost of the accounting and the scalar loops.
struct FastPath {
    batch_size: usize,
    metered_scalar_qps: f64,
    simd_qps: f64,
    metering_off_qps: f64,
}

fn fast_path_section(points: &PointSet, seed: u64) -> FastPath {
    let dev = DeviceConfig::k40();
    // Same tree and queries as the throughput section: the combined speedup
    // is relative to the same headline workload every other section measures.
    let queries = sample_queries(points, BATCH, 0.01, seed ^ q_marker() ^ 0xB47C);
    let tree = build(points, 16, &BuildMethod::Hilbert);
    let scalar = KernelOptions { lanes: DistLanes::Scalar, ..Default::default() };
    let simd = KernelOptions::default();
    let off = KernelOptions { metering: Metering::Off, ..Default::default() };
    // The smoke gate compares these numbers directly, so they must be robust
    // to machine-state drift: interleave the passes and take medians (see
    // `wave_section` for the rationale).
    let one_pass = |opts: &KernelOptions| {
        let t = Instant::now();
        let r = psb_batch(&tree, &queries, K, &dev, opts);
        assert!(r.is_ok(), "batch engine failed on a trusted tree");
        queries.len() as f64 / t.elapsed().as_secs_f64().max(1e-12)
    };
    let mut scalar_runs = Vec::with_capacity(5);
    let mut simd_runs = Vec::with_capacity(5);
    let mut off_runs = Vec::with_capacity(5);
    for _ in 0..5 {
        scalar_runs.push(one_pass(&scalar));
        simd_runs.push(one_pass(&simd));
        off_runs.push(one_pass(&off));
    }
    let median = |runs: &mut Vec<f64>| {
        runs.sort_by(f64::total_cmp);
        runs[runs.len() / 2]
    };
    FastPath {
        batch_size: BATCH,
        metered_scalar_qps: median(&mut scalar_runs),
        simd_qps: median(&mut simd_runs),
        metering_off_qps: median(&mut off_runs),
    }
}

/// One row of the sharded-serving sweep: the 16-dim uniform headline workload
/// served through a [`ShardRouter`] at shard count `shards`.
struct ShardRow {
    shards: usize,
    qps: f64,
    prune_rate: f64,
    /// Merged `nodes_visited` of one served batch: per-shard kernel nodes plus
    /// one router directory "node" per visited shard.
    nodes_visited: u64,
}

/// Serves the batch at S ∈ {1, 2, 4, 8} shards over the same dataset and
/// queries. Wall clock is best-of-3; pruning and node counts are model
/// outputs, deterministic across passes.
fn sharding_section(points: &PointSet, seed: u64) -> Vec<ShardRow> {
    let dev = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let queries = sample_queries(points, BATCH, 0.01, seed ^ q_marker() ^ 0x5A4D);
    [1usize, 2, 4, 8]
        .iter()
        .map(|&shards| {
            let mut router = ShardRouter::build(points, &ServeConfig::new(shards), &dev, |ps| {
                build(ps, 16, &BuildMethod::Hilbert)
            });
            let mut best = 0.0f64;
            let mut result = None;
            for _ in 0..3 {
                let t = Instant::now();
                let r = router.serve_batch(&queries, K, &opts);
                let dt = t.elapsed().as_secs_f64();
                assert!(r.is_ok(), "shard router failed on a fault-free batch");
                best = best.max(queries.len() as f64 / dt.max(1e-12));
                result = r.ok();
            }
            let result = result.unwrap_or_else(|| unreachable!("three passes ran"));
            ShardRow {
                shards,
                qps: best,
                prune_rate: result.report.prune_rate(),
                nodes_visited: result.report.launch.merged.nodes_visited,
            }
        })
        .collect()
}

/// The serving section: the headline workload pushed through the resilience
/// front-end under deterministic pressure, with the outcome mix recorded.
struct Serving {
    batch_size: usize,
    shards: usize,
    qps: f64,
    clean: u64,
    retried: u64,
    degraded: u64,
    deadline_degraded: u64,
    rejected: u64,
    cache_hits: u64,
}

/// One fresh front-end, one batch. The pressure is all deterministic — cycle
/// deadlines (model output, not wall clock), logical-tick token buckets, a
/// seeded fault plan — so the outcome *mix* is bit-stable across machines and
/// runs; only `qps` is wall clock. The stream is Zipf-skewed so the exact-
/// result cache actually hits.
fn serving_section(points: &PointSet, seed: u64) -> Serving {
    let dev = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let shards = 4usize;
    let queries = SkewedQuerySpec {
        count: BATCH,
        distinct: BATCH / 4,
        zipf_s: 0.9,
        hotspots: 4,
        hot_fraction: 0.25,
        jitter: 0.005,
        seed: seed ^ q_marker() ^ 0x5E12,
    }
    .generate(points);
    let mut router = ShardRouter::build(points, &ServeConfig::new(shards), &dev, |ps| {
        build(ps, 16, &BuildMethod::Hilbert)
    });
    // One faulted single-replica shard: the ladder exhausts to the exact
    // brute scan, so every cache-missing visit to it resolves Degraded — the
    // mix exercises the recovery ladder, not just the happy path.
    router.set_fault_plan(0, 0, FaultPlan::truncation(1));
    let mut front = ResilientRouter::new(
        router,
        ResilienceConfig { cache_capacity: 64, ..ResilienceConfig::default() },
    );
    // Tenant 9 (every fourth request) is metered to a burst with no refill:
    // its tail of the batch sheds with typed rejections.
    front.set_quota(9, QuotaConfig { burst: 6, refill_per_tick: 0 });
    let requests: Vec<RequestMeta> = (0..queries.len())
        .map(|i| {
            let mut m = RequestMeta::tenant(if i % 4 == 0 { 9 } else { 1 });
            if i % 3 == 0 {
                // Blows after the first shard visit: the marked-degrade path.
                m = m.with_deadline(DeadlineBudget::Cycles(1));
            }
            m
        })
        .collect();
    let t = Instant::now();
    let out = front.serve_batch(&queries, K, &opts, &requests);
    let dt = t.elapsed().as_secs_f64();
    assert!(out.is_ok(), "serving replay failed on a trusted layout");
    let out = out.unwrap_or_else(|_| unreachable!("asserted ok"));
    let tally = out.tally();
    assert_eq!(tally.total(), queries.len() as u64, "outcome buckets must cover the batch");
    Serving {
        batch_size: queries.len(),
        shards,
        qps: queries.len() as f64 / dt.max(1e-12),
        clean: tally.clean,
        retried: tally.retried,
        degraded: tally.degraded,
        deadline_degraded: tally.deadline_degraded,
        rejected: tally.rejected,
        cache_hits: out.resilience.cache_hits,
    }
}

/// Instrumented replay of the headline workload with a live registry: one
/// Hilbert-scheduled PSB batch through the engine (populates the
/// `engine/psb/...` span tree and the per-kernel simulator gauges) plus one
/// 4-shard served batch (populates the `serve.*` counters and latency
/// histograms). Returns the registry's JSON snapshot for embedding; when
/// `prom_out` is set, also writes the Prometheus dump plus span tree there.
///
/// This runs after every timed section — the measured rows all use the
/// detached no-op handle, so attaching here cannot perturb them.
fn metrics_section(points: &PointSet, seed: u64, prom_out: Option<&str>) -> String {
    let dev = DeviceConfig::k40();
    let reg = Registry::new();
    let opts = KernelOptions {
        metrics: MetricsHandle::attached(&reg),
        schedule: QuerySchedule::Hilbert,
        ..Default::default()
    };
    let queries = sample_queries(points, BATCH, 0.01, seed ^ q_marker() ^ 0x3E7);
    let tree = build(points, 16, &BuildMethod::Hilbert);
    assert!(
        psb_batch(&tree, &queries, K, &dev, &opts).is_ok(),
        "metrics replay failed on a trusted tree"
    );
    let mut router = ShardRouter::build(points, &ServeConfig::new(4), &dev, |ps| {
        build(ps, 16, &BuildMethod::Hilbert)
    });
    router.attach_metrics(MetricsHandle::attached(&reg));
    assert!(
        router.serve_batch(&queries, K, &opts).is_ok(),
        "metrics replay failed on a fault-free serve"
    );
    let snap = reg.snapshot();
    if let Some(path) = prom_out {
        let text = format!("{}\n{}", render_prometheus(&snap), render_span_tree(&snap));
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write --metrics {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
    render_json(&snap)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[allow(clippy::too_many_arguments)]
fn emit_json(
    cfg: &Config,
    rows: &[Row],
    speedup: Option<f64>,
    tp: Option<&Throughput>,
    wave: Option<&Wave>,
    fast_path: Option<&FastPath>,
    memory: Option<&Memory>,
    sharding: &[ShardRow],
    serving: Option<&Serving>,
    metrics_json: Option<&str>,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": \"{}\",", json_escape(SCHEMA));
    let _ = writeln!(s, "  \"scale\": {},", cfg.scale);
    let _ = writeln!(s, "  \"layout\": \"{}\",", if cfg.legacy { "legacy" } else { "arena" });
    let _ = writeln!(s, "  \"k\": {K},");
    let _ = writeln!(s, "  \"batch_size\": {BATCH},");
    let _ = writeln!(s, "  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"workload\": \"{}\", \"dims\": {}, \"index\": \"{}\", \"kernel\": \"{}\", \
             \"build_ms\": {:.3}, \"queries\": {}, \"qps\": {:.3}, \"p50_us\": {:.3}, \
             \"p99_us\": {:.3}, \"p999_us\": {:.3}}}{}",
            r.workload,
            r.dims,
            r.index,
            r.kernel,
            r.build_ms,
            r.queries,
            r.qps,
            r.p50_us,
            r.p99_us,
            r.p999_us,
            comma
        );
    }
    let _ = write!(s, "  ]");
    if let Some(sp) = speedup {
        let _ = write!(s, ",\n  \"speedup_vs_legacy\": {sp:.4}");
    }
    if let Some(t) = tp {
        let _ = write!(
            s,
            ",\n  \"throughput\": {{\n    \"workload\": \"uniform-16d/sstree/psb\", \
             \"batch_size\": {}, \"unscheduled_qps\": {:.3}, \"scheduled_qps\": {:.3}, \
             \"scheduled_speedup\": {:.4}, \"fused\": {{\"degree\": 8, \"fuse\": 4, \
             \"qps\": {:.3}, \"warp_efficiency_unfused\": {:.4}, \
             \"warp_efficiency_fused\": {:.4}}}\n  }}",
            t.batch_size,
            t.unscheduled_qps,
            t.scheduled_qps,
            t.scheduled_qps / t.unscheduled_qps.max(1e-12),
            t.fused_qps,
            t.warp_eff_unfused,
            t.warp_eff_fused,
        );
    }
    if let Some(w) = wave {
        // Every comparable field lives on a single line: `bench compare`
        // re-extracts the wave section line-oriented, keyed on `wave_qps`.
        let _ = write!(
            s,
            ",\n  \"wave\": {{\n    \"workload\": \"uniform-16d/sstree/psb\", \
             \"batch_size\": {}, \"wave_qps\": {:.3}, \"vs_scheduled_qps\": {:.3}, \
             \"wave_speedup\": {:.4}, \"waves\": {}, \"coalesced_sweeps\": {}, \
             \"buffered_entries\": {}, \"mean_buffer_fill\": {:.4}, \
             \"max_buffer_fill\": {}\n  }}",
            w.batch_size,
            w.wave_qps,
            w.vs_scheduled_qps,
            w.wave_qps / w.vs_scheduled_qps.max(1e-12),
            w.waves,
            w.coalesced_sweeps,
            w.buffered_entries,
            w.mean_buffer_fill,
            w.max_buffer_fill,
        );
    }
    if let Some(fp) = fast_path {
        // Every comparable field lives on a single line: `bench compare`
        // re-extracts the section line-oriented, keyed on `metering_off_qps`
        // and `combined_speedup` appearing together.
        let _ = write!(
            s,
            ",\n  \"fast_path\": {{\n    \"workload\": \"uniform-16d/sstree/psb\", \
             \"batch_size\": {}, \"metered_scalar_qps\": {:.3}, \"simd_qps\": {:.3}, \
             \"metering_off_qps\": {:.3}, \"combined_speedup\": {:.4}\n  }}",
            fp.batch_size,
            fp.metered_scalar_qps,
            fp.simd_qps,
            fp.metering_off_qps,
            fp.metering_off_qps / fp.metered_scalar_qps.max(1e-12),
        );
    }
    if let Some(m) = memory {
        // One row per line, each carrying `index` + `index_bytes` +
        // `points_bytes`: `bench compare` re-extracts the section
        // line-oriented, keyed on `index_bytes` (no other line has it).
        let _ = write!(s, ",\n  \"memory\": {{\n    \"workload\": \"uniform-16d\", \"rows\": [");
        for (i, r) in m.rows.iter().enumerate() {
            let comma = if i + 1 == m.rows.len() { "" } else { "," };
            let _ = write!(
                s,
                "\n      {{\"index\": \"{}\", \"index_bytes\": {}, \"points_bytes\": {}}}{}",
                r.index, r.index_bytes, m.points_bytes, comma
            );
        }
        let _ = write!(s, "\n    ]\n  }}");
    }
    if !sharding.is_empty() {
        let _ = write!(
            s,
            ",\n  \"sharding\": {{\n    \"workload\": \"uniform-16d/sstree/psb\", \
             \"batch_size\": {BATCH}, \"rows\": ["
        );
        for (i, r) in sharding.iter().enumerate() {
            let comma = if i + 1 == sharding.len() { "" } else { "," };
            let _ = write!(
                s,
                "\n      {{\"shards\": {}, \"qps\": {:.3}, \"prune_rate\": {:.4}, \
                 \"nodes_visited\": {}}}{}",
                r.shards, r.qps, r.prune_rate, r.nodes_visited, comma
            );
        }
        let _ = write!(s, "\n    ]\n  }}");
    }
    if let Some(sv) = serving {
        // The outcome mix lives on a single line: `bench compare` re-extracts
        // the fractions line-oriented, like the result rows.
        let n = (sv.batch_size as f64).max(1.0);
        let _ = write!(
            s,
            ",\n  \"serving\": {{\n    \"workload\": \"uniform-16d/sstree/psb\", \
             \"batch_size\": {}, \"shards\": {}, \"qps\": {:.3}, \"cache_hit_frac\": {:.4},\n    \
             \"outcome_mix\": {{\"clean_frac\": {:.4}, \"retried_frac\": {:.4}, \
             \"degraded_frac\": {:.4}, \"deadline_degraded_frac\": {:.4}, \
             \"rejected_frac\": {:.4}}}\n  }}",
            sv.batch_size,
            sv.shards,
            sv.qps,
            sv.cache_hits as f64 / n,
            sv.clean as f64 / n,
            sv.retried as f64 / n,
            sv.degraded as f64 / n,
            sv.deadline_degraded as f64 / n,
            sv.rejected as f64 / n,
        );
    }
    if let Some(mj) = metrics_json {
        // The registry snapshot is already a JSON object; re-indent its lines
        // two spaces so the embedded section reads like the rest of the file.
        let _ = write!(s, ",\n  \"metrics\": ");
        for (i, line) in mj.trim_end().lines().enumerate() {
            if i == 0 {
                s.push_str(line);
            } else {
                let _ = write!(s, "\n  {line}");
            }
        }
    }
    let _ = writeln!(s, "\n}}");
    s
}

/// Minimal schema check for the smoke stage: every required key exists and
/// every numeric field the harness promises is finite and nonzero.
fn validate(json: &str, expect_speedup: bool) -> Result<(), String> {
    for key in [
        "\"schema\"",
        "\"scale\"",
        "\"layout\"",
        "\"batch_size\"",
        "\"results\"",
        "\"qps\"",
        "\"p50_us\"",
        "\"p99_us\"",
        "\"p999_us\"",
        "\"build_ms\"",
        "\"queries\"",
        "\"stackfree\"",
    ] {
        if !json.contains(key) {
            return Err(format!("missing required key {key}"));
        }
    }
    if expect_speedup {
        for key in [
            "\"speedup_vs_legacy\"",
            "\"throughput\"",
            "\"scheduled_speedup\"",
            "\"sharding\"",
            "\"prune_rate\"",
            "\"nodes_visited\"",
            "\"serving\"",
            "\"outcome_mix\"",
            "\"clean_frac\"",
            "\"rejected_frac\"",
            "\"wave\"",
            "\"wave_qps\"",
            "\"vs_scheduled_qps\"",
            "\"mean_buffer_fill\"",
            "\"fast_path\"",
            "\"metered_scalar_qps\"",
            "\"metering_off_qps\"",
            "\"combined_speedup\"",
            "\"memory\"",
            "\"index_bytes\"",
            "\"points_bytes\"",
            "\"metrics\"",
            "\"counters\"",
            "\"histograms\"",
            "\"spans\"",
        ] {
            if !json.contains(key) {
                return Err(format!("missing required key {key}"));
            }
        }
    }
    // Pull every `"qps": N` style numeric field and require finite, nonzero.
    for field in [
        "qps",
        "p50_us",
        "p99_us",
        "p999_us",
        "speedup_vs_legacy",
        "unscheduled_qps",
        "scheduled_qps",
        "scheduled_speedup",
        "warp_efficiency_unfused",
        "warp_efficiency_fused",
        "wave_qps",
        "vs_scheduled_qps",
        "wave_speedup",
        "mean_buffer_fill",
        "metered_scalar_qps",
        "simd_qps",
        "metering_off_qps",
        "combined_speedup",
        "index_bytes",
        "points_bytes",
    ] {
        let pat = format!("\"{field}\": ");
        let mut rest = json;
        while let Some(pos) = rest.find(&pat) {
            rest = &rest[pos + pat.len()..];
            let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
            let v: f64 =
                rest[..end].trim().parse().map_err(|e| format!("unparsable {field}: {e}"))?;
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{field} = {v} is not finite/positive"));
            }
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        run_compare(&args[1..]);
    }
    let cfg = parse_args(&args);
    let mut rows: Vec<Row> = Vec::new();
    let mut headline: Option<(f64, f64)> = None; // (arena_qps, legacy_qps)
    let mut throughput: Option<Throughput> = None;
    let mut wave: Option<Wave> = None;
    let mut fast_path: Option<FastPath> = None;
    let mut memory: Option<Memory> = None;
    let mut sharding: Vec<ShardRow> = Vec::new();
    let mut serving: Option<Serving> = None;
    let mut metrics_json: Option<String> = None;

    for w in workloads(&cfg) {
        eprintln!("workload {} dims {} ({} points)...", w.name, w.dims, w.points.len());
        let t = Instant::now();
        let mut sstree = build(&w.points, 16, &BuildMethod::Hilbert);
        let ss_build_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let mut rtree = build_rtree(&w.points, 16, &RtreeBuildMethod::Hilbert);
        let rt_build_ms = t.elapsed().as_secs_f64() * 1e3;
        if cfg.legacy {
            sstree.strip_arena();
            rtree.strip_arena();
        }
        bench_index(
            &mut rows,
            w.name,
            w.dims,
            "sstree",
            &sstree,
            &w.points,
            &w.queries,
            ss_build_ms,
        );
        bench_index(&mut rows, w.name, w.dims, "rtree", &rtree, &w.points, &w.queries, rt_build_ms);
        // The implicit kd-tree has no legacy layout to strip — it *is* the
        // point array — so its row is identical under --legacy-layout.
        let t = Instant::now();
        let kdtree = LbKdTree::build(&w.points);
        let kd_build_ms = t.elapsed().as_secs_f64() * 1e3;
        bench_kdtree(&mut rows, w.name, w.dims, &kdtree, &w.queries, kd_build_ms);

        // Headline comparison: PSB / SS-tree / 16-dim uniform, arena vs
        // stripped, on the identical tree and query set.
        if !cfg.legacy && w.name == "uniform" && w.dims == 16 {
            memory = Some(Memory {
                points_bytes: w.points.len() as u64 * kdtree.point_entry_bytes(),
                rows: vec![
                    MemoryRow { index: "sstree", index_bytes: sstree.index_bytes() },
                    MemoryRow { index: "rtree", index_bytes: rtree.index_bytes() },
                    MemoryRow { index: "kdtree", index_bytes: kdtree.index_bytes() },
                ],
            });
            let arena_qps = headline_qps(&sstree, &w.queries);
            let mut stripped = sstree.clone();
            stripped.strip_arena();
            let legacy_qps = headline_qps(&stripped, &w.queries);
            headline = Some((arena_qps, legacy_qps));
            throughput = Some(throughput_section(&w.points, cfg.seed));
            wave = Some(wave_section(&w.points, cfg.seed));
            fast_path = Some(fast_path_section(&w.points, cfg.seed));
            sharding = sharding_section(&w.points, cfg.seed);
            serving = Some(serving_section(&w.points, cfg.seed));
            metrics_json = Some(metrics_section(&w.points, cfg.seed, cfg.metrics.as_deref()));
        }
    }

    let speedup = headline.map(|(a, l)| a / l.max(1e-12));
    if let Some((a, l)) = headline {
        eprintln!("headline psb/sstree/uniform-16d: arena {a:.1} qps vs legacy {l:.1} qps");
    }
    if let Some(t) = &throughput {
        eprintln!(
            "throughput psb/sstree/uniform-16d ({} queries/batch): unscheduled {:.1} qps, \
             scheduled {:.1} qps ({:.2}x); fused(deg-8, F=4) {:.1} qps, warp eff {:.3} -> {:.3}",
            t.batch_size,
            t.unscheduled_qps,
            t.scheduled_qps,
            t.scheduled_qps / t.unscheduled_qps.max(1e-12),
            t.fused_qps,
            t.warp_eff_unfused,
            t.warp_eff_fused,
        );
    }
    if let Some(w) = &wave {
        eprintln!(
            "wave psb/sstree/uniform-16d ({} queries/batch): {:.1} qps vs scheduled {:.1} qps \
             ({:.2}x); {} waves, {} coalesced sweeps, mean fill {:.1} (max {})",
            w.batch_size,
            w.wave_qps,
            w.vs_scheduled_qps,
            w.wave_qps / w.vs_scheduled_qps.max(1e-12),
            w.waves,
            w.coalesced_sweeps,
            w.mean_buffer_fill,
            w.max_buffer_fill,
        );
    }
    if let Some(fp) = &fast_path {
        eprintln!(
            "fast path psb/sstree/uniform-16d ({} queries/batch): metered scalar {:.1} qps, \
             simd {:.1} qps, metering off {:.1} qps ({:.2}x combined)",
            fp.batch_size,
            fp.metered_scalar_qps,
            fp.simd_qps,
            fp.metering_off_qps,
            fp.metering_off_qps / fp.metered_scalar_qps.max(1e-12),
        );
    }
    if let Some(m) = &memory {
        for r in &m.rows {
            eprintln!(
                "memory {}: index {} bytes vs points {} bytes ({:.3}x)",
                r.index,
                r.index_bytes,
                m.points_bytes,
                r.index_bytes as f64 / m.points_bytes.max(1) as f64
            );
        }
    }
    for r in &sharding {
        eprintln!(
            "sharding S={}: {:.1} qps, prune rate {:.3}, {} nodes visited",
            r.shards, r.qps, r.prune_rate, r.nodes_visited
        );
    }
    if let Some(sv) = &serving {
        eprintln!(
            "serving S={} ({} queries/batch): {:.1} qps, mix clean {} retried {} degraded {} \
             deadline {} rejected {}, {} cache hits",
            sv.shards,
            sv.batch_size,
            sv.qps,
            sv.clean,
            sv.retried,
            sv.degraded,
            sv.deadline_degraded,
            sv.rejected,
            sv.cache_hits,
        );
    }
    let json = emit_json(
        &cfg,
        &rows,
        speedup,
        throughput.as_ref(),
        wave.as_ref(),
        fast_path.as_ref(),
        memory.as_ref(),
        &sharding,
        serving.as_ref(),
        metrics_json.as_deref(),
    );
    if let Err(e) = std::fs::write(&cfg.out, &json) {
        eprintln!("cannot write {}: {e}", cfg.out);
        std::process::exit(1);
    }
    eprintln!("wrote {}", cfg.out);

    if cfg.smoke {
        match validate(&json, !cfg.legacy) {
            Ok(()) => eprintln!("smoke: schema OK ({} result rows)", rows.len()),
            Err(e) => {
                eprintln!("smoke: schema check FAILED: {e}");
                std::process::exit(1);
            }
        }
        // Throughput gate: fusion must raise modeled warp efficiency on the
        // low-fanout tree (a deterministic model output). The scheduled and
        // unscheduled rows run the same kernel and differ by the Hilbert sort
        // alone, so their order is reported, not gated.
        if let Some(t) = &throughput {
            if t.warp_eff_fused <= t.warp_eff_unfused {
                eprintln!(
                    "smoke: FUSION REGRESSION: fused warp efficiency {:.4} <= unfused {:.4}",
                    t.warp_eff_fused, t.warp_eff_unfused
                );
                std::process::exit(1);
            }
        }
        // Wave gate: the buffer-wave engine exists to beat the scheduled
        // per-query engine on massive batches — one coalesced sweep per
        // buffered node instead of one traversal per query. If it falls
        // behind on the headline 240-query batch, the amortization broke.
        // The occupancy check is a deterministic model output: buffers that
        // never hold more than one query amortize nothing.
        if let Some(w) = &wave {
            if w.wave_qps < w.vs_scheduled_qps {
                eprintln!(
                    "smoke: WAVE REGRESSION: wave {:.1} qps < scheduled {:.1} qps",
                    w.wave_qps, w.vs_scheduled_qps
                );
                std::process::exit(1);
            }
            if w.mean_buffer_fill <= 1.0 {
                eprintln!(
                    "smoke: WAVE REGRESSION: mean buffer fill {:.2} amortizes nothing",
                    w.mean_buffer_fill
                );
                std::process::exit(1);
            }
        }
        // Fast-path gate: Metering::Off exists to be free throughput on top
        // of the default configuration — same results, no accounting. If the
        // unmetered run falls behind the metered default, the
        // monomorphization stopped compiling the accounting out.
        if let Some(fp) = &fast_path {
            if fp.metering_off_qps < fp.simd_qps {
                eprintln!(
                    "smoke: FAST PATH REGRESSION: metering off {:.1} qps < default {:.1} qps",
                    fp.metering_off_qps, fp.simd_qps
                );
                std::process::exit(1);
            }
        }
        // Memory gate: the implicit kd-tree's whole pitch is "the index is
        // the point array". Its footprint is a deterministic model output:
        // anything beyond the points plus a constant header means the family
        // silently grew per-node state.
        if let Some(m) = &memory {
            if let Some(kd) = m.rows.iter().find(|r| r.index == "kdtree") {
                if kd.index_bytes > m.points_bytes + 64 {
                    eprintln!(
                        "smoke: MEMORY REGRESSION: kdtree {} bytes > points {} bytes + 64",
                        kd.index_bytes, m.points_bytes
                    );
                    std::process::exit(1);
                }
            }
        }
        // Serving gate: the pressured replay must actually exercise the
        // resilience paths — all three are deterministic model outputs, so a
        // zero means the front-end silently stopped shedding, degrading, or
        // caching, not a slow machine.
        if let Some(sv) = &serving {
            if sv.rejected == 0 || sv.deadline_degraded == 0 || sv.cache_hits == 0 {
                eprintln!(
                    "smoke: SERVING REGRESSION: pressured mix must shed/degrade/cache \
                     (rejected {}, deadline_degraded {}, cache_hits {})",
                    sv.rejected, sv.deadline_degraded, sv.cache_hits
                );
                std::process::exit(1);
            }
        }
        // Sharding gate: the router's MINDIST pruning must make sharded
        // serving cheaper than paying the single-device node bill S times
        // over. Node counts are deterministic model outputs.
        if let Some(base) = sharding.iter().find(|r| r.shards == 1) {
            for r in sharding.iter().filter(|r| r.shards > 1) {
                if r.nodes_visited >= r.shards as u64 * base.nodes_visited {
                    eprintln!(
                        "smoke: SHARDING REGRESSION: S={} visited {} nodes >= {} x S=1 ({})",
                        r.shards, r.nodes_visited, r.shards, base.nodes_visited
                    );
                    std::process::exit(1);
                }
            }
        }
    }
}
