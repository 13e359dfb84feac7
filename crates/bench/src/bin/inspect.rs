//! Per-engine counter breakdown on a configurable workload — the debugging /
//! analysis companion to the `figures` binary.
//!
//! ```text
//! cargo run --release -p psb-bench --bin inspect -- \
//!     --dims 16 --sigma 160 --degree 128 --points 100000 --k 32 --queries 24
//! ```
//!
//! Prints, for every engine in the workspace, the raw simulator counters that
//! feed the cost model: node visits, bytes, transactions (and how many were
//! streaming), issue counts, warp efficiency, shared-memory peak, and the
//! modeled response time — followed by the per-phase breakdown (descend /
//! leaf-scan / backtrack / result-merge) for PSB vs branch-and-bound.
//!
//! Tracing:
//!
//! * `--record trace.jsonl` additionally re-runs the PSB and branch-and-bound
//!   engines with a recording [`psb_gpu::JsonlSink`] and writes every metering
//!   event to the file (labels `psb` / `bnb`).
//! * `--trace trace.jsonl` skips the simulation entirely and prints the
//!   offline [`psb_bench::trace_report`] for a previously recorded file.
//!
//! Fault injection:
//!
//! * `--inject SEED` re-runs PSB under a seeded bit-flip [`FaultPlan`] through
//!   the recovery ladder, prints the clean/retried/degraded split, and checks
//!   every recovered answer against the CPU linear-scan oracle.
//!
//! Metrics:
//!
//! * `inspect metrics [flags] [--out metrics.json]` runs the workload with a
//!   live [`psb_metrics::Registry`] attached (PSB + branch-and-bound through
//!   the batch engine, then a 4-shard [`psb_serve::ShardRouter`] serve) and
//!   prints the Prometheus text dump followed by the wall-clock span tree.
//!   `--out` additionally writes the JSON snapshot.

use std::fs::File;
use std::io::{BufReader, BufWriter};

use psb_bench::{load_trace, render_trace_report};
use psb_core::{
    bnb_batch, brute_batch, launch, psb_batch, resolve, restart_batch, stackfree_batch, tpss_batch,
    EngineError, ImplicitKdIndex, Kernel, KernelOptions, QueryBatchResult,
};
use psb_data::{sample_queries, ClusteredSpec};
use psb_geom::PointSet;
use psb_gpu::{launch_blocks, DeviceConfig, FaultPlan, JsonlSink, LaunchReport, Phase};
use psb_kdtree::{gpu::knn_task_parallel, KdTree, LbKdTree};
use psb_metrics::{render_json, render_prometheus, render_span_tree, MetricsHandle, Registry};
use psb_rtree::{build_rtree, RtreeBuildMethod};
use psb_serve::{ServeConfig, ShardRouter};
use psb_srtree::SrTree;
use psb_sstree::{build, BuildMethod};

struct Args {
    dims: usize,
    sigma: f32,
    degree: usize,
    points: usize,
    clusters: usize,
    k: usize,
    queries: usize,
    seed: u64,
    record: Option<String>,
    trace: Option<String>,
    inject: Option<u64>,
    metrics: bool,
    out: Option<String>,
}

fn parse() -> Args {
    let mut a = Args {
        dims: 16,
        sigma: 160.0,
        degree: 128,
        points: 100_000,
        clusters: 100,
        k: 32,
        queries: 24,
        seed: 0x2016,
        record: None,
        trace: None,
        inject: None,
        metrics: false,
        out: None,
    };
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("metrics") {
        a.metrics = true;
        argv.remove(0);
    }
    let mut i = 0;
    while i < argv.len() {
        let val = argv.get(i + 1).cloned().unwrap_or_default();
        match argv[i].as_str() {
            "--dims" => a.dims = val.parse().expect("--dims"),
            "--sigma" => a.sigma = val.parse().expect("--sigma"),
            "--degree" => a.degree = val.parse().expect("--degree"),
            "--points" => a.points = val.parse().expect("--points"),
            "--clusters" => a.clusters = val.parse().expect("--clusters"),
            "--k" => a.k = val.parse().expect("--k"),
            "--queries" => a.queries = val.parse().expect("--queries"),
            "--seed" => a.seed = val.parse().expect("--seed"),
            "--record" => a.record = Some(val),
            "--trace" => a.trace = Some(val),
            "--inject" => a.inject = Some(val.parse().expect("--inject")),
            "--out" => a.out = Some(val),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    a
}

/// Per-phase breakdown table for one engine's launch report.
fn show_phases(name: &str, report: &LaunchReport) {
    println!("  {name}:");
    for row in report.phase_breakdown() {
        if row.byte_share == 0.0 && row.warp_efficiency == 0.0 {
            continue;
        }
        println!(
            "    {:<13} eff {:>5.1}%   {:>8.3} MB/query ({:>5.1}% of bytes, {:>5.1}% streamed)",
            row.phase.name(),
            row.warp_efficiency * 100.0,
            row.avg_accessed_mb,
            row.byte_share * 100.0,
            row.stream_fraction * 100.0,
        );
    }
    let m = &report.merged;
    println!(
        "    {:<13} {} backtracks, occupancy {}..{} blocks/SM{}",
        "",
        m.backtracks,
        report.occupancy_min,
        report.occupancy_max,
        if m.phase_totals_consistent() { "" } else { "  [phase counters INCONSISTENT]" },
    );
}

/// `inspect metrics`: run the configured workload with a live registry and
/// render every exposition format the telemetry layer offers.
fn run_metrics(a: &Args) {
    let cfg = DeviceConfig::k40();
    let reg = Registry::new();
    let opts = KernelOptions { metrics: MetricsHandle::attached(&reg), ..Default::default() };
    let data: PointSet = ClusteredSpec {
        clusters: a.clusters,
        points_per_cluster: (a.points / a.clusters).max(1),
        dims: a.dims,
        sigma: a.sigma,
        seed: a.seed,
    }
    .generate();
    let tree = build(&data, a.degree, &BuildMethod::Hilbert);
    let queries = sample_queries(&data, a.queries, 0.01, a.seed ^ 1);
    println!(
        "workload: {} pts x {}d, degree={}, k={}, {} queries (registry attached)\n",
        data.len(),
        a.dims,
        a.degree,
        a.k,
        queries.len()
    );
    let run = |name: &str, r: Result<QueryBatchResult, EngineError>| {
        if let Err(e) = r {
            eprintln!("{name} batch failed: {e}");
            std::process::exit(1);
        }
    };
    run("psb", psb_batch(&tree, &queries, a.k, &cfg, &opts));
    run("bnb", bnb_batch(&tree, &queries, a.k, &cfg, &opts));
    let mut router = ShardRouter::build(&data, &ServeConfig::new(4), &cfg, |ps| {
        build(ps, a.degree, &BuildMethod::Hilbert)
    });
    router.attach_metrics(MetricsHandle::attached(&reg));
    match router.serve_batch(&queries, a.k, &opts) {
        Ok(_) => {}
        Err(e) => {
            eprintln!("serve batch failed: {e}");
            std::process::exit(1);
        }
    }
    let snap = reg.snapshot();
    println!("--- prometheus ---");
    print!("{}", render_prometheus(&snap));
    println!("\n--- span tree (wall clock) ---");
    print!("{}", render_span_tree(&snap));
    if let Some(path) = &a.out {
        if let Err(e) = std::fs::write(path, render_json(&snap)) {
            eprintln!("cannot write --out {path}: {e}");
            std::process::exit(1);
        }
        println!("\nwrote JSON snapshot to {path}");
    }
}

fn main() {
    let a = parse();
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();

    if let Some(path) = &a.trace {
        let loaded = File::open(path).and_then(|file| load_trace(BufReader::new(file)));
        let (summaries, skipped) = loaded.unwrap_or_else(|e| {
            eprintln!("--trace {path}: {e}");
            std::process::exit(1);
        });
        if skipped > 0 {
            eprintln!("{skipped} unparseable lines skipped");
        }
        if summaries.is_empty() {
            eprintln!("no trace events in {path}");
            std::process::exit(1);
        }
        print!("{}", render_trace_report(&summaries, a.degree));
        return;
    }

    if a.metrics {
        run_metrics(&a);
        return;
    }

    let data = ClusteredSpec {
        clusters: a.clusters,
        points_per_cluster: (a.points / a.clusters).max(1),
        dims: a.dims,
        sigma: a.sigma,
        seed: a.seed,
    }
    .generate();
    let tree = build(&data, a.degree, &BuildMethod::Hilbert);
    let queries = sample_queries(&data, a.queries, 0.01, a.seed ^ 1);
    let nq = queries.len() as u64;

    println!(
        "workload: {} pts x {}d, sigma={}, degree={}, k={}, {} queries",
        data.len(),
        a.dims,
        a.sigma,
        a.degree,
        a.k,
        a.queries
    );
    println!(
        "tree: {} nodes, {} leaves, height {}, leaf fill {:.0}%, index {:.1} MB",
        tree.num_nodes(),
        tree.num_leaves(),
        tree.height(),
        tree.leaf_utilization() * 100.0,
        tree.index_bytes() as f64 / (1024.0 * 1024.0)
    );

    // Index footprint for all three families on the same data (the implicit
    // kd-tree *is* the point array, plus a constant header).
    let rtree = build_rtree(&data, a.degree, &RtreeBuildMethod::Hilbert);
    let kd_lb = LbKdTree::build(&data);
    let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
    println!(
        "index bytes: sstree {:.2} MB, rtree {:.2} MB, implicit kdtree {:.2} MB \
         (points array {:.2} MB)\n",
        mb(tree.index_bytes()),
        mb(rtree.index_bytes()),
        mb(kd_lb.index_bytes()),
        mb(data.len() as u64 * kd_lb.point_entry_bytes()),
    );

    let table_kernel = Some(Kernel::Psb { k: a.k });
    println!("launch: {:?}\n", resolve(&opts, table_kernel, &FaultPlan::none(), false));
    println!(
        "{:<22} {:>9} {:>7} {:>10} {:>8} {:>8} {:>9} {:>8} {:>8}",
        "engine", "resp ms", "nodes", "KB/query", "trans", "stream", "issues", "eff %", "smem B"
    );
    let show = |name: &str, report: &psb_gpu::LaunchReport| {
        let m = &report.merged;
        println!(
            "{:<22} {:>9.4} {:>7} {:>10.1} {:>8} {:>8} {:>9} {:>7.1}% {:>8}",
            name,
            report.avg_response_ms,
            m.nodes_visited / nq,
            m.global_bytes as f64 / 1024.0 / nq as f64,
            m.global_transactions / nq,
            m.stream_transactions / nq,
            m.compute_issues / nq,
            report.warp_efficiency * 100.0,
            m.smem_peak_bytes
        );
    };

    let run = |name: &str, r: Result<QueryBatchResult, EngineError>| {
        r.unwrap_or_else(|e| {
            eprintln!("{name} batch failed: {e}");
            std::process::exit(1);
        })
    };
    let psb = run("psb", psb_batch(&tree, &queries, a.k, &cfg, &opts));
    let bnb = run("bnb", bnb_batch(&tree, &queries, a.k, &cfg, &opts));
    show("psb", &psb.report);
    show("branch-and-bound", &bnb.report);
    show("restart", &run("restart", restart_batch(&tree, &queries, a.k, &cfg, &opts)).report);
    show("brute-force", &run("brute", brute_batch(&data, &queries, a.k, &cfg, &opts)).report);

    let (_, tp_blocks) = tpss_batch(&tree, &queries, a.k, &cfg, 32);
    show("task-parallel sstree", &launch_blocks(&cfg, 1, &tp_blocks));

    let kd = KdTree::build(&data, 1); // minimal kd-tree (single-point leaves)
    let (_, kd_blocks) = knn_task_parallel(&kd, &queries, a.k, &cfg, 32);
    show("task-parallel kdtree", &launch_blocks(&cfg, 1, &kd_blocks));

    show(
        "stackfree kdtree",
        &run("stackfree", stackfree_batch(&kd_lb, &queries, a.k, &cfg, &opts)).report,
    );

    // Per-phase view of the paper's central comparison: where each traversal
    // spends its bytes and loses its lanes.
    println!("\nper-phase breakdown ({}):", Phase::ALL.map(|p| p.name()).join(" / "));
    show_phases("psb", &psb.report);
    show_phases("branch-and-bound", &bnb.report);

    // Fault-injection mode: re-run PSB under a seeded bit-flip plan through
    // the recovery ladder (retry once on a fresh fault substream, then degrade
    // to the exact brute-force fallback) and check every answer against the
    // CPU oracle.
    if let Some(seed) = a.inject {
        let plan = FaultPlan::bit_flips(seed, 1);
        let kernel = Kernel::Psb { k: a.k };
        println!("\nfault-injected launch: {:?}", resolve(&opts, Some(kernel), &plan, false));
        let faulty =
            run("fault-injected psb", launch(&tree, &queries, kernel, &cfg, &opts, &plan, None));
        let clean = faulty.outcomes.iter().filter(|o| o.is_clean()).count();
        println!(
            "fault injection (seed {seed}, {}‰ bit flips): {} clean, {} retried, {} degraded",
            plan.bit_flip_per_mille,
            clean,
            faulty.report.retried_queries,
            faulty.report.degraded_queries,
        );
        let mut wrong = 0usize;
        for (i, q) in queries.iter().enumerate() {
            let oracle = psb_sstree::linear_knn(&data, q, a.k);
            let got = &faulty.neighbors[i];
            if got.len() != oracle.len() || got.iter().zip(&oracle).any(|(g, o)| g.dist != o.dist) {
                wrong += 1;
            }
        }
        if wrong == 0 {
            println!("  all {} recovered answers match the CPU oracle exactly", queries.len());
        } else {
            println!("  WARNING: {wrong} of {} answers diverge from the CPU oracle", queries.len());
        }
    }

    if let Some(path) = &a.record {
        let file = File::create(path).unwrap_or_else(|e| {
            eprintln!("--record {path}: {e}");
            std::process::exit(1);
        });
        let writer = BufWriter::new(file);
        let (psb_kernel, bnb_kernel) = (Kernel::Psb { k: a.k }, Kernel::Bnb { k: a.k });
        let plan = FaultPlan::none();
        println!("\nrecording launch: {:?}", resolve(&opts, Some(psb_kernel), &plan, true));
        let mut sink = JsonlSink::new("psb", writer);
        let traced = run(
            "psb traced",
            launch(&tree, &queries, psb_kernel, &cfg, &opts, &plan, Some(&mut sink)),
        );
        assert_eq!(traced.report.merged, psb.report.merged, "tracing must not change counters");
        let mut sink = JsonlSink::new("bnb", sink.into_inner().expect("flush trace"));
        let traced = run(
            "bnb traced",
            launch(&tree, &queries, bnb_kernel, &cfg, &opts, &plan, Some(&mut sink)),
        );
        assert_eq!(traced.report.merged, bnb.report.merged, "tracing must not change counters");
        println!("recorded psb+bnb trace to {path} (inspect with --trace {path})");
    }

    // CPU baseline: real wall time.
    let sr = SrTree::build(&data, 8192);
    let t0 = std::time::Instant::now();
    let mut pages = 0u64;
    for q in queries.iter() {
        pages += sr.knn_with_points(&data, q, a.k).1.nodes_visited;
    }
    println!(
        "{:<22} {:>9.4} {:>7} {:>10.1}   (real CPU wall time; bytes = 8K pages)",
        "srtree (cpu)",
        t0.elapsed().as_secs_f64() * 1e3 / nq as f64,
        pages / nq,
        (pages * 8192) as f64 / 1024.0 / nq as f64,
    );
}
