//! One function per figure of the paper's evaluation section.
//!
//! Every function returns a [`Table`] whose rows mirror the figure's series.
//! GPU rows report the simulator's metrics (response time under the cost
//! model, accessed MB, warp efficiency); CPU rows (SR-tree) report measured
//! wall-clock time and page-based bytes, exactly like the paper's mixed
//! CPU/GPU comparison.

use psb_core::{EngineError, KernelOptions, QueryBatchResult};
use psb_data::{sample_queries, ClusteredSpec, NoaaSpec};
use psb_geom::PointSet;
use psb_gpu::{launch_blocks, DeviceConfig};
use psb_kdtree::{gpu::knn_task_parallel, KdTree};
use psb_rtree::{build_rtree, RtreeBuildMethod};
use psb_srtree::SrTree;
use psb_sstree::{build, build_topdown, BuildMethod, FlatTree, SsTree, Volumes};

use crate::{mean_wall_ms, Scale, Table};

/// The paper's default workload constants.
pub const PAPER_POINTS: usize = 1_000_000;
pub const PAPER_CLUSTERS: usize = 100;
pub const PAPER_K: usize = 32;
pub const PAPER_DEGREE: usize = 128;
pub const PAPER_PAGE_BYTES: usize = 8 * 1024;

// The figure workloads always submit non-empty query batches over trusted
// trees, so unwrap the engine's typed errors once here instead of at every
// call site.
fn expect_batch(r: Result<QueryBatchResult, EngineError>) -> QueryBatchResult {
    r.expect("figure workloads always submit a non-empty query batch")
}

fn psb_batch<V: Volumes>(
    tree: &FlatTree<V>,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> QueryBatchResult {
    expect_batch(psb_core::psb_batch(tree, queries, k, cfg, opts))
}

fn bnb_batch<V: Volumes>(
    tree: &FlatTree<V>,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> QueryBatchResult {
    expect_batch(psb_core::bnb_batch(tree, queries, k, cfg, opts))
}

fn restart_batch<V: Volumes>(
    tree: &FlatTree<V>,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> QueryBatchResult {
    expect_batch(psb_core::restart_batch(tree, queries, k, cfg, opts))
}

fn brute_batch(
    points: &PointSet,
    queries: &PointSet,
    k: usize,
    cfg: &DeviceConfig,
    opts: &KernelOptions,
) -> QueryBatchResult {
    expect_batch(psb_core::brute_batch(points, queries, k, cfg, opts))
}

/// Generates the paper's clustered dataset at this scale.
pub fn clustered(scale: &Scale, dims: usize, sigma: f32) -> PointSet {
    ClusteredSpec {
        clusters: PAPER_CLUSTERS,
        points_per_cluster: scale.points_per_cluster(PAPER_CLUSTERS, PAPER_POINTS),
        dims,
        sigma,
        seed: scale.seed,
    }
    .generate()
}

/// Fig. 3 — bottom-up SS-trees (Hilbert / k-means sweeps) vs the top-down
/// SR-tree on the CPU, branch-and-bound traversal everywhere, dims sweep.
pub fn fig3(scale: &Scale) -> Table {
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let mut t = Table::new(
        "Fig. 3 — construction methods (B&B traversal), dims sweep",
        "dims",
        &["response_ms", "accessed_mb"],
    );
    for dims in [4usize, 16, 64] {
        let ps = clustered(scale, dims, 160.0);
        let queries = sample_queries(&ps, scale.queries(), 0.01, scale.seed ^ 3);

        // Top-down SR-tree on the CPU: measured wall time + page bytes.
        let sr = SrTree::build(&ps, PAPER_PAGE_BYTES);
        let mut sr_bytes = 0u64;
        let ms = mean_wall_ms(&queries, |q| {
            let (_, st) = sr.knn(q, PAPER_K);
            sr_bytes += st.bytes;
        });
        t.push(
            "SR-tree (CPU, top-down)",
            dims,
            vec![ms, sr_bytes as f64 / (1024.0 * 1024.0) / queries.len() as f64],
        );

        // Bottom-up SS-trees on the GPU, all searched with branch-and-bound.
        let mut variants: Vec<(String, SsTree)> =
            vec![("SS-tree (Hilbert)".into(), build(&ps, PAPER_DEGREE, &BuildMethod::Hilbert))];
        for paper_k in [200usize, 400, 2000, 10000] {
            let k_leaf = scale.kmeans_k(paper_k);
            variants.push((
                format!("SS-tree (kmeans k={paper_k})"),
                build(&ps, PAPER_DEGREE, &BuildMethod::KMeans { k_leaf, seed: scale.seed }),
            ));
        }
        for (name, tree) in &variants {
            let r = bnb_batch(tree, &queries, PAPER_K, &cfg, &opts);
            t.push(name, dims, vec![r.report.avg_response_ms, r.report.avg_accessed_mb]);
        }
    }
    t
}

/// Fig. 4 — dataset projections (first two dimensions) as CSV files.
/// Returns the list of (label, csv) pairs instead of a metric table.
pub fn fig4(scale: &Scale) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for sigma in [2560.0f32, 640.0, 160.0, 40.0] {
        let ps = clustered(scale, 2, sigma);
        let rows: Vec<Vec<f64>> = (0..ps.len())
            .step_by((ps.len() / 5000).max(1))
            .map(|i| {
                let p = ps.point(i);
                vec![p[0] as f64, p[1] as f64]
            })
            .collect();
        out.push((format!("fig4_sigma{sigma}"), psb_data::csv::to_csv(&["x", "y"], &rows)));
    }
    let noaa = NoaaSpec {
        stations: 2_000,
        reports: scale.points(PAPER_POINTS).min(200_000),
        extra_dims: 0,
        seed: scale.seed,
    }
    .generate();
    let rows: Vec<Vec<f64>> = (0..noaa.len())
        .step_by((noaa.len() / 5000).max(1))
        .map(|i| {
            let p = noaa.point(i);
            vec![p[0] as f64, p[1] as f64]
        })
        .collect();
    out.push(("fig4_noaa".into(), psb_data::csv::to_csv(&["lon", "lat"], &rows)));
    out
}

/// Fig. 5 — PSB vs branch-and-bound while the cluster sigma sweeps the data
/// from tightly clustered to near-uniform (64-d, 100 clusters).
pub fn fig5(scale: &Scale) -> Table {
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let mut t = Table::new(
        "Fig. 5 — input distribution sweep (64-d)",
        "sigma",
        &["response_ms", "accessed_mb"],
    );
    for sigma in [10.0f32, 40.0, 160.0, 640.0, 2560.0, 10240.0] {
        let ps = clustered(scale, 64, sigma);
        let queries = sample_queries(&ps, scale.queries(), 0.01, scale.seed ^ 5);
        let tree = build(&ps, PAPER_DEGREE, &BuildMethod::Hilbert);
        let psb = psb_batch(&tree, &queries, PAPER_K, &cfg, &opts);
        let bnb = bnb_batch(&tree, &queries, PAPER_K, &cfg, &opts);
        t.push(
            "SS-tree (PSB)",
            sigma,
            vec![psb.report.avg_response_ms, psb.report.avg_accessed_mb],
        );
        t.push(
            "SS-tree (Branch&Bound)",
            sigma,
            vec![bnb.report.avg_response_ms, bnb.report.avg_accessed_mb],
        );
    }
    t
}

/// Fig. 6 — node degree sweep: data-parallel SS-tree (PSB) vs the
/// task-parallel binary kd-tree. Three metrics: warp efficiency, accessed
/// bytes, response time.
pub fn fig6(scale: &Scale) -> Table {
    let cfg = DeviceConfig::k40();
    let mut t = Table::new(
        "Fig. 6 — node degree sweep (64-d, sigma=160)",
        "degree",
        &["warp_eff_pct", "accessed_mb", "response_ms"],
    );
    let ps = clustered(scale, 64, 160.0);
    let queries = sample_queries(&ps, scale.queries(), 0.01, scale.seed ^ 6);

    // The kd-tree baseline is degree-independent: one row repeated per degree,
    // as in the paper's flat line.
    // The paper's comparator is Brown's "minimal kd-tree" (GTC 2010):
    // single-point leaves, so every lockstep step is a divergent node visit.
    let kd = KdTree::build(&ps, 1);
    let (_, kd_blocks) = knn_task_parallel(&kd, &queries, PAPER_K, &cfg, 32);
    let kd_report = launch_blocks(&cfg, 1, &kd_blocks);
    let kd_mb_per_query = kd_report.merged.accessed_mb() / queries.len() as f64;

    for degree in [32usize, 64, 128, 256, 512] {
        let opts = KernelOptions::default();
        let tree = build(&ps, degree, &BuildMethod::Hilbert);
        let r = psb_batch(&tree, &queries, PAPER_K, &cfg, &opts);
        t.push(
            "SS-tree (PSB)",
            degree,
            vec![
                r.report.warp_efficiency * 100.0,
                r.report.avg_accessed_mb,
                r.report.avg_response_ms,
            ],
        );
        // A kd-tree query's response time is its 32-lane block's completion time.
        t.push(
            "KD-tree (task parallel)",
            degree,
            vec![kd_report.warp_efficiency * 100.0, kd_mb_per_query, kd_report.avg_response_ms],
        );
    }
    t
}

/// Fig. 7 — dimensionality sweep: brute force vs PSB vs branch-and-bound.
pub fn fig7(scale: &Scale) -> Table {
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let mut t = Table::new(
        "Fig. 7 — dimensionality sweep (100 clusters, sigma=160)",
        "dims",
        &["response_ms", "accessed_mb"],
    );
    for dims in [2usize, 4, 8, 16, 32, 64] {
        let ps = clustered(scale, dims, 160.0);
        let queries = sample_queries(&ps, scale.queries(), 0.01, scale.seed ^ 7);
        let tree = build(&ps, PAPER_DEGREE, &BuildMethod::Hilbert);
        let brute = brute_batch(&ps, &queries, PAPER_K, &cfg, &opts);
        let psb = psb_batch(&tree, &queries, PAPER_K, &cfg, &opts);
        let bnb = bnb_batch(&tree, &queries, PAPER_K, &cfg, &opts);
        t.push(
            "Bruteforce",
            dims,
            vec![brute.report.avg_response_ms, brute.report.avg_accessed_mb],
        );
        t.push("SS-tree (PSB)", dims, vec![psb.report.avg_response_ms, psb.report.avg_accessed_mb]);
        t.push(
            "SS-tree (Branch&Bound)",
            dims,
            vec![bnb.report.avg_response_ms, bnb.report.avg_accessed_mb],
        );
    }
    t
}

/// Fig. 8 — k sweep (64-d): the shared-memory k-best list erodes occupancy.
pub fn fig8(scale: &Scale) -> Table {
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let mut t =
        Table::new("Fig. 8 — k sweep (64-d, sigma=160)", "k", &["response_ms", "accessed_mb"]);
    let ps = clustered(scale, 64, 160.0);
    let tree = build(&ps, PAPER_DEGREE, &BuildMethod::Hilbert);
    let queries = sample_queries(&ps, scale.queries(), 0.01, scale.seed ^ 8);
    for k in [1usize, 8, 64, 256, 512, 1920] {
        let brute = brute_batch(&ps, &queries, k, &cfg, &opts);
        let psb = psb_batch(&tree, &queries, k, &cfg, &opts);
        let bnb = bnb_batch(&tree, &queries, k, &cfg, &opts);
        t.push("Bruteforce", k, vec![brute.report.avg_response_ms, brute.report.avg_accessed_mb]);
        t.push("SS-tree (PSB)", k, vec![psb.report.avg_response_ms, psb.report.avg_accessed_mb]);
        t.push(
            "SS-tree (Branch&Bound)",
            k,
            vec![bnb.report.avg_response_ms, bnb.report.avg_accessed_mb],
        );
    }
    t
}

/// Fig. 9 — the NOAA-like real-world dataset: all four engines.
pub fn fig9(scale: &Scale) -> Table {
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let mut t =
        Table::new("Fig. 9 — NOAA station reports", "method", &["response_ms", "accessed_mb"]);
    let ps = NoaaSpec {
        stations: 20_000,
        reports: scale.points(PAPER_POINTS),
        extra_dims: 0,
        seed: scale.seed,
    }
    .generate();
    let queries = sample_queries(&ps, scale.queries(), 0.005, scale.seed ^ 9);
    let tree = build(&ps, PAPER_DEGREE, &BuildMethod::Hilbert);

    let brute = brute_batch(&ps, &queries, PAPER_K, &cfg, &opts);
    t.push("Bruteforce", "-", vec![brute.report.avg_response_ms, brute.report.avg_accessed_mb]);
    let psb = psb_batch(&tree, &queries, PAPER_K, &cfg, &opts);
    t.push("SS-tree (PSB)", "-", vec![psb.report.avg_response_ms, psb.report.avg_accessed_mb]);
    let bnb = bnb_batch(&tree, &queries, PAPER_K, &cfg, &opts);
    t.push(
        "SS-tree (Branch&Bound)",
        "-",
        vec![bnb.report.avg_response_ms, bnb.report.avg_accessed_mb],
    );

    let sr = SrTree::build(&ps, PAPER_PAGE_BYTES);
    let mut sr_bytes = 0u64;
    let ms = mean_wall_ms(&queries, |q| {
        let (_, st) = sr.knn(q, PAPER_K);
        sr_bytes += st.bytes;
    });
    t.push(
        "SR-tree (CPU)",
        "-",
        vec![ms, sr_bytes as f64 / (1024.0 * 1024.0) / queries.len() as f64],
    );
    t
}

/// Ablation (DESIGN.md "The kernel table and its options") — each PSB design
/// choice toggled in isolation on the Fig. 5 mid-sigma workload, plus the §V-E
/// hybrid shared-memory policy at the largest k, plus the top-down-constructed
/// SS-tree as a construction ablation.
pub fn ablation(scale: &Scale) -> Table {
    let cfg = DeviceConfig::k40();
    let mut t = Table::new(
        "Ablation — PSB design choices (64-d, sigma=160)",
        "variant",
        &["response_ms", "accessed_mb", "warp_eff_pct"],
    );
    let ps = clustered(scale, 64, 160.0);
    let queries = sample_queries(&ps, scale.queries(), 0.01, scale.seed ^ 10);
    let tree = build(&ps, PAPER_DEGREE, &BuildMethod::Hilbert);

    let run = |o: &KernelOptions, tr: &SsTree| {
        let r = psb_batch(tr, &queries, PAPER_K, &cfg, o);
        vec![r.report.avg_response_ms, r.report.avg_accessed_mb, r.report.warp_efficiency * 100.0]
    };

    let base = KernelOptions::default();
    t.push("PSB (paper defaults)", "-", run(&base, &tree));
    t.push("no leaf scan", "-", run(&KernelOptions { leaf_scan: false, ..base.clone() }, &tree));
    t.push(
        "no MINMAXDIST prune",
        "-",
        run(&KernelOptions { use_minmax_prune: false, ..base.clone() }, &tree),
    );
    t.push(
        "AoS node layout",
        "-",
        run(&KernelOptions { layout: psb_core::NodeLayout::Aos, ..base.clone() }, &tree),
    );
    let td = build_topdown(&ps, PAPER_DEGREE);
    t.push("top-down construction", "-", run(&base, &td));

    // Node-shape ablation (§II-C): the same PSB kernel over bounding
    // rectangles instead of bounding spheres.
    let rt = build_rtree(&ps, PAPER_DEGREE, &RtreeBuildMethod::Hilbert);
    let rr = psb_batch(&rt, &queries, PAPER_K, &cfg, &base);
    t.push(
        "R-tree node shape (rect MBRs)",
        "-",
        vec![
            rr.report.avg_response_ms,
            rr.report.avg_accessed_mb,
            rr.report.warp_efficiency * 100.0,
        ],
    );

    // Stackless alternatives: restart from the root instead of parent links,
    // and the task-parallel strawman on the same tree (Fig. 1b).
    let restart = restart_batch(&tree, &queries, PAPER_K, &cfg, &base);
    t.push(
        "restart traversal (no parent links)",
        "-",
        vec![
            restart.report.avg_response_ms,
            restart.report.avg_accessed_mb,
            restart.report.warp_efficiency * 100.0,
        ],
    );
    let (_, tp_blocks) = psb_core::tpss_batch(&tree, &queries, PAPER_K, &cfg, 32);
    let tp = launch_blocks(&cfg, 1, &tp_blocks);
    t.push(
        "task-parallel SS-tree (1 query/lane)",
        "-",
        vec![
            tp.avg_response_ms,
            tp.merged.accessed_mb() / queries.len() as f64,
            tp.warp_efficiency * 100.0,
        ],
    );

    // Hybrid shared-memory policy at the paper's largest k (§V-E).
    let k = 1920usize;
    let all = psb_batch(&tree, &queries, k, &cfg, &base);
    let hybrid = psb_batch(
        &tree,
        &queries,
        k,
        &cfg,
        &KernelOptions {
            smem_policy: psb_core::SharedMemPolicy::Hybrid { shared_slots: 64 },
            ..base
        },
    );
    t.push(
        "k=1920, all-shared list",
        "-",
        vec![
            all.report.avg_response_ms,
            all.report.avg_accessed_mb,
            all.report.warp_efficiency * 100.0,
        ],
    );
    t.push(
        "k=1920, hybrid list (64 shared)",
        "-",
        vec![
            hybrid.report.avg_response_ms,
            hybrid.report.avg_accessed_mb,
            hybrid.report.warp_efficiency * 100.0,
        ],
    );
    t
}

/// Throughput view (paper §V-C: "the data parallel SS-tree shows comparable
/// query processing throughput with the task parallel kd-tree"): batch
/// makespan of 240 queries under each strategy. Task parallelism amortizes
/// divergence across many queries, so the *throughput* gap is far smaller than
/// the *response-time* gap — reproducing that nuance is the point of this
/// table.
pub fn throughput(scale: &Scale) -> Table {
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let mut t = Table::new(
        "Throughput — batch makespan (64-d, sigma=160)",
        "strategy",
        &["makespan_ms", "avg_response_ms", "warp_eff_pct"],
    );
    let ps = clustered(scale, 64, 160.0);
    let queries = sample_queries(&ps, scale.queries(), 0.01, scale.seed ^ 12);
    let tree = build(&ps, PAPER_DEGREE, &BuildMethod::Hilbert);

    let psb = psb_batch(&tree, &queries, PAPER_K, &cfg, &opts);
    t.push(
        "SS-tree PSB (data parallel)",
        "-",
        vec![
            psb.report.makespan_ms,
            psb.report.avg_response_ms,
            psb.report.warp_efficiency * 100.0,
        ],
    );

    let (_, tp_blocks) = psb_core::tpss_batch(&tree, &queries, PAPER_K, &cfg, 32);
    let tp = launch_blocks(&cfg, 1, &tp_blocks);
    t.push(
        "SS-tree (task parallel)",
        "-",
        vec![tp.makespan_ms, tp.avg_response_ms, tp.warp_efficiency * 100.0],
    );

    let kd = KdTree::build(&ps, 1); // minimal kd-tree, as in Fig. 6
    let (_, kd_blocks) = knn_task_parallel(&kd, &queries, PAPER_K, &cfg, 32);
    let kd_r = launch_blocks(&cfg, 1, &kd_blocks);
    t.push(
        "KD-tree (task parallel)",
        "-",
        vec![kd_r.makespan_ms, kd_r.avg_response_ms, kd_r.warp_efficiency * 100.0],
    );
    t
}

/// Cost-model sensitivity: re-run the Fig. 7 d=64 comparison on four very
/// different device parameter sets. The reproduction's claims live in the
/// *orderings* (PSB < B&B < brute force), so they must survive any reasonable
/// choice of simulator constants.
pub fn sensitivity(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Sensitivity — engine ordering across device models (64-d, sigma=160)",
        "device",
        &["psb_ms", "bnb_ms", "brute_ms", "psb_wins"],
    );
    let ps = clustered(scale, 64, 160.0);
    let queries = sample_queries(&ps, scale.queries(), 0.01, scale.seed ^ 11);
    let tree = build(&ps, PAPER_DEGREE, &BuildMethod::Hilbert);
    let opts = KernelOptions::default();
    for cfg in
        [DeviceConfig::k40(), DeviceConfig::k80(), DeviceConfig::titan_x(), DeviceConfig::low_end()]
    {
        let psb = psb_batch(&tree, &queries, PAPER_K, &cfg, &opts);
        let bnb = bnb_batch(&tree, &queries, PAPER_K, &cfg, &opts);
        let brute = brute_batch(&ps, &queries, PAPER_K, &cfg, &opts);
        let wins = (psb.report.avg_response_ms <= bnb.report.avg_response_ms
            && psb.report.avg_response_ms <= brute.report.avg_response_ms) as u32
            as f64;
        t.push(
            cfg.name,
            "-",
            vec![
                psb.report.avg_response_ms,
                bnb.report.avg_response_ms,
                brute.report.avg_response_ms,
                wins,
            ],
        );
    }
    t
}
