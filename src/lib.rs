//! # psb — Parallel Scan and Backtrack kNN on a simulated GPU
//!
//! A full reproduction of *"Parallel Tree Traversal for Nearest Neighbor Query
//! on the GPU"* (Nam, Kim & Nam, ICPP 2016): exact k-nearest-neighbor query
//! processing over SS-trees with the data-parallel **PSB** traversal, parallel
//! bottom-up tree construction (Hilbert curve / k-means + parallel Ritter
//! spheres), and every baseline the paper evaluates against — classic
//! branch-and-bound, GPU brute force, a task-parallel kd-tree, and a top-down
//! SR-tree on the CPU.
//!
//! The GPU itself is replaced by a deterministic SIMT execution-model simulator
//! (see [`gpu`] and `DESIGN.md`): warp efficiency, accessed bytes and response
//! time are *measured outputs* of running the algorithms under the model, not
//! assumptions.
//!
//! ## Quick start
//!
//! ```
//! use psb::prelude::*;
//!
//! // 10k clustered points in 8 dimensions.
//! let data = ClusteredSpec { clusters: 10, points_per_cluster: 1_000,
//!                            dims: 8, sigma: 100.0, seed: 42 }.generate();
//!
//! // Bottom-up SS-tree (Hilbert packing), degree 128 as in the paper.
//! let tree = build(&data, 128, &BuildMethod::Hilbert);
//!
//! // One simulated thread block answers one query with PSB.
//! let cfg = DeviceConfig::k40();
//! let opts = KernelOptions::default();
//! let query = data.point(123).to_vec();
//! let (neighbors, stats) = psb_query(&tree, &query, 8, &cfg, &opts);
//!
//! assert_eq!(neighbors.len(), 8);
//! assert_eq!(neighbors[0].id, 123);          // a data point's 1-NN is itself
//! assert!(stats.warp_efficiency() > 0.0);    // measured, not assumed
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`geom`] | points, spheres/rects + MINDIST/MAXDIST, Ritter & Welzl enclosing spheres, Hilbert curve, k-means |
//! | [`gpu`] | the SIMT simulator: blocks, warps, divergence, memory & occupancy cost model |
//! | [`data`] | workload generators (Gaussian mixtures, uniform, NOAA-like stations) |
//! | [`sstree`] | the SS-tree: bottom-up & top-down construction, CPU oracle searches |
//! | [`core`] | PSB / branch-and-bound / brute-force GPU kernels + batch engine |
//! | [`kdtree`] | task-parallel GPU kd-tree baseline |
//! | [`srtree`] | top-down SR-tree CPU baseline |
//! | [`serve`] | multi-device sharded serving: MINDIST shard router, exact merge, replica failover, admission/deadline/breaker resilience front-end |
//! | [`metrics`] | serving-grade telemetry: counters/gauges/histograms, wall-clock span tree, Prometheus + JSON exposition |

pub use psb_core as core;
pub use psb_data as data;
pub use psb_geom as geom;
pub use psb_gpu as gpu;
pub use psb_kdtree as kdtree;
pub use psb_metrics as metrics;
pub use psb_rtree as rtree;
pub use psb_serve as serve;
pub use psb_srtree as srtree;
pub use psb_sstree as sstree;

/// The names most programs need, re-exported flat.
pub mod prelude {
    pub use psb_core::kernels::bnb::bnb_query;
    pub use psb_core::kernels::brute::{brute_index_query, brute_query, brute_try_query};
    pub use psb_core::kernels::psb::psb_query;
    pub use psb_core::kernels::range::range_query_gpu;
    pub use psb_core::kernels::restart::restart_query;
    pub use psb_core::kernels::stackfree::stackfree_query;
    pub use psb_core::shard::{partition, shard_sphere, ShardPlan, ShardPolicy};
    pub use psb_core::{
        bnb_batch, brute_batch, dist_cost, hilbert_order, hilbert_permutation, launch,
        launch_stackfree, merge_stats, psb_batch, range_batch, resolve, restart_batch,
        stackfree_batch, tpss_batch, tpss_try_batch, wave_knn_batch, wave_range_batch,
        DynamicSsTree, EngineError, ImplicitKdIndex, Kernel, KernelError, KernelOptions, Metering,
        NodeLayout, Override, PointIndex, QueryBatchResult, QueryOutcome, QuerySchedule,
        QueryStream, Resolved, ScheduleScratch, SharedMemPolicy, StreamKernel, WaveConfig,
        WaveReport, NO_ROPE,
    };
    pub use psb_data::{sample_queries, ClusteredSpec, NoaaSpec, SkewedQuerySpec, UniformSpec};
    pub use psb_geom::{
        dist, hilbert_key, kmeans, ritter_points, ritter_spheres, sq_dist, sq_dist_simd, welzl,
        DistKernel, DistLanes, KMeansParams, PointSet, Rect, RectKernel, RitterMode, Sphere,
    };
    pub use psb_gpu::{
        launch_blocks, Block, DeviceConfig, DeviceFault, FaultPlan, FaultState, JsonlSink,
        KernelStats, LaunchReport, NodeKind, Phase, PhaseBreakdown, PhaseStats, TraceEvent,
        TraceSink, VecSink,
    };
    pub use psb_kdtree::{gpu::knn_task_parallel, knn_cpu, KdBuildError, KdTree, LbKdTree};
    pub use psb_metrics::{
        render_json, render_prometheus, render_span_tree, Histogram, HistogramSummary,
        MetricsHandle, Registry, Snapshot, SpanStat,
    };
    pub use psb_rtree::{build_rtree, RsTree, RtreeBuildMethod};
    pub use psb_serve::{
        AdmissionConfig, BreakerConfig, BreakerState, DeadlineBudget, DynamicShardRouter,
        FailoverEvent, OutcomeTally, QueryCache, QuotaConfig, RejectReason, ReplicaState,
        RequestMeta, ResilienceConfig, ResilienceReport, ResilientBatchResult, ResilientRouter,
        ServeBatchResult, ServeConfig, ServeOutcome, ServeReport, ShardRouter, TenantId,
    };
    pub use psb_srtree::SrTree;
    pub use psb_sstree::search::linear_range;
    pub use psb_sstree::{
        build, build_topdown, knn_best_first, knn_branch_and_bound, linear_knn, BuildMethod,
        FlatTree, LoadError, Neighbor, SsTree, StructuralError, Volumes,
    };
}

/// Everything a batch runner, a serve loop or a shard rebuild shares with
/// another host thread must be `Send + Sync`. A field that quietly loses
/// either (an `Rc`, a `Cell`, a raw pointer) fails the build here, by name,
/// rather than at some distant `par_iter` call site.
const _: () = {
    const fn crosses_threads<T: Send + Sync>() {}
    crosses_threads::<sstree::SsTree>();
    crosses_threads::<rtree::RsTree>();
    crosses_threads::<kdtree::LbKdTree>();
    crosses_threads::<core::KernelOptions>();
    crosses_threads::<gpu::FaultPlan>();
    crosses_threads::<core::QueryBatchResult>();
    crosses_threads::<serve::ShardRouter<sstree::SsTree>>();
    crosses_threads::<serve::DynamicShardRouter>();
    crosses_threads::<serve::ResilientRouter<sstree::SsTree>>();
};
