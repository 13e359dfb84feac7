//! Parallel Scan and Backtrack (PSB) — the paper's primary contribution.
//!
//! This crate implements exact kNN query processing on the simulated GPU
//! ([`psb_gpu`]) over SS-trees ([`psb_sstree`]):
//!
//! * [`kernels::psb`] — the PSB traversal (Algorithm 1): a bounded best-first
//!   initial descent establishes a pruning distance, then a stackless left-to-right
//!   sweep visits the leftmost unvisited leaf within the pruning distance,
//!   linearly scans sibling leaves while they keep improving the result, and
//!   backtracks through parent links guarded by `subtreeMaxLeafId`.
//! * [`kernels::bnb`] — the classic branch-and-bound baseline on the same tree,
//!   with parent-link backtracking that re-fetches and re-evaluates parent
//!   nodes from global memory (the cost the paper attributes to it).
//! * [`kernels::brute`] — the GPU brute-force scan baseline.
//! * [`knnlist`] — the shared-memory k-best list, including the paper's §V-E
//!   "hybrid" extension that spills the rarely-touched small distances to
//!   global memory.
//! * [`engine`] — batched execution: one launch path ([`launch`]) — resolve
//!   the options, run one simulated thread block per query host-parallel via
//!   rayon, aggregate with the device cost model.
//!
//! Every kernel returns both exact results (verified against CPU oracles) and
//! the counters the paper's figures are built from.

pub mod dynamic;
pub mod engine;
pub mod error;
pub mod index;
pub mod kernels;
pub mod knnlist;
pub mod options;
pub mod schedule;
pub mod shard;
pub mod stream;
pub mod wave;

pub use dynamic::{DynamicSsTree, DynamicTree};
pub use engine::{
    bnb_batch, brute_batch, launch, launch_stackfree, merge_stats, psb_batch, range_batch, resolve,
    restart_batch, stackfree_batch, Override, QueryBatchResult, Resolved,
};
pub use error::{EngineError, KernelError, QueryOutcome};
pub use index::{GpuIndex, SweepScratch, NO_ROPE};
pub use kernels::brute::brute_try_query;
pub use kernels::stackfree::stackfree_query;
pub use kernels::tpss::{tpss_batch, tpss_try_batch};
pub use kernels::{Kernel, Kernel as StreamKernel};
pub use knnlist::SharedMemPolicy;
pub use options::{KernelOptions, Metering, NodeLayout};
pub use psb_geom::DistLanes;
pub use psb_metrics::{MetricsHandle, Registry};
pub use psb_sstree::dist_cost;
pub use schedule::{hilbert_order, hilbert_permutation, QuerySchedule, ScheduleScratch};
pub use shard::{partition, shard_sphere, ShardPlan, ShardPolicy};
pub use stream::QueryStream;
pub use wave::{wave_knn_batch, wave_range_batch, WaveConfig, WaveReport};
