//! A deterministic SIMT GPU execution-model simulator.
//!
//! The paper evaluates on an NVIDIA Tesla K40 with CUDA 6.5. This crate replaces the
//! hardware with an execution *model* that makes the paper's three metrics emerge
//! from the algorithms rather than being assumed:
//!
//! * **Warp efficiency** — every data-parallel primitive issues warp instructions
//!   under explicit active-lane masks; efficiency is `Σ active lanes / Σ lane slots`
//!   exactly like `nvprof`'s *warp execution efficiency* counter.
//! * **Accessed global-memory bytes** — every simulated global load is metered in
//!   bytes and 128-byte transactions, with coalesced and strided access patterns
//!   costed differently.
//! * **Query response time** — a documented cycle-approximate cost model with
//!   K40-like constants (SM count, clock, memory latency/bandwidth, shared-memory
//!   capacity) converts the counters into milliseconds; shared-memory pressure
//!   reduces occupancy which reduces latency hiding, reproducing the paper's
//!   "large k slows everything down" effect (Fig. 8).
//!
//! One simulated *thread block* cooperates on one kNN query (the paper's data-
//! parallel design); batches of queries are independent blocks that the host runs
//! on a rayon pool. All counters are per-block and merged deterministically, so
//! results are bit-identical under any host thread count.
//!
//! Two execution styles are provided:
//!
//! * [`block::Block`] — the data-parallel context (`par_for`, tree reductions,
//!   single-lane scalar sections, barriers) used by PSB, branch-and-bound and
//!   brute-force kernels.
//! * [`task::run_task_parallel`] — a lockstep scheduler for task-parallel kernels
//!   (one query per lane, as in the GPU kd-tree baseline): each step, lanes at
//!   *different* operations are serialized one warp instruction per distinct
//!   operation, which is precisely the warp-divergence mechanism the paper
//!   describes in §II-B.

//!
//! Both styles attribute their counters to traversal [`trace::Phase`]s
//! (descend / leaf scan / backtrack / result merge) as they meter, and can
//! mirror every metering call into a [`trace::TraceSink`] for offline
//! analysis — see the [`trace`] module.

pub mod block;
pub mod config;
pub mod fault;
pub mod launch;
pub mod stats;
pub mod task;
pub mod trace;

pub use block::Block;
pub use config::DeviceConfig;
pub use fault::{DeviceFault, FaultPlan, FaultState};
pub use launch::{launch_blocks, LaunchReport, PhaseBreakdown};
pub use psb_metrics::{MetricsHandle, Registry};
pub use stats::{KernelStats, PhaseStats, MAX_TRACKED_LEVELS};
pub use task::{op_phase, run_task_parallel, LaneStep};
pub use trace::{
    event_from_jsonl, event_to_jsonl, JsonlSink, NodeKind, Phase, TraceEvent, TraceSink, VecSink,
};
