//! Kernel launch options: the ablation switches and the host and engine
//! switches of DESIGN.md "The kernel table and its options".

use psb_geom::DistLanes;
use psb_metrics::MetricsHandle;

use crate::knnlist::SharedMemPolicy;
use crate::schedule::QuerySchedule;
use crate::wave::WaveConfig;

/// Simulated memory layout of tree nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum NodeLayout {
    /// Structure-of-arrays: the paper's layout; child spheres stream as one
    /// coalesced block (§V-A).
    #[default]
    Soa,
    /// Array-of-structures: every child entry is its own strided transaction.
    /// Exists to quantify why the paper chose SoA.
    Aos,
}

/// Whether a launch runs the simulated GPU cost model (DESIGN.md "Metering::Off").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Metering {
    /// Full `Block` accounting: warp issues, transactions, cycles, phases,
    /// traces, fault hooks. The default — every figure in the paper
    /// reproduction reads these counters.
    #[default]
    Simulated,
    /// The zero-accounting fast path: kernels launch on an unmetered block
    /// whose counter updates compile out of the hot loop entirely
    /// (monomorphized at launch, never branched per load). Neighbors and
    /// outcomes are bit-identical to [`Metering::Simulated`]
    /// (`tests/fastpath_parity.rs`); the returned `KernelStats` stay at
    /// launch values. Serving and the repo benchmark's host-time workloads
    /// run here. Launches that inject faults are forced back to
    /// [`Metering::Simulated`] — fault detection lives inside the accounting.
    Off,
}

/// Options shared by the GPU kernels.
#[derive(Clone, Debug)]
pub struct KernelOptions {
    /// Threads per block. The paper runs 32 threads over degree-128 nodes
    /// ("each processing unit ... processes four branches", §IV-D), so one warp
    /// per query is the default.
    pub threads_per_block: u32,
    /// Where the k-best list lives (§V-E).
    pub smem_policy: SharedMemPolicy,
    /// Use the k-th-MINMAXDIST bound to tighten the pruning distance at
    /// internal nodes (Algorithm 1, lines 13–15). Ablation switch.
    pub use_minmax_prune: bool,
    /// PSB's linear scan of sibling leaves (Algorithm 1, lines 39–45).
    /// Disabling it backtracks after every leaf — the ablation that shows where
    /// PSB's advantage comes from.
    pub leaf_scan: bool,
    /// Node memory layout (SoA vs AoS ablation).
    pub layout: NodeLayout,
    /// Batch execution order (DESIGN.md "Query schedule and streaming").
    /// [`QuerySchedule::Hilbert`] runs the batch in Hilbert-curve order and
    /// un-permutes every per-query output, so results and counters stay bit-identical to the default
    /// submission order. Dropped when a trace sink is attached.
    pub schedule: QuerySchedule,
    /// Telemetry sink for the batch runners: host wall-clock spans, per-batch
    /// latency histograms, and the launch report's simulated figures all land
    /// here. The default is the detached no-op handle — no clock is read, no
    /// lock taken, and every result stays bit-identical to an uninstrumented
    /// run (`tests/metrics_parity.rs`).
    pub metrics: MetricsHandle,
    /// Route batch execution through the buffer-wave node-centric engine
    /// (DESIGN.md "Buffer-wave traversal"): nodes own query buffers, the batch descends
    /// in level-synchronous waves, and each buffered node is swept once with
    /// its fetch amortized over the buffer. `None` (the default) keeps the
    /// per-query engines. Neighbors and outcomes are bit-identical either
    /// way; `KernelStats` reflect the amortized schedule. Dropped under a
    /// real fault plan, under a trace sink, and for the kernels with no node
    /// blocks — [`resolve`](crate::resolve) names the rule that fired.
    pub wave: Option<WaveConfig>,
    /// Simulated-cost-model switch (DESIGN.md "Metering::Off"). [`Metering::Off`]
    /// compiles the `Block` accounting out of the hot loop; results are
    /// bit-identical, `KernelStats` stay at launch values.
    pub metering: Metering,
    /// Follow rope (escape) links instead of per-level traversal state in the
    /// kernels that keep any — the *restart* kNN kernel's re-descents and the
    /// *range* kernel's parent backtracking
    /// (DESIGN.md "Stack-free kd kernel and rope modes"). Every arriving
    /// node is evaluated once against the query; qualifying internal nodes
    /// fall through to their first child, everything else follows
    /// `FlatTree::rope`. Results are bit-identical to the stacked traversal
    /// (`tests/ropes.rs`); counters reflect the rope fetches. Off by default:
    /// the paper's PSB figures use the leaf-sequential traversal.
    pub rope: bool,
    /// Distance-kernel lane selection: the explicit-SIMD same-op-order
    /// evaluators (the default) or the reference scalar loops. Both produce
    /// bit-identical f32 results (`psb-geom`'s identity suites); the switch
    /// exists for A/B wall-clock benching, not for correctness.
    pub lanes: DistLanes,
}

impl Default for KernelOptions {
    fn default() -> Self {
        Self {
            threads_per_block: 32,
            smem_policy: SharedMemPolicy::AllShared,
            use_minmax_prune: true,
            leaf_scan: true,
            layout: NodeLayout::Soa,
            schedule: QuerySchedule::Submission,
            metrics: MetricsHandle::noop(),
            wave: None,
            metering: Metering::Simulated,
            rope: false,
            lanes: DistLanes::Simd,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let o = KernelOptions::default();
        assert_eq!(o.threads_per_block, 32);
        assert!(o.use_minmax_prune);
        assert!(o.leaf_scan);
        assert_eq!(o.layout, NodeLayout::Soa);
        assert_eq!(o.schedule, QuerySchedule::Submission);
        assert!(!o.metrics.is_attached(), "telemetry is opt-in");
        assert!(o.wave.is_none(), "the wave engine is opt-in");
        assert_eq!(o.metering, Metering::Simulated, "figures need the cost model");
        assert!(!o.rope, "rope traversal is opt-in; the paper's traversal is stacked");
        assert_eq!(o.lanes, DistLanes::Simd, "SIMD lanes are bit-identical, so default-on");
    }
}
