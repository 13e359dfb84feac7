//! Per-kernel counters and the cycle cost model.

use crate::config::DeviceConfig;
use crate::trace::Phase;

/// Deepest tree level with its own bucket in [`KernelStats::level_visits`];
/// visits below it accumulate in the last bucket. The packed n-ary trees this
/// simulator indexes stay far shallower (degree ≥ 2 ⇒ depth ≤ log2(n)).
pub const MAX_TRACKED_LEVELS: usize = 24;

/// Per-phase slice of a block's counters. Summing the per-phase values of a
/// [`KernelStats`] reproduces its aggregate fields exactly (asserted by
/// [`KernelStats::phase_totals_consistent`] and the workspace tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Lane slots issued in this phase.
    pub lane_slots: u64,
    /// Active lanes across this phase's issues.
    pub active_lanes: u64,
    /// Warp instructions issued in this phase.
    pub compute_issues: u64,
    /// Bytes read from global memory in this phase.
    pub global_bytes: u64,
    /// Global transactions in this phase.
    pub global_transactions: u64,
    /// Streaming (prefetchable) subset of this phase's transactions.
    pub stream_transactions: u64,
    /// Nodes visited in this phase.
    pub nodes_visited: u64,
}

impl PhaseStats {
    /// Merge another block's same-phase counters (all fields sum).
    pub fn merge(&mut self, other: &PhaseStats) {
        self.lane_slots += other.lane_slots;
        self.active_lanes += other.active_lanes;
        self.compute_issues += other.compute_issues;
        self.global_bytes += other.global_bytes;
        self.global_transactions += other.global_transactions;
        self.stream_transactions += other.stream_transactions;
        self.nodes_visited += other.nodes_visited;
    }

    /// Warp efficiency within this phase (0 when the phase never issued).
    pub fn warp_efficiency(&self) -> f64 {
        if self.lane_slots == 0 {
            return 0.0;
        }
        self.active_lanes as f64 / self.lane_slots as f64
    }

    /// Megabytes read in this phase.
    pub fn accessed_mb(&self) -> f64 {
        self.global_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Fraction of this phase's transactions that stream (prefetchable).
    pub fn stream_fraction(&self) -> f64 {
        if self.global_transactions == 0 {
            return 0.0;
        }
        self.stream_transactions as f64 / self.global_transactions as f64
    }
}

/// Counters accumulated by one simulated thread block (or merged across blocks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Lane slots issued: warp instructions × warp size.
    pub lane_slots: u64,
    /// Lanes actually active across all issued warp instructions.
    pub active_lanes: u64,
    /// Warp instructions issued (compute).
    pub compute_issues: u64,
    /// Bytes read from simulated global memory.
    pub global_bytes: u64,
    /// 128-byte global-memory transactions.
    pub global_transactions: u64,
    /// Subset of `global_transactions` with sequentially predictable addresses
    /// (streaming loads: sibling-leaf scans, brute-force tiles). The hardware
    /// prefetches these, so they expose no dependent-fetch latency — this is
    /// the mechanism behind the paper's "fast linear scanning" advantage.
    pub stream_transactions: u64,
    /// Peak shared-memory bytes reserved by the block.
    pub smem_peak_bytes: u64,
    /// Tree nodes (or other index units) visited — a paper-facing counter.
    pub nodes_visited: u64,
    /// Number of blocks merged into this value (1 for a single block).
    pub blocks: u64,
    /// The aggregate counters above, attributed to the traversal phase that
    /// produced them (indexed by [`Phase::index`]). Always populated; each
    /// field sums across phases to its aggregate counterpart.
    pub phases: [PhaseStats; Phase::COUNT],
    /// Node visits per tree level (root = 0); levels at or beyond
    /// [`MAX_TRACKED_LEVELS`] − 1 share the last bucket. Sums to
    /// `nodes_visited` for block-structured kernels that report levels.
    pub level_visits: [u64; MAX_TRACKED_LEVELS],
    /// Upward moves in the tree (parent-link hops, BnB returns, restarts).
    pub backtracks: u64,
}

impl KernelStats {
    /// Merge another block's counters into this one. Peak shared memory is a
    /// maximum (it is a per-block resource), everything else sums.
    pub fn merge(&mut self, other: &KernelStats) {
        self.lane_slots += other.lane_slots;
        self.active_lanes += other.active_lanes;
        self.compute_issues += other.compute_issues;
        self.global_bytes += other.global_bytes;
        self.global_transactions += other.global_transactions;
        self.stream_transactions += other.stream_transactions;
        self.smem_peak_bytes = self.smem_peak_bytes.max(other.smem_peak_bytes);
        self.nodes_visited += other.nodes_visited;
        self.blocks += other.blocks;
        for (mine, theirs) in self.phases.iter_mut().zip(&other.phases) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.level_visits.iter_mut().zip(&other.level_visits) {
            *mine += theirs;
        }
        self.backtracks += other.backtracks;
    }

    /// The counters attributed to `phase`.
    #[inline]
    pub fn phase(&self, phase: Phase) -> &PhaseStats {
        &self.phases[phase.index()]
    }

    /// Sum of the per-phase counters — equals the aggregates whenever every
    /// producer attributes its metering (which [`crate::Block`] guarantees).
    pub(crate) fn phase_total(&self) -> PhaseStats {
        let mut total = PhaseStats::default();
        for p in &self.phases {
            total.merge(p);
        }
        total
    }

    /// Whether the per-phase counters sum exactly to the aggregates. True for
    /// everything produced by this crate; a false return means counters were
    /// mutated outside [`crate::Block`]/[`crate::run_task_parallel`].
    pub fn phase_totals_consistent(&self) -> bool {
        let t = self.phase_total();
        t.lane_slots == self.lane_slots
            && t.active_lanes == self.active_lanes
            && t.compute_issues == self.compute_issues
            && t.global_bytes == self.global_bytes
            && t.global_transactions == self.global_transactions
            && t.stream_transactions == self.stream_transactions
            && t.nodes_visited == self.nodes_visited
    }

    /// Warp execution efficiency in `[0, 1]`: active lanes / issued lane slots.
    pub fn warp_efficiency(&self) -> f64 {
        if self.lane_slots == 0 {
            return 0.0;
        }
        self.active_lanes as f64 / self.lane_slots as f64
    }

    /// Cycle cost of this block under the model:
    ///
    /// ```text
    /// cycles = compute + max(latency_bound, bandwidth_bound)
    /// compute          = compute_issues × issue_cycles
    /// latency_bound    = random_transactions × mem_latency / hiding
    /// bandwidth_bound  = bytes / bw_per_sm_per_cycle
    /// random           = global_transactions − stream_transactions
    /// hiding           = clamp(resident_blocks × warps_per_block, 1, max_warps_per_sm)
    /// ```
    ///
    /// Two mechanisms the paper leans on are visible here:
    ///
    /// * **Streaming vs pointer chasing** — only *random* transactions expose
    ///   memory latency; streaming transactions (sequentially predictable
    ///   addresses: sibling-leaf scans, brute-force tiles) are prefetched and
    ///   cost bandwidth only. This is why PSB's linear leaf scan beats
    ///   branch-and-bound even when it reads *more* bytes (§V-B).
    /// * **Occupancy** — `hiding` is the latency-hiding capacity: the more
    ///   warps an SM can keep resident (a function of this block's shared-
    ///   memory footprint), the more latency overlaps with other warps. This is
    ///   the Fig. 8 mechanism: growing `k` grows shared memory, shrinking
    ///   occupancy and therefore `hiding`.
    pub fn block_cycles(&self, cfg: &DeviceConfig, warps_per_block: u32) -> f64 {
        let resident = cfg.occupancy_blocks(self.smem_peak_bytes, warps_per_block);
        assert!(
            resident > 0,
            "block needs {} B shared memory but the SM only has {} B",
            self.smem_peak_bytes,
            cfg.smem_per_sm
        );
        let hiding =
            (resident as u64 * warps_per_block as u64).clamp(1, cfg.max_warps_per_sm as u64) as f64;
        let compute = (self.compute_issues * cfg.issue_cycles) as f64;
        let random = self.global_transactions.saturating_sub(self.stream_transactions) as f64;
        let latency_bound = random * cfg.mem_latency as f64 / hiding;
        let bandwidth_bound = self.global_bytes as f64 / cfg.bw_bytes_per_sm_cycle();
        compute + latency_bound.max(bandwidth_bound)
    }

    /// Wall-clock milliseconds for this block alone (the per-query response time).
    pub fn response_ms(&self, cfg: &DeviceConfig, warps_per_block: u32) -> f64 {
        cfg.cycles_to_ms(self.block_cycles(cfg, warps_per_block))
    }

    /// Accessed megabytes (the paper's Fig. 3b/5/7/8 metric).
    pub fn accessed_mb(&self) -> f64 {
        self.global_bytes as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = KernelStats {
            lane_slots: 64,
            active_lanes: 48,
            compute_issues: 2,
            global_bytes: 100,
            global_transactions: 1,
            stream_transactions: 0,
            smem_peak_bytes: 512,
            nodes_visited: 3,
            blocks: 1,
            backtracks: 2,
            ..Default::default()
        };
        let b = KernelStats {
            lane_slots: 32,
            active_lanes: 16,
            compute_issues: 1,
            global_bytes: 50,
            global_transactions: 1,
            stream_transactions: 0,
            smem_peak_bytes: 1024,
            nodes_visited: 1,
            blocks: 1,
            backtracks: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.lane_slots, 96);
        assert_eq!(a.active_lanes, 64);
        assert_eq!(a.smem_peak_bytes, 1024);
        assert_eq!(a.blocks, 2);
        assert_eq!(a.nodes_visited, 4);
        assert_eq!(a.backtracks, 3);
    }

    #[test]
    fn merge_sums_phases_and_levels() {
        let mut a = KernelStats::default();
        a.phases[Phase::Descend.index()].global_bytes = 100;
        a.phases[Phase::LeafScan.index()].nodes_visited = 2;
        a.level_visits[0] = 1;
        a.level_visits[3] = 2;
        let mut b = KernelStats::default();
        b.phases[Phase::Descend.index()].global_bytes = 40;
        b.level_visits[3] = 5;
        a.merge(&b);
        assert_eq!(a.phase(Phase::Descend).global_bytes, 140);
        assert_eq!(a.phase(Phase::LeafScan).nodes_visited, 2);
        assert_eq!(a.level_visits[3], 7);
        assert_eq!(a.level_visits[0], 1);
    }

    #[test]
    fn phase_consistency_detects_unattributed_counters() {
        let mut s = KernelStats::default();
        assert!(s.phase_totals_consistent());
        s.phases[Phase::Descend.index()].compute_issues = 3;
        s.compute_issues = 3;
        assert!(s.phase_totals_consistent());
        s.compute_issues = 4; // aggregate bumped without a phase
        assert!(!s.phase_totals_consistent());
    }

    #[test]
    fn phase_stats_derived_metrics() {
        let p = PhaseStats {
            lane_slots: 128,
            active_lanes: 32,
            global_bytes: 2 * 1024 * 1024,
            global_transactions: 8,
            stream_transactions: 6,
            ..Default::default()
        };
        assert_eq!(p.warp_efficiency(), 0.25);
        assert_eq!(p.accessed_mb(), 2.0);
        assert_eq!(p.stream_fraction(), 0.75);
        assert_eq!(PhaseStats::default().warp_efficiency(), 0.0);
        assert_eq!(PhaseStats::default().stream_fraction(), 0.0);
    }

    #[test]
    fn warp_efficiency_ratio() {
        let s = KernelStats { lane_slots: 100, active_lanes: 50, ..Default::default() };
        assert_eq!(s.warp_efficiency(), 0.5);
        assert_eq!(KernelStats::default().warp_efficiency(), 0.0);
    }

    #[test]
    fn more_shared_memory_means_slower_memory_bound_blocks() {
        let cfg = DeviceConfig::k40();
        let mk = |smem| KernelStats {
            compute_issues: 10,
            global_transactions: 10_000,
            global_bytes: 10_000 * 128,
            smem_peak_bytes: smem,
            blocks: 1,
            ..Default::default()
        };
        let fast = mk(1024).block_cycles(&cfg, 4);
        let slow = mk(24 * 1024).block_cycles(&cfg, 4);
        assert!(slow > fast, "high smem pressure must reduce hiding: {slow} <= {fast}");
    }

    #[test]
    fn bandwidth_floor_applies() {
        let cfg = DeviceConfig::k40();
        // Huge bytes with few transactions: the bandwidth bound must dominate.
        let s = KernelStats {
            global_bytes: 256 * 1024 * 1024,
            global_transactions: 10,
            blocks: 1,
            ..Default::default()
        };
        let cycles = s.block_cycles(&cfg, 4);
        let bw_cycles = 256.0 * 1024.0 * 1024.0 / cfg.bw_bytes_per_sm_cycle();
        assert!((cycles - bw_cycles).abs() / bw_cycles < 1e-9);
    }

    #[test]
    #[should_panic(expected = "shared memory")]
    fn unlaunchable_block_panics() {
        let cfg = DeviceConfig::k40();
        let s = KernelStats { smem_peak_bytes: 1 << 20, blocks: 1, ..Default::default() };
        let _ = s.block_cycles(&cfg, 4);
    }

    #[test]
    fn accessed_mb_conversion() {
        let s = KernelStats { global_bytes: 3 * 1024 * 1024, ..Default::default() };
        assert_eq!(s.accessed_mb(), 3.0);
    }
}
