//! Batch launch accounting: turns per-block counters into the paper's metrics.
//!
//! The experiments submit a batch of queries (240 in the paper), one thread block
//! per query. This module aggregates the per-block [`KernelStats`] into:
//!
//! * **average query response time** — the mean of per-block wall times under the
//!   cost model (the metric of Figs. 3a, 5–9);
//! * **batch makespan** — a throughput-oriented bound: blocks are spread over
//!   `SMs × occupancy` concurrent slots, so the makespan is
//!   `max(Σ cycles / slots, max block cycles)`;
//! * **warp efficiency** and **accessed bytes**, merged across the batch.

use psb_metrics::MetricsHandle;

use crate::config::DeviceConfig;
use crate::stats::KernelStats;
use crate::trace::Phase;

/// One traversal phase's share of a batch, derived from the merged per-phase
/// counters — the rows of the inspect tool's per-phase table.
#[derive(Clone, Copy, Debug)]
pub struct PhaseBreakdown {
    /// The phase this row describes.
    pub phase: Phase,
    /// Warp execution efficiency within the phase, `[0, 1]`.
    pub warp_efficiency: f64,
    /// Mean accessed megabytes per block (per query) in the phase.
    pub avg_accessed_mb: f64,
    /// This phase's fraction of the batch's global bytes, `[0, 1]`.
    pub byte_share: f64,
    /// Fraction of the phase's transactions that stream (prefetchable).
    pub stream_fraction: f64,
}

/// Aggregated result of launching a batch of blocks.
#[derive(Clone, Debug)]
pub struct LaunchReport {
    /// All counters merged across blocks (always in submission order, so the
    /// report is bit-identical however the launch ordered the work).
    pub merged: KernelStats,
    /// Mean per-block response time in ms.
    pub avg_response_ms: f64,
    /// Slowest block's response time in ms.
    pub max_response_ms: f64,
    /// Batch makespan in ms (throughput view).
    pub makespan_ms: f64,
    /// Merged warp execution efficiency in `[0, 1]`.
    pub warp_efficiency: f64,
    /// Mean accessed megabytes per block (per query).
    pub avg_accessed_mb: f64,
    /// Resident blocks per SM under the batch's worst shared-memory footprint.
    /// Conservative: the whole batch is scheduled at the occupancy of its
    /// hungriest block (see `occupancy_min`/`occupancy_max` for the spread).
    pub occupancy: u32,
    /// Smallest per-block occupancy in the batch (equals `occupancy`).
    pub occupancy_min: u32,
    /// Largest per-block occupancy in the batch. A gap between min and max
    /// means the makespan estimate over-penalizes the light blocks.
    pub occupancy_max: u32,
    /// Queries that failed their first launch but succeeded on retry. Zero
    /// for plain launches; filled in by the engine's recovery layer.
    pub retried_queries: u64,
    /// Queries that exhausted retries and were answered by the exact
    /// brute-force fallback. Zero for plain launches.
    pub degraded_queries: u64,
    /// Per-phase rows, computed once at aggregation time (the per-block merge
    /// pass already holds the merged counters, so deriving the rows there is
    /// free and every later `phase_breakdown()` call is a copy).
    breakdown: [PhaseBreakdown; Phase::COUNT],
}

impl LaunchReport {
    /// Per-phase breakdown of the batch (one row per [`Phase`], in
    /// [`Phase::ALL`] order), derived from the merged counters. Precomputed at
    /// aggregation; calling this repeatedly costs a copy, not a recompute.
    pub fn phase_breakdown(&self) -> [PhaseBreakdown; Phase::COUNT] {
        self.breakdown
    }

    /// Records this report into a metrics registry under the kernel `label`
    /// (e.g. `"psb"`, `"stackfree"`). The *simulated* figures land as `sim.*`
    /// gauges and counters so they sit next to the host-side wall-clock data
    /// in one snapshot; a no-op handle makes this a single branch.
    pub fn record_into(&self, m: &MetricsHandle, label: &str) {
        if !m.is_attached() {
            return;
        }
        let tag = format!("{{kernel=\"{label}\"}}");
        m.gauge(&format!("sim.avg_response_ms{tag}"), self.avg_response_ms);
        m.gauge(&format!("sim.max_response_ms{tag}"), self.max_response_ms);
        m.gauge(&format!("sim.makespan_ms{tag}"), self.makespan_ms);
        m.gauge(&format!("sim.warp_efficiency{tag}"), self.warp_efficiency);
        m.gauge(&format!("sim.avg_accessed_mb{tag}"), self.avg_accessed_mb);
        m.gauge(&format!("sim.occupancy{tag}"), self.occupancy as f64);
        m.counter(&format!("sim.queries{tag}"), self.merged.blocks);
        m.counter(&format!("sim.global_bytes{tag}"), self.merged.global_bytes);
        m.counter(&format!("sim.global_transactions{tag}"), self.merged.global_transactions);
        m.counter(&format!("sim.stream_transactions{tag}"), self.merged.stream_transactions);
        m.counter(&format!("sim.compute_issues{tag}"), self.merged.compute_issues);
        m.counter(&format!("sim.nodes_visited{tag}"), self.merged.nodes_visited);
        m.counter(&format!("sim.backtracks{tag}"), self.merged.backtracks);
        m.counter(&format!("sim.retried_queries{tag}"), self.retried_queries);
        m.counter(&format!("sim.degraded_queries{tag}"), self.degraded_queries);
    }
}

/// Derive the per-phase rows from merged counters (one pass over the phases).
fn breakdown_of(merged: &KernelStats) -> [PhaseBreakdown; Phase::COUNT] {
    let n = merged.blocks.max(1) as f64;
    let total_bytes = merged.global_bytes;
    Phase::ALL.map(|phase| {
        let p = merged.phase(phase);
        PhaseBreakdown {
            phase,
            warp_efficiency: p.warp_efficiency(),
            avg_accessed_mb: p.accessed_mb() / n,
            byte_share: if total_bytes == 0 {
                0.0
            } else {
                p.global_bytes as f64 / total_bytes as f64
            },
            stream_fraction: p.stream_fraction(),
        }
    })
}

/// Aggregates a batch of per-block stats under the device cost model.
///
/// `warps_per_block` is the launch configuration (threads per block / 32);
/// it feeds both occupancy and latency hiding.
pub fn launch_blocks(
    cfg: &DeviceConfig,
    warps_per_block: u32,
    per_block: &[KernelStats],
) -> LaunchReport {
    assert!(!per_block.is_empty(), "launch of zero blocks");
    // Merged counters accumulate in submission order — integer sums commute,
    // but keeping one canonical order makes the invariance obvious and free.
    let mut merged = KernelStats::default();
    for b in per_block {
        merged.merge(b);
    }

    let n = per_block.len();
    let mut sum_cycles = 0f64;
    let mut max_cycles = 0f64;
    let mut occupancy_min = u32::MAX;
    let mut occupancy_max = 0u32;
    for b in per_block {
        let c = b.block_cycles(cfg, warps_per_block);
        sum_cycles += c;
        max_cycles = max_cycles.max(c);
        let occ = cfg.occupancy_blocks(b.smem_peak_bytes, warps_per_block);
        occupancy_min = occupancy_min.min(occ);
        occupancy_max = occupancy_max.max(occ);
    }

    // The batch schedules at its hungriest block's occupancy.
    let occupancy = occupancy_min;
    assert!(occupancy > 0, "batch contains an unlaunchable block");
    debug_assert_eq!(occupancy, cfg.occupancy_blocks(merged.smem_peak_bytes, warps_per_block));
    let slots = (cfg.sms as f64) * occupancy as f64;
    let makespan_cycles = (sum_cycles / slots).max(max_cycles);

    LaunchReport {
        avg_response_ms: cfg.cycles_to_ms(sum_cycles / n as f64),
        max_response_ms: cfg.cycles_to_ms(max_cycles),
        makespan_ms: cfg.cycles_to_ms(makespan_cycles),
        warp_efficiency: merged.warp_efficiency(),
        avg_accessed_mb: merged.accessed_mb() / n as f64,
        occupancy,
        occupancy_min,
        occupancy_max,
        retried_queries: 0,
        degraded_queries: 0,
        breakdown: breakdown_of(&merged),
        merged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_stats(transactions: u64, smem: u64) -> KernelStats {
        let mut s = KernelStats {
            lane_slots: 3200,
            active_lanes: 1600,
            compute_issues: 100,
            global_bytes: transactions * 128,
            global_transactions: transactions,
            stream_transactions: 0,
            smem_peak_bytes: smem,
            nodes_visited: 1,
            blocks: 1,
            ..Default::default()
        };
        // Attribute everything to a single phase so the synthetic block keeps
        // the per-phase invariant real blocks have.
        let p = &mut s.phases[Phase::Descend.index()];
        p.lane_slots = s.lane_slots;
        p.active_lanes = s.active_lanes;
        p.compute_issues = s.compute_issues;
        p.global_bytes = s.global_bytes;
        p.global_transactions = s.global_transactions;
        p.nodes_visited = s.nodes_visited;
        s
    }

    #[test]
    fn single_block_response_equals_makespan() {
        let cfg = DeviceConfig::k40();
        let r = launch_blocks(&cfg, 4, &[block_stats(100, 1024)]);
        assert!((r.avg_response_ms - r.makespan_ms).abs() < 1e-12);
        assert_eq!(r.merged.blocks, 1);
        assert!((r.warp_efficiency - 0.5).abs() < 1e-12);
    }

    #[test]
    fn many_small_blocks_pipeline() {
        let cfg = DeviceConfig::k40();
        let blocks: Vec<KernelStats> = (0..240).map(|_| block_stats(100, 1024)).collect();
        let r = launch_blocks(&cfg, 4, &blocks);
        // 240 identical blocks over 15 SMs × 16 resident = 240 slots: the batch
        // finishes in a single wave, so makespan equals one block's time.
        assert_eq!(r.occupancy, 16);
        assert!((r.makespan_ms - r.max_response_ms).abs() < 1e-12);
    }

    #[test]
    fn smem_pressure_reduces_occupancy_and_extends_makespan() {
        let cfg = DeviceConfig::k40();
        let light: Vec<KernelStats> = (0..240).map(|_| block_stats(1000, 1024)).collect();
        let heavy: Vec<KernelStats> = (0..240).map(|_| block_stats(1000, 24 * 1024)).collect();
        let rl = launch_blocks(&cfg, 4, &light);
        let rh = launch_blocks(&cfg, 4, &heavy);
        assert!(rh.occupancy < rl.occupancy);
        assert!(rh.makespan_ms > rl.makespan_ms);
        assert!(rh.avg_response_ms > rl.avg_response_ms, "less hiding = slower blocks");
    }

    #[test]
    fn avg_accessed_mb_is_per_block() {
        let cfg = DeviceConfig::k40();
        let blocks: Vec<KernelStats> = (0..10).map(|_| block_stats(8192, 1024)).collect();
        let r = launch_blocks(&cfg, 4, &blocks);
        assert!((r.avg_accessed_mb - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero blocks")]
    fn empty_batch_panics() {
        launch_blocks(&DeviceConfig::k40(), 4, &[]);
    }

    #[test]
    fn occupancy_spread_reports_per_block_min_and_max() {
        let cfg = DeviceConfig::k40();
        // One shared-memory-hungry block among light ones: the batch schedules
        // at the hungry block's occupancy, but the spread is visible.
        let mut blocks: Vec<KernelStats> = (0..9).map(|_| block_stats(100, 1024)).collect();
        blocks.push(block_stats(100, 24 * 1024));
        let r = launch_blocks(&cfg, 4, &blocks);
        assert_eq!(r.occupancy, r.occupancy_min);
        assert!(r.occupancy_max > r.occupancy_min);
        assert_eq!(r.occupancy_max, cfg.occupancy_blocks(1024, 4));

        // A uniform batch has no spread.
        let uniform: Vec<KernelStats> = (0..4).map(|_| block_stats(100, 1024)).collect();
        let ru = launch_blocks(&cfg, 4, &uniform);
        assert_eq!(ru.occupancy_min, ru.occupancy_max);
    }

    #[test]
    fn phase_breakdown_is_stable_across_repeated_calls() {
        let cfg = DeviceConfig::k40();
        let r = launch_blocks(&cfg, 4, &[block_stats(100, 1024)]);
        let a = r.phase_breakdown();
        let b = r.phase_breakdown();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.phase, y.phase);
            assert_eq!(x.warp_efficiency.to_bits(), y.warp_efficiency.to_bits());
            assert_eq!(x.avg_accessed_mb.to_bits(), y.avg_accessed_mb.to_bits());
        }
    }

    #[test]
    fn phase_breakdown_rows_cover_all_phases_and_shares_sum_to_one() {
        let cfg = DeviceConfig::k40();
        let mut a = block_stats(100, 1024);
        // Move some of block a's bytes into a second phase.
        let moved = 64 * 128u64;
        a.phases[Phase::Descend.index()].global_bytes -= moved;
        a.phases[Phase::LeafScan.index()].global_bytes = moved;
        a.phases[Phase::LeafScan.index()].stream_transactions = 10;
        a.phases[Phase::Descend.index()].global_transactions -= 10;
        a.phases[Phase::LeafScan.index()].global_transactions = 10;
        a.stream_transactions = 10;
        let r = launch_blocks(&cfg, 4, &[a, block_stats(100, 1024)]);

        let rows = r.phase_breakdown();
        assert_eq!(rows.len(), Phase::COUNT);
        let share_sum: f64 = rows.iter().map(|row| row.byte_share).sum();
        assert!((share_sum - 1.0).abs() < 1e-12);
        let leaf = rows.iter().find(|row| row.phase == Phase::LeafScan).unwrap();
        assert_eq!(leaf.stream_fraction, 1.0);
        assert!(leaf.byte_share > 0.0 && leaf.byte_share < 1.0);
        // avg_accessed_mb is per block: phase rows sum to the report's value.
        let mb_sum: f64 = rows.iter().map(|row| row.avg_accessed_mb).sum();
        assert!((mb_sum - r.avg_accessed_mb).abs() < 1e-12);
    }
}
