//! Lockstep scheduler for *task-parallel* kernels (one query per lane).
//!
//! This models the execution style the paper argues against (§II-B, Fig. 1b):
//! each GPU thread runs its own query and follows its own search path. Under
//! SIMT, a warp can only issue one instruction at a time, so lanes that are at
//! different operations serialize — the scheduler here issues **one warp
//! instruction group per distinct operation tag per step**, with only the lanes
//! at that operation active. Low warp efficiency for irregular tree traversals
//! is therefore an output of the model, not an input.

use crate::config::DeviceConfig;
use crate::stats::KernelStats;
use crate::trace::{Phase, TraceEvent, TraceSink};

/// What a lane does in one lockstep step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneStep {
    /// Operation tag. Lanes in the same warp with equal tags execute together;
    /// distinct tags serialize. Use stable small integers per logical operation
    /// (e.g. 0 = descend, 1 = leaf scan, 2 = backtrack) — [`op_phase`] maps
    /// exactly these three tags onto the traversal [`Phase`]s for the
    /// per-phase breakdown.
    pub op: u32,
    /// Instructions this lane executes for this step.
    pub cost: u64,
    /// Bytes this lane reads from global memory this step (per-lane pointer
    /// chasing: never coalesced across lanes).
    pub global_bytes: u64,
}

/// Phase attribution for task-parallel op tags: the conventional tags from
/// the [`LaneStep::op`] docs map onto their traversal phases, anything else
/// lands in [`Phase::Other`].
#[inline]
pub fn op_phase(op: u32) -> Phase {
    match op {
        0 => Phase::Descend,
        1 => Phase::LeafScan,
        2 => Phase::Backtrack,
        _ => Phase::Other,
    }
}

/// Runs one block's worth of lanes (one query each) to completion in lockstep.
///
/// `step(lane)` advances one lane by one step and returns what it did, or `None`
/// once the lane's query is finished. `smem_block_bytes` is the block's shared-
/// memory footprint (per-lane result lists live in registers/local memory for
/// task-parallel kernels, so this is usually small).
///
/// Counters are attributed to phases via [`op_phase`]; lane steps with the
/// backtrack tag also bump [`KernelStats::backtracks`] (one per lane step —
/// task-parallel lanes carry no tree-level information, so no
/// [`TraceEvent::Backtrack`] is emitted and the level histogram stays empty).
/// With `Some(sink)`, every issue group and per-lane load is mirrored into it;
/// the counters are the same either way.
///
/// Returns the block's counters; feed them to [`crate::launch_blocks`] together
/// with the other blocks of the batch.
pub fn run_task_parallel<L>(
    cfg: &DeviceConfig,
    lanes: &mut [L],
    smem_block_bytes: u64,
    mut step: impl FnMut(&mut L) -> Option<LaneStep>,
    mut sink: Option<&mut dyn TraceSink>,
) -> KernelStats {
    let warp = cfg.warp_size as usize;
    let mut stats =
        KernelStats { blocks: 1, smem_peak_bytes: smem_block_bytes, ..Default::default() };
    let mut done = vec![false; lanes.len()];
    let mut remaining = lanes.len();

    // Scratch reused across steps: (op, cost) per live lane in the warp.
    let mut steps: Vec<(u32, u64)> = Vec::with_capacity(warp);

    while remaining > 0 {
        for (w, warp_lanes) in lanes.chunks_mut(warp).enumerate() {
            let base = w * warp;
            steps.clear();
            for (i, lane) in warp_lanes.iter_mut().enumerate() {
                if done[base + i] {
                    continue;
                }
                match step(lane) {
                    None => {
                        done[base + i] = true;
                        remaining -= 1;
                    }
                    Some(s) => {
                        let phase = op_phase(s.op);
                        steps.push((s.op, s.cost.max(1)));
                        if phase == Phase::Backtrack {
                            stats.backtracks += 1;
                        }
                        if s.global_bytes > 0 {
                            let transactions =
                                s.global_bytes.div_ceil(cfg.transaction_bytes).max(1);
                            stats.global_bytes += s.global_bytes;
                            stats.global_transactions += transactions;
                            let p = &mut stats.phases[phase.index()];
                            p.global_bytes += s.global_bytes;
                            p.global_transactions += transactions;
                            if let Some(sink) = sink.as_deref_mut() {
                                sink.record(TraceEvent::GlobalLoad {
                                    bytes: s.global_bytes,
                                    transactions,
                                    streamed: false,
                                    phase,
                                });
                            }
                        }
                    }
                }
            }
            if steps.is_empty() {
                continue;
            }
            // Serialize distinct ops: one issue group per tag, in first-appearance
            // order; the group runs for the longest lane's cost, shorter lanes
            // idle within it (SIMT re-convergence).
            let mut g = 0;
            while g < steps.len() {
                let tag = steps[g].0;
                let mut max_cost = 0u64;
                let mut active_instr = 0u64;
                for &(op, cost) in steps.iter() {
                    if op == tag {
                        max_cost = max_cost.max(cost);
                        active_instr += cost;
                    }
                }
                let slots = max_cost * cfg.warp_size as u64;
                stats.compute_issues += max_cost;
                stats.lane_slots += slots;
                stats.active_lanes += active_instr;
                let phase = op_phase(tag);
                let p = &mut stats.phases[phase.index()];
                p.compute_issues += max_cost;
                p.lane_slots += slots;
                p.active_lanes += active_instr;
                if let Some(sink) = sink.as_deref_mut() {
                    sink.record(TraceEvent::WarpIssue {
                        lane_slots: slots,
                        active_lanes: active_instr,
                        phase,
                    });
                }
                // Advance to the next yet-unprocessed tag.
                g += 1;
                while g < steps.len() && steps[..g].iter().any(|&(op, _)| op == steps[g].0) {
                    g += 1;
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DeviceConfig {
        DeviceConfig::k40()
    }

    fn untraced<L>(lanes: &mut [L], step: impl FnMut(&mut L) -> Option<LaneStep>) -> KernelStats {
        run_task_parallel(&cfg(), lanes, 0, step, None)
    }

    /// A lane that performs `n` identical steps.
    struct Uniform {
        left: u32,
    }

    fn drive_uniform(lane: &mut Uniform) -> Option<LaneStep> {
        if lane.left == 0 {
            return None;
        }
        lane.left -= 1;
        Some(LaneStep { op: 0, cost: 1, global_bytes: 0 })
    }

    #[test]
    fn uniform_lanes_are_fully_efficient() {
        let mut lanes: Vec<Uniform> = (0..32).map(|_| Uniform { left: 10 }).collect();
        let s = untraced(&mut lanes, drive_uniform);
        assert_eq!(s.compute_issues, 10);
        assert_eq!(s.warp_efficiency(), 1.0);
    }

    #[test]
    fn uneven_lengths_strand_lanes() {
        // One lane runs 10 steps, the rest finish after 1: the warp stays
        // resident for 10 steps with mostly idle lanes.
        let mut lanes: Vec<Uniform> =
            (0..32).map(|i| Uniform { left: if i == 0 { 10 } else { 1 } }).collect();
        let s = untraced(&mut lanes, drive_uniform);
        assert_eq!(s.compute_issues, 10);
        assert_eq!(s.active_lanes, 32 + 9);
        assert!(s.warp_efficiency() < 0.15);
    }

    /// A lane alternating between two ops based on its index parity.
    struct Diverging {
        id: u32,
        left: u32,
    }

    #[test]
    fn divergent_ops_serialize() {
        let mut lanes: Vec<Diverging> = (0..32).map(|id| Diverging { id, left: 5 }).collect();
        let s = untraced(&mut lanes, |lane| {
            if lane.left == 0 {
                return None;
            }
            lane.left -= 1;
            Some(LaneStep { op: lane.id % 2, cost: 1, global_bytes: 0 })
        });
        // Each step issues two groups (op 0 and op 1) of 16 lanes each.
        assert_eq!(s.compute_issues, 10);
        assert!((s.warp_efficiency() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn per_lane_loads_are_uncoalesced() {
        let mut lanes: Vec<Uniform> = (0..32).map(|_| Uniform { left: 1 }).collect();
        let s = untraced(&mut lanes, |lane| {
            if lane.left == 0 {
                return None;
            }
            lane.left -= 1;
            Some(LaneStep { op: 0, cost: 1, global_bytes: 16 })
        });
        // 32 lanes × 16 B each: 512 useful bytes but 32 transactions.
        assert_eq!(s.global_bytes, 512);
        assert_eq!(s.global_transactions, 32);
    }

    #[test]
    fn multiple_warps_do_not_serialize_against_each_other() {
        // 64 lanes where warp 0 uses op 0 and warp 1 uses op 1: both warps stay
        // fully efficient because divergence only exists within a warp.
        let mut lanes: Vec<Diverging> = (0..64).map(|id| Diverging { id, left: 3 }).collect();
        let s = untraced(&mut lanes, |lane| {
            if lane.left == 0 {
                return None;
            }
            lane.left -= 1;
            Some(LaneStep { op: lane.id / 32, cost: 1, global_bytes: 0 })
        });
        assert_eq!(s.warp_efficiency(), 1.0);
    }

    #[test]
    fn variable_cost_groups_use_max_cost() {
        let mut lanes: Vec<Diverging> = (0..2).map(|id| Diverging { id, left: 1 }).collect();
        let s = untraced(&mut lanes, |lane| {
            if lane.left == 0 {
                return None;
            }
            lane.left -= 1;
            Some(LaneStep { op: 0, cost: 1 + lane.id as u64 * 9, global_bytes: 0 })
        });
        // Group runs for max(1, 10) = 10 instructions; active = 1 + 10.
        assert_eq!(s.compute_issues, 10);
        assert_eq!(s.active_lanes, 11);
    }

    #[test]
    fn op_tags_attribute_to_phases_and_sum_to_aggregates() {
        let mut lanes: Vec<Diverging> = (0..32).map(|id| Diverging { id, left: 3 }).collect();
        let s = untraced(&mut lanes, |lane| {
            if lane.left == 0 {
                return None;
            }
            lane.left -= 1;
            // Cycle each lane through descend / leaf scan / backtrack.
            Some(LaneStep { op: lane.left % 3, cost: 1, global_bytes: 8 })
        });
        assert!(s.phase_totals_consistent());
        assert_eq!(s.backtracks, 32);
        assert!(s.phase(Phase::Descend).compute_issues > 0);
        assert!(s.phase(Phase::LeafScan).global_bytes > 0);
        assert!(s.phase(Phase::Backtrack).lane_slots > 0);
        assert_eq!(s.phase(Phase::Other).lane_slots, 0);
    }

    #[test]
    fn traced_run_mirrors_counters_into_events() {
        use crate::trace::VecSink;
        let drive = |lane: &mut Uniform| {
            if lane.left == 0 {
                return None;
            }
            lane.left -= 1;
            Some(LaneStep { op: 0, cost: 1, global_bytes: 16 })
        };
        let mut silent: Vec<Uniform> = (0..32).map(|_| Uniform { left: 2 }).collect();
        let baseline = run_task_parallel(&cfg(), &mut silent, 0, drive, None);

        let mut sink = VecSink::default();
        let mut lanes: Vec<Uniform> = (0..32).map(|_| Uniform { left: 2 }).collect();
        let traced = run_task_parallel(&cfg(), &mut lanes, 0, drive, Some(&mut sink));
        assert_eq!(baseline, traced);
        let issued: u64 = sink
            .events
            .iter()
            .map(|e| match e {
                TraceEvent::WarpIssue { active_lanes, .. } => *active_lanes,
                _ => 0,
            })
            .sum();
        let loaded: u64 = sink
            .events
            .iter()
            .map(|e| match e {
                TraceEvent::GlobalLoad { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum();
        assert_eq!(issued, traced.active_lanes);
        assert_eq!(loaded, traced.global_bytes);
    }

    #[test]
    fn empty_lane_set_returns_clean_stats() {
        let mut lanes: Vec<Uniform> = Vec::new();
        let s = run_task_parallel(&cfg(), &mut lanes, 64, drive_uniform, None);
        assert_eq!(s.compute_issues, 0);
        assert_eq!(s.smem_peak_bytes, 64);
        assert_eq!(s.blocks, 1);
    }
}
