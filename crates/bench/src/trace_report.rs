//! Offline analysis of recorded kernel traces.
//!
//! The `inspect` binary can record a JSONL trace (`--record`) while running
//! the PSB and branch-and-bound engines, and later (`--trace`) reload it here
//! to print, per recorded kernel label:
//!
//! * a per-phase byte / transaction / warp-efficiency table,
//! * a per-tree-level visit histogram with pruning rates (how many children
//!   the traversal *didn't* descend into, given the tree degree),
//! * a divergence summary (issue-weighted warp efficiency per phase),
//! * k-best list pressure (offered vs accepted candidates).
//!
//! Everything is computed from the event stream alone, so a trace taken on one
//! machine can be inspected on another.

use std::collections::BTreeMap;
use std::io::{self, BufRead};

use psb_gpu::{event_from_jsonl, NodeKind, Phase, PhaseStats, TraceEvent};

/// Aggregated view of one labeled kernel's event stream.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// The kernel label the events were recorded under (e.g. `psb`).
    pub label: String,
    /// Total events consumed.
    pub events: u64,
    /// Per-phase aggregates rebuilt from the events. `compute_issues` stays 0:
    /// the event stream carries issue *shapes* (slots/active), not the
    /// instruction count.
    pub phases: [PhaseStats; Phase::COUNT],
    /// Internal-node visits per tree level (root = 0).
    pub internal_visits: Vec<u64>,
    /// Leaf visits per tree level.
    pub leaf_visits: Vec<u64>,
    /// Backtrack events per tree level they started from.
    pub backtracks_by_level: Vec<u64>,
    /// k-best list candidates accepted.
    pub knn_accepted: u64,
    /// k-best list candidates rejected (out of bound or duplicate).
    pub knn_pruned: u64,
    /// Serving-layer replica failovers (shard router demotions).
    pub failovers: u64,
}

fn bump(v: &mut Vec<u64>, idx: usize) {
    if v.len() <= idx {
        v.resize(idx + 1, 0);
    }
    v[idx] += 1;
}

impl TraceSummary {
    /// Folds one event into the summary.
    pub fn record(&mut self, event: &TraceEvent) {
        self.events += 1;
        match *event {
            TraceEvent::NodeVisit { level, kind, phase } => {
                self.phases[phase.index()].nodes_visited += 1;
                match kind {
                    NodeKind::Internal => bump(&mut self.internal_visits, level as usize),
                    NodeKind::Leaf => bump(&mut self.leaf_visits, level as usize),
                }
            }
            TraceEvent::GlobalLoad { bytes, transactions, streamed, phase } => {
                let p = &mut self.phases[phase.index()];
                p.global_bytes += bytes;
                p.global_transactions += transactions;
                if streamed {
                    p.stream_transactions += transactions;
                }
            }
            TraceEvent::WarpIssue { lane_slots, active_lanes, phase } => {
                let p = &mut self.phases[phase.index()];
                p.lane_slots += lane_slots;
                p.active_lanes += active_lanes;
            }
            TraceEvent::Backtrack { level } => bump(&mut self.backtracks_by_level, level as usize),
            TraceEvent::KnnUpdate { pruned, .. } => {
                if pruned {
                    self.knn_pruned += 1;
                } else {
                    self.knn_accepted += 1;
                }
            }
            TraceEvent::Failover { .. } => self.failovers += 1,
        }
    }

    /// Total bytes across phases.
    pub fn total_bytes(&self) -> u64 {
        self.phases.iter().map(|p| p.global_bytes).sum()
    }

    /// Total node visits across phases.
    pub fn total_visits(&self) -> u64 {
        self.phases.iter().map(|p| p.nodes_visited).sum()
    }

    /// Total backtrack events.
    pub fn total_backtracks(&self) -> u64 {
        self.backtracks_by_level.iter().sum()
    }

    /// Issue-weighted warp efficiency over the whole trace.
    pub fn warp_efficiency(&self) -> f64 {
        let slots: u64 = self.phases.iter().map(|p| p.lane_slots).sum();
        let active: u64 = self.phases.iter().map(|p| p.active_lanes).sum();
        if slots == 0 {
            return 0.0;
        }
        active as f64 / slots as f64
    }

    /// Per-level pruning rate given the tree fan-out: at each level with
    /// internal visits, `1 − (visits below / children exposed)` — the fraction
    /// of exposed subtrees the traversal never entered. Levels whose children
    /// were all entered (or re-entered, for re-fetching kernels) clamp to 0.
    pub fn level_pruning_rates(&self, degree: usize) -> Vec<(usize, f64)> {
        let depth = self.internal_visits.len().max(self.leaf_visits.len());
        let mut rates = Vec::new();
        for level in 0..self.internal_visits.len() {
            let internals = self.internal_visits[level];
            if internals == 0 {
                continue;
            }
            let exposed = internals.saturating_mul(degree as u64);
            let below = if level + 1 < depth {
                self.internal_visits.get(level + 1).copied().unwrap_or(0)
                    + self.leaf_visits.get(level + 1).copied().unwrap_or(0)
            } else {
                0
            };
            let rate = 1.0 - (below as f64 / exposed as f64).min(1.0);
            rates.push((level, rate));
        }
        rates
    }

    /// The per-phase table as printable text.
    pub fn phase_table(&self) -> String {
        let mut out = String::new();
        let total_bytes = self.total_bytes().max(1);
        out.push_str(&format!(
            "  {:<13} {:>10} {:>8} {:>8} {:>8} {:>8} {:>7}\n",
            "phase", "KB", "byte %", "trans", "stream", "visits", "eff %"
        ));
        for phase in Phase::ALL {
            let p = &self.phases[phase.index()];
            if p.lane_slots == 0 && p.global_transactions == 0 && p.nodes_visited == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<13} {:>10.1} {:>7.1}% {:>8} {:>8} {:>8} {:>6.1}%\n",
                phase.name(),
                p.global_bytes as f64 / 1024.0,
                p.global_bytes as f64 * 100.0 / total_bytes as f64,
                p.global_transactions,
                p.stream_transactions,
                p.nodes_visited,
                p.warp_efficiency() * 100.0,
            ));
        }
        out
    }

    /// The per-level visit histogram (with pruning rates) as printable text.
    pub fn level_table(&self, degree: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  {:<6} {:>9} {:>7} {:>10} {:>8}\n",
            "level", "internal", "leaf", "backtrack", "pruned"
        ));
        let rates: BTreeMap<usize, f64> = self.level_pruning_rates(degree).into_iter().collect();
        let depth = self
            .internal_visits
            .len()
            .max(self.leaf_visits.len())
            .max(self.backtracks_by_level.len());
        for level in 0..depth {
            let internal = self.internal_visits.get(level).copied().unwrap_or(0);
            let leaf = self.leaf_visits.get(level).copied().unwrap_or(0);
            let bt = self.backtracks_by_level.get(level).copied().unwrap_or(0);
            let pruned = rates
                .get(&level)
                .map(|r| format!("{:>7.1}%", r * 100.0))
                .unwrap_or_else(|| "      -".into());
            out.push_str(&format!(
                "  {:<6} {:>9} {:>7} {:>10} {}\n",
                level, internal, leaf, bt, pruned
            ));
        }
        out
    }

    /// One-line divergence summary.
    pub fn divergence_line(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for phase in Phase::ALL {
            let p = &self.phases[phase.index()];
            if p.lane_slots > 0 {
                parts.push(format!("{} {:.1}%", phase.name(), p.warp_efficiency() * 100.0));
            }
        }
        format!(
            "  divergence: overall {:.1}% ({})",
            self.warp_efficiency() * 100.0,
            if parts.is_empty() { "no issues recorded".into() } else { parts.join(", ") }
        )
    }
}

/// Reads a JSONL trace and groups it into one [`TraceSummary`] per label, in
/// order of first appearance. A read error (I/O, invalid UTF-8) is returned as
/// is; non-blank lines that don't parse as an event — a truncated last line,
/// foreign text — are skipped and counted in the second field.
pub fn load_trace<R: BufRead>(reader: R) -> io::Result<(Vec<TraceSummary>, usize)> {
    let mut order: Vec<String> = Vec::new();
    let mut by_label: BTreeMap<String, TraceSummary> = BTreeMap::new();
    let mut skipped = 0;
    for line in reader.lines() {
        let line = line?;
        let Some((label, event)) = event_from_jsonl(&line) else {
            skipped += usize::from(!line.trim().is_empty());
            continue;
        };
        let entry = by_label.entry(label.clone()).or_insert_with(|| {
            order.push(label.clone());
            TraceSummary { label: label.clone(), ..Default::default() }
        });
        entry.record(&event);
    }
    Ok((order.into_iter().filter_map(|l| by_label.remove(&l)).collect(), skipped))
}

/// Full printable report for a recorded trace.
pub fn render_trace_report(summaries: &[TraceSummary], degree: usize) -> String {
    let mut out = String::new();
    for s in summaries {
        out.push_str(&format!(
            "[{}] {} events, {:.1} KB accessed, {} node visits, {} backtracks, \
             k-best {} accepted / {} pruned\n",
            s.label,
            s.events,
            s.total_bytes() as f64 / 1024.0,
            s.total_visits(),
            s.total_backtracks(),
            s.knn_accepted,
            s.knn_pruned,
        ));
        out.push_str(&s.phase_table());
        out.push_str(&s.level_table(degree));
        out.push_str(&s.divergence_line());
        out.push_str("\n\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_gpu::event_to_jsonl;
    use std::io::Cursor;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::NodeVisit { level: 0, kind: NodeKind::Internal, phase: Phase::Descend },
            TraceEvent::GlobalLoad {
                bytes: 1024,
                transactions: 8,
                streamed: false,
                phase: Phase::Descend,
            },
            TraceEvent::WarpIssue { lane_slots: 64, active_lanes: 48, phase: Phase::Descend },
            TraceEvent::NodeVisit { level: 1, kind: NodeKind::Leaf, phase: Phase::LeafScan },
            TraceEvent::GlobalLoad {
                bytes: 2048,
                transactions: 16,
                streamed: true,
                phase: Phase::LeafScan,
            },
            TraceEvent::WarpIssue { lane_slots: 32, active_lanes: 32, phase: Phase::LeafScan },
            TraceEvent::Backtrack { level: 1 },
            TraceEvent::KnnUpdate { pruned: false, phase: Phase::ResultMerge },
            TraceEvent::KnnUpdate { pruned: true, phase: Phase::ResultMerge },
        ]
    }

    #[test]
    fn summary_aggregates_by_phase() {
        let mut s = TraceSummary { label: "t".into(), ..Default::default() };
        for e in sample_events() {
            s.record(&e);
        }
        assert_eq!(s.events, 9);
        assert_eq!(s.total_bytes(), 3072);
        assert_eq!(s.phases[Phase::Descend.index()].global_bytes, 1024);
        assert_eq!(s.phases[Phase::LeafScan.index()].stream_transactions, 16);
        assert_eq!(s.internal_visits, vec![1]);
        assert_eq!(s.leaf_visits, vec![0, 1]);
        assert_eq!(s.backtracks_by_level, vec![0, 1]);
        assert_eq!(s.knn_accepted, 1);
        assert_eq!(s.knn_pruned, 1);
        // 48 + 32 active over 64 + 32 slots.
        assert!((s.warp_efficiency() - 80.0 / 96.0).abs() < 1e-12);
    }

    #[test]
    fn pruning_rate_from_fanout() {
        let mut s = TraceSummary::default();
        // 1 internal at level 0 with degree 4 exposing 4 children; 1 internal
        // + 1 leaf actually visited at level 1 => 50% pruned.
        s.record(&TraceEvent::NodeVisit {
            level: 0,
            kind: NodeKind::Internal,
            phase: Phase::Descend,
        });
        s.record(&TraceEvent::NodeVisit {
            level: 1,
            kind: NodeKind::Internal,
            phase: Phase::Descend,
        });
        s.record(&TraceEvent::NodeVisit { level: 1, kind: NodeKind::Leaf, phase: Phase::LeafScan });
        let rates = s.level_pruning_rates(4);
        assert_eq!(rates.len(), 2);
        assert_eq!(rates[0].0, 0);
        assert!((rates[0].1 - 0.5).abs() < 1e-12);
        // Level 1's internal exposed 4 children, none visited below: 100%.
        assert!((rates[1].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jsonl_roundtrip_groups_by_label() {
        let mut text = String::new();
        for e in sample_events() {
            text.push_str(&event_to_jsonl("psb", &e));
            text.push('\n');
        }
        text.push_str(&event_to_jsonl("bnb", &TraceEvent::Backtrack { level: 2 }));
        text.push('\n');
        text.push_str("not json at all\n\n");
        // A recording cut off mid-line (full disk, killed process).
        let cut = event_to_jsonl("psb", &TraceEvent::Backtrack { level: 3 });
        text.push_str(&cut[..cut.len() / 2]);

        let (summaries, skipped) = load_trace(Cursor::new(text)).unwrap();
        assert_eq!(skipped, 2, "the foreign and the truncated line, not the blank one");
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].label, "psb");
        assert_eq!(summaries[0].events, 9);
        assert_eq!(summaries[1].label, "bnb");
        assert_eq!(summaries[1].total_backtracks(), 1);

        let report = render_trace_report(&summaries, 4);
        assert!(report.contains("[psb]"));
        assert!(report.contains("leaf-scan"));
        assert!(report.contains("divergence"));
    }

    #[test]
    fn a_read_error_mid_file_is_returned_not_swallowed() {
        let mut bytes = event_to_jsonl("psb", &TraceEvent::Backtrack { level: 1 }).into_bytes();
        bytes.extend_from_slice(b"\n\xff\xfe not utf-8\n");
        let err = load_trace(Cursor::new(bytes)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn tables_render_without_panicking_on_empty() {
        let s = TraceSummary::default();
        assert!(s.phase_table().contains("phase"));
        assert!(s.level_table(8).contains("level"));
        assert!(s.divergence_line().contains("0.0%"));
    }
}
