//! Structured tracing of simulated kernel execution.
//!
//! The simulator's aggregate [`KernelStats`](crate::KernelStats) answer *how
//! much* a kernel cost; this module answers *where* and *why*. Two layers:
//!
//! * **Phases** ([`Phase`]) attribute every metered instruction, byte, and
//!   node visit to the traversal stage that caused it (descend / leaf-scan /
//!   backtrack / result-merge). Phase attribution is **always on** — it is
//!   plain counter arithmetic inside [`Block`](crate::Block), costs nothing
//!   observable, and by construction sums exactly to the aggregates.
//! * **Events** ([`TraceEvent`]) are an opt-in stream of individual metering
//!   calls delivered to a [`TraceSink`]. Untraced is `None` where a sink is
//!   taken (`Option<&mut dyn TraceSink>`): a metered block then pays one
//!   predictable branch per event and builds none, an unmetered block
//!   nothing. [`VecSink`] records in memory; [`JsonlSink`] writes one JSON
//!   object per line for offline analysis (`inspect --trace`).
//!
//! Sinks observe the simulation, never steer it: no `TraceSink` method returns
//! data to the kernel, so a recording run is bit-identical to a silent one
//! (enforced by the workspace `observability` tests).

use std::io::{self, Write};

/// Traversal stage of a kNN kernel, per the paper's Algorithm 1 structure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Internal-node work: fetch, child MINDIST/MAXDIST, child selection.
    Descend,
    /// Leaf work: fetching leaf points and computing point distances
    /// (including the sibling-link linear scan PSB is named for).
    LeafScan,
    /// Returning upward: parent-link hops, branch-and-bound re-fetches,
    /// restart-from-root transitions.
    Backtrack,
    /// Maintaining the k-best list: insertions, bound updates, final sort.
    ResultMerge,
    /// Everything outside the four named stages (setup, barriers, output).
    #[default]
    Other,
}

impl Phase {
    /// Number of phases (the length of per-phase arrays).
    pub const COUNT: usize = 5;

    /// All phases, in per-phase array index order.
    pub const ALL: [Phase; Phase::COUNT] =
        [Phase::Descend, Phase::LeafScan, Phase::Backtrack, Phase::ResultMerge, Phase::Other];

    /// Index of this phase into per-phase arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name (used in JSONL traces and reports).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Descend => "descend",
            Phase::LeafScan => "leaf-scan",
            Phase::Backtrack => "backtrack",
            Phase::ResultMerge => "result-merge",
            Phase::Other => "other",
        }
    }

    /// Inverse of [`Phase::name`].
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Kind of tree node in a [`TraceEvent::NodeVisit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeKind {
    Internal,
    Leaf,
}

impl NodeKind {
    pub fn name(self) -> &'static str {
        match self {
            NodeKind::Internal => "internal",
            NodeKind::Leaf => "leaf",
        }
    }

    pub fn from_name(name: &str) -> Option<NodeKind> {
        match name {
            "internal" => Some(NodeKind::Internal),
            "leaf" => Some(NodeKind::Leaf),
            _ => None,
        }
    }
}

/// One metering call, as seen by a [`TraceSink`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// A tree node was visited. `level` is the depth from the root (root = 0).
    NodeVisit { level: u32, kind: NodeKind, phase: Phase },
    /// A global-memory read. `streamed` marks sequentially predictable
    /// addresses (sibling-leaf scans, brute tiles) that prefetch for free.
    GlobalLoad { bytes: u64, transactions: u64, streamed: bool, phase: Phase },
    /// A warp-instruction group issue. `lane_slots / active_lanes` is the
    /// divergence of this issue alone.
    WarpIssue { lane_slots: u64, active_lanes: u64, phase: Phase },
    /// An upward move in the tree, from depth `level`.
    Backtrack { level: u32 },
    /// A candidate offered to the k-best list. `pruned` means the candidate
    /// was rejected (by the current k-th bound, or as a duplicate).
    KnnUpdate { pruned: bool, phase: Phase },
    /// The serving layer demoted a faulted replica and re-routed the query
    /// (shard router failover ladder).
    Failover { shard: u32, replica: u32 },
}

/// Receiver for [`TraceEvent`]s. Implementations must be passive observers:
/// nothing flows back into the kernel.
///
/// `Send`, because a [`Block`](crate::Block) holds its sink by `&mut` and the
/// wave engine's per-query blocks are handed to host worker threads.
pub trait TraceSink: Send {
    fn record(&mut self, event: TraceEvent);
}

/// In-memory recording sink.
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    pub events: Vec<TraceEvent>,
}

impl VecSink {
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// Streaming JSONL sink: one JSON object per event, tagged with a kernel
/// label so several kernels can interleave in one file.
pub struct JsonlSink<W: Write> {
    label: String,
    writer: W,
}

impl<W: Write> JsonlSink<W> {
    pub fn new(label: impl Into<String>, writer: W) -> Self {
        Self { label: label.into(), writer }
    }

    /// Flush and recover the inner writer.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: TraceEvent) {
        // Trace recording is best-effort; an I/O error must not abort the
        // simulation (and must not change its results either way).
        let _ = writeln!(self.writer, "{}", event_to_jsonl(&self.label, &event));
    }
}

/// Serializes one event as a single-line JSON object.
pub fn event_to_jsonl(label: &str, event: &TraceEvent) -> String {
    match event {
        TraceEvent::NodeVisit { level, kind, phase } => format!(
            r#"{{"label":"{label}","ev":"node_visit","level":{level},"kind":"{}","phase":"{}"}}"#,
            kind.name(),
            phase.name()
        ),
        TraceEvent::GlobalLoad { bytes, transactions, streamed, phase } => format!(
            r#"{{"label":"{label}","ev":"global_load","bytes":{bytes},"transactions":{transactions},"streamed":{streamed},"phase":"{}"}}"#,
            phase.name()
        ),
        TraceEvent::WarpIssue { lane_slots, active_lanes, phase } => format!(
            r#"{{"label":"{label}","ev":"warp_issue","lane_slots":{lane_slots},"active_lanes":{active_lanes},"phase":"{}"}}"#,
            phase.name()
        ),
        TraceEvent::Backtrack { level } => {
            format!(r#"{{"label":"{label}","ev":"backtrack","level":{level}}}"#)
        }
        TraceEvent::KnnUpdate { pruned, phase } => format!(
            r#"{{"label":"{label}","ev":"knn_update","pruned":{pruned},"phase":"{}"}}"#,
            phase.name()
        ),
        TraceEvent::Failover { shard, replica } => {
            format!(r#"{{"label":"{label}","ev":"failover","shard":{shard},"replica":{replica}}}"#)
        }
    }
}

/// Parses one line produced by [`event_to_jsonl`]. Returns `(label, event)`,
/// or `None` for blank/foreign lines.
pub fn event_from_jsonl(line: &str) -> Option<(String, TraceEvent)> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    let label = json_str(line, "label")?;
    let event = match json_str(line, "ev")?.as_str() {
        "node_visit" => TraceEvent::NodeVisit {
            level: json_u64(line, "level")? as u32,
            kind: NodeKind::from_name(&json_str(line, "kind")?)?,
            phase: Phase::from_name(&json_str(line, "phase")?)?,
        },
        "global_load" => TraceEvent::GlobalLoad {
            bytes: json_u64(line, "bytes")?,
            transactions: json_u64(line, "transactions")?,
            streamed: json_bool(line, "streamed")?,
            phase: Phase::from_name(&json_str(line, "phase")?)?,
        },
        "warp_issue" => TraceEvent::WarpIssue {
            lane_slots: json_u64(line, "lane_slots")?,
            active_lanes: json_u64(line, "active_lanes")?,
            phase: Phase::from_name(&json_str(line, "phase")?)?,
        },
        "backtrack" => TraceEvent::Backtrack { level: json_u64(line, "level")? as u32 },
        "knn_update" => TraceEvent::KnnUpdate {
            pruned: json_bool(line, "pruned")?,
            phase: Phase::from_name(&json_str(line, "phase")?)?,
        },
        "failover" => TraceEvent::Failover {
            shard: json_u64(line, "shard")? as u32,
            replica: json_u64(line, "replica")? as u32,
        },
        _ => return None,
    };
    Some((label, event))
}

// Minimal flat-object JSON field extraction. The emitter above never nests
// objects or escapes quotes, so scanning for `"key":` is sound.
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest
        .char_indices()
        .find(|&(i, c)| (c == ',' || c == '}') && !in_string(rest, i))
        .map(|(i, _)| i)?;
    Some(rest[..end].trim())
}

fn in_string(s: &str, upto: usize) -> bool {
    s[..upto].bytes().filter(|&b| b == b'"').count() % 2 == 1
}

fn json_str(line: &str, key: &str) -> Option<String> {
    let raw = json_field(line, key)?;
    raw.strip_prefix('"')?.strip_suffix('"').map(str::to_string)
}

fn json_u64(line: &str, key: &str) -> Option<u64> {
    json_field(line, key)?.parse().ok()
}

fn json_bool(line: &str, key: &str) -> Option<bool> {
    match json_field(line, key)? {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_roundtrip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("bogus"), None);
        assert_eq!(Phase::ALL[Phase::Backtrack.index()], Phase::Backtrack);
    }

    #[test]
    fn vec_sink_records_in_order() {
        let mut sink = VecSink::new();
        sink.record(TraceEvent::Backtrack { level: 2 });
        sink.record(TraceEvent::KnnUpdate { pruned: true, phase: Phase::ResultMerge });
        assert_eq!(sink.events.len(), 2);
        assert_eq!(sink.events[0], TraceEvent::Backtrack { level: 2 });
    }

    #[test]
    fn jsonl_roundtrips_every_event_kind() {
        let events = [
            TraceEvent::NodeVisit { level: 3, kind: NodeKind::Leaf, phase: Phase::LeafScan },
            TraceEvent::GlobalLoad {
                bytes: 4096,
                transactions: 32,
                streamed: true,
                phase: Phase::LeafScan,
            },
            TraceEvent::WarpIssue { lane_slots: 64, active_lanes: 17, phase: Phase::Descend },
            TraceEvent::Backtrack { level: 5 },
            TraceEvent::KnnUpdate { pruned: false, phase: Phase::ResultMerge },
            TraceEvent::Failover { shard: 3, replica: 1 },
        ];
        // Exhaustiveness witness: this match has no wildcard arm, so adding a
        // TraceEvent variant fails to compile until it gets an arm here — and
        // the arm's slot stays zero until an exemplar joins the list above. A
        // new variant cannot silently skip the serde round-trip.
        let mut covered = [0u32; 6];
        for ev in &events {
            match ev {
                TraceEvent::NodeVisit { .. } => covered[0] += 1,
                TraceEvent::GlobalLoad { .. } => covered[1] += 1,
                TraceEvent::WarpIssue { .. } => covered[2] += 1,
                TraceEvent::Backtrack { .. } => covered[3] += 1,
                TraceEvent::KnnUpdate { .. } => covered[4] += 1,
                TraceEvent::Failover { .. } => covered[5] += 1,
            }
        }
        assert!(
            covered.iter().all(|&c| c >= 1),
            "every TraceEvent variant needs a round-trip exemplar: {covered:?}"
        );
        for ev in events {
            let line = event_to_jsonl("psb", &ev);
            let (label, back) = event_from_jsonl(&line).expect(&line);
            assert_eq!(label, "psb");
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn failover_roundtrips_extreme_ids() {
        // The serving layer's failover events carry shard/replica ids that a
        // large deployment can push high; the u32 extremes must survive serde.
        for ev in [
            TraceEvent::Failover { shard: 0, replica: 0 },
            TraceEvent::Failover { shard: u32::MAX, replica: u32::MAX },
        ] {
            let line = event_to_jsonl("serve", &ev);
            let (label, back) = event_from_jsonl(&line).expect(&line);
            assert_eq!(label, "serve");
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn jsonl_sink_writes_readable_stream() {
        let mut sink = JsonlSink::new("bnb", Vec::new());
        sink.record(TraceEvent::Backtrack { level: 1 });
        sink.record(TraceEvent::WarpIssue {
            lane_slots: 32,
            active_lanes: 32,
            phase: Phase::Other,
        });
        let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
        let parsed: Vec<_> = text.lines().filter_map(event_from_jsonl).collect();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "bnb");
        assert_eq!(
            parsed[1].1,
            TraceEvent::WarpIssue { lane_slots: 32, active_lanes: 32, phase: Phase::Other }
        );
    }

    #[test]
    fn foreign_lines_do_not_parse() {
        let text = "\n# comment\n{\"label\":\"x\",\"ev\":\"backtrack\",\"level\":0}\n";
        assert_eq!(text.lines().filter_map(event_from_jsonl).count(), 1);
    }
}
