//! Harness-side spans: one record around every call the benchmark makes into
//! a layer of the program. Spans stay in memory and are written as JSONL when
//! the run ends; spans *inside* the program are a later issue, so a layer's
//! interior is resolved by peeling ([`crate::peel`]), not by child spans.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{self, Value};

/// One call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Entry point, prefixed with its module (`engine.psb_batch`).
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<u32>,
    /// Batch (or probe repetition) the call belongs to: spans of one request
    /// share it.
    pub batch: u64,
}

/// The recorder. Disabled, `begin`/`end` are one branch each and read no
/// clock — the end-to-end pass runs that way.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggling the tracer inside an open span");
        self.enabled = enabled;
    }

    /// Opens a span; pair with [`Tracer::end`].
    #[inline]
    pub fn begin(&mut self, name: &'static str, batch: u64) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name: Cow::Borrowed(name),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            batch,
        });
        self.open.push(id);
        Some(id)
    }

    #[inline]
    pub fn end(&mut self, id: Option<u32>) {
        let Some(id) = id else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id as usize].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let line = Value::obj([
            ("name", Value::str(&s.name)),
            ("start_ns", Value::Num(s.start_ns as f64)),
            ("end_ns", Value::Num(s.end_ns as f64)),
            ("parent", s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p)))),
            ("batch", Value::Num(s.batch as f64)),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

pub fn from_jsonl(text: &str) -> Result<Vec<Span>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let num = |k: &str| {
                v.get(k).and_then(Value::as_f64).ok_or(format!("line {}: missing {k}", i + 1))
            };
            Ok(Span {
                name: Cow::Owned(
                    v.get("name")
                        .and_then(Value::as_str)
                        .ok_or(format!("line {}: missing name", i + 1))?
                        .to_string(),
                ),
                start_ns: num("start_ns")? as u64,
                end_ns: num("end_ns")? as u64,
                parent: match v.get("parent") {
                    Some(Value::Num(p)) => Some(*p as u32),
                    _ => None,
                },
                batch: num("batch")? as u64,
            })
        })
        .collect()
}

/// Per span name: `(calls, total ns, self ns)`, where self time is the span's
/// duration minus what its direct children cover (choosing-metrics §4).
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name.to_string()).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(child_ns[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_round_trips_and_keeps_parent_links() {
        let mut t = Tracer::new(true);
        let batch = t.begin("client.batch", 7);
        let call = t.begin("engine.psb_batch", 7);
        t.end(call);
        t.end(batch);
        let lone = t.begin("client.ref_scan", 8);
        t.end(lone);
        let spans = t.spans().to_vec();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let text = to_jsonl(&spans);
        assert_eq!(text.lines().count(), 3);
        assert_eq!(from_jsonl(&text), Ok(spans));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("client.batch", 0);
        assert_eq!(id, None);
        t.end(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |name: &'static str, start_ns, end_ns, parent| Span {
            name: Cow::Borrowed(name),
            start_ns,
            end_ns,
            parent,
            batch: 0,
        };
        let spans = vec![
            span("top", 0, 100, None),
            span("mid", 10, 70, Some(0)),
            span("leaf", 20, 50, Some(1)),
            span("mid", 75, 95, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["top"], (1, 100, 20));
        assert_eq!(st["mid"], (2, 80, 50));
        assert_eq!(st["leaf"], (1, 30, 30));
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        assert!(from_jsonl("{\"name\": \"x\"}\n").is_err());
        assert!(from_jsonl("not json\n").is_err());
    }
}
