//! The metrics registry and the attached/no-op handle.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::histogram::{Histogram, HistogramSummary};
use crate::span::SpanGuard;

/// Aggregated wall-clock statistics for one span path (`"engine/psb/execute"`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanStat {
    /// Times the span was entered.
    pub count: u64,
    /// Total wall-clock nanoseconds spent inside the span (children included).
    pub total_ns: u64,
    /// Nanoseconds spent in the span itself, children excluded.
    pub self_ns: u64,
}

impl SpanStat {
    /// Total milliseconds.
    pub(crate) fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Self (exclusive) milliseconds.
    pub(crate) fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStat>,
}

/// A thread-safe bag of named metrics. Shared via `Arc`; all mutation goes
/// through a [`MetricsHandle`]. `BTreeMap` keys give every exposition format a
/// deterministic order.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

fn lock(m: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    // A thread that panicked mid-increment cannot corrupt counters (all
    // updates are single assignments), so poisoning is survivable.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Registry {
    /// A fresh shared registry.
    pub fn new() -> Arc<Registry> {
        Arc::new(Registry::default())
    }

    pub(crate) fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = lock(&self.inner);
        match inner.counters.get_mut(name) {
            Some(v) => *v = v.saturating_add(delta),
            None => {
                inner.counters.insert(name.to_string(), delta);
            }
        }
    }

    pub(crate) fn gauge_set(&self, name: &str, v: f64) {
        let mut inner = lock(&self.inner);
        match inner.gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                inner.gauges.insert(name.to_string(), v);
            }
        }
    }

    pub(crate) fn observe(&self, name: &str, v: f64) {
        let mut inner = lock(&self.inner);
        match inner.histograms.get_mut(name) {
            Some(h) => h.observe(v),
            None => {
                let mut h = Histogram::new();
                h.observe(v);
                inner.histograms.insert(name.to_string(), h);
            }
        }
    }

    pub(crate) fn span_record(&self, path: &str, total_ns: u64, child_ns: u64) {
        let mut inner = lock(&self.inner);
        let stat = inner.spans.entry(path.to_string()).or_default();
        stat.count += 1;
        stat.total_ns = stat.total_ns.saturating_add(total_ns);
        stat.self_ns = stat.self_ns.saturating_add(total_ns.saturating_sub(child_ns));
    }

    /// An immutable point-in-time copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let inner = lock(&self.inner);
        Snapshot {
            counters: inner.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            gauges: inner.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            histograms: inner.histograms.iter().map(|(k, h)| (k.clone(), h.summary())).collect(),
            spans: inner.spans.iter().map(|(k, &s)| (k.clone(), s)).collect(),
        }
    }
}

/// Point-in-time view of a [`Registry`], sorted by name. All exposition
/// formats render from this, never from the live registry.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Monotone counters.
    pub counters: Vec<(String, u64)>,
    /// Last-write-wins gauges.
    pub gauges: Vec<(String, f64)>,
    /// Latency (or any value) distributions.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Wall-clock span tree, keyed by `/`-joined path.
    pub spans: Vec<(String, SpanStat)>,
}

/// The recording handle: either attached to a shared [`Registry`] or a no-op.
///
/// The no-op handle (the [`Default`]) is the zero-cost path: every method
/// checks one `Option` and returns — no clock read, no lock, no allocation —
/// so code instrumented with a detached handle behaves bit-identically to
/// uninstrumented code.
#[derive(Clone, Default)]
pub struct MetricsHandle(Option<Arc<Registry>>);

impl MetricsHandle {
    /// The detached no-op handle.
    pub fn noop() -> Self {
        Self(None)
    }

    /// A handle recording into `registry`.
    pub fn attached(registry: &Arc<Registry>) -> Self {
        Self(Some(Arc::clone(registry)))
    }

    /// Whether a registry is attached.
    #[inline]
    pub fn is_attached(&self) -> bool {
        self.0.is_some()
    }

    /// The attached registry, if any.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.0.as_ref()
    }

    /// Adds `delta` to the named counter (creating it at 0).
    #[inline]
    pub fn counter(&self, name: &str, delta: u64) {
        if let Some(reg) = &self.0 {
            reg.counter_add(name, delta);
        }
    }

    /// Sets the named gauge.
    #[inline]
    pub fn gauge(&self, name: &str, v: f64) {
        if let Some(reg) = &self.0 {
            reg.gauge_set(name, v);
        }
    }

    /// Records one observation into the named histogram.
    #[inline]
    pub fn observe(&self, name: &str, v: f64) {
        if let Some(reg) = &self.0 {
            reg.observe(name, v);
        }
    }

    /// Enters a wall-clock span; the returned RAII guard records elapsed time
    /// (split into self vs children) into the registry's span tree on drop.
    /// Span nesting is per host thread: a span entered while another is open
    /// on the same thread becomes its child (`parent/child` path).
    #[inline]
    pub fn span(&self, name: &str) -> SpanGuard {
        SpanGuard::enter(self.0.clone(), name)
    }

    /// Times `f` under [`MetricsHandle::span`].
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let _guard = self.span(name);
        f()
    }

    /// A snapshot of the attached registry (empty when detached).
    pub fn snapshot(&self) -> Snapshot {
        self.0.as_ref().map(|r| r.snapshot()).unwrap_or_default()
    }
}

impl std::fmt::Debug for MetricsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_attached() {
            "MetricsHandle(attached)"
        } else {
            "MetricsHandle(noop)"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let reg = Registry::new();
        let m = MetricsHandle::attached(&reg);
        m.counter("a.count", 2);
        m.counter("a.count", 3);
        m.gauge("a.gauge", 1.5);
        m.gauge("a.gauge", 2.5);
        m.observe("a.lat_us", 100.0);
        m.observe("a.lat_us", 200.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("a.count".to_string(), 5)]);
        assert_eq!(snap.gauges, vec![("a.gauge".to_string(), 2.5)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].1.count, 2);
    }

    #[test]
    fn noop_handle_records_nothing_and_snapshots_empty() {
        let m = MetricsHandle::noop();
        assert!(!m.is_attached());
        m.counter("x", 1);
        m.gauge("y", 2.0);
        m.observe("z", 3.0);
        let _ = m.span("s");
        let snap = m.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        let reg = Registry::new();
        let m = MetricsHandle::attached(&reg);
        m.counter("zeta", 1);
        m.counter("alpha", 1);
        m.counter("mid", 1);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn handles_share_one_registry_across_threads() {
        let reg = Registry::new();
        let m = MetricsHandle::attached(&reg);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.counter("shared", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        assert_eq!(reg.snapshot().counters[0].1, 4000);
    }
}
