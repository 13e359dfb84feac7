//! Serving-grade telemetry for the psb workspace.
//!
//! The simulator's [`KernelStats`](../psb_gpu/struct.KernelStats.html) answer
//! what the *modeled* GPU did; this crate answers what the *host* is doing
//! while it serves traffic: per-shard query counts, tail latency over time,
//! failover rates, and where wall-clock time goes inside the engine. Three
//! pieces:
//!
//! * **[`Registry`]** — a thread-safe bag of named [counters](MetricsHandle::counter),
//!   [gauges](MetricsHandle::gauge), and fixed-bucket log-spaced latency
//!   [histograms](MetricsHandle::observe) with exact-rank p50/p90/p99/p999
//!   extraction.
//! * **[`SpanGuard`]** — an RAII scoped-span wall-clock profiler
//!   (`metrics.span("router/merge")`) that aggregates into a parent/child
//!   self-vs-total time tree, one stack per host thread.
//! * **Exposition** — [`render_prometheus`], [`render_json`], and the
//!   human-facing [`render_span_tree`], all derived from an immutable
//!   [`Snapshot`].
//!
//! Everything hangs off a [`MetricsHandle`], which is either *attached* to a
//! shared registry or a *no-op* (the default). The no-op handle is the same
//! pattern as the simulator's untraced block: every recording method is an
//! inlined branch on `None`, no clock is read, no lock is taken — so a run
//! with no registry attached is bit-identical to one before this crate
//! existed (pinned by the workspace `metrics_parity` tests).
//!
//! Metric names are dot-separated lowercase (`serve.shard_visits`); an
//! optional trailing `{key="value"}` label set is preserved through both
//! exposition formats (`serve.shard_visits{shard="3"}`).

mod expose;
mod histogram;
mod registry;
mod span;

pub use expose::{render_json, render_prometheus, render_span_tree};
pub use histogram::{Histogram, HistogramSummary, BUCKETS};
pub use registry::{MetricsHandle, Registry, Snapshot, SpanStat};
pub use span::SpanGuard;
