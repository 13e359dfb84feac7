//! Streaming batched execution: a chunker over the batch runner.
//!
//! A [`QueryStream`] accepts queries one at a time and executes them in
//! fixed-size chunks (240 by default, the paper's batch size). A chunk executes
//! — one [`launch`](crate::launch) — the moment its last query is pushed, so
//! [`QueryStream::poll`] yields it at once. One per-stream [`ScheduleScratch`]
//! arena backs every chunk's scheduling, so a long session reuses the same key
//! and permutation buffers instead of allocating per chunk (the kernels' own
//! scratch is likewise pooled, per host thread).
//!
//! Results surface per chunk as ordinary [`QueryBatchResult`]s, in submission
//! order both across chunks and within each chunk, bit-identical to the batch
//! engine on the same sub-range — scheduling never leaks into what the caller
//! observes (`tests/schedule_parity.rs`).

use std::collections::VecDeque;

use psb_geom::PointSet;
use psb_gpu::{DeviceConfig, FaultPlan};
use psb_metrics::MetricsHandle;
use psb_sstree::{FlatTree, Volumes};

use crate::engine::{launch_resolved, resolve, schedule_order, QueryBatchResult};
use crate::kernels::Kernel;
use crate::options::KernelOptions;
use crate::schedule::ScheduleScratch;

/// Run `f`, observing its wall time in microseconds into histogram `name`;
/// a detached handle reads no clock.
fn timed_us<R>(m: &MetricsHandle, name: &str, f: impl FnOnce() -> R) -> R {
    let started = m.is_attached().then(std::time::Instant::now);
    let out = f();
    if let Some(t0) = started {
        m.observe(name, t0.elapsed().as_secs_f64() * 1e6);
    }
    out
}

/// A chunked streaming front over one index.
///
/// ```
/// use psb_core::{QueryStream, Kernel, KernelOptions, QuerySchedule};
/// # use psb_data::{sample_queries, ClusteredSpec};
/// # use psb_sstree::{build, BuildMethod};
/// # let ps = ClusteredSpec { clusters: 3, points_per_cluster: 200, dims: 4, sigma: 80.0, seed: 7 }
/// #     .generate();
/// # let tree = build(&ps, 16, &BuildMethod::Hilbert);
/// # let queries = sample_queries(&ps, 10, 0.01, 8);
/// let cfg = psb_gpu::DeviceConfig::k40();
/// let opts = KernelOptions { schedule: QuerySchedule::Hilbert, ..Default::default() };
/// let mut stream = QueryStream::with_chunk_size(&tree, Kernel::Psb { k: 4 }, cfg, opts, 4);
/// for q in queries.iter() {
///     stream.push(q);
///     while let Some(chunk) = stream.poll() {
///         assert_eq!(chunk.neighbors.len(), 4); // a full chunk, submission order
///     }
/// }
/// for tail in stream.finish() {
///     assert!(!tail.neighbors.is_empty());
/// }
/// ```
pub struct QueryStream<'t, V: Volumes> {
    tree: &'t FlatTree<V>,
    kernel: Kernel,
    cfg: DeviceConfig,
    opts: KernelOptions,
    chunk: usize,
    /// The chunk currently filling.
    pending: PointSet,
    /// The per-stream scheduling arena, reused by every chunk.
    sched: ScheduleScratch,
    /// Completed chunk results awaiting [`poll`](Self::poll), oldest first.
    done: VecDeque<QueryBatchResult>,
    submitted: u64,
}

impl<'t, V: Volumes> QueryStream<'t, V> {
    /// The default chunk size: the paper's 240-query batch (§V-B).
    pub(crate) const DEFAULT_CHUNK: usize = 240;

    /// A stream executing 240-query chunks.
    pub fn new(
        tree: &'t FlatTree<V>,
        kernel: Kernel,
        cfg: DeviceConfig,
        opts: KernelOptions,
    ) -> Self {
        Self::with_chunk_size(tree, kernel, cfg, opts, Self::DEFAULT_CHUNK)
    }

    /// A stream with an explicit chunk size (at least 1).
    pub fn with_chunk_size(
        tree: &'t FlatTree<V>,
        kernel: Kernel,
        cfg: DeviceConfig,
        opts: KernelOptions,
        chunk: usize,
    ) -> Self {
        assert!(chunk >= 1, "chunk size must be at least 1");
        let pending = PointSet::with_capacity(tree.dims, chunk);
        Self {
            tree,
            kernel,
            cfg,
            opts,
            chunk,
            pending,
            sched: ScheduleScratch::default(),
            done: VecDeque::new(),
            submitted: 0,
        }
    }

    /// Total queries pushed so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Queries accepted but not yet executed (the filling chunk).
    pub fn queued(&self) -> usize {
        self.pending.len()
    }

    /// Submit one query. When this fills the current chunk, the chunk
    /// executes and its result becomes available through
    /// [`poll`](Self::poll).
    pub fn push(&mut self, q: &[f32]) {
        self.pending.push(q);
        self.submitted += 1;
        if self.pending.len() == self.chunk {
            self.execute();
        }
    }

    /// Take the oldest completed chunk result, if any. Chunks complete in
    /// submission order, and each result's per-query vectors are in
    /// submission order within the chunk.
    pub fn poll(&mut self) -> Option<QueryBatchResult> {
        self.done.pop_front()
    }

    /// Drain the stream: execute the partial chunk still filling, and return
    /// every not-yet-polled result, oldest first.
    pub fn finish(&mut self) -> Vec<QueryBatchResult> {
        if !self.pending.is_empty() {
            self.execute();
        }
        self.done.drain(..).collect()
    }

    /// Schedule and launch the filling chunk.
    fn execute(&mut self) {
        let chunk = std::mem::replace(
            &mut self.pending,
            PointSet::with_capacity(self.tree.dims, self.chunk),
        );
        let (m, plan) = (&self.opts.metrics, FaultPlan::none());
        let resolved = resolve(&self.opts, Some(self.kernel), &plan, false);
        let order = timed_us(m, "stream.stage_us", || {
            schedule_order(&chunk, resolved.schedule, &mut self.sched)
        });
        let result = timed_us(m, "stream.chunk_us", || {
            launch_resolved(
                self.tree,
                &chunk,
                self.kernel,
                &self.cfg,
                &self.opts,
                &plan,
                None,
                &resolved,
                order.as_deref(),
            )
        });
        // Chunks are only ever launched non-empty, so the launch cannot fail.
        let (result, _) =
            result.unwrap_or_else(|e| panic!("non-empty chunk failed to launch: {e}"));
        m.counter("stream.chunks", 1);
        m.counter("stream.queries", result.neighbors.len() as u64);
        self.done.push_back(result);
        if let Some(perm) = order {
            self.sched.recycle(perm);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::psb_batch;
    use crate::schedule::QuerySchedule;
    use psb_data::{sample_queries, ClusteredSpec};
    use psb_sstree::{build, BuildMethod, Spheres, SsTree};

    fn setup() -> (PointSet, SsTree, PointSet) {
        let ps =
            ClusteredSpec { clusters: 4, points_per_cluster: 300, dims: 6, sigma: 120.0, seed: 91 }
                .generate();
        let tree = build(&ps, 16, &BuildMethod::Hilbert);
        let queries = sample_queries(&ps, 25, 0.01, 92);
        (ps, tree, queries)
    }

    fn push_all(stream: &mut QueryStream<Spheres>, queries: &PointSet) -> Vec<QueryBatchResult> {
        let mut out = Vec::new();
        for q in queries.iter() {
            stream.push(q);
            while let Some(r) = stream.poll() {
                out.push(r);
            }
        }
        out.extend(stream.finish());
        out
    }

    #[test]
    fn stream_chunks_match_the_batch_engine_bit_for_bit() {
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        for schedule in [QuerySchedule::Submission, QuerySchedule::Hilbert] {
            let opts = KernelOptions { schedule, ..Default::default() };
            let mut stream = QueryStream::with_chunk_size(
                &tree,
                Kernel::Psb { k: 5 },
                cfg.clone(),
                opts.clone(),
                10,
            );
            let chunks = push_all(&mut stream, &queries);
            // 25 queries, chunk 10: two full chunks plus a 5-query tail.
            assert_eq!(chunks.iter().map(|c| c.neighbors.len()).collect::<Vec<_>>(), [10, 10, 5]);
            for (ci, chunk) in chunks.iter().enumerate() {
                let lo = ci * 10;
                let sub = queries
                    .gather(&(lo as u32..(lo + chunk.neighbors.len()) as u32).collect::<Vec<_>>());
                let whole = psb_batch(&tree, &sub, 5, &cfg, &opts).expect("batch");
                assert_eq!(chunk.per_block, whole.per_block);
                for (a, b) in chunk.neighbors.iter().zip(&whole.neighbors) {
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.id, y.id);
                        assert_eq!(x.dist.to_bits(), y.dist.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn a_chunk_is_ready_the_moment_its_last_query_is_pushed() {
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions { schedule: QuerySchedule::Hilbert, ..Default::default() };
        let mut stream =
            QueryStream::with_chunk_size(&tree, Kernel::Psb { k: 3 }, cfg.clone(), opts.clone(), 8);
        for chunk_no in 0..2u32 {
            let lo = chunk_no * 8;
            for i in lo..lo + 7 {
                stream.push(queries.point(i as usize));
                assert!(stream.poll().is_none(), "chunk {chunk_no} is still filling");
            }
            assert_eq!(stream.queued(), 7);
            stream.push(queries.point(lo as usize + 7));
            assert_eq!(stream.queued(), 0);
            let chunk = stream.poll().expect("the chunk executed when it filled");
            assert!(stream.poll().is_none());
            let sub = queries.gather(&(lo..lo + 8).collect::<Vec<_>>());
            let whole = psb_batch(&tree, &sub, 3, &cfg, &opts).expect("batch");
            assert_eq!(chunk.neighbors, whole.neighbors);
            assert_eq!(chunk.per_block, whole.per_block);
            assert_eq!(chunk.report.merged, whole.report.merged);
        }
        assert_eq!(stream.submitted(), 16);
        assert!(stream.finish().is_empty(), "nothing is held back");
    }

    #[test]
    fn all_stream_kernels_drain_cleanly() {
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions { schedule: QuerySchedule::Hilbert, ..Default::default() };
        for kernel in
            [Kernel::Bnb { k: 4 }, Kernel::Restart { k: 4 }, Kernel::Range { radius: 250.0 }]
        {
            let mut stream =
                QueryStream::with_chunk_size(&tree, kernel, cfg.clone(), opts.clone(), 9);
            let chunks = push_all(&mut stream, &queries);
            assert_eq!(chunks.iter().map(|c| c.neighbors.len()).sum::<usize>(), queries.len());
        }
    }

    #[test]
    fn attached_stream_records_chunks() {
        let (_, tree, queries) = setup();
        let cfg = DeviceConfig::k40();
        let reg = psb_metrics::Registry::new();
        let opts = KernelOptions {
            schedule: QuerySchedule::Hilbert,
            metrics: psb_metrics::MetricsHandle::attached(&reg),
            ..Default::default()
        };
        let mut stream = QueryStream::with_chunk_size(&tree, Kernel::Psb { k: 3 }, cfg, opts, 8);
        let chunks = push_all(&mut stream, &queries);
        let snap = reg.snapshot();
        let counter = |name: &str| {
            snap.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v).unwrap_or(0)
        };
        assert_eq!(counter("stream.chunks"), chunks.len() as u64);
        assert_eq!(counter("stream.queries"), queries.len() as u64);
        // The chunk latency histogram saw every chunk.
        let hist = snap
            .histograms
            .iter()
            .find(|(k, _)| k == "stream.chunk_us")
            .map(|(_, h)| *h)
            .expect("chunk histogram");
        assert_eq!(hist.count, chunks.len() as u64);
        for gone in ["stream.staging_us", "stream.execute_us", "stream.overlap_ratio"] {
            assert!(snap.gauges.iter().all(|(k, _)| k != gone), "{gone} is no longer published");
        }
    }

    #[test]
    #[should_panic(expected = "chunk size must be at least 1")]
    fn zero_chunk_is_rejected() {
        let (_, tree, _) = setup();
        let _ = QueryStream::with_chunk_size(
            &tree,
            Kernel::Psb { k: 1 },
            DeviceConfig::k40(),
            KernelOptions::default(),
            0,
        );
    }
}
