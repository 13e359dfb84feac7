//! The data-parallel thread-block execution context.
//!
//! A [`Block`] meters a kernel written in the paper's data-parallel style: all
//! threads of the block cooperate on one query, processing one tree node (or one
//! tile of points) at a time. The closure passed to [`Block::par_for`] runs
//! sequentially on the host — the *results* are exact — while the metering
//! reflects how the same work would issue on a warp-synchronous device.
//!
//! Masked issue accounting: a warp instruction always occupies `warp_size` lane
//! slots; only the active lanes count toward efficiency. A `par_for` over `n`
//! items with `t` threads runs `ceil(n / t)` rounds; each round issues only the
//! warps that have at least one active lane (idle whole warps are skipped by the
//! hardware scheduler and cost nothing — same as CUDA).
//!
//! Every metering call is attributed to the block's current [`Phase`] (set by
//! the kernel via [`Block::set_phase`]) so [`KernelStats`] carries a per-phase
//! breakdown, and optionally mirrored as a [`TraceEvent`] into a
//! [`TraceSink`] when the block was built with `Some` sink in
//! [`Block::with_sink`]. Sinks are write-only observers: the metered counters
//! are identical with or without one. An untraced block holds `None`, and
//! each event then costs one predictable branch on it — there is no empty
//! sink whose indirect call the optimizer would have to see through.

use crate::config::DeviceConfig;
use crate::fault::{DeviceFault, FaultState};
use crate::stats::{KernelStats, MAX_TRACKED_LEVELS};
use crate::trace::{NodeKind, Phase, TraceEvent, TraceSink};

/// Metering context for one simulated thread block.
///
/// ## The `METER` parameter
///
/// `METER = true` (the default, so every existing `Block<'_>` annotation
/// still means the metered simulator) runs the full accounting above.
/// `METER = false` is the zero-accounting fast path: every counter,
/// trace-event, and fault hook body compiles out of the hot loop — `par_for`
/// still invokes its closure for every item (results stay exact and
/// bit-identical), but the block's [`KernelStats`] stay at their launch
/// values. Because fault *detection* (truncation latch, watchdog) lives in
/// the compiled-out accounting, an unmetered block refuses to carry a fault
/// state ([`Block::set_faults`] asserts); launch paths that inject faults
/// must stay metered. Shared-memory reservation remains fully functional in
/// both modes — the k-best list's hybrid split is sized from it, and it runs
/// once per launch, not per load.
pub struct Block<'s, const METER: bool = true> {
    threads: u32,
    warp_size: u32,
    transaction_bytes: u64,
    stats: KernelStats,
    smem_in_use: u64,
    phase: Phase,
    sink: Option<&'s mut dyn TraceSink>,
    faults: Option<FaultState>,
}

impl<const METER: bool> std::fmt::Debug for Block<'_, METER> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Block")
            .field("threads", &self.threads)
            .field("warp_size", &self.warp_size)
            .field("metered", &METER)
            .field("phase", &self.phase)
            .field("traced", &self.sink.is_some())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<'s, const METER: bool> Block<'s, METER> {
    /// A block of `threads` threads on the given device. `threads` is rounded up
    /// to a whole number of warps (CUDA launches always are).
    pub fn new(threads: u32, cfg: &DeviceConfig) -> Self {
        assert!(threads > 0, "a block needs at least one thread");
        let threads = threads.div_ceil(cfg.warp_size) * cfg.warp_size;
        Self {
            threads,
            warp_size: cfg.warp_size,
            transaction_bytes: cfg.transaction_bytes,
            stats: KernelStats { blocks: 1, ..Default::default() },
            smem_in_use: 0,
            phase: Phase::Other,
            sink: None,
            faults: None,
        }
    }

    /// Like [`Block::new`], but mirroring every metering call into `sink` as
    /// [`TraceEvent`]s when there is one. The metered counters are unaffected
    /// by the sink; `None` is [`Block::new`].
    pub fn with_sink(
        threads: u32,
        cfg: &DeviceConfig,
        sink: Option<&'s mut dyn TraceSink>,
    ) -> Self {
        Self { sink, ..Self::new(threads, cfg) }
    }

    /// Attach (or detach, with `None`) a per-launch fault state. Without one,
    /// every fault hook is a no-op and the block behaves exactly as before —
    /// the same no-op-parity discipline [`Block::with_sink`] follows.
    ///
    /// An unmetered block (`METER = false`) cannot carry a fault state: the
    /// truncation latch and watchdog live inside the compiled-out accounting,
    /// so injected faults would silently never be detected. Attaching one is
    /// a launch-path bug and asserts.
    pub fn set_faults(&mut self, faults: Option<FaultState>) {
        assert!(
            METER || faults.is_none(),
            "fault injection requires a metered block (fault detection lives in the accounting)"
        );
        self.faults = faults;
    }

    /// Whether a fault state is attached. Kernels use this to skip
    /// value-identity fault sweeps entirely on the (typical) fault-free path:
    /// with no state attached [`Block::fault_f32`] is the identity and meters
    /// nothing, so skipping the sweep changes neither values nor counters.
    #[inline]
    pub fn has_faults(&self) -> bool {
        self.faults.is_some()
    }

    /// Pass a value loaded from global memory through the fault injector.
    /// Without an attached [`FaultState`] this returns `v` untouched and
    /// meters nothing.
    #[inline]
    pub fn fault_f32(&mut self, v: f32) -> f32 {
        match &mut self.faults {
            None => v,
            Some(f) => f.maybe_flip_f32(v),
        }
    }

    /// Poll for a detected device fault. Kernels call this at their loop
    /// heads and abort with a typed error when it returns `Some`. Order:
    /// sticky ECC flag, then sticky truncation, then the watchdog budget
    /// (checked against the block's issue counter).
    pub fn device_fault(&self) -> Option<DeviceFault> {
        let f = self.faults.as_ref()?;
        if f.ecc_flagged() {
            return Some(DeviceFault::EccError);
        }
        if f.truncated() {
            return Some(DeviceFault::TruncatedLoad);
        }
        if let Some(budget) = f.watchdog_budget {
            if self.stats.compute_issues > budget {
                return Some(DeviceFault::Watchdog);
            }
        }
        None
    }

    /// Threads in the block (multiple of the warp size).
    #[inline]
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// Warps in the block.
    #[inline]
    pub fn warps(&self) -> u32 {
        self.threads / self.warp_size
    }

    /// Set the traversal phase subsequent metering is attributed to; returns
    /// the previous phase so scoped helpers can restore it.
    #[inline]
    pub fn set_phase(&mut self, phase: Phase) -> Phase {
        std::mem::replace(&mut self.phase, phase)
    }

    /// The phase currently being attributed.
    #[inline]
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Emit an event to the sink, if one is attached. The closure only runs
    /// when a sink is present: an untraced metered block pays one branch on
    /// `None`, an unmetered one nothing.
    #[inline]
    pub fn emit(&mut self, event: impl FnOnce() -> TraceEvent) {
        if !METER {
            return;
        }
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(event());
        }
    }

    /// [`emit`](Self::emit) per item of `items`: the event `event` returns for
    /// it, if any. The sink is looked up once, before the walk, so an
    /// unmetered block or one without a sink walks nothing.
    #[inline]
    pub fn emit_each<T>(&mut self, items: &[T], mut event: impl FnMut(&T) -> Option<TraceEvent>) {
        if !METER {
            return;
        }
        if let Some(sink) = self.sink.as_deref_mut() {
            for e in items.iter().filter_map(&mut event) {
                sink.record(e);
            }
        }
    }

    /// Issue `warps` warp instructions of `cost` each with `active` lanes
    /// enabled out of whole-warp `slots`. The fundamental metering primitive.
    fn issue(&mut self, warps: u64, active: u64, cost: u64) {
        if !METER {
            return;
        }
        let slots = warps * self.warp_size as u64 * cost;
        let active = active * cost;
        let issues = warps * cost;
        self.stats.lane_slots += slots;
        self.stats.active_lanes += active;
        self.stats.compute_issues += issues;
        let p = &mut self.stats.phases[self.phase.index()];
        p.lane_slots += slots;
        p.active_lanes += active;
        p.compute_issues += issues;
        let phase = self.phase;
        self.emit(|| TraceEvent::WarpIssue { lane_slots: slots, active_lanes: active, phase });
    }

    /// Data-parallel loop: `n` items distributed over the block's threads, each
    /// item costing `cost_per_item` instructions. `f` is invoked for every item
    /// index in order (sequentially, on the host).
    pub fn par_for(&mut self, n: usize, cost_per_item: u64, mut f: impl FnMut(usize)) {
        // The metering rounds compile out unmetered; the work loop below
        // ALWAYS runs — results are exact in both modes.
        if METER {
            let t = self.threads as usize;
            let mut remaining = n;
            while remaining > 0 {
                let round = remaining.min(t);
                // Only warps holding at least one of the `round` items issue.
                let active_warps = (round as u64).div_ceil(self.warp_size as u64);
                self.issue(active_warps, round as u64, cost_per_item.max(1));
                remaining -= round;
            }
        }
        for i in 0..n {
            f(i);
        }
    }

    /// Meter a warp-synchronous tree reduction over `n` values held one per
    /// thread: `ceil(log2)` halving steps, each issuing only the warps that still
    /// hold active lanes. The caller computes the actual reduction on the host.
    pub fn par_reduce(&mut self, n: usize, cost_per_step: u64) {
        if !METER {
            return;
        }
        if n <= 1 {
            return;
        }
        let mut width = n.next_power_of_two() / 2;
        while width >= 1 {
            let active = width.min(n) as u64;
            let warps = active.div_ceil(self.warp_size as u64);
            self.issue(warps, active, cost_per_step.max(1));
            if width == 1 {
                break;
            }
            width /= 2;
        }
    }

    /// Meter a k-th smallest selection over `n` values (the paper's
    /// `parReduceFindKthMinMaxDist`). Modeled as a warp-wide bitonic partial sort:
    /// `log2(n) · (log2(n)+1) / 2` compare-exchange stages over all lanes. For
    /// `k == 1` a plain min-reduction is cheaper and used instead.
    pub fn par_kth_select(&mut self, n: usize, k: usize) {
        if !METER {
            return;
        }
        if n <= 1 {
            return;
        }
        if k <= 1 {
            self.par_reduce(n, 1);
            return;
        }
        let stages = {
            let l = (n.next_power_of_two().trailing_zeros()) as u64;
            l * (l + 1) / 2
        };
        let warps = (n as u64).div_ceil(self.warp_size as u64);
        self.issue(warps, n as u64, stages);
    }

    /// A single-lane serial section of `instructions` instructions (e.g. the PSB
    /// child-scan loop, lines 16–26 of Algorithm 1): one active lane, whole warp
    /// occupied. This is where data-parallel kernels lose efficiency.
    pub fn scalar(&mut self, instructions: u64) {
        self.issue(1, 1, instructions.max(1));
    }

    /// A block-wide barrier (`__syncthreads()`): every warp issues once.
    pub fn sync(&mut self) {
        if !METER {
            return;
        }
        let w = self.warps() as u64;
        self.issue(w, self.threads as u64, 1);
    }

    fn account_load(&mut self, bytes: u64, transactions: u64, streamed: bool) {
        if !METER {
            return;
        }
        self.stats.global_bytes += bytes;
        self.stats.global_transactions += transactions;
        let p = &mut self.stats.phases[self.phase.index()];
        p.global_bytes += bytes;
        p.global_transactions += transactions;
        if streamed {
            self.stats.stream_transactions += transactions;
            self.stats.phases[self.phase.index()].stream_transactions += transactions;
        }
        let phase = self.phase;
        self.emit(|| TraceEvent::GlobalLoad { bytes, transactions, streamed, phase });
        if let Some(f) = &mut self.faults {
            if let Some(limit) = f.truncate_after {
                if self.stats.global_transactions > limit {
                    f.truncated = true;
                }
            }
        }
    }

    /// Coalesced global-memory read of `bytes` bytes (SoA layouts): transactions
    /// are `ceil(bytes / 128)`. The address is treated as data-dependent (a
    /// pointer chase), so the transactions expose memory latency.
    pub fn load_global(&mut self, bytes: u64) {
        if !METER {
            return;
        }
        let t = bytes.div_ceil(self.transaction_bytes).max(1);
        self.account_load(bytes, t, false);
    }

    /// Streaming global read: the address continues a sequential scan that the
    /// memory system can prefetch (sibling-leaf hops, brute-force tiles), so
    /// the transactions cost bandwidth but expose no dependent-fetch latency.
    pub fn load_global_stream(&mut self, bytes: u64) {
        if !METER {
            return;
        }
        let t = bytes.div_ceil(self.transaction_bytes).max(1);
        self.account_load(bytes, t, true);
    }

    /// One query's pre-split share of a coalesced load issued on behalf of a
    /// whole buffer of queries (the wave engine's node-centric sweep): the
    /// caller fetched the node **once**, derived its transaction count from
    /// the full block size, and divides both bytes and transactions across
    /// the buffered queries so the merged totals equal exactly one fetch per
    /// sweep. Transactions are taken as given — re-deriving them from the
    /// share would re-round every fraction up and inflate the merged count.
    /// `streamed` marks shares of a prefetchable sequential scan (contiguous
    /// leaf runs), exactly like [`Block::load_global_stream`].
    pub fn load_global_share(&mut self, bytes: u64, transactions: u64, streamed: bool) {
        self.account_load(bytes, transactions, streamed);
    }

    /// Transactions one coalesced fetch of `bytes` bytes moves on this device
    /// (`ceil(bytes / transaction_bytes)`, minimum one). The wave engine uses
    /// this to size a buffer-shared fetch before splitting it with
    /// [`Block::load_global_share`].
    pub fn coalesced_transactions(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.transaction_bytes).max(1)
    }

    /// Strided / AoS global read: `count` elements of `elem_bytes` each land in
    /// separate transactions (the memory system still moves a whole transaction
    /// per element, but only `elem_bytes` of it are useful). `global_bytes`
    /// counts useful bytes — the paper's "accessed bytes" metric — while the
    /// transaction count carries the cost penalty. Used by the SoA-vs-AoS
    /// ablation and the task-parallel kd-tree.
    pub fn load_global_strided(&mut self, count: u64, elem_bytes: u64) {
        if !METER || count == 0 {
            return;
        }
        let per_elem = elem_bytes.div_ceil(self.transaction_bytes).max(1);
        self.account_load(count * elem_bytes, count * per_elem, false);
    }

    /// Reserve `bytes` of shared memory for the lifetime of the kernel (the PSB
    /// kernels allocate everything up front: node staging + the k-NN list).
    /// Returns `Err` with the overflowing size when the block can never fit on an
    /// SM — the caller decides whether to spill to global memory instead (the
    /// paper's §V-E hybrid policy) or fail the launch.
    pub fn reserve_shared(&mut self, bytes: u64, smem_per_sm: u64) -> Result<(), u64> {
        let new_total = self.smem_in_use + bytes;
        if new_total > smem_per_sm {
            return Err(new_total);
        }
        self.smem_in_use = new_total;
        self.stats.smem_peak_bytes = self.stats.smem_peak_bytes.max(self.smem_in_use);
        Ok(())
    }

    /// Record one visited index node (paper-facing counter). `level` is the
    /// node's depth from the root (clamped into the level histogram).
    pub fn visit_node(&mut self, level: u32, kind: NodeKind) {
        if !METER {
            return;
        }
        self.stats.nodes_visited += 1;
        self.stats.phases[self.phase.index()].nodes_visited += 1;
        self.stats.level_visits[(level as usize).min(MAX_TRACKED_LEVELS - 1)] += 1;
        let phase = self.phase;
        self.emit(|| TraceEvent::NodeVisit { level, kind, phase });
    }

    /// Record one upward move in the tree from depth `level` (parent-link hop,
    /// branch-and-bound return, restart). Pure observability: callers meter
    /// the instruction cost of the move separately (usually one `scalar`).
    pub fn backtrack(&mut self, level: u32) {
        if !METER {
            return;
        }
        self.stats.backtracks += 1;
        self.emit(|| TraceEvent::Backtrack { level });
    }

    /// Finish the kernel and return the counters.
    pub fn finish(self) -> KernelStats {
        self.stats
    }

    /// Peek at the counters mid-kernel (tests / debugging).
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::VecSink;

    fn block(threads: u32) -> Block<'static> {
        Block::new(threads, &DeviceConfig::k40())
    }

    #[test]
    fn rounds_threads_to_warps() {
        assert_eq!(block(1).threads(), 32);
        assert_eq!(block(33).threads(), 64);
        assert_eq!(block(128).warps(), 4);
    }

    #[test]
    fn par_for_full_warps_is_fully_efficient() {
        let mut b = block(128);
        let mut seen = 0;
        b.par_for(128, 1, |_| seen += 1);
        assert_eq!(seen, 128);
        let s = b.finish();
        assert_eq!(s.lane_slots, 128);
        assert_eq!(s.active_lanes, 128);
        assert_eq!(s.compute_issues, 4);
        assert_eq!(s.warp_efficiency(), 1.0);
    }

    #[test]
    fn par_for_partial_tail_loses_efficiency() {
        let mut b = block(128);
        b.par_for(130, 1, |_| {});
        let s = b.finish();
        // Round 1: 4 warps full (128 active); round 2: 1 warp, 2 active.
        assert_eq!(s.compute_issues, 5);
        assert_eq!(s.lane_slots, 5 * 32);
        assert_eq!(s.active_lanes, 130);
    }

    #[test]
    fn par_for_skips_idle_warps() {
        let mut b = block(256);
        b.par_for(32, 1, |_| {});
        let s = b.finish();
        // Only 1 of the 8 warps has work; the other 7 are never issued.
        assert_eq!(s.compute_issues, 1);
        assert_eq!(s.warp_efficiency(), 1.0);
    }

    #[test]
    fn cost_multiplies_issues() {
        let mut b = block(32);
        b.par_for(32, 16, |_| {});
        let s = b.finish();
        assert_eq!(s.compute_issues, 16);
        assert_eq!(s.active_lanes, 32 * 16);
    }

    #[test]
    fn reduction_halves_lanes() {
        let mut b = block(128);
        b.par_reduce(128, 1);
        let s = b.finish();
        // Steps of 64, 32, 16, 8, 4, 2, 1 active lanes.
        assert_eq!(s.active_lanes, 127);
        // Warps: 2 + 1 + 1 + 1 + 1 + 1 + 1 = 8.
        assert_eq!(s.compute_issues, 8);
        assert!(s.warp_efficiency() < 0.5);
    }

    #[test]
    fn reduce_of_one_is_free() {
        let mut b = block(32);
        b.par_reduce(1, 1);
        assert_eq!(b.finish().compute_issues, 0);
    }

    #[test]
    fn scalar_is_one_lane_in_32() {
        let mut b = block(128);
        b.scalar(10);
        let s = b.finish();
        assert_eq!(s.lane_slots, 320);
        assert_eq!(s.active_lanes, 10);
        assert!((s.warp_efficiency() - 1.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn coalesced_load_rounds_to_transactions() {
        let mut b = block(32);
        b.load_global(1); // 1 byte still moves one 128 B transaction
        b.load_global(129);
        let s = b.finish();
        assert_eq!(s.global_bytes, 130);
        assert_eq!(s.global_transactions, 1 + 2);
    }

    #[test]
    fn stream_load_marks_transactions_prefetchable() {
        let mut b = block(32);
        b.load_global(256);
        b.load_global_stream(256);
        let s = b.finish();
        assert_eq!(s.global_transactions, 4);
        assert_eq!(s.stream_transactions, 2);
        assert_eq!(s.global_bytes, 512);
    }

    #[test]
    fn load_shares_merge_to_exactly_one_coalesced_fetch() {
        // A 300 B node fetched once for 7 buffered queries: splitting bytes
        // and transactions with a first-shares-take-the-remainder rule must
        // sum back to exactly what one load_global of the whole node charges.
        let mut whole = block(32);
        whole.load_global(300);
        let want = whole.finish();

        let (bytes, m) = (300u64, 7u64);
        let tx = block(32).coalesced_transactions(bytes);
        assert_eq!(tx, 3);
        let mut got_bytes = 0;
        let mut got_tx = 0;
        for j in 0..m {
            let mut b = block(32);
            b.load_global_share(
                bytes / m + u64::from(j < bytes % m),
                tx / m + u64::from(j < tx % m),
                false,
            );
            let s = b.finish();
            got_bytes += s.global_bytes;
            got_tx += s.global_transactions;
            assert_eq!(s.stream_transactions, 0);
        }
        assert_eq!(got_bytes, want.global_bytes);
        assert_eq!(got_tx, want.global_transactions);

        // The streamed flag routes the share into the prefetchable pool.
        let mut b = block(32);
        b.load_global_share(64, 1, true);
        let s = b.finish();
        assert_eq!(s.stream_transactions, 1);
    }

    #[test]
    fn strided_load_is_one_transaction_per_element() {
        let mut b = block(32);
        b.load_global_strided(32, 4);
        let s = b.finish();
        assert_eq!(s.global_transactions, 32);
        assert_eq!(s.global_bytes, 32 * 4);
    }

    #[test]
    fn shared_memory_ledger() {
        let cfg = DeviceConfig::k40();
        let mut b = block(128);
        assert!(b.reserve_shared(16 * 1024, cfg.smem_per_sm).is_ok());
        assert!(b.reserve_shared(16 * 1024, cfg.smem_per_sm).is_ok());
        assert_eq!(b.stats().smem_peak_bytes, 32 * 1024);
        let err = b.reserve_shared(32 * 1024, cfg.smem_per_sm);
        assert_eq!(err, Err(64 * 1024));
        // Failed reservation must not change the ledger.
        assert_eq!(b.stats().smem_peak_bytes, 32 * 1024);
    }

    #[test]
    fn sync_issues_every_warp() {
        let mut b = block(128);
        b.sync();
        let s = b.finish();
        assert_eq!(s.compute_issues, 4);
        assert_eq!(s.active_lanes, 128);
    }

    #[test]
    fn kth_select_costs_more_than_min_reduce() {
        let mut b1 = block(128);
        b1.par_kth_select(128, 1);
        let min_cost = b1.finish().compute_issues;
        let mut b2 = block(128);
        b2.par_kth_select(128, 32);
        let kth_cost = b2.finish().compute_issues;
        assert!(kth_cost > min_cost, "{kth_cost} <= {min_cost}");
    }

    #[test]
    fn metering_is_attributed_to_the_current_phase() {
        let mut b = block(64);
        b.set_phase(Phase::Descend);
        b.par_for(64, 1, |_| {});
        b.load_global(256);
        b.set_phase(Phase::LeafScan);
        b.load_global_stream(512);
        b.visit_node(2, NodeKind::Leaf);
        let s = b.finish();
        assert_eq!(s.phase(Phase::Descend).compute_issues, 2);
        assert_eq!(s.phase(Phase::Descend).global_bytes, 256);
        assert_eq!(s.phase(Phase::LeafScan).global_bytes, 512);
        assert_eq!(s.phase(Phase::LeafScan).stream_transactions, 4);
        assert_eq!(s.phase(Phase::LeafScan).nodes_visited, 1);
        assert_eq!(s.level_visits[2], 1);
        assert!(s.phase_totals_consistent());
    }

    #[test]
    fn set_phase_returns_previous_for_scoping() {
        let mut b = block(32);
        assert_eq!(b.phase(), Phase::Other);
        let prev = b.set_phase(Phase::ResultMerge);
        assert_eq!(prev, Phase::Other);
        assert_eq!(b.set_phase(prev), Phase::ResultMerge);
        assert_eq!(b.phase(), Phase::Other);
    }

    #[test]
    fn deep_levels_clamp_into_last_bucket() {
        let mut b = block(32);
        b.visit_node(500, NodeKind::Internal);
        let s = b.finish();
        assert_eq!(s.level_visits[MAX_TRACKED_LEVELS - 1], 1);
        assert_eq!(s.nodes_visited, 1);
    }

    #[test]
    fn sink_mirrors_metering_without_changing_it() {
        let run = |sink: Option<&mut VecSink>| {
            let cfg = DeviceConfig::k40();
            let mut b: Block<'_> =
                Block::with_sink(64, &cfg, sink.map(|s| s as &mut dyn TraceSink));
            b.set_phase(Phase::Descend);
            b.par_for(100, 2, |_| {});
            b.load_global(300);
            b.set_phase(Phase::LeafScan);
            b.load_global_stream(700);
            b.visit_node(1, NodeKind::Leaf);
            b.backtrack(1);
            b.finish()
        };
        let silent = run(None);
        let mut sink = VecSink::new();
        let traced = run(Some(&mut sink));
        assert_eq!(silent, traced, "recording must not perturb the counters");
        // 2 par_for issues + 2 loads + 1 visit + 1 backtrack.
        assert_eq!(sink.events.len(), 6);
        assert!(matches!(
            sink.events[2],
            TraceEvent::GlobalLoad { bytes: 300, streamed: false, phase: Phase::Descend, .. }
        ));
        assert!(matches!(
            sink.events[4],
            TraceEvent::NodeVisit { level: 1, kind: NodeKind::Leaf, phase: Phase::LeafScan }
        ));
        assert_eq!(sink.events[5], TraceEvent::Backtrack { level: 1 });
    }

    /// `emit_each` records what one `emit` per item would, looks at no item
    /// without a sink, and does nothing on an unmetered block.
    #[test]
    fn emit_each_is_a_per_item_emit_that_walks_only_for_a_sink() {
        let cfg = DeviceConfig::k40();
        let items = [1.0f32, f32::NAN, -0.0, 4.0, f32::NAN, 2.5];
        let event = |x: &f32| {
            (!x.is_nan()).then_some(TraceEvent::KnnUpdate { pruned: *x > 1.0, phase: Phase::Other })
        };
        let mut each = VecSink::new();
        let mut b: Block<'_> = Block::with_sink(32, &cfg, Some(&mut each));
        b.emit_each(&items, event);
        b.emit_each(&items[..0], event);
        let after = b.finish();
        let mut per_item = VecSink::new();
        let mut b: Block<'_> = Block::with_sink(32, &cfg, Some(&mut per_item));
        for x in &items {
            if let Some(e) = event(x) {
                b.emit(|| e);
            }
        }
        assert_eq!(after, b.finish(), "events meter nothing");
        assert_eq!(each.events, per_item.events);
        assert_eq!(each.events.len(), 4);

        let mut walked = 0;
        let mut untraced: Block<'_> = Block::new(32, &cfg);
        untraced.emit_each(&items, |_| {
            walked += 1;
            None
        });
        let mut sink = VecSink::new();
        let mut unmetered: Block<'_, false> = Block::with_sink(32, &cfg, Some(&mut sink));
        unmetered.emit_each(&items, |x| {
            walked += 1;
            event(x)
        });
        assert_eq!(walked, 0, "no sink or no metering: no item is looked at");
        assert!(sink.events.is_empty());
    }

    #[test]
    fn no_fault_state_means_no_faults_and_no_perturbation() {
        let mut b = block(64);
        assert_eq!(b.device_fault(), None);
        let before = *b.stats();
        assert_eq!(b.fault_f32(3.5).to_bits(), 3.5f32.to_bits());
        assert_eq!(*b.stats(), before, "fault hooks must not meter anything");
    }

    #[test]
    fn truncation_latches_after_transaction_budget() {
        use crate::fault::FaultPlan;
        let mut b = block(32);
        b.set_faults(Some(FaultPlan::truncation(2).state_for(0, 0)));
        b.load_global(128); // 1 transaction
        assert_eq!(b.device_fault(), None);
        b.load_global(128); // 2 transactions: at the limit, not over it
        assert_eq!(b.device_fault(), None);
        b.load_global(128); // 3 > 2: latches
        assert_eq!(b.device_fault(), Some(DeviceFault::TruncatedLoad));
        // Sticky: still reported with no further loads.
        assert_eq!(b.device_fault(), Some(DeviceFault::TruncatedLoad));
    }

    #[test]
    fn watchdog_fires_on_issue_budget() {
        use crate::fault::FaultPlan;
        let mut b = block(32);
        b.set_faults(Some(FaultPlan::watchdog(3).state_for(0, 0)));
        b.scalar(3);
        assert_eq!(b.device_fault(), None);
        b.scalar(1);
        assert_eq!(b.device_fault(), Some(DeviceFault::Watchdog));
    }

    #[test]
    fn certain_bit_flip_reports_ecc() {
        use crate::fault::FaultPlan;
        let mut b = block(32);
        b.set_faults(Some(FaultPlan::bit_flips(11, 1000).state_for(0, 0)));
        let v = b.fault_f32(1.0);
        assert_ne!(v.to_bits(), 1.0f32.to_bits());
        assert_eq!(b.device_fault(), Some(DeviceFault::EccError));
    }

    #[test]
    fn unmetered_block_runs_work_but_accounts_nothing() {
        let cfg = DeviceConfig::k40();
        let mut b: Block<'static, false> = Block::new(128, &cfg);
        let mut seen = 0;
        b.set_phase(Phase::Descend);
        b.par_for(130, 3, |_| seen += 1);
        b.par_reduce(64, 1);
        b.par_kth_select(64, 8);
        b.scalar(10);
        b.sync();
        b.load_global(300);
        b.load_global_stream(700);
        b.load_global_share(64, 1, true);
        b.load_global_strided(32, 4);
        b.visit_node(2, NodeKind::Internal);
        b.backtrack(2);
        assert_eq!(seen, 130, "par_for must still run every item");
        let s = b.finish();
        // Launch values only: one block, everything else untouched.
        assert_eq!(s, KernelStats { blocks: 1, ..Default::default() });
    }

    #[test]
    fn unmetered_block_keeps_shared_memory_functional() {
        // The k-best list's hybrid split is sized from reserve_shared, so it
        // must keep working — and keep failing — exactly as when metered.
        let cfg = DeviceConfig::k40();
        let mut b: Block<'static, false> = Block::new(128, &cfg);
        assert!(b.reserve_shared(16 * 1024, cfg.smem_per_sm).is_ok());
        assert_eq!(
            b.reserve_shared(cfg.smem_per_sm, cfg.smem_per_sm),
            Err(cfg.smem_per_sm + 16 * 1024)
        );
        assert_eq!(b.coalesced_transactions(300), 3);
    }

    #[test]
    #[should_panic(expected = "requires a metered block")]
    fn unmetered_block_rejects_fault_state() {
        use crate::fault::FaultPlan;
        let mut b: Block<'static, false> = Block::new(32, &DeviceConfig::k40());
        b.set_faults(Some(FaultPlan::truncation(1).state_for(0, 0)));
    }

    #[test]
    fn backtrack_counts_without_metering() {
        let mut b = block(32);
        b.backtrack(3);
        b.backtrack(2);
        let s = b.finish();
        assert_eq!(s.backtracks, 2);
        assert_eq!(s.compute_issues, 0, "backtrack is observability, not cost");
    }
}
