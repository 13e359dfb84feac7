//! What a query *collects* — the one place the kNN-or-range decision lives.
//!
//! The paper's traversal is one algorithm (Algorithm 1's left-to-right sweep),
//! and its own §VI notes that the machinery carries over to range queries when
//! the bound stops moving. Every traversal in this crate — the stacked sweep,
//! the restart and branch-and-bound kernels, the wave engine's per-node step
//! and the fallback scan — is therefore written once over a [`Collector`],
//! with two static-dispatch implementations:
//!
//! * [`KnnCollector`]: a [`GpuKnnList`] plus the pruning distance. A subtree
//!   is admitted while its MINDIST is at or inside the bound (PSB line 17,
//!   inclusive so that a row tied at the k-th distance can displace it by
//!   id), the bound tightens with every improving row and with the
//!   k-th-MAXDIST rule, and the list gates a leaf's rows four at a time
//!   against its k-th distance before the rare row that beats it is offered
//!   (the paper's `dist < pruningDist` test, §V-E, ties broken by id).
//! * [`RangeCollector`]: the fixed radius. Admission is **inclusive** (a
//!   point at exactly `radius` is in range), nothing tightens, and hits are
//!   appended to a global output buffer — metered as streaming writes, the
//!   way a real kernel would append via an atomic cursor.

use psb_gpu::{Block, DeviceConfig};
use psb_sstree::{Neighbor, RowIds};

use crate::knnlist::GpuKnnList;
use crate::options::KernelOptions;

/// The result side of a traversal: which subtrees can still contribute, how
/// the bound moves, and what happens to a leaf's rows.
pub(crate) trait Collector {
    /// Whether a subtree (or row) at distance `mindist` can still contribute.
    fn admits(&self, mindist: f32) -> bool;

    /// Whether child sweeps should compute MAXDISTs: only a collector that
    /// [`tighten`](Self::tighten)s on them has a use for the extra pass.
    fn wants_maxdist(&self) -> bool;

    /// Tighten the bound from an internal node's child MAXDISTs. Returns what
    /// PSB's sweep memo stores for [`replay`](Self::replay): `None` when this
    /// node has no bound to offer, else a value whose `min` with the bound is
    /// what tightening did — the bound this node contributed, or +inf when it
    /// could not have tightened the bound.
    fn tighten<const M: bool>(
        &mut self,
        block: &mut Block<'_, M>,
        max_d: &[f32],
        tmp: &mut Vec<u32>,
    ) -> Option<f32>;

    /// A revisit's [`tighten`](Self::tighten): the same metering over
    /// `children` lanes, with the stored `bound` instead of the selection.
    fn replay<const M: bool>(&mut self, block: &mut Block<'_, M>, children: usize, bound: f32);

    /// Take a leaf's (or tile's) rows: `dists[i]` is row `i`'s distance,
    /// `ids.get(i)` its id. Returns true when the collector took something
    /// (kNN: a row that improved a distance): the sweep's continue-scanning
    /// test.
    fn collect<const M: bool>(
        &mut self,
        block: &mut Block<'_, M>,
        dists: &[f32],
        ids: RowIds<'_>,
    ) -> bool;

    /// The result, in canonical [`Neighbor::by_rank`] order.
    fn finish(self) -> Vec<Neighbor>;
}

/// The rows a kNN search turns away: a mark per row id (the tombstones of a
/// [`DynamicSsTree`](crate::DynamicSsTree), by base position) and how many
/// are set. With none set the marks are not read at all.
#[derive(Clone, Copy)]
pub(crate) struct Removed<'r> {
    marks: &'r [bool],
    count: usize,
}

impl<'r> Removed<'r> {
    /// Nothing removed: every search outside the mutable index.
    pub(crate) const NONE: Removed<'static> = Removed { marks: &[], count: 0 };

    /// Row `id` is removed where `marks[id]` is set; `count` of them are.
    pub(crate) fn new(marks: &'r [bool], count: usize) -> Self {
        if count == 0 {
            Removed::NONE
        } else {
            Self { marks, count }
        }
    }

    /// Whether row `id` may enter the k-best list.
    #[inline(always)]
    fn is_live(self, id: u32) -> bool {
        !self.marks.get(id as usize).is_some_and(|&m| m)
    }
}

/// kNN: the k-best list and its pruning distance.
pub(crate) struct KnnCollector<'r> {
    list: GpuKnnList,
    /// min(k-th best distance so far, every k-th-MAXDIST bound seen).
    pruning: f32,
    k: usize,
    minmax: bool,
    /// Rows turned away before the list sees them, so k never grows with
    /// removals.
    removed: Removed<'r>,
}

impl KnnCollector<'static> {
    /// An empty k-best list, its shared-memory footprint reserved on `block`,
    /// under an infinite bound.
    pub(crate) fn new<const M: bool>(
        block: &mut Block<'_, M>,
        k: usize,
        cfg: &DeviceConfig,
        opts: &KernelOptions,
    ) -> Self {
        KnnCollector::excluding(block, k, Removed::NONE, cfg, opts)
    }
}

impl<'r> KnnCollector<'r> {
    /// [`new`](KnnCollector::new) for a search that turns `removed`'s rows
    /// away.
    pub(crate) fn excluding<const M: bool>(
        block: &mut Block<'_, M>,
        k: usize,
        removed: Removed<'r>,
        cfg: &DeviceConfig,
        opts: &KernelOptions,
    ) -> Self {
        let list = GpuKnnList::new(k, opts.smem_policy, block, cfg.smem_per_sm);
        Self { list, pruning: f32::INFINITY, k, minmax: opts.use_minmax_prune, removed }
    }

    /// The pruning distance a subtree's MINDIST is admitted against.
    #[cfg(test)]
    pub(crate) fn bound(&self) -> f32 {
        self.pruning
    }

    /// The rank of the k-th MAXDIST bound: the `k + r`-th with `r` rows
    /// removed. Each of the `k + r` nearest child subtrees holds all its
    /// points within its MAXDIST, and at most `r` of them hold no live point,
    /// so k live points lie within that bound.
    fn maxdist_rank(&self) -> usize {
        self.k + self.removed.count
    }
}

impl Collector for KnnCollector<'_> {
    fn admits(&self, mindist: f32) -> bool {
        psb_geom::mindist_in_range(mindist, self.pruning)
    }

    fn wants_maxdist(&self) -> bool {
        self.minmax
    }

    fn tighten<const M: bool>(
        &mut self,
        block: &mut Block<'_, M>,
        max_d: &[f32],
        tmp: &mut Vec<u32>,
    ) -> Option<f32> {
        // Fewer than `rank` children bound nothing: the k-th nearest live
        // neighbor need not lie under this node at all.
        let rank = self.maxdist_rank();
        if !self.minmax || max_d.len() < rank {
            return None;
        }
        // With fewer than `rank` MAXDISTs at or under the bound (a NaN counts:
        // a negative one sorts below every number), the pick in `total_cmp`
        // order is a NaN or strictly above the bound, and `min` with it keeps
        // the bound's bits: charge the select, but do not run it.
        let pruning = self.pruning;
        let under = max_d.iter().map(|&d| usize::from((d <= pruning) | d.is_nan())).sum::<usize>();
        if under < rank {
            block.par_kth_select(max_d.len(), rank);
            return Some(f32::INFINITY);
        }
        let bound = kth_maxdist(block, max_d, rank, tmp);
        self.pruning = self.pruning.min(bound);
        Some(bound)
    }

    fn replay<const M: bool>(&mut self, block: &mut Block<'_, M>, children: usize, bound: f32) {
        block.par_kth_select(children, self.maxdist_rank());
        self.pruning = self.pruning.min(bound);
    }

    /// The rows go through [`GpuKnnList::offer_rows`]' gate, a removed row
    /// turned away there like a row at the bound; then the bound follows the
    /// list's.
    fn collect<const M: bool>(
        &mut self,
        block: &mut Block<'_, M>,
        dists: &[f32],
        ids: RowIds<'_>,
    ) -> bool {
        let removed = self.removed;
        let changed = self.list.offer_rows(block, dists, ids, |id| removed.is_live(id));
        self.pruning = self.pruning.min(self.list.bound());
        changed
    }

    fn finish(self) -> Vec<Neighbor> {
        self.list.into_sorted()
    }
}

/// The k-th smallest MAXDIST bound (Algorithm 1 line 14): an upper bound on the
/// k-th nearest neighbor distance, valid because each of the k nearest child
/// subtrees contains at least one point no farther than its MAXDIST.
/// Only callable when the node has at least k children. `tmp` is pooled
/// scratch; the selected element is the same one a full `total_cmp` sort would
/// put at position `k - 1` (equal keys are bit-identical under a total order).
/// The selection runs on [`total_key`]s, integers in `total_cmp`'s order, so it
/// compares machine words instead of calling a comparator.
fn kth_maxdist<const M: bool>(
    block: &mut Block<'_, M>,
    max_d: &[f32],
    k: usize,
    tmp: &mut Vec<u32>,
) -> f32 {
    debug_assert!(max_d.len() >= k && k >= 1);
    block.par_kth_select(max_d.len(), k);
    if let Some(kth) = kth_by_counting(max_d, k) {
        return kth;
    }
    tmp.clear();
    tmp.extend(max_d.iter().map(|&x| total_key(x.to_bits())));
    let (_, kth, _) = tmp.select_nth_unstable(k - 1);
    f32::from_bits(total_key_inverse(*kth))
}

/// Up to this many keys, [`kth_maxdist`] counts ranks instead of selecting.
const COUNTING_KEYS: usize = 16;

/// [`kth_maxdist`]'s selection on at most [`COUNTING_KEYS`] keys, `None` above
/// that: the key of rank `k - 1` in (key, position) order, found by counting
/// instead of moving keys (a select's comparisons are data-dependent
/// branches, a count's are not). A key with `below` keys under it and `upto`
/// keys at or under it holds ranks `below..upto`, every one of them a copy of
/// the same bits; so the key whose range holds `k - 1` is the one
/// `select_nth_unstable` puts there. The keys are [`total_key`]s shifted to
/// `i32`, which SSE2 compares a vector at a time, in a fixed
/// [`COUNTING_KEYS`] lanes; the unused lanes hold the largest key, which is
/// under no key and at or under only itself — and a key that large holding
/// `k - 1` is the answer whatever the padding adds to its `upto`.
fn kth_by_counting(max_d: &[f32], k: usize) -> Option<f32> {
    if max_d.len() > COUNTING_KEYS {
        return None;
    }
    let mut keys = [i32::MAX; COUNTING_KEYS];
    for (key, &x) in keys.iter_mut().zip(max_d) {
        *key = (total_key(x.to_bits()) ^ 0x8000_0000) as i32;
    }
    let rank = (k - 1) as u32;
    let kth = keys[..max_d.len()].iter().find(|&&key| {
        let below: u32 = keys.iter().map(|&o| u32::from(o < key)).sum();
        let upto: u32 = keys.iter().map(|&o| u32::from(o <= key)).sum();
        (below <= rank) & (rank < upto)
    })?;
    Some(f32::from_bits(total_key_inverse(*kth as u32 ^ 0x8000_0000)))
}

/// `f32::total_cmp`'s order on unsigned integers: a negative's magnitude bits
/// are flipped (a larger magnitude sorts lower), then the sign bit, which puts
/// every negative below every positive. A bijection on bit patterns.
#[inline]
fn total_key(bits: u32) -> u32 {
    bits ^ (((bits as i32 >> 31) as u32) >> 1) ^ 0x8000_0000
}

/// The bit pattern [`total_key`] maps to `key`.
#[inline]
fn total_key_inverse(key: u32) -> u32 {
    let bits = key ^ 0x8000_0000;
    bits ^ (((bits as i32 >> 31) as u32) >> 1)
}

/// Fixed-radius range: every point within `radius`, bound never moving.
pub(crate) struct RangeCollector {
    radius: f32,
    hits: Vec<Neighbor>,
}

impl RangeCollector {
    pub(crate) fn new(radius: f32) -> Self {
        Self { radius, hits: Vec::new() }
    }
}

impl Collector for RangeCollector {
    fn admits(&self, mindist: f32) -> bool {
        mindist <= self.radius
    }

    fn wants_maxdist(&self) -> bool {
        false
    }

    fn tighten<const M: bool>(
        &mut self,
        _block: &mut Block<'_, M>,
        _max_d: &[f32],
        _tmp: &mut Vec<u32>,
    ) -> Option<f32> {
        None
    }

    fn replay<const M: bool>(&mut self, _block: &mut Block<'_, M>, _children: usize, _bound: f32) {}

    fn collect<const M: bool>(
        &mut self,
        block: &mut Block<'_, M>,
        dists: &[f32],
        ids: RowIds<'_>,
    ) -> bool {
        let mut hits = 0u64;
        for (i, &dist) in dists.iter().enumerate() {
            if self.admits(dist) {
                self.hits.push(Neighbor { dist, id: ids.get(i) });
                hits += 1;
            }
        }
        if hits > 0 {
            // Append to the global output buffer (atomic cursor + rows).
            block.scalar(2);
            block.load_global_stream(hits * 8);
        }
        hits > 0
    }

    fn finish(mut self) -> Vec<Neighbor> {
        self.hits.sort_by(Neighbor::by_rank);
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_gpu::KernelStats;

    fn block() -> (Block<'static>, DeviceConfig) {
        let cfg = DeviceConfig::k40();
        (Block::new(32, &cfg), cfg)
    }

    #[test]
    fn range_admits_the_radius_itself_and_knn_does_not_admit_its_bound() {
        let range = RangeCollector::new(5.0);
        assert!(range.admits(5.0), "a point at exactly the radius is in range");
        assert!(!range.admits(5.0f32.next_up()));

        let (mut b, cfg) = block();
        let mut knn = KnnCollector::new(&mut b, 2, &cfg, &KernelOptions::default());
        assert!(knn.admits(f32::MAX), "nothing is pruned before k candidates exist");
        assert!(knn.collect(&mut b, &[3.0, 5.0], RowIds::Ids(&[0, 4])));
        // A subtree at exactly the k-th distance may hold a lower id than the
        // k-th row's, so it is admitted; one ulp past it is not.
        assert!(knn.admits(5.0), "the k-th distance itself is admitted");
        assert!(!knn.admits(5.0f32.next_up()));
        // A row at the bound enters only with a lower id, and improves no
        // distance either way: neither take is a reason to keep scanning.
        assert!(!knn.collect(&mut b, &[5.0], RowIds::From(5)));
        assert!(!knn.collect(&mut b, &[5.0], RowIds::From(2)));
        assert_eq!(knn.finish().iter().map(|n| n.id).collect::<Vec<_>>(), [0, 2]);
    }

    #[test]
    fn a_leaf_with_no_row_in_range_meters_nothing() {
        let (mut b, _) = block();
        let mut range = RangeCollector::new(1.0);
        let before: KernelStats = *b.stats();
        assert!(!range.collect(&mut b, &[1.5, 2.0, f32::NAN], RowIds::From(0)));
        assert_eq!(*b.stats(), before, "no hit, no output row, no metering");
        assert!(range.collect(&mut b, &[1.0, 0.5, 1.5], RowIds::From(3)));
        assert_eq!(b.stats().global_bytes - before.global_bytes, 2 * 8, "two 8-byte rows");
        let ids: Vec<u32> = range.finish().iter().map(|n| n.id).collect();
        assert_eq!(ids, [4, 3], "canonical order: ascending distance");
    }

    #[test]
    fn knn_tightens_only_with_k_children_and_replays_the_same_metering() {
        let (mut b, cfg) = block();
        let opts = KernelOptions::default();
        let mut tmp = Vec::new();
        let mut knn = KnnCollector::new(&mut b, 3, &cfg, &opts);
        assert_eq!(knn.tighten(&mut b, &[4.0, 2.0], &mut tmp), None, "two children, k = 3");
        assert!(knn.admits(1e30));
        let fresh = *b.stats();
        // The k-th MAXDIST is inclusive, and so is admission: a subtree at
        // exactly 7 may hold the point that makes the bound.
        let above = 7.0f32.next_up();
        assert_eq!(knn.tighten(&mut b, &[4.0, 2.0, 9.0, 7.0], &mut tmp), Some(7.0));
        assert!(knn.admits(7.0) && !knn.admits(above));
        let first = *b.stats();

        let mut again = KnnCollector::new(&mut b, 3, &cfg, &opts);
        let start = *b.stats();
        again.replay(&mut b, 4, 7.0);
        assert!(again.admits(7.0) && !again.admits(above));
        assert_eq!(
            b.stats().compute_issues - start.compute_issues,
            first.compute_issues - fresh.compute_issues,
            "a replayed bound costs what computing it cost"
        );

        let off = KernelOptions { use_minmax_prune: false, ..Default::default() };
        let mut plain = KnnCollector::new(&mut b, 3, &cfg, &off);
        assert!(!plain.wants_maxdist());
        assert_eq!(plain.tighten(&mut b, &[4.0, 2.0, 9.0, 7.0], &mut tmp), None);
    }

    /// `collect`'s gate ([`GpuKnnList::offer_rows`]) is a plain per-row
    /// `offer` loop, observably: the same list (ids and distance bits) and
    /// return value on both kinds of block, and on a traced metered block the
    /// same counters and event stream; a metered block without a sink, which
    /// walks no turned-away row, ends on the traced run's list, bound and
    /// counters. Leaves of 0–37 rows (so every tail of
    /// 1–3 rows after the groups of four), k in {1, 3, 8, 32, 40}, lists
    /// empty, partly filled and full, and distances from finite values, ties
    /// at the list's bound, ±0, +inf and NaN.
    #[test]
    fn the_gate_is_a_per_row_offer_loop() {
        use psb_gpu::{Phase, VecSink};
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let mut s = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |m: u64| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) % m
        };
        // Fill `knn` with the prefix rows, then take the leaf through the gate
        // or through one `offer` per row.
        fn run<const M: bool>(
            mut b: Block<'_, M>,
            k: usize,
            cfg: &DeviceConfig,
            opts: &KernelOptions,
            prefix: &[f32],
            dists: &[f32],
            gated: bool,
        ) -> (Vec<(u32, u32)>, bool, f32, KernelStats) {
            let mut knn = KnnCollector::new(&mut b, k, cfg, opts);
            b.set_phase(Phase::ResultMerge);
            for (i, &d) in prefix.iter().enumerate() {
                knn.list.offer(&mut b, d, 1000 + i as u32);
            }
            // Ids repeat the prefix's now and then: a duplicate row is turned
            // away inside the bound.
            let ids: Vec<u32> = (0..dists.len() as u32).map(|i| 1000 + i % 7 * 3).collect();
            let changed = if gated {
                knn.collect(&mut b, dists, RowIds::Ids(&ids))
            } else {
                let mut changed = false;
                for (i, &d) in dists.iter().enumerate() {
                    changed |= knn.list.offer(&mut b, d, ids[i]);
                }
                knn.pruning = knn.pruning.min(knn.list.bound());
                changed
            };
            let pruning = knn.pruning;
            let list = knn.finish().iter().map(|n| (n.id, n.dist.to_bits())).collect();
            (list, changed, pruning, b.finish())
        }
        let finite = [0.25f32, 1.0, 1.5, 2.0, 3.75, 8.0, 1e30, f32::MIN_POSITIVE];
        for k in [1usize, 3, 8, 32, 40] {
            for fill in [0, k / 2, k.saturating_sub(1), k, 2 * k + 5] {
                for len in 0..=37usize {
                    let prefix: Vec<f32> =
                        (0..fill).map(|_| finite[next(finite.len() as u64) as usize]).collect();
                    let (_, _, bound, _) =
                        run(Block::<false>::new(32, &cfg), k, &cfg, &opts, &prefix, &[], false);
                    let pool = [
                        bound,
                        bound,
                        bound.next_down(),
                        bound.next_up(),
                        0.0,
                        -0.0,
                        f32::INFINITY,
                        f32::NAN,
                    ];
                    let dists: Vec<f32> = (0..len)
                        .map(|_| match next(4) {
                            0 => pool[next(pool.len() as u64) as usize],
                            _ => finite[next(finite.len() as u64) as usize] * 4.0,
                        })
                        .collect();
                    let row = format!("k {k} fill {fill} dists {dists:?}");

                    let traced = |gated| {
                        let mut sink = VecSink::new();
                        let b: Block<'_> = Block::with_sink(32, &cfg, Some(&mut sink));
                        let out = run(b, k, &cfg, &opts, &prefix, &dists, gated);
                        (out, sink.events)
                    };
                    let traced_gate = traced(true);
                    assert_eq!(traced_gate, traced(false), "metered, {row}");
                    let untraced =
                        run(Block::<true>::new(32, &cfg), k, &cfg, &opts, &prefix, &dists, true);
                    assert_eq!(untraced, traced_gate.0, "metered, untraced, {row}");
                    let plain = |gated| {
                        let out = run(
                            Block::<false>::new(32, &cfg),
                            k,
                            &cfg,
                            &opts,
                            &prefix,
                            &dists,
                            gated,
                        );
                        (out.0, out.1, out.2.to_bits())
                    };
                    assert_eq!(plain(true), plain(false), "unmetered, {row}");
                }
            }
        }
    }

    /// `tighten` runs the k-th MAXDIST select only when it can tighten the
    /// bound; held against the unconditional select at every k over sets of
    /// 1–40 MAXDISTs from finite values, the bound and one ulp either side,
    /// ±0, ±inf and NaNs of either sign, under bounds of +inf, a finite value
    /// and ±0. Same bound bits after `tighten`, same bits after a replay of
    /// what it returned, same counters and events; and where it skipped, the
    /// select's pick is a NaN or strictly above the bound.
    #[test]
    fn the_select_runs_only_when_it_can_tighten() {
        use psb_gpu::{Phase, VecSink};
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let mut s = 0x853c_49e6_748f_ea9bu64;
        let mut next = move |m: u64| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) % m
        };
        // A collector at `bound` on a traced metered block: `tighten` (or the
        // select it skips, run unconditionally), then a replay of its value on
        // a second collector at the same bound.
        let run = |bound: f32, k: usize, max_d: &[f32], skip: bool| {
            let mut sink = VecSink::new();
            let mut b: Block<'_> = Block::with_sink(32, &cfg, Some(&mut sink));
            b.set_phase(Phase::Descend);
            let mut tmp = Vec::new();
            let mut knn = KnnCollector::new(&mut b, k, &cfg, &opts);
            knn.pruning = bound;
            let got = if skip {
                knn.tighten(&mut b, max_d, &mut tmp).expect("k <= n")
            } else {
                let kth = kth_maxdist(&mut b, max_d, k, &mut tmp);
                knn.pruning = knn.pruning.min(kth);
                kth
            };
            let mut again = KnnCollector::new(&mut b, k, &cfg, &opts);
            again.pruning = bound;
            again.replay(&mut b, max_d.len(), got);
            let bits = (knn.pruning.to_bits(), again.pruning.to_bits());
            (got, (bits, b.finish()), sink.events)
        };
        let finite = [0.5f32, 1.0, 2.0, 3.0, 7.25, 1e30, f32::MIN_POSITIVE];
        for bound in [f32::INFINITY, 3.0, 0.0, -0.0] {
            let pool = [
                bound,
                bound.next_down(),
                bound.next_up(),
                0.0,
                -0.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
                -f32::NAN,
            ];
            for n in 1..=40usize {
                for _ in 0..3 {
                    let set: Vec<f32> = (0..n)
                        .map(|_| match next(3) {
                            0 => finite[next(finite.len() as u64) as usize],
                            _ => pool[next(pool.len() as u64) as usize],
                        })
                        .collect();
                    for k in 1..=n {
                        let (got, state, events) = run(bound, k, &set, true);
                        let (kth, want, want_events) = run(bound, k, &set, false);
                        let row = format!("bound {bound} k {k} set {set:?}");
                        assert_eq!(state, want, "{row}");
                        assert_eq!(events, want_events, "{row}");
                        if got.to_bits() != kth.to_bits() {
                            assert_eq!(got, f32::INFINITY, "{row}");
                            assert!(kth.is_nan() || kth > bound, "skipped a pick of {kth}, {row}");
                        }
                    }
                }
            }
        }
    }

    /// The range collector on the collect signature: a row at exactly the
    /// radius is a hit, NaN rows and rows past it are not, and ids come from
    /// whichever form the rows carry.
    #[test]
    fn range_collects_inclusive_hits_and_skips_nan_rows() {
        let (mut b, _) = block();
        let mut range = RangeCollector::new(2.0);
        let dists = [2.0, f32::NAN, 2.0f32.next_up(), 0.0, -0.0, f32::INFINITY, 1.0];
        let bits: Vec<f32> = (50..57u32).map(f32::from_bits).collect();
        assert!(range.collect(&mut b, &dists, RowIds::Bits(&bits)));
        assert!(!range.collect(&mut b, &[f32::NAN, 3.0], RowIds::Ids(&[9, 8])));
        assert!(range.collect(&mut b, &dists[..1], RowIds::From(60)));
        let got: Vec<(u32, f32)> = range.finish().iter().map(|n| (n.id, n.dist)).collect();
        assert_eq!(got, [(54, -0.0), (53, 0.0), (56, 1.0), (50, 2.0), (60, 2.0)]);
    }

    /// The largest key there is — a NaN with every payload bit set — equals
    /// the counting select's padding lanes, and must still rank as itself.
    #[test]
    fn the_largest_key_counts_as_itself_beside_the_padding() {
        let top = f32::from_bits(0x7fff_ffff);
        for set in [vec![top], vec![top, 1.0, top], vec![2.0, top, -0.0, 1.0, top, 0.5, 9.0]] {
            for k in 1..=set.len() {
                let mut want = set.clone();
                let (_, kth, _) = want.select_nth_unstable_by(k - 1, f32::total_cmp);
                let got = kth_by_counting(&set, k).map(f32::to_bits);
                assert_eq!(got, Some(kth.to_bits()), "{set:?} k {k}");
            }
        }
    }

    /// The k-th MAXDIST is the element `select_nth_unstable_by(k - 1,
    /// f32::total_cmp)` picks, bit for bit, at every k: over sets with
    /// duplicates, ±0, ±inf and NaNs of either sign (a faulted bound).
    #[test]
    fn kth_maxdist_picks_the_total_cmp_element_at_every_k() {
        let (mut b, _) = block();
        let pool = [
            0.0,
            -0.0,
            1.5,
            1.5f32.next_up(),
            2.0,
            7.25,
            1e30,
            f32::MIN_POSITIVE / 2.0,
            -3.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut tmp = Vec::new();
        for n in 1..=130usize {
            let set: Vec<f32> = (0..n)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    match (s >> 33) % 16 {
                        i @ 0..=12 => pool[i as usize],
                        _ => ((s >> 8) as u32 % 1000) as f32 * 0.25,
                    }
                })
                .collect();
            for k in 1..=n {
                let mut want = set.clone();
                let (_, kth, _) = want.select_nth_unstable_by(k - 1, f32::total_cmp);
                let got = kth_maxdist(&mut b, &set, k, &mut tmp);
                assert_eq!(got.to_bits(), kth.to_bits(), "n {n} k {k}");
            }
        }
    }
}
