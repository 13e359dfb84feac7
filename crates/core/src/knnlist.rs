//! The k-best candidate list a thread block maintains in shared memory.
//!
//! The paper stores the k pruning distances in shared memory because every
//! thread of the block reads and updates them (§V-E); this is why response time
//! degrades super-linearly with k (Fig. 8) — the list's footprint reduces
//! occupancy. The §V-E extension ("keep only a couple of large pruning
//! distances in shared memory but the rest ... in global memory") is
//! implemented as [`SharedMemPolicy::Hybrid`]: insertions that land in the
//! rarely-updated small-distance region pay a global-memory write instead of
//! shared-memory traffic.
//!
//! Results are exact: the list is a plain sorted array on the host; only the
//! *cost* of maintaining it is modeled.

use psb_gpu::{Block, TraceEvent};
use psb_sstree::{Neighbor, RowIds};

/// Placement policy for the k-best list (paper §V-E).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SharedMemPolicy {
    /// All k distances + ids in shared memory (the paper's evaluated design).
    AllShared,
    /// The `shared_slots` *largest* distances (the hot end that gates pruning)
    /// in shared memory; the small, rarely-touched remainder in global memory.
    Hybrid { shared_slots: usize },
}

/// Bytes per list entry: f32 distance + u32 id.
const ENTRY_BYTES: u64 = 8;

/// A metered k-best list.
pub struct GpuKnnList {
    k: usize,
    /// Ascending by (distance, id); at most k entries.
    entries: Vec<Neighbor>,
    /// Entries at rank >= `global_from` live in shared memory (the large end);
    /// ranks below it live in global memory under the hybrid policy.
    global_region: usize,
    update_cost: u64,
}

impl GpuKnnList {
    /// Creates the list and reserves its shared-memory footprint on `block`.
    ///
    /// Under [`SharedMemPolicy::AllShared`] the whole list must fit in shared
    /// memory; if it cannot (huge k), the constructor degrades to a hybrid
    /// split at the largest size that fits, which is what a real implementation
    /// would be forced to do.
    /// Generic over the block's metering mode: shared-memory reservation
    /// stays functional on an unmetered block, so the hybrid split comes out
    /// identical in both modes (part of the fast-path parity contract).
    pub fn new<const M: bool>(
        k: usize,
        policy: SharedMemPolicy,
        block: &mut Block<'_, M>,
        smem_per_sm: u64,
    ) -> Self {
        assert!(k >= 1, "k must be at least 1");
        let want_shared = match policy {
            SharedMemPolicy::AllShared => k,
            SharedMemPolicy::Hybrid { shared_slots } => shared_slots.clamp(1, k),
        };
        let mut shared = want_shared;
        while shared > 1 && block.reserve_shared(shared as u64 * ENTRY_BYTES, smem_per_sm).is_err()
        {
            shared /= 2;
        }
        if shared == 1 {
            // A single boundary slot always fits on any realistic device.
            let _ = block.reserve_shared(ENTRY_BYTES, smem_per_sm);
        }
        Self {
            k,
            entries: Vec::with_capacity(k + 1),
            global_region: k - shared.min(k),
            update_cost: (k.next_power_of_two().trailing_zeros() as u64).max(1),
        }
    }

    /// Current pruning distance: the k-th best distance, or ∞ until k found.
    pub fn bound(&self) -> f32 {
        if self.entries.len() < self.k {
            f32::INFINITY
        } else {
            self.entries.last().map_or(f32::INFINITY, |n| n.dist)
        }
    }

    /// Number of candidates currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no candidate has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Offers a candidate; a full list takes it only if its `(dist, id)` sorts
    /// before the k-th row's. Returns true when it improved the list's
    /// distances — PSB's leaf-scan continuation test: a row tied with the k-th
    /// displaces it by id and returns false. Metering: an accepted candidate
    /// costs a serialized sift (`log2 k` instructions on one lane); one landing
    /// in the global region of a hybrid list additionally pays a global write.
    ///
    /// Split like the paper's §V-E update — `dist < pruningDist`, then a rare
    /// serialized sift. The NaN test and the bound reject are `#[inline]`:
    /// callers offer a whole leaf or tile in a loop and nearly every row stops
    /// there (as an out-of-line call, that loop cost the brute-force kernel
    /// 20–35 %). The accepting half, `admit`, is inlined as well on an
    /// unmetered block, where it is a binary search and an insert (calling it
    /// cost the unmetered uniform-data batch 7 %). On a metered block it also
    /// issues the sift, the hybrid region's global write and the event, and is
    /// called out of line so that bulk stays out of every row's loop.
    #[inline]
    pub fn offer<const M: bool>(&mut self, block: &mut Block<'_, M>, dist: f32, id: u32) -> bool {
        // A NaN distance can only come from corrupted geometry (e.g. an
        // injected bit flip in the exponent): it would land at an arbitrary
        // partition point and silently break the sorted order, so reject it
        // outright. No metering — a real GPU's `dist < pruningDist` test is
        // false for NaN and skips the update path entirely.
        if dist.is_nan() {
            return false;
        }
        let kth = self.entries.get(self.k - 1).copied();
        if kth.is_some_and(|n| !((dist < n.dist) | ((dist == n.dist) & (id < n.id)))) {
            let phase = block.phase();
            block.emit(|| TraceEvent::KnnUpdate { pruned: true, phase });
            return false;
        }
        let taken =
            if M { self.admit_out_of_line(block, dist, id) } else { self.admit(block, dist, id) };
        taken & kth.is_none_or(|n| dist < n.dist)
    }

    /// Offers a leaf's (or tile's) rows in order: `dists[i]` is row `i`'s
    /// distance, `ids.get(i)` its id. Returns true when an offer did.
    ///
    /// Until the list holds k every row is [`offer`](Self::offer)ed. From then
    /// on the rows pass a gate four at a time: a group with every row strictly
    /// above the k-th distance is turned away whole, with the pruned
    /// `KnnUpdate` each of its non-NaN rows would have emitted; otherwise the
    /// rows before the first one at or under it are turned away and that row
    /// is offered (at the bound, its id decides). The bound only falls, so a
    /// row the gate's bound rejects the live bound rejects too, and offers
    /// stay in row order: list, return value, counters and events are a
    /// per-row `offer` loop's.
    ///
    /// A row that reaches its offer with `live(id)` false is turned away
    /// there as a row past the bound is: a pruned `KnnUpdate` unless it is
    /// NaN, and nothing metered. Where `live` holds for every row the loop is
    /// the per-row `offer` loop above.
    #[inline]
    pub(crate) fn offer_rows<const M: bool>(
        &mut self,
        block: &mut Block<'_, M>,
        dists: &[f32],
        ids: RowIds<'_>,
        live: impl Fn(u32) -> bool,
    ) -> bool {
        let mut changed = false;
        let mut i = 0;
        while i < dists.len() {
            if self.entries.len() >= self.k {
                let bound = self.bound();
                let from = i;
                while let Some(g) = dists[i..].first_chunk::<4>() {
                    if (g[0] <= bound) | (g[1] <= bound) | (g[2] <= bound) | (g[3] <= bound) {
                        i += g.iter().position(|&d| d <= bound).unwrap_or(4);
                        break;
                    }
                    i += 4;
                }
                // `offer`'s reject, once per non-NaN row turned away.
                let phase = block.phase();
                block.emit_each(&dists[from..i], |d| {
                    (!d.is_nan()).then_some(TraceEvent::KnnUpdate { pruned: true, phase })
                });
                if i == dists.len() {
                    break;
                }
            }
            let (dist, id) = (dists[i], ids.get(i));
            if live(id) {
                changed |= self.offer(block, dist, id);
            } else if !dist.is_nan() {
                let phase = block.phase();
                block.emit(|| TraceEvent::KnnUpdate { pruned: true, phase });
            }
            i += 1;
        }
        changed
    }

    /// [`admit`](Self::admit), kept out of the caller's row loop.
    #[cold]
    fn admit_out_of_line<const M: bool>(
        &mut self,
        block: &mut Block<'_, M>,
        dist: f32,
        id: u32,
    ) -> bool {
        self.admit(block, dist, id)
    }

    /// [`offer`](Self::offer)'s accepting half: a candidate inside the bound
    /// enters the list unless it is already there.
    #[inline(always)]
    fn admit<const M: bool>(&mut self, block: &mut Block<'_, M>, dist: f32, id: u32) -> bool {
        let phase = block.phase();
        let pos = self.rank(dist, id);
        // PSB's sweep can re-scan the leaf the initial descent primed from;
        // the same (point, distance) pair must not enter twice.
        if self.entries.get(pos).is_some_and(|n| n.id == id && n.dist == dist) {
            block.emit(|| TraceEvent::KnnUpdate { pruned: true, phase });
            return false;
        }
        self.entries.insert(pos, Neighbor { dist, id });
        if self.entries.len() > self.k {
            self.entries.pop();
        }
        block.scalar(self.update_cost);
        if pos < self.global_region {
            block.load_global(ENTRY_BYTES);
        }
        block.emit(|| TraceEvent::KnnUpdate { pruned: false, phase });
        true
    }

    /// Where `(dist, id)` goes in the (distance, id)-ascending list: the
    /// tuple comparison `(n.dist, n.id) < (dist, id)`, spelled out, for a
    /// `dist` that is never NaN ([`offer`](Self::offer) turns NaN away).
    /// `|` and `&` instead of `||` and `&&`: no branch inside the search.
    #[inline(always)]
    fn rank(&self, dist: f32, id: u32) -> usize {
        self.entries.partition_point(|n| (n.dist < dist) | ((n.dist == dist) & (n.id < id)))
    }

    /// Final results, ascending by distance.
    pub fn into_sorted(self) -> Vec<Neighbor> {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_gpu::DeviceConfig;

    fn block() -> (Block<'static>, u64) {
        let cfg = DeviceConfig::k40();
        (Block::new(32, &cfg), cfg.smem_per_sm)
    }

    #[test]
    fn keeps_k_smallest() {
        let (mut b, smem) = block();
        let mut list = GpuKnnList::new(3, SharedMemPolicy::AllShared, &mut b, smem);
        for (d, id) in [(5.0, 0), (1.0, 1), (4.0, 2), (2.0, 3), (9.0, 4)] {
            list.offer(&mut b, d, id);
        }
        let out = list.into_sorted();
        let dists: Vec<f32> = out.iter().map(|n| n.dist).collect();
        assert_eq!(dists, vec![1.0, 2.0, 4.0]);
    }

    #[test]
    fn bound_is_infinite_until_full() {
        let (mut b, smem) = block();
        let mut list = GpuKnnList::new(2, SharedMemPolicy::AllShared, &mut b, smem);
        assert_eq!(list.bound(), f32::INFINITY);
        list.offer(&mut b, 3.0, 0);
        assert_eq!(list.bound(), f32::INFINITY);
        list.offer(&mut b, 1.0, 1);
        assert_eq!(list.bound(), 3.0);
    }

    #[test]
    fn offer_reports_change() {
        let (mut b, smem) = block();
        let mut list = GpuKnnList::new(1, SharedMemPolicy::AllShared, &mut b, smem);
        assert!(list.offer(&mut b, 2.0, 0));
        assert!(!list.offer(&mut b, 5.0, 1), "worse candidate must not change");
        assert!(list.offer(&mut b, 1.0, 2));
    }

    #[test]
    fn reserves_shared_memory() {
        let (mut b, smem) = block();
        let _ = GpuKnnList::new(1024, SharedMemPolicy::AllShared, &mut b, smem);
        assert_eq!(b.stats().smem_peak_bytes, 1024 * 8);
    }

    #[test]
    fn hybrid_reserves_less_and_writes_global() {
        let (mut b, smem) = block();
        let mut list =
            GpuKnnList::new(1024, SharedMemPolicy::Hybrid { shared_slots: 16 }, &mut b, smem);
        assert_eq!(b.stats().smem_peak_bytes, 16 * 8);
        // Fill, then force an insertion at rank 0 (global region).
        for i in 0..1024 {
            list.offer(&mut b, 100.0 + i as f32, i);
        }
        let before = b.stats().global_bytes;
        list.offer(&mut b, 0.5, 9999);
        assert_eq!(b.stats().global_bytes, before + 8);
    }

    #[test]
    fn all_shared_never_touches_global() {
        let (mut b, smem) = block();
        let mut list = GpuKnnList::new(8, SharedMemPolicy::AllShared, &mut b, smem);
        for i in 0..100 {
            list.offer(&mut b, 100.0 - i as f32, i);
        }
        assert_eq!(b.stats().global_bytes, 0);
    }

    #[test]
    fn oversized_k_degrades_to_a_fitting_split() {
        let cfg = DeviceConfig::k40();
        let mut b: Block<'_> = Block::new(32, &cfg);
        // 10_000 entries = 80 KB > 48 KB: must halve until it fits.
        let list = GpuKnnList::new(10_000, SharedMemPolicy::AllShared, &mut b, cfg.smem_per_sm);
        assert!(b.stats().smem_peak_bytes <= cfg.smem_per_sm);
        assert!(b.stats().smem_peak_bytes >= 16 * 1024, "should use most of smem");
        assert!(list.global_region > 0);
    }

    #[test]
    fn equal_distance_candidates_do_not_displace() {
        // Once the list is full, a candidate at exactly the k-th distance
        // displaces the k-th row only if its id is lower: the list keeps the
        // first k by (dist, id), whatever the offer order.
        let (mut b, smem) = block();
        let mut list = GpuKnnList::new(2, SharedMemPolicy::AllShared, &mut b, smem);
        assert!(list.offer(&mut b, 1.0, 7));
        assert!(list.offer(&mut b, 1.0, 3));
        assert!(!list.offer(&mut b, 1.0, 9), "a larger id does not displace");
        // A smaller id does, but improves no distance: not a continuation.
        assert!(!list.offer(&mut b, 1.0, 5));
        let out = list.into_sorted();
        assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), vec![3, 5]);
    }

    #[test]
    fn nan_distance_is_rejected() {
        let (mut b, smem) = block();
        let mut list = GpuKnnList::new(2, SharedMemPolicy::AllShared, &mut b, smem);
        assert!(!list.offer(&mut b, f32::NAN, 0), "NaN must never enter the list");
        assert!(list.is_empty());
        list.offer(&mut b, 1.0, 1);
        assert!(!list.offer(&mut b, f32::NAN, 2));
        assert_eq!(list.len(), 1);
        assert_eq!(list.into_sorted()[0].id, 1);
    }

    #[test]
    fn duplicate_point_is_inserted_once() {
        let (mut b, smem) = block();
        let mut list = GpuKnnList::new(4, SharedMemPolicy::AllShared, &mut b, smem);
        assert!(list.offer(&mut b, 2.0, 9));
        assert!(!list.offer(&mut b, 2.0, 9), "same point must not enter twice");
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn k_of_one_tracks_the_single_best() {
        let (mut b, smem) = block();
        let mut list = GpuKnnList::new(1, SharedMemPolicy::AllShared, &mut b, smem);
        assert_eq!(list.bound(), f32::INFINITY);
        assert!(list.offer(&mut b, 7.0, 0));
        assert_eq!(list.bound(), 7.0);
        assert!(!list.offer(&mut b, 7.0, 1), "a tie with a larger id must not displace");
        assert!(list.offer(&mut b, 3.0, 2));
        assert!(!list.offer(&mut b, 5.0, 3));
        let out = list.into_sorted();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 2);
        assert_eq!(out[0].dist, 3.0);
    }

    #[test]
    fn k_at_least_n_keeps_every_candidate() {
        // k >= number of offered points: nothing is ever evicted and the
        // bound stays infinite, so no candidate can be pruned away.
        let (mut b, smem) = block();
        let mut list = GpuKnnList::new(10, SharedMemPolicy::AllShared, &mut b, smem);
        for i in 0..6u32 {
            assert!(list.offer(&mut b, 10.0 - i as f32, i));
            assert_eq!(list.bound(), f32::INFINITY, "bound must stay open below k");
        }
        let out = list.into_sorted();
        assert_eq!(out.len(), 6);
        assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), vec![5, 4, 3, 2, 1, 0]);
        for w in out.windows(2) {
            assert!(w[0].dist <= w[1].dist, "results must stay ascending");
        }
    }

    /// `offer`'s observable contract, offer by offer, each on a fresh
    /// recording block: one `KnnUpdate` per non-NaN candidate (`pruned` for
    /// bound rejects and duplicates), nothing at all for NaN, metering only on
    /// accepts — one `scalar(update_cost)` sift, plus an 8-byte global write
    /// when the row lands in the hybrid list's global region — and the same
    /// offers on a block with no sink ending on the same counters.
    #[test]
    fn offer_emits_one_update_per_candidate_and_meters_only_accepts() {
        use psb_gpu::{Phase, VecSink};
        let cfg = DeviceConfig::k40();
        // k = 3 with one shared slot: ranks 0 and 1 are the global region.
        let policy = SharedMemPolicy::Hybrid { shared_slots: 1 };
        // (dist, id, what offer must do: None = NaN, Some(pruned)).
        let script: [(f32, u32, Option<bool>); 9] = [
            (5.0, 0, Some(false)), // rank 0 of an empty list: global region
            (f32::NAN, 1, None),   // corrupt geometry: silent
            (1.0, 2, Some(false)), // rank 0 again
            (3.0, 3, Some(false)), // rank 1; the list is now full, bound 5
            (9.0, 4, Some(true)),  // beyond the bound
            (5.0, 5, Some(true)),  // at the bound, with a larger id than the k-th
            (3.0, 3, Some(true)),  // inside the bound, but already held
            (4.0, 6, Some(false)), // rank 2: the shared slot, no global write
            (f32::NAN, 7, None),   // silent on a full list too
        ];
        let phase = Phase::ResultMerge;
        let fresh = || {
            let mut b: Block<'static> = Block::new(32, &cfg);
            b.set_phase(phase);
            b
        };

        let mut list = GpuKnnList::new(3, policy, &mut fresh(), cfg.smem_per_sm);
        assert_eq!(list.global_region, 2);
        for &(dist, id, want) in &script {
            let rank = list.entries.partition_point(|n| (n.dist, n.id) < (dist, id));
            let mut sink = VecSink::new();
            let mut b: Block<'_> = Block::with_sink(32, &cfg, Some(&mut sink));
            b.set_phase(phase);
            let accepted = list.offer(&mut b, dist, id);
            let got = b.finish();
            // What the offer should have metered and emitted, spelled out.
            let (mut expected, mut events) = (fresh(), Vec::new());
            let cost = list.update_cost;
            if want == Some(false) {
                expected.scalar(cost);
                events.push(TraceEvent::WarpIssue {
                    lane_slots: 32 * cost,
                    active_lanes: cost,
                    phase,
                });
                if rank < list.global_region {
                    expected.load_global(ENTRY_BYTES);
                    events.push(TraceEvent::GlobalLoad {
                        bytes: ENTRY_BYTES,
                        transactions: 1,
                        streamed: false,
                        phase,
                    });
                }
            }
            if let Some(pruned) = want {
                events.push(TraceEvent::KnnUpdate { pruned, phase });
            }
            let row = format!("offer({dist}, {id})");
            assert_eq!(accepted, want == Some(false), "{row}");
            assert_eq!(got, expected.finish(), "{row}: only an accept meters");
            assert_eq!(sink.events, events, "{row}");
        }
        let kept: Vec<u32> = list.into_sorted().iter().map(|n| n.id).collect();
        assert_eq!(kept, [2, 3, 6]);

        // The whole script on one block, traced and silent: same list, same
        // counters, one update event per non-NaN candidate.
        let run = |mut b: Block<'_>| {
            let mut list = GpuKnnList::new(3, policy, &mut b, cfg.smem_per_sm);
            b.set_phase(phase);
            for &(dist, id, _) in &script {
                list.offer(&mut b, dist, id);
            }
            (list.into_sorted(), b.finish())
        };
        let mut sink = VecSink::new();
        let traced = run(Block::with_sink(32, &cfg, Some(&mut sink)));
        assert_eq!(traced, run(Block::new(32, &cfg)));
        let updates = sink.events.iter().filter(|e| matches!(e, TraceEvent::KnnUpdate { .. }));
        assert_eq!(updates.count(), script.iter().filter(|s| s.2.is_some()).count());
    }

    /// The insertion rank is the tuple comparison's `partition_point` on
    /// lists full of equal distances, where `-0.0 == 0.0` hands the order to
    /// the ids. NaN is never ranked: `offer` turns it away first.
    #[test]
    fn rank_is_the_tuple_comparisons_partition_point() {
        let (mut b, smem) = block();
        let dists = [-0.0f32, 0.0, 0.5, 0.5, 0.5, 2.0, f32::INFINITY];
        let mut s = 7u64;
        let mut next = |m: u64| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) % m) as usize
        };
        for len in 0..=12 {
            let mut list = GpuKnnList::new(16, SharedMemPolicy::AllShared, &mut b, smem);
            list.entries =
                (0..len).map(|_| Neighbor { dist: dists[next(7)], id: next(6) as u32 }).collect();
            list.entries.sort_by(|a, b| (a.dist, a.id).partial_cmp(&(b.dist, b.id)).unwrap());
            for dist in dists {
                for id in 0..7 {
                    let want = list.entries.partition_point(|n| (n.dist, n.id) < (dist, id));
                    assert_eq!(list.rank(dist, id), want, "({dist}, {id}) in {:?}", list.entries);
                }
            }
        }
    }

    #[test]
    fn duplicate_distances_break_ties_by_ascending_id() {
        // Many candidates at the same distance: the list orders by (dist, id),
        // so the survivors are the lowest ids regardless of arrival order.
        let (mut b, smem) = block();
        let mut list = GpuKnnList::new(3, SharedMemPolicy::AllShared, &mut b, smem);
        for id in [42u32, 7, 19, 3, 28] {
            list.offer(&mut b, 2.5, id);
        }
        let out = list.into_sorted();
        assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), vec![3, 7, 19]);
        // Full at dist 2.5, a later equal-distance row displaces the k-th
        // only with a lower id, so the survivors do not depend on the offer
        // order either.
        let (mut b2, smem2) = block();
        let mut list2 = GpuKnnList::new(3, SharedMemPolicy::AllShared, &mut b2, smem2);
        for id in [3u32, 28, 7, 42, 19] {
            list2.offer(&mut b2, 2.5, id);
        }
        assert_eq!(
            list2.into_sorted().iter().map(|n| n.id).collect::<Vec<_>>(),
            vec![3, 7, 19],
            "tie survivors are the first k by (dist, id), not the first k offered"
        );
    }
}
