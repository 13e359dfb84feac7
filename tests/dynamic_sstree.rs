//! Integration coverage for [`DynamicSsTree`]: insert/delete/rebuild
//! sequences checked against a brute-force mirror, on both the CPU and the
//! simulated-GPU query paths, plus a proptest over randomized interleavings.
//!
//! The structure's contract is *exactness at every moment*: whatever mix of
//! delta-buffered inserts, tombstoned deletes, rebuilds once one is due, and
//! explicit rebuilds has happened, `knn`/`knn_gpu` answer identically to a
//! linear scan of the live set with stable external ids.
//!
//! [`DynamicShardRouter`]'s result cache makes the same promise one layer up
//! — a hit is an exact answer for the live set, through inserts, removes and
//! shard rebuilds — and is held to it here, differentially, on data full of
//! duplicates and tied distances.

use proptest::prelude::*;
use psb::prelude::*;

/// Linear-scan oracle over an externally maintained (id, point) mirror, with
/// the structure's own tie rule: ascending `(dist, id)`.
fn oracle(mirror: &[(u32, Vec<f32>)], q: &[f32], k: usize) -> Vec<Neighbor> {
    let mut v: Vec<Neighbor> =
        mirror.iter().map(|(id, p)| Neighbor { dist: dist(q, p), id: *id }).collect();
    v.sort_by(Neighbor::by_rank);
    v.truncate(k.min(v.len()));
    v
}

fn check_queries(t: &DynamicSsTree, mirror: &[(u32, Vec<f32>)], queries: &PointSet, k: usize) {
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    for qi in 0..queries.len() {
        let q = queries.point(qi);
        let want = oracle(mirror, q, k);
        assert_eq!(t.knn(q, k), want, "cpu knn diverged at query {qi}");
        let (gpu, stats) = t.knn_gpu(q, k, &cfg, &opts);
        assert_eq!(gpu, want, "gpu knn diverged at query {qi}");
        if !mirror.is_empty() {
            assert!(stats.nodes_visited > 0 || stats.global_bytes > 0);
        }
    }
}

#[test]
fn insert_delete_sequence_stays_exact() {
    let ps = ClusteredSpec { clusters: 4, points_per_cluster: 200, dims: 3, sigma: 90.0, seed: 61 }
        .generate();
    let mut t = DynamicSsTree::new(&ps, 16, BuildMethod::Hilbert);
    let mut mirror: Vec<(u32, Vec<f32>)> =
        (0..ps.len()).map(|i| (i as u32, ps.point(i).to_vec())).collect();
    let queries = sample_queries(&ps, 10, 0.01, 62);
    check_queries(&t, &mirror, &queries, 6);

    // Interleave: insert a fresh clustered wave, delete a stripe of originals.
    let extra =
        ClusteredSpec { clusters: 2, points_per_cluster: 50, dims: 3, sigma: 60.0, seed: 63 }
            .generate();
    for i in 0..extra.len() {
        let id = t.insert(extra.point(i));
        mirror.push((id, extra.point(i).to_vec()));
        if i % 4 == 0 {
            let victim = (i * 7) as u32 % ps.len() as u32;
            let removed = t.remove(victim);
            assert_eq!(removed, mirror.iter().any(|(id, _)| *id == victim));
            mirror.retain(|(id, _)| *id != victim);
        }
    }
    assert_eq!(t.len(), mirror.len());
    check_queries(&t, &mirror, &queries, 6);

    // Removing a dead id is a no-op and reports false.
    assert!(!t.remove(u32::MAX));
    assert_eq!(t.len(), mirror.len());
}

#[test]
fn churn_past_rebuild_threshold_stays_exact() {
    // A rebuild is due past 20% churn: push well past it several times and
    // rebuild whenever one is due, as the tree's owner does, so several
    // rebuilds land mid-sequence, and verify queries after every wave.
    // External ids must survive each rebuild.
    let ps = UniformSpec { len: 500, dims: 4, seed: 71 }.generate();
    let mut t = DynamicSsTree::new(&ps, 16, BuildMethod::Hilbert);
    let mut mirror: Vec<(u32, Vec<f32>)> =
        (0..ps.len()).map(|i| (i as u32, ps.point(i).to_vec())).collect();
    let queries = sample_queries(&ps, 8, 0.01, 72);
    let mut rebuilds = 0;
    let mut rebuild_if_due = |t: &mut DynamicSsTree| {
        if t.rebuild_due() {
            t.rebuild();
            rebuilds += 1;
        }
    };

    let waves = UniformSpec { len: 600, dims: 4, seed: 73 }.generate();
    for wave in 0..4 {
        for i in (wave * 150)..((wave + 1) * 150) {
            let id = t.insert(waves.point(i));
            mirror.push((id, waves.point(i).to_vec()));
            rebuild_if_due(&mut t);
        }
        // Delete every third point of the previous wave's ids.
        let cut: Vec<u32> = mirror
            .iter()
            .map(|(id, _)| *id)
            .filter(|id| *id % 3 == 0 && *id >= (wave as u32) * 40)
            .take(40)
            .collect();
        for id in cut {
            assert!(t.remove(id));
            mirror.retain(|(i, _)| *i != id);
            rebuild_if_due(&mut t);
        }
        assert_eq!(t.len(), mirror.len(), "live count drifted after wave {wave}");
        check_queries(&t, &mirror, &queries, 9);
    }
    assert!(rebuilds >= 3, "only {rebuilds} rebuilds");
}

#[test]
fn explicit_rebuild_preserves_ids_and_answers() {
    let ps = UniformSpec { len: 300, dims: 5, seed: 81 }.generate();
    let mut t = DynamicSsTree::new(&ps, 8, BuildMethod::Hilbert);
    let mut mirror: Vec<(u32, Vec<f32>)> =
        (0..ps.len()).map(|i| (i as u32, ps.point(i).to_vec())).collect();
    let extra = UniformSpec { len: 30, dims: 5, seed: 82 }.generate();
    for i in 0..extra.len() {
        let id = t.insert(extra.point(i));
        mirror.push((id, extra.point(i).to_vec()));
    }
    for id in [0u32, 7, 299, 301] {
        assert!(t.remove(id));
        mirror.retain(|(i, _)| *i != id);
    }
    let queries = sample_queries(&ps, 8, 0.01, 83);
    let before: Vec<Vec<Neighbor>> =
        (0..queries.len()).map(|qi| t.knn(queries.point(qi), 7)).collect();
    t.rebuild();
    let after: Vec<Vec<Neighbor>> =
        (0..queries.len()).map(|qi| t.knn(queries.point(qi), 7)).collect();
    assert_eq!(before, after, "explicit rebuild changed answers");
    check_queries(&t, &mirror, &queries, 7);
}

#[test]
fn drain_to_empty_and_refill() {
    let ps = UniformSpec { len: 64, dims: 3, seed: 91 }.generate();
    let mut t = DynamicSsTree::new(&ps, 8, BuildMethod::Hilbert);
    for id in 0..64u32 {
        assert!(t.remove(id));
    }
    assert!(t.is_empty());
    assert_eq!(t.knn(ps.point(0), 3), Vec::new());
    let mut mirror: Vec<(u32, Vec<f32>)> = Vec::new();
    for i in 0..ps.len() {
        let id = t.insert(ps.point(i));
        mirror.push((id, ps.point(i).to_vec()));
    }
    assert_eq!(t.len(), 64);
    let queries = sample_queries(&ps, 6, 0.02, 92);
    check_queries(&t, &mirror, &queries, 5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Randomized interleaving of insert / remove (of base points, of delta
    // points, of ids that are not alive) / explicit rebuild, whole and in its
    // three steps with and without an insert in between (rebased by the
    // install), verified against the mirror after every operation batch.
    #[test]
    fn random_interleavings_stay_exact(
        seed in 1u64..10_000,
        dims in 2usize..6,
        k in 1usize..10,
        ops in 20usize..80,
    ) {
        let ps = ClusteredSpec {
            clusters: 3, points_per_cluster: 60, dims, sigma: 100.0, seed,
        }.generate();
        let mut t = DynamicSsTree::new(&ps, 8, BuildMethod::Hilbert);
        let mut mirror: Vec<(u32, Vec<f32>)> =
            (0..ps.len()).map(|i| (i as u32, ps.point(i).to_vec())).collect();
        let fresh = UniformSpec { len: ops, dims, seed: seed ^ 0xD1CE }.generate();
        let queries = sample_queries(&ps, 4, 0.02, seed ^ 0xBEEF);
        let mut state = seed;
        let mut dead = u32::MAX;
        for i in 0..ops {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            match (state >> 33) % 7 {
                0..=2 => {
                    let id = t.insert(fresh.point(i));
                    mirror.push((id, fresh.point(i).to_vec()));
                }
                3 => {
                    if !mirror.is_empty() {
                        // The newest ids sit in the delta, the oldest in the base.
                        let pos = (state / 7) as usize % mirror.len();
                        let id = mirror[pos].0;
                        prop_assert!(t.remove(id));
                        mirror.retain(|(j, _)| *j != id);
                        dead = id;
                    }
                }
                4 => prop_assert!(!t.remove(dead), "id {} is not alive", dead),
                5 => t.rebuild(),
                _ => {
                    let Some(snapshot) = t.snapshot() else { continue };
                    let rebuilt = snapshot.build();
                    let mutate = state & 1 == 1;
                    if mutate {
                        let id = t.insert(fresh.point(i));
                        mirror.push((id, fresh.point(i).to_vec()));
                    }
                    // A racing insert is rebased: it stays pending.
                    t.install(rebuilt);
                    prop_assert_eq!(t.pending(), usize::from(mutate));
                }
            }
        }
        prop_assert_eq!(t.len(), mirror.len());
        check_queries(&t, &mirror, &queries, k);
    }

    // The router's maintained cache against the same router without one and
    // against the oracle, after every write: inserts (folded into the resident
    // answers), removes (the flush), shard rebuilds (nothing), over a lattice
    // so small that points repeat and distances tie at every rank, with k
    // below, around and beyond the live count. The pool is a little larger
    // than the cache, so entries are also evicted and filed again.
    #[test]
    fn cached_router_stays_exact_through_inserts_removes_and_rebuilds(
        seed in 1u64..10_000,
        dims in 2usize..4,
        ops in 30usize..90,
    ) {
        const SHARDS: usize = 3;
        const KS: [usize; 3] = [1, 8, 1000];
        let mut state = seed;
        let mut draw = move |below: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % below
        };
        let lattice_point = |draw: &mut dyn FnMut(usize) -> usize, offset: f32| -> Vec<f32> {
            (0..dims).map(|_| draw(5) as f32 + offset).collect()
        };
        let mut ps = PointSet::new(dims);
        for _ in 0..90 {
            ps.push(&lattice_point(&mut draw, 0.0));
        }
        // Queries on lattice points (distance 0 to every copy) and on cell
        // centres (equidistant from all corners).
        let pool: Vec<Vec<f32>> =
            [0.0, 0.5, 0.0, 0.5, 0.0].iter().map(|&offset| lattice_point(&mut draw, offset)).collect();
        let mut cached = DynamicShardRouter::build(&ps, SHARDS, &ShardPolicy::HilbertRange, 4);
        cached.attach_cache(12);
        let mut plain = DynamicShardRouter::build(&ps, SHARDS, &ShardPolicy::HilbertRange, 4);
        let mut mirror: Vec<(u32, Vec<f32>)> =
            (0..ps.len()).map(|i| (i as u32, ps.point(i).to_vec())).collect();
        let mut dead = u32::MAX;
        for step in 0..ops {
            match draw(8) {
                0..=3 => {
                    let p = lattice_point(&mut draw, 0.0);
                    let id = cached.insert(&p);
                    prop_assert_eq!(plain.insert(&p), id);
                    mirror.push((id, p));
                }
                4 if !mirror.is_empty() => {
                    dead = mirror.swap_remove(draw(mirror.len())).0;
                    prop_assert!(cached.remove(dead) && plain.remove(dead));
                }
                4 | 5 => prop_assert!(!cached.remove(dead) && !plain.remove(dead)),
                _ => {
                    let s = draw(SHARDS);
                    cached.rebuild_shard(s);
                    plain.rebuild_shard(s);
                }
            }
            prop_assert_eq!(cached.len(), mirror.len());
            for _ in 0..4 {
                let (q, k) = (&pool[draw(pool.len())], KS[draw(KS.len())]);
                let want = oracle(&mirror, q, k);
                for (which, got) in [("cached", cached.knn(q, k)), ("plain", plain.knn(q, k))] {
                    prop_assert_eq!(
                        &got, &want,
                        "step {}: {} router, k {}, query {:?}", step, which, k, q
                    );
                }
            }
        }
        let (hits, misses, evictions, _) = cached.cache_stats();
        prop_assert!(hits > 0 && misses > 0 && evictions > 0, "{:?}", cached.cache_stats());
    }
}
