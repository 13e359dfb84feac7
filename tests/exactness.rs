//! Cross-engine exactness: every traversal algorithm, on every tree
//! construction, over every workload generator, must return a linear scan's
//! answer — the first k by `(distance, id)`, ids and distance bits. This is
//! the repository's master correctness gate — PSB is an *exact* algorithm
//! (the paper contrasts it with RBC-style approximations, §VI).

use psb::prelude::*;

fn assert_distances_match(got: &[Neighbor], want: &[Neighbor], ctx: &str) {
    assert_eq!(bits(got), bits(want), "{ctx}: (id, distance bits) differ from the oracle's");
}

/// `(id, distance bits)` of each row: equality is bit for bit.
fn bits(ns: &[Neighbor]) -> Vec<(u32, u32)> {
    ns.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

fn check_all_engines(data: &PointSet, queries: &PointSet, k: usize, degree: usize, ctx: &str) {
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();

    let trees = [
        ("hilbert", build(data, degree, &BuildMethod::Hilbert)),
        ("kmeans", build(data, degree, &BuildMethod::KMeans { k_leaf: 16, seed: 1 })),
        ("topdown", build_topdown(data, degree)),
    ];
    let kd = KdTree::build(data, 8);
    let sr = SrTree::build(data, 2048);
    let (kd_results, _) = knn_task_parallel(&kd, queries, k, &cfg, 32);

    for (qi, q) in queries.iter().enumerate() {
        let want = linear_knn(data, q, k);
        for (tname, tree) in &trees {
            let (a, _) = psb_query(tree, q, k, &cfg, &opts);
            assert_distances_match(&a, &want, &format!("{ctx}/psb/{tname}"));
            let (b, _) = bnb_query(tree, q, k, &cfg, &opts);
            assert_distances_match(&b, &want, &format!("{ctx}/bnb/{tname}"));
            let c = knn_best_first(tree, q, k);
            assert_distances_match(&c, &want, &format!("{ctx}/best_first/{tname}"));
            let d = knn_branch_and_bound(tree, q, k);
            assert_distances_match(&d, &want, &format!("{ctx}/cpu_bnb/{tname}"));
        }
        let (e, _) = brute_query(data, q, k, &cfg, &opts);
        assert_distances_match(&e, &want, &format!("{ctx}/brute"));
        assert_distances_match(&kd_results[qi], &want, &format!("{ctx}/kdtree_gpu"));
        let (f, _) = sr.knn(q, k);
        assert_distances_match(&f, &want, &format!("{ctx}/srtree"));
    }
}

#[test]
fn clustered_low_dim() {
    let data =
        ClusteredSpec { clusters: 8, points_per_cluster: 250, dims: 2, sigma: 80.0, seed: 101 }
            .generate();
    let queries = sample_queries(&data, 12, 0.01, 102);
    check_all_engines(&data, &queries, 8, 16, "clustered-2d");
}

#[test]
fn clustered_high_dim() {
    let data =
        ClusteredSpec { clusters: 6, points_per_cluster: 300, dims: 32, sigma: 300.0, seed: 103 }
            .generate();
    let queries = sample_queries(&data, 8, 0.01, 104);
    check_all_engines(&data, &queries, 16, 32, "clustered-32d");
}

#[test]
fn uniform_data() {
    // Uniform data defeats pruning (the curse of dimensionality regime the
    // paper discusses) — exactness must still hold while everything degrades
    // to near-full scans.
    let data = UniformSpec { len: 1_500, dims: 8, seed: 105 }.generate();
    let queries = sample_queries(&data, 8, 0.05, 106);
    check_all_engines(&data, &queries, 10, 16, "uniform-8d");
}

#[test]
fn noaa_reports() {
    let data = NoaaSpec { stations: 400, reports: 2_000, extra_dims: 0, seed: 107 }.generate();
    let queries = sample_queries(&data, 10, 0.01, 108);
    check_all_engines(&data, &queries, 8, 16, "noaa");
}

#[test]
fn near_duplicate_points() {
    // Many coincident points (ties everywhere) — the stress case for bound
    // handling with strict inequalities.
    let mut data = PointSet::new(3);
    for i in 0..600 {
        let v = (i / 100) as f32;
        data.push(&[v, v, v]);
    }
    let queries = {
        let mut q = PointSet::new(3);
        q.push(&[0.0, 0.0, 0.0]);
        q.push(&[2.5, 2.5, 2.5]);
        q.push(&[5.0, 5.0, 5.0]);
        q
    };
    check_all_engines(&data, &queries, 150, 16, "duplicates");
}

#[test]
fn k_spanning_the_whole_dataset() {
    let data =
        ClusteredSpec { clusters: 3, points_per_cluster: 100, dims: 4, sigma: 50.0, seed: 109 }
            .generate();
    let queries = sample_queries(&data, 4, 0.02, 110);
    check_all_engines(&data, &queries, 300, 8, "k-equals-n");
}

#[test]
fn wider_than_the_hilbert_key() {
    // 300 dimensions: the curve has a bit for each of the first 256 only.
    // Every Hilbert consumer — both tree builds, the shard plan, the query
    // schedule — used to index past the key's fourth word here.
    let data =
        ClusteredSpec { clusters: 4, points_per_cluster: 100, dims: 300, sigma: 500.0, seed: 111 }
            .generate();
    let queries = sample_queries(&data, 9, 0.01, 112);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions { schedule: QuerySchedule::Hilbert, ..Default::default() };
    let tree = build(&data, 16, &BuildMethod::Hilbert);
    tree.validate().expect("valid tree");
    let rtree = build_rtree(&data, 16, &RtreeBuildMethod::Hilbert);
    let got = psb_batch(&tree, &queries, 7, &cfg, &opts).expect("psb");
    let got_r = psb_batch(&rtree, &queries, 7, &cfg, &opts).expect("psb/rtree");
    for (qi, q) in queries.iter().enumerate() {
        let want = linear_knn(&data, q, 7);
        assert_eq!(got.neighbors[qi], want, "sstree, query {qi}");
        assert_eq!(got_r.neighbors[qi], want, "rtree, query {qi}");
    }
    let plan = partition(&data, 3, &ShardPolicy::HilbertRange);
    assert_eq!(plan.assignments.iter().map(Vec::len).sum::<usize>(), data.len());
}

#[test]
fn distances_that_overflow_to_infinity_are_still_neighbours() {
    // 64 points on a 2-d segment scaled by `s`: from s = 1e19 on, every
    // squared distance to the origin overflows f32 and every MINDIST reads
    // +inf, which equals the bound of a list still short of k. Those subtrees
    // must be admitted: the k nearest are all out there.
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let mut origin = PointSet::new(2);
    origin.push(&[0.0, 0.0]);
    for s in [1e18f32, 1e19, 3e19] {
        let mut data = PointSet::new(2);
        for i in 0..64 {
            let t = i as f32 / 64.0;
            data.push(&[s * (1.0 + t), s * (2.0 - t)]);
        }
        let tree = build(&data, 4, &BuildMethod::Hilbert);
        for k in [4, 64] {
            let want = linear_knn(&data, origin.point(0), k);
            assert_eq!(want.len(), k, "s {s} k {k}: the oracle");
            let runs = [
                ("psb", psb_batch(&tree, &origin, k, &cfg, &opts)),
                ("bnb", bnb_batch(&tree, &origin, k, &cfg, &opts)),
                ("restart", restart_batch(&tree, &origin, k, &cfg, &opts)),
                ("wave", wave_knn_batch(&tree, &origin, k, &cfg, &opts).map(|(r, _)| r)),
            ];
            for (name, got) in runs {
                let got = got.unwrap_or_else(|e| panic!("{name} s {s} k {k}: {e}"));
                assert_eq!(got.neighbors[0], want, "{name} s {s} k {k}");
                assert_eq!(got.outcomes[0], QueryOutcome::Clean, "{name} s {s} k {k}");
            }
            let (tpss, _) = tpss_batch(&tree, &origin, k, &cfg, 32);
            let (kd, _) = knn_task_parallel(&KdTree::build(&data, 8), &origin, k, &cfg, 32);
            let lb = stackfree_batch(&LbKdTree::build(&data), &origin, k, &cfg, &opts)
                .expect("stackfree");
            let (sr, _) = SrTree::build(&data, 64).knn(origin.point(0), k);
            let cpu = [
                ("best_first", knn_best_first(&tree, origin.point(0), k)),
                ("cpu_bnb", knn_branch_and_bound(&tree, origin.point(0), k)),
                ("tpss", tpss.into_iter().next().expect("one query")),
                ("kdtree_gpu", kd.into_iter().next().expect("one query")),
                ("stackfree", lb.neighbors[0].clone()),
                ("srtree", sr),
            ];
            for (name, got) in cpu {
                assert_distances_match(&got, &want, &format!("{name} s {s} k {k}"));
            }
        }
    }
}

#[test]
fn a_nan_query_has_no_neighbours() {
    // Every distance to a NaN query is NaN, and NaN ranks nowhere: no search
    // may return a row for it. 64 2-d points fit one SR-tree page of 1 KiB and
    // one SS-tree leaf at degree 64, so the root's MINDIST of 0 lets every row
    // reach the k-best list; the kd-trees offer the rows on their near path.
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let mut data = PointSet::new(2);
    for i in 0..64 {
        data.push(&[(i % 8) as f32, (i / 8) as f32]);
    }
    let mut queries = PointSet::new(2);
    queries.push(&[f32::NAN, 3.0]);
    let q = queries.point(0);
    let tree = build(&data, 64, &BuildMethod::Hilbert);
    let sr = SrTree::build(&data, 1024);
    assert_eq!((tree.num_nodes(), sr.num_nodes()), (1, 1), "one leaf each");
    let kd = KdTree::build(&data, 8);
    let k = 4;
    // The mutable index and its router, each with three pending inserts in
    // a delta buffer the query scans after the base.
    let mut dynamic = DynamicSsTree::new(&data, 64, BuildMethod::Hilbert);
    let mut router = DynamicShardRouter::build(&data, 2, &ShardPolicy::HilbertRange, 64);
    for p in [[0.5, 0.5], [3.5, 2.5], [7.5, 6.5]] {
        dynamic.insert(&p);
        router.insert(&p);
    }
    assert_eq!(dynamic.pending(), 3);
    let (psb, _) = psb_query(&tree, q, k, &cfg, &opts);
    let (brute, _) = brute_query(&data, q, k, &cfg, &opts);
    let (tpss, _) = tpss_batch(&tree, &queries, k, &cfg, 32);
    let (kd_gpu, _) = knn_task_parallel(&kd, &queries, k, &cfg, 32);
    let runs = [
        ("psb", psb),
        ("brute", brute),
        ("linear", linear_knn(&data, q, k)),
        ("best_first", knn_best_first(&tree, q, k)),
        ("cpu_bnb", knn_branch_and_bound(&tree, q, k)),
        ("srtree", sr.knn(q, k).0),
        ("kdtree", knn_cpu(&kd, q, k)),
        ("lb_kdtree", LbKdTree::build(&data).knn_cpu(q, k)),
        ("tpss", tpss.into_iter().next().expect("one query")),
        ("kdtree_gpu", kd_gpu.into_iter().next().expect("one query")),
        ("dynamic", dynamic.knn(q, k)),
        ("dynamic_gpu", dynamic.knn_gpu(q, k, &cfg, &opts).0),
        ("dynamic_router", router.knn(q, k)),
    ];
    for (name, got) in runs {
        assert!(got.is_empty(), "{name}: {got:?}");
    }
}

#[test]
fn ties_on_a_lattice_resolve_to_the_first_k_by_distance_and_id() {
    // A 16 x 16 integer lattice, queried on sites, at cell centres and at
    // edge midpoints: distances tie at every rank, and every node boundary
    // sits on lattice lines, so MINDISTs and plane gaps land exactly on the
    // k-th distance. Every search must name `linear_knn`'s ids.
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let mut data = PointSet::new(2);
    for i in 0..256 {
        data.push(&[(i % 16) as f32, (i / 16) as f32]);
    }
    let mut queries = PointSet::new(2);
    for i in 0..40u32 {
        let (x, y) = ((i * 7 % 16) as f32, (i * 5 % 16) as f32);
        let (dx, dy) = [(0.0, 0.0), (0.5, 0.5), (0.5, 0.0), (0.0, 0.5)][i as usize % 4];
        queries.push(&[(x + dx).min(15.0), (y + dy).min(15.0)]);
    }
    let trees =
        [("hilbert", build(&data, 8, &BuildMethod::Hilbert)), ("topdown", build_topdown(&data, 8))];
    let kd = KdTree::build(&data, 8);
    let lb = LbKdTree::build(&data);
    let sr = SrTree::build(&data, 1024);
    // Every id mismatch, by search: one report, not the first failure.
    let mut wrong: Vec<String> = Vec::new();
    let mut check = |name: &str, k: usize, got: &[Vec<Neighbor>], want: &[Vec<Neighbor>]| {
        let bad = got.iter().zip(want).filter(|(g, w)| bits(g) != bits(w)).count();
        if bad > 0 || got.len() != want.len() {
            wrong.push(format!("{name} k {k}: {bad} of {} answers", want.len()));
        }
    };
    for k in [1usize, 4, 5, 8, 13] {
        let want: Vec<Vec<Neighbor>> = queries.iter().map(|q| linear_knn(&data, q, k)).collect();
        let each = |f: &dyn Fn(&[f32]) -> Vec<Neighbor>| queries.iter().map(f).collect::<Vec<_>>();
        for (t, tree) in &trees {
            check(&format!("psb/{t}"), k, &each(&|q| psb_query(tree, q, k, &cfg, &opts).0), &want);
            check(&format!("bnb/{t}"), k, &each(&|q| bnb_query(tree, q, k, &cfg, &opts).0), &want);
            let restart = each(&|q| restart_query(tree, q, k, &cfg, &opts).0);
            check(&format!("restart/{t}"), k, &restart, &want);
            check(&format!("best_first/{t}"), k, &each(&|q| knn_best_first(tree, q, k)), &want);
            check(&format!("cpu_bnb/{t}"), k, &each(&|q| knn_branch_and_bound(tree, q, k)), &want);
            check(&format!("tpss/{t}"), k, &tpss_batch(tree, &queries, k, &cfg, 32).0, &want);
            let (wave, _) = wave_knn_batch(tree, &queries, k, &cfg, &opts).expect("wave");
            check(&format!("wave/{t}"), k, &wave.neighbors, &want);
            let mut stream =
                QueryStream::with_chunk_size(tree, Kernel::Psb { k }, cfg.clone(), opts.clone(), 7);
            for q in queries.iter() {
                stream.push(q);
            }
            let streamed: Vec<Vec<Neighbor>> =
                stream.finish().into_iter().flat_map(|chunk| chunk.neighbors).collect();
            check(&format!("stream/{t}"), k, &streamed, &want);
        }
        check("stackfree", k, &each(&|q| stackfree_query(&lb, q, k, &cfg, &opts).0), &want);
        check("lb_kdtree_cpu", k, &each(&|q| lb.knn_cpu(q, k)), &want);
        check("kdtree_cpu", k, &each(&|q| knn_cpu(&kd, q, k)), &want);
        check("kdtree_gpu", k, &knn_task_parallel(&kd, &queries, k, &cfg, 32).0, &want);
        check("srtree", k, &each(&|q| sr.knn(q, k).0), &want);
        check("brute", k, &each(&|q| brute_query(&data, q, k, &cfg, &opts).0), &want);

        // The router, over four shards: a batch, then `knn` behind its cache
        // — filled, then absorbing inserts that tie with lattice sites and
        // with each other, then answering every query from the cache.
        let mut router = ShardRouter::build(&data, &ServeConfig::new(4), &cfg, |ps| {
            build(ps, 8, &BuildMethod::Hilbert)
        });
        let served = router.serve_batch(&queries, k, &opts).expect("serve");
        check("router/serve_batch", k, &served.neighbors, &want);
        router.attach_cache(64);
        check("router/knn", k, &each(&|q| router.knn(q, k)), &want);
        let mut grown = data.clone();
        for p in [[3.0, 4.0], [7.5, 7.5], [7.5, 7.5], [0.0, 15.0]] {
            assert_eq!(router.insert(&p) as usize, grown.len());
            grown.push(&p);
        }
        let want_grown: Vec<Vec<Neighbor>> =
            queries.iter().map(|q| linear_knn(&grown, q, k)).collect();
        let hits = router.cache_stats().0;
        check("router/knn after absorb", k, &each(&|q| router.knn(q, k)), &want_grown);
        assert_eq!(router.cache_stats().0 - hits, queries.len() as u64, "every query a hit");

        // The mutable index with pending inserts and tombstones.
        let mut dynamic = DynamicSsTree::new(&data, 8, BuildMethod::Hilbert);
        let mut live: Vec<(u32, Vec<f32>)> =
            data.iter().enumerate().map(|(i, p)| (i as u32, p.to_vec())).collect();
        for p in [[5.0, 5.0], [8.5, 2.0], [12.0, 12.5]] {
            live.push((dynamic.insert(&p), p.to_vec()));
        }
        for id in [17u32, 85, 86, 120, 200, 257] {
            assert!(dynamic.remove(id));
            live.retain(|(i, _)| *i != id);
        }
        assert!(dynamic.pending() > 0, "inserts still in the delta buffer");
        // The first k live rows by `(dist, id)`: the one answer every search owes.
        let oracle = |q: &[f32]| {
            let mut rows: Vec<Neighbor> =
                live.iter().map(|(id, p)| Neighbor { dist: dist(q, p), id: *id }).collect();
            rows.sort_by(Neighbor::by_rank);
            rows.truncate(k);
            rows
        };
        let want_live = each(&oracle);
        check("dynamic/knn", k, &each(&|q| dynamic.knn(q, k)), &want_live);
        check("dynamic/knn_gpu", k, &each(&|q| dynamic.knn_gpu(q, k, &cfg, &opts).0), &want_live);
    }
    assert!(
        wrong.is_empty(),
        "answers that name other ids than the oracle's:\n{}",
        wrong.join("\n")
    );
}
