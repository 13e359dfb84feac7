//! Cross-engine exactness: every traversal algorithm, on every tree
//! construction, over every workload generator, must return the same neighbor
//! distances as a linear scan. This is the repository's master correctness
//! gate — PSB is an *exact* algorithm (the paper contrasts it with RBC-style
//! approximations, §VI).

use psb::prelude::*;

fn assert_distances_match(got: &[Neighbor], want: &[Neighbor], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: result count");
    for (g, w) in got.iter().zip(want) {
        let scale = w.dist.max(1.0);
        assert!(
            (g.dist - w.dist).abs() <= scale * 1e-4,
            "{ctx}: distance {} != oracle {}",
            g.dist,
            w.dist
        );
    }
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
        let (f, _) = sr.knn_with_points(data, q, k);
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
