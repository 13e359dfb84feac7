//! Property-based tests on the index structures and geometric primitives.

use proptest::prelude::*;
use psb::prelude::*;
use psb::sstree::{FlatTree, Volumes};

/// Strategy: a small random point set with controlled dims.
fn point_set(dims: usize, max_n: usize) -> impl Strategy<Value = PointSet> {
    prop::collection::vec(prop::collection::vec(-1000.0f32..1000.0, dims), 2..max_n).prop_map(
        move |rows| {
            let mut ps = PointSet::new(dims);
            for r in &rows {
                ps.push(r);
            }
            ps
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ritter_contains_all_points(ps in point_set(3, 60)) {
        let idx: Vec<u32> = (0..ps.len() as u32).collect();
        for mode in [RitterMode::Sequential, RitterMode::Parallel] {
            let s = ritter_points(&ps, &idx, mode);
            for p in ps.iter() {
                prop_assert!(s.contains_point(p, 1e-4), "{p:?} outside {s:?}");
            }
        }
    }

    #[test]
    fn ritter_parallel_equals_sequential(ps in point_set(4, 50)) {
        let idx: Vec<u32> = (0..ps.len() as u32).collect();
        let a = ritter_points(&ps, &idx, RitterMode::Sequential);
        let b = ritter_points(&ps, &idx, RitterMode::Parallel);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn ritter_is_never_smaller_than_welzl(ps in point_set(3, 40)) {
        // Welzl is optimal; Ritter must be >= it and, per the paper's quoted
        // slack, within ~20% (we allow 30% for f32 noise on tiny inputs).
        let idx: Vec<u32> = (0..ps.len() as u32).collect();
        let r = ritter_points(&ps, &idx, RitterMode::Sequential);
        let w = welzl(&ps, &idx);
        prop_assert!(r.radius >= w.radius * 0.999,
            "ritter {} below optimal {}", r.radius, w.radius);
        prop_assert!(r.radius <= w.radius * 1.30 + 1e-3,
            "ritter {} exceeds the 5-20% slack over {}", r.radius, w.radius);
    }

    #[test]
    fn sphere_bounds_bracket_true_distances(
        ps in point_set(3, 40),
        q in prop::collection::vec(-1500.0f32..1500.0, 3),
    ) {
        let idx: Vec<u32> = (0..ps.len() as u32).collect();
        let s = ritter_points(&ps, &idx, RitterMode::Sequential);
        let (lo, hi) = s.min_max_dist(&q);
        for p in ps.iter() {
            let d = dist(&q, p);
            prop_assert!(d >= lo - 1e-2, "point at {d} below MINDIST {lo}");
            prop_assert!(d <= hi + hi.abs() * 1e-4 + 1e-2, "point at {d} above MAXDIST {hi}");
        }
    }

    #[test]
    fn trees_validate_and_search_exactly(
        ps in point_set(4, 120),
        degree in 2usize..20,
        k in 1usize..12,
    ) {
        for method in [BuildMethod::Hilbert, BuildMethod::KMeans { k_leaf: 5, seed: 2 }] {
            let tree = build(&ps, degree, &method);
            prop_assert!(tree.validate().is_ok(), "{:?}", tree.validate());
            let q = ps.point(0);
            let got = knn_best_first(&tree, q, k);
            let want = linear_knn(&ps, q, k);
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g.dist - w.dist).abs() <= w.dist.max(1.0) * 1e-4);
            }
        }
    }

    #[test]
    fn topdown_tree_validates(ps in point_set(3, 150), degree in 2usize..12) {
        let tree = build_topdown(&ps, degree);
        prop_assert!(tree.validate().is_ok(), "{:?}", tree.validate());
    }

    #[test]
    fn psb_equals_oracle_on_random_input(
        ps in point_set(3, 120),
        k in 1usize..10,
    ) {
        let tree = build(&ps, 8, &BuildMethod::Hilbert);
        let cfg = DeviceConfig::k40();
        let opts = KernelOptions::default();
        let q = ps.point(ps.len() / 2);
        let (got, _) = psb_query(&tree, q, k, &cfg, &opts);
        let want = linear_knn(&ps, q, k);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g.dist - w.dist).abs() <= w.dist.max(1.0) * 1e-4,
                "psb {} vs oracle {}", g.dist, w.dist);
        }
    }

    #[test]
    fn kdtree_validates_and_searches(ps in point_set(2, 150), leaf in 1usize..10) {
        let t = KdTree::build(&ps, leaf);
        prop_assert!(t.validate().is_ok(), "{:?}", t.validate());
        let q = ps.point(0);
        let got = knn_cpu(&t, q, 3.min(ps.len()));
        let want = linear_knn(&ps, q, 3);
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g.dist - w.dist).abs() <= w.dist.max(1.0) * 1e-4);
        }
    }

    #[test]
    fn hilbert_keys_are_deterministic_and_bounded(
        p in prop::collection::vec(-5000.0f32..5000.0, 5),
    ) {
        let bounds = Rect::new(vec![-5000.0; 5], vec![5000.0; 5]);
        let a = hilbert_key(&p, &bounds);
        let b = hilbert_key(&p, &bounds);
        prop_assert_eq!(a, b);
    }

    // Seeded corruption of every structural field of a freshly built tree of
    // each family: the verifier must detect the damage, and the hardened
    // kernels must either fail with a typed `KernelError` or finish with a
    // well-formed answer — never panic. Every traversal is step-budgeted, so
    // the test body returning at all is the no-infinite-loop proof.
    #[test]
    fn corrupted_trees_are_caught_and_never_panic(
        ps in point_set(3, 80),
        degree in 2usize..10,
        kind in 0usize..9,
        node_sel in 0usize..1_000_000,
    ) {
        let ss = build(&ps, degree, &BuildMethod::Hilbert);
        corrupt_and_probe(ss, &ps, kind, node_sel, |v, ni, second| match second {
            false => v.radii[ni] = f32::NAN,
            true => v.centers[ni * 3] = f32::INFINITY,
        })?;
        let rt = build_rtree(&ps, degree, &RtreeBuildMethod::Hilbert);
        corrupt_and_probe(rt, &ps, kind, node_sel, |v, ni, second| match second {
            false => v.mins[ni * 3] = f32::NAN,
            true => v.maxs[ni * 3] = f32::INFINITY,
        })?;
    }
}

fn table_kernels(k: usize) -> [Kernel; 4] {
    [Kernel::Psb { k }, Kernel::Bnb { k }, Kernel::Restart { k }, Kernel::Range { radius: 50.0 }]
}

/// A counter of `registry`, 0 if nothing ever bumped it.
fn counter(registry: &Registry, key: &str) -> u64 {
    registry.snapshot().counters.iter().find(|(k, _)| k == key).map_or(0, |c| c.1)
}

/// Damages `tree` (freshly built over `ps`, either family) in the `kind`-th
/// way at a node picked by `node_sel`, then hands it to everything a corrupt
/// tree can reach. `poison` makes node `ni`'s volume non-finite through its
/// first or second array.
fn corrupt_and_probe<V: Volumes>(
    mut tree: FlatTree<V>,
    ps: &PointSet,
    kind: usize,
    node_sel: usize,
    poison: impl Fn(&mut V, usize, bool),
) -> Result<(), TestCaseError> {
    let nn = tree.num_nodes();
    let ni = node_sel % nn;
    match kind {
        // Non-finite geometry.
        0 | 1 => poison(&mut tree.volumes, ni, kind == 1),
        // Out-of-bounds child / point range: just past both arrays, or so near
        // `u32::MAX` that adding the count overflows.
        2 if node_sel.is_multiple_of(2) => tree.first_child[ni] += (nn + ps.len()) as u32 + 1,
        2 => tree.first_child[ni] = u32::MAX - (node_sel % (tree.degree + 1)) as u32,
        // Fan-out beyond the declared degree.
        3 => tree.child_count[ni] += tree.degree as u32 + 1 + (node_sel % 1000) as u32,
        // Broken parent back-link (on the root: a parent where none may be).
        4 => tree.parent[ni] ^= 1,
        // Level no longer one above the children's.
        5 => tree.level[tree.root as usize] += 1,
        // subtreeMaxLeafId no longer the max over the subtree.
        6 => tree.subtree_max_leaf[ni] = tree.num_leaves() as u32 + 1 + ni as u32,
        // A per-node array one entry short.
        7 => match node_sel % 7 {
            0 => drop(tree.parent.pop()),
            1 => drop(tree.subtree_min_leaf.pop()),
            2 => drop(tree.level.pop()),
            3 => drop(tree.first_child.pop()),
            4 => drop(tree.child_count.pop()),
            5 => drop(tree.leaf_id.pop()),
            _ => drop(tree.subtree_max_leaf.pop()),
        },
        // A leaf-chain entry naming some other node.
        8 => {
            let l = node_sel % tree.num_leaves();
            tree.leaf_node_of[l] ^= 1;
        }
        _ => unreachable!(),
    }
    prop_assert!(
        tree.validate().is_err(),
        "kind {} corruption at node {} of {} went undetected",
        kind,
        ni,
        nn
    );
    // Array *lengths* are the one thing the kernels trust — no file and no
    // device fault can change them, and bounds-proofing every accessor costs
    // the sweep-bound workload 6 % — so for a short array the verifier's typed
    // error is the whole contract. Two arrays can be probed further all the
    // same: `parent` is the node count itself (the last id just goes out of
    // range) and `subtree_min_leaf` is read by the verifier alone.
    if kind == 7 && node_sel % 7 > 1 {
        return Ok(());
    }

    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let q = ps.point(0);
    let k = 4usize;
    for kernel in table_kernels(k) {
        if let Ok((nb, _)) = kernel.attempt(&tree, q, &cfg, &opts, None, None) {
            prop_assert!(
                nb.iter().all(|x| x.dist.is_finite()),
                "{} returned a non-finite distance from a corrupt tree",
                kernel.label()
            );
        }
    }
    let mut one = PointSet::new(tree.dims);
    one.push(q);
    if let Ok((per_query, _)) = tpss_try_batch(&tree, &one, k, &cfg, 32, None) {
        for nb in per_query.iter().flatten() {
            prop_assert!(
                nb.iter().all(|x| x.dist.is_finite()),
                "tpss returned a non-finite distance from a corrupt tree"
            );
        }
    }

    // The batch path, per-query and under the wave engine: every query comes
    // back with a typed outcome and a well-formed answer. No fault plan is
    // attached, so a kernel error is deterministic — the retry fails too and
    // the exact brute-force rung answers. A tree the wave engine's leveling
    // rejects falls through to the ladder, and says so: `wave.fell_through`
    // counts it, the batch is filed under the kernel that answered, and the
    // result is the ladder's, bit for bit.
    let batch = ps.gather(&[0, 1, (ps.len() - 1) as u32]);
    let none = FaultPlan::none();
    let knn = |q: &[f32]| linear_knn(ps, q, k).len();
    for kernel in table_kernels(k) {
        let registry = Registry::new();
        let metrics = MetricsHandle::attached(&registry);
        let waved = KernelOptions { wave: Some(WaveConfig), metrics, ..Default::default() };
        let mut results = Vec::new();
        for opts in [&opts, &waved] {
            let r = launch(&tree, &batch, kernel, &cfg, opts, &none, None)
                .expect("a non-empty batch always launches");
            for (qi, (nb, outcome)) in r.neighbors.iter().zip(&r.outcomes).enumerate() {
                prop_assert!(
                    nb.iter().all(|x| x.dist.is_finite()),
                    "{:?} wave {:?}: non-finite distance from a corrupt tree",
                    kernel,
                    opts.wave
                );
                match outcome {
                    QueryOutcome::Clean => {}
                    QueryOutcome::Degraded { first, retry } => {
                        prop_assert_eq!(first, retry, "no fault plan: the retry is a replay");
                        prop_assert!(nb.windows(2).all(|w| w[0].dist <= w[1].dist));
                        if !matches!(kernel, Kernel::Range { .. }) {
                            prop_assert_eq!(nb.len(), knn(batch.point(qi)));
                        }
                    }
                    other => prop_assert!(false, "{:?}: unexpected outcome {:?}", kernel, other),
                }
            }
            results.push(format!(
                "{:?} {:?} {:?} {:?}",
                r.neighbors, r.per_block, r.outcomes, r.report
            ));
        }
        let filed =
            |label: &str| counter(&registry, &format!("engine.batches{{kernel=\"{label}\"}}"));
        let fell = counter(&registry, "wave.fell_through");
        prop_assert_eq!(fell + filed("wave"), 1, "{:?}: one wave launch, filed once", kernel);
        prop_assert_eq!(
            filed(kernel.label()),
            fell,
            "{:?}: the ladder files its own batch",
            kernel
        );
        if fell == 1 {
            prop_assert_eq!(&results[0], &results[1], "{:?}: a fall-through is the ladder", kernel);
        }
        // A child range past the node array is a link the leveling follows.
        if kind == 2 && !tree.is_leaf(ni as u32) {
            prop_assert_eq!(fell, 1, "{:?}: the leveling must reject node {}", kernel, ni);
        }
    }
    Ok(())
}

/// A defect only the wave engine's leveling notices: two parents claiming the
/// same children. Every link is in bounds, so the per-query kernels walk the
/// tree without a typed error — nothing but the counter and the label says the
/// wave engine did not run.
#[test]
fn a_tree_only_the_leveling_rejects_falls_through_and_says_so() {
    let ps = ClusteredSpec { clusters: 4, points_per_cluster: 100, dims: 3, sigma: 60.0, seed: 5 }
        .generate();
    let mut tree = build(&ps, 4, &BuildMethod::Hilbert);
    let siblings = tree.children(tree.root);
    let (a, b) = (siblings.start as usize, siblings.start as usize + 1);
    assert!(!tree.is_leaf(a as u32) && !tree.is_leaf(b as u32), "the fixture needs three levels");
    tree.first_child[b] = tree.first_child[a];
    tree.child_count[b] = tree.child_count[a];
    assert!(tree.validate().is_err());

    let (cfg, none) = (DeviceConfig::k40(), FaultPlan::none());
    let queries = ps.gather(&[0, 7, 399]);
    let registry = Registry::new();
    let metrics = MetricsHandle::attached(&registry);
    let waved = KernelOptions { wave: Some(WaveConfig), metrics, ..Default::default() };
    let kernel = Kernel::Psb { k: 4 };
    let ladder = launch(&tree, &queries, kernel, &cfg, &KernelOptions::default(), &none, None)
        .expect("ladder");
    let fell = launch(&tree, &queries, kernel, &cfg, &waved, &none, None).expect("wave");
    assert!(ladder.outcomes.iter().all(|o| *o == QueryOutcome::Clean), "no kernel notices");
    assert_eq!(
        format!("{:?} {:?} {:?}", fell.neighbors, fell.per_block, fell.report),
        format!("{:?} {:?} {:?}", ladder.neighbors, ladder.per_block, ladder.report)
    );
    assert_eq!(counter(&registry, "wave.fell_through"), 1);
    assert_eq!(counter(&registry, "engine.batches{kernel=\"psb\"}"), 1);
    assert_eq!(counter(&registry, "engine.batches{kernel=\"wave\"}"), 0);
    assert_eq!(counter(&registry, "wave.waves"), 0, "a batch that ran no wave records no report");
}

/// The root's child link within `degree` of `u32::MAX`: `first_child + count`
/// overflows a `u32`, which used to panic every launch in debug builds and, in
/// release builds, wrap to an empty range reported as a childless node. Every
/// table kernel, tpss and the wave leveling must name the link instead — the
/// same typed error in both profiles (`./ci.sh test` runs debug, the benchmark
/// smoke release).
#[test]
fn a_child_link_near_u32_max_is_a_typed_link_error_everywhere() {
    let ps = ClusteredSpec { clusters: 4, points_per_cluster: 100, dims: 3, sigma: 60.0, seed: 6 }
        .generate();
    near_max_root_link(build(&ps, 4, &BuildMethod::Hilbert), &ps);
    near_max_root_link(build_rtree(&ps, 4, &RtreeBuildMethod::Hilbert), &ps);
}

fn near_max_root_link<V: Volumes>(mut tree: FlatTree<V>, ps: &PointSet) {
    let (cfg, opts, none) = (DeviceConfig::k40(), KernelOptions::default(), FaultPlan::none());
    let (root, k) = (tree.root, 4);
    let queries = ps.gather(&[0, 7, 399]);
    for below in 0..=tree.degree as u32 {
        tree.first_child[root as usize] = u32::MAX - below;
        assert!(tree.validate().is_err());
        let names_the_link = |e: &KernelError| matches!(e, KernelError::LinkOutOfBounds { link: "children", node, .. } if *node == root);
        for kernel in table_kernels(k) {
            let e = kernel
                .attempt(&tree, queries.point(0), &cfg, &opts, None, None)
                .expect_err("no traversal gets past the root");
            assert!(names_the_link(&e), "{} at MAX - {below}: {e:?}", kernel.label());

            // Under the wave engine the leveling meets the link first and the
            // batch falls through to the ladder, which meets it again.
            let registry = Registry::new();
            let metrics = MetricsHandle::attached(&registry);
            let waved = KernelOptions { wave: Some(WaveConfig), metrics, ..Default::default() };
            let r = launch(&tree, &queries, kernel, &cfg, &waved, &none, None).expect("launch");
            assert_eq!(counter(&registry, "wave.fell_through"), 1, "{}", kernel.label());
            for outcome in &r.outcomes {
                let QueryOutcome::Degraded { first, retry } = outcome else {
                    panic!("{}: {outcome:?}", kernel.label());
                };
                assert!(names_the_link(first) && names_the_link(retry), "{first:?} {retry:?}");
            }
        }
        let (per_query, _) =
            tpss_try_batch(&tree, &queries, k, &cfg, 32, None).expect("non-empty batch");
        for found in per_query {
            let e = found.expect_err("no lane gets past the root");
            assert!(names_the_link(&e), "tpss at MAX - {below}: {e:?}");
        }
    }
}
