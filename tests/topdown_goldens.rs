//! Pins for the two top-down builds: the SR-tree baseline's answers and page
//! counts, and the persisted image of the top-down SS-tree.
//!
//! Both tables were generated at commit 9e84af7, when the SR-tree still kept
//! a pointer tree, an insertion and splits of its own. A refactor of either
//! build must leave them unedited: an answer's ids and distance bits, a
//! query's page count and a persisted byte are all a function of the tree's
//! shape, so any drift in the insertion order, the split rule or a bound shows
//! up here. The duplicate-lattice table was re-blessed once, when every
//! search came to keep the first k by `(distance, id)`: the test holds each
//! of its answers to `linear_knn`'s before it compares the hash.

use psb::prelude::*;
use psb::srtree::SearchStats;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the tree's shape and every query's answers (ids and distance
/// bits) and [`SearchStats`].
fn sr_hash(data: &PointSet, queries: &PointSet, page_bytes: usize, k: usize) -> u64 {
    let sr = SrTree::build(data, page_bytes);
    let mut h = FNV_OFFSET;
    for v in [sr.len(), sr.height(), sr.num_nodes()] {
        h = fnv1a(h, &(v as u64).to_le_bytes());
    }
    for q in queries.iter() {
        let (got, stats): (Vec<Neighbor>, SearchStats) = sr.knn(q, k);
        h = fnv1a(h, &(got.len() as u64).to_le_bytes());
        for n in &got {
            h = fnv1a(h, &n.id.to_le_bytes());
            h = fnv1a(h, &n.dist.to_bits().to_le_bytes());
        }
        h = fnv1a(h, &stats.nodes_visited.to_le_bytes());
        h = fnv1a(h, &stats.bytes.to_le_bytes());
    }
    h
}

#[test]
fn srtree_answers_and_page_counts_are_pinned() {
    let want: [(usize, usize, u64); 12] = [
        (2, 1024, 0xa127_d71f_88eb_1a0e),
        (2, 2048, 0x4503_6365_91ba_7792),
        (2, 8192, 0x2dba_8cc1_1f0f_9502),
        (4, 1024, 0x9c1b_a211_51ff_7b98),
        (4, 2048, 0x04c9_b39a_71ac_e0e5),
        (4, 8192, 0xc2d2_9cc3_3fe5_2f8e),
        (16, 1024, 0x04a8_f197_606f_fe97),
        (16, 2048, 0x09ee_bf41_d566_33c7),
        (16, 8192, 0x2f01_c6d4_c617_3fa6),
        (64, 1024, 0x5022_6963_a2d3_653c),
        (64, 2048, 0xb7d8_d8ad_8a86_bbac),
        (64, 8192, 0x157e_e509_2760_9c3b),
    ];
    let mut fresh = String::new();
    for &(dims, page_bytes, _) in &want {
        let data = ClusteredSpec {
            clusters: 8,
            points_per_cluster: 250,
            dims,
            sigma: 120.0,
            seed: 400 + dims as u64,
        }
        .generate();
        let queries = sample_queries(&data, 12, 0.01, 500 + dims as u64);
        let h = sr_hash(&data, &queries, page_bytes, 10);
        fresh += &format!("        ({dims}, {page_bytes}, {h:#018x}),\n");
    }
    let table: String =
        want.iter().map(|(d, p, h)| format!("        ({d}, {p}, {h:#018x}),\n")).collect();
    assert!(table == fresh, "SR-tree golden drifted; fresh table:\n{fresh}");
}

/// An integer lattice with every site repeated, interleaved so that copies of
/// one site arrive far apart: node rectangles share faces and spheres
/// overlap, so queries on and between sites meet many equal MINDISTs.
fn lattice(dims: usize, side: u32, copies: u32) -> PointSet {
    let mut ps = PointSet::new(dims);
    for _ in 0..copies {
        for s in 0..side.pow(dims as u32) {
            ps.push(&site(dims, side, s));
        }
    }
    ps
}

/// Site `s` of a `side`-wide lattice: its base-`side` digits.
fn site(dims: usize, side: u32, s: u32) -> Vec<f32> {
    (0..dims).map(|d| ((s / side.pow(d as u32)) % side) as f32).collect()
}

#[test]
fn srtree_ties_on_a_duplicate_lattice_are_pinned() {
    let want: [(usize, usize, u64); 6] = [
        (2, 1024, 0x5ed4_7da9_95b0_581e),
        (2, 2048, 0xddc2_8dda_c157_8da6),
        (2, 8192, 0xb0e7_26f4_92c2_6eab),
        (3, 1024, 0x1fbe_87df_3711_7e85),
        (3, 2048, 0xc4ad_160a_86f8_7618),
        (3, 8192, 0xf2af_842a_517d_7bb9),
    ];
    let mut fresh = String::new();
    for &(dims, page_bytes, _) in &want {
        let (side, copies) = if dims == 2 { (8, 24) } else { (5, 12) };
        let data = lattice(dims, side, copies);
        let mut queries = PointSet::new(dims);
        for s in 0..side.pow(dims as u32) {
            let at = site(dims, side, s);
            queries.push(&at);
            queries.push(&at.iter().map(|x| x + 0.5).collect::<Vec<f32>>());
        }
        let k = 3 * copies as usize / 2;
        // What the hash pins is the one answer: the first k by (distance, id).
        let sr = SrTree::build(&data, page_bytes);
        for q in queries.iter() {
            let (got, want) = (sr.knn(q, k).0, linear_knn(&data, q, k));
            assert_eq!(got, want, "{dims}-d, {page_bytes} B pages, query {q:?}");
        }
        let h = sr_hash(&data, &queries, page_bytes, k);
        fresh += &format!("        ({dims}, {page_bytes}, {h:#018x}),\n");
    }
    let table: String =
        want.iter().map(|(d, p, h)| format!("        ({d}, {p}, {h:#018x}),\n")).collect();
    assert!(table == fresh, "SR-tree lattice golden drifted; fresh table:\n{fresh}");
}

/// The bytes `persist::save` writes: every array of the tree, in order.
fn persisted(tree: &SsTree, tag: &str) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("psb-topdown-{}-{tag}.psbt", std::process::id()));
    psb::sstree::persist::save(tree, &path).expect("save");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    bytes
}

#[test]
fn build_topdown_images_are_pinned() {
    let data =
        ClusteredSpec { clusters: 6, points_per_cluster: 300, dims: 5, sigma: 90.0, seed: 31 }
            .generate();
    let want: [(usize, u64); 3] =
        [(8, 0xc16c_f1c9_0fd2_9d6e), (16, 0x7efe_446a_2943_98f8), (64, 0x1fbe_1264_955d_9571)];
    let mut fresh = String::new();
    for &(degree, _) in &want {
        let tree = build_topdown(&data, degree);
        let h = fnv1a(FNV_OFFSET, &persisted(&tree, &degree.to_string()));
        fresh += &format!("({degree}, {h:#018x}), ");
    }
    let table: String = want.iter().map(|(d, h)| format!("({d}, {h:#018x}), ")).collect();
    assert!(table == fresh, "build_topdown image drifted; fresh table:\n{fresh}");
}
