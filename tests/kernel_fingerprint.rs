//! Kernel fingerprint: every table kernel's whole observable output, pinned.
//!
//! One row per (kernel × family × rope × `leaf_scan` × `use_minmax_prune` ×
//! metering × fault plan), plus each kernel's wave form and a corrupt tree's
//! degraded rung. A row launches its configuration over two small fixtures
//! (4-d clustered, where the tree prunes; 16-d uniform, where PSB backtracks
//! and its memo replays) and hashes — 64-bit FNV-1a over the `{:?}` text, which
//! prints floats shortest-round-trip, so equal text is equal bits — the
//! neighbours, `per_block`, outcomes, `LaunchReport` **and the recorded event
//! stream**. The golden table (`kernel_fingerprint.golden`, beside this file)
//! was generated at commit 8a6f0be, before the kernels were rewritten over one
//! collector; a refactor of the kernel layer must not change a row. A change
//! that *means* to move the metering regenerates the table and says so: on a
//! mismatch the fresh table is written to the path the failure names.
//!
//! Every answer a row returns is also held to the linear oracle
//! (`linear_knn`, or `linear_range` for the range kernels) by ids and
//! distance bits, so a regenerated table pins answers that are right, not
//! only answers that are the same as before.
//!
//! Traced launches run query by query on the calling thread; each per-query
//! row's untraced twin, the wave rows and the degraded rows run on the rayon
//! pool, so `./ci.sh threads` holds them to the same hashes at 1 and 4 threads.

use std::fmt::{Debug, Write};

use psb::prelude::*;
use psb::sstree::{FlatTree, Volumes};

/// 64-bit FNV-1a, fed through `fmt::Write` so a row's megabytes of `{:?}`
/// text are hashed as they are produced, never held.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, what: &dyn Debug) {
        write!(self, "{what:?}|").expect("hashing cannot fail");
    }

    fn feed_batch(&mut self, r: &QueryBatchResult) {
        self.feed(&r.neighbors);
        self.feed(&r.per_block);
        self.feed(&r.outcomes);
        self.feed(&r.report);
    }
}

/// One dataset with its queries, the range radius that gives it hits, and a
/// tree of each family (degree 8: four levels, so every traversal backtracks).
struct Fixture {
    data: PointSet,
    queries: PointSet,
    radius: f32,
    ss: SsTree,
    rt: RsTree,
}

const K: usize = 6;

fn fixtures() -> [Fixture; 2] {
    let clustered =
        ClusteredSpec { clusters: 6, points_per_cluster: 200, dims: 4, sigma: 150.0, seed: 0xF1 }
            .generate();
    let uniform = UniformSpec { len: 600, dims: 16, seed: 0xF2 }.generate();
    [(clustered, 12, 260.0f32), (uniform, 6, 0.0)].map(|(ps, nq, radius)| {
        let queries = sample_queries(&ps, nq, 0.01, 0xF3);
        // The uniform set has no natural scale: take the radius that reaches
        // the first query's 10th neighbour.
        let radius =
            if radius > 0.0 { radius } else { linear_knn(&ps, queries.point(0), 10)[9].dist };
        Fixture {
            ss: build(&ps, 8, &BuildMethod::Hilbert),
            rt: build_rtree(&ps, 8, &RtreeBuildMethod::Hilbert),
            data: ps,
            queries,
            radius,
        }
    })
}

/// The kernels a row can name: the three kNN kernels, the range kernel at the
/// fixture's radius, and at radius 0 (an empty answer: no leaf meters an
/// output row).
const KERNELS: [&str; 5] = ["psb", "bnb", "restart", "range", "range0"];

fn kernel(name: &str, f: &Fixture) -> Kernel {
    match name {
        "psb" => Kernel::Psb { k: K },
        "bnb" => Kernel::Bnb { k: K },
        "restart" => Kernel::Restart { k: K },
        "range" => Kernel::Range { radius: f.radius },
        _ => Kernel::Range { radius: 0.0 },
    }
}

/// `(id, distance bits)` of each row: equality is bit for bit.
fn bits(ns: &[Neighbor]) -> Vec<(u32, u32)> {
    ns.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

/// Hold every answer of `r` — a launch of `kernel` over `f`'s queries — to the
/// linear oracle, by ids and distance bits.
fn assert_oracle(row: &str, kernel: Kernel, f: &Fixture, r: &QueryBatchResult) {
    assert_eq!(r.neighbors.len(), f.queries.len(), "{row}: one answer per query");
    for (qi, (q, got)) in f.queries.iter().zip(&r.neighbors).enumerate() {
        let want = match kernel {
            Kernel::Psb { k } | Kernel::Bnb { k } | Kernel::Restart { k } => {
                linear_knn(&f.data, q, k)
            }
            Kernel::Range { radius } => linear_range(&f.data, q, radius),
        };
        assert_eq!(bits(got), bits(&want), "{row}: query {qi} differs from the oracle");
    }
}

const METERINGS: [(&str, Metering); 2] = [("sim", Metering::Simulated), ("off", Metering::Off)];

fn on(flag: bool) -> char {
    if flag {
        '1'
    } else {
        '0'
    }
}

/// The per-query rows of one family: every option combination under every
/// plan, traced. Each launch has an untraced twin (`sink: None`, which runs
/// the ladder on the rayon pool): its neighbours, `per_block`, outcomes and
/// `LaunchReport` must hash as the traced launch's do.
fn per_query_rows<V: Volumes>(
    family: &str,
    trees: [&FlatTree<V>; 2],
    fx: &[Fixture; 2],
    rows: &mut Vec<(String, u64)>,
) {
    let cfg = DeviceConfig::k40();
    let plans = [
        ("none", FaultPlan::none()),
        ("flips", FaultPlan::bit_flips(0xFA17, 2)),
        ("trunc", FaultPlan::truncation(3)),
    ];
    for name in KERNELS {
        for bits in 0..8u32 {
            let (rope, leaf_scan, minmax) = (bits & 4 != 0, bits & 2 != 0, bits & 1 != 0);
            for (mname, metering) in METERINGS {
                for (pname, plan) in &plans {
                    let opts = KernelOptions {
                        rope,
                        leaf_scan,
                        use_minmax_prune: minmax,
                        metering,
                        ..Default::default()
                    };
                    let row = format!(
                        "{name} {family} rope={} scan={} minmax={} {mname} {pname}",
                        on(rope),
                        on(leaf_scan),
                        on(minmax)
                    );
                    let mut h = Fnv::new();
                    for (tree, f) in trees.iter().zip(fx) {
                        let (kernel, mut sink) = (kernel(name, f), VecSink::new());
                        let r =
                            launch(*tree, &f.queries, kernel, &cfg, &opts, plan, Some(&mut sink))
                                .expect("launch");
                        let silent = launch(*tree, &f.queries, kernel, &cfg, &opts, plan, None)
                            .expect("launch");
                        let (mut traced_h, mut silent_h) = (Fnv::new(), Fnv::new());
                        traced_h.feed_batch(&r);
                        silent_h.feed_batch(&silent);
                        assert_eq!(silent_h.0, traced_h.0, "{row}: the untraced twin differs");
                        assert_oracle(&row, kernel, f, &r);
                        h.feed_batch(&r);
                        h.feed(&sink.events);
                    }
                    rows.push((row, h.0));
                }
            }
        }
    }
}

/// Each kernel's wave form (submission and Hilbert seeding order), and the
/// degraded rung: a root whose child range lies past the node array sends
/// every query of every kernel to the exact fallback scan.
fn wave_and_degraded_rows<V: Volumes + Clone>(
    family: &str,
    trees: [&FlatTree<V>; 2],
    fx: &[Fixture; 2],
    rows: &mut Vec<(String, u64)>,
) {
    let cfg = DeviceConfig::k40();
    let none = FaultPlan::none();
    for name in KERNELS {
        for (mname, metering) in METERINGS {
            for minmax in [true, false] {
                for (sname, schedule) in
                    [("submission", QuerySchedule::Submission), ("hilbert", QuerySchedule::Hilbert)]
                {
                    let opts = KernelOptions {
                        wave: Some(WaveConfig),
                        use_minmax_prune: minmax,
                        metering,
                        schedule,
                        ..Default::default()
                    };
                    let mut h = Fnv::new();
                    for (tree, f) in trees.iter().zip(fx) {
                        let (r, wr) = match kernel(name, f) {
                            Kernel::Psb { k } => wave_knn_batch(*tree, &f.queries, k, &cfg, &opts),
                            Kernel::Range { radius } => {
                                wave_range_batch(*tree, &f.queries, radius, &cfg, &opts)
                            }
                            other => launch(*tree, &f.queries, other, &cfg, &opts, &none, None)
                                .map(|r| (r, WaveReport::default())),
                        }
                        .expect("wave launch");
                        assert_oracle(&format!("wave {name} {family}"), kernel(name, f), f, &r);
                        h.feed_batch(&r);
                        h.feed(&wr);
                    }
                    rows.push((
                        format!("wave {name} {family} minmax={} {mname} {sname}", on(minmax)),
                        h.0,
                    ));
                }
            }
        }
    }
    let corrupt = trees.map(|tree| {
        let mut tree = FlatTree::clone(tree);
        let root = tree.root as usize;
        tree.first_child[root] += (tree.num_nodes() + tree.points.len()) as u32 + 1;
        tree
    });
    for name in KERNELS {
        for (mname, metering) in METERINGS {
            let opts = KernelOptions { metering, ..Default::default() };
            let mut h = Fnv::new();
            for (tree, f) in corrupt.iter().zip(fx) {
                let r = launch(tree, &f.queries, kernel(name, f), &cfg, &opts, &none, None)
                    .expect("launch");
                assert!(
                    r.outcomes.iter().all(|o| matches!(o, QueryOutcome::Degraded { .. })),
                    "{name} {family}: a corrupt root must degrade every query"
                );
                assert_oracle(&format!("degraded {name} {family}"), kernel(name, f), f, &r);
                h.feed_batch(&r);
            }
            rows.push((format!("degraded {name} {family} {mname}"), h.0));
        }
    }
}

#[test]
fn every_row_hashes_as_it_did_before_the_kernels_shared_one_collector() {
    let fx = fixtures();
    let mut rows = Vec::new();
    per_query_rows("ss", [&fx[0].ss, &fx[1].ss], &fx, &mut rows);
    per_query_rows("rt", [&fx[0].rt, &fx[1].rt], &fx, &mut rows);
    wave_and_degraded_rows("ss", [&fx[0].ss, &fx[1].ss], &fx, &mut rows);
    wave_and_degraded_rows("rt", [&fx[0].rt, &fx[1].rt], &fx, &mut rows);

    let fresh: String = rows.iter().map(|(row, hash)| format!("{row} {hash:016x}\n")).collect();
    let golden = include_str!("kernel_fingerprint.golden");
    if fresh == golden {
        return;
    }
    let moved: Vec<&str> =
        fresh.lines().filter(|line| !golden.lines().any(|g| g == *line)).collect();
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("kernel_fingerprint.golden");
    std::fs::write(&path, &fresh).expect("write the fresh table");
    panic!(
        "{} of {} rows moved (or the table's shape changed); fresh table written to {}\n{}",
        moved.len(),
        rows.len(),
        path.display(),
        moved.join("\n")
    );
}
