//! The traced pass's layer probes: every per-layer metric that is not the
//! harness's own view, measured from outside by bracketing calls into public
//! functions, on the workload's own dataset, degree, k and query batch.
//!
//! Probes that are compared with each other (metered vs unmetered, router vs
//! bare kernel loop, attached vs detached registry, the peeling chain) run
//! round-robin and report medians, so a slow second taints one repetition of
//! each rather than every repetition of one.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use psb_core::kernels::bnb::bnb_query;
use psb_core::kernels::brute::brute_query;
use psb_core::kernels::psb::psb_query;
use psb_core::kernels::restart::restart_query;
use psb_core::kernels::stackfree::stackfree_query;
use psb_core::{
    hilbert_order, psb_batch, wave_knn_batch, GpuIndex, KernelOptions, Metering, QuerySchedule,
    QueryStream, ShardPolicy, StreamKernel, SweepScratch, WaveConfig,
};
use psb_data::sample_queries;
use psb_geom::rectkernel::RectRowsOut;
use psb_geom::{hilbert_key, ritter_points, DistKernel, PointSet, Rect, RectKernel, RitterMode};
use psb_gpu::{launch_blocks, DeviceConfig, KernelStats, Phase};
use psb_kdtree::LbKdTree;
use psb_metrics::{MetricsHandle, Registry};
use psb_rtree::{build_rtree, RtreeBuildMethod};
use psb_serve::{DynamicShardRouter, ResilienceConfig, ResilientRouter, ServeConfig, ShardRouter};
use psb_sstree::{build, knn_best_first, BuildMethod};

use crate::peel;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{splitmix, SimReplay, Workload, BATCH, BATCHES, CACHE, DATA_SEED, SHARDS};

/// Queries the per-query kernel probes run (a quarter batch: brute force and
/// branch-and-bound on 100k x 16-d cost milliseconds per query).
const PROBE_QUERIES: usize = 60;
/// Nodes sampled per sweep probe.
const SWEEP_SAMPLE: usize = 256;
/// Equal time slices the probe budget is cut into (one per timed closure,
/// roughly); a probe runs its minimum repetitions even if they overrun.
const SLICES: u32 = 40;

/// A named closure to time: `(span name, body)`.
type Timed<'a> = (&'static str, Box<dyn FnMut() + 'a>);

struct Probes<'a> {
    tr: &'a mut Tracer,
    slice: Duration,
}

impl Probes<'_> {
    /// Median seconds of `f` over at least `min` repetitions, more while the
    /// slice lasts. Every repetition is one span.
    fn time(&mut self, name: &'static str, min: usize, mut f: impl FnMut()) -> f64 {
        let start = Instant::now();
        let mut reps = Vec::new();
        while reps.len() < min || start.elapsed() < self.slice {
            let sp = self.tr.begin(name, reps.len() as u64);
            let t = Instant::now();
            f();
            reps.push(t.elapsed().as_secs_f64());
            self.tr.end(sp);
        }
        median(&reps)
    }

    /// Times a constructor (at least twice) and hands back the last product.
    fn time_build<T>(&mut self, name: &'static str, mut f: impl FnMut() -> T) -> (f64, T) {
        let mut last = None;
        let t = self.time(name, 2, || last = Some(f()));
        (t, last.expect("time() runs its closure at least once"))
    }

    /// Like [`Probes::time`] for closures whose results are compared with
    /// each other: repetition `r` of every closure runs before repetition
    /// `r + 1` of any.
    fn interleave(&mut self, min: usize, fs: &mut [Timed<'_>]) -> Vec<f64> {
        let start = Instant::now();
        let budget = self.slice * fs.len() as u32;
        let mut reps: Vec<Vec<f64>> = vec![Vec::new(); fs.len()];
        while reps[0].len() < min || start.elapsed() < budget {
            for (i, (name, f)) in fs.iter_mut().enumerate() {
                let sp = self.tr.begin(name, reps[i].len() as u64);
                let t = Instant::now();
                f();
                reps[i].push(t.elapsed().as_secs_f64());
                self.tr.end(sp);
            }
        }
        reps.iter().map(|r| median(r)).collect()
    }
}

fn sub_batch(ps: &PointSet, rows: usize) -> PointSet {
    let rows = rows.min(ps.len());
    PointSet::from_flat(ps.dims(), ps.as_flat()[..rows * ps.dims()].to_vec())
}

/// Runs every layer probe within roughly `budget` and records the metrics in
/// `out`; the peeling waterfall is appended to `log`. `drift` is the run's
/// measured noise floor (`client.ref_drift_frac`).
#[allow(clippy::too_many_lines)]
pub fn run(
    w: &Workload,
    sim: &SimReplay,
    budget: Duration,
    drift: f64,
    tr: &mut Tracer,
    out: &mut BTreeMap<&'static str, f64>,
    log: &mut String,
) {
    let mut p = Probes { tr, slice: budget / SLICES };
    let dev = DeviceConfig::k40();
    let (ps, k, degree, dims) = (&w.points, w.k, w.degree, w.points.dims());
    let batch0 = w.batch(0);
    let probe_q = sub_batch(batch0, PROBE_QUERIES);
    let nq = batch0.len() as f64;
    let npq = probe_q.len() as f64;
    let hilbert = BuildMethod::Hilbert;
    let us = 1e6;

    // The deterministic counters of the workload's own simulator replay.
    let m = &sim.report.merged;
    let blocks = m.blocks.max(1) as f64;
    out.insert("gpu.sim_warp_efficiency", m.warp_efficiency());
    out.insert("gpu.sim_nodes_per_query", m.nodes_visited as f64 / blocks);
    out.insert("gpu.sim_transactions_per_query", m.global_transactions as f64 / blocks);
    out.insert(
        "gpu.sim_stream_frac",
        m.stream_transactions as f64 / m.global_transactions.max(1) as f64,
    );
    out.insert("gpu.sim_issues_per_query", m.compute_issues as f64 / blocks);
    out.insert("gpu.sim_backtracks_per_query", m.backtracks as f64 / blocks);
    let warps = w.opts.threads_per_block.div_ceil(dev.warp_size);
    let t = p.time("gpu.launch_blocks", 5, || {
        black_box(launch_blocks(&dev, warps, black_box(&sim.per_block[..BATCH])));
    });
    out.insert("gpu.launch_blocks_us", t * us);

    // ---- construction -----------------------------------------------------
    let (t, tree) = p.time_build("sstree.build", || build(ps, degree, &hilbert));
    out.insert("sstree.build_ms", t * 1e3);
    let t = p.time("sstree.validate", 2, || tree.validate().expect("a fresh build validates"));
    out.insert("sstree.validate_ms", t * 1e3);
    let (t, rtree) =
        p.time_build("rtree.build_rtree", || build_rtree(ps, degree, &RtreeBuildMethod::Hilbert));
    out.insert("rtree.build_ms", t * 1e3);
    let (t, kdtree) = p.time_build("kdtree.build", || LbKdTree::build(ps));
    out.insert("kdtree.build_ms", t * 1e3);
    let sharded = ServeConfig::new(SHARDS).with_policy(ShardPolicy::KMeans { seed: DATA_SEED });
    let (t, router4) = p.time_build("router.build", || {
        ShardRouter::build(ps, &sharded, &dev, |s| build(s, degree, &hilbert))
    });
    out.insert("router.build_ms", t * 1e3);
    let (t, mut dynr) = p.time_build("dynamic.build", || {
        DynamicShardRouter::build(ps, SHARDS, &ShardPolicy::HilbertRange, degree)
    });
    out.insert("dynamic.build_ms", t * 1e3);

    // ---- psb-geom ---------------------------------------------------------
    // One node-sized block: `degree` rows of `dims` floats.
    let rows = &ps.as_flat()[..degree.min(ps.len()) * dims];
    let nrows = (rows.len() / dims) as f64;
    let hi_rows: Vec<f32> = rows.iter().map(|v| v + 1.0).collect();
    let q0 = batch0.point(0);
    let iters = 2000usize;
    let per_row = |t: f64| t * 1e9 / (iters as f64 * nrows);
    let mut buf = Vec::with_capacity(rows.len());
    for (name, span, dk) in [
        ("geom.dist_rows_ns_per_row", "geom.dist_rows", DistKernel::for_dims(dims)),
        (
            "geom.dist_rows_scalar_ns_per_row",
            "geom.dist_rows[scalar]",
            DistKernel::scalar_for_dims(dims),
        ),
    ] {
        let t = p.time(span, 5, || {
            for _ in 0..iters {
                buf.clear();
                dk.dist_rows(black_box(q0), black_box(rows), &mut buf);
                black_box(&buf);
            }
        });
        out.insert(name, per_row(t));
    }
    let dist_row_ns = out["geom.dist_rows_ns_per_row"];
    let rk = RectKernel::for_dims(dims);
    let (mut mn, mut mx, mut anc) = (Vec::new(), Vec::new(), Vec::new());
    let t = p.time("geom.rect_rows", 5, || {
        for _ in 0..iters {
            mn.clear();
            mx.clear();
            let mut o = RectRowsOut { min_d: &mut mn, max_d: &mut mx, anchor_d: &mut anc };
            rk.eval_rows(black_box(q0), black_box(rows), black_box(&hi_rows), true, false, &mut o);
            black_box(&mn);
        }
    });
    out.insert("geom.rect_rows_ns_per_row", per_row(t));

    let bounds = Rect::of_point_set(ps);
    let keyed = ps.len().min(4096);
    let t = p.time("geom.hilbert_key", 5, || {
        for i in 0..keyed {
            black_box(hilbert_key(black_box(ps.point(i)), &bounds));
        }
    });
    out.insert("geom.hilbert_key_ns_per_point", t * 1e9 / keyed as f64);

    let groups: Vec<Vec<u32>> = (0..ps.len() as u32)
        .collect::<Vec<u32>>()
        .chunks(degree)
        .take(64)
        .map(<[u32]>::to_vec)
        .collect();
    let t = p.time("geom.ritter_points", 5, || {
        for g in &groups {
            black_box(ritter_points(ps, black_box(g), RitterMode::Parallel));
        }
    });
    out.insert("geom.ritter_us_per_sphere", t * us / groups.len() as f64);

    // ---- sweeps: a seeded node sample -------------------------------------
    let dk = DistKernel::for_dims_lanes(dims, w.opts.lanes);
    let mut rng = w.seed ^ 0x5EED_5A3B;
    let nodes = tree.num_nodes() as u64;
    let mut internal = Vec::new();
    let mut leaves = Vec::new();
    for _ in 0..64 * SWEEP_SAMPLE {
        let n = (splitmix(&mut rng) % nodes) as u32;
        let side = if tree.is_leaf(n) { &mut leaves } else { &mut internal };
        if side.len() < SWEEP_SAMPLE {
            side.push(n);
        }
    }
    if internal.is_empty() {
        internal.push(tree.root); // a one-leaf tree still needs a row
    }
    let sweep_reps = 20usize;
    let mut scratch = SweepScratch::default();
    let t = p.time("sstree.child_sweep", 5, || {
        for r in 0..sweep_reps {
            for (i, &n) in internal.iter().enumerate() {
                if tree.is_leaf(n) {
                    continue;
                }
                scratch.clear();
                let q = batch0.point((i + r) % batch0.len());
                tree.child_sweep(n, black_box(q), &dk, true, false, &mut scratch);
                black_box(&scratch.min_d);
            }
        }
    });
    let child_sweep_ns = t * 1e9 / (sweep_reps * internal.len()) as f64;
    out.insert("sstree.child_sweep_ns", child_sweep_ns);
    let (mut tmp, mut hits) = (Vec::new(), Vec::new());
    let t = p.time("sstree.leaf_sweep", 5, || {
        for r in 0..sweep_reps {
            for (i, &n) in leaves.iter().enumerate() {
                hits.clear();
                let q = batch0.point((i + r) % batch0.len());
                tree.leaf_sweep(n, black_box(q), &dk, &mut tmp, &mut hits);
                black_box(&hits);
            }
        }
    });
    let leaf_sweep_ns = t * 1e9 / (sweep_reps * leaves.len().max(1)) as f64;
    out.insert("sstree.leaf_sweep_ns", leaf_sweep_ns);

    // ---- the peeling chain and its siblings, interleaved -------------------
    // Default options under the workload's own metering mode: the routers call
    // the per-query kernel in submission order, so that is the order every
    // layer of the chain runs in.
    let off = KernelOptions { metering: Metering::Off, ..Default::default() };
    let metered = KernelOptions::default();
    let chain = KernelOptions { metering: w.opts.metering, ..Default::default() };
    let sched = KernelOptions { schedule: QuerySchedule::Hilbert, ..chain.clone() };
    let wave = KernelOptions { wave: Some(WaveConfig::default()), ..sched.clone() };
    let registry = Registry::new();
    let attached = KernelOptions { metrics: MetricsHandle::attached(&registry), ..chain.clone() };
    let front1 = RefCell::new(ResilientRouter::new(
        ShardRouter::build(ps, &ServeConfig::new(1), &dev, |s| build(s, degree, &hilbert)),
        ResilienceConfig::default(),
    ));
    let per_query = |opts: &KernelOptions| {
        for q in batch0.iter() {
            black_box(psb_query(&tree, q, k, &dev, opts));
        }
    };
    let batch = |opts: &KernelOptions| {
        black_box(psb_batch(&tree, batch0, k, &dev, opts).expect("psb_batch on a trusted tree"));
    };
    let t = p.interleave(
        3,
        &mut [
            (
                "resilient.serve_batch[S=1]",
                Box::new(|| {
                    let r = front1.borrow_mut().serve_batch(batch0, k, &chain, &[]);
                    black_box(r.expect("serve_batch on a fault-free layout"));
                }),
            ),
            (
                "router.serve_batch[S=1]",
                Box::new(|| {
                    let r = front1.borrow_mut().inner_mut().serve_batch(batch0, k, &chain);
                    black_box(r.expect("serve_batch on a fault-free layout"));
                }),
            ),
            ("engine.psb_batch", Box::new(|| batch(&chain))),
            ("kernels.psb_query[off]", Box::new(|| per_query(&off))),
            ("kernels.psb_query[metered]", Box::new(|| per_query(&metered))),
            ("engine.psb_batch[hilbert]", Box::new(|| batch(&sched))),
            ("engine.psb_batch[wave]", Box::new(|| batch(&wave))),
            ("engine.psb_batch[registry]", Box::new(|| batch(&attached))),
        ],
    );
    let [t_front1, t_router1, t_batch, t_q_off, t_q_met, t_sched, t_wave, t_attached] = t[..]
    else {
        unreachable!("eight closures, eight medians")
    };
    let t_q_chain = if chain.metering == Metering::Off { t_q_off } else { t_q_met };
    out.insert("kernels.psb_us_per_query", t_q_off * us / nq);
    out.insert("kernels.psb_metered_us_per_query", t_q_met * us / nq);
    out.insert("gpu.metering_overhead_frac", 1.0 - t_q_off / t_q_met);
    out.insert("engine.batch_us_per_query", t_batch * us / nq);
    out.insert("engine.self_frac", (t_batch - t_q_chain) / t_batch);
    out.insert("engine.scheduled_us_per_query", t_sched * us / nq);
    out.insert("engine.schedule_gain", t_batch / t_sched);
    out.insert("wave.us_per_query", t_wave * us / nq);
    out.insert("metrics.attached_overhead_frac", t_attached / t_batch - 1.0);
    out.insert("router.self_frac", (t_router1 - t_q_chain) / t_router1);
    out.insert("resilient.front_self_frac", (t_front1 - t_router1) / t_front1);
    let (_, wr) = wave_knn_batch(&tree, batch0, k, &dev, &wave).expect("wave on a trusted tree");
    out.insert("wave.mean_buffer_fill", wr.mean_fill());
    out.insert("wave.coalesced_sweeps", wr.coalesced_sweeps as f64);
    let t = p.time("schedule.hilbert_order", 5, || {
        black_box(hilbert_order(black_box(batch0)));
    });
    out.insert("schedule.hilbert_order_us", t * us);

    // Visit counts of the same batch on the same tree, for the two computed
    // rows of the waterfall.
    let mut visits = KernelStats::default();
    for q in batch0.iter() {
        visits.merge(&psb_query(&tree, q, k, &dev, &metered).1);
    }
    let leaf_visits = visits.phase(Phase::LeafScan).nodes_visited as f64 / nq;
    let internal_visits = visits.nodes_visited as f64 / nq - leaf_visits;
    let n_internal = (tree.num_nodes() - tree.num_leaves()).max(1) as f64;
    let fanout = (tree.num_nodes() - 1) as f64 / n_internal;
    let leaf_fill = ps.len() as f64 / tree.num_leaves() as f64;
    let sweeps_us = (internal_visits * child_sweep_ns + leaf_visits * leaf_sweep_ns) / 1e3;
    let rows_us = (internal_visits * fanout + leaf_visits * leaf_fill) * dist_row_ns / 1e3;
    out.insert("kernels.sweep_share_est", sweeps_us / (t_q_chain * us / nq));
    out.insert("kernels.dist_share_est", rows_us / (t_q_chain * us / nq));

    // ---- the other per-query entry points, same queries ---------------------
    let each = |f: &mut dyn FnMut(&[f32])| {
        for q in probe_q.iter() {
            f(q);
        }
    };
    let t = p.interleave(
        3,
        &mut [
            (
                "kernels.bnb_query",
                Box::new(|| each(&mut |q| drop(black_box(bnb_query(&tree, q, k, &dev, &off))))),
            ),
            (
                "kernels.restart_query",
                Box::new(|| each(&mut |q| drop(black_box(restart_query(&tree, q, k, &dev, &off))))),
            ),
            (
                "kernels.brute_query",
                Box::new(|| each(&mut |q| drop(black_box(brute_query(ps, q, k, &dev, &off))))),
            ),
            (
                "kernels.psb_query[rtree]",
                Box::new(|| each(&mut |q| drop(black_box(psb_query(&rtree, q, k, &dev, &off))))),
            ),
            (
                "kernels.stackfree_query",
                Box::new(|| {
                    each(&mut |q| drop(black_box(stackfree_query(&kdtree, q, k, &dev, &off))))
                }),
            ),
            (
                "sstree.knn_best_first",
                Box::new(|| each(&mut |q| drop(black_box(knn_best_first(&tree, q, k))))),
            ),
        ],
    );
    for (name, secs) in [
        "kernels.bnb_us_per_query",
        "kernels.restart_us_per_query",
        "kernels.brute_us_per_query",
        "rtree.psb_us_per_query",
        "kdtree.stackfree_us_per_query",
        "sstree.cpu_knn_us",
    ]
    .into_iter()
    .zip(t)
    {
        out.insert(name, secs * us / npq);
    }

    // ---- streaming pipeline vs the same two chunks as plain batches ---------
    let batch1 = w.batch(1);
    let t = p.interleave(
        3,
        &mut [
            (
                "stream.push+finish",
                Box::new(|| {
                    let mut s = QueryStream::new(
                        &tree,
                        StreamKernel::Psb { k },
                        dev.clone(),
                        sched.clone(),
                    );
                    for q in batch0.iter().chain(batch1.iter()) {
                        s.push(q);
                    }
                    black_box(s.finish());
                }),
            ),
            (
                "engine.psb_batch[hilbert] x2",
                Box::new(|| {
                    for b in [batch0, batch1] {
                        black_box(psb_batch(&tree, b, k, &dev, &sched).expect("trusted tree"));
                    }
                }),
            ),
        ],
    );
    out.insert("stream.us_per_query", t[0] * us / (2.0 * nq));
    out.insert("stream.self_frac", (t[0] - t[1]) / t[0]);

    // ---- sharded serving ------------------------------------------------------
    let mut front4 = ResilientRouter::new(
        router4,
        ResilienceConfig { cache_capacity: CACHE, ..ResilienceConfig::default() },
    );
    let mut report = None;
    let t = p.time("router.serve_batch", 3, || {
        let r = front4.inner_mut().serve_batch(batch0, k, &chain);
        report = Some(r.expect("serve_batch on a fault-free layout").report);
    });
    let report = report.expect("at least one batch served");
    out.insert("router.us_per_query", t * us / nq);
    out.insert("router.prune_rate", report.prune_rate());
    out.insert("router.shards_visited_per_query", report.shards_visited() as f64 / nq);
    // One repetition = the whole ten-batch stream from a cold cache, so every
    // repetition sees the same hits, misses and evictions.
    let mut hits = 0u64;
    let t = p.time("resilient.serve_batch[stream]", 2, || {
        front4.invalidate_cache();
        hits = 0;
        for b in 0..BATCHES {
            let r = front4.serve_batch(w.batch(b), k, &chain, &[]);
            hits += r.expect("serve_batch on a fault-free layout").resilience.cache_hits;
        }
    });
    let streamed = (BATCHES * BATCH) as f64;
    out.insert("resilient.us_per_query", t * us / streamed);
    out.insert("resilient.cache_hit_frac", hits as f64 / streamed);
    // All-distinct queries: served from an emptied cache they all miss; served
    // again at once (the round-robin order guarantees it) they all hit.
    let distinct = sample_queries(ps, BATCH.min(CACHE), 0.01, w.seed ^ 0xD157_1AC7);
    let front4 = RefCell::new(front4);
    let serve_distinct = || {
        let r = front4.borrow_mut().serve_batch(&distinct, k, &chain, &[]);
        black_box(r.expect("serve_batch on a fault-free layout"));
    };
    let t = p.interleave(
        3,
        &mut [
            (
                "resilient.serve_batch[miss]",
                Box::new(|| {
                    front4.borrow_mut().invalidate_cache();
                    serve_distinct();
                }),
            ),
            ("resilient.serve_batch[hit]", Box::new(serve_distinct)),
        ],
    );
    out.insert("resilient.miss_us", t[0] * us / distinct.len() as f64);
    out.insert("resilient.hit_us", t[1] * us / distinct.len() as f64);

    // ---- dynamic router: per-operation samples from one scripted pass -----------
    let timed_knn = |r: &DynamicShardRouter, tr: &mut Tracer| -> f64 {
        let samples: Vec<f64> = batch0
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let sp = tr.begin("dynamic.knn", i as u64);
                let t = Instant::now();
                black_box(r.knn(q, k));
                let dt = t.elapsed().as_secs_f64();
                tr.end(sp);
                dt
            })
            .collect();
        median(&samples)
    };
    out.insert("dynamic.knn_us_p50", timed_knn(&dynr, p.tr) * us);
    // A full delta: as many pending inserts as stay under the shards'
    // automatic rebuild threshold (a fifth of a shard).
    let pending = sample_queries(ps, (ps.len() / 10).min(2000), 0.002, w.seed ^ 0x0FE1_DE17);
    let inserts: Vec<f64> = pending
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let sp = p.tr.begin("dynamic.insert", i as u64);
            let t = Instant::now();
            black_box(dynr.insert(q));
            let dt = t.elapsed().as_secs_f64();
            p.tr.end(sp);
            dt
        })
        .collect();
    out.insert("dynamic.insert_us_p50", median(&inserts) * us);
    out.insert("dynamic.knn_pending_us_p50", timed_knn(&dynr, p.tr) * us);
    let rebuilds: Vec<f64> = (0..SHARDS)
        .map(|s| {
            let sp = p.tr.begin("dynamic.rebuild_shard", s as u64);
            let t = Instant::now();
            dynr.rebuild_shard(s);
            let dt = t.elapsed().as_secs_f64();
            p.tr.end(sp);
            dt
        })
        .collect();
    out.insert("dynamic.rebuild_shard_ms_p50", median(&rebuilds) * 1e3);
    dynr.attach_cache(CACHE);
    for _ in 0..2 {
        for q in batch0.iter() {
            black_box(dynr.knn(q, k));
        }
    }
    let (hit, miss, _, _) = dynr.cache_stats();
    out.insert("dynamic.cache_hit_frac", hit as f64 / (hit + miss).max(1) as f64);

    // ---- the waterfall -------------------------------------------------------------
    let rows = peel::peel(
        &[
            ("resilient.serve_batch [S=1, no cache]", t_front1 * us / nq),
            ("router.serve_batch [S=1]", t_router1 * us / nq),
            ("engine.psb_batch", t_batch * us / nq),
            ("kernels.psb_query x240", t_q_chain * us / nq),
            ("sstree sweeps x visits (computed)", sweeps_us),
            ("geom.dist_rows x rows (computed)", rows_us),
        ],
        drift,
    );
    log.push_str(
        "peeling waterfall (per query, same batch, same tree; noise floor = ref drift):\n",
    );
    log.push_str(&peel::render(&rows));
}
