//! Properties of the SIMT simulator and its cost model.

use proptest::prelude::*;
use psb::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn warp_efficiency_is_always_a_ratio(
        n in 1usize..2000,
        cost in 1u64..16,
        threads in 1u32..512,
    ) {
        let cfg = DeviceConfig::k40();
        let mut b: Block<'_> = Block::new(threads, &cfg);
        b.par_for(n, cost, |_| {});
        b.par_reduce(n, 1);
        b.scalar(3);
        let s = b.finish();
        let eff = s.warp_efficiency();
        prop_assert!(eff > 0.0 && eff <= 1.0, "efficiency {eff}");
        prop_assert!(s.active_lanes <= s.lane_slots);
    }

    #[test]
    fn par_for_active_lanes_equal_work(n in 0usize..5000, threads in 1u32..256) {
        let cfg = DeviceConfig::k40();
        let mut b: Block<'_> = Block::new(threads, &cfg);
        let mut count = 0usize;
        b.par_for(n, 1, |_| count += 1);
        prop_assert_eq!(count, n, "closure must run once per item");
        let s = b.finish();
        prop_assert_eq!(s.active_lanes, n as u64);
    }

    #[test]
    fn transactions_cover_bytes(bytes in 1u64..1_000_000) {
        let cfg = DeviceConfig::k40();
        let mut b: Block<'_> = Block::new(32, &cfg);
        b.load_global(bytes);
        let s = b.finish();
        prop_assert!(s.global_transactions * cfg.transaction_bytes >= bytes);
        prop_assert!((s.global_transactions - 1) * cfg.transaction_bytes < bytes);
    }

    #[test]
    fn block_cycles_monotone_in_work(
        issues in 1u64..10_000,
        extra in 1u64..10_000,
        transactions in 0u64..10_000,
    ) {
        let cfg = DeviceConfig::k40();
        let mk = |i: u64| KernelStats {
            compute_issues: i,
            global_transactions: transactions,
            global_bytes: transactions * 128,
            blocks: 1,
            ..Default::default()
        };
        let a = mk(issues).block_cycles(&cfg, 4);
        let b = mk(issues + extra).block_cycles(&cfg, 4);
        prop_assert!(b > a, "more compute must cost more: {b} <= {a}");
    }

    #[test]
    fn smem_pressure_never_speeds_a_block_up(
        transactions in 1u64..50_000,
        smem_kb in 1u64..48,
    ) {
        let cfg = DeviceConfig::k40();
        let mk = |smem: u64| KernelStats {
            compute_issues: 100,
            global_transactions: transactions,
            global_bytes: transactions * 128,
            smem_peak_bytes: smem,
            blocks: 1,
            ..Default::default()
        };
        let light = mk(256).block_cycles(&cfg, 4);
        let heavy = mk(smem_kb * 1024).block_cycles(&cfg, 4);
        prop_assert!(heavy >= light - 1e-9);
    }

    #[test]
    fn launch_report_merges_everything(nblocks in 1usize..100) {
        let cfg = DeviceConfig::k40();
        let blocks: Vec<KernelStats> = (0..nblocks)
            .map(|i| KernelStats {
                lane_slots: 320,
                active_lanes: 160,
                compute_issues: 10 + i as u64,
                global_bytes: 1280,
                global_transactions: 10,
                stream_transactions: 0,
                smem_peak_bytes: 512,
                nodes_visited: 1,
                blocks: 1,
                ..Default::default()
            })
            .collect();
        let r = launch_blocks(&cfg, 4, &blocks);
        prop_assert_eq!(r.merged.blocks as usize, nblocks);
        prop_assert!(r.makespan_ms >= r.max_response_ms - 1e-12);
        prop_assert!(r.max_response_ms >= r.avg_response_ms - 1e-12);
        prop_assert!((r.warp_efficiency - 0.5).abs() < 1e-9);
    }
}

/// Deterministic divergence arithmetic (not property-based: exact expectations).
#[test]
fn divergence_serializes_exactly_by_distinct_ops() {
    let cfg = DeviceConfig::k40();
    struct L {
        id: u32,
        left: u32,
    }
    // 4 distinct ops among 32 lanes -> 4 issue groups per step, 25% efficiency.
    let mut lanes: Vec<L> = (0..32).map(|id| L { id, left: 6 }).collect();
    let stats = psb::gpu::run_task_parallel(
        &cfg,
        &mut lanes,
        0,
        |l| {
            if l.left == 0 {
                return None;
            }
            l.left -= 1;
            Some(psb::gpu::LaneStep { op: l.id % 4, cost: 1, global_bytes: 0 })
        },
        None,
    );
    assert_eq!(stats.compute_issues, 6 * 4);
    assert!((stats.warp_efficiency() - 0.25).abs() < 1e-12);
}

#[test]
fn occupancy_declines_with_k_like_fig8() {
    // The Fig. 8 mechanism in isolation: a bigger k-best list -> bigger smem ->
    // lower occupancy -> longer response for identical traversal work.
    let data =
        ClusteredSpec { clusters: 5, points_per_cluster: 400, dims: 8, sigma: 100.0, seed: 55 }
            .generate();
    let tree = build(&data, 32, &BuildMethod::Hilbert);
    let queries = sample_queries(&data, 16, 0.01, 56);
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();
    let small = psb_batch(&tree, &queries, 2, &cfg, &opts).expect("batch");
    let large = psb_batch(&tree, &queries, 1500, &cfg, &opts).expect("batch");
    assert!(large.report.occupancy <= small.report.occupancy);
    assert!(large.report.merged.smem_peak_bytes > small.report.merged.smem_peak_bytes);
}
