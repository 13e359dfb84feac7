//! Spatio-temporal scenario: nearest weather-station reports (the paper's
//! §V-F NOAA workload).
//!
//! A stream of geotagged sensor reports is indexed; "find the k reports
//! nearest to a coordinate" drives all four engines the paper compares —
//! PSB and branch-and-bound on the simulated GPU, GPU brute force, and the
//! SR-tree on the real CPU.
//!
//! ```text
//! cargo run --release --example weather_stations
//! ```

use psb::prelude::*;

fn main() {
    let data =
        NoaaSpec { stations: 5_000, reports: 200_000, extra_dims: 0, seed: 0x2016 }.generate();
    println!("NOAA-like workload: {} reports from 5,000 stations (lon/lat degrees)", data.len());

    let queries = sample_queries(&data, 48, 0.005, 1);
    let k = 32;
    let cfg = DeviceConfig::k40();
    let opts = KernelOptions::default();

    // GPU-side indexes and kernels (simulated).
    let tree = build(&data, 128, &BuildMethod::Hilbert);
    let psb = psb_batch(&tree, &queries, k, &cfg, &opts).expect("batch");
    let bnb = bnb_batch(&tree, &queries, k, &cfg, &opts).expect("batch");
    let brute = brute_batch(&data, &queries, k, &cfg, &opts).expect("batch");

    // CPU SR-tree baseline (real wall-clock).
    let srtree = SrTree::build(&data, 8192);
    let t0 = std::time::Instant::now();
    let mut sr_pages = 0u64;
    for q in queries.iter() {
        let (_, st) = srtree.knn(q, k);
        sr_pages += st.nodes_visited;
    }
    let sr_ms = t0.elapsed().as_secs_f64() * 1e3 / queries.len() as f64;

    println!(
        "\n{:<24} {:>14} {:>14} {:>10}",
        "engine", "response (ms)", "read MB/query", "warp eff"
    );
    let row = |name: &str, r: &QueryBatchResult| {
        println!(
            "{:<24} {:>14.4} {:>14.3} {:>9.1}%",
            name,
            r.report.avg_response_ms,
            r.report.avg_accessed_mb,
            r.report.warp_efficiency * 100.0
        );
    };
    row("SS-tree (PSB, GPU)", &psb);
    row("SS-tree (B&B, GPU)", &bnb);
    row("Brute force (GPU)", &brute);
    println!(
        "{:<24} {:>14.4} {:>14.3} {:>10}",
        "SR-tree (CPU, wall)",
        sr_ms,
        (sr_pages * 8192) as f64 / (1024.0 * 1024.0) / queries.len() as f64,
        "n/a"
    );

    // All engines must agree (exact search).
    for qi in 0..queries.len() {
        for other in [&bnb.neighbors[qi], &brute.neighbors[qi]] {
            for (a, b) in psb.neighbors[qi].iter().zip(other.iter()) {
                assert!((a.dist - b.dist).abs() <= a.dist.max(1e-3) * 1e-3);
            }
        }
    }
    println!("\nall engines returned identical neighbor distances ✓");

    // A concrete query for flavour.
    let q = queries.point(0);
    let nearest = &psb.neighbors[0][0];
    println!(
        "\nnearest report to ({:.3}, {:.3}): report #{} at {:.4} degrees",
        q[0], q[1], nearest.id, nearest.dist
    );
}
