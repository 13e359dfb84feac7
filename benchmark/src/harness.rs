//! The closed loop: one client, one thread, rounds of (rebuild the index,
//! then a time-boxed window of batches), every wall-clock sample paired with
//! reference scans taken right beside it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::refscan::RefScan;
use crate::stats::{
    median, median_of_ratios, percentile, quartiles, sorted, spread_frac, tail_supported,
};
use crate::trace::Tracer;
use crate::workloads::{Workload, BATCH, BATCHES};

/// Rounds per run: each rebuilds the index and runs one window. Interleaving
/// set-up and serving five times spreads both over the run, so a slow
/// half-minute taints a fifth of each rather than all of one.
pub const ROUNDS: usize = 5;
/// Index builds per round, each one a `setup` sample (the last is served
/// from): fifteen samples a run, where five left the median at the mercy of
/// one slow build.
pub const SETUPS_PER_ROUND: usize = 3;

/// Raw samples of one pass.
#[derive(Default)]
pub struct Samples {
    /// Per build: seconds the program's constructor took.
    pub setup_s: Vec<f64>,
    /// Per build: reference-scan seconds, mean of just-before and just-after.
    pub setup_ref_s: Vec<f64>,
    /// Per batch: wall seconds of the bracketed call(s).
    pub batch_s: Vec<f64>,
    /// Per batch: reference-scan seconds (mean of the 24 scans that follow it).
    pub ref_s: Vec<f64>,
    /// Per batch: the tracer was recording (traced pass only).
    pub traced: Vec<bool>,
    /// Per batch: the round it ran in.
    pub round: Vec<usize>,
    pub verified: u64,
    pub failed: u64,
}

/// Runs `rounds` rounds of `window` each. With `alternate_tracing`, every
/// other pass over the ten distinct batches runs with the tracer recording —
/// the same batches (and, for ingest, the same share of rebuild cycles) in
/// the same minutes, so the difference is the tracing.
pub fn measure(
    w: &mut Workload,
    rs: &RefScan,
    rounds: usize,
    window: Duration,
    tr: &mut Tracer,
    alternate_tracing: bool,
) -> Samples {
    let mut s = Samples::default();
    let mut uid = 0u64;
    // A build is bracketed by two yardstick readings, each the median of
    // three 24-scan timings; neighbouring builds share the reading between them.
    let yardstick = || median(&[rs.time(), rs.time(), rs.time()]);
    for round in 0..rounds {
        let mut before = yardstick();
        for _ in 0..SETUPS_PER_ROUND {
            s.setup_s.push(w.setup());
            let after = yardstick();
            s.setup_ref_s.push((before + after) / 2.0);
            before = after;
        }

        // One untimed batch: first-touch page faults and the engine's
        // thread-local scratch belong to set-up, not to steady-state serving.
        tr.set_enabled(false);
        let warm = w.run_batch(0, tr);
        let (v, f) = w.verify(0, &warm, false);
        s.verified += v;
        s.failed += f;

        let end = Instant::now() + window;
        // Batch numbering restarts every round, so each round replays the
        // same sequence against a fresh index (and a cold result cache).
        let mut b = 1usize;
        loop {
            let traced = alternate_tracing && (b / BATCHES) % 2 == 1;
            tr.set_enabled(traced);
            let sp = tr.begin("client.batch", uid);
            let t = Instant::now();
            let out = w.run_batch(b, tr);
            let dt = t.elapsed().as_secs_f64();
            tr.end(sp);
            let sp = tr.begin("client.ref_scan", uid);
            let r = rs.time();
            tr.end(sp);
            // A traced window always covers one untraced and one traced pass.
            let covered = !alternate_tracing || b >= 2 * BATCHES;
            let last = w.round_done(Instant::now() >= end && covered);
            let sp = tr.begin("client.verify", uid);
            let (v, f) = w.verify(b, &out, last);
            tr.end(sp);
            s.batch_s.push(dt);
            s.ref_s.push(r);
            s.traced.push(traced);
            s.round.push(round);
            s.verified += v;
            s.failed += f;
            uid += 1;
            if last {
                break;
            }
            b += 1;
        }
    }
    tr.set_enabled(false);
    s
}

/// `VmHWM` of this process in MB: the peak resident set, which is why every
/// workload runs in a process of its own.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Per-batch cost in reference scans per query, for the selected samples.
fn normalised_cost(s: &Samples, pick: impl Fn(usize) -> bool) -> Vec<f64> {
    (0..s.batch_s.len())
        .filter(|&i| pick(i))
        .map(|i| (s.batch_s[i] / BATCH as f64) / s.ref_s[i])
        .collect()
}

/// Spread of five consecutive-chunk medians of the reference scan: how much
/// the machine itself moved while the run was under way. This is the noise
/// floor the peeling waterfall uses.
pub fn ref_drift_frac(ref_s: &[f64]) -> f64 {
    let chunk = ref_s.len().div_ceil(5).max(1);
    let meds: Vec<f64> = ref_s.chunks(chunk).map(median).collect();
    spread_frac(&meds)
}

/// The wall-derived end-to-end metrics of one pass, with a printed account
/// of sample counts and quartiles.
pub fn end_to_end(s: &Samples, out: &mut BTreeMap<&'static str, f64>, log: &mut String) {
    use std::fmt::Write as _;
    let cost = normalised_cost(s, |_| true);
    let speedup: Vec<f64> = cost.iter().map(|c| 1.0 / c).collect();
    let sc = sorted(&cost);
    let n = sc.len();
    out.insert("setup_s", median(&s.setup_s));
    out.insert("scan_speedup", median(&speedup));
    out.insert("tail_ratio", percentile(&sc, 0.95) / percentile(&sc, 0.5));

    let q = |v: &[f64]| {
        let (a, b, c) = quartiles(v);
        format!("q1 {a:.5} / median {b:.5} / q3 {c:.5}")
    };
    let _ = writeln!(log, "  setup_s       n={:<5} {}", s.setup_s.len(), q(&s.setup_s));
    let _ = writeln!(log, "  scan_speedup  n={:<5} {}", n, q(&speedup));
    let rounds = s.round.last().map_or(0, |r| r + 1);
    let per_round: Vec<String> = (0..rounds)
        .map(|r| {
            let v: Vec<f64> = (0..n).filter(|&i| s.round[i] == r).map(|i| speedup[i]).collect();
            format!("{:.4}", median(&v))
        })
        .collect();
    let _ = writeln!(log, "  scan_speedup  per-round medians: {}", per_round.join("  "));
    let _ = writeln!(
        log,
        "  tail_ratio    n={:<5} p50 {:.5} / p95 {:.5} ref-scans per query{}",
        n,
        percentile(&sc, 0.5),
        percentile(&sc, 0.95),
        if tail_supported(n, 0.95) {
            ""
        } else {
            "  [fewer than 10 samples beyond p95: not a supported tail]"
        }
    );
}

/// The `client.*` per-layer metrics: the harness's own raw view of the same
/// loop, taken from the untraced batches of the traced pass.
pub fn client_view(s: &Samples, out: &mut BTreeMap<&'static str, f64>) {
    let plain: Vec<usize> = (0..s.batch_s.len()).filter(|&i| !s.traced[i]).collect();
    let batch_s: Vec<f64> = plain.iter().map(|&i| s.batch_s[i]).collect();
    let sb = sorted(&batch_s);
    out.insert("client.qps_raw", BATCH as f64 / percentile(&sb, 0.5));
    out.insert("client.batch_ms_p50", percentile(&sb, 0.5) * 1e3);
    out.insert("client.batch_ms_p95", percentile(&sb, 0.95) * 1e3);
    out.insert("client.ref_scan_us", median(&s.ref_s) * 1e6);
    out.insert("client.ref_drift_frac", ref_drift_frac(&s.ref_s));
    out.insert("client.samples", plain.len() as f64);
    out.insert("client.verified_ops", s.verified as f64);
    out.insert("client.setup_scans", median_of_ratios(&s.setup_s, &s.setup_ref_s));
    let untraced = normalised_cost(s, |i| !s.traced[i]);
    let traced = normalised_cost(s, |i| s.traced[i]);
    let overhead =
        if traced.is_empty() { f64::NAN } else { median(&traced) / median(&untraced) - 1.0 };
    out.insert("client.trace_overhead_frac", overhead);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Kind;

    #[test]
    fn a_short_pass_fills_every_sample_vector_consistently() {
        let mut w = Workload::generate(Kind::ServeNoaa4, 5, 20, 0.06);
        w.build_oracle();
        let rs = RefScan::new(w.points.as_flat(), w.points.dims(), w.stream.as_flat());
        let mut tr = Tracer::new(false);
        let s = measure(&mut w, &rs, 2, Duration::from_millis(40), &mut tr, true);
        assert_eq!(s.setup_s.len(), 2 * SETUPS_PER_ROUND);
        assert_eq!(s.setup_ref_s.len(), 2 * SETUPS_PER_ROUND);
        assert!(s.batch_s.len() >= 2);
        assert_eq!(s.batch_s.len(), s.ref_s.len());
        assert_eq!(s.batch_s.len(), s.traced.len());
        assert_eq!(s.failed, 0);
        assert!(s.verified >= (s.batch_s.len() * BATCH) as u64);
        // Only every other pass recorded spans, and every span closed.
        assert!(s.traced.iter().any(|t| *t));
        assert!(tr.spans().iter().any(|sp| sp.name == "resilient.serve_batch"));
        assert!(tr.spans().iter().all(|sp| sp.end_ns >= sp.start_ns));

        let mut m = BTreeMap::new();
        let mut log = String::new();
        end_to_end(&s, &mut m, &mut log);
        client_view(&s, &mut m);
        for (k, v) in &m {
            assert!(v.is_finite() && (*v > 0.0 || k.ends_with("_frac")), "{k} = {v}");
        }
        assert!(log.contains("scan_speedup"));
        assert!(peak_rss_mb() > 1.0);
    }

    #[test]
    fn drift_is_the_spread_of_chunk_medians() {
        let flat = vec![1.0; 10];
        assert_eq!(ref_drift_frac(&flat), 0.0);
        let mut v = vec![1.0; 8];
        v.extend([1.5, 1.5]);
        assert_eq!(ref_drift_frac(&v), 0.5);
        assert_eq!(ref_drift_frac(&[2.0]), 0.0);
    }
}
