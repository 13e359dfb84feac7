//! Peeling: layer self-times without spans inside the program.
//!
//! The same batch is pushed through successively deeper public entry points
//! (front-end → router → batch engine → Σ per-query kernel → sweeps →
//! distance rows). Each entry point's time covers itself and everything
//! beneath it, so a layer's self-time is its time minus the next one down.
//! The self-times telescope: they sum to the top entry by construction.
//!
//! A deeper entry point can come out *slower* than the one above it — the
//! batch engine amortises what a per-query loop pays 240 times, and the
//! bottom two rows are estimates (sampled cost × visit counts). A negative
//! self-time inside the noise floor is noise; beyond it the row is reported
//! `unresolved`, never clamped to zero, because clamping would silently move
//! that time into a neighbouring layer.

/// One row of the waterfall. Times are per query, in microseconds.
#[derive(Clone, Debug, PartialEq)]
pub struct Peeled {
    pub name: &'static str,
    /// The entry point's own measured (or estimated) time.
    pub total_us: f64,
    /// `total_us` minus the next layer down (the last layer keeps its total).
    pub self_us: f64,
    /// The self-time is negative by more than the noise floor.
    pub unresolved: bool,
}

/// Peels `layers` (outermost first). `noise_frac` is the run's measured
/// drift (`client.ref_drift_frac`); the floor is that fraction of the top
/// entry's time.
pub fn peel(layers: &[(&'static str, f64)], noise_frac: f64) -> Vec<Peeled> {
    let floor = layers.first().map_or(0.0, |l| l.1.abs() * noise_frac);
    layers
        .iter()
        .enumerate()
        .map(|(i, &(name, total_us))| {
            let below = layers.get(i + 1).map_or(0.0, |l| l.1);
            let self_us = total_us - below;
            Peeled { name, total_us, self_us, unresolved: self_us < -floor }
        })
        .collect()
}

/// Renders the waterfall: one row per layer, self-time as a share of the top.
pub fn render(rows: &[Peeled]) -> String {
    use std::fmt::Write as _;
    let top = rows.first().map_or(1.0, |r| r.total_us);
    let mut s = String::new();
    let _ =
        writeln!(s, "  {:<34} {:>12} {:>12} {:>8}", "layer", "total us/q", "self us/q", "share");
    for r in rows {
        let _ = writeln!(
            s,
            "  {:<34} {:>12.3} {:>12.3} {:>7.1}%{}",
            r.name,
            r.total_us,
            r.self_us,
            100.0 * r.self_us / top,
            if r.unresolved { "  unresolved" } else { "" }
        );
    }
    let sum: f64 = rows.iter().map(|r| r.self_us).sum();
    let _ = writeln!(s, "  {:<34} {:>12.3} {:>12.3}", "sum of self-times (= top)", top, sum);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_telescope_to_the_top_entry() {
        let rows = peel(&[("front", 10.0), ("router", 9.0), ("kernel", 6.5), ("dist", 2.0)], 0.05);
        let selfs: Vec<f64> = rows.iter().map(|r| r.self_us).collect();
        assert_eq!(selfs, vec![1.0, 2.5, 4.5, 2.0]);
        assert!((selfs.iter().sum::<f64>() - 10.0).abs() < 1e-12);
        assert!(rows.iter().all(|r| !r.unresolved));
    }

    #[test]
    fn negative_self_time_is_kept_and_flagged_only_beyond_the_floor() {
        // Floor = 5 % of 10 = 0.5 us. The batch engine is 0.3 us *faster*
        // than the per-query sum beneath it: noise. The router is 2 us
        // faster than what it calls: unresolved, and still reported as -2.
        let rows =
            peel(&[("router", 10.0), ("engine", 12.0), ("kernels", 12.3), ("dist", 4.0)], 0.05);
        assert_eq!(rows[0].self_us, -2.0);
        assert!(rows[0].unresolved);
        assert!((rows[1].self_us + 0.3).abs() < 1e-9);
        assert!(!rows[1].unresolved);
        let sum: f64 = rows.iter().map(|r| r.self_us).sum();
        assert!((sum - 10.0).abs() < 1e-9, "flagged rows still count toward the sum");
        assert!(render(&rows).contains("unresolved"));
    }

    #[test]
    fn a_single_layer_keeps_its_total() {
        let rows = peel(&[("only", 3.0)], 0.1);
        assert_eq!(rows[0].self_us, 3.0);
        assert!(peel(&[], 0.1).is_empty());
    }
}
