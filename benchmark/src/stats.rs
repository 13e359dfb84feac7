//! Order statistics for the harness: nearest-rank percentiles, the
//! "ten samples beyond" rule for tails, and the per-pair-ratio median that
//! turns wall-clock samples into drift-normalised ones.

/// Samples that must lie beyond a percentile before it is reported
/// (choosing-metrics §1): with fewer, the "p95" is one or two stalls.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Sorted copy of `v` (total order, so a stray NaN sorts last instead of
/// panicking mid-report).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `p` of the mass at or below it (rank `ceil(p·n)`, 1-based). Always
/// a sample that was actually observed — no interpolation.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&p), "percentile outside [0, 1]");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `p` percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples support reporting percentile `p` at all.
pub fn tail_supported(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= TAIL_MIN_BEYOND
}

/// Median (nearest-rank p50) of an unsorted slice.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v), 0.5)
}

/// Nearest-rank quartiles `(p25, p50, p75)` of an unsorted slice.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    (percentile(&s, 0.25), percentile(&s, 0.5), percentile(&s, 0.75))
}

/// The normalisation estimator: the median over *pairs* of `num[i] / den[i]`.
/// Each pair is measured back to back, so machine drift (frequency, cache
/// pressure from a neighbour) scales both sides and cancels inside the pair;
/// a ratio of medians would instead compare two quantities taken at
/// different moments.
pub fn median_of_ratios(num: &[f64], den: &[f64]) -> f64 {
    assert_eq!(num.len(), den.len(), "ratio of unpaired samples");
    let r: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d).collect();
    median(&r)
}

/// `(max − min) / median`: how far a handful of per-round values drifted.
pub fn spread_frac(v: &[f64]) -> f64 {
    let s = sorted(v);
    (s[s.len() - 1] - s[0]) / percentile(&s, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_observed_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.95), 10.0);
        assert_eq!(percentile(&s, 0.90), 9.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        // Even count: the lower middle, never an interpolated value.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(tail_supported(200, 0.95));
        assert!(!tail_supported(199, 0.95));
        assert!(!tail_supported(0, 0.95));
        assert!(tail_supported(20, 0.5));
        assert!(!tail_supported(19, 0.5));
    }

    #[test]
    fn median_of_ratios_cancels_common_drift() {
        // The machine runs 1x, 2x, 3x slower across three pairs; the work is
        // always 4 reference scans. A ratio of medians would also say 4 here,
        // but only the per-pair form stays 4 when the drift hits the two
        // sides of *different* pairs differently.
        let num = [4.0, 8.0, 12.0];
        let den = [1.0, 2.0, 3.0];
        assert_eq!(median_of_ratios(&num, &den), 4.0);
        let num = [4.0, 80.0, 12.0];
        let den = [1.0, 20.0, 3.0];
        assert_eq!(median_of_ratios(&num, &den), 4.0);
    }

    #[test]
    fn quartiles_and_spread() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.0, 4.0, 6.0));
        assert_eq!(spread_frac(&[10.0, 11.0, 9.0]), 0.2);
    }
}
