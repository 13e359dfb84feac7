//! Fixed-bucket log-spaced latency histogram with exact-rank percentiles.

/// Number of buckets. The first [`BUCKETS`]` - 1` buckets have finite
/// log-spaced upper bounds; the last is the unbounded saturation bucket.
pub const BUCKETS: usize = 64;

/// Upper bounds of the finite buckets: `2^(i/2)` — boundaries grow by √2, two
/// buckets per octave, covering `[1, 2^31)` in whatever unit the caller
/// records (the workspace convention is microseconds, giving ~9% worst-case
/// quantile error from 1 µs to ~35 minutes). Materialized once so bucket
/// selection compares against the *same* floats the bounds report — a value
/// recorded exactly on a boundary always lands in that boundary's bucket.
fn bounds() -> &'static [f64; BUCKETS - 1] {
    static TABLE: std::sync::OnceLock<[f64; BUCKETS - 1]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| std::array::from_fn(|i| 2f64.powf(i as f64 / 2.0)))
}

#[inline]
fn bound(i: usize) -> f64 {
    bounds()[i]
}

/// A fixed-size log-bucket histogram.
///
/// Values are unit-agnostic `f64`s; non-finite and negative observations are
/// clamped into the first bucket (they represent a broken clock, not a
/// latency, and must not poison the tail). Percentile extraction is
/// *exact-rank over buckets*: the reported quantile is the upper bound of the
/// bucket containing the ceil(p·count)-th smallest observation — clamped to
/// the largest observation, so no quantile ever exceeds the recorded max — and
/// a value recorded exactly on a bucket boundary is reported exactly.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { counts: [0; BUCKETS], count: 0, sum: 0.0, max: 0.0 }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the bucket that receives `v`: the first finite bucket whose
    /// upper bound is ≥ `v`, or the saturation bucket. NaN compares false
    /// against every bound and lands in bucket 0.
    fn bucket_of(v: f64) -> usize {
        bounds().partition_point(|&b| b < v)
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        if v.is_finite() {
            self.sum += v.max(0.0);
            self.max = self.max.max(v);
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all finite observations (for means).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Largest finite observation (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Raw bucket counts, finite buckets first, saturation bucket last.
    pub fn bucket_counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// The `p`-quantile (`p` in `[0, 1]`), as the upper bound of the bucket
    /// holding the ceil(p·count)-th smallest observation, or the largest
    /// observation seen when that is smaller (the top occupied bucket's bound
    /// overshoots the max by up to √2; the saturation bucket has no bound at
    /// all). Returns 0 for an empty histogram.
    pub(crate) fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == BUCKETS - 1 { self.max } else { bound(i).min(self.max) };
            }
        }
        self.max
    }

    /// Median, exact-rank over buckets (see the type docs).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// Merges another histogram (same fixed buckets, so counts just add).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// A copyable summary for snapshots and exposition.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            max: self.max,
            p50: self.p50(),
            p90: self.p90(),
            p99: self.p99(),
            p999: self.p999(),
        }
    }
}

/// Point-in-time summary of one [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Total observations.
    pub count: u64,
    /// Sum of finite observations.
    pub sum: f64,
    /// Largest finite observation.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
}

impl HistogramSummary {
    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bounds_are_log_spaced_and_monotone() {
        for i in 1..BUCKETS - 1 {
            assert!(bound(i) > bound(i - 1));
            let ratio = bound(i) / bound(i - 1);
            assert!((ratio - 2f64.sqrt()).abs() < 1e-12, "ratio {ratio}");
        }
    }

    #[test]
    fn boundary_values_report_exactly() {
        // A value recorded exactly on a finite bucket boundary comes back
        // exactly from every quantile that lands in its bucket.
        for i in [0usize, 1, 7, 20, 40, BUCKETS - 2] {
            let v = bound(i);
            let mut h = Histogram::new();
            h.observe(v);
            assert_eq!(h.quantile(0.5), v, "bucket {i}");
            assert_eq!(h.p999(), v, "bucket {i}");
        }
    }

    #[test]
    fn saturation_bucket_reports_observed_max() {
        let mut h = Histogram::new();
        let huge = bound(BUCKETS - 2) * 1e6; // far beyond the last finite bound
        h.observe(huge);
        h.observe(huge * 2.0);
        assert_eq!(h.bucket_counts()[BUCKETS - 1], 2);
        assert_eq!(h.p50(), huge * 2.0);
        assert_eq!(h.p999(), huge * 2.0);
    }

    #[test]
    fn empty_and_degenerate_observations() {
        let h = Histogram::new();
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.count(), 0);
        let mut h = Histogram::new();
        h.observe(f64::NAN);
        h.observe(-3.0);
        h.observe(0.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.bucket_counts()[0], 3);
        assert_eq!(h.sum(), 0.0);
        // No finite positive value was seen, so the max — and with it every
        // quantile — is 0, not the first bucket's bound.
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.p999(), 0.0);
        h.observe(0.25);
        assert_eq!(h.p999(), 0.25, "sub-resolution values report the max, not bound(0)");
    }

    #[test]
    fn mean_uses_exact_sum() {
        let mut h = Histogram::new();
        for v in [10.0, 20.0, 30.0] {
            h.observe(v);
        }
        assert!((h.summary().mean() - 20.0).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn percentiles_are_monotone(values in prop::collection::vec(0.5f64..1e7, 1..400)) {
            let mut h = Histogram::new();
            for &v in &values {
                h.observe(v);
            }
            let (p50, p90, p99, p999) = (h.p50(), h.p90(), h.p99(), h.p999());
            prop_assert!(p50 <= p90, "p50 {p50} > p90 {p90}");
            prop_assert!(p90 <= p99, "p90 {p90} > p99 {p99}");
            prop_assert!(p99 <= p999, "p99 {p99} > p999 {p999}");
        }

        #[test]
        fn no_quantile_above_max_and_quantiles_monotone_in_p(
            values in prop::collection::vec(0.001f64..1e10, 1..400),
        ) {
            let mut h = Histogram::new();
            for &v in &values {
                h.observe(v);
            }
            let true_max = values.iter().cloned().fold(0.0, f64::max);
            prop_assert_eq!(h.max().to_bits(), true_max.to_bits());
            let mut prev = 0.0f64;
            for step in 0..=200 {
                let q = h.quantile(step as f64 / 200.0);
                prop_assert!(q <= true_max, "quantile({}) = {q} above max {true_max}", step as f64 / 200.0);
                prop_assert!(q >= prev, "quantile({}) = {q} below quantile of a smaller p ({prev})", step as f64 / 200.0);
                prev = q;
            }
            prop_assert_eq!(h.quantile(1.0).to_bits(), true_max.to_bits(), "p = 1 is the max");
        }

        #[test]
        fn merge_equals_observing_everything(
            a in prop::collection::vec(0.5f64..1e7, 0..200),
            b in prop::collection::vec(0.5f64..1e7, 0..200),
        ) {
            let mut ha = Histogram::new();
            let mut hb = Histogram::new();
            let mut hall = Histogram::new();
            for &v in &a {
                ha.observe(v);
                hall.observe(v);
            }
            for &v in &b {
                hb.observe(v);
                hall.observe(v);
            }
            ha.merge(&hb);
            prop_assert_eq!(ha.count(), hall.count());
            prop_assert_eq!(ha.bucket_counts(), hall.bucket_counts());
            for p in [0.5, 0.9, 0.99, 0.999] {
                prop_assert_eq!(ha.quantile(p).to_bits(), hall.quantile(p).to_bits());
            }
        }

        #[test]
        fn quantile_brackets_true_rank_value(values in prop::collection::vec(1.0f64..1e6, 1..300)) {
            // The bucket quantile must bracket the true order statistic:
            // no smaller than it, and no more than one √2 bucket above.
            let mut h = Histogram::new();
            for &v in &values {
                h.observe(v);
            }
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            for p in [0.5, 0.9, 0.99] {
                let rank = ((p * sorted.len() as f64).ceil() as usize).max(1) - 1;
                let truth = sorted[rank];
                let est = h.quantile(p);
                prop_assert!(est >= truth - 1e-9, "p{p}: est {est} < true {truth}");
                prop_assert!(est <= truth * 2f64.sqrt() + 1e-9, "p{p}: est {est} >> true {truth}");
            }
        }
    }
}
