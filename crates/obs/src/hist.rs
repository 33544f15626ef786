//! Log-bucketed latency histograms with quantile extraction.
//!
//! The recorder is HDR-histogram-shaped but hand-rolled and
//! dependency-free: values up to `2^precision` land in exact unit-width
//! buckets, and every later octave is split into `2^precision`
//! sub-buckets, so the relative width of any bucket never exceeds
//! `2^-precision`. Recording is O(1) (a leading-zeros instruction and an
//! array increment), merging is element-wise addition (associative and
//! commutative, so per-node histograms can be combined in any order),
//! and quantile extraction walks the bucket array once.

/// Default sub-bucket precision: 5 bits = 32 sub-buckets per octave,
/// i.e. quantiles are exact to within ~3.1% relative error.
pub const DEFAULT_PRECISION: u32 = 5;

/// The quantiles every report extracts, in order.
pub const REPORT_QUANTILES: [(&str, f64); 4] =
    [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)];

/// A log-bucketed histogram of `u64` latencies (cycles).
///
/// ```
/// use csim_obs::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for v in [10, 20, 20, 200, 5000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.min(), 10);
/// assert_eq!(h.quantile(0.5), 20);
/// assert!(h.quantile(0.999) >= 5000);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    precision: u32,
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// A histogram at [`DEFAULT_PRECISION`].
    pub fn new() -> Self {
        Self::with_precision(DEFAULT_PRECISION)
    }

    /// A histogram with `2^precision` sub-buckets per octave
    /// (`precision` clamped to `[1, 12]`). Higher precision trades
    /// memory (one `u64` per bucket) for tighter quantiles.
    pub fn with_precision(precision: u32) -> Self {
        let precision = precision.clamp(1, 12);
        let m = 1usize << precision;
        // Octave 0 holds [0, 2^p) exactly; octaves 1..=(64-p) each hold
        // m sub-buckets, covering the full u64 range.
        let buckets = m + (64 - precision as usize) * m;
        LatencyHistogram {
            precision,
            counts: vec![0; buckets],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Sub-bucket precision in bits.
    pub fn precision(&self) -> u32 {
        self.precision
    }

    fn index_of(&self, value: u64) -> usize {
        let p = self.precision;
        let m = 1u64 << p;
        if value < m {
            return value as usize;
        }
        // 2^e <= value < 2^(e+1), e >= p. The top p bits after the MSB
        // select the sub-bucket.
        let e = 63 - value.leading_zeros();
        let sub = (value >> (e - p)) - m; // in [0, m)
        (m + (e - p) as u64 * m + sub) as usize
    }

    /// Lowest value mapping to bucket `i`.
    fn bucket_low(&self, i: usize) -> u64 {
        let p = self.precision;
        let m = 1u64 << p;
        if (i as u64) < m {
            return i as u64;
        }
        let k = (i as u64 - m) / m + 1; // octave, >= 1
        let sub = (i as u64 - m) % m;
        (m + sub) << (k - 1)
    }

    /// Highest value mapping to bucket `i`.
    fn bucket_high(&self, i: usize) -> u64 {
        let p = self.precision;
        let m = 1u64 << p;
        if (i as u64) < m {
            return i as u64;
        }
        let k = (i as u64 - m) / m + 1;
        let sub = (i as u64 - m) % m;
        // The topmost bucket's exclusive upper bound is 2^64: compute in
        // u128 and clamp.
        let hi = (u128::from(m + sub + 1) << (k - 1)) - 1;
        hi.min(u128::from(u64::MAX)) as u64
    }

    /// Records one latency sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let i = self.index_of(value);
        if let Some(n) = self.counts.get_mut(i) {
            *n += 1;
        }
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded values (not bucketed) — the
    /// reconciliation anchor for cycle-attribution: a profiler that
    /// splits the same latencies into components must produce per-class
    /// component sums equal to this, cycle for cycle.
    pub fn total(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the recorded values (exact, not bucketed;
    /// 0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the `ceil(q * count)`-th smallest sample, so
    /// the result is within one bucket's width (relative error
    /// `2^-precision`) of the exact order statistic. Returns 0 when
    /// empty; `q >= 1` returns the exact maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q.max(0.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                return self.bucket_high(i).min(self.max);
            }
        }
        self.max // unreachable if counters are consistent
    }

    /// Accumulates `other` into `self`. Merging is element-wise, so it
    /// is associative and commutative and equals recording the union of
    /// both sample sets.
    ///
    /// # Panics
    ///
    /// Panics if the precisions differ (the bucket layouts would not
    /// line up).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert_eq!(
            self.precision, other.precision,
            "cannot merge histograms of different precisions"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(low, high, count)` triples in ascending
    /// order — the compact form the JSON export uses.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.bucket_low(i), self.bucket_high(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..32 {
            h.record(v);
        }
        // Under 2^5 every bucket is unit width: quantiles are exact.
        assert_eq!(h.quantile(1.0 / 32.0), 0);
        assert_eq!(h.quantile(0.5), 15);
        assert_eq!(h.quantile(1.0), 31);
    }

    #[test]
    fn buckets_partition_the_value_range() {
        let h = LatencyHistogram::with_precision(3);
        let mut prev_high: Option<u64> = None;
        for i in 0..h.counts.len() {
            let (lo, hi) = (h.bucket_low(i), h.bucket_high(i));
            assert!(lo <= hi, "bucket {i} inverted: [{lo}, {hi}]");
            if let Some(ph) = prev_high {
                assert_eq!(lo, ph + 1, "gap or overlap before bucket {i}");
            }
            prev_high = Some(hi);
        }
        assert_eq!(prev_high, Some(u64::MAX));
    }

    #[test]
    fn index_maps_values_into_their_own_bucket() {
        let h = LatencyHistogram::new();
        for v in [0, 1, 31, 32, 33, 100, 1023, 1024, 123_456_789, u64::MAX] {
            let i = h.index_of(v);
            assert!(h.bucket_low(i) <= v && v <= h.bucket_high(i), "value {v} bucket {i}");
        }
    }

    #[test]
    fn relative_bucket_width_is_bounded() {
        let h = LatencyHistogram::new(); // p = 5
        for i in 0..h.counts.len() {
            let (lo, hi) = (h.bucket_low(i), h.bucket_high(i));
            if lo >= 32 {
                let width = hi - lo + 1;
                assert!(
                    (width as f64) <= lo as f64 / 32.0,
                    "bucket [{lo}, {hi}] wider than 2^-5 relative"
                );
            }
        }
    }

    #[test]
    fn quantiles_track_a_known_distribution() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 500u64), (0.9, 900), (0.99, 990), (0.999, 999)] {
            let est = h.quantile(q);
            let err = est.abs_diff(exact) as f64 / exact as f64;
            assert!(err <= 1.0 / 32.0, "q={q}: est {est} vs exact {exact}");
        }
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.min(), 1);
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_recording_the_union() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for v in [5u64, 80, 300] {
            a.record(v);
            all.record(v);
        }
        for v in [7u64, 80, 9000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        assert_eq!(a.total(), 5 + 80 + 300 + 7 + 80 + 9000);
    }

    #[test]
    #[should_panic(expected = "different precisions")]
    fn merging_mismatched_precisions_panics() {
        let mut a = LatencyHistogram::with_precision(4);
        a.merge(&LatencyHistogram::with_precision(6));
    }

    #[test]
    fn nonzero_buckets_cover_all_samples() {
        let mut h = LatencyHistogram::new();
        for v in [1u64, 1, 1, 64, 64, 100_000] {
            h.record(v);
        }
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(buckets.iter().map(|&(_, _, c)| c).sum::<u64>(), 6);
        assert_eq!(buckets[0], (1, 1, 3));
        assert!(buckets.windows(2).all(|w| w[0].1 < w[1].0), "ascending, disjoint");
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }
}
