//! Zipf-distributed sampling.

/// A precomputed Zipf(s) distribution over `0..n`.
///
/// Item `i` is drawn with probability proportional to `1 / (i + 1)^s`.
/// `s = 0` degenerates to the uniform distribution. Sampling maps a
/// 53-bit uniform draw to an item by an integer search of the cumulative
/// table — O(log n) with no floating-point arithmetic, fast enough for
/// the workload generator's hot path because most references are
/// produced in bursts.
///
/// # Example
///
/// ```
/// use csim_workload::ZipfTable;
/// let z = ZipfTable::new(100, 0.8);
/// // The most popular item is item 0: the smallest draws land on it.
/// assert_eq!(z.sample_u53(0), 0);
/// // Draws are 53-bit uniforms (`SimRng::next_u64() >> 11`).
/// assert!(z.sample_u53((1 << 53) - 1) < 100);
/// ```
#[derive(Clone, Debug)]
pub struct ZipfTable {
    /// `floor(cdf[i] * 2^53)` for the normalized cdf built in
    /// [`ZipfTable::new`]: the cdf rescaled into the integer domain of a
    /// 53-bit uniform draw (`SimRng::next_u64() >> 11`). Scaling by a
    /// power of two is exact in `f64`, and for a real `x` and integer
    /// `n`, `x < n ⟺ floor(x) < n`, so a partition search of this table
    /// against the raw draw returns exactly the index a float search of
    /// the cdf returns for `u = n * 2^-53` — with no float arithmetic on
    /// the sampling path. The float search survives as this module's
    /// test oracle.
    thresh: Vec<u64>,
    /// First-level search index: `coarse[k]` is the partition point of the
    /// cdf at threshold `k / COARSE_BINS`, so a sample only binary
    /// searches the narrow window `coarse[k] .. coarse[k + 1]` that is
    /// guaranteed to bracket the answer. Empty for tables too large to
    /// index with `u32` (none in practice); then sampling falls back to
    /// the full-table search.
    coarse: Vec<u32>,
}

/// Number of first-level bins. Must be a power of two: `u * COARSE_BINS`
/// is then exact in `f64` arithmetic, so the bin chosen for `u` provably
/// brackets the full-table partition point and the accelerated search
/// returns bit-identical results. The integer sampler picks the same bin
/// with a shift: `floor(u * 256) = floor(n * 2^-53 * 2^8) = n >> 45`.
const COARSE_BINS: usize = 256;

/// Shift mapping a 53-bit draw to its coarse bin: `53 - log2(COARSE_BINS)`.
const COARSE_SHIFT: u32 = 45;

impl ZipfTable {
    /// Builds the table for `n` items with skew `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative or not finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "a Zipf distribution needs at least one item");
        assert!(s.is_finite() && s >= 0.0, "zipf skew must be finite and >= 0");
        let cdf = normalized_cdf(n, s);
        let coarse = if cdf.len() <= u32::MAX as usize {
            (0..=COARSE_BINS)
                .map(|k| {
                    let t = k as f64 / COARSE_BINS as f64;
                    cdf.partition_point(|&c| c < t) as u32
                })
                .collect()
        } else {
            Vec::new()
        };
        // Truncating cast = floor for non-negative values, and the final
        // cdf entry is exactly 1.0 (it is divided by itself), so every
        // threshold fits: floor(1.0 * 2^53) = 2^53 < u64::MAX.
        let scale = (1u64 << 53) as f64;
        let thresh = cdf.iter().map(|&c| (c * scale) as u64).collect();
        ZipfTable { thresh, coarse }
    }

    /// Number of items.
    pub fn len(&self) -> u64 {
        self.thresh.len() as u64
    }

    /// `true` when the table is empty (never — construction requires
    /// `n > 0` — but provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.thresh.is_empty()
    }

    /// Maps a 53-bit uniform draw (`SimRng::next_u64() >> 11`) to an item
    /// index using integer comparisons only.
    ///
    /// Bit-identical to a float search of the cdf for `u = n * 2^-53`:
    /// for real `x` and integer `n`, `x < n ⟺ floor(x) < n`, so comparing
    /// `floor(c * 2^53)` against `n` decides `c < n * 2^-53` exactly — the
    /// float draw `n * 2^-53` is itself exact (`n` has at most 53
    /// significant bits).
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "coarse holds COARSE_BINS+1 monotone offsets each <= thresh.len() and k is clamped to COARSE_BINS-1, so lo <= hi <= thresh.len()"
    )]
    pub fn sample_u53(&self, n: u64) -> u64 {
        debug_assert!(n < (1 << 53));
        if self.coarse.is_empty() {
            return self.thresh.partition_point(|&t| t < n) as u64;
        }
        let k = ((n >> COARSE_SHIFT) as usize).min(COARSE_BINS - 1);
        let lo = self.coarse[k] as usize;
        let hi = self.coarse[k + 1] as usize;
        lo as u64 + branchless_partition(&self.thresh[lo..hi], n)
    }
}

/// The cumulative Zipf(s) distribution over `0..n`, normalized so its
/// last entry is exactly 1.0 (it is divided by itself).
fn normalized_cdf(n: u64, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n as usize);
    let mut acc = 0.0;
    for i in 0..n {
        acc += 1.0 / ((i + 1) as f64).powf(s);
        cdf.push(acc);
    }
    for v in &mut cdf {
        *v /= acc;
    }
    cdf
}

/// `window.partition_point(|&t| t < n)`, computed with conditional moves
/// instead of a branch per probe. The comparison outcome inside a Zipf
/// search window is decided by the random draw, so a branchy search
/// mispredicts on roughly half its probes; the select below carries no
/// prediction at all. The result is the partition point by the loop
/// invariant (`base` never passes an element `>= n`, `base + size` never
/// trails one `< n`), so the caller's answer is identical to the
/// `partition_point` it replaces — only the instruction mix changes.
#[inline]
fn branchless_partition(window: &[u64], n: u64) -> u64 {
    let mut base = 0usize;
    let mut size = window.len();
    while size > 1 {
        let half = size / 2;
        // cmov, not a branch: both sides are computed, the select picks.
        #[expect(
            clippy::indexing_slicing,
            reason = "binary-search invariant: base + size <= window.len() and 1 <= half < size, so base + half - 1 is in range"
        )]
        let probe = window[base + half - 1];
        if probe < n {
            base += half;
        }
        size -= half;
    }
    if let Some(&last) = window.get(base) {
        base += usize::from(last < n);
    }
    base as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The float sampler the integer path replaced, kept as its
    /// differential oracle: the table plus the normalized cdf
    /// [`ZipfTable::new`] derives `thresh` and `coarse` from.
    struct FloatOracle {
        z: ZipfTable,
        cdf: Vec<f64>,
    }

    impl FloatOracle {
        fn new(n: u64, s: f64) -> Self {
            FloatOracle { z: ZipfTable::new(n, s), cdf: normalized_cdf(n, s) }
        }

        /// Maps a uniform variate `u` in `[0, 1)` to an item index.
        ///
        /// Bit-identical to a binary search of the full cdf: the coarse
        /// index only narrows the window the search runs in (see
        /// `COARSE_BINS`).
        fn sample(&self, u: f64) -> u64 {
            debug_assert!((0.0..=1.0).contains(&u));
            if self.z.coarse.is_empty() {
                return self.cdf.partition_point(|&c| c < u) as u64;
            }
            // Exact: COARSE_BINS is a power of two, so `u * 256` never
            // rounds and `k / COARSE_BINS <= u < (k + 1) / COARSE_BINS`
            // holds exactly.
            let k = ((u * COARSE_BINS as f64) as usize).min(COARSE_BINS - 1);
            let lo = self.z.coarse[k] as usize;
            let hi = self.z.coarse[k + 1] as usize;
            (lo + self.cdf[lo..hi].partition_point(|&c| c < u)) as u64
        }
    }

    /// The 53-bit draw nearest below the variate `u`.
    fn draw(u: f64) -> u64 {
        (u * (1u64 << 53) as f64) as u64
    }

    #[test]
    fn uniform_when_s_is_zero() {
        let z = ZipfTable::new(4, 0.0);
        assert_eq!(z.sample_u53(draw(0.1)), 0);
        assert_eq!(z.sample_u53(draw(0.3)), 1);
        assert_eq!(z.sample_u53(draw(0.6)), 2);
        assert_eq!(z.sample_u53(draw(0.9)), 3);
    }

    #[test]
    fn skew_concentrates_mass_on_early_items() {
        let z = ZipfTable::new(1000, 1.0);
        // With s=1 and n=1000, H(1000) ≈ 7.485; item 0 has mass ≈ 13.4%.
        assert_eq!(z.sample_u53(draw(0.10)), 0);
        // The top 10 items carry ≈ 39% of the mass.
        assert!(z.sample_u53(draw(0.35)) < 10);
        // The tail is still reachable.
        assert_eq!(z.sample_u53(draw(0.999999)), 999);
    }

    #[test]
    fn all_samples_in_range() {
        let z = ZipfTable::new(17, 0.7);
        for i in 0..=100 {
            let u = i as f64 / 100.0;
            assert!(z.sample_u53(draw(u.min(0.999_999))) < 17);
        }
    }

    #[test]
    fn coarse_index_matches_full_search() {
        // The accelerated sampler must agree with a plain full-table
        // partition search on every variate, including bin boundaries.
        for &(n, s) in &[(1u64, 0.0), (17, 0.7), (1000, 1.0), (3072, 0.75), (10240, 0.6)] {
            let z = FloatOracle::new(n, s);
            let check = |u: f64| {
                let full = z.cdf.partition_point(|&c| c < u) as u64;
                assert_eq!(z.sample(u), full, "n={n} s={s} u={u}");
            };
            for k in 0..=256u32 {
                let edge = f64::from(k) / 256.0;
                check(edge.min(1.0));
                check((edge + 1e-12).min(1.0));
                check((edge - 1e-12).max(0.0));
            }
            let mut x = 0.012_345_678_9_f64;
            for _ in 0..10_000 {
                x = (x * 997.0 + 0.123_456_789).fract();
                check(x);
            }
        }
    }

    #[test]
    fn integer_sampler_matches_float_oracle() {
        // The hot integer sampler must agree with the float path on the
        // exact same draw — including coarse-bin edges, where a rounding
        // slip in the threshold table would first show.
        for &(n, s) in &[(1u64, 0.0), (17, 0.7), (1000, 1.0), (3072, 0.75), (10240, 0.6)] {
            let oracle = FloatOracle::new(n, s);
            let z = &oracle.z;
            let check = |draw: u64| {
                let u = draw as f64 * (1.0 / (1u64 << 53) as f64);
                assert_eq!(z.sample_u53(draw), oracle.sample(u), "n={n} s={s} draw={draw}");
            };
            for k in 0..256u64 {
                let edge = k << COARSE_SHIFT;
                check(edge);
                check(edge + 1);
                check(edge.saturating_sub(1));
            }
            check((1 << 53) - 1);
            // Deterministic pseudo-random sweep over the draw domain.
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..20_000 {
                x = x.wrapping_mul(0xD120_2E4B_BDC6_4F69).wrapping_add(0x2545_F491_4F6C_DD1D);
                check(x >> 11);
            }
        }
    }

    #[test]
    fn integer_thresholds_decide_float_predicate() {
        // thresh[i] < n must hold exactly when cdf[i] < n * 2^-53 — the
        // invariant the bit-identity of sample_u53 rests on.
        let FloatOracle { z, cdf } = FloatOracle::new(1000, 0.9);
        let mut x = 0xC0FF_EE00_2000u64;
        for _ in 0..5_000 {
            x = x.wrapping_mul(0xD120_2E4B_BDC6_4F69).wrapping_add(0x2545_F491_4F6C_DD1D);
            let n = x >> 11;
            let u = n as f64 * (1.0 / (1u64 << 53) as f64);
            for i in (0..cdf.len()).step_by(97) {
                assert_eq!(z.thresh[i] < n, cdf[i] < u, "i={i} n={n}");
            }
        }
    }

    #[test]
    fn len_reports_item_count() {
        let z = ZipfTable::new(5, 0.5);
        assert_eq!(z.len(), 5);
        assert!(!z.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_items_rejected() {
        let _ = ZipfTable::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_skew_rejected() {
        let _ = ZipfTable::new(4, -1.0);
    }
}
