//! Mattson stack-distance analysis.
//!
//! The classic single-pass algorithm (Mattson et al., 1970): for an LRU
//! cache, the miss ratio at *every* capacity can be computed from one
//! traversal of the reference stream by recording, for each access, how
//! many *distinct* lines were touched since the previous access to the
//! same line (its stack distance). A fully-associative LRU cache of `C`
//! lines misses exactly the accesses whose stack distance is `>= C`.
//!
//! This is the tool used to validate the synthetic OLTP workload's
//! footprint against the paper's characterization: the distance
//! histogram *is* the miss-ratio-vs-capacity curve, and the knee of the
//! curve is the cacheable footprint (the paper's ~2 MB).
//!
//! The implementation is the standard O(log n)-per-access scheme: a
//! Fenwick tree over access timestamps holds a 1 at each line's
//! last-access time, so the number of distinct lines touched since then
//! is a suffix sum.
//!
//! # Example
//!
//! ```
//! use csim_cache::StackDistance;
//!
//! let mut sd = StackDistance::new();
//! for line in [1u64, 2, 3, 1, 2, 3] {
//!     sd.visit(line);
//! }
//! // The second round of accesses all have distance 2 (two other
//! // distinct lines in between): a 4-line cache captures everything...
//! assert_eq!(sd.misses_at_capacity(4), 3); // only the 3 cold misses
//! // ...while a 2-line cache misses every access.
//! assert_eq!(sd.misses_at_capacity(2), 6);
//! ```

/// Single-pass LRU stack-distance profiler.
#[derive(Clone, Debug)]
pub struct StackDistance {
    // One flag per timestamp: 1 when that timestamp is some line's most
    // recent access. The Fenwick tree is rebuilt from this on growth.
    bits: Vec<u8>,
    // Fenwick tree over `bits` (1-based, fixed capacity; rebuilt when the
    // timestamp space doubles — a dynamically grown Fenwick tree would
    // silently drop carries into nodes that did not exist yet).
    tree: Vec<u64>,
    // line -> timestamp of its last access (1-based).
    #[expect(clippy::disallowed_types, reason = "looked up by line only, never iterated, so hash order reaches no distance")]
    last: std::collections::HashMap<u64, usize>,
    // Exact distance histogram plus an overflow bucket.
    exact: Vec<u64>,
    overflow: u64,
    cold: u64,
    accesses: u64,
}

/// Exact distances are recorded up to this value; larger ones land in a
/// single overflow bucket (they miss in any cache this crate simulates).
const MAX_EXACT_DISTANCE: usize = 1 << 21; // 2M lines = 128 MB of cache

impl Default for StackDistance {
    fn default() -> Self {
        Self::new()
    }
}

impl StackDistance {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        StackDistance {
            bits: vec![0], // index 0 unused (1-based timestamps)
            tree: vec![0; 1024],
            last: Default::default(),
            exact: Vec::new(),
            overflow: 0,
            cold: 0,
            accesses: 0,
        }
    }

    fn tree_add(&mut self, mut i: usize, delta: i64) {
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta) as u64;
            i += i & i.wrapping_neg();
        }
    }

    // analyze: total — Fenwick prefix walk: `i` only falls from a timestamp below `now`, and `visit` grows the tree past `now` before any query
    fn tree_prefix(&self, mut i: usize) -> u64 {
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Doubles the Fenwick capacity and rebuilds it from `bits`.
    fn grow(&mut self) {
        let new_len = self.tree.len() * 2;
        let mut tree = vec![0u64; new_len];
        for (t, &b) in self.bits.iter().enumerate().skip(1) {
            if b != 0 {
                let mut i = t;
                while i < new_len {
                    tree[i] += 1;
                    i += i & i.wrapping_neg();
                }
            }
        }
        self.tree = tree;
    }

    /// Records one access to `line` and returns its stack distance
    /// (`None` for a cold, first-ever access).
    pub fn visit(&mut self, line: u64) -> Option<u64> {
        self.accesses += 1;
        let now = self.bits.len();
        if now >= self.tree.len() {
            self.grow();
        }
        let distance = match self.last.get(&line).copied() {
            Some(prev) => {
                // Distinct lines touched since `prev` = ones after prev.
                let after = self.tree_prefix(now - 1) - self.tree_prefix(prev);
                self.tree_add(prev, -1);
                if let Some(b) = self.bits.get_mut(prev) {
                    *b = 0;
                }
                Some(after)
            }
            None => {
                self.cold += 1;
                None
            }
        };
        self.tree_add(now, 1);
        self.bits.push(1);
        self.last.insert(line, now);
        if let Some(d) = distance {
            if (d as usize) < MAX_EXACT_DISTANCE {
                let idx = d as usize;
                match self.exact.get_mut(idx) {
                    Some(n) => *n += 1,
                    None => {
                        self.exact.resize(idx, 0);
                        self.exact.push(1);
                    }
                }
            } else {
                self.overflow += 1;
            }
        }
        distance
    }

    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Cold (first-touch) accesses: the distinct-line footprint.
    pub fn cold_misses(&self) -> u64 {
        self.cold
    }

    /// Misses a fully-associative LRU cache of `capacity_lines` would
    /// take on the observed stream (cold misses included).
    pub fn misses_at_capacity(&self, capacity_lines: u64) -> u64 {
        let beyond: u64 =
            self.exact.get(capacity_lines as usize..).map_or(0, |tail| tail.iter().sum());
        self.cold + beyond + self.overflow
    }

    /// Miss ratio at the given capacity; zero when nothing was observed.
    pub fn miss_ratio_at(&self, capacity_lines: u64) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses_at_capacity(capacity_lines) as f64 / self.accesses as f64
        }
    }

    /// The miss-ratio curve at power-of-two capacities from `1` to
    /// `2^max_log2` lines: the workload's cacheability profile.
    pub fn curve(&self, max_log2: u32) -> Vec<(u64, f64)> {
        (0..=max_log2).map(|k| (1u64 << k, self.miss_ratio_at(1 << k))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_misses_count_distinct_lines() {
        let mut sd = StackDistance::new();
        for line in [5u64, 6, 5, 7, 6, 5] {
            sd.visit(line);
        }
        assert_eq!(sd.cold_misses(), 3);
        assert_eq!(sd.accesses(), 6);
    }

    #[test]
    fn distances_match_hand_computation() {
        let mut sd = StackDistance::new();
        assert_eq!(sd.visit(1), None);
        assert_eq!(sd.visit(2), None);
        assert_eq!(sd.visit(1), Some(1)); // one distinct line (2) in between
        assert_eq!(sd.visit(1), Some(0)); // immediate re-reference
        assert_eq!(sd.visit(3), None);
        assert_eq!(sd.visit(2), Some(2)); // 1 and 3 in between
    }

    #[test]
    fn capacity_one_misses_everything_but_repeats() {
        let mut sd = StackDistance::new();
        for line in [1u64, 1, 2, 2, 1] {
            sd.visit(line);
        }
        // Distances: -, 0, -, 0, 1. Capacity 1 misses cold(2) + d>=1 (1).
        assert_eq!(sd.misses_at_capacity(1), 3);
        // Capacity 2 captures everything after cold.
        assert_eq!(sd.misses_at_capacity(2), 2);
    }

    #[test]
    fn curve_is_monotone_nonincreasing() {
        let mut sd = StackDistance::new();
        // A scan of 64 lines repeated 4 times.
        for _ in 0..4 {
            for line in 0..64u64 {
                sd.visit(line);
            }
        }
        let curve = sd.curve(8);
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12, "curve must not increase with capacity");
        }
        // A 64-line cache captures the loop entirely: only cold misses.
        assert_eq!(sd.misses_at_capacity(64), 64);
        // A 32-line cache thrashes on an LRU scan: everything misses.
        assert_eq!(sd.misses_at_capacity(32), 256);
    }

    #[test]
    fn agrees_with_a_real_fully_associative_cache() {
        use crate::{Cache, Outcome};
        use csim_config::CacheGeometry;

        // Pseudo-random stream over 200 lines.
        let mut lines = Vec::new();
        let mut x = 12345u64;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            lines.push((x >> 33) % 200);
        }

        let mut sd = StackDistance::new();
        for &l in &lines {
            sd.visit(l);
        }

        for cap in [16u64, 64, 128] {
            let geom = CacheGeometry::new(cap * 64, cap as u32, 64).unwrap();
            let mut cache = Cache::new(geom);
            let mut misses = 0;
            for &l in &lines {
                if cache.access(l, false) == Outcome::Miss {
                    misses += 1;
                    cache.insert(l, false);
                }
            }
            assert_eq!(
                sd.misses_at_capacity(cap),
                misses,
                "stack distance disagrees with simulation at capacity {cap}"
            );
        }
    }

    #[test]
    fn a_default_profiler_measures_like_a_new_one() {
        let mut sd = StackDistance::default();
        for line in [1u64, 2, 3] {
            assert_eq!(sd.visit(line), None);
        }
        assert_eq!(sd.visit(1), Some(2));
        assert_eq!(sd.visit(2), Some(2));
    }

    #[test]
    fn miss_ratio_handles_empty_profiler() {
        let sd = StackDistance::new();
        assert_eq!(sd.miss_ratio_at(64), 0.0);
        assert_eq!(sd.accesses(), 0);
    }
}
