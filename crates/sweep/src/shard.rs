//! Deterministic sweep sharding: `--shard k/N` partitions the expanded
//! grid so shards can run in separate processes (or machines) and be
//! merged back into one byte-stable report.
//!
//! The partition is round-robin by grid index — point `i` belongs to
//! shard `i mod N` — so heterogeneous axes (an `all`-integration point
//! is much cheaper than a `cons` one, a 64-node point much dearer than
//! a uniprocessor) spread evenly across shards instead of one shard
//! inheriting a contiguous block of expensive points. The rule is a
//! pure function of the index, so any process can compute any shard's
//! membership without coordination.

/// One shard of a sweep grid: slice `index` of `count` round-robin
/// slices. `index` is always `< count` (enforced by [`Shard::parse`]
/// and re-checked by the engine for programmatic construction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    /// Which slice this process runs (0-based).
    pub index: u32,
    /// Total number of slices the grid is split into.
    pub count: u32,
}

impl Shard {
    /// Parses a `k/N` shard spec as written on the command line.
    ///
    /// Rejects — with messages naming the fix — zero shard counts,
    /// `k >= N`, non-numeric input, and counts above the engine's
    /// 100000-point grid ceiling (a shard per point is the most that
    /// can ever be useful).
    ///
    /// # Errors
    ///
    /// A human-readable message naming what is wrong with the spec.
    pub fn parse(spec: &str) -> Result<Shard, String> {
        let spec = spec.trim();
        let (k, n) = spec
            .split_once('/')
            .ok_or_else(|| format!("bad shard spec '{spec}': expected k/N, e.g. --shard 0/4"))?;
        let index: u32 = k.trim().parse().map_err(|_| {
            format!("bad shard spec '{spec}': shard index '{k}' is not a non-negative integer")
        })?;
        let count: u32 = n.trim().parse().map_err(|_| {
            format!("bad shard spec '{spec}': shard count '{n}' is not a positive integer")
        })?;
        if count == 0 {
            return Err(format!(
                "bad shard spec '{spec}': shard count must be at least 1 (use 0/1 for the whole grid)"
            ));
        }
        if count > 100_000 {
            return Err(format!(
                "bad shard spec '{spec}': {count} shards exceed the 100000-point grid ceiling"
            ));
        }
        if index >= count {
            return Err(format!(
                "bad shard spec '{spec}': shard index {index} out of range (must be < {count}; \
                 indices are 0-based)"
            ));
        }
        Ok(Shard { index, count })
    }

    /// Whether grid point `point_index` belongs to this shard. This is
    /// the per-point dispatch — pure integer arithmetic, no allocation.
    pub fn owns(&self, point_index: usize) -> bool {
        point_index % self.count as usize == self.index as usize
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_well_formed_specs() {
        assert_eq!(Shard::parse("0/1").unwrap(), Shard { index: 0, count: 1 });
        assert_eq!(Shard::parse(" 3/8 ").unwrap(), Shard { index: 3, count: 8 });
        assert_eq!(Shard::parse("7/8").unwrap().to_string(), "7/8");
    }

    #[test]
    fn parse_rejects_degenerate_specs_with_actionable_messages() {
        assert!(Shard::parse("0/0").unwrap_err().contains("at least 1"));
        assert!(Shard::parse("4/4").unwrap_err().contains("out of range"));
        assert!(Shard::parse("9/4").unwrap_err().contains("0-based"));
        assert!(Shard::parse("a/4").unwrap_err().contains("not a non-negative integer"));
        assert!(Shard::parse("1/b").unwrap_err().contains("not a positive integer"));
        assert!(Shard::parse("-1/4").unwrap_err().contains("not a non-negative integer"));
        assert!(Shard::parse("3").unwrap_err().contains("expected k/N"));
        assert!(Shard::parse("1/200000").unwrap_err().contains("ceiling"));
    }

    #[test]
    fn round_robin_partition_is_complete_and_disjoint() {
        let count = 7u32;
        let shards: Vec<Shard> = (0..count).map(|index| Shard { index, count }).collect();
        for point in 0..1_000usize {
            let owners: Vec<u32> =
                shards.iter().filter(|s| s.owns(point)).map(|s| s.index).collect();
            assert_eq!(owners.len(), 1, "point {point} must have exactly one owner");
            assert_eq!(owners[0] as usize, point % count as usize);
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let s = Shard { index: 0, count: 1 };
        assert!((0..100).all(|i| s.owns(i)));
    }
}
