//! The retained *reference* cache implementation.
//!
//! This is the original struct-of-fields model the simulator shipped with
//! before the packed-slot hot-path rewrite of [`csim_cache::Cache`]. It is
//! kept — unchanged in behaviour — as the oracle for differential testing:
//! the optimized model must produce bit-identical outcomes, statistics,
//! and resident-line sets on any operation stream. `tests/sweep_identity.rs`
//! drives both implementations with one million `SimRng`-generated
//! operations (including the non-power-of-two 1.25 MB geometry) and asserts
//! exact agreement, and the cache-kernel race in `benches/micro.rs`
//! fails when the optimized kernel's median speed falls below it.
//!
//! Do not optimize this file. Its value is that it stays simple and slow.

use csim_cache::{CacheStats, Evicted, Outcome};
use csim_config::CacheGeometry;

#[derive(Clone, Copy, Debug)]
struct Slot {
    tag: u64,
    valid: bool,
    dirty: bool,
}

const EMPTY: Slot = Slot { tag: 0, valid: false, dirty: false };

/// Straightforward set-associative, write-back, true-LRU cache — the seed
/// engine's implementation, preserved as a differential-testing oracle for
/// the optimized [`csim_cache::Cache`].
///
/// Semantics are identical to [`csim_cache::Cache`]: MRU→LRU slot order
/// within a set, modulo set indexing (non-power-of-two set counts are
/// legal), and the same statistics counters.
#[derive(Clone, Debug)]
pub struct ReferenceCache {
    geometry: CacheGeometry,
    n_sets: usize,
    assoc: usize,
    slots: Vec<Slot>,
    stats: CacheStats,
}

impl ReferenceCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        let n_sets = geometry.sets() as usize;
        let assoc = geometry.assoc() as usize;
        ReferenceCache {
            geometry,
            n_sets,
            assoc,
            slots: vec![EMPTY; n_sets * assoc],
            stats: CacheStats::default(),
        }
    }

    /// The geometry this cache was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Access statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn set_range(&self, line: u64) -> (usize, usize) {
        let set = (line % self.n_sets as u64) as usize;
        let start = set * self.assoc;
        (start, start + self.assoc)
    }

    /// Looks a line up and updates LRU state. See [`csim_cache::Cache::access`].
    pub fn access(&mut self, line: u64, write: bool) -> Outcome {
        let (start, end) = self.set_range(line);
        let set = &mut self.slots[start..end];
        for i in 0..set.len() {
            if set[i].valid && set[i].tag == line {
                let mut slot = set[i];
                if write {
                    slot.dirty = true;
                }
                // Rotate to MRU position.
                set.copy_within(0..i, 1);
                set[0] = slot;
                self.stats.hits += 1;
                self.stats.write_hits += u64::from(write);
                return Outcome::Hit;
            }
        }
        self.stats.misses += 1;
        self.stats.write_misses += u64::from(write);
        Outcome::Miss
    }

    /// Checks for presence without touching LRU state or statistics.
    pub fn contains(&self, line: u64) -> bool {
        let (start, end) = self.set_range(line);
        self.slots[start..end].iter().any(|s| s.valid && s.tag == line)
    }

    /// Whether the line is present and modified. `false` when absent.
    pub fn is_dirty(&self, line: u64) -> bool {
        let (start, end) = self.set_range(line);
        self.slots[start..end].iter().any(|s| s.valid && s.tag == line && s.dirty)
    }

    /// Installs a line at the MRU position. See [`csim_cache::Cache::insert`].
    pub fn insert(&mut self, line: u64, dirty: bool) -> Option<Evicted> {
        debug_assert!(!self.contains(line), "inserting line {line:#x} that is already cached");
        let (start, end) = self.set_range(line);
        let set = &mut self.slots[start..end];
        // Prefer an invalid slot; otherwise evict LRU (last).
        let victim_idx = set.iter().position(|s| !s.valid).unwrap_or(set.len() - 1);
        let victim = set[victim_idx];
        set.copy_within(0..victim_idx, 1);
        set[0] = Slot { tag: line, valid: true, dirty };
        if victim.valid {
            self.stats.evictions += 1;
            self.stats.dirty_evictions += u64::from(victim.dirty);
            Some(Evicted { line: victim.tag, dirty: victim.dirty })
        } else {
            None
        }
    }

    /// Removes a line. Returns `Some(dirty)` when it was present.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let (start, end) = self.set_range(line);
        let set = &mut self.slots[start..end];
        for i in 0..set.len() {
            if set[i].valid && set[i].tag == line {
                let dirty = set[i].dirty;
                // Compact: shift later (less recent) slots up, free the LRU end.
                set.copy_within(i + 1.., i);
                let last = set.len() - 1;
                set[last] = EMPTY;
                self.stats.invalidations += 1;
                return Some(dirty);
            }
        }
        None
    }

    /// Clears the dirty bit of a present line (coherence downgrade M→S).
    pub fn clean(&mut self, line: u64) -> bool {
        let (start, end) = self.set_range(line);
        for s in &mut self.slots[start..end] {
            if s.valid && s.tag == line {
                s.dirty = false;
                return true;
            }
        }
        false
    }

    /// Marks a present line dirty without an access.
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        let (start, end) = self.set_range(line);
        for s in &mut self.slots[start..end] {
            if s.valid && s.tag == line {
                s.dirty = true;
                return true;
            }
        }
        false
    }

    /// Number of valid lines currently cached (O(capacity) scan, by design).
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.valid).count()
    }

    /// Iterates over all resident line addresses (MRU-first within each set).
    pub fn resident_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().filter(|s| s.valid).map(|s| s.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_semantics_smoke() {
        let mut c = ReferenceCache::new(CacheGeometry::new(4096, 2, 64).unwrap());
        assert_eq!(c.access(1, false), Outcome::Miss);
        assert!(c.insert(1, true).is_none());
        assert_eq!(c.access(1, false), Outcome::Hit);
        assert!(c.is_dirty(1));
        assert!(c.clean(1));
        assert!(!c.is_dirty(1));
        assert_eq!(c.invalidate(1), Some(false));
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }
}
