//! The set-associative cache model (one slot word per way, one host
//! cache line per set).
//!
//! Every probe in the simulator's inner loop lands here. Each way of a
//! set is one `u64` slot word:
//!
//! ```text
//! bits 0..=60  key: line + 1, or 0 for an empty slot
//! bit  61      DIRTY — the line holds modified data (it feeds
//!              `dirty_evictions` and `Evicted::dirty`)
//! bit  62      OWNED — set by every write alongside DIRTY, cleared by
//!              `clean` and by `disown`, so OWNED implies DIRTY. The
//!              simulator's L1s use it to know the node's L2 copy is
//!              modified without probing the L2.
//! bit  63      always 0
//! ```
//!
//! A probe computes `key = line + 1` once and compares `slot & KEY_MASK`
//! against it; a read hit at the MRU slot stores nothing. The slot array
//! starts at a 64-byte boundary, so a set of up to 8 ways (power-of-two
//! associativity) occupies exactly one host cache line.
//!
//! Why this layout replaced separate tag and state arrays: a sampling
//! profile of the 8-way MP machine (eight 2M8w L2s plus 8M8w RACs) found
//! that (1) glibc's 16-byte header on large allocations left every tag
//! array at an address ≡ 16 (mod 64), so every 8-way set and every other
//! 4-way set straddled two host lines, and the first tag load of the
//! wide probe took 17% of samples; (2) the parallel state-byte array
//! added a second host line to every insert, `is_dirty`, `clean`,
//! `mark_dirty` and `disown`, and its byte swap was two thirds of the
//! insert's set-shift cost; and (3) the `u64::MAX` empty sentinel forced
//! construction to write every slot (10 MB on that machine), where an
//! all-zero empty slot lets the array come from the allocator's zeroed
//! pages, so construction writes nothing and untouched pages never become
//! resident. An earlier packed layout was slow because every hit stored
//! its word back to refresh the dirty bit, not because the state shared
//! the tag's word.
//!
//! Set lookup uses a mask when the set count is a power of two and a
//! precomputed reciprocal multiply-shift otherwise (the paper's 1.25 MB
//! 4-way L2 has 5120 sets — no hardware divide on the probe path).
//! Direct-mapped and 2-way sets — the L1s and several of the paper's L2
//! points — resolve inline with at most a swap; wider sets go through an
//! out-of-line scan that compares the whole set unconditionally so the
//! compiler can vectorize the key compare. LRU rotation, insert and
//! invalidate move one word per way with an element loop: a set is a
//! handful of slots, too few for a `memmove` call to pay off.
//!
//! Semantics are bit-identical to the retained seed implementation
//! (`csim_bench::ReferenceCache`, in bench support); `tests/sweep_identity.rs`
//! proves it on a million-operation randomized stream per geometry.

use csim_config::CacheGeometry;

use crate::stats::CacheStats;

/// Result of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The line was present (LRU updated; on a write the line is now
    /// dirty).
    Hit,
    /// The line was absent. The caller services the miss and then calls
    /// [`Cache::insert`].
    Miss,
}

impl Outcome {
    /// Returns `true` on [`Outcome::Hit`].
    #[inline]
    pub fn is_hit(self) -> bool {
        matches!(self, Outcome::Hit)
    }
}

/// A line pushed out of the cache by [`Cache::insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Evicted {
    /// Line address of the victim.
    pub line: u64,
    /// Whether the victim held modified data (requires a writeback).
    pub dirty: bool,
}

/// The key bits of a slot word (`line + 1`; 0 is an empty slot). Also
/// the exclusive upper bound on legal line addresses, `2^61 - 1`: the
/// largest legal line's key is exactly `KEY_MASK`, and the reciprocal set
/// index (exact below `2^63`) holds on the whole range.
const KEY_MASK: u64 = (1 << 61) - 1;
/// State bit: the line holds modified data.
const DIRTY: u64 = 1 << 61;
/// State bit: the line is owned (set with [`DIRTY`] by every write,
/// cleared by [`Cache::clean`] and [`Cache::disown`]).
const OWNED: u64 = 1 << 62;
/// The state a write leaves behind.
const WRITTEN: u64 = DIRTY | OWNED;
/// Host cache line size in bytes.
const LINE_BYTES: usize = 64;
/// Slot words per host cache line.
const LINE_WORDS: usize = LINE_BYTES / 8;

/// The slot key of a line address.
#[inline(always)]
fn key_of(line: u64) -> u64 {
    debug_assert!(line < KEY_MASK, "line {line:#x} exceeds the legal line range");
    line + 1
}

/// The line address held by a non-empty slot word.
#[inline(always)]
fn line_of(slot: u64) -> u64 {
    (slot & KEY_MASK) - 1
}

/// A set-associative, write-back, write-allocate cache with true LRU
/// replacement.
///
/// Operates on line addresses. Within each set, slots are kept in MRU→LRU
/// order; a hit rotates the slot to the front, an insertion evicts the last
/// slot when the set is full.
///
/// The number of sets need not be a power of two (indexing divides by a
/// precomputed reciprocal), so fractional-megabyte caches such as the
/// 1.25 MB L2 of the paper's Figure 12 are supported; power-of-two set
/// counts take a mask fast path.
///
/// Line addresses must be below `2^61 - 1` (the slot word keeps the key
/// `line + 1` in its low 61 bits). The simulator's address map stays far
/// below that; the bound is debug-asserted.
///
/// A clone is correct but may lose the 64-byte set alignment, since the
/// slot offset was chosen for the original's heap address.
#[derive(Clone, Debug)]
pub struct Cache {
    geometry: CacheGeometry,
    n_sets: usize,
    assoc: usize,
    /// `n_sets - 1` when the set count is a power of two; unused otherwise.
    set_mask: u64,
    /// Whether `set_mask` is valid (power-of-two set count).
    pow2: bool,
    /// Round-up reciprocal of `n_sets` for the non-pow2 set index:
    /// `floor(2^(64+sh) / n_sets) + 1`. Zero (unused) when `pow2`.
    recip_m: u64,
    /// `floor(log2(n_sets))` — the post-multiply shift paired with
    /// `recip_m`.
    recip_sh: u32,
    /// Index of the first slot of set 0: the first 64-byte-aligned word
    /// of `slots`, so sets never straddle a host cache line. Below
    /// [`LINE_WORDS`]; it moves only where slots live, never a result.
    base: usize,
    /// Slot words, MRU-first within each set, `n_sets * assoc` of them
    /// from `base`; the `LINE_WORDS - 1` spare words around them stay 0
    /// (empty). Never resized.
    slots: Vec<u64>,
    /// Live count of valid lines, maintained by insert/invalidate so
    /// [`Cache::occupancy`] is O(1) instead of an O(capacity) scan.
    valid_count: usize,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Example
    ///
    /// ```
    /// use csim_cache::Cache;
    /// use csim_config::CacheGeometry;
    /// let c = Cache::new(CacheGeometry::new(64 << 10, 2, 64)?);
    /// assert_eq!(c.geometry().sets(), 512);
    /// # Ok::<(), csim_config::ConfigError>(())
    /// ```
    pub fn new(geometry: CacheGeometry) -> Self {
        let n_sets = geometry.sets() as usize;
        let assoc = geometry.assoc() as usize;
        let pow2 = n_sets.is_power_of_two();
        let (recip_m, recip_sh) = if pow2 {
            (0, 0)
        } else {
            // Round-up reciprocal (Granlund–Montgomery): with
            // sh = floor(log2 d) and m = floor(2^(64+sh) / d) + 1,
            // floor((line * m) >> (64 + sh)) == line / d exactly for all
            // line < 2^63 (the error term e·line/2^(64+sh) with
            // e = m·d - 2^(64+sh) <= d stays below 1 on that domain).
            // m fits in u64 because d is not a power of two, so
            // d >= 2^sh + 1 and m <= 2^(64+sh)/(2^sh+1) + 1 < 2^64.
            let d = n_sets as u64;
            let sh = 63 - d.leading_zeros();
            let m = ((1u128 << (64 + sh)) / u128::from(d) + 1) as u64;
            (m, sh)
        };
        // Zero is the empty slot, so the array comes from the
        // allocator's zeroed pages: nothing is written here, and pages no
        // set ever touches never become resident.
        let slots = vec![0; n_sets * assoc + LINE_WORDS - 1];
        let base = (slots.as_ptr() as usize).wrapping_neg() % LINE_BYTES / 8;
        Cache {
            geometry,
            n_sets,
            assoc,
            set_mask: n_sets as u64 - 1,
            pow2,
            recip_m,
            recip_sh,
            base,
            slots,
            valid_count: 0,
            stats: CacheStats::default(),
        }
    }

    /// The geometry this cache was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Access statistics accumulated so far.
    #[inline]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics (e.g. at the end of warmup) without touching
    /// cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// First slot index of the set the line maps to, relative to `base`.
    /// Power-of-two set counts use a mask; others (e.g. the 1.25 MB L2's
    /// 5120 sets) use the precomputed reciprocal — a widening multiply and
    /// two shifts instead of a hardware divide on every probe. The branch
    /// is perfectly predicted — it goes the same way for the lifetime of a
    /// cache instance.
    #[inline(always)]
    fn set_start(&self, line: u64) -> usize {
        let set = if self.pow2 {
            (line & self.set_mask) as usize
        } else {
            let q = ((u128::from(line) * u128::from(self.recip_m)) >> 64) as u64 >> self.recip_sh;
            (line - q * self.n_sets as u64) as usize
        };
        set * self.assoc
    }

    /// The slot words of the set `line` maps to.
    #[inline(always)]
    // analyze: total — set_start returns set*assoc with the set index reduced below n_sets, base < LINE_WORDS, and slots holds n_sets*assoc + LINE_WORDS - 1 words from construction, so the set window is in bounds
    fn set(&self, line: u64) -> &[u64] {
        let start = self.base + self.set_start(line);
        &self.slots[start..start + self.assoc]
    }

    /// Mutable form of [`Cache::set`].
    #[inline(always)]
    // analyze: total — set_start returns set*assoc with the set index reduced below n_sets, base < LINE_WORDS, and slots holds n_sets*assoc + LINE_WORDS - 1 words from construction, so the set window is in bounds
    fn set_mut(&mut self, line: u64) -> &mut [u64] {
        let start = self.base + self.set_start(line);
        &mut self.slots[start..start + self.assoc]
    }

    /// The slot word of a resident line, `None` when absent.
    #[inline]
    fn slot_mut(&mut self, line: u64) -> Option<&mut u64> {
        let key = key_of(line);
        self.set_mut(line).iter_mut().find(|s| **s & KEY_MASK == key)
    }

    /// The probe kernel: on a hit, rotates the line to the MRU slot, ORs
    /// `bits` into its slot word and returns the word it had before;
    /// `None` on a miss. Touches no counters. Direct-mapped and 2-way
    /// sets — the L1s and several of the paper's L2 points — resolve
    /// inline; wider sets take the out-of-line [`touch_wide`] scan.
    // analyze: hot
    #[inline(always)]
    fn touch(&mut self, line: u64, bits: u64) -> Option<u64> {
        let key = key_of(line);
        match self.set_mut(line) {
            // Direct-mapped: one compare; a read hit stores nothing.
            [s0] => {
                let prev = *s0;
                if prev & KEY_MASK != key {
                    return None;
                }
                if bits != 0 {
                    *s0 = prev | bits;
                }
                Some(prev)
            }
            // 2-way: the rotate is a swap (or a no-op on an MRU hit).
            [s0, s1] => {
                if *s0 & KEY_MASK == key {
                    let prev = *s0;
                    if bits != 0 {
                        *s0 = prev | bits;
                    }
                    Some(prev)
                } else if *s1 & KEY_MASK == key {
                    let prev = *s1;
                    *s1 = *s0;
                    *s0 = prev | bits;
                    Some(prev)
                } else {
                    None
                }
            }
            slots => touch_wide(slots, key, bits),
        }
    }

    /// Counts one access and names its outcome.
    #[inline(always)]
    fn record(&mut self, hit: bool, write: bool) -> Outcome {
        if hit {
            self.stats.record_hit(write);
            Outcome::Hit
        } else {
            self.stats.record_miss(write);
            Outcome::Miss
        }
    }

    /// Looks a line up and updates LRU state. On a write hit the line
    /// becomes dirty and owned. On a miss nothing is allocated — service
    /// the miss and call [`Cache::insert`].
    // analyze: hot
    #[inline]
    pub fn access(&mut self, line: u64, write: bool) -> Outcome {
        let hit = self.touch(line, if write { WRITTEN } else { 0 }).is_some();
        self.record(hit, write)
    }

    /// `access(line, true)` fused with a read of the line's state before
    /// the store: probes once and also returns whether any of the `was`
    /// bits were set. Counters, LRU movement and the final state are
    /// exactly those of the plain store; on a miss the second component
    /// is `false`, as for an absent line.
    #[inline(always)]
    fn access_store_was(&mut self, line: u64, was: u64) -> (Outcome, bool) {
        let prev = self.touch(line, WRITTEN);
        (self.record(prev.is_some(), true), prev.is_some_and(|s| s & was != 0))
    }

    /// A store fused with the pre-store `is_dirty(line)` read: whether
    /// the line was already dirty before this store marked it. See
    /// [`Cache::access_store_was_owned`] for the form the simulator uses.
    // analyze: hot
    #[inline]
    pub fn access_store_was_dirty(&mut self, line: u64) -> (Outcome, bool) {
        self.access_store_was(line, DIRTY)
    }

    /// A store fused with a read of the owned bit: whether the line was
    /// owned before this store. The simulator keeps an L1 line owned
    /// exactly while its node's L2 copy is modified (stores set the bit,
    /// [`Cache::disown`] clears it at a coherence downgrade), so an
    /// owned store hit needs no ownership walk and no L2 probe.
    // analyze: hot
    #[inline]
    pub fn access_store_was_owned(&mut self, line: u64) -> (Outcome, bool) {
        self.access_store_was(line, OWNED)
    }

    /// Records a read hit without probing the set.
    ///
    /// Contract: the caller must already know the line is resident at the
    /// MRU position of its set, so a real `access(line, false)` would hit
    /// and change nothing but the hit counters (an MRU hit rotates
    /// nothing, and a read leaves the state alone). The simulator uses
    /// this for back-to-back instruction fetches of one line, which
    /// dominate the fetch stream; the counters advance exactly as the
    /// full probe would advance them.
    // analyze: hot
    #[inline]
    pub fn record_repeat_read_hit(&mut self) {
        self.stats.record_hit(false);
    }

    /// Records `n` read hits without probing the set — the batched form
    /// of [`Cache::record_repeat_read_hit`], under the same contract,
    /// for a run of back-to-back fetches of one resident line. Counters
    /// are integers, so one `+= n` equals `n` single hits exactly.
    // analyze: hot
    #[inline]
    pub fn record_repeat_read_hits(&mut self, n: u64) {
        self.stats.record_hits(n);
    }

    /// Checks for presence without touching LRU state or statistics.
    // analyze: hot
    #[inline]
    pub fn contains(&self, line: u64) -> bool {
        let key = key_of(line);
        self.set(line).iter().any(|&s| s & KEY_MASK == key)
    }

    /// Whether the line is present and modified. `false` when absent.
    // analyze: hot
    #[inline]
    pub fn is_dirty(&self, line: u64) -> bool {
        let key = key_of(line);
        self.set(line).iter().any(|&s| s & (KEY_MASK | DIRTY) == key | DIRTY)
    }

    /// Installs a line at the MRU position, evicting the LRU slot if the
    /// set is full. Returns the victim, if any. A dirty insert is also
    /// owned.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the line is already present — the caller
    /// must only insert after a miss.
    // analyze: hot
    #[inline]
    pub fn insert(&mut self, line: u64, dirty: bool) -> Option<Evicted> {
        debug_assert!(!self.contains(line), "inserting line {line:#x} that is already cached");
        let word = key_of(line) | if dirty { WRITTEN } else { 0 };
        let victim = match self.set_mut(line) {
            // Direct-mapped: the one slot is the victim, empty or not.
            [s0] => std::mem::replace(s0, word),
            // Shift the whole set one slot toward the LRU end. Valid
            // slots always precede empty ones (invalidate compacts), so
            // what falls out of the last slot is the LRU line of a full
            // set, or else an empty slot (the shifted tail was empty).
            slots => shift_in(slots.iter_mut(), word),
        };
        if victim != 0 {
            let dirty = victim & DIRTY != 0;
            self.stats.record_eviction(dirty);
            Some(Evicted { line: line_of(victim), dirty })
        } else {
            self.valid_count += 1;
            None
        }
    }

    /// Removes a line. Returns `Some(dirty)` when it was present.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let key = key_of(line);
        let slots = self.set_mut(line);
        let i = slots.iter().position(|&s| s & KEY_MASK == key)?;
        // Compact: shift later (less recent) slots up, free the LRU end.
        let removed = shift_in(slots.iter_mut().skip(i).rev(), 0);
        self.valid_count -= 1;
        self.stats.record_invalidation();
        Some(removed & DIRTY != 0)
    }

    /// Clears the dirty and owned bits of a present line (coherence
    /// downgrade M→S). Returns `true` when the line was present.
    #[inline]
    pub fn clean(&mut self, line: u64) -> bool {
        self.slot_mut(line).map(|s| *s &= KEY_MASK).is_some()
    }

    /// Clears only the owned bit of a present line: the level below has
    /// been downgraded, but this copy keeps its modified data (and so
    /// still counts as a dirty eviction). Returns `true` when the line
    /// was present.
    #[inline]
    pub fn disown(&mut self, line: u64) -> bool {
        self.slot_mut(line).map(|s| *s &= !OWNED).is_some()
    }

    /// Marks a present line dirty and owned without an access (used when
    /// ownership is granted after an upgrade). Returns `true` when the
    /// line was present.
    #[inline]
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        self.slot_mut(line).map(|s| *s |= WRITTEN).is_some()
    }

    /// Number of valid lines currently cached. O(1): the count is
    /// maintained live by [`Cache::insert`] / [`Cache::invalidate`]; debug
    /// builds assert it against a full scan.
    pub fn occupancy(&self) -> usize {
        debug_assert_eq!(
            self.valid_count,
            self.slots.iter().filter(|&&s| s != 0).count(),
            "live valid_count diverged from the slot array"
        );
        self.valid_count
    }

    /// Iterates over all resident line addresses (MRU-first within each
    /// set; for tests and reporting). The spare words around the sets
    /// are always empty, so the scan covers the whole array.
    pub fn resident_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().filter(|&&s| s != 0).map(|&s| line_of(s))
    }
}

/// The ≥3-way arm of [`Cache::touch`], kept out of line so the 1- and
/// 2-way arms inline into the simulator's dispatch loop without it.
/// Scans the whole set unconditionally: at most one slot can match, so
/// the last match is the match, and the branch-free body lets the
/// compiler vectorize the key compare.
// analyze: hot
#[inline(never)]
fn touch_wide(slots: &mut [u64], key: u64, bits: u64) -> Option<u64> {
    let mut hit = usize::MAX;
    for (i, &s) in slots.iter().enumerate() {
        if s & KEY_MASK == key {
            hit = i;
        }
    }
    // `usize::MAX` (no match) is out of range: the miss.
    let prev = *slots.get(hit)?;
    shift_in(slots.iter_mut().take(hit + 1), prev | bits);
    Some(prev)
}

/// Moves `word` into the first of `slots`, each slot's old word into the
/// next, and returns what falls out of the last. Over a set's first `k`
/// slots this is the LRU rotate to MRU; over a reversed tail it is the
/// compaction after an invalidation.
#[inline(always)]
fn shift_in<'a>(slots: impl Iterator<Item = &'a mut u64>, mut word: u64) -> u64 {
    for s in slots {
        std::mem::swap(s, &mut word);
    }
    word
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(size: u64, assoc: u32) -> Cache {
        Cache::new(CacheGeometry::new(size, assoc, 64).unwrap())
    }

    /// Two lines that map to the same set of `c`.
    fn conflicting_pair(c: &Cache) -> (u64, u64) {
        let sets = c.geometry().sets();
        (7, 7 + sets)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = cache(4096, 2);
        assert_eq!(c.access(1, false), Outcome::Miss);
        assert!(c.insert(1, false).is_none());
        assert_eq!(c.access(1, false), Outcome::Hit);
    }

    #[test]
    fn write_hit_sets_dirty() {
        let mut c = cache(4096, 2);
        c.insert(1, false);
        assert!(!c.is_dirty(1));
        c.access(1, true);
        assert!(c.is_dirty(1));
    }

    #[test]
    fn insert_dirty_is_dirty() {
        let mut c = cache(4096, 2);
        c.insert(9, true);
        assert!(c.is_dirty(9));
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = cache(4096, 1);
        let (a, b) = conflicting_pair(&c);
        c.insert(a, false);
        let v = c.insert(b, false).expect("direct-mapped conflict must evict");
        assert_eq!(v.line, a);
        assert!(!c.contains(a));
        assert!(c.contains(b));
    }

    #[test]
    fn lru_order_is_respected() {
        let mut c = cache(4096, 2);
        let sets = c.geometry().sets();
        let (a, b, d) = (3, 3 + sets, 3 + 2 * sets);
        c.insert(a, false);
        c.insert(b, false);
        // Touch `a` so `b` becomes LRU.
        assert_eq!(c.access(a, false), Outcome::Hit);
        let v = c.insert(d, false).unwrap();
        assert_eq!(v.line, b, "LRU line must be evicted");
        assert!(c.contains(a));
        assert!(c.contains(d));
    }

    #[test]
    fn eviction_reports_dirty_victims() {
        let mut c = cache(4096, 1);
        let (a, b) = conflicting_pair(&c);
        c.insert(a, false);
        c.access(a, true); // dirty it
        let v = c.insert(b, false).unwrap();
        assert_eq!(v, Evicted { line: a, dirty: true });
    }

    #[test]
    fn invalidate_removes_and_reports_dirty() {
        let mut c = cache(4096, 2);
        c.insert(5, true);
        assert_eq!(c.invalidate(5), Some(true));
        assert!(!c.contains(5));
        assert_eq!(c.invalidate(5), None);
    }

    #[test]
    fn invalidate_frees_slot_for_reuse() {
        let mut c = cache(4096, 2);
        let sets = c.geometry().sets();
        let (a, b, d) = (1, 1 + sets, 1 + 2 * sets);
        c.insert(a, false);
        c.insert(b, false);
        c.invalidate(a);
        // Set now has a free slot: inserting `d` must not evict `b`.
        assert!(c.insert(d, false).is_none());
        assert!(c.contains(b) && c.contains(d));
    }

    #[test]
    fn clean_downgrades_dirty_line() {
        let mut c = cache(4096, 2);
        c.insert(5, true);
        assert!(c.clean(5));
        assert!(!c.is_dirty(5));
        assert!(c.contains(5));
        assert!(!c.clean(1234), "cleaning an absent line reports false");
    }

    #[test]
    fn mark_dirty_upgrades_clean_line() {
        let mut c = cache(4096, 2);
        c.insert(5, false);
        assert!(c.mark_dirty(5));
        assert!(c.is_dirty(5));
        assert!(!c.mark_dirty(77));
    }

    #[test]
    fn disown_keeps_the_data_dirty() {
        let mut c = cache(4096, 2);
        c.insert(5, false);
        assert_eq!(c.access_store_was_owned(5), (Outcome::Hit, false));
        assert_eq!(c.access_store_was_owned(5), (Outcome::Hit, true));
        assert!(c.disown(5));
        assert!(c.is_dirty(5), "disown keeps the modified data");
        assert_eq!(c.access_store_was_dirty(5), (Outcome::Hit, true));
        assert!(c.disown(5));
        assert_eq!(c.access_store_was_owned(5), (Outcome::Hit, false));
        assert!(!c.disown(77), "disowning an absent line reports false");
    }

    #[test]
    fn contains_does_not_disturb_lru() {
        let mut c = cache(4096, 2);
        let sets = c.geometry().sets();
        let (a, b, d) = (2, 2 + sets, 2 + 2 * sets);
        c.insert(a, false);
        c.insert(b, false); // MRU = b, LRU = a
        assert!(c.contains(a)); // must NOT promote a
        let v = c.insert(d, false).unwrap();
        assert_eq!(v.line, a);
    }

    #[test]
    fn occupancy_counts_valid_lines() {
        let mut c = cache(4096, 2);
        assert_eq!(c.occupancy(), 0);
        c.insert(1, false);
        c.insert(2, false);
        assert_eq!(c.occupancy(), 2);
        c.invalidate(1);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn occupancy_live_count_tracks_evictions() {
        // Evictions replace a line, so occupancy must not grow past capacity.
        let mut c = cache(4096, 1);
        let sets = c.geometry().sets();
        for k in 0..3 {
            c.insert(7 + k * sets, k == 1);
        }
        assert_eq!(c.occupancy(), 1);
        c.invalidate(7 + 2 * sets);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn non_power_of_two_set_count_wraps_by_modulo() {
        // 1.25 MB 4-way => 5120 sets.
        let mut c = cache(5 << 18, 4);
        assert_eq!(c.geometry().sets(), 5120);
        let line = 5120 * 3 + 17; // maps to set 17
        c.insert(line, false);
        assert!(c.contains(line));
        assert_eq!(c.access(line, false), Outcome::Hit);
    }

    #[test]
    fn reciprocal_set_index_matches_modulo() {
        // The strength-reduced non-pow2 set index must equal the plain
        // modulo for every geometry the sweep can construct, across the
        // whole debug-asserted line domain (spot-checked at the extremes).
        for &(size, assoc) in &[(5u64 << 18, 4u32), (5 << 18, 2), (3 << 16, 1), (7 << 20, 8)] {
            let c = cache(size, assoc);
            let n_sets = c.geometry().sets();
            if n_sets.is_power_of_two() {
                continue;
            }
            let check = |line: u64| {
                let expect = (line % n_sets) as usize * c.assoc;
                assert_eq!(c.set_start(line), expect, "sets={n_sets} line={line}");
            };
            for line in 0..3 * n_sets {
                check(line);
            }
            for k in 0..10_000u64 {
                check(KEY_MASK - 1 - k);
                check(k.wrapping_mul(0x9E37_79B9_7F4A_7C15) % KEY_MASK);
            }
        }
    }

    #[test]
    fn large_line_addresses_pack_round_trip() {
        // A line address near the top of the legal range must survive
        // insert/evict intact alongside its dirty flag.
        let mut c = cache(4096, 2);
        let sets = c.geometry().sets();
        let big = (1u64 << 58) + 17; // multiple of nothing special; maps by modulo/mask
        c.insert(big, true);
        assert!(c.contains(big));
        assert!(c.is_dirty(big));
        let conflict_a = big + sets;
        let conflict_b = big + 2 * sets;
        c.insert(conflict_a, false);
        let v = c.insert(conflict_b, false).unwrap();
        assert_eq!(v, Evicted { line: big, dirty: true });
    }

    #[test]
    fn stats_track_hits_misses_evictions() {
        let mut c = cache(4096, 1);
        let (a, b) = conflicting_pair(&c);
        c.access(a, false);
        c.insert(a, false);
        c.access(a, true);
        c.access(b, false);
        c.insert(b, false); // evicts dirty a
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.dirty_evictions, 1);
        c.reset_stats();
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn full_associative_set_keeps_working_set() {
        let mut c = cache(8 * 64, 8); // one 8-way set
        for l in 0..8u64 {
            assert_eq!(c.access(l, false), Outcome::Miss);
            c.insert(l, false);
        }
        for l in 0..8u64 {
            assert_eq!(c.access(l, false), Outcome::Hit, "line {l} should still be resident");
        }
        // Ninth line evicts the LRU, which after the hit sweep is line 0.
        let v = c.insert(8, false).unwrap();
        assert_eq!(v.line, 0);
    }

    #[test]
    fn every_set_lies_in_one_host_cache_line() {
        // The paper's geometries plus a non-power-of-two set count: each
        // set window of up to 8 ways must sit inside one 64-byte line.
        let geometries = [
            (64u64 << 10, 2u32),
            (2 << 20, 1),
            (2 << 20, 2),
            (2 << 20, 4),
            (2 << 20, 8),
            (8 << 20, 8),
            (5 << 18, 4),
            (3 << 16, 1),
        ];
        for (size, assoc) in geometries {
            let c = cache(size, assoc);
            for set in 0..c.geometry().sets() {
                let window = c.set(set);
                let first = window.as_ptr() as usize;
                let last = first + std::mem::size_of_val(window) - 1;
                let lines = (first / LINE_BYTES, last / LINE_BYTES);
                assert_eq!(lines.0, lines.1, "{size}B {assoc}w: set {set} straddles");
            }
        }
    }

    #[test]
    fn extreme_keys_survive_every_operation() {
        // Line 0 has key 1, the smallest non-empty slot; the top legal
        // line has every key bit set, right below the state bits.
        let top = KEY_MASK - 1;
        for assoc in [1u32, 2, 8] {
            let mut c = cache(u64::from(assoc) * 32 * 64, assoc);
            let sets = c.geometry().sets();
            for line in [0, top] {
                assert_eq!(c.access(line, false), Outcome::Miss);
                assert!(c.insert(line, false).is_none());
                assert_eq!(c.access(line, false), Outcome::Hit);
                assert!(!c.is_dirty(line));
                assert_eq!(c.access_store_was_owned(line), (Outcome::Hit, false));
                assert!(c.is_dirty(line));
                assert!(c.clean(line));
                assert!(!c.is_dirty(line) && c.contains(line));
                assert!(c.mark_dirty(line));
                assert_eq!(c.access_store_was_owned(line), (Outcome::Hit, true));
                assert!(c.disown(line));
                assert!(c.is_dirty(line), "disown keeps the modified data");
                assert_eq!(c.access_store_was_owned(line), (Outcome::Hit, false));
            }
            let mut resident: Vec<u64> = c.resident_lines().collect();
            resident.sort_unstable();
            assert_eq!(resident, [0, top], "{assoc}w");
            for line in [0, top] {
                // `assoc` conflicting lines push the line out of its set
                // with its dirty flag.
                let conflict = |k: u64| if line == 0 { k * sets } else { line - k * sets };
                for k in 1..u64::from(assoc) {
                    assert!(c.insert(conflict(k), false).is_none());
                }
                let victim = c.insert(conflict(u64::from(assoc)), false);
                assert_eq!(victim, Some(Evicted { line, dirty: true }), "{assoc}w line {line:#x}");
                assert!(!c.contains(line));
                assert!(c.insert(line, true).is_some());
                assert!(c.resident_lines().any(|l| l == line));
                assert_eq!(c.invalidate(line), Some(true));
                assert_eq!(c.invalidate(line), None);
                assert!(!c.resident_lines().any(|l| l == line));
            }
        }
    }

    #[test]
    fn clone_answers_like_the_original() {
        // A clone may lose the set alignment, never the contents.
        let mut rng = csim_trace::SimRng::seed_from_u64(0xC10E);
        let drive = |c: &mut Cache, r: u64| {
            let line = r >> 40 & 0x7FFF;
            let outcome = c.access(line, r & 1 == 0);
            let victim = if outcome.is_hit() { None } else { c.insert(line, r & 2 == 0) };
            (outcome, victim, c.is_dirty(line ^ 1))
        };
        let mut original = cache(256 << 10, 8);
        for _ in 0..50_000 {
            drive(&mut original, rng.next_u64());
        }
        let mut copy = original.clone();
        for i in 0..50_000 {
            let r = rng.next_u64();
            assert_eq!(drive(&mut copy, r), drive(&mut original, r), "op {i}");
        }
        assert_eq!(copy.stats(), original.stats());
        assert!(copy.resident_lines().eq(original.resident_lines()));
    }
}
