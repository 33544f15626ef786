//! The set-associative cache model (one slot word per way, one host
//! cache line per set).
//!
//! Every probe in the simulator's inner loop lands here. Each way of a
//! set is one slot word holding the resident line's tag above a 2-bit
//! state:
//!
//! ```text
//! wide   (u64):  63 ................................. 2 | 1 0
//!                tag                                    | state
//! narrow (u32):  31 ................ 2 | 1 0
//!                tag                   | state
//!
//! tag    line >> log2(sets), or line / sets (the reciprocal's quotient)
//!        when the set count is not a power of two
//! state  0 empty · 1 clean · 2 dirty · 3 dirty and owned
//! ```
//!
//! An empty slot is the all-zero word, whatever its tag bits would be.
//! The dirty states (bit 1 set) mark modified data, which feeds
//! `dirty_evictions` and `Evicted::dirty`. Every write leaves state 3:
//! `clean` returns a line to 1 and `disown` takes 3 to 2, so owned
//! implies dirty. The simulator's L1s use the owned state to know that
//! the node's L2 copy is modified without probing the L2. An evicted
//! line is rebuilt from its tag and its set, `tag * sets + set`.
//!
//! **Width.** Both widths use this one encoding, and the kernels below
//! are written once over the word type. [`Cache::with_line_bits`] takes
//! the caller's bound (every line below `2^bits`) and stores `u32` words
//! exactly when the largest legal line's tag, `(2^bits - 1) / sets`, is
//! below `2^30`; otherwise `u64`. [`Cache::new`] is the 61-bit bound
//! (lines below `2^61 - 1`), wide by the same rule. The simulator's bound
//! is 42 bits: packed reference words carry 48-bit byte addresses
//! (`PACKED_ADDR_MASK`) of 64-byte lines. So its caches with 4,096 or
//! more sets are narrow (the 2M8w L2 at exactly 4,096 sets, the 8M8w
//! RAC, the 8M1w L2, the 1.25M4w L2 with 5,120 sets) and the 64K2w L1s
//! (512 sets) are wide. Empty had to become a state, not a key value: the
//! earlier `line + 1` key needs a 31st tag bit at 2M8w.
//!
//! A probe computes `key = tag << 2` once; a slot holds the line when
//! `(slot ^ key) - 1 < 3`, that is, the tags agree and the state is not
//! empty. A read hit at the MRU slot stores nothing. The slot array comes
//! from the allocator's zeroed pages, so construction writes nothing and
//! pages no set touches never become resident; set 0 starts at the
//! array's first 64-byte boundary, so a set of up to 8 ways
//! (power-of-two associativity) lies in one host cache line. A narrow
//! 8-way set is half of one.
//!
//! Why one word per way, and not separate tag and state arrays: a
//! sampling profile of the 8-way MP machine (eight 2M8w L2s plus 8M8w
//! RACs) found that (1) glibc's 16-byte header on large allocations left
//! every tag array at an address ≡ 16 (mod 64), so every 8-way set and
//! every other 4-way set straddled two host lines, and the first tag load
//! of the wide probe took 17% of samples; (2) the parallel state-byte
//! array added a second host line to every insert, `is_dirty`, `clean`,
//! `mark_dirty` and `disown`; and (3) a non-zero empty sentinel forced
//! construction to write every slot. An earlier packed layout was slow
//! because every hit stored its word back to refresh the dirty bit, not
//! because the state shared the tag's word.
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
//! proves it on a million-operation randomized stream per geometry, at
//! both widths.

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
    /// Line address of the victim, rebuilt from its tag and its set.
    pub line: u64,
    /// Whether the victim held modified data (requires a writeback).
    pub dirty: bool,
}

/// Slot state: no line. The empty slot is the all-zero word.
const EMPTY: u64 = 0;
/// Slot state: a resident line with unmodified data.
const CLEAN: u64 = 1;
/// Slot state: modified data; also the bit every dirty state has set.
const DIRTY: u64 = 2;
/// Slot state: modified and owned, the state every write leaves behind.
const OWNED: u64 = 3;
/// Width of the state field below the tag.
const STATE_BITS: u32 = 2;
/// The state field of a slot word.
const STATE_MASK: u64 = (1 << STATE_BITS) - 1;
/// Exclusive bound on the tags a narrow (`u32`) word holds.
const NARROW_TAGS: u64 = 1 << (u32::BITS - STATE_BITS);
/// Exclusive bound on the lines of a [`Cache::new`] cache, `2^61 - 1`;
/// the reciprocal set index is exact far beyond it (below `2^63`).
const LINE_LIMIT: u64 = (1 << 61) - 1;
/// Host cache line size in bytes.
const LINE_BYTES: usize = 64;

/// A slot word: `u64` (wide) or `u32` (narrow), both `tag << 2 | state`.
/// The kernels compute in `u64` and store through [`Word::of`].
trait Word: Copy {
    /// The word holding the low bits of `word`. Narrow words truncate;
    /// the constructor chose narrow only where no legal line's word
    /// needs more than 32 bits.
    fn of(word: u64) -> Self;
    /// The word, widened to 64 bits.
    fn get(self) -> u64;
}

impl Word for u64 {
    #[inline(always)]
    fn of(word: u64) -> Self {
        word
    }

    #[inline(always)]
    fn get(self) -> u64 {
        self
    }
}

impl Word for u32 {
    #[inline(always)]
    fn of(word: u64) -> Self {
        debug_assert!(word >> u32::BITS == 0, "slot word {word:#x} does not fit a narrow slot");
        word as u32
    }

    #[inline(always)]
    fn get(self) -> u64 {
        u64::from(self)
    }
}

/// Whether slot word `slot` holds the line whose key (its tag shifted
/// above the state field) is `key`: the tags agree and the state is not
/// empty, so `slot ^ key` is 1, 2 or 3.
#[inline(always)]
fn holds(slot: u64, key: u64) -> bool {
    (slot ^ key).wrapping_sub(1) < STATE_MASK
}

/// The set geometry: where a line's set is and what its tag is.
#[derive(Clone, Debug)]
struct Index {
    n_sets: u64,
    assoc: usize,
    /// `n_sets - 1` when the set count is a power of two; unused otherwise.
    set_mask: u64,
    /// Whether `set_mask` is valid (power-of-two set count).
    pow2: bool,
    /// Round-up reciprocal of `n_sets` for the non-pow2 set index:
    /// `floor(2^(64+sh) / n_sets) + 1`. Zero (unused) when `pow2`.
    recip_m: u64,
    /// `floor(log2(n_sets))`: the tag shift when `pow2`, the
    /// post-multiply shift paired with `recip_m` otherwise.
    sh: u32,
    /// The largest legal line.
    top_line: u64,
}

impl Index {
    fn new(geometry: CacheGeometry, top_line: u64) -> Self {
        let n_sets = geometry.sets();
        let pow2 = n_sets.is_power_of_two();
        let sh = 63 - n_sets.leading_zeros();
        // Round-up reciprocal (Granlund–Montgomery): with
        // sh = floor(log2 d) and m = floor(2^(64+sh) / d) + 1,
        // floor((line * m) >> (64 + sh)) == line / d exactly for all
        // line < 2^63 (the error term e·line/2^(64+sh) with
        // e = m·d - 2^(64+sh) <= d stays below 1 on that domain).
        // m fits in u64 because d is not a power of two, so
        // d >= 2^sh + 1 and m <= 2^(64+sh)/(2^sh+1) + 1 < 2^64.
        let recip_m = if pow2 { 0 } else { ((1u128 << (64 + sh)) / u128::from(n_sets) + 1) as u64 };
        Index {
            n_sets,
            assoc: geometry.assoc() as usize,
            set_mask: n_sets - 1,
            pow2,
            recip_m,
            sh,
            top_line,
        }
    }

    /// The set `line` maps to and the line's tag in it. Power-of-two set
    /// counts use a mask and a shift; others (e.g. the 1.25 MB L2's 5120
    /// sets) use the precomputed reciprocal — a widening multiply and two
    /// shifts instead of a hardware divide on every probe — whose
    /// quotient is the tag. The branch is perfectly predicted: it goes
    /// the same way for the lifetime of a cache instance.
    #[inline(always)]
    fn locate(&self, line: u64) -> (u64, u64) {
        debug_assert!(line <= self.top_line, "line {line:#x} exceeds the cache's line bound");
        if self.pow2 {
            (line & self.set_mask, line >> self.sh)
        } else {
            let q = ((u128::from(line) * u128::from(self.recip_m)) >> 64) as u64 >> self.sh;
            (line - q * self.n_sets, q)
        }
    }

    /// The line held under `tag` in `set`: the inverse of [`Index::locate`].
    #[inline(always)]
    fn line(&self, set: u64, tag: u64) -> u64 {
        tag * self.n_sets + set
    }
}

/// The slot array of one width.
#[derive(Clone, Debug)]
struct Table<W> {
    /// Index of the first slot of set 0: the first 64-byte-aligned word
    /// of `slots`, so sets never straddle a host cache line. It moves
    /// only where slots live, never a result.
    base: usize,
    /// Slot words, MRU-first within each set, `n_sets * assoc` of them
    /// from `base`; the spare words around them stay 0 (empty). Never
    /// resized.
    slots: Vec<W>,
}

impl<W: Word> Table<W> {
    fn new(ix: &Index) -> Self {
        let words_per_line = LINE_BYTES / std::mem::size_of::<W>();
        // Zero is the empty slot, so the array comes from the
        // allocator's zeroed pages: nothing is written here, and pages no
        // set ever touches never become resident.
        let slots = vec![W::of(0); ix.n_sets as usize * ix.assoc + words_per_line - 1];
        let base = (slots.as_ptr() as usize).wrapping_neg() % LINE_BYTES / std::mem::size_of::<W>();
        Table { base, slots }
    }

    /// The slot words of `set`.
    #[inline(always)]
    #[expect(
        clippy::indexing_slicing,
        reason = "every caller's set comes from locate on the Index this table was built from (Cache holds the two together, never replacing either), so set < n_sets; base is below one host line's words, and slots holds n_sets*assoc plus one host line's words less one from construction, so the set window is in bounds"
    )]
    fn set(&self, ix: &Index, set: u64) -> &[W] {
        let start = self.base + set as usize * ix.assoc;
        &self.slots[start..start + ix.assoc]
    }

    /// Mutable form of [`Table::set`].
    #[inline(always)]
    #[expect(
        clippy::indexing_slicing,
        reason = "every caller's set comes from locate on the Index this table was built from (Cache holds the two together, never replacing either), so set < n_sets; base is below one host line's words, and slots holds n_sets*assoc plus one host line's words less one from construction, so the set window is in bounds"
    )]
    fn set_mut(&mut self, ix: &Index, set: u64) -> &mut [W] {
        let start = self.base + set as usize * ix.assoc;
        &mut self.slots[start..start + ix.assoc]
    }

    /// The probe kernel: on a hit, rotates the line to the MRU slot, ORs
    /// the state bits `bits` into its word and returns its state from
    /// before; `None` on a miss. Direct-mapped and 2-way sets — the L1s
    /// and several of the paper's L2 points — resolve inline; wider sets
    /// take the out-of-line [`touch_wide`] scan.
    #[inline(always)]
    fn touch(&mut self, ix: &Index, line: u64, bits: u64) -> Option<u64> {
        let (set, tag) = ix.locate(line);
        let key = tag << STATE_BITS;
        let prev = match self.set_mut(ix, set) {
            // Direct-mapped: one compare; a read hit stores nothing.
            [s0] => {
                let prev = s0.get();
                if !holds(prev, key) {
                    return None;
                }
                if bits != 0 {
                    *s0 = W::of(prev | bits);
                }
                prev
            }
            // 2-way: the rotate is a swap (or a no-op on an MRU hit).
            [s0, s1] => {
                if holds(s0.get(), key) {
                    let prev = s0.get();
                    if bits != 0 {
                        *s0 = W::of(prev | bits);
                    }
                    prev
                } else if holds(s1.get(), key) {
                    let prev = s1.get();
                    *s1 = *s0;
                    *s0 = W::of(prev | bits);
                    prev
                } else {
                    return None;
                }
            }
            slots => touch_wide(slots, key, bits)?,
        };
        Some(prev & STATE_MASK)
    }

    /// The state of `line`, [`EMPTY`] when absent.
    #[inline]
    fn state(&self, ix: &Index, line: u64) -> u64 {
        let (set, tag) = ix.locate(line);
        let key = tag << STATE_BITS;
        let slot = self.set(ix, set).iter().find(|s| holds(s.get(), key));
        slot.map_or(EMPTY, |s| s.get() & STATE_MASK)
    }

    /// Installs a line in `state` at the MRU slot and returns the word
    /// that fell out of the set's LRU end as a victim, if it held a line.
    #[inline]
    fn insert(&mut self, ix: &Index, line: u64, state: u64) -> Option<Evicted> {
        let (set, tag) = ix.locate(line);
        let word = W::of(tag << STATE_BITS | state);
        let victim = match self.set_mut(ix, set) {
            // Direct-mapped: the one slot is the victim, empty or not.
            [s0] => std::mem::replace(s0, word),
            // Shift the whole set one slot toward the LRU end. Valid
            // slots always precede empty ones (invalidate compacts), so
            // what falls out of the last slot is the LRU line of a full
            // set, or else an empty slot (the shifted tail was empty).
            slots => shift_in(slots.iter_mut(), word),
        }
        .get();
        (victim != 0).then(|| Evicted {
            line: ix.line(set, victim >> STATE_BITS),
            dirty: victim & DIRTY != 0,
        })
    }

    /// Removes a line and returns its state; `None` when absent.
    fn invalidate(&mut self, ix: &Index, line: u64) -> Option<u64> {
        let (set, tag) = ix.locate(line);
        let key = tag << STATE_BITS;
        let slots = self.set_mut(ix, set);
        let i = slots.iter().position(|s| holds(s.get(), key))?;
        // Compact: shift later (less recent) slots up, free the LRU end.
        Some(shift_in(slots.iter_mut().skip(i).rev(), W::of(0)).get() & STATE_MASK)
    }

    /// Replaces the state of a resident line by `to(state)`; `false`
    /// when the line is absent.
    #[inline]
    fn restate(&mut self, ix: &Index, line: u64, to: impl FnOnce(u64) -> u64) -> bool {
        let (set, tag) = ix.locate(line);
        let key = tag << STATE_BITS;
        let slot = self.set_mut(ix, set).iter_mut().find(|s| holds(s.get(), key));
        slot.map(|s| *s = W::of(key | to(s.get() & STATE_MASK))).is_some()
    }

    /// The `i`-th slot word of the sets, widened; 0 past the last set.
    fn word(&self, i: usize) -> u64 {
        self.slots.get(self.base + i).map_or(0, |s| s.get())
    }

    /// Slots holding a line, by a full scan (the spare words around the
    /// sets are always empty).
    fn count_valid(&self) -> usize {
        self.slots.iter().filter(|s| s.get() != 0).count()
    }
}

/// The ≥3-way arm of [`Table::touch`], kept out of line so the 1- and
/// 2-way arms inline into the simulator's dispatch loop without it.
/// Scans the whole set unconditionally: at most one slot can match, so
/// the last match is the match, and the branch-free body lets the
/// compiler vectorize the key compare. Returns the hit's word from
/// before the access.
#[inline(never)]
fn touch_wide<W: Word>(slots: &mut [W], key: u64, bits: u64) -> Option<u64> {
    let mut hit = usize::MAX;
    for (i, s) in slots.iter().enumerate() {
        if holds(s.get(), key) {
            hit = i;
        }
    }
    // `usize::MAX` (no match) is out of range: the miss.
    let prev = slots.get(hit)?.get();
    shift_in(slots.iter_mut().take(hit + 1), W::of(prev | bits));
    Some(prev)
}

/// Moves `word` into the first of `slots`, each slot's old word into the
/// next, and returns what falls out of the last. Over a set's first `k`
/// slots this is the LRU rotate to MRU; over a reversed tail it is the
/// compaction after an invalidation.
#[inline(always)]
fn shift_in<'a, W: Word + 'a>(slots: impl Iterator<Item = &'a mut W>, mut word: W) -> W {
    for s in slots {
        std::mem::swap(s, &mut word);
    }
    word
}

/// The slot array at the width the constructor chose.
#[derive(Clone, Debug)]
enum Slots {
    /// `u64` words: any legal line's tag fits.
    Wide(Table<u64>),
    /// `u32` words: every legal line's tag is below `2^30`.
    Narrow(Table<u32>),
}

/// Evaluates `$call` on the [`Table`] of either width, bound to `$t`.
macro_rules! each_width {
    ($slots:expr, $t:ident => $call:expr) => {
        match $slots {
            Slots::Wide($t) => $call,
            Slots::Narrow($t) => $call,
        }
    };
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
/// Line addresses must be below the constructor's bound: `2^61 - 1` for
/// [`Cache::new`], `2^bits` for [`Cache::with_line_bits`]. The bound is
/// debug-asserted on every operation.
///
/// A clone is correct but may lose the 64-byte set alignment, since the
/// slot offset was chosen for the original's heap address.
#[derive(Clone, Debug)]
pub struct Cache {
    geometry: CacheGeometry,
    index: Index,
    slots: Slots,
    /// Live count of valid lines, maintained by insert/invalidate so
    /// [`Cache::occupancy`] is O(1) instead of an O(capacity) scan.
    valid_count: usize,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry, for lines below
    /// `2^61 - 1`: [`Cache::with_line_bits`] at 61 bits. Its slot words
    /// are `u64` (narrow ones would need `2^31` sets or more).
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
        Cache::with_line_bits(geometry, 61)
    }

    /// Creates an empty cache for lines below `2^line_bits`, capped at
    /// [`Cache::new`]'s range (lines below `2^61 - 1`). Its slot words are
    /// `u32`, half the memory of [`Cache::new`]'s, exactly when every
    /// such line's tag is below `2^30`: when `(2^line_bits - 1) / sets <
    /// 2^30`. At 42 bits that holds from 4,096 sets up.
    ///
    /// # Example
    ///
    /// ```
    /// use csim_cache::Cache;
    /// use csim_config::CacheGeometry;
    /// let mut rac = Cache::with_line_bits(CacheGeometry::new(8 << 20, 8, 64)?, 42);
    /// let top = (1 << 42) - 1;
    /// rac.insert(top, true);
    /// assert!(rac.is_dirty(top));
    /// # Ok::<(), csim_config::ConfigError>(())
    /// ```
    pub fn with_line_bits(geometry: CacheGeometry, line_bits: u32) -> Self {
        let top_line = if line_bits < 61 { (1 << line_bits) - 1 } else { LINE_LIMIT - 1 };
        let index = Index::new(geometry, top_line);
        let slots = if top_line / index.n_sets < NARROW_TAGS {
            Slots::Narrow(Table::new(&index))
        } else {
            Slots::Wide(Table::new(&index))
        };
        Cache { geometry, index, slots, valid_count: 0, stats: CacheStats::default() }
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

    /// Probes `line` (see [`Table::touch`]). Touches no counters.
    #[inline(always)]
    fn touch(&mut self, line: u64, bits: u64) -> Option<u64> {
        each_width!(&mut self.slots, t => t.touch(&self.index, line, bits))
    }

    /// The state of `line`, [`EMPTY`] when absent.
    #[inline(always)]
    fn state(&self, line: u64) -> u64 {
        each_width!(&self.slots, t => t.state(&self.index, line))
    }

    /// Replaces the state of a resident line by `to(state)`; `false`
    /// when the line is absent.
    #[inline(always)]
    fn restate(&mut self, line: u64, to: impl FnOnce(u64) -> u64) -> bool {
        each_width!(&mut self.slots, t => t.restate(&self.index, line, to))
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
    // Forced inline: with both widths' arms the probe outgrows the
    // inliner's budget, and an out-of-line L1 read probe cost the
    // one-stream dispatch loop a call per reference.
    #[inline(always)]
    pub fn access(&mut self, line: u64, write: bool) -> Outcome {
        let hit = self.touch(line, if write { OWNED } else { EMPTY }).is_some();
        self.record(hit, write)
    }

    /// `access(line, true)` fused with a read of the line's state before
    /// the store: probes once and also returns whether the state had all
    /// of the `was` bits set. Counters, LRU movement and the final state
    /// are exactly those of the plain store; on a miss the second
    /// component is `false`, as for an absent line.
    #[inline(always)]
    fn access_store_was(&mut self, line: u64, was: u64) -> (Outcome, bool) {
        let prev = self.touch(line, OWNED);
        (self.record(prev.is_some(), true), prev.is_some_and(|s| s & was == was))
    }

    /// A store fused with the pre-store `is_dirty(line)` read: whether
    /// the line was already dirty before this store marked it. See
    /// [`Cache::access_store_was_owned`] for the form the simulator uses.
    #[inline]
    pub fn access_store_was_dirty(&mut self, line: u64) -> (Outcome, bool) {
        self.access_store_was(line, DIRTY)
    }

    /// A store fused with a read of the owned state: whether the line was
    /// owned before this store. The simulator keeps an L1 line owned
    /// exactly while its node's L2 copy is modified (stores own it,
    /// [`Cache::disown`] takes ownership away at a coherence downgrade),
    /// so an owned store hit needs no ownership walk and no L2 probe.
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
    #[inline]
    pub fn record_repeat_read_hit(&mut self) {
        self.stats.record_hit(false);
    }

    /// Records `n` read hits without probing the set — the batched form
    /// of [`Cache::record_repeat_read_hit`], under the same contract,
    /// for a run of back-to-back fetches of one resident line. Counters
    /// are integers, so one `+= n` equals `n` single hits exactly.
    #[inline]
    pub fn record_repeat_read_hits(&mut self, n: u64) {
        self.stats.record_hits(n);
    }

    /// Checks for presence without touching LRU state or statistics.
    #[inline]
    pub fn contains(&self, line: u64) -> bool {
        self.state(line) != EMPTY
    }

    /// Whether the line is present and modified. `false` when absent.
    #[inline]
    pub fn is_dirty(&self, line: u64) -> bool {
        self.state(line) & DIRTY != 0
    }

    /// Installs a line at the MRU position, evicting the LRU slot if the
    /// set is full. Returns the victim, if any. A dirty insert is also
    /// owned.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the line is already present — the caller
    /// must only insert after a miss.
    #[inline]
    pub fn insert(&mut self, line: u64, dirty: bool) -> Option<Evicted> {
        debug_assert!(!self.contains(line), "inserting line {line:#x} that is already cached");
        let state = if dirty { OWNED } else { CLEAN };
        let victim = each_width!(&mut self.slots, t => t.insert(&self.index, line, state));
        match victim {
            Some(v) => self.stats.record_eviction(v.dirty),
            None => self.valid_count += 1,
        }
        victim
    }

    /// Removes a line. Returns `Some(dirty)` when it was present.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let removed = each_width!(&mut self.slots, t => t.invalidate(&self.index, line))?;
        self.valid_count -= 1;
        self.stats.record_invalidation();
        Some(removed & DIRTY != 0)
    }

    /// Returns a present line to the clean state (coherence downgrade
    /// M→S). Returns `true` when the line was present.
    #[inline]
    pub fn clean(&mut self, line: u64) -> bool {
        self.restate(line, |_| CLEAN)
    }

    /// Takes ownership away from a present line: the level below has
    /// been downgraded, but this copy keeps its modified data (and so
    /// still counts as a dirty eviction). Owned becomes dirty; clean and
    /// dirty lines keep their state. Returns `true` when the line was
    /// present.
    #[inline]
    pub fn disown(&mut self, line: u64) -> bool {
        // Clears the owned state's low bit only where the dirty bit is set.
        self.restate(line, |s| s & !(s >> 1))
    }

    /// Marks a present line dirty and owned without an access (used when
    /// ownership is granted after an upgrade). Returns `true` when the
    /// line was present.
    #[inline]
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        self.restate(line, |_| OWNED)
    }

    /// Number of valid lines currently cached. O(1): the count is
    /// maintained live by [`Cache::insert`] / [`Cache::invalidate`]; debug
    /// builds assert it against a full scan.
    pub fn occupancy(&self) -> usize {
        debug_assert_eq!(
            self.valid_count,
            each_width!(&self.slots, t => t.count_valid()),
            "live valid_count diverged from the slot array"
        );
        self.valid_count
    }

    /// Iterates over all resident line addresses (MRU-first within each
    /// set; for tests and reporting).
    pub fn resident_lines(&self) -> impl Iterator<Item = u64> + '_ {
        let ix = &self.index;
        let words = ix.n_sets as usize * ix.assoc;
        (0..words).filter_map(move |i| {
            let word = each_width!(&self.slots, t => t.word(i));
            let set = (i / ix.assoc) as u64;
            (word != 0).then(|| ix.line(set, word >> STATE_BITS))
        })
    }
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
        // The strength-reduced non-pow2 set index and its tag must equal
        // the plain modulo and quotient for every geometry the sweep can
        // construct, across the whole debug-asserted line domain
        // (spot-checked at the extremes).
        for &(size, assoc) in &[(5u64 << 18, 4u32), (5 << 18, 2), (3 << 16, 1), (7 << 20, 8)] {
            let c = cache(size, assoc);
            let n_sets = c.geometry().sets();
            if n_sets.is_power_of_two() {
                continue;
            }
            let check = |line: u64| {
                let expect = (line % n_sets, line / n_sets);
                assert_eq!(c.index.locate(line), expect, "sets={n_sets} line={line}");
                assert_eq!(c.index.line(expect.0, expect.1), line, "sets={n_sets} line={line}");
            };
            for line in 0..3 * n_sets {
                check(line);
            }
            for k in 0..10_000u64 {
                check(LINE_LIMIT - 1 - k);
                check(k.wrapping_mul(0x9E37_79B9_7F4A_7C15) % LINE_LIMIT);
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

    fn is_narrow(c: &Cache) -> bool {
        matches!(c.slots, Slots::Narrow(_))
    }

    #[test]
    fn width_follows_the_tag_bound() {
        // Narrow exactly when the largest legal line's tag is below 2^30:
        // 2M8w (4,096 sets) is the boundary at the simulator's 42 bits,
        // and one more address bit makes it wide.
        for (size, assoc, bits, narrow) in [
            (64u64 << 10, 2u32, 42u32, false),
            (1 << 20, 8, 42, false),
            (2 << 20, 8, 42, true),
            (2 << 20, 8, 43, false),
            (8 << 20, 8, 42, true),
            (5 << 18, 4, 42, true),
        ] {
            let c = Cache::with_line_bits(CacheGeometry::new(size, assoc, 64).unwrap(), bits);
            assert_eq!(is_narrow(&c), narrow, "{} at {bits} bits", c.geometry().label());
        }
        assert!(!is_narrow(&cache(8 << 20, 8)), "Cache::new is wide");
    }

    #[test]
    fn every_set_lies_in_one_host_cache_line() {
        // The paper's geometries plus a non-power-of-two set count, wide
        // and (where the set count allows) narrow: each set window of up
        // to 8 ways must sit inside one 64-byte line.
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
        let mut narrow = 0;
        for (size, assoc) in geometries {
            let geometry = CacheGeometry::new(size, assoc, 64).unwrap();
            for c in [Cache::new(geometry), Cache::with_line_bits(geometry, 42)] {
                narrow += usize::from(is_narrow(&c));
                for set in 0..c.geometry().sets() {
                    let (first, bytes) = each_width!(&c.slots, t => {
                        let window = t.set(&c.index, set);
                        (window.as_ptr() as usize, std::mem::size_of_val(window))
                    });
                    let lines = (first / LINE_BYTES, (first + bytes - 1) / LINE_BYTES);
                    assert_eq!(lines.0, lines.1, "{size}B {assoc}w: set {set} straddles");
                }
            }
        }
        assert_eq!(narrow, 6, "every geometry of 4,096 or more sets is narrow at 42 bits");
    }

    #[test]
    fn extreme_keys_survive_every_operation() {
        // Line 0 has tag 0 in set 0, so its words differ from the empty
        // word only in the state; the top legal line has every tag bit
        // set. Both widths at their bound: 32 sets are narrow at 35 bits,
        // where the top line's tag is 2^30 - 1.
        for assoc in [1u32, 2, 8] {
            let geometry = CacheGeometry::new(u64::from(assoc) * 32 * 64, assoc, 64).unwrap();
            let wide = (Cache::new(geometry), LINE_LIMIT - 1);
            let narrow = (Cache::with_line_bits(geometry, 35), (1 << 35) - 1);
            assert!(is_narrow(&narrow.0) && !is_narrow(&wide.0));
            for (mut c, top) in [wide, narrow] {
                extreme_lines_survive(&mut c, top);
            }
        }
    }

    /// Every operation on line 0 and on `top`, the cache's largest legal
    /// line.
    fn extreme_lines_survive(c: &mut Cache, top: u64) {
        let (sets, assoc) = (c.geometry().sets(), c.geometry().assoc());
        let label = format!("{}w top {top:#x}", assoc);
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
        assert_eq!(resident, [0, top], "{label}");
        for line in [0, top] {
            // `assoc` conflicting lines push the line out of its set
            // with its dirty flag.
            let conflict = |k: u64| if line == 0 { k * sets } else { line - k * sets };
            for k in 1..u64::from(assoc) {
                assert!(c.insert(conflict(k), false).is_none());
            }
            let victim = c.insert(conflict(u64::from(assoc)), false);
            assert_eq!(victim, Some(Evicted { line, dirty: true }), "{label} line {line:#x}");
            assert!(!c.contains(line));
            assert!(c.insert(line, true).is_some());
            assert!(c.resident_lines().any(|l| l == line));
            assert_eq!(c.invalidate(line), Some(true));
            assert_eq!(c.invalidate(line), None);
            assert!(!c.resident_lines().any(|l| l == line));
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
