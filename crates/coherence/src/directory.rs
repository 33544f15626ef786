//! The full-map directory protocol state machine.

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::node_set::{NodeId, NodeSet};

/// Coherence state of one cache line, as recorded by the directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LineState {
    /// No cache holds the line; memory at the home node is current.
    Uncached,
    /// One or more caches hold read-only copies; memory is current.
    Shared(NodeSet),
    /// Exactly one node holds a modified copy; memory is stale. `in_rac`
    /// records whether the copy currently sits in the owner's remote
    /// access cache rather than its L2 (paper Section 6).
    Modified {
        /// The owning node.
        owner: NodeId,
        /// Whether the modified copy lives in the owner's RAC.
        in_rac: bool,
    },
}

/// Where the data for a miss comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FillSource {
    /// The home node's memory (clean data). Whether this is a *local* or a
    /// *2-hop remote* miss depends on whether the requester is the home —
    /// compare against [`ReadOutcome::home`] / [`WriteOutcome::home`].
    Home,
    /// A dirty copy in another node's cache hierarchy (a 3-hop miss).
    OwnerCache {
        /// The node whose cache supplies the data.
        owner: NodeId,
        /// Whether the copy was in the owner's RAC (slower to retrieve
        /// than its L2: 250 ns vs 200 ns in the paper).
        in_rac: bool,
    },
}

/// What the directory decided for a read miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Where the fill data comes from.
    pub source: FillSource,
    /// The line's home node.
    pub home: NodeId,
    /// First machine-wide reference to this line (a cold miss).
    pub cold: bool,
    /// A former owner that must downgrade its copy from Modified to Shared
    /// (its dirty data is written back to the home as part of the 3-hop
    /// transaction).
    pub downgraded_owner: Option<NodeId>,
}

/// What the directory decided for a write miss or upgrade.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Where the fill data comes from (for an upgrade the requester already
    /// has the data; the source is still reported as `Home`).
    pub source: FillSource,
    /// The line's home node.
    pub home: NodeId,
    /// First machine-wide reference to this line (a cold miss).
    pub cold: bool,
    /// Read-only copies that must be invalidated (never contains the
    /// requester).
    pub invalidate: NodeSet,
    /// A former owner whose modified copy supplies the data and is then
    /// invalidated.
    pub previous_owner: Option<NodeId>,
    /// Whether the requester already held a shared copy (an
    /// upgrade/ownership request rather than a full data fetch).
    pub upgrade: bool,
}

/// A protocol transition that the directory refused because it does not
/// apply to the line's current state.
///
/// Before these errors existed, a misuse (say, a writeback from a node
/// that is not the recorded owner) was only caught by a `debug_assert!`;
/// in release builds the directory silently transitioned the line to
/// `Uncached`, losing the real owner's dirty copy — exactly the
/// lost-writeback corruption the model checker in `csim-check` is built
/// to catch. Refused transitions now leave the directory state
/// untouched and report *why* as a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// The operation names a line the directory has never tracked.
    UntrackedLine {
        /// The operation attempted (`"writeback"`, ...).
        op: &'static str,
        /// The line address.
        line: u64,
    },
    /// The operation is only legal for the line's current owner, and
    /// `node` is not it (or the line is not `Modified` at all).
    NotOwner {
        /// The operation attempted.
        op: &'static str,
        /// The line address.
        line: u64,
        /// The node that attempted the transition.
        node: NodeId,
        /// The directory state the line actually had.
        state: LineState,
    },
    /// A state handed to [`Directory::seed_state`] is not representable
    /// by the protocol (out-of-range node ids, or `Shared` with an empty
    /// sharer set — a dead state no legal transition sequence reaches).
    InvalidSeed {
        /// The line address.
        line: u64,
        /// The rejected state.
        state: LineState,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::UntrackedLine { op, line } => {
                write!(f, "{op} for untracked line {line:#x}")
            }
            ProtocolError::NotOwner { op, line, node, state } => write!(
                f,
                "{op} by node {node} for line {line:#x}, which is {state:?} (not owned by {node})"
            ),
            ProtocolError::InvalidSeed { line, state } => {
                write!(f, "cannot seed line {line:#x} with unrepresentable state {state:?}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Protocol event counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirectoryStats {
    /// Read misses processed.
    pub read_misses: u64,
    /// Write misses (including upgrades) processed.
    pub write_misses: u64,
    /// Writes that had to invalidate at least one remote copy.
    pub invalidating_writes: u64,
    /// Total individual invalidation messages sent.
    pub invalidations_sent: u64,
    /// 3-hop transactions (fills supplied by a remote owner's cache).
    pub three_hop_fills: u64,
    /// Dirty writebacks received at homes (owner evictions).
    pub writebacks: u64,
    /// Downgrades (M -> S on a remote read).
    pub downgrades: u64,
    /// Transactions NACKed at the directory controller. The protocol
    /// state machine itself never refuses a request — NACKs are injected
    /// by the fault model under contention — but the outcome is a
    /// protocol event and is counted here with the rest.
    pub nacks: u64,
}

// A fast, deterministic hasher for u64 block numbers (FxHash-style
// multiply; the std SipHash is needlessly slow for this hot path and we do
// not face adversarial keys).
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only used for u64 keys; fold bytes in word-sized chunks.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0 ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 ^= self.0 >> 32;
    }
}

/// log2 of the lines per directory block: a block is 32 aligned lines.
const BLOCK_SHIFT: u32 = 5;
/// Lines per directory block.
const BLOCK_LINES: usize = 1 << BLOCK_SHIFT;

/// One block of the directory: its block number and its line slots.
#[derive(Debug)]
struct Slab {
    /// `line >> BLOCK_SHIFT` for every line of the block.
    block: u64,
    /// The block's lines in order. `None` marks a line the directory has
    /// never tracked; `Some(Uncached)` is a tombstone.
    lines: [Option<LineState>; BLOCK_LINES],
}

/// Per-line directory storage as a block table: a small map from block
/// number (`line >> BLOCK_SHIFT`) to a slab index, and one flat vector
/// of slabs.
///
/// OLTP footprints are clustered: an 8-node run tracks tens of
/// thousands of lines in a few thousand blocks, so one map bucket per
/// block plus a dense slab costs less than one hash bucket per line,
/// and a fresh directory climbs a much shorter rehash ladder. Home
/// pages are scattered over a 2^46-byte space, so a dense radix over
/// page numbers is not an option.
#[derive(Debug, Default)]
struct BlockTable {
    #[expect(clippy::disallowed_types, reason = "looked up by block number only, never iterated, so hash order reaches no output")]
    index: std::collections::HashMap<u64, usize, BuildHasherDefault<LineHasher>>,
    slabs: Vec<Slab>,
    /// Lines with a `Some` slot (tombstones included).
    tracked: usize,
}

impl BlockTable {
    /// The state of a tracked line; `None` when the line was never
    /// tracked, whether or not its block exists.
    fn get(&self, line: u64) -> Option<LineState> {
        let slab = self.slabs.get(*self.index.get(&(line >> BLOCK_SHIFT))?)?;
        slab.lines[line as usize % slab.lines.len()]
    }

    /// The state of a tracked line, for an in-place transition.
    fn get_mut(&mut self, line: u64) -> Option<&mut LineState> {
        let slab = self.slabs.get_mut(*self.index.get(&(line >> BLOCK_SHIFT))?)?;
        slab.lines[line as usize % slab.lines.len()].as_mut()
    }

    /// The state of `line`, tracking it as `Uncached` (and allocating its
    /// block) on first touch; the flag reports that first touch.
    fn slot_or_insert(&mut self, line: u64) -> (&mut LineState, bool) {
        let block = line >> BLOCK_SHIFT;
        let fresh = self.slabs.len();
        let b = *self.index.entry(block).or_insert(fresh);
        if b == fresh {
            self.slabs.push(Slab { block, lines: [None; BLOCK_LINES] });
        }
        // Every index entry names a slab: it is the slab count at insertion.
        assert!(b < self.slabs.len());
        let lines = &mut self.slabs[b].lines;
        let slot = &mut lines[line as usize % lines.len()];
        let cold = slot.is_none();
        self.tracked += usize::from(cold);
        (slot.get_or_insert(LineState::Uncached), cold)
    }

    /// Every tracked line in ascending order: the slabs are sorted by
    /// block number, then each is walked in line order. The hash index
    /// is never iterated, so the order cannot depend on its layout.
    fn iter(&self) -> impl Iterator<Item = (u64, LineState)> + '_ {
        let mut slabs: Vec<&Slab> = self.slabs.iter().collect();
        slabs.sort_unstable_by_key(|slab| slab.block);
        slabs.into_iter().flat_map(|slab| {
            let base = slab.block << BLOCK_SHIFT;
            slab.lines.iter().zip(0..).filter_map(move |(slot, k)| Some((base | k, (*slot)?)))
        })
    }
}

/// The full-map invalidation directory for one simulated machine.
///
/// Entries are kept per line address in 32-line blocks; home nodes are
/// assigned by interleaving pages across nodes (round-robin on the page
/// index), the scheme the paper assumes when it observes that OLTP data
/// has a 1-in-8 chance of being local on an 8-node machine.
///
/// Lines that revert to `Uncached` keep a tombstone entry so cold misses
/// remain distinguishable from re-fetches.
#[derive(Debug)]
pub struct Directory {
    n_nodes: u8,
    lines_per_page_shift: u32,
    entries: BlockTable,
    stats: DirectoryStats,
}

impl Directory {
    /// Creates a directory for `n_nodes` nodes, with the given cache-line
    /// and page sizes in bytes (used for home interleaving).
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is 0 or exceeds 64, or if the sizes are not
    /// powers of two with `page_size >= line_size`.
    pub fn new(n_nodes: u8, line_size: u64, page_size: u64) -> Self {
        assert!((1..=64).contains(&n_nodes), "node count {n_nodes} out of range 1..=64");
        assert!(
            line_size.is_power_of_two() && page_size.is_power_of_two() && page_size >= line_size,
            "line/page sizes must be powers of two with page >= line"
        );
        Directory {
            n_nodes,
            lines_per_page_shift: (page_size / line_size).trailing_zeros(),
            entries: BlockTable::default(),
            stats: DirectoryStats::default(),
        }
    }

    /// Number of nodes this directory serves.
    pub fn n_nodes(&self) -> u8 {
        self.n_nodes
    }

    /// The home node of a line: pages are interleaved round-robin across
    /// nodes.
    ///
    /// ```
    /// use csim_coherence::Directory;
    /// let dir = Directory::new(8, 64, 8192);
    /// // 8192 / 64 = 128 lines per page: lines 0..128 live on node 0,
    /// // lines 128..256 on node 1, ...
    /// assert_eq!(dir.home(0), 0);
    /// assert_eq!(dir.home(129), 1);
    /// assert_eq!(dir.home(128 * 8), 0);
    /// ```
    #[inline]
    pub fn home(&self, line: u64) -> NodeId {
        ((line >> self.lines_per_page_shift) % u64::from(self.n_nodes)) as NodeId
    }

    /// Current directory state of a line (absent lines are `Uncached`).
    pub fn state(&self, line: u64) -> LineState {
        self.entries.get(line).unwrap_or(LineState::Uncached)
    }

    /// Protocol counters accumulated so far.
    pub fn stats(&self) -> &DirectoryStats {
        &self.stats
    }

    /// Records `count` NACKed transactions at this directory. Called by
    /// the simulator's fault-injection layer; the state machine itself
    /// never NACKs.
    pub fn record_nacks(&mut self, count: u64) {
        self.stats.nacks += count;
    }

    /// Resets counters (end of warmup) without touching protocol state.
    pub fn reset_stats(&mut self) {
        self.stats = DirectoryStats::default();
    }

    /// Processes a read miss by `requester`.
    ///
    /// State transitions: `Uncached -> Shared{r}`,
    /// `Shared(s) -> Shared(s + r)`, `Modified{o} -> Shared{o, r}` (the
    /// owner downgrades and its data is written back to the home).
    pub fn read_miss(&mut self, line: u64, requester: NodeId) -> ReadOutcome {
        debug_assert!(requester < self.n_nodes);
        self.stats.read_misses += 1;
        let home = self.home(line);
        let (state, cold) = self.entries.slot_or_insert(line);
        match *state {
            LineState::Uncached => {
                *state = LineState::Shared(NodeSet::single(requester));
                ReadOutcome { source: FillSource::Home, home, cold, downgraded_owner: None }
            }
            LineState::Shared(mut sharers) => {
                sharers.insert(requester);
                *state = LineState::Shared(sharers);
                ReadOutcome { source: FillSource::Home, home, cold, downgraded_owner: None }
            }
            LineState::Modified { owner, in_rac } => {
                debug_assert_ne!(
                    owner, requester,
                    "requester {requester} read-missed a line it owns (line {line:#x})"
                );
                let mut sharers = NodeSet::single(owner);
                sharers.insert(requester);
                *state = LineState::Shared(sharers);
                self.stats.three_hop_fills += 1;
                self.stats.downgrades += 1;
                ReadOutcome {
                    source: FillSource::OwnerCache { owner, in_rac },
                    home,
                    cold,
                    downgraded_owner: Some(owner),
                }
            }
        }
    }

    /// Processes a write miss (or upgrade) by `requester`. After this call
    /// the line is `Modified{requester}`.
    pub fn write_miss(&mut self, line: u64, requester: NodeId) -> WriteOutcome {
        debug_assert!(requester < self.n_nodes);
        self.stats.write_misses += 1;
        let home = self.home(line);
        let (state, cold) = self.entries.slot_or_insert(line);
        let outcome = match *state {
            LineState::Uncached => WriteOutcome {
                source: FillSource::Home,
                home,
                cold,
                invalidate: NodeSet::empty(),
                previous_owner: None,
                upgrade: false,
            },
            LineState::Shared(sharers) => {
                let upgrade = sharers.contains(requester);
                let invalidate = sharers.without(requester);
                WriteOutcome {
                    source: FillSource::Home,
                    home,
                    cold,
                    invalidate,
                    previous_owner: None,
                    upgrade,
                }
            }
            LineState::Modified { owner, in_rac } => {
                debug_assert_ne!(
                    owner, requester,
                    "requester {requester} write-missed a line it owns (line {line:#x})"
                );
                self.stats.three_hop_fills += 1;
                WriteOutcome {
                    source: FillSource::OwnerCache { owner, in_rac },
                    home,
                    cold,
                    invalidate: NodeSet::empty(),
                    previous_owner: Some(owner),
                    upgrade: false,
                }
            }
        };
        if !outcome.invalidate.is_empty() || outcome.previous_owner.is_some() {
            self.stats.invalidating_writes += 1;
            self.stats.invalidations_sent += u64::from(outcome.invalidate.len())
                + u64::from(outcome.previous_owner.is_some());
        }
        *state = LineState::Modified { owner: requester, in_rac: false };
        outcome
    }

    /// The owner evicted its modified copy and wrote the data back to the
    /// home memory. The line becomes `Uncached`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UntrackedLine`] for a line the directory never
    /// tracked; [`ProtocolError::NotOwner`] when `node` is not the
    /// recorded owner (including lines that are not `Modified` at all).
    /// A refused writeback leaves the directory state untouched, so an
    /// erroneous caller cannot lose the real owner's dirty copy.
    pub fn writeback(&mut self, line: u64, node: NodeId) -> Result<(), ProtocolError> {
        let Some(state) = self.entries.get_mut(line) else {
            return Err(ProtocolError::UntrackedLine { op: "writeback", line });
        };
        match *state {
            LineState::Modified { owner, .. } if owner == node => {
                self.stats.writebacks += 1;
                *state = LineState::Uncached;
                Ok(())
            }
            other => Err(ProtocolError::NotOwner { op: "writeback", line, node, state: other }),
        }
    }

    /// A sharer evicted its read-only copy (optional notification; silent
    /// clean evictions are also legal, leaving a stale presence bit that
    /// only costs a spurious invalidation message later).
    ///
    /// Returns `true` when the notification removed a recorded presence
    /// bit (dropping the last sharer returns the line to `Uncached`);
    /// `false` when it was stale — the line is untracked, not `Shared`,
    /// or `node` was not in the sharer set. Stale notifications are legal
    /// and leave the directory untouched.
    pub fn drop_sharer(&mut self, line: u64, node: NodeId) -> bool {
        let Some(state) = self.entries.get_mut(line) else { return false };
        let LineState::Shared(sharers) = state else { return false };
        if !sharers.contains(node) {
            return false;
        }
        sharers.remove(node);
        if sharers.is_empty() {
            *state = LineState::Uncached;
        }
        true
    }

    /// The owner moved its modified copy from L2 into its RAC (dirty L2
    /// victim parked in the RAC instead of being written back home).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UntrackedLine`] / [`ProtocolError::NotOwner`] as
    /// for [`Directory::writeback`]; a refused park changes nothing.
    pub fn owner_moved_to_rac(&mut self, line: u64, node: NodeId) -> Result<(), ProtocolError> {
        self.set_rac_residence(line, node, true, "owner_moved_to_rac")
    }

    /// The owner pulled its modified copy back from its RAC into its L2.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UntrackedLine`] / [`ProtocolError::NotOwner`] as
    /// for [`Directory::writeback`]; a refused refetch changes nothing.
    pub fn owner_refetched_from_rac(&mut self, line: u64, node: NodeId) -> Result<(), ProtocolError> {
        self.set_rac_residence(line, node, false, "owner_refetched_from_rac")
    }

    fn set_rac_residence(
        &mut self,
        line: u64,
        node: NodeId,
        in_rac: bool,
        op: &'static str,
    ) -> Result<(), ProtocolError> {
        let Some(state) = self.entries.get_mut(line) else {
            return Err(ProtocolError::UntrackedLine { op, line });
        };
        match *state {
            LineState::Modified { owner, .. } if owner == node => {
                *state = LineState::Modified { owner, in_rac };
                Ok(())
            }
            other => Err(ProtocolError::NotOwner { op, line, node, state: other }),
        }
    }

    /// Forces a line into a given directory state, bypassing the normal
    /// transitions. This is a hook for exhaustive checkers and tests
    /// (`csim-check` materializes every abstract state it explores
    /// through it); the simulator itself never calls it.
    ///
    /// Seeding `Uncached` records a tombstone, exactly as a writeback
    /// would, so cold-miss tracking stays meaningful.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidSeed`] when the state is unrepresentable:
    /// a node id at or beyond [`Directory::n_nodes`], or `Shared` with an
    /// empty sharer set (a dead state no legal transition reaches).
    pub fn seed_state(&mut self, line: u64, state: LineState) -> Result<(), ProtocolError> {
        let valid = match state {
            LineState::Uncached => true,
            LineState::Shared(sharers) => {
                !sharers.is_empty() && sharers.iter().all(|n| n < self.n_nodes)
            }
            LineState::Modified { owner, .. } => owner < self.n_nodes,
        };
        if !valid {
            return Err(ProtocolError::InvalidSeed { line, state });
        }
        *self.entries.slot_or_insert(line).0 = state;
        Ok(())
    }

    /// Number of tracked lines (including `Uncached` tombstones); for
    /// reporting and tests.
    pub fn tracked_lines(&self) -> usize {
        self.entries.tracked
    }

    /// Iterates over every tracked line and its state in ascending line
    /// order (includes `Uncached` tombstones). Used by invariant
    /// checkers and the runtime sanitizer's shadow audit; the ordering
    /// guarantee makes "the first violation found" a stable, meaningful
    /// notion rather than an accident of hash layout.
    pub fn iter(&self) -> impl Iterator<Item = (u64, LineState)> + '_ {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir8() -> Directory {
        Directory::new(8, 64, 8192)
    }

    #[test]
    fn uniprocessor_home_is_always_node_zero() {
        let dir = Directory::new(1, 64, 8192);
        for line in [0u64, 1, 1000, 1 << 40] {
            assert_eq!(dir.home(line), 0);
        }
    }

    #[test]
    fn homes_interleave_by_page() {
        let dir = dir8();
        let lines_per_page = 8192 / 64;
        for page in 0..32u64 {
            let line = page * lines_per_page + 5;
            assert_eq!(dir.home(line), (page % 8) as NodeId);
        }
    }

    #[test]
    fn cold_read_fills_from_home_and_shares() {
        let mut dir = dir8();
        let r = dir.read_miss(42, 3);
        assert!(r.cold);
        assert_eq!(r.source, FillSource::Home);
        assert_eq!(r.downgraded_owner, None);
        assert_eq!(dir.state(42), LineState::Shared(NodeSet::single(3)));
    }

    #[test]
    fn second_read_is_not_cold() {
        let mut dir = dir8();
        dir.read_miss(42, 3);
        let r = dir.read_miss(42, 4);
        assert!(!r.cold);
        let expected: NodeSet = [3u8, 4].into_iter().collect();
        assert_eq!(dir.state(42), LineState::Shared(expected));
    }

    #[test]
    fn read_of_modified_line_is_three_hop_and_downgrades() {
        let mut dir = dir8();
        dir.write_miss(42, 1);
        let r = dir.read_miss(42, 2);
        assert_eq!(r.source, FillSource::OwnerCache { owner: 1, in_rac: false });
        assert_eq!(r.downgraded_owner, Some(1));
        let expected: NodeSet = [1u8, 2].into_iter().collect();
        assert_eq!(dir.state(42), LineState::Shared(expected));
        assert_eq!(dir.stats().three_hop_fills, 1);
        assert_eq!(dir.stats().downgrades, 1);
    }

    #[test]
    fn write_to_shared_line_invalidates_other_sharers_only() {
        let mut dir = dir8();
        dir.read_miss(42, 0);
        dir.read_miss(42, 1);
        dir.read_miss(42, 2);
        let w = dir.write_miss(42, 1);
        assert!(w.upgrade, "requester already held a shared copy");
        let expected: NodeSet = [0u8, 2].into_iter().collect();
        assert_eq!(w.invalidate, expected);
        assert_eq!(dir.state(42), LineState::Modified { owner: 1, in_rac: false });
        assert_eq!(dir.stats().invalidating_writes, 1);
        assert_eq!(dir.stats().invalidations_sent, 2);
    }

    #[test]
    fn write_to_modified_line_transfers_ownership() {
        let mut dir = dir8();
        dir.write_miss(42, 1);
        let w = dir.write_miss(42, 2);
        assert_eq!(w.source, FillSource::OwnerCache { owner: 1, in_rac: false });
        assert_eq!(w.previous_owner, Some(1));
        assert!(!w.upgrade);
        assert_eq!(dir.state(42), LineState::Modified { owner: 2, in_rac: false });
    }

    #[test]
    fn writeback_returns_line_to_memory() {
        let mut dir = dir8();
        dir.write_miss(42, 1);
        dir.writeback(42, 1).unwrap();
        assert_eq!(dir.state(42), LineState::Uncached);
        // Next reader fetches clean data from home — a 2-hop, not 3-hop.
        let r = dir.read_miss(42, 2);
        assert_eq!(r.source, FillSource::Home);
        assert!(!r.cold, "writeback must not reset cold tracking");
    }

    #[test]
    fn owner_retention_converts_two_hop_to_three_hop() {
        // The paper's key observation (Section 3): when the owner retains
        // its dirty copy (large cache), other nodes suffer 3-hop misses;
        // when it evicts (small cache -> writeback), they get 2-hop misses.
        let mut retained = dir8();
        retained.write_miss(7, 0);
        let r = retained.read_miss(7, 1);
        assert_eq!(r.source, FillSource::OwnerCache { owner: 0, in_rac: false });

        let mut evicted = dir8();
        evicted.write_miss(7, 0);
        evicted.writeback(7, 0).unwrap(); // small cache evicted the line
        let r = evicted.read_miss(7, 1);
        assert_eq!(r.source, FillSource::Home);
    }

    #[test]
    fn rac_parking_is_tracked() {
        let mut dir = dir8();
        dir.write_miss(42, 1);
        dir.owner_moved_to_rac(42, 1).unwrap();
        assert_eq!(dir.state(42), LineState::Modified { owner: 1, in_rac: true });
        let r = dir.read_miss(42, 2);
        assert_eq!(r.source, FillSource::OwnerCache { owner: 1, in_rac: true });
    }

    #[test]
    fn rac_refetch_clears_flag() {
        let mut dir = dir8();
        dir.write_miss(42, 1);
        dir.owner_moved_to_rac(42, 1).unwrap();
        dir.owner_refetched_from_rac(42, 1).unwrap();
        assert_eq!(dir.state(42), LineState::Modified { owner: 1, in_rac: false });
    }

    #[test]
    fn drop_sharer_prunes_presence_bits() {
        let mut dir = dir8();
        dir.read_miss(42, 0);
        dir.read_miss(42, 1);
        assert!(dir.drop_sharer(42, 0));
        assert_eq!(dir.state(42), LineState::Shared(NodeSet::single(1)));
        assert!(dir.drop_sharer(42, 1));
        assert_eq!(dir.state(42), LineState::Uncached);
    }

    #[test]
    fn drop_of_last_sharer_keeps_cold_tracking() {
        // Regression (model-checker finding follow-up): the last sharer's
        // notification returns the line to Uncached via a tombstone, so
        // a re-read is a plain 2-hop re-fetch, not a cold miss.
        let mut dir = dir8();
        dir.read_miss(42, 3);
        assert!(dir.drop_sharer(42, 3));
        assert_eq!(dir.state(42), LineState::Uncached);
        let r = dir.read_miss(42, 4);
        assert!(!r.cold, "drop of the last sharer must not reset cold tracking");
        assert_eq!(r.source, FillSource::Home);
    }

    #[test]
    fn stale_drop_notifications_are_inert() {
        let mut dir = dir8();
        dir.read_miss(42, 0);
        assert!(!dir.drop_sharer(42, 5), "node 5 never held the line");
        assert!(!dir.drop_sharer(99, 0), "line 99 was never tracked");
        dir.write_miss(7, 2);
        assert!(!dir.drop_sharer(7, 2), "modified lines leave via writeback, not drop");
        assert_eq!(dir.state(7), LineState::Modified { owner: 2, in_rac: false });
        assert_eq!(dir.state(42), LineState::Shared(NodeSet::single(0)));
    }

    #[test]
    fn writeback_from_non_owner_is_refused_and_harmless() {
        // Regression for the model checker's lost-writeback hazard: in
        // release builds the old code silently transitioned the line to
        // Uncached, losing node 1's dirty copy.
        let mut dir = dir8();
        dir.write_miss(42, 1);
        let err = dir.writeback(42, 3).unwrap_err();
        assert_eq!(
            err,
            ProtocolError::NotOwner {
                op: "writeback",
                line: 42,
                node: 3,
                state: LineState::Modified { owner: 1, in_rac: false },
            }
        );
        assert_eq!(
            dir.state(42),
            LineState::Modified { owner: 1, in_rac: false },
            "a refused writeback must not disturb the real owner"
        );
        assert_eq!(dir.stats().writebacks, 0);
    }

    #[test]
    fn writeback_of_shared_line_is_refused() {
        let mut dir = dir8();
        dir.read_miss(42, 0);
        dir.read_miss(42, 1);
        assert!(matches!(dir.writeback(42, 0), Err(ProtocolError::NotOwner { .. })));
        let expected: NodeSet = [0u8, 1].into_iter().collect();
        assert_eq!(dir.state(42), LineState::Shared(expected), "sharers must survive");
    }

    #[test]
    fn rac_transitions_from_non_owner_are_refused() {
        let mut dir = dir8();
        dir.write_miss(42, 1);
        assert!(matches!(dir.owner_moved_to_rac(42, 2), Err(ProtocolError::NotOwner { .. })));
        assert!(matches!(dir.owner_moved_to_rac(99, 1), Err(ProtocolError::UntrackedLine { .. })));
        assert_eq!(dir.state(42), LineState::Modified { owner: 1, in_rac: false });
        dir.owner_moved_to_rac(42, 1).unwrap();
        assert!(matches!(
            dir.owner_refetched_from_rac(42, 0),
            Err(ProtocolError::NotOwner { .. })
        ));
        assert_eq!(dir.state(42), LineState::Modified { owner: 1, in_rac: true });
    }

    #[test]
    fn seed_state_round_trips_and_validates() {
        let mut dir = dir8();
        let shared: NodeSet = [1u8, 4].into_iter().collect();
        dir.seed_state(10, LineState::Shared(shared)).unwrap();
        assert_eq!(dir.state(10), LineState::Shared(shared));
        dir.seed_state(11, LineState::Modified { owner: 7, in_rac: true }).unwrap();
        assert_eq!(dir.state(11), LineState::Modified { owner: 7, in_rac: true });
        dir.seed_state(12, LineState::Uncached).unwrap();
        assert_eq!(dir.tracked_lines(), 3, "Uncached seeds leave a tombstone");
        assert!(!dir.read_miss(12, 0).cold, "a seeded tombstone is not a cold line");

        // Dead or unrepresentable states are refused.
        let err = dir.seed_state(13, LineState::Shared(NodeSet::empty())).unwrap_err();
        assert!(matches!(err, ProtocolError::InvalidSeed { line: 13, .. }));
        assert!(dir.seed_state(13, LineState::Modified { owner: 8, in_rac: false }).is_err());
        assert!(dir
            .seed_state(13, LineState::Shared(NodeSet::single(9)))
            .is_err());
    }

    #[test]
    fn protocol_errors_display_specifics() {
        let e = ProtocolError::NotOwner {
            op: "writeback",
            line: 0x40,
            node: 3,
            state: LineState::Uncached,
        };
        let s = e.to_string();
        assert!(s.contains("writeback") && s.contains("0x40") && s.contains("node 3"));
        let e = ProtocolError::UntrackedLine { op: "owner_moved_to_rac", line: 7 };
        assert!(e.to_string().contains("untracked"));
    }

    #[test]
    fn stats_count_protocol_events() {
        let mut dir = dir8();
        dir.read_miss(1, 0);
        dir.write_miss(1, 1); // invalidates node 0
        dir.read_miss(1, 2); // 3-hop, downgrade of node 1
        let s = *dir.stats();
        assert_eq!(s.read_misses, 2);
        assert_eq!(s.write_misses, 1);
        assert_eq!(s.invalidating_writes, 1);
        assert_eq!(s.invalidations_sent, 1);
        assert_eq!(s.three_hop_fills, 1);
        assert_eq!(s.downgrades, 1);
        dir.reset_stats();
        assert_eq!(dir.stats().read_misses, 0);
    }

    #[test]
    fn writeback_of_untracked_line_is_a_typed_error() {
        let mut dir = dir8();
        assert_eq!(
            dir.writeback(42, 0),
            Err(ProtocolError::UntrackedLine { op: "writeback", line: 42 })
        );
    }

    #[test]
    fn home_node_locality_is_one_in_n() {
        // Over many pages, each node is home to 1/n of them.
        let dir = dir8();
        let lines_per_page = 128u64;
        let mut local = 0;
        let total = 8000u64;
        for page in 0..total {
            if dir.home(page * lines_per_page) == 3 {
                local += 1;
            }
        }
        assert_eq!(local, total / 8);
    }
}
