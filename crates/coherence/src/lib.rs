//! Directory-based cache-coherence substrate for the chip-level-integration
//! simulator.
//!
//! The simulated multiprocessor is the paper's 8-node CC-NUMA machine:
//! distributed memory, a full-map invalidation directory, and a
//! sequentially consistent memory system. This crate provides:
//!
//! * [`Directory`] — the protocol state machine. For every cache line it
//!   tracks `Uncached` / `Shared(sharers)` / `Modified(owner)` state, plus
//!   whether a modified line currently lives in the owner's L2 or has been
//!   parked in the owner's remote access cache (RAC). The states live in
//!   a block table: a small hash index from block number (32 aligned
//!   lines) to one slab of 32 slots in a flat vector, so the storage
//!   grows with the few thousand blocks a run touches rather than with
//!   one hash bucket per line, and [`Directory::iter`] walks the lines
//!   in ascending order by sorting only the slabs. A slot is 2 bytes on
//!   machines of up to 14 nodes and 9 bytes on larger ones.
//! * [`NodeSet`] — a bitmap of node ids (used for sharer sets and
//!   invalidation targets).
//! * Home-node assignment by page interleaving ([`Directory::home`]),
//!   which gives the paper's "1-in-8 chance of finding data locally".
//!
//! The directory is a pure state machine: it *describes* what must happen
//! (which owner must downgrade, which sharers must be invalidated, where
//! the fill data comes from) and the simulator in `csim-core` applies those
//! actions to the actual cache models.
//!
//! # Example
//!
//! ```
//! use csim_coherence::{Directory, FillSource};
//!
//! let mut dir = Directory::new(8, 64, 8192);
//! // Node 3 writes line 100; nobody had it: fill comes from home memory.
//! let w = dir.write_miss(100, 3);
//! assert!(w.cold);
//! assert_eq!(w.source, FillSource::Home);
//! // Node 5 now reads the same line: it is dirty in node 3's cache, a
//! // 3-hop miss; node 3 must downgrade to shared.
//! let r = dir.read_miss(100, 5);
//! assert_eq!(r.source, FillSource::OwnerCache { owner: 3, in_rac: false });
//! assert_eq!(r.downgraded_owner, Some(3));
//! ```

#![forbid(unsafe_code)]

mod directory;
mod node_set;

pub use directory::{
    Directory, DirectoryStats, FillSource, LineState, ProtocolError, ReadOutcome, WriteOutcome,
};
pub use node_set::{NodeId, NodeSet};
