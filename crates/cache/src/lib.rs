//! Set-associative cache models for the chip-level-integration simulator.
//!
//! The same [`Cache`] type models every cache in the simulated machine: the
//! split 64 KB 2-way L1s, the second-level cache in all its off-chip and
//! on-chip variants (1-8 MB, 1- to 8-way), and the 8 MB 8-way remote access
//! cache of the paper's Section 6.
//!
//! The model operates on *line addresses* (byte address divided by the line
//! size — see [`csim_trace::line_addr`](https://docs.rs/csim-trace)), uses
//! true LRU replacement within each set, write-back / write-allocate
//! policy, and supports the operations the coherence layer needs:
//! invalidation, downgrade (M→S), and dirty-victim extraction.
//!
//! # Example
//!
//! ```
//! use csim_cache::{Cache, Outcome};
//! use csim_config::CacheGeometry;
//!
//! let mut l2 = Cache::new(CacheGeometry::new(2 << 20, 8, 64)?);
//! assert_eq!(l2.access(0x40, false), Outcome::Miss);
//! l2.insert(0x40, false);
//! assert_eq!(l2.access(0x40, true), Outcome::Hit); // write hit; line now dirty
//! assert!(l2.is_dirty(0x40));
//! # Ok::<(), csim_config::ConfigError>(())
//! ```

#![forbid(unsafe_code)]

mod model;
mod stats;

pub use model::{Cache, Evicted, Outcome};
pub use stats::CacheStats;
