//! The simulated physical address space.
//!
//! Every data structure of the workload (code segments, SGA regions,
//! per-process private memory, database blocks) is a *region* addressed by
//! logical line index. Regions are laid out page-by-page at pseudo-random
//! (but deterministic) physical addresses, the way a long-running OS
//! scatters physical pages: consecutive lines within an 8 KB page stay
//! together (preserving spatial locality), while pages land at effectively
//! random cache indices and home nodes. This scatter is what produces
//! realistic conflict-miss statistics in direct-mapped caches and the
//! paper's "1-in-8 chance of local data" under page-interleaved homes.

use csim_trace::Addr;

/// Bytes per cache line.
pub const LINE_BYTES: u64 = 64;
/// Bytes per page (Alpha 8 KB pages).
pub const PAGE_BYTES: u64 = 8192;
/// Lines per page.
pub const LINES_PER_PAGE: u64 = PAGE_BYTES / LINE_BYTES;
/// Width of the simulated physical address space in bits.
pub const ADDR_BITS: u32 = 46;

/// A logical memory region of the workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Region {
    /// Database-engine text (shared, read-only, executed by all servers).
    DbCode,
    /// Kernel text (shared, read-only).
    KernelCode,
    /// Hot read-write SGA metadata: latches, buffer headers, list heads.
    MetaHot,
    /// Hot read-mostly SGA: dictionary cache, descriptors.
    SharedRead,
    /// The redo log buffer ring.
    LogRing,
    /// Account table blocks (the 400+ MB cold stream).
    AccountBlocks,
    /// Teller table blocks.
    TellerBlocks,
    /// Branch table blocks (40 extremely hot, write-shared lines).
    BranchBlocks,
    /// History table blocks being filled by one node.
    HistoryBlocks {
        /// The inserting node.
        node: u8,
    },
    /// Warm private work area of one server process (sort areas, cursor
    /// caches).
    WorkArea {
        /// Owning node.
        node: u8,
        /// Server index within the node.
        server: u16,
    },
    /// Private PGA/stack of one server process.
    Pga {
        /// Owning node.
        node: u8,
        /// Server index within the node.
        server: u16,
    },
    /// Kernel stack of one server process.
    KernelStack {
        /// Owning node.
        node: u8,
        /// Server index within the node.
        server: u16,
    },
    /// Per-node kernel data: run queues, pipe buffers.
    KernelNode {
        /// Owning node.
        node: u8,
    },
    /// Globally shared kernel data: file table, global locks.
    KernelShared,
    /// Disk I/O staging buffers of one node (cold, streaming).
    IoBuffer {
        /// Owning node.
        node: u8,
    },
}

impl Region {
    /// A stable 64-bit tag identifying the region in the scatter hash.
    fn tag(self) -> u64 {
        match self {
            Region::DbCode => 0x01,
            Region::KernelCode => 0x02,
            Region::MetaHot => 0x03,
            Region::SharedRead => 0x04,
            Region::LogRing => 0x05,
            Region::AccountBlocks => 0x06,
            Region::TellerBlocks => 0x07,
            Region::BranchBlocks => 0x08,
            Region::HistoryBlocks { node } => 0x100 | u64::from(node),
            Region::Pga { node, server } => {
                0x1_0000 | u64::from(node) << 8 | u64::from(server) << 20
            }
            Region::WorkArea { node, server } => {
                0x4_0000 | u64::from(node) << 8 | u64::from(server) << 20
            }
            Region::KernelStack { node, server } => {
                0x2_0000 | u64::from(node) << 8 | u64::from(server) << 20
            }
            Region::KernelNode { node } => 0x200 | u64::from(node),
            Region::KernelShared => 0x09,
            Region::IoBuffer { node } => 0x300 | u64::from(node),
        }
    }
}

/// SplitMix64 finalizer — a strong deterministic mixing function.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic region→physical address translation.
///
/// # Example
///
/// ```
/// use csim_workload::{AddressMap, Region};
/// let map = AddressMap::new(42);
/// let a = map.line_addr(Region::MetaHot, 0);
/// let b = map.line_addr(Region::MetaHot, 1);
/// // Lines 0 and 1 share a page: 64 bytes apart.
/// assert_eq!(b - a, 64);
/// // Same inputs always give the same address.
/// assert_eq!(a, AddressMap::new(42).line_addr(Region::MetaHot, 0));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct AddressMap {
    seed: u64,
}

impl AddressMap {
    /// Creates a map for the given workload seed.
    pub fn new(seed: u64) -> Self {
        AddressMap { seed }
    }

    /// Precomputes the scatter base for one region. The inner
    /// `mix(region.tag())` of the page hash depends only on the region, so
    /// hot callers (the workload's background-reference generator) hoist it
    /// out of the per-reference path; `RegionHandle::line_addr` then
    /// produces addresses identical to [`AddressMap::line_addr`] at half
    /// the mixing cost.
    #[inline]
    pub fn handle(&self, region: Region) -> RegionHandle {
        RegionHandle { base: self.seed ^ mix(region.tag()) }
    }

    /// Physical byte address of the start of a page of a region.
    #[inline]
    pub fn page_base(&self, region: Region, page_idx: u64) -> Addr {
        self.handle(region).page_base(page_idx)
    }

    /// Physical byte address of the start of the `line_idx`-th line of a
    /// region.
    #[inline]
    pub fn line_addr(&self, region: Region, line_idx: u64) -> Addr {
        self.handle(region).line_addr(line_idx)
    }

    /// Physical address of the `byte_idx`-th byte of a region.
    #[inline]
    pub fn byte_addr(&self, region: Region, byte_idx: u64) -> Addr {
        self.line_addr(region, byte_idx / LINE_BYTES) + byte_idx % LINE_BYTES
    }
}

/// A region's precomputed scatter base (`seed ^ mix(tag)`), produced by
/// [`AddressMap::handle`]. Translating through a handle is bit-identical
/// to translating through the map with the region value.
#[derive(Clone, Copy, Debug)]
pub struct RegionHandle {
    base: u64,
}

impl RegionHandle {
    /// Physical byte address of the start of a page of this region.
    #[inline]
    pub fn page_base(&self, page_idx: u64) -> Addr {
        let h = mix(self.base ^ page_idx.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        h & ((1 << ADDR_BITS) - 1) & !(PAGE_BYTES - 1)
    }

    /// Physical byte address of the start of the `line_idx`-th line of
    /// this region.
    #[inline]
    pub fn line_addr(&self, line_idx: u64) -> Addr {
        let page = line_idx / LINES_PER_PAGE;
        let line_in_page = line_idx % LINES_PER_PAGE;
        self.page_base(page) + line_in_page * LINE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_are_aligned_and_in_range() {
        let map = AddressMap::new(7);
        for p in 0..1000 {
            let base = map.page_base(Region::DbCode, p);
            assert_eq!(base % PAGE_BYTES, 0);
            assert!(base < (1 << ADDR_BITS));
        }
    }

    #[test]
    fn lines_within_a_page_are_contiguous() {
        let map = AddressMap::new(7);
        let base = map.page_base(Region::SharedRead, 3);
        for l in 0..LINES_PER_PAGE {
            assert_eq!(map.line_addr(Region::SharedRead, 3 * LINES_PER_PAGE + l), base + l * 64);
        }
    }

    #[test]
    fn distinct_regions_get_distinct_pages() {
        let map = AddressMap::new(7);
        let a = map.page_base(Region::MetaHot, 0);
        let b = map.page_base(Region::LogRing, 0);
        let c = map.page_base(Region::Pga { node: 0, server: 0 }, 0);
        let d = map.page_base(Region::Pga { node: 0, server: 1 }, 0);
        let e = map.page_base(Region::Pga { node: 1, server: 0 }, 0);
        let all = [a, b, c, d, e];
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                assert_ne!(all[i], all[j], "regions {i} and {j} collided");
            }
        }
    }

    #[test]
    fn different_seeds_relocate_regions() {
        let a = AddressMap::new(1).page_base(Region::MetaHot, 0);
        let b = AddressMap::new(2).page_base(Region::MetaHot, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn handle_matches_direct_translation() {
        let map = AddressMap::new(123);
        for region in [
            Region::MetaHot,
            Region::LogRing,
            Region::SharedRead,
            Region::Pga { node: 3, server: 7 },
            Region::KernelStack { node: 1, server: 2 },
            Region::HistoryBlocks { node: 5 },
        ] {
            let h = map.handle(region);
            for line in [0u64, 1, 127, 128, 5000, 1 << 30] {
                assert_eq!(h.line_addr(line), map.line_addr(region, line), "{region:?}/{line}");
            }
        }
    }

    #[test]
    fn byte_addr_tracks_line_and_offset() {
        let map = AddressMap::new(9);
        let b = map.byte_addr(Region::DbCode, 200);
        let line = map.line_addr(Region::DbCode, 3);
        assert_eq!(b, line + 8);
    }

    #[test]
    fn page_scatter_spreads_cache_indices() {
        // Pages of one region must not cluster in a direct-mapped cache:
        // check that 512 consecutive pages map to mostly distinct 8 MB
        // cache "page slots" (8 MB / 8 KB = 1024 slots).
        let map = AddressMap::new(11);
        let mut slots: Vec<u64> =
            (0..512).map(|p| (map.page_base(Region::DbCode, p) / PAGE_BYTES) % 1024).collect();
        slots.sort_unstable();
        slots.dedup();
        // Balls-in-bins: expect ~1024 * (1 - (1 - 1/1024)^512) ≈ 403.
        assert!(slots.len() > 330, "only {} distinct slots — scatter too clumpy", slots.len());
    }
}
