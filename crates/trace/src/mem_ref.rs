//! The dynamic memory reference type.

use crate::addr::{line_addr, page_addr, Addr};

/// The kind of a dynamic memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Access {
    /// An instruction fetch.
    InstrFetch,
    /// A data read.
    Load,
    /// A data write.
    Store,
}

impl Access {
    /// Returns `true` for [`Access::Store`].
    ///
    /// ```
    /// use csim_trace::Access;
    /// assert!(Access::Store.is_write());
    /// assert!(!Access::Load.is_write());
    /// ```
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, Access::Store)
    }

    /// Returns `true` for [`Access::InstrFetch`].
    ///
    /// ```
    /// use csim_trace::Access;
    /// assert!(Access::InstrFetch.is_instruction());
    /// assert!(!Access::Store.is_instruction());
    /// ```
    #[inline]
    pub fn is_instruction(self) -> bool {
        matches!(self, Access::InstrFetch)
    }
}

/// The privilege mode a reference was issued in.
///
/// The paper reports that roughly 25% of OLTP execution time is spent in the
/// kernel; the workload generator tags every reference so the simulator can
/// report the user/kernel split.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExecMode {
    /// User-level (database engine, clients).
    User,
    /// Kernel-level (pipes, scheduler, I/O, PALcode).
    Kernel,
}

/// One dynamic memory reference issued by a processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Physical byte address.
    pub addr: Addr,
    /// Fetch / load / store.
    pub access: Access,
    /// User or kernel mode.
    pub mode: ExecMode,
}

/// Low bits of a packed reference word hold the byte address (physical
/// addresses are at most 46 bits plus an in-page offset).
pub const PACKED_ADDR_MASK: u64 = (1 << 48) - 1;
/// The access kind occupies the two bits below the top of a packed word
/// ([`Access::InstrFetch`] = 0, [`Access::Load`] = 1, [`Access::Store`] = 2).
pub const PACKED_ACCESS_SHIFT: u32 = 61;
/// The privilege mode is the top bit of a packed word (set = kernel).
pub const PACKED_MODE_BIT: u64 = 1 << 63;

impl MemRef {
    /// Creates a reference with the given fields.
    ///
    /// ```
    /// use csim_trace::{Access, ExecMode, MemRef};
    /// let r = MemRef::new(0x40, Access::Load, ExecMode::User);
    /// assert_eq!(r.addr, 0x40);
    /// ```
    #[inline]
    pub fn new(addr: Addr, access: Access, mode: ExecMode) -> Self {
        MemRef { addr, access, mode }
    }

    /// Creates an instruction-fetch reference.
    #[inline]
    pub fn ifetch(addr: Addr, mode: ExecMode) -> Self {
        Self::new(addr, Access::InstrFetch, mode)
    }

    /// Creates a load reference.
    #[inline]
    pub fn load(addr: Addr, mode: ExecMode) -> Self {
        Self::new(addr, Access::Load, mode)
    }

    /// Creates a store reference.
    #[inline]
    pub fn store(addr: Addr, mode: ExecMode) -> Self {
        Self::new(addr, Access::Store, mode)
    }

    /// The cache-line index of this reference for the given line size.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is zero or not a power of two.
    #[inline]
    pub fn line_addr(&self, line_size: u64) -> Addr {
        line_addr(self.addr, line_size)
    }

    /// The page index of this reference for the given page size.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero or not a power of two.
    #[inline]
    pub fn page_addr(&self, page_size: u64) -> Addr {
        page_addr(self.addr, page_size)
    }

    /// Packs the reference into one `u64` word — the wire format of
    /// [`crate::ReferenceStream::next_burst`]. One word per reference
    /// instead of a three-field struct halves the burst buffer's share of
    /// memory traffic on the simulator's hottest path.
    #[inline]
    pub fn pack(self) -> u64 {
        debug_assert!(
            self.addr <= PACKED_ADDR_MASK,
            "address {:#x} exceeds the packable range",
            self.addr
        );
        self.addr
            | (self.access as u64) << PACKED_ACCESS_SHIFT
            | if self.mode == ExecMode::Kernel { PACKED_MODE_BIT } else { 0 }
    }

    /// Unpacks a word produced by [`MemRef::pack`].
    #[inline]
    pub fn unpack(word: u64) -> Self {
        let access = match word >> PACKED_ACCESS_SHIFT & 0x3 {
            0 => Access::InstrFetch,
            1 => Access::Load,
            _ => Access::Store,
        };
        let mode = if word & PACKED_MODE_BIT != 0 { ExecMode::Kernel } else { ExecMode::User };
        MemRef { addr: word & PACKED_ADDR_MASK, access, mode }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        assert_eq!(MemRef::ifetch(0, ExecMode::User).access, Access::InstrFetch);
        assert_eq!(MemRef::load(0, ExecMode::User).access, Access::Load);
        assert_eq!(MemRef::store(0, ExecMode::Kernel).access, Access::Store);
    }

    #[test]
    fn kind_predicates() {
        assert!(Access::Store.is_write());
        assert!(!Access::Load.is_write());
        assert!(!Access::InstrFetch.is_write());
        assert!(Access::InstrFetch.is_instruction());
        assert!(!Access::Load.is_instruction());
    }

    #[test]
    fn line_and_page_helpers_delegate() {
        let r = MemRef::load(0x2345, ExecMode::User);
        assert_eq!(r.line_addr(64), 0x2345 / 64);
        assert_eq!(r.page_addr(8192), 0x2345 / 8192);
    }

    #[test]
    fn pack_round_trips_every_field_combination() {
        for &access in &[Access::InstrFetch, Access::Load, Access::Store] {
            for &mode in &[ExecMode::User, ExecMode::Kernel] {
                for &addr in &[0u64, 0x40, 0xdead_beef, PACKED_ADDR_MASK] {
                    let r = MemRef::new(addr, access, mode);
                    assert_eq!(MemRef::unpack(r.pack()), r);
                }
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let r = MemRef::store(0xdead_beef, ExecMode::Kernel);
        let json = serde_json_like(&r);
        assert!(json.contains("Store"));
        assert!(json.contains("Kernel"));
    }

    // Minimal serialization smoke check without pulling serde_json in: use
    // the Debug representation, which mirrors the field values serde sees.
    fn serde_json_like(r: &MemRef) -> String {
        format!("{r:?}")
    }
}
