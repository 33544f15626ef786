//! Memory-reference vocabulary for the chip-level-integration simulator.
//!
//! Every other crate in the workspace speaks in terms of the types defined
//! here: a [`MemRef`] is one dynamic memory access (an instruction fetch, a
//! load or a store) issued by one processor, tagged with the execution mode
//! (user or kernel) it was issued in. A [`ReferenceStream`] is an unbounded
//! producer of such references — the synthetic OLTP workload in
//! `csim-workload` is one implementation, and tests frequently use the
//! [`SliceStream`] and [`FnStream`] helpers instead.
//!
//! # Example
//!
//! ```
//! use csim_trace::{Access, ExecMode, MemRef, ReferenceStream, SliceStream};
//!
//! let refs = [
//!     MemRef::ifetch(0x1000, ExecMode::User),
//!     MemRef::load(0x8000, ExecMode::User),
//!     MemRef::store(0x8040, ExecMode::Kernel),
//! ];
//! let mut stream = SliceStream::cycle(&refs);
//! let r = stream.next_ref();
//! assert_eq!(r.access, Access::InstrFetch);
//! assert_eq!(r.line_addr(64), 0x1000 / 64);
//! ```

#![forbid(unsafe_code)]

mod addr;
pub mod hostprof;
mod mem_ref;
pub mod pipeline;
mod rng;
mod stream;

pub use addr::{line_addr, page_addr, Addr, DEFAULT_LINE_SIZE, DEFAULT_PAGE_SIZE};
pub use mem_ref::{
    Access, ExecMode, MemRef, PACKED_ACCESS_SHIFT, PACKED_ADDR_MASK, PACKED_MODE_BIT,
};
pub use rng::SimRng;
pub use stream::{
    BurstBuffer, ChunkSink, FnStream, InterleavedStream, ReferenceStream, SliceStream,
};
