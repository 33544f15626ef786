//! Reference-stream abstractions.
//!
//! A [`ReferenceStream`] produces an unbounded sequence of [`MemRef`]s for
//! one processor. The simulator gathers each stream's references a burst
//! at a time ([`ReferenceStream::next_burst`]) and dispatches them round
//! by round, one reference per stream per round, so multiprocessor runs
//! interleave the streams of all cores exactly as pulling one reference
//! at a time would.

use crate::mem_ref::MemRef;

/// An unbounded producer of memory references for one processor.
///
/// Implementations must be able to produce references forever; the
/// simulation decides how many to consume. Streams should be deterministic
/// for a given construction (seed) so experiments are reproducible.
pub trait ReferenceStream {
    /// Produces the next reference.
    fn next_ref(&mut self) -> MemRef;

    /// Fills `out` with the next references in packed form
    /// ([`MemRef::pack`]) and returns how many were written (at least 1,
    /// at most `out.len()`).
    ///
    /// Contract: the sequence of references delivered through any mix of
    /// `next_burst` and [`ReferenceStream::next_ref`] calls must be
    /// identical to the sequence `next_ref` alone would deliver — a burst
    /// is a view of the same stream, not a different one. Implementations
    /// with internal buffers must only generate new references when the
    /// buffer is empty, so generation happens at the same stream positions
    /// either way and any side effects (RNG draws, shared state) stay
    /// bit-identical.
    ///
    /// The default produces one reference per call, which trivially
    /// satisfies the contract; buffered generators override this to hand
    /// out whole slices.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `out` is empty.
    // analyze: hot
    #[inline]
    fn next_burst(&mut self, out: &mut [u64]) -> usize {
        // analyze: total — the trait contract requires a non-empty out buffer (documented panic); the engine's dispatch loop passes columns of 1..=BURST_COLS words
        out[0] = self.next_ref().pack();
        1
    }
}

impl<S: ReferenceStream + ?Sized> ReferenceStream for Box<S> {
    fn next_ref(&mut self) -> MemRef {
        (**self).next_ref()
    }

    fn next_burst(&mut self, out: &mut [u64]) -> usize {
        (**self).next_burst(out)
    }
}

impl<S: ReferenceStream + ?Sized> ReferenceStream for &mut S {
    fn next_ref(&mut self) -> MemRef {
        (**self).next_ref()
    }

    fn next_burst(&mut self, out: &mut [u64]) -> usize {
        (**self).next_burst(out)
    }
}

/// A stream that cycles over a fixed slice of references.
///
/// Useful in tests and microbenchmarks where a known reference pattern is
/// needed.
///
/// # Example
///
/// ```
/// use csim_trace::{ExecMode, MemRef, ReferenceStream, SliceStream};
/// let refs = [MemRef::load(0, ExecMode::User), MemRef::load(64, ExecMode::User)];
/// let mut s = SliceStream::cycle(&refs);
/// assert_eq!(s.next_ref().addr, 0);
/// assert_eq!(s.next_ref().addr, 64);
/// assert_eq!(s.next_ref().addr, 0); // wraps around
/// ```
#[derive(Clone, Debug)]
pub struct SliceStream {
    refs: Vec<MemRef>,
    pos: usize,
}

impl SliceStream {
    /// Creates a stream that repeats `refs` forever.
    ///
    /// # Panics
    ///
    /// Panics if `refs` is empty — an empty pattern cannot produce an
    /// unbounded stream.
    pub fn cycle(refs: &[MemRef]) -> Self {
        assert!(!refs.is_empty(), "SliceStream requires at least one reference");
        SliceStream { refs: refs.to_vec(), pos: 0 }
    }
}

impl ReferenceStream for SliceStream {
    fn next_ref(&mut self) -> MemRef {
        // analyze: total — pos wraps modulo refs.len() after every draw and cycle() rejects an empty slice
        let r = self.refs[self.pos];
        self.pos = (self.pos + 1) % self.refs.len();
        r
    }
}

/// A stream backed by a closure.
///
/// # Example
///
/// ```
/// use csim_trace::{ExecMode, FnStream, MemRef, ReferenceStream};
/// let mut n = 0u64;
/// let mut s = FnStream::new(move || {
///     n += 64;
///     MemRef::load(n, ExecMode::User)
/// });
/// assert_eq!(s.next_ref().addr, 64);
/// assert_eq!(s.next_ref().addr, 128);
/// ```
pub struct FnStream<F> {
    f: F,
}

impl<F: FnMut() -> MemRef> FnStream<F> {
    /// Wraps a closure as a stream.
    pub fn new(f: F) -> Self {
        FnStream { f }
    }
}

impl<F: FnMut() -> MemRef> ReferenceStream for FnStream<F> {
    fn next_ref(&mut self) -> MemRef {
        (self.f)()
    }
}

impl<F> std::fmt::Debug for FnStream<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnStream").finish_non_exhaustive()
    }
}

/// Round-robin interleaving of several streams into one.
///
/// Used to model several processes time-sharing one processor at a fixed
/// quantum (in references).
///
/// # Example
///
/// ```
/// use csim_trace::{ExecMode, InterleavedStream, MemRef, ReferenceStream, SliceStream};
/// let a = SliceStream::cycle(&[MemRef::load(0, ExecMode::User)]);
/// let b = SliceStream::cycle(&[MemRef::load(64, ExecMode::User)]);
/// let mut s = InterleavedStream::new(vec![a, b], 2);
/// let addrs: Vec<u64> = (0..6).map(|_| s.next_ref().addr).collect();
/// assert_eq!(addrs, [0, 0, 64, 64, 0, 0]);
/// ```
#[derive(Debug)]
pub struct InterleavedStream<S> {
    streams: Vec<S>,
    quantum: usize,
    current: usize,
    issued_in_quantum: usize,
}

impl<S: ReferenceStream> InterleavedStream<S> {
    /// Creates an interleaved stream switching between `streams` every
    /// `quantum` references.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty or `quantum` is zero.
    pub fn new(streams: Vec<S>, quantum: usize) -> Self {
        assert!(!streams.is_empty(), "InterleavedStream requires at least one stream");
        assert!(quantum > 0, "quantum must be nonzero");
        InterleavedStream { streams, quantum, current: 0, issued_in_quantum: 0 }
    }
}

impl<S: ReferenceStream> ReferenceStream for InterleavedStream<S> {
    fn next_ref(&mut self) -> MemRef {
        if self.issued_in_quantum == self.quantum {
            self.issued_in_quantum = 0;
            self.current = (self.current + 1) % self.streams.len();
        }
        self.issued_in_quantum += 1;
        // analyze: total — current wraps modulo streams.len() and new() rejects an empty stream set
        self.streams[self.current].next_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem_ref::ExecMode;

    fn l(addr: u64) -> MemRef {
        MemRef::load(addr, ExecMode::User)
    }

    #[test]
    fn slice_stream_cycles() {
        let mut s = SliceStream::cycle(&[l(1), l(2), l(3)]);
        let got: Vec<u64> = (0..7).map(|_| s.next_ref().addr).collect();
        assert_eq!(got, [1, 2, 3, 1, 2, 3, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one reference")]
    fn empty_slice_stream_panics() {
        let _ = SliceStream::cycle(&[]);
    }

    #[test]
    fn fn_stream_invokes_closure() {
        let mut counter = 0u64;
        let mut s = FnStream::new(move || {
            counter += 1;
            l(counter)
        });
        assert_eq!(s.next_ref().addr, 1);
        assert_eq!(s.next_ref().addr, 2);
    }

    #[test]
    fn interleave_respects_quantum() {
        let a = SliceStream::cycle(&[l(10)]);
        let b = SliceStream::cycle(&[l(20)]);
        let c = SliceStream::cycle(&[l(30)]);
        let mut s = InterleavedStream::new(vec![a, b, c], 3);
        let got: Vec<u64> = (0..9).map(|_| s.next_ref().addr).collect();
        assert_eq!(got, [10, 10, 10, 20, 20, 20, 30, 30, 30]);
    }

    #[test]
    fn interleave_wraps_to_first_stream() {
        let a = SliceStream::cycle(&[l(10)]);
        let b = SliceStream::cycle(&[l(20)]);
        let mut s = InterleavedStream::new(vec![a, b], 1);
        let got: Vec<u64> = (0..4).map(|_| s.next_ref().addr).collect();
        assert_eq!(got, [10, 20, 10, 20]);
    }

    #[test]
    fn default_next_burst_matches_next_ref() {
        let mut a = SliceStream::cycle(&[l(1), l(2), l(3)]);
        let mut b = a.clone();
        let mut out = [0u64; 4];
        for _ in 0..7 {
            let n = a.next_burst(&mut out);
            assert_eq!(n, 1);
            assert_eq!(MemRef::unpack(out[0]), b.next_ref());
        }
    }

    #[test]
    fn boxed_stream_is_a_stream() {
        let mut s: Box<dyn ReferenceStream> = Box::new(SliceStream::cycle(&[l(5)]));
        assert_eq!(s.next_ref().addr, 5);
    }

    #[test]
    fn mut_ref_stream_is_a_stream() {
        let mut inner = SliceStream::cycle(&[l(7)]);
        let mut s = &mut inner;
        // Dispatch explicitly through the `&mut S` blanket impl.
        assert_eq!(ReferenceStream::next_ref(&mut s).addr, 7);
    }
}
