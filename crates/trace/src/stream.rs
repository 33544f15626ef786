//! Reference-stream abstractions.
//!
//! A [`ReferenceStream`] produces an unbounded sequence of [`MemRef`]s for
//! one processor. The simulator gathers each stream's references a burst
//! at a time ([`ReferenceStream::next_burst`]) and dispatches them round
//! by round, one reference per stream per round, so multiprocessor runs
//! interleave the streams of all cores exactly as pulling one reference
//! at a time would. On the workload pipeline's producer thread a stream
//! instead publishes its words a chunk at a time to a [`ChunkSink`]
//! ([`ReferenceStream::publish_chunks`]); a stream that generates whole
//! bursts keeps them in a [`BurstBuffer`], which serves both ways.

use crate::mem_ref::MemRef;
use crate::pipeline::CHUNK_WORDS;

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
    /// Implementations may panic when `out` is empty (the default
    /// writes nothing and returns 0).
    #[inline]
    fn next_burst(&mut self, out: &mut [u64]) -> usize {
        let Some(first) = out.first_mut() else { return 0 };
        *first = self.next_ref().pack();
        1
    }

    /// Generates the stream's next words, publishes them to `sink` a
    /// chunk at a time and returns how many it generated.
    ///
    /// A stream that holds chunks `sink` refused on an earlier call
    /// offers them again, in order, and generates nothing (it returns
    /// 0). Otherwise it generates as one [`ReferenceStream::next_burst`]
    /// call on an empty buffer would, and publishes every word it
    /// generated, in chunks that each lie within one burst.
    ///
    /// The default publishes one `next_burst` pull of at most
    /// [`CHUNK_WORDS`] words as one chunk, waiting for room. A stream
    /// that generates whole bursts overrides it to publish each chunk
    /// of the burst as soon as it is generated ([`BurstBuffer`]).
    fn publish_chunks(&mut self, sink: &mut dyn ChunkSink) -> usize {
        let mut chunk = [0; CHUNK_WORDS];
        let n = self.next_burst(&mut chunk);
        let tag = sink.tag();
        sink.publish(chunk.get(..n).unwrap_or(&chunk), tag);
        n
    }
}

impl<S: ReferenceStream + ?Sized> ReferenceStream for Box<S> {
    fn next_ref(&mut self) -> MemRef {
        (**self).next_ref()
    }

    fn next_burst(&mut self, out: &mut [u64]) -> usize {
        (**self).next_burst(out)
    }

    fn publish_chunks(&mut self, sink: &mut dyn ChunkSink) -> usize {
        (**self).publish_chunks(sink)
    }
}

impl<S: ReferenceStream + ?Sized> ReferenceStream for &mut S {
    fn next_ref(&mut self) -> MemRef {
        (**self).next_ref()
    }

    fn next_burst(&mut self, out: &mut [u64]) -> usize {
        (**self).next_burst(out)
    }

    fn publish_chunks(&mut self, sink: &mut dyn ChunkSink) -> usize {
        (**self).publish_chunks(sink)
    }
}

/// Where a stream publishes its words a chunk at a time: one stream's
/// ring of the workload pipeline ([`crate::pipeline`]).
///
/// A chunk is 1 to [`CHUNK_WORDS`] words of one burst and a tag, the
/// pipeline's count as of that burst, which the consumer reads back.
pub trait ChunkSink {
    /// The tag for the chunks of the burst being generated. A stream may
    /// read it at any point of the burst's generation, so what it counts
    /// must change only before the burst's first word.
    fn tag(&mut self) -> u64;

    /// Publishes `words` as one chunk tagged `tag`, waiting for room.
    fn publish(&mut self, words: &[u64], tag: u64);

    /// Publishes `words` as one chunk tagged `tag` if there is room, and
    /// returns whether it did. A stream alone in its pipeline waits for
    /// room instead, since no other stream's consumer can starve
    /// meanwhile. A stream whose chunk is refused holds it, and every
    /// later chunk, until its next [`ReferenceStream::publish_chunks`]
    /// call.
    fn offer(&mut self, words: &[u64], tag: u64) -> bool;
}

/// The current burst of a stream that generates a burst at a time: its
/// words are written once, then handed out by `next_burst` ([`take`])
/// or published to a [`ChunkSink`] a chunk at a time while the burst is
/// generated.
///
/// Published chunks start at the burst's first word and every
/// [`CHUNK_WORDS`] words after it, the pulls `next_burst` hands out
/// from a whole burst. While the sink takes every chunk, the buffer
/// holds no more than one chunk and the words generated since its last
/// check, so only those pages of it ever become resident.
///
/// [`take`]: BurstBuffer::take
#[derive(Debug)]
pub struct BurstBuffer {
    /// The burst's words, less the chunks already published and
    /// dropped from the front. Allocated once, with room for the longest burst, and grown only
    /// by [`BurstBuffer::push`], which never reallocates.
    words: Vec<u64>,
    /// Next word of `words` to hand out or publish.
    head: usize,
    /// `words.len()` at which the chunk from `head` is complete and due
    /// (`head` is then 0), or `usize::MAX` once the sink has refused a
    /// chunk of this burst: the rest waits for the burst's end.
    due: usize,
    /// The tag of the burst's chunks, kept for the ones the sink refused.
    tag: u64,
    /// Words of this burst published and dropped from `words`.
    dropped: usize,
}

impl BurstBuffer {
    /// An empty buffer with room for bursts of up to `words` words.
    pub fn with_capacity(words: usize) -> BurstBuffer {
        BurstBuffer {
            words: Vec::with_capacity(words),
            head: 0,
            due: usize::MAX,
            tag: 0,
            dropped: 0,
        }
    }

    /// The longest burst the buffer holds without reallocating.
    pub fn capacity(&self) -> usize {
        self.words.capacity()
    }

    /// Whether every word generated has been handed out or published:
    /// the stream generates only then.
    pub fn is_empty(&self) -> bool {
        self.head >= self.words.len()
    }

    /// Starts a burst. The buffer must be empty.
    pub fn begin(&mut self) {
        debug_assert!(self.is_empty(), "a burst begun over words not handed out");
        self.words.clear();
        self.head = 0;
        self.due = CHUNK_WORDS;
        self.dropped = 0;
    }

    /// Appends one word to the burst, into the room allocated for it.
    #[inline]
    pub fn push(&mut self, word: u64) {
        debug_assert!(self.words.len() < self.words.capacity(), "a burst outgrew its buffer");
        self.words.push(word);
    }

    /// Whether a complete chunk waits for [`BurstBuffer::publish_due`].
    #[inline]
    pub fn chunk_due(&self) -> bool {
        self.words.len() >= self.due
    }

    /// Offers the burst's complete chunks to `sink`, mid-burst.
    #[cold]
    pub fn publish_due(&mut self, sink: &mut dyn ChunkSink) {
        self.tag = sink.tag();
        self.offer(sink, false);
    }

    /// Ends the burst: offers what is left of it to `sink`, and returns
    /// how many words the burst had.
    pub fn finish(&mut self, sink: &mut dyn ChunkSink) -> usize {
        self.tag = sink.tag();
        self.offer(sink, true);
        self.dropped + self.words.len()
    }

    /// Offers the chunks `sink` refused again, with the burst's tag.
    pub fn offer_held(&mut self, sink: &mut dyn ChunkSink) {
        self.offer(sink, true);
    }

    /// Offers chunks from `head` until the sink refuses one, the last
    /// partial chunk only if `whole`. Once every chunk offered is taken,
    /// the rest moves to the front, so a pipelined burst keeps reusing
    /// the same few pages.
    fn offer(&mut self, sink: &mut dyn ChunkSink, whole: bool) {
        loop {
            let rest = self.words.get(self.head..).unwrap_or_default();
            let chunk = rest.get(..CHUNK_WORDS).unwrap_or(rest);
            if chunk.is_empty() || (chunk.len() < CHUNK_WORDS && !whole) {
                break;
            }
            if !sink.offer(chunk, self.tag) {
                self.due = usize::MAX;
                return;
            }
            self.head += chunk.len();
        }
        self.dropped += self.head;
        self.words.drain(..self.head);
        self.head = 0;
        self.due = CHUNK_WORDS;
    }

    /// Copies the next words, up to `out.len()`, into `out` and returns
    /// how many.
    #[inline]
    pub fn take(&mut self, out: &mut [u64]) -> usize {
        let rest = self.words.get(self.head..).unwrap_or_default();
        let n = rest.len().min(out.len());
        if let (Some(to), Some(from)) = (out.get_mut(..n), rest.get(..n)) {
            to.copy_from_slice(from);
        }
        self.head += n;
        n
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
    #[expect(
        clippy::indexing_slicing,
        reason = "pos wraps modulo refs.len() after every draw and cycle() rejects an empty slice"
    )]
    fn next_ref(&mut self) -> MemRef {
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
    #[expect(
        clippy::indexing_slicing,
        reason = "current wraps modulo streams.len() and new() rejects an empty stream set"
    )]
    fn next_ref(&mut self) -> MemRef {
        if self.issued_in_quantum == self.quantum {
            self.issued_in_quantum = 0;
            self.current = (self.current + 1) % self.streams.len();
        }
        self.issued_in_quantum += 1;
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
