//! The stream pipeline: reference streams generated on a producer
//! thread, ahead of the simulator that consumes them.
//!
//! [`pipeline`] moves a set of streams onto one producer thread and
//! hands back one [`PipeStream`] per stream. Each consumer stream reads
//! from its own bounded single-producer, single-consumer ring of packed
//! words, so the simulator's dispatch loop and the workload's burst
//! generation run on two cores instead of taking turns on one.
//!
//! # Exactness
//!
//! The streams of one machine share state (the OLTP workload's redo log
//! tail, commit counts and dirty-block queue), so the *order* in which
//! they generate is part of the workload. The simulator's dispatch loop
//! pulls from stream `s` when its round `r` needs the stream's word `r`
//! and its column is empty, in stream order within a round: a stream
//! that generates only at the start of a pull, when its own buffer is
//! empty, therefore generates in (word position, stream index) order.
//! The producer here keeps the same order without knowing any run
//! length: it always lets the stream with the fewest words generated so
//! far, ties going to the lower index, generate next
//! ([`ReferenceStream::publish_chunks`]). Those keys never decrease, so
//! every generation step — every RNG draw and every shared-state change
//! inside it — happens in the order the direct loop triggers it. This
//! holds for streams that generate only when their buffer is empty,
//! which is the [`ReferenceStream::next_burst`] contract.
//!
//! A stream publishes its words as chunks of at most [`CHUNK_WORDS`]
//! words, each within one burst: the default publishes one `next_burst`
//! pull, and a stream that generates whole bursts
//! ([`crate::BurstBuffer`]) publishes each chunk as soon as it is
//! generated, so the consumer starts on a burst while the rest of it is
//! still being built. A lone stream's sink waits for ring room inside the
//! burst. With several streams it never does: a chunk that finds its ring
//! full is held by the stream, with every later chunk of that stream,
//! since waiting inside one stream's burst could starve the consumer of
//! another stream's words. The producer offers held chunks again as soon
//! as their ring has room, before anything else, and waits only when the
//! stream due to generate holds chunks itself and no held ring has room.
//!
//! # The one feedback
//!
//! The simulator reads one value back from the workload: a count (the
//! transactions completed). It travels down the ring as each chunk's
//! *tag*: the count as of the chunk's whole burst, which the stream
//! reads while it generates the burst (so the count must change only at
//! a burst's start) and keeps for the chunks it holds. A consumer stream
//! takes a chunk only when the simulator needs its first word, so after
//! `r` rounds every stream has started the chunk holding its word `r`,
//! and the latest of those chunks' bursts in the producer's order counts
//! every burst that starts at or before `r` on any stream and no other —
//! the count the direct loop reads at that moment. Because the count
//! never falls, that is the largest tag any consumer stream holds:
//! [`PipeStream::latest_tag`].
//!
//! The consumer must read its streams round by round, as the dispatch
//! loop does: the producer cannot run one stream more than a ring and a
//! burst ahead of another, so a consumer that drains one stream far
//! ahead of the others waits for words that never come.
//!
//! # Ring depth
//!
//! A consumer stream lives on its ring while the producer is away: on a
//! multi-stream machine, while it builds the other streams' bursts,
//! which fall due together because the streams start aligned, and on
//! any machine while it generates the words of the next chunk. A lone
//! stream's producer publishes each chunk as it completes, so its ring
//! only has to cover the host's scheduling hiccups; the rings of several
//! streams have to cover the other streams' bursts, a stretch that does
//! not shrink as streams are added. So each stream gets a ring of its
//! own depth (`ring_words`): `LONE_RING_WORDS` for a lone stream,
//! `MIN_RING_WORDS` for each of several. Any depth of two chunks or
//! more keeps the order and tag rules above, so the depth changes speed
//! and memory, never the words.
//!
//! # Waiting and shutdown
//!
//! A side that cannot go on — the producer when a ring it must write is
//! full, the consumer when the ring it must read next is empty — spins
//! briefly and then yields its core between checks, each in a host
//! profile region of its own ([`Region::RingFull`],
//! [`Region::WorkloadWait`]). The consumer never sleeps: it is the
//! simulation's critical path, and on a virtual machine waking a
//! sleeping thread costs tens of microseconds. The producer parks after
//! about a millisecond of yielding, which happens only when the
//! simulator has stopped pulling (between runs, or once it is done),
//! and the consumer unparks it at its next pull. Parking at every full
//! ring would also let the scheduler keep both threads on one CPU: a
//! woken thread is placed beside its waker, and a thread that sleeps
//! half the time never looks worth moving. On one core the yields hand
//! the core to the other side.
//!
//! Dropping the last consumer stream stops the producer's waits: it
//! drops what it would publish, finishes the burst it is in, and is
//! joined. A panic on the producer is caught there and raised again,
//! with its payload, on the consumer thread when the consumer runs out
//! of words.

use std::any::Any;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle, Thread};

use crate::hostprof::{self, Region};
use crate::mem_ref::MemRef;
use crate::stream::{ChunkSink, ReferenceStream};

/// Words per chunk: a stream publishes at most this many words at a
/// time, the dispatch loop's column depth.
pub const CHUNK_WORDS: usize = 512;

/// Ring of a lone stream, in packed words (8 bytes each): the
/// look-ahead of a uniprocessor run.
///
/// The OLTP generator publishes each chunk of a burst as soon as it is
/// generated, so the ring does not have to hold a burst; it covers the
/// host's hiccups on either side. Every word of ring is also peak
/// resident memory, and the single-stream run is the smallest process
/// the benchmark measures. DESIGN.md's pipeline section has the
/// measured speed and peak-RSS trade-off behind this size.
const LONE_RING_WORDS: usize = 12 << 10;

/// Smallest ring of any stream, in packed words: the look-ahead each
/// stream of a multi-stream machine keeps.
///
/// One producer serves every stream, so while it builds one stream's
/// burst the others live on their rings, and the streams of one machine
/// start aligned, so their bursts fall due together. The depth a stream
/// needs is set by how long the producer can be busy with the other
/// streams' bursts, which does not shrink as streams are added: the ring
/// is sized per stream, not split from a budget. 8Ki words rides out the
/// 8-node machine's aligned bursts (DESIGN.md's pipeline section has the
/// wait counts).
const MIN_RING_WORDS: usize = 8 << 10;

// Two whole chunks with their headers, so the producer can write one
// while the consumer reads the other: the least depth the order and tag
// rules need.
const _: () = assert!(MIN_RING_WORDS >= 2 * (CHUNK_WORDS + HEADER_WORDS as usize));

/// The ring of each stream of a pipeline of `streams` streams:
/// [`LONE_RING_WORDS`] shared out, with at least [`MIN_RING_WORDS`] each.
fn ring_words(streams: usize) -> usize {
    (LONE_RING_WORDS / streams.max(1)).max(MIN_RING_WORDS)
}

/// Words in front of every chunk in a ring: its length and its tag.
const HEADER_WORDS: u64 = 2;

/// Checks of the other side's progress with a `spin_loop` hint between
/// them, about a microsecond, before a waiting thread starts yielding.
const SPINS: u32 = 32;

/// Checks with a yield of the core between them before the producer
/// parks, about a millisecond: longer than the simulator takes to free
/// a chunk's room while it runs, so the producer parks only when the
/// simulator has stopped pulling.
const YIELDS: u32 = 1024;

/// Waits for `ready` without sleeping: [`SPINS`] checks with a
/// `spin_loop` hint, then up to `yields` checks each after yielding the
/// core. Whether `ready` held.
fn busy_wait(ready: impl Fn() -> bool, yields: u32) -> bool {
    for i in 0..SPINS.saturating_add(yields) {
        if ready() {
            return true;
        }
        if i < SPINS {
            std::hint::spin_loop();
        } else {
            thread::yield_now();
        }
    }
    ready()
}

/// One stream's ring of packed words. Positions are word counts since
/// the start and never wrap; `position % capacity` indexes `words`.
struct Ring {
    words: Box<[AtomicU64]>,
    /// Words the consumer is done with. Stored with `Release` after it
    /// has read them, loaded with `Acquire` by the producer before it
    /// overwrites them.
    head: Padded,
    /// Words the producer has published. Stored with `Release` after
    /// the words are written, loaded with `Acquire` by the consumer
    /// before it reads them.
    tail: Padded,
}

/// A position counter on its own cache line, so the producer's and the
/// consumer's stores do not false-share.
#[repr(align(64))]
struct Padded(AtomicU64);

impl Ring {
    fn new(words: usize) -> Ring {
        Ring {
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
            head: Padded(AtomicU64::new(0)),
            tail: Padded(AtomicU64::new(0)),
        }
    }

    fn capacity(&self) -> u64 {
        self.words.len() as u64
    }

    /// Words published and not yet released by the consumer.
    fn filled(&self) -> u64 {
        self.tail.0.load(Ordering::Acquire) - self.head.0.load(Ordering::Acquire)
    }

    /// Words of room left for the producer.
    fn room(&self) -> u64 {
        self.capacity() - self.filled()
    }

    /// The two runs of slots holding positions `at..at + n` (`n` at most
    /// the capacity): up to the end of `words`, then from its start.
    fn slots(&self, at: u64, n: usize) -> (&[AtomicU64], &[AtomicU64]) {
        let start = (at % self.capacity()) as usize;
        let (front, back) = self.words.split_at_checked(start).unwrap_or_default();
        let first = back.get(..n).unwrap_or(back);
        let second = front.get(..n.saturating_sub(first.len())).unwrap_or(front);
        (first, second)
    }

    /// The word at position `at`.
    fn load(&self, at: u64) -> u64 {
        let slot = self.words.get((at % self.capacity()) as usize);
        slot.map_or(0, |word| word.load(Ordering::Relaxed))
    }

    /// Copies positions `at..at + out.len()` into `out`.
    fn read(&self, at: u64, out: &mut [u64]) {
        let (a, b) = self.slots(at, out.len());
        for (slot, word) in out.iter_mut().zip(a.iter().chain(b)) {
            *slot = word.load(Ordering::Relaxed);
        }
    }

    /// Writes `words` at positions `at..`.
    fn write(&self, at: u64, words: &[u64]) {
        let (a, b) = self.slots(at, words.len());
        for (slot, &word) in a.iter().chain(b).zip(words) {
            slot.store(word, Ordering::Relaxed);
        }
    }

    /// Publishes `words` as one chunk tagged `tag`. The ring must have
    /// room for the chunk and its header.
    fn push_chunk(&self, words: &[u64], tag: u64) {
        let at = self.tail.0.load(Ordering::Relaxed);
        self.write(at, &[words.len() as u64, tag]);
        self.write(at + HEADER_WORDS, words);
        self.tail.0.store(at + HEADER_WORDS + words.len() as u64, Ordering::Release);
    }
}

/// A mutex's guard, poisoned or not: the one lock here guards a slot
/// that one store fills, so no panic can leave it half-updated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the producer and the consumer streams share.
struct Shared {
    rings: Box<[Ring]>,
    /// Set when the consumer streams are gone; the producer stops its
    /// waits and ends at the end of the burst it is in.
    stop: AtomicBool,
    /// Set after `failure` is filled, when the producer has stopped
    /// generating.
    exited: AtomicBool,
    /// The producer's panic payload, for the consumer to raise.
    failure: Mutex<Option<Box<dyn Any + Send>>>,
    /// Set while the producer is parked, waiting for ring room. The
    /// producer stores it, fences, then reads the rings' heads; the
    /// consumer stores a head, fences, then reads this. Of two `SeqCst`
    /// fences one comes first, so either the producer sees the room or
    /// the consumer sees it parked and unparks it — the wake-up cannot
    /// fall between the producer's check and its park.
    parked: AtomicBool,
}

impl Shared {
    #[expect(
        clippy::indexing_slicing,
        reason = "consumer streams carry indices below rings.len() (one per stream, assigned in pipeline()), and the producer picks s from its own streams, one per ring"
    )]
    fn ring(&self, s: usize) -> &Ring {
        &self.rings[s]
    }
}

/// Stops and joins the producer when the last consumer stream is
/// dropped. The join hands the streams back, so they are freed on the
/// thread that allocated them, into the allocator heap their memory
/// came from.
struct Link<S> {
    shared: Arc<Shared>,
    producer: Option<JoinHandle<Vec<S>>>,
}

impl<S> Drop for Link<S> {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.producer.take() {
            handle.thread().unpark();
            // The producer catches its own panics, and the consumer
            // raises them; nothing is left for the join to report.
            drop(handle.join());
        }
    }
}

/// One stream's consumer end of a [`pipeline`].
pub struct PipeStream {
    shared: Arc<Shared>,
    index: usize,
    /// Ring position of the next word to hand out.
    pos: u64,
    /// Words of the current chunk not yet handed out.
    left: u64,
    /// The tag of the chunk this stream started last.
    tag: u64,
    /// The producer thread, to unpark when it waits for room.
    producer: Thread,
    /// The producer's [`Link`], shared by the pipeline's consumers.
    _link: Arc<dyn Send + Sync>,
}

impl std::fmt::Debug for PipeStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipeStream")
            .field("index", &self.index)
            .field("pos", &self.pos)
            .field("tag", &self.tag)
            .finish_non_exhaustive()
    }
}

/// Moves `streams` onto a producer thread and returns one consumer
/// stream per stream, in the same order. Each stream reads `tag` on the
/// producer while it generates a burst ([`ChunkSink::tag`]);
/// [`PipeStream::latest_tag`] reads back the count as of the consumers'
/// position.
///
/// # Errors
///
/// The operating system's error when it cannot start the thread.
pub fn pipeline<S, T>(streams: Vec<S>, tag: T) -> io::Result<Vec<PipeStream>>
where
    S: ReferenceStream + Send + 'static,
    T: FnMut() -> u64 + Send + 'static,
{
    let per = ring_words(streams.len());
    let shared = Arc::new(Shared {
        rings: (0..streams.len()).map(|_| Ring::new(per)).collect(),
        stop: AtomicBool::new(false),
        exited: AtomicBool::new(false),
        failure: Mutex::new(None),
        parked: AtomicBool::new(false),
    });
    // Allocated here, with everything else the producer uses: it then
    // allocates nothing itself.
    let lanes = vec![Lane::default(); streams.len()];
    let theirs = Arc::clone(&shared);
    let handle = thread::Builder::new().spawn(move || {
        let mut streams = streams;
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            produce(&mut streams, lanes, tag, &theirs);
        }));
        hostprof::set_region(Region::Idle);
        if let Err(payload) = outcome {
            *lock(&theirs.failure) = Some(payload);
        }
        theirs.exited.store(true, Ordering::SeqCst);
        streams
    })?;
    let producer = handle.thread().clone();
    let link: Arc<dyn Send + Sync> =
        Arc::new(Link { shared: Arc::clone(&shared), producer: Some(handle) });
    Ok((0..shared.rings.len())
        .map(|index| PipeStream {
            shared: Arc::clone(&shared),
            index,
            pos: 0,
            left: 0,
            tag: 0,
            producer: producer.clone(),
            _link: Arc::clone(&link),
        })
        .collect())
}

/// The producer's account of one stream.
#[derive(Clone, Copy, Debug, Default)]
struct Lane {
    /// Words the stream has generated.
    generated: u64,
    /// Whether the stream holds chunks its ring refused.
    held: bool,
}

/// The producer loop: offer held chunks again wherever their ring has
/// room, then let the stream with the fewest words generated (ties to
/// the lower index) generate and publish; wait for room only when that
/// stream holds chunks itself.
fn produce<S, T>(streams: &mut [S], mut lanes: Vec<Lane>, mut tag: T, shared: &Shared)
where
    S: ReferenceStream,
    T: FnMut() -> u64,
{
    let lone = streams.len() == 1;
    let has_room = |ring: &Ring| ring.room() >= CHUNK_WORDS as u64 + HEADER_WORDS;
    while !shared.stop.load(Ordering::SeqCst) {
        for ((stream, lane), ring) in streams.iter_mut().zip(&mut lanes).zip(shared.rings.iter()) {
            if lane.held && has_room(ring) {
                let mut sink = RingSink { shared, ring, lone, tag: &mut tag, refused: false };
                stream.publish_chunks(&mut sink);
                lane.held = sink.refused;
            }
        }
        let next = streams
            .iter_mut()
            .zip(&mut lanes)
            .zip(shared.rings.iter())
            .enumerate()
            .min_by_key(|(s, ((_, lane), _))| (lane.generated, *s));
        let Some((_, ((stream, lane), ring))) = next else {
            return;
        };
        if !lane.held {
            let mut sink = RingSink { shared, ring, lone, tag: &mut tag, refused: false };
            lane.generated += stream.publish_chunks(&mut sink) as u64;
            lane.held = sink.refused;
            continue;
        }
        // The stream due to generate holds chunks, and no stream that
        // holds chunks has ring room: wait until one of them has.
        wait_for_room(shared, || {
            lanes.iter().zip(shared.rings.iter()).any(|(lane, ring)| lane.held && has_room(ring))
        });
    }
}

/// Waits until `room` holds or the consumers are gone, in the
/// [`Region::RingFull`] host-profile region. Whether `room` held.
fn wait_for_room(shared: &Shared, room: impl Fn() -> bool) -> bool {
    if room() {
        return true;
    }
    let enclosing = hostprof::current_region();
    hostprof::set_region(Region::RingFull);
    let ready = || shared.stop.load(Ordering::SeqCst) || room();
    busy_wait(ready, YIELDS);
    while !ready() {
        shared.parked.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        if !ready() {
            thread::park();
        }
        shared.parked.store(false, Ordering::Relaxed);
    }
    hostprof::set_region(enclosing);
    room()
}

/// The producer's [`ChunkSink`] for one stream's ring.
struct RingSink<'a, T> {
    shared: &'a Shared,
    ring: &'a Ring,
    /// The pipeline has this stream alone: an offer waits for room.
    lone: bool,
    tag: &'a mut T,
    /// Whether the last offer was refused.
    refused: bool,
}

impl<T: FnMut() -> u64> ChunkSink for RingSink<'_, T> {
    fn tag(&mut self) -> u64 {
        (self.tag)()
    }

    /// Waits for room, unless the consumers are gone: then the chunk is
    /// dropped, and the stream runs on to the end of its burst.
    fn publish(&mut self, words: &[u64], tag: u64) {
        let need = words.len() as u64 + HEADER_WORDS;
        if wait_for_room(self.shared, || self.ring.room() >= need) {
            self.ring.push_chunk(words, tag);
        }
    }

    fn offer(&mut self, words: &[u64], tag: u64) -> bool {
        if self.lone {
            self.publish(words, tag);
            return true;
        }
        let fits = self.ring.room() >= words.len() as u64 + HEADER_WORDS;
        if fits {
            self.ring.push_chunk(words, tag);
        }
        self.refused = !fits;
        fits
    }
}

impl PipeStream {
    /// The largest tag of the chunks `streams` are on: the producer's
    /// count as of the simulator's position (the module docs say why).
    /// 0 before any chunk is started.
    pub fn latest_tag(streams: &[PipeStream]) -> u64 {
        streams.iter().map(|s| s.tag).max().unwrap_or(0)
    }

    /// Takes the next chunk's header, waiting for the producer if the
    /// ring is empty.
    fn start_chunk(&mut self) {
        let ring = self.shared.ring(self.index);
        if ring.tail.0.load(Ordering::Acquire) == self.pos {
            self.wait_for_words(ring);
        }
        self.left = ring.load(self.pos);
        self.tag = ring.load(self.pos + 1);
        self.pos += HEADER_WORDS;
    }

    /// Waits until the producer publishes words on this stream's ring,
    /// or raises the producer's panic if it stopped.
    fn wait_for_words(&self, ring: &Ring) {
        let enclosing = hostprof::current_region();
        hostprof::set_region(Region::WorkloadWait);
        let exited = || self.shared.exited.load(Ordering::SeqCst);
        let published = || ring.tail.0.load(Ordering::Acquire) != self.pos;
        while !busy_wait(|| published() || exited(), YIELDS) {}
        hostprof::set_region(enclosing);
        if !published() {
            // The producer stopped without the words this stream needs:
            // it panicked. Raise its payload here, where the simulation
            // runs, so the caller sees the producer's message.
            let payload = lock(&self.shared.failure).take();
            panic::resume_unwind(payload.unwrap_or_else(|| Box::new("workload producer stopped")));
        }
    }
}

impl ReferenceStream for PipeStream {
    fn next_ref(&mut self) -> MemRef {
        let mut word = 0;
        self.next_burst(std::slice::from_mut(&mut word));
        MemRef::unpack(word)
    }

    /// Hands out the current chunk's words, up to `out.len()`, taking
    /// the next chunk only when the current one is used up.
    fn next_burst(&mut self, out: &mut [u64]) -> usize {
        if self.left == 0 {
            self.start_chunk();
        }
        let n = (self.left as usize).min(out.len());
        let ring = self.shared.ring(self.index);
        ring.read(self.pos, out.get_mut(..n).unwrap_or_default());
        self.pos += n as u64;
        self.left -= n as u64;
        ring.head.0.store(self.pos, Ordering::Release);
        fence(Ordering::SeqCst);
        if self.shared.parked.load(Ordering::Relaxed) {
            self.producer.unpark();
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem_ref::ExecMode;
    use crate::stream::BurstBuffer;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    /// `(position, stream)` of every burst start, shared by a test's
    /// streams.
    type BurstLog = Arc<Mutex<Vec<(u64, usize)>>>;

    /// A stream of bursts of varying length (word `i` of the stream
    /// encodes `i`) that logs each burst start and counts its drops.
    struct Bursty {
        id: usize,
        pos: u64,
        left: u64,
        bursts: u64,
        /// Burst lengths run from `shortest` to `shortest + spread - 1`.
        shortest: u64,
        spread: u64,
        log: BurstLog,
        dropped: Arc<AtomicUsize>,
    }

    impl Bursty {
        /// `n` streams of bursts from 1 to 1,500 words, shorter than any
        /// ring.
        fn set(n: usize) -> (Vec<Bursty>, BurstLog) {
            Bursty::spanning(n, 1, 1_500)
        }

        /// `n` streams of bursts two to four rings long, as the OLTP
        /// generator's execute bursts are on an 8-node machine.
        fn long(n: usize) -> (Vec<Bursty>, BurstLog) {
            let ring = ring_words(n) as u64;
            Bursty::spanning(n, 2 * ring, 2 * ring)
        }

        fn spanning(n: usize, shortest: u64, spread: u64) -> (Vec<Bursty>, BurstLog) {
            let log = Arc::new(Mutex::new(Vec::new()));
            let dropped = Arc::new(AtomicUsize::new(0));
            let streams = (0..n)
                .map(|id| Bursty {
                    id,
                    pos: 0,
                    left: 0,
                    bursts: 0,
                    shortest,
                    spread,
                    log: Arc::clone(&log),
                    dropped: Arc::clone(&dropped),
                })
                .collect();
            (streams, log)
        }
    }

    impl Drop for Bursty {
        fn drop(&mut self) {
            self.dropped.fetch_add(1, Ordering::SeqCst);
        }
    }

    impl ReferenceStream for Bursty {
        fn next_ref(&mut self) -> MemRef {
            let mut word = 0;
            self.next_burst(std::slice::from_mut(&mut word));
            MemRef::unpack(word)
        }

        fn next_burst(&mut self, out: &mut [u64]) -> usize {
            if self.left == 0 {
                self.log.lock().unwrap().push((self.pos, self.id));
                // Lengths different per stream and per burst.
                self.bursts += 1;
                let mix = self.bursts * 7_919 + self.id as u64 * 104_729;
                self.left = self.shortest + mix % self.spread;
            }
            let n = (self.left as usize).min(out.len());
            for (k, slot) in out[..n].iter_mut().enumerate() {
                *slot = MemRef::load((self.pos + k as u64) * 64, ExecMode::User).pack();
            }
            self.pos += n as u64;
            self.left -= n as u64;
            n
        }
    }

    /// Reads `rounds` rounds from `streams`, one word per stream per
    /// round in stream order, and checks each word is the stream's next.
    fn consume(streams: &mut [PipeStream], from: u64, rounds: u64) {
        for r in from..from + rounds {
            for s in streams.iter_mut() {
                assert_eq!(s.next_ref().addr, r * 64, "stream words arrive in order");
            }
        }
    }

    /// Checks that `log` crossed at least `bursts` burst starts, all in
    /// (position, stream) order.
    fn assert_generation_order(log: &BurstLog, bursts: usize) {
        let log = log.lock().unwrap().clone();
        assert!(log.len() > bursts, "the drive must cross many bursts");
        let mut sorted = log.clone();
        sorted.sort_unstable();
        assert_eq!(log, sorted, "the producer generated out of (position, stream) order");
    }

    #[test]
    fn bursts_start_in_position_then_stream_order() {
        let (streams, log) = Bursty::set(3);
        let mut piped = pipeline(streams, || 0).unwrap();
        consume(&mut piped, 0, 20_000);
        drop(piped);
        assert_generation_order(&log, 30);
    }

    #[test]
    fn every_ring_holds_the_floor_and_a_lone_stream_keeps_its_depth() {
        assert_eq!(ring_words(1), 12 << 10);
        for n in 1..=64 {
            let words = ring_words(n);
            assert!(words >= MIN_RING_WORDS, "{n} streams: {words} words");
            assert!(words >= 2 * (CHUNK_WORDS + HEADER_WORDS as usize), "{n} streams");
        }
        for n in [1, 2, 8, 64] {
            let piped = pipeline(Bursty::set(n).0, || 0).unwrap();
            let rings = &piped[0].shared.rings;
            assert!(rings.iter().all(|r| r.capacity() == ring_words(n) as u64), "{n} streams");
        }
    }

    /// The transaction count the direct dispatch loop reads after each
    /// of `rounds` rounds over `streams`: each stream's column refilled
    /// with one pull of at most [`CHUNK_WORDS`] words when it is empty,
    /// in stream order within a round, and the count read between
    /// rounds. Here the count is the bursts started machine-wide.
    fn direct_counts(streams: &mut [Bursty], log: &BurstLog, rounds: u64) -> Vec<u64> {
        let mut column = [0u64; CHUNK_WORDS];
        let mut left = vec![0; streams.len()];
        (0..rounds)
            .map(|_| {
                for (stream, left) in streams.iter_mut().zip(&mut left) {
                    if *left == 0 {
                        *left = stream.next_burst(&mut column);
                    }
                    *left -= 1;
                }
                log.lock().unwrap().len() as u64
            })
            .collect()
    }

    /// Bursty's bursts generated whole into a [`BurstBuffer`] and
    /// published a chunk at a time while they are generated, as the OLTP
    /// stream publishes them; chunks the sink refuses are held.
    struct Buffered {
        inner: Bursty,
        buf: BurstBuffer,
        /// Calls that ended holding chunks.
        holds: Arc<AtomicUsize>,
        /// If set, the first burst stops after its first chunk is
        /// published: it sends on the first and waits on the second
        /// until the test drops its sender.
        gate: Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>,
    }

    impl Buffered {
        /// Wraps `streams`, counting their holds in `holds`.
        fn wrap(streams: Vec<Bursty>, holds: &Arc<AtomicUsize>) -> Vec<Buffered> {
            streams
                .into_iter()
                .map(|inner| Buffered {
                    buf: BurstBuffer::with_capacity((inner.shortest + inner.spread) as usize),
                    inner,
                    holds: Arc::clone(holds),
                    gate: None,
                })
                .collect()
        }
    }

    impl ReferenceStream for Buffered {
        fn next_ref(&mut self) -> MemRef {
            unreachable!("the producer publishes chunks")
        }

        fn publish_chunks(&mut self, sink: &mut dyn ChunkSink) -> usize {
            if !self.buf.is_empty() {
                self.buf.offer_held(sink);
            } else {
                self.buf.begin();
                let mut word = 0;
                loop {
                    self.inner.next_burst(std::slice::from_mut(&mut word));
                    self.buf.push(word);
                    if self.buf.chunk_due() {
                        self.buf.publish_due(sink);
                        if let Some((entered, gate)) = self.gate.take() {
                            entered.send(()).unwrap();
                            let _ = gate.recv();
                        }
                    }
                    if self.inner.left == 0 {
                        break;
                    }
                }
                let words = self.buf.finish(sink);
                if !self.buf.is_empty() {
                    self.holds.fetch_add(1, Ordering::SeqCst);
                }
                return words;
            }
            if !self.buf.is_empty() {
                self.holds.fetch_add(1, Ordering::SeqCst);
            }
            0
        }
    }

    /// Drives `n` streams of bursts two to four rings long, made into
    /// pipeline streams by `wrap`, against the direct dispatch loop: the
    /// same generation order and the same transaction count (here the
    /// bursts started machine-wide) after every round.
    fn check_order_and_tags<S: ReferenceStream + Send + 'static>(
        n: usize,
        wrap: impl Fn(Vec<Bursty>) -> Vec<S>,
    ) {
        let rounds = 10 * ring_words(n) as u64;
        let (mut direct, direct_log) = Bursty::long(n);
        let expected = direct_counts(&mut direct, &direct_log, rounds);
        let (streams, log) = Bursty::long(n);
        let count = Arc::clone(&log);
        let mut piped =
            pipeline(wrap(streams), move || count.lock().unwrap().len() as u64).unwrap();
        for (r, &want) in (0..rounds).zip(&expected) {
            consume(&mut piped, r, 1);
            assert_eq!(PipeStream::latest_tag(&piped), want, "{n} streams, round {r}");
        }
        drop(piped);
        assert_generation_order(&log, 2 * n);
        // The producer ran ahead of the consumer, through the same
        // bursts in the same order.
        let direct_log = direct_log.lock().unwrap();
        assert!(log.lock().unwrap().starts_with(&direct_log), "{n} streams");
    }

    #[test]
    fn bursts_several_rings_long_keep_the_order_and_the_tags() {
        for n in [1, 8] {
            check_order_and_tags(n, |streams| streams);
        }
    }

    #[test]
    fn held_chunks_keep_the_order_and_the_tags() {
        // Each burst is generated whole, and its ring fills long before
        // its end: with several streams the rest is held, not waited on;
        // a lone stream waits inside its burst instead.
        for n in [1, 2, 8] {
            let holds = Arc::new(AtomicUsize::new(0));
            check_order_and_tags(n, |streams| Buffered::wrap(streams, &holds));
            let holds = holds.load(Ordering::SeqCst);
            assert_eq!(holds > 0, n > 1, "{n} streams: {holds} calls held chunks");
        }
    }

    #[test]
    fn a_lone_stream_publishes_its_burst_while_generating_it() {
        let (streams, log) = Bursty::long(1);
        let dropped = Arc::clone(&streams[0].dropped);
        let mut streams = Buffered::wrap(streams, &Arc::new(AtomicUsize::new(0)));
        let (entered_tx, entered) = mpsc::channel();
        let (release, gate) = mpsc::channel();
        streams[0].gate = Some((entered_tx, gate));
        let mut piped = pipeline(streams, || 0).unwrap();
        // The producer stops inside the first burst, two rings or more
        // long, right after publishing its first chunk ...
        entered.recv().unwrap();
        // ... and the consumer reads that chunk meanwhile.
        consume(&mut piped, 0, CHUNK_WORDS as u64);
        drop(release);
        // The producer fills the ring and waits for room, still inside
        // the first burst.
        let ring = &piped[0].shared.rings[0];
        while ring.room() >= CHUNK_WORDS as u64 + HEADER_WORDS {
            thread::yield_now();
        }
        assert_eq!(log.lock().unwrap().len(), 1, "the producer is inside the first burst");
        // Dropping the consumer stops that wait and joins the producer.
        drop(piped);
        assert_eq!(dropped.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_drop_mid_burst_with_the_rings_full_joins_cleanly() {
        for n in [1, 8] {
            let (streams, log) = Bursty::long(n);
            let dropped = Arc::clone(&streams[0].dropped);
            let mut piped = pipeline(streams, || 0).unwrap();
            // A few chunks into first bursts longer than the rings: the
            // producer is mid-burst, once the rings fill waiting for room.
            consume(&mut piped, 0, 3 * CHUNK_WORDS as u64 / 2);
            drop(piped);
            // The producer is joined and the streams came back: all of
            // them dropped before `drop(piped)` returned.
            assert_eq!(dropped.load(Ordering::SeqCst), n, "{n} streams");
            assert_generation_order(&log, n - 1);
        }
    }

    #[test]
    fn the_latest_tag_is_the_last_started_chunks() {
        // One stream of 5-word bursts, each pull tagged with the pulls
        // made so far: after r words the chunks started are those that
        // begin before word r.
        struct Fives(u64);
        impl ReferenceStream for Fives {
            fn next_ref(&mut self) -> MemRef {
                unreachable!("the producer pulls bursts")
            }
            fn next_burst(&mut self, out: &mut [u64]) -> usize {
                let n = out.len().min(5);
                for slot in &mut out[..n] {
                    *slot = MemRef::load(self.0 * 64, ExecMode::User).pack();
                    self.0 += 1;
                }
                n
            }
        }
        let mut pulls = 0;
        let mut piped = pipeline(vec![Fives(0)], move || {
            pulls += 1;
            pulls
        })
        .unwrap();
        assert_eq!(PipeStream::latest_tag(&piped), 0);
        let mut read = 0;
        for (upto, tag) in [(1, 1), (5, 1), (6, 2), (10, 2), (11, 3), (1_000, 200)] {
            consume(&mut piped, read, upto - read);
            read = upto;
            assert_eq!(PipeStream::latest_tag(&piped), tag, "after {upto} words");
        }
    }

    /// A stream that panics on its `fail_at`-th pull.
    struct Failing {
        pulls: u32,
        fail_at: u32,
    }

    impl ReferenceStream for Failing {
        fn next_ref(&mut self) -> MemRef {
            self.pulls += 1;
            assert!(self.pulls != self.fail_at, "pull {} failed", self.pulls);
            MemRef::load(0, ExecMode::User)
        }
    }

    #[test]
    fn a_producer_panic_is_raised_on_the_consumer_with_its_message() {
        let mut piped = pipeline(vec![Failing { pulls: 0, fail_at: 3 }], || 0).unwrap();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            for _ in 0..10 {
                piped[0].next_ref();
            }
        }))
        .expect_err("the consumer must raise the producer's panic");
        let message = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(message, "pull 3 failed");
        // Dropping the consumers after the failure still joins cleanly.
        drop(piped);
    }

    /// A stream that tells the test, through `dropped_on`, which thread
    /// dropped it.
    struct Marked {
        dropped_on: mpsc::Sender<thread::ThreadId>,
    }

    impl ReferenceStream for Marked {
        fn next_ref(&mut self) -> MemRef {
            MemRef::load(0, ExecMode::User)
        }
    }

    impl Drop for Marked {
        fn drop(&mut self) {
            let _ = self.dropped_on.send(thread::current().id());
        }
    }

    #[test]
    fn dropping_the_consumers_joins_the_producer_and_returns_the_streams() {
        let (tx, rx) = mpsc::channel();
        let streams = (0..2).map(|_| Marked { dropped_on: tx.clone() }).collect();
        drop(tx);
        let mut piped = pipeline(streams, || 0).unwrap();
        piped[0].next_ref();
        piped[1].next_ref();
        drop(piped);
        // The join handed both streams back: they were dropped here,
        // before `drop(piped)` returned.
        let me = thread::current().id();
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), [me, me]);
    }

    /// A stream whose second pull blocks until the test lets it go.
    struct Gated {
        pulls: u32,
        entered: mpsc::Sender<u32>,
        gate: mpsc::Receiver<()>,
    }

    impl ReferenceStream for Gated {
        fn next_ref(&mut self) -> MemRef {
            self.pulls += 1;
            let _ = self.entered.send(self.pulls);
            if self.pulls == 2 {
                // Released when the test drops the sender.
                let _ = self.gate.recv();
            }
            MemRef::load(0, ExecMode::User)
        }
    }

    #[test]
    fn a_drop_mid_pull_waits_for_that_pull_and_stops() {
        let (entered_tx, entered) = mpsc::channel();
        let (release, gate) = mpsc::channel::<()>();
        let mut piped =
            pipeline(vec![Gated { pulls: 0, entered: entered_tx, gate }], || 0).unwrap();
        piped[0].next_ref();
        assert_eq!(entered.recv().unwrap(), 1);
        assert_eq!(entered.recv().unwrap(), 2, "the producer is inside its second pull");
        let dropper = thread::spawn(move || drop(piped));
        drop(release);
        dropper.join().expect("the drop returns once the pull in flight ends");
        // The producer is joined: the stream, and its sender, are gone.
        assert!(entered.iter().all(|pull| pull > 2), "no pull replays");
    }
}
