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
//! length: it always pulls the next chunk of at most [`CHUNK_WORDS`]
//! words from the stream with the fewest words produced so far, ties
//! going to the lower index. Its pulls start at non-decreasing
//! (position, index) keys, so every generation step — every RNG draw
//! and every shared-state change inside it — happens in the order the
//! direct loop triggers it. This holds for streams whose pulls never
//! hand out words of two bursts at once, which is what the
//! [`ReferenceStream::next_burst`] contract's "generate only when the
//! buffer is empty" gives a buffered stream that returns at a burst end.
//!
//! # The one feedback
//!
//! The simulator reads one value back from the workload: a count (the
//! transactions completed). The producer reads it after every pull and
//! sends it down the ring as the chunk's *tag*. A consumer stream takes
//! a chunk only when the simulator needs its first word, so after `r`
//! rounds the chunks started are exactly those that begin before word
//! `r` — a prefix of the producer's pull order. The count the direct
//! loop would read at that moment is the tag of the last chunk of that
//! prefix, and because the count never falls, it is the largest tag any
//! consumer stream holds: [`PipeStream::latest_tag`].
//!
//! The consumer must read its streams round by round, as the dispatch
//! loop does: the producer cannot run one stream more than a ring ahead
//! of another, so a consumer that drains one stream far ahead of the
//! others waits for words that never come.
//!
//! # Ring depth
//!
//! A consumer stream lives on its ring while the producer is away: while
//! it builds the stream's next burst, and on a multi-stream machine while
//! it builds the other streams' bursts, which fall due together because
//! the streams start aligned. That stretch does not shrink as streams are
//! added, so each stream gets a ring of its own depth (`ring_words`):
//! `LONE_RING_WORDS` for a lone stream, `MIN_RING_WORDS` for each of
//! several. Any depth of two chunks or more keeps the order and tag rules
//! above, so the depth changes speed and memory, never the words.
//!
//! # Waiting and shutdown
//!
//! A side that cannot go on — the producer when the ring it must write
//! next is full, the consumer when the ring it must read next is empty —
//! spins briefly and then yields its core between checks. The consumer
//! never sleeps: it is the simulation's critical path, and on a virtual
//! machine waking a sleeping thread costs tens of microseconds. The
//! producer parks after about a millisecond of yielding, which happens
//! only when the simulator has stopped pulling (between runs, or once it
//! is done), and the consumer unparks it once it has freed a chunk's
//! room. Parking at every full ring would also let the scheduler keep
//! both threads on one CPU: a woken thread is placed beside its waker,
//! and a thread that sleeps half the time never looks worth moving. On
//! one core the yields hand the core to the other side.
//!
//! Dropping the last consumer stream stops the producer at its next pull
//! (within one burst) and joins it. A panic on the producer is caught
//! there and raised again, with its payload, on the consumer thread when
//! the consumer runs out of words.

use std::any::Any;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle, Thread};

use crate::hostprof::{self, Region};
use crate::mem_ref::MemRef;
use crate::stream::ReferenceStream;

/// Words per pull: the producer asks a stream for at most this many
/// words at a time, the dispatch loop's column depth.
pub const CHUNK_WORDS: usize = 512;

/// Ring of a lone stream, in packed words (8 bytes each): the
/// look-ahead of a uniprocessor run.
///
/// The OLTP generator emits whole scheduling bursts, eight
/// transaction-execute bursts of about 17k words in a row, and it starts
/// the next burst only once the last word of the current one is in the
/// ring; the consumer then lives on what the ring holds until the new
/// burst is built. Every word of ring is also peak resident memory, and
/// the single-stream run is the smallest process the benchmark measures.
/// DESIGN.md's pipeline section has the measured speed and peak-RSS
/// trade-off behind this size.
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

/// `Shared::parked_on` value meaning "not parked".
const AWAKE: usize = usize::MAX;

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

    /// The two runs of slots holding positions `at..at + n` (`n` at most
    /// the capacity): up to the end of `words`, then from its start.
    // analyze: total — start = at % len is below len, first = min(n, len - start) keeps start + first within len, and n <= len bounds n - first by start
    fn slots(&self, at: u64, n: usize) -> (&[AtomicU64], &[AtomicU64]) {
        let start = (at % self.capacity()) as usize;
        let first = n.min(self.words.len() - start);
        (&self.words[start..start + first], &self.words[..n - first])
    }

    /// The word at position `at`.
    fn load(&self, at: u64) -> u64 {
        // analyze: total — at % len is below len, and pipeline() builds every ring non-empty (ring_words)
        self.words[(at % self.capacity()) as usize].load(Ordering::Relaxed)
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
}

/// A mutex's guard, poisoned or not: the one lock here guards a slot
/// that one store fills, so no panic can leave it half-updated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the producer and the consumer streams share.
struct Shared {
    rings: Box<[Ring]>,
    /// Set when the consumer streams are gone; the producer stops at its
    /// next pull.
    stop: AtomicBool,
    /// Set after `failure` is filled, when the producer has stopped
    /// pulling.
    exited: AtomicBool,
    /// The producer's panic payload, for the consumer to raise.
    failure: Mutex<Option<Box<dyn Any + Send>>>,
    /// The ring the producer is parked on, waiting for room, or
    /// [`AWAKE`]. The producer stores it, fences, then reads the ring's
    /// head; the consumer stores the head, fences, then reads this. Of
    /// two `SeqCst` fences one comes first, so either the producer sees
    /// the room or the consumer sees it parked and unparks it — the
    /// wake-up cannot fall between the producer's check and its park.
    parked_on: AtomicUsize,
}

impl Shared {
    fn ring(&self, s: usize) -> &Ring {
        // analyze: total — consumer streams carry indices below rings.len() (one per stream, assigned in pipeline()), and the producer picks s from its own streams, one per ring
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
/// stream per stream, in the same order. `tag` runs on the producer
/// after every pull; [`PipeStream::latest_tag`] reads back the value it
/// returned after the last pull the consumers have started.
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
        parked_on: AtomicUsize::new(AWAKE),
    });
    // Allocated here, with everything else the producer uses: it then
    // allocates nothing itself.
    let produced = vec![0u64; streams.len()];
    let theirs = Arc::clone(&shared);
    let handle = thread::Builder::new().spawn(move || {
        let mut streams = streams;
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            produce(&mut streams, produced, tag, &theirs);
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

/// The producer loop: pull from the stream with the fewest words
/// produced (ties to the lower index), tag the chunk, publish it.
fn produce<S, T>(streams: &mut [S], mut produced: Vec<u64>, mut tag: T, shared: &Shared)
where
    S: ReferenceStream,
    T: FnMut() -> u64,
{
    let mut chunk = [0u64; CHUNK_WORDS];
    while !shared.stop.load(Ordering::SeqCst) {
        let next = streams
            .iter_mut()
            .zip(produced.iter_mut())
            .zip(shared.rings.iter())
            .enumerate()
            .min_by_key(|(s, ((_, count), _))| (**count, *s));
        let Some((s, ((stream, count), ring))) = next else {
            return;
        };
        let got = stream.next_burst(&mut chunk);
        let header = [got as u64, tag()];
        *count += got as u64;
        let need = got as u64 + HEADER_WORDS;
        let room = || ring.capacity() - ring.filled() >= need;
        if !room() {
            let ready = || shared.stop.load(Ordering::SeqCst) || room();
            busy_wait(ready, YIELDS);
            while !ready() {
                shared.parked_on.store(s, Ordering::Relaxed);
                fence(Ordering::SeqCst);
                if !ready() {
                    thread::park();
                }
                shared.parked_on.store(AWAKE, Ordering::Relaxed);
            }
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
        }
        let at = ring.tail.0.load(Ordering::Relaxed);
        ring.write(at, &header);
        // analyze: total — a pull returns at most chunk.len() words by the trait contract
        ring.write(at + HEADER_WORDS, &chunk[..got]);
        ring.tail.0.store(at + need, Ordering::Release);
    }
}

impl PipeStream {
    /// The tag of the last chunk any of `streams` has started: the
    /// producer's count as of the simulator's position. Tags never fall
    /// along the producer's pull order, and the chunks started form a
    /// prefix of it, so the largest tag is the last one's. 0 before any
    /// chunk is started.
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
    // analyze: total — n is at most out.len(), so the slice stays inside out
    fn next_burst(&mut self, out: &mut [u64]) -> usize {
        if self.left == 0 {
            self.start_chunk();
        }
        let n = (self.left as usize).min(out.len());
        let ring = self.shared.ring(self.index);
        ring.read(self.pos, &mut out[..n]);
        self.pos += n as u64;
        self.left -= n as u64;
        ring.head.0.store(self.pos, Ordering::Release);
        fence(Ordering::SeqCst);
        let on = self.shared.parked_on.load(Ordering::Relaxed);
        if on != AWAKE {
            let waited = self.shared.ring(on);
            if waited.capacity() - waited.filled() >= CHUNK_WORDS as u64 + HEADER_WORDS {
                self.producer.unpark();
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem_ref::ExecMode;
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

    #[test]
    fn bursts_several_rings_long_keep_the_order_and_the_tags() {
        for n in [1, 8] {
            let rounds = 10 * ring_words(n) as u64;
            let (mut direct, direct_log) = Bursty::long(n);
            let expected = direct_counts(&mut direct, &direct_log, rounds);
            let (streams, log) = Bursty::long(n);
            let count = Arc::clone(&log);
            let mut piped = pipeline(streams, move || count.lock().unwrap().len() as u64).unwrap();
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
