//! Region markers for the host-side sampling profiler.
//!
//! The simulator's hot loops publish *where the host CPU currently is*
//! through a handful of cache-line-padded atomic slots: each thread
//! lazily claims a stripe and stores a [`Region`] id into it with a
//! relaxed store at region boundaries. A watcher thread (the sampler in
//! `csim-prof`) periodically reads every stripe and tallies which
//! region each thread was executing — a dependency-free, `unsafe`-free
//! sampling profiler with per-sample cost of one relaxed load per
//! stripe and per-marker cost of one relaxed store.
//!
//! The markers live in this leaf crate so both publishers (the
//! workload's burst refill and the core advance loop) can publish
//! without new dependency edges. Marker stores never touch simulation
//! state: a run with a sampler attached is bit-identical to a run
//! without one, and when nobody samples, the stores are dead traffic to
//! a thread-striped cache line nothing else reads.

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

/// The instrumented host-code regions, coarse by design: each one is a
/// loop the profiler needs to separate, not a function-level trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Region {
    /// Not inside any instrumented region (startup, reporting, sleeps).
    Idle = 0,
    /// The simulator's per-reference advance loop (`Simulation::advance`).
    Advance = 1,
    /// The workload's amortized scheduling-burst refill (a burst is
    /// thousands of references; the simulator then drains the buffer up
    /// to 512 at a time).
    BurstRefill = 2,
}

impl Region {
    /// Every region, in id order. Samplers and reports iterate in this
    /// order so exports are stable.
    pub const ALL: [Region; 3] = [Region::Idle, Region::Advance, Region::BurstRefill];

    /// Number of regions (array-index domain for per-region tallies).
    pub const COUNT: usize = Self::ALL.len();

    /// The stable machine-readable name used in JSON and tables.
    pub fn as_str(self) -> &'static str {
        match self {
            Region::Idle => "idle",
            Region::Advance => "advance",
            Region::BurstRefill => "burst-refill",
        }
    }

    /// Decodes a stored id; unknown values read as [`Region::Idle`] so
    /// a torn or stale slot can never crash the watcher.
    pub fn from_u8(v: u8) -> Region {
        match v {
            1 => Region::Advance,
            2 => Region::BurstRefill,
            _ => Region::Idle,
        }
    }
}

/// Number of marker stripes. Threads hash onto stripes round-robin;
/// collisions merely merge two threads' regions into one slot, which
/// coarsens — never corrupts — the sample tally.
pub const STRIPES: usize = 16;

/// One marker slot on its own cache line, so the publishing thread's
/// relaxed stores never false-share with a neighbor's.
#[repr(align(64))]
struct Stripe(AtomicU8);

static SLOTS: [Stripe; STRIPES] = [const { Stripe(AtomicU8::new(0)) }; STRIPES];

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // usize::MAX = "not yet assigned"; the first marker store on a
    // thread claims the next stripe round-robin.
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn stripe_index() -> usize {
    STRIPE.with(|slot| {
        let mut i = slot.get();
        if i == usize::MAX {
            i = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
            slot.set(i);
        }
        i
    })
}

/// Publishes the calling thread's current region: one relaxed store
/// (plus a predictable lazy-init branch on the thread's first call).
// analyze: hot
#[inline]
pub fn set_region(region: Region) {
    // Relaxed is enough: the sampler tolerates stale reads of this
    // per-thread stripe, and nothing reads it back for control flow.
    // analyze: total — stripe_index masks the stripe counter with STRIPES - 1, and SLOTS holds STRIPES entries
    SLOTS[stripe_index()].0.store(region as u8, Ordering::Relaxed);
}

/// The calling thread's currently published region — used by nested
/// markers (e.g. burst refill inside the advance loop) to restore the
/// enclosing region on exit.
// analyze: hot
#[inline]
pub fn current_region() -> Region {
    // analyze: total — stripe_index masks the stripe counter with STRIPES - 1, and SLOTS holds STRIPES entries
    Region::from_u8(SLOTS[stripe_index()].0.load(Ordering::Relaxed))
}

/// Snapshots every stripe's published region id into `out`. This is the
/// watcher side: one relaxed load per stripe, no synchronization with
/// the publishers beyond the atomics themselves.
pub fn read_regions(out: &mut [u8; STRIPES]) {
    for (slot, stripe) in out.iter_mut().zip(SLOTS.iter()) {
        *slot = stripe.0.load(Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_and_unknown_reads_idle() {
        for r in Region::ALL {
            assert_eq!(Region::from_u8(r as u8), r);
        }
        assert_eq!(Region::from_u8(250), Region::Idle);
    }

    #[test]
    fn names_are_distinct_and_stable() {
        let names: std::collections::BTreeSet<&str> =
            Region::ALL.iter().map(|r| r.as_str()).collect();
        assert_eq!(names.len(), Region::COUNT);
        assert!(names.contains("burst-refill"));
    }

    #[test]
    fn set_region_is_visible_to_the_reader() {
        set_region(Region::Advance);
        assert_eq!(current_region(), Region::Advance);
        let mut slots = [0u8; STRIPES];
        read_regions(&mut slots);
        assert!(slots.contains(&(Region::Advance as u8)));
        set_region(Region::Idle);
        assert_eq!(current_region(), Region::Idle);
    }

    #[test]
    fn each_thread_gets_a_stripe_and_publishes_independently() {
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    set_region(Region::BurstRefill);
                    assert_eq!(current_region(), Region::BurstRefill);
                    set_region(Region::Idle);
                });
            }
        });
    }
}
