//! Microbenchmarks of the simulator's hot paths: cache accesses,
//! directory protocol transitions, workload reference generation, and
//! end-to-end simulation throughput.
//!
//! Hand-rolled harness (no external benchmarking crate, so the workspace
//! builds hermetically): each benchmark is timed over a fixed operation
//! count after a short warm-up, reporting ns/op and Mops/s.
//!
//! The run ends with the cache-kernel races: the slot-word [`Cache`]
//! against [`ReferenceCache`], the implementation it replaced, on one
//! access stream in alternating rounds, at both slot widths the
//! simulator builds — the 32-bit words of its 8M1w L2 and the 64-bit
//! words of its 64K2w L1. The process exits 1 when either slot-word
//! kernel's median rate falls below the reference's: the optimized
//! probe must never lose to the code it replaced.

#![allow(clippy::disallowed_methods, reason = "a micro benchmark reads the host clock by design")]

use std::hint::black_box;
use std::time::Instant;

use csim_bench::ReferenceCache;
use csim_cache::Cache;
use csim_coherence::Directory;
use csim_config::{CacheGeometry, SystemConfig};
use csim_core::{Simulation, LINE_BITS};
use csim_trace::{ReferenceStream, SimRng};
use csim_workload::{OltpParams, OltpWorkload};

/// Times `f` over `n` calls (after `n / 10` warm-up calls) and prints one
/// result line.
fn bench(name: &str, n: u64, mut f: impl FnMut()) {
    for _ in 0..n / 10 {
        f();
    }
    let start = Instant::now();
    for _ in 0..n {
        f();
    }
    let elapsed = start.elapsed();
    let ns_per_op = elapsed.as_nanos() as f64 / n as f64;
    println!("{name:<32} {n:>10} ops  {ns_per_op:>9.1} ns/op  {:>8.2} Mops/s", 1e3 / ns_per_op);
}

fn bench_cache() {
    let geom = CacheGeometry::new(2 << 20, 8, 64).expect("valid geometry");

    let mut cache = Cache::with_line_bits(geom, LINE_BITS);
    cache.insert(42, false);
    bench("cache/l2_hit", 10_000_000, || {
        black_box(cache.access(black_box(42), false));
    });

    let mut cache = Cache::with_line_bits(geom, LINE_BITS);
    let mut line = 0u64;
    bench("cache/l2_miss_insert_evict", 10_000_000, || {
        line = line.wrapping_add(4096); // new set each time
        if !cache.access(line, false).is_hit() {
            black_box(cache.insert(line, false));
        }
    });
}

fn bench_directory() {
    let mut dir = Directory::new(8, 64, 8192);
    let mut line = 0u64;
    bench("directory/read_miss_cold", 2_000_000, || {
        black_box(dir.read_miss(line, (line % 8) as u8));
        line += 1;
    });

    let mut dir = Directory::new(8, 64, 8192);
    let mut node = 0u8;
    dir.write_miss(7, 0);
    bench("directory/migratory_write", 5_000_000, || {
        node = (node + 1) % 8;
        black_box(dir.write_miss(7, node));
    });
}

fn bench_workload() {
    let mut nodes = OltpWorkload::build(OltpParams::default(), 1).expect("default params valid");
    let stream = &mut nodes[0];
    bench("workload/next_ref", 10_000_000, || {
        black_box(stream.next_ref());
    });
}

fn bench_simulation() {
    let cfg = SystemConfig::paper_base_uni();
    let mut sim = Simulation::with_oltp(&cfg, OltpParams::default()).expect("default params valid");
    sim.warm_up(200_000);
    bench("simulation/uni_10k_refs", 50, || {
        black_box(sim.run(10_000));
    });

    let cfg = SystemConfig::paper_base_mp8();
    let mut sim = Simulation::with_oltp(&cfg, OltpParams::default()).expect("default params valid");
    sim.warm_up(100_000);
    bench("simulation/mp8_10k_refs_per_node", 20, || {
        black_box(sim.run(10_000));
    });
}

/// Timed rounds of the cache-kernel race; the kernel that runs first
/// alternates, so neither always gets the warmer machine.
const RACE_ROUNDS: usize = 10;

/// Accesses per kernel per round.
const RACE_OPS: u64 = 4_000_000;

/// Ops/sec of one cache kernel over the `SimRng(0xCAFE)` access stream.
/// Generic so both kernels run literally the same loop; `inline(never)`
/// gives each instantiation its own codegen context, so the optimizer
/// cannot specialize one kernel against the surrounding race.
#[inline(never)]
fn cache_kernel_rate(line_mask: u64, mut access: impl FnMut(u64, bool)) -> f64 {
    let mut rng = SimRng::seed_from_u64(0xCAFE);
    let start = Instant::now();
    for _ in 0..RACE_OPS {
        let r = rng.next_u64();
        access(r >> 32 & line_mask, r & 1 == 0);
    }
    RACE_OPS as f64 / start.elapsed().as_secs_f64()
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

/// Races the slot-word [`Cache`] the simulator builds for `geometry`
/// (named `name`) against [`ReferenceCache`] and returns whether the
/// slot-word median rate is at least the reference's.
fn race_cache_kernels(name: &str, geometry: CacheGeometry) -> bool {
    // 2x the line capacity keeps hits, misses and evictions all
    // frequent, so both the probe and the insert/evict paths weigh in.
    let line_mask = 2 * geometry.lines() - 1;
    let mut fast = Cache::with_line_bits(geometry, LINE_BITS);
    let mut slow = ReferenceCache::new(geometry);
    let mut time_fast = || {
        cache_kernel_rate(line_mask, |line, write| {
            if !fast.access(line, write).is_hit() {
                fast.insert(line, write);
            }
        })
    };
    let mut time_slow = || {
        cache_kernel_rate(line_mask, |line, write| {
            if !slow.access(line, write).is_hit() {
                slow.insert(line, write);
            }
        })
    };
    let (mut fast_rates, mut slow_rates) = (Vec::new(), Vec::new());
    for round in 0..RACE_ROUNDS {
        let (f, s) = if round.is_multiple_of(2) {
            let f = time_fast();
            (f, time_slow())
        } else {
            let s = time_slow();
            (time_fast(), s)
        };
        fast_rates.push(f);
        slow_rates.push(s);
    }
    // Read after timing: a differential check on the timed work, and the
    // optimization barrier that keeps the compiler from stripping the
    // statistics out of whichever loop it can fully analyze.
    assert_eq!(fast.stats(), slow.stats(), "both kernels must do identical logical work");
    let wins = fast_rates.iter().zip(&slow_rates).filter(|(f, s)| f > s).count();
    let (fast_median, slow_median) = (median(&mut fast_rates), median(&mut slow_rates));
    println!(
        "cache kernel race ({name}, {RACE_ROUNDS} rounds of {RACE_OPS} ops): slot-word {:.2} Mops/s, \
         reference {:.2} Mops/s median ({:.2}x), slot-word wins {wins}/{RACE_ROUNDS}",
        fast_median / 1e6,
        slow_median / 1e6,
        fast_median / slow_median,
    );
    fast_median >= slow_median
}

fn main() {
    println!("{:<32} {:>10}      {:>9}        {:>8}", "benchmark", "ops", "time", "rate");
    bench_cache();
    bench_directory();
    bench_workload();
    bench_simulation();
    // The default configuration's 8 MB direct-mapped off-chip L2 (the
    // largest slot array the simulator probes, 32-bit words) and the
    // 64 KB 2-way L1 (64-bit words).
    let races = [("8M1w", 8 << 20, 1), ("64K2w", 64 << 10, 2)].map(|(name, size, assoc)| {
        race_cache_kernels(name, CacheGeometry::new(size, assoc, 64).expect("valid geometry"))
    });
    if races.contains(&false) {
        eprintln!("FAIL: a slot-word cache kernel is slower than ReferenceCache");
        std::process::exit(1);
    }
}
