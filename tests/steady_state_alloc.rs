//! Steady state does not allocate: the measured window of a warmed-up
//! simulation touches the heap only to build its report and to grow a
//! few named tables.
//!
//! A counting global allocator sees every `alloc`, `alloc_zeroed` and
//! `realloc` on every thread, the workload producer's included. Each
//! benchmark configuration (uni-base, mp8-all-rac, uni-ooo-observed,
//! built as `oltpbench` builds them) is driven through both
//! constructors: `warm_up(warm)`, then `run(meas)` counted, then
//! `run(0)` counted. `run(0)` simulates nothing and builds only the
//! report, so the difference is what the simulation itself allocated.
//! Tables that grow geometrically with the touched footprint are the
//! only allowance, and each is named below.
//!
//! The file holds exactly one `#[test]`, so no other test thread
//! allocates while a window is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use oltp_chip_integration::config::{IntegrationLevel, SystemConfig};
use oltp_chip_integration::fault::{FaultInjector, FaultPlan};
use oltp_chip_integration::obs::{ObsConfig, Observer};
use oltp_chip_integration::sim::Simulation;
use oltp_chip_integration::sweep::{L2Spec, RunSpec};
use oltp_chip_integration::trace::ReferenceStream;
use oltp_chip_integration::workload::OltpParams;

/// Sizes of the most recent allocations, by allocation number modulo
/// the ring's length (a `realloc` logs its new size).
const RING: usize = 64;

struct Counting;

static COUNT: AtomicUsize = AtomicUsize::new(0);
static SIZES: [AtomicUsize; RING] = [const { AtomicUsize::new(0) }; RING];

fn note(size: usize) {
    let n = COUNT.fetch_add(1, Relaxed);
    SIZES[n % RING].store(size, Relaxed);
}

// SAFETY: every call forwards to the system allocator with the caller's
// layout and pointer unchanged; the bookkeeping touches only atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made while `f` runs, with the sizes of the last
/// [`RING`] of them, oldest first.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, Vec<usize>) {
    let before = COUNT.load(Relaxed);
    let out = f();
    let n = COUNT.load(Relaxed) - before;
    let first = before + n.saturating_sub(RING);
    let sizes = (first..before + n).map(|i| SIZES[i % RING].load(Relaxed)).collect();
    (out, n, sizes)
}

/// The directory's block index and its slab vector double as the
/// touched footprint grows; a run long enough to touch new blocks
/// after warm-up grows each at most once.
const DIRECTORY_TABLES: usize = 2;
/// The epoch series appends one snapshot per closed epoch.
const EPOCH_SERIES: usize = 1;

/// One benchmark configuration, as `oltpbench`'s workload table gives it.
struct Bench {
    name: &'static str,
    nodes: usize,
    integration: IntegrationLevel,
    l2: &'static str,
    rac: bool,
    ooo: bool,
    observed: bool,
    warm: u64,
    meas: u64,
    /// Allocations the measured window may make beyond its report.
    allowance: usize,
}

const BENCHES: [Bench; 3] = [
    Bench {
        name: "uni-base",
        nodes: 1,
        integration: IntegrationLevel::Base,
        l2: "8M1w",
        rac: false,
        ooo: false,
        observed: false,
        warm: 500_000,
        meas: 4_000_000,
        allowance: DIRECTORY_TABLES,
    },
    Bench {
        name: "mp8-all-rac",
        nodes: 8,
        integration: IntegrationLevel::FullyIntegrated,
        l2: "2M8w",
        rac: true,
        ooo: false,
        observed: false,
        warm: 125_000,
        meas: 250_000,
        allowance: 0,
    },
    Bench {
        name: "uni-ooo-observed",
        nodes: 1,
        integration: IntegrationLevel::FullyIntegrated,
        l2: "2M8w",
        rac: false,
        ooo: true,
        observed: true,
        warm: 500_000,
        meas: 3_500_000,
        allowance: DIRECTORY_TABLES + EPOCH_SERIES,
    },
];

/// Epoch length of the observed configuration, in references per node.
const OBSERVED_EPOCH: u64 = 1_000_000;

impl Bench {
    fn config(&self) -> SystemConfig {
        let l2 = L2Spec::parse(self.l2).expect("valid L2 spec");
        let spec = RunSpec {
            integration: self.integration,
            l2_bytes: l2.bytes,
            l2_assoc: l2.assoc,
            l2_label: l2.label,
            nodes: self.nodes,
            cores: 1,
            seed_index: 0,
            seed: OltpParams::default().seed,
            dram: false,
            rac: self.rac,
            replicate: false,
            ooo: self.ooo,
            warm: self.warm,
            meas: self.meas,
        };
        spec.system_config().expect("valid configuration")
    }

    /// Arms `sim` as `csim` does for this configuration, then returns
    /// the allocations of the measured window beyond its report.
    fn surplus<S: ReferenceStream>(&self, mut sim: Simulation<S>) -> (isize, Vec<usize>) {
        if self.observed {
            sim.set_observer(Observer::new(ObsConfig {
                histograms: true,
                epoch: Some(OBSERVED_EPOCH),
                trace: None,
            }));
            sim.set_attribution(true);
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/fault_storm.toml");
            let text = std::fs::read_to_string(path).expect("examples/fault_storm.toml");
            let plan = FaultPlan::from_toml_str(&text).expect("valid fault plan");
            let seed = OltpParams::default().seed;
            sim.set_fault_injector(FaultInjector::new(plan, seed).expect("valid injector"));
        }
        sim.warm_up(self.warm);
        let (_measured, window, sizes) = counted(|| sim.run(self.meas));
        let (_empty, report, _) = counted(|| sim.run(0));
        (window as isize - report as isize, sizes)
    }
}

#[test]
fn measured_windows_allocate_only_their_reports() {
    let mut failures = Vec::new();
    for b in &BENCHES {
        let cfg = b.config();
        let params = OltpParams::default();
        let piped = Simulation::with_oltp(&cfg, params.clone()).expect("valid workload");
        let direct = Simulation::with_oltp_direct(&cfg, params).expect("valid workload");
        for (how, (surplus, sizes)) in
            [("with_oltp", b.surplus(piped)), ("with_oltp_direct", b.surplus(direct))]
        {
            if surplus > b.allowance as isize {
                failures.push(format!(
                    "{} via {how}: {surplus} allocations beyond the report (allowed {}); \
                     sizes in bytes of its allocations (the last {RING} at most): {sizes:?}",
                    b.name, b.allowance
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
