//! Bit-identity contracts of the parallel sweep engine and the optimized
//! cache hot path.
//!
//! Two independent guarantees, one test file:
//!
//! * **Parallelism never leaks into output.** A sweep run on one worker
//!   and the same sweep on many workers must serialize to byte-identical
//!   merged reports (`csim-sweep-report/v1`).
//! * **Optimization never changes behavior.** The packed-slot
//!   [`Cache`] (power-of-two index masks, branch-light probes,
//!   specialized direct-mapped / 2-way paths) must agree decision-for-
//!   decision and counter-for-counter with [`ReferenceCache`], the
//!   retained copy of the original implementation in bench support —
//!   including on the paper's non-power-of-two 1.25 MB geometry, which
//!   exercises the modulo set-index path.

use csim_bench::ReferenceCache;
use oltp_chip_integration::cache::{Cache, Evicted};
use oltp_chip_integration::config::CacheGeometry;
use oltp_chip_integration::sim::LINE_BITS;
use oltp_chip_integration::sweep::{run_sweep, SweepPlan, SWEEP_REPORT_SCHEMA};
use oltp_chip_integration::trace::SimRng;

fn smoke_plan() -> SweepPlan {
    SweepPlan::from_toml_str(
        r#"
        [sweep]
        name = "identity"
        warm = 5_000
        meas = 10_000

        [grid]
        integration = ["base", "l2"]
        l2 = ["2M1w", "2M8w"]
        nodes = [1, 2]
        base_seed = 42
        runs_per_config = 2
        "#,
    )
    .expect("the smoke plan is valid")
}

#[test]
fn parallel_sweep_report_is_byte_identical_to_serial() {
    let plan = smoke_plan();
    let serial = run_sweep(&plan, 1).expect("serial sweep runs");
    let parallel = run_sweep(&plan, 4).expect("parallel sweep runs");
    let s = serial.to_json().to_string();
    let p = parallel.to_json().to_string();
    assert_eq!(s.len(), p.len(), "report sizes diverge between --jobs 1 and --jobs 4");
    assert_eq!(s, p, "parallel sweep must be byte-identical to serial");
    // Pin the schema tag: consumers key on this string, so renaming it
    // is a breaking change that must show up in a test diff.
    assert_eq!(SWEEP_REPORT_SCHEMA, "csim-sweep-report/v1");
    assert!(
        s.contains("\"schema\":\"csim-sweep-report/v1\""),
        "sweep report must carry the schema tag"
    );
    // The contract is bytes, not structure: worker count must appear
    // nowhere in the document.
    assert!(!s.contains("jobs"), "worker count leaked into the report");
}

#[test]
fn sweep_runs_are_in_grid_order_regardless_of_workers() {
    let plan = smoke_plan();
    let labels: Vec<String> = plan.expand().iter().map(|s| s.label()).collect();
    for jobs in [1, 3, 8] {
        let out = run_sweep(&plan, jobs).expect("sweep runs");
        let got: Vec<String> = out.points.iter().map(|p| p.label().to_string()).collect();
        assert_eq!(got, labels, "run order changed under {jobs} workers");
        assert_eq!(out.failures().count(), 0, "no point of the smoke plan fails");
    }
}

#[test]
fn sharded_sweeps_merge_to_the_single_process_bytes() {
    use oltp_chip_integration::sweep::{merge_logs, run_sweep_cfg, Shard, SweepConfig};

    let plan = smoke_plan();
    let full = run_sweep(&plan, 2).expect("full sweep runs").to_json().to_string();
    // Each shard's result is its checkpoint log, written and re-read
    // exactly like real shard files.
    let logs: Vec<String> = (0..3u32)
        .map(|index| {
            let path = std::env::temp_dir()
                .join(format!("csim-sweep-identity-{}-shard{index}.log", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let path = path.to_string_lossy().into_owned();
            let cfg = SweepConfig {
                shard: Some(Shard { index, count: 3 }),
                jobs: 2,
                checkpoint: Some(path.clone()),
                ..SweepConfig::default()
            };
            run_sweep_cfg(&plan, &cfg).expect("shard sweep runs");
            path
        })
        .collect();
    let merged = merge_logs(&plan, &logs).expect("shard logs merge").to_json().to_string();
    for path in &logs {
        let _ = std::fs::remove_file(path);
    }
    assert_eq!(merged, full, "3-shard merge must be byte-identical to the full run");
}

#[test]
fn a_panicking_point_leaves_the_rest_of_the_sweep_alive() {
    use oltp_chip_integration::sweep::{run_sweep_with, RunSpec, SweepConfig, SweepError};

    let plan = smoke_plan();
    let poison = plan.expand()[3].label();
    let exec = move |_: usize, spec: &RunSpec| -> Result<_, SweepError> {
        if spec.label() == poison {
            panic!("poisoned point");
        }
        // Failure isolation is about scheduling, not simulation: a
        // stub outcome keeps this test fast.
        Ok(oltp_chip_integration::sweep::RunOutcome {
            index: 0,
            label: spec.label(),
            seed: spec.seed,
            summary: oltp_chip_integration::sweep::RunSummary {
                cpi: 1.0,
                mpki: 0.0,
                l2_misses: 0,
                transactions: 0,
            },
            doc: oltp_chip_integration::obs::json::Json::obj([]),
        })
    };
    let cfg = SweepConfig {
        jobs: 4,
        retry: oltp_chip_integration::fault::RetryPolicy {
            max_retries: 1,
            backoff_base: 0,
            exponential: false,
            backoff_cap: 0,
        },
        ..SweepConfig::default()
    };
    let out = run_sweep_with(&plan, &cfg, &exec).expect("the sweep itself survives");
    assert_eq!(out.points.len(), plan.run_count());
    let failure = out.failures().next().expect("the poisoned point is recorded");
    assert_eq!(failure.attempts, 2);
    assert!(failure.error.contains("poisoned point"), "{}", failure.error);
    assert_eq!(
        out.points.iter().filter(|p| p.as_run().is_some()).count(),
        plan.run_count() - 1,
        "every other point must complete"
    );
}

/// Drives `fast` and a [`ReferenceCache`] of its geometry through an
/// identical operation stream over the lines below `2^line_bits`, and
/// compares every observable: probe results, eviction identities, and
/// the full statistics block.
fn differential_drive(mut fast: Cache, line_bits: u32, ops: u64, seed: u64) {
    let mut reference = ReferenceCache::new(fast.geometry());
    let mut rng = SimRng::seed_from_u64(seed);
    let top = (1u64 << line_bits) - 1;
    // A mix of page-local reuse and scatter, roughly like the workload:
    // ~2^14 hot lines, half of them mirrored to the top of the line bound
    // (where every high tag bit is set), plus a cold tail. The mirror bit
    // (39) is none of the class, write, op or invalidate bits, so lines
    // at the bound meet every operation, access and insert alike.
    let mut last = 0u64;
    for i in 0..ops {
        let r = rng.next_u64();
        let hot = r >> 40 & 0x3FFF;
        let line = match r % 8 {
            0..=4 if r >> 39 & 1 == 1 => top - hot, // hot set at the bound
            0..=4 => hot,                           // hot set, reused
            5 | 6 => (last + 1) & top,              // spatial neighbor
            _ => r >> 16 & top,                     // cold scatter
        };
        last = line;
        let write = r & 1 == 0;
        match r >> 1 & 0x3 {
            0..=1 => {
                assert_eq!(fast.access(line, write), reference.access(line, write), "op {i}");
            }
            2 => {
                // Both implementations only accept an insert after a miss
                // (debug-asserted); drive them the way the simulator does.
                assert_eq!(fast.contains(line), reference.contains(line), "insert at op {i}");
                if !reference.contains(line) {
                    let a: Option<Evicted> = fast.insert(line, write);
                    let b = reference.insert(line, write);
                    assert_eq!(a, b, "insert at op {i}");
                }
            }
            _ => {
                assert_eq!(fast.contains(line), reference.contains(line), "contains at op {i}");
                assert_eq!(fast.is_dirty(line), reference.is_dirty(line), "is_dirty at op {i}");
                if r >> 3 & 0xF == 0 {
                    assert_eq!(
                        fast.invalidate(line),
                        reference.invalidate(line),
                        "invalidate at op {i}"
                    );
                }
            }
        }
        if i % 4096 == 0 {
            assert_eq!(fast.occupancy(), reference.occupancy(), "occupancy at op {i}");
        }
    }
    assert_eq!(fast.stats(), reference.stats(), "final statistics diverge");
    assert_eq!(fast.occupancy(), reference.occupancy(), "final occupancy diverges");
    let mut a: Vec<u64> = fast.resident_lines().collect();
    let mut b: Vec<u64> = reference.resident_lines().collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "resident line sets diverge");
}

#[test]
fn optimized_cache_matches_reference_on_a_million_ops() {
    // Power-of-two geometries hit the mask fast path; each associativity
    // hits a different probe specialization (direct-mapped, 2-way, and
    // the branch-free scan used for 4-way and wider).
    for assoc in [1u32, 2, 4, 8] {
        let geometry = CacheGeometry::new(1 << 20, assoc, 64).expect("valid geometry");
        differential_drive(Cache::new(geometry), 48, 250_000, 0xD1FF + u64::from(assoc));
    }
}

#[test]
fn optimized_cache_matches_reference_on_non_power_of_two_geometry() {
    // The paper's 1.25 MB 4-way L2: 5120 sets — the reciprocal
    // multiply-shift set index (not a mask) that the power-of-two fast
    // path must not disturb.
    let geometry = CacheGeometry::new((5 << 20) / 4, 4, 64).expect("valid geometry");
    differential_drive(Cache::new(geometry), 48, 1_000_000, 0xBEEF);
}

#[test]
fn optimized_cache_matches_reference_on_non_power_of_two_direct_mapped() {
    // Non-power-of-two sets with assoc 1 and 8: the reciprocal index
    // composed with the two probe specializations the 4-way test above
    // does not reach.
    for (size, assoc, seed) in [(3u64 << 16, 1u32, 0xACE1u64), ((5 << 20) / 4, 8, 0xACE8)] {
        let geometry = CacheGeometry::new(size, assoc, 64).expect("valid geometry");
        differential_drive(Cache::new(geometry), 48, 250_000, seed);
    }
}

#[test]
fn optimized_cache_matches_reference_on_l1_and_rac_geometries() {
    // The simulator's 64K 2-way L1 and 8M 8-way RAC: the smallest and
    // the largest slot arrays it probes, each set one host cache line.
    for (size, assoc, seed) in [(64u64 << 10, 2u32, 0x11u64), (8 << 20, 8, 0x8AC)] {
        let geometry = CacheGeometry::new(size, assoc, 64).expect("valid geometry");
        differential_drive(Cache::new(geometry), 48, 250_000, seed);
    }
}

#[test]
fn narrow_caches_match_reference_up_to_the_simulators_line_bound() {
    // The caches the simulator builds with 32-bit slot words (4,096 or
    // more sets at its 42-bit line bound), driven up to the top of that
    // bound, where tags reach 2^30 - 1: the 2M8w L2 at exactly 4,096
    // sets, the 8M8w RAC, the 8M1w L2 and the non-power-of-two 1.25M4w
    // L2. Last, 2M8w at one bit more, wide by the same rule, whose top
    // tags need a 31st bit; and the 64K2w L1, wide at the bound.
    for (size, assoc, line_bits, seed) in [
        (2u64 << 20, 8u32, LINE_BITS, 0x2808u64),
        (8 << 20, 8, LINE_BITS, 0x8808),
        (8 << 20, 1, LINE_BITS, 0x8801),
        ((5 << 20) / 4, 4, LINE_BITS, 0x1254),
        (2 << 20, 8, LINE_BITS + 1, 0x2843),
        (64 << 10, 2, LINE_BITS, 0x6402),
    ] {
        let geometry = CacheGeometry::new(size, assoc, 64).expect("valid geometry");
        let fast = Cache::with_line_bits(geometry, line_bits);
        differential_drive(fast, line_bits, 250_000, seed);
    }
}

#[test]
fn optimized_cache_matches_reference_statistics_exactly() {
    // Separate tiny-geometry torture: high conflict pressure makes every
    // class of event (hit, miss, clean/dirty eviction) frequent.
    let geometry = CacheGeometry::new(16 << 10, 2, 64).expect("valid geometry");
    let mut fast = Cache::new(geometry);
    let mut reference = ReferenceCache::new(geometry);
    let mut rng = SimRng::seed_from_u64(7);
    for _ in 0..200_000 {
        let line = rng.next_u64() % 1024;
        let write = rng.next_u64() & 1 == 0;
        if !fast.access(line, write).is_hit() {
            fast.insert(line, write);
        }
        if !reference.access(line, write).is_hit() {
            reference.insert(line, write);
        }
    }
    let (f, r) = (fast.stats(), reference.stats());
    assert_eq!(f.hits, r.hits, "hits");
    assert_eq!(f.misses, r.misses, "misses");
    assert_eq!(f.evictions, r.evictions, "evictions");
    assert_eq!(f.dirty_evictions, r.dirty_evictions, "dirty evictions");
}
