//! Property tests of the workload engine: determinism, address-space
//! discipline, and distribution sanity under parameter variation.
//! Cases are generated by the workspace's deterministic [`SimRng`]
//! (no external crates).

#![allow(clippy::field_reassign_with_default)]

use csim_trace::{ReferenceStream, SimRng};
use csim_workload::{AddressMap, OltpParams, OltpWorkload, Region, ZipfTable, ADDR_BITS};

#[test]
fn streams_stay_inside_the_physical_address_space() {
    let mut rng = SimRng::seed_from_u64(0xADD2);
    for _ in 0..8 {
        let seed = rng.next_u64();
        let nodes = rng.gen_range_usize(1..5);
        let mut params = OltpParams::default();
        params.seed = seed;
        let mut streams = OltpWorkload::build(params, nodes).unwrap();
        for s in &mut streams {
            for _ in 0..5_000 {
                let r = s.next_ref();
                assert!(r.addr < 1 << ADDR_BITS, "address {:#x} out of range", r.addr);
            }
        }
    }
}

#[test]
fn identical_seeds_are_bitwise_deterministic() {
    let mut rng = SimRng::seed_from_u64(0xDE7);
    for _ in 0..4 {
        let seed = rng.next_u64();
        let run = || {
            let mut params = OltpParams::default();
            params.seed = seed;
            let mut streams = OltpWorkload::build(params, 2).unwrap();
            let mut collected = Vec::new();
            for _ in 0..2_000 {
                collected.push(streams[0].next_ref());
                collected.push(streams[1].next_ref());
            }
            collected
        };
        assert_eq!(run(), run());
    }
}

#[test]
fn parameter_scaling_does_not_break_the_generator() {
    let mut rng = SimRng::seed_from_u64(0x5CA1E);
    for _ in 0..12 {
        let mut params = OltpParams::default();
        params.txn_db_instrs = rng.gen_range(1_000..30_000);
        params.servers_per_node = rng.gen_range_usize(1..12);
        params.meta_hot_lines = rng.gen_range(256..8192);
        params.validate().unwrap();
        let mut streams = OltpWorkload::build(params, 1).unwrap();
        for _ in 0..20_000 {
            let _ = streams[0].next_ref();
        }
    }
}

#[test]
fn zipf_sampling_is_monotone_in_the_draw() {
    let mut rng = SimRng::seed_from_u64(0x21FF);
    for _ in 0..50 {
        let n = rng.gen_range(1..5_000);
        let s = rng.gen_f64() * 2.0;
        let z = ZipfTable::new(n, s);
        let mut last = 0;
        for i in 0..=100u64 {
            // 101 evenly spaced 53-bit draws, the last one the largest.
            let draw = i * (((1u64 << 53) - 1) / 100);
            let idx = z.sample_u53(draw);
            assert!(idx >= last, "sampling must be monotone in the draw");
            assert!(idx < n);
            last = idx;
        }
    }
}

#[test]
fn address_map_regions_never_alias_within_a_region() {
    // Within one region, distinct line indices map to distinct
    // physical addresses (pages may collide across regions with
    // vanishing probability, but never within one).
    let mut rng = SimRng::seed_from_u64(0xA11A5);
    for _ in 0..10 {
        let map = AddressMap::new(rng.next_u64());
        let region_pages = rng.gen_range(1..64);
        let mut seen = std::collections::BTreeSet::new();
        for line in 0..region_pages * 128 {
            let addr = map.line_addr(Region::MetaHot, line);
            assert!(seen.insert(addr), "line {line} aliased within MetaHot");
        }
    }
}
