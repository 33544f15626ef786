//! Property tests for the attribution accumulator, driven by the
//! workspace's deterministic RNG (mirrors `csim-obs`'s `hist_props.rs`):
//! across synthetic reference mixes, the per-reference split must be
//! exact (components sum to the charged cycles), and merging per-node
//! accumulators must be associative, commutative, and equal to
//! recording the union of all references — the algebra that lets
//! multi-node attribution be assembled in any order without drifting
//! from the observer's histogram totals.

use csim_obs::MissClass;
use csim_proc::StallClass;
use csim_prof::{Attribution, Component};
use csim_trace::SimRng;

/// One synthetic reference: a miss shape with a plausible base latency
/// and an actual latency that is sometimes fault-inflated, sometimes
/// injector-shortened, occasionally degenerate (0, 1).
fn draw_ref(rng: &mut SimRng) -> (StallClass, u64, u64) {
    let (shape, base) = match rng.gen_range(0..100) {
        0..=39 => (StallClass::L2Hit, 15 + rng.gen_range(0..20)),
        40..=69 => (StallClass::Local, 60 + rng.gen_range(0..120)),
        70..=89 => (StallClass::RemoteClean, 300 + rng.gen_range(0..300)),
        _ => (StallClass::RemoteDirty, 500 + rng.gen_range(0..400)),
    };
    let actual = match rng.gen_range(0..10) {
        0 => base + rng.gen_range(0..50_000), // NACK-backoff inflated
        1 => base / 2,                        // injector shortened
        2 => rng.gen_range(0..2),             // degenerate
        _ => base,
    };
    (shape, base, actual)
}

fn record_all(refs: &[(StallClass, u64, u64)], l2_hit: u64) -> Attribution {
    let mut attr = Attribution::new(l2_hit);
    for &(shape, base, actual) in refs {
        attr.record(MissClass::from_stall(shape), shape, base, actual);
    }
    attr
}

#[test]
fn every_split_is_exact_across_reference_mixes() {
    for seed in [3u64, 99, 20_260_808] {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut attr = Attribution::new(22);
        let mut expected_total: u128 = 0;
        let mut expected_count = 0u64;
        for _ in 0..20_000 {
            let (shape, base, actual) = draw_ref(&mut rng);
            attr.record(MissClass::from_stall(shape), shape, base, actual);
            expected_total += u128::from(actual);
            expected_count += 1;
        }
        assert_eq!(attr.total_cycles(), expected_total, "seed {seed}: cycles leaked");
        assert_eq!(
            MissClass::ALL.iter().map(|&c| attr.class_count(c)).sum::<u64>(),
            expected_count,
            "seed {seed}: counts leaked"
        );
        // Per-class totals are the component sums, so they reconcile
        // exactly, reference by reference.
        for class in MissClass::ALL {
            let by_component: u128 =
                Component::ALL.iter().map(|&comp| attr.cell(class, comp)).sum();
            assert_eq!(by_component, attr.class_cycles(class), "seed {seed} class {class:?}");
        }
    }
}

#[test]
fn merge_is_associative_commutative_and_equals_the_union() {
    for seed in [11u64, 4242] {
        let mut rng = SimRng::seed_from_u64(seed);
        let refs: Vec<(StallClass, u64, u64)> = (0..6_000).map(|_| draw_ref(&mut rng)).collect();

        // Split the stream across three "nodes" round-robin.
        let node = |k: usize| -> Vec<(StallClass, u64, u64)> {
            refs.iter().copied().skip(k).step_by(3).collect()
        };
        let (a, b, c) =
            (record_all(&node(0), 22), record_all(&node(1), 22), record_all(&node(2), 22));
        let whole = record_all(&refs, 22);

        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let mut right_inner = b.clone();
        right_inner.merge(&c);
        let mut right = a.clone();
        right.merge(&right_inner);
        // c + b + a
        let mut reversed = c.clone();
        reversed.merge(&b);
        reversed.merge(&a);

        assert_eq!(left, whole, "seed {seed}: merge must equal recording the union");
        assert_eq!(left, right, "seed {seed}: merge must be associative");
        assert_eq!(left, reversed, "seed {seed}: merge must be commutative");
        assert_eq!(left.to_json().to_string(), whole.to_json().to_string());
    }
}

#[test]
fn merging_an_empty_accumulator_is_identity() {
    let mut rng = SimRng::seed_from_u64(8);
    let refs: Vec<(StallClass, u64, u64)> = (0..1_000).map(|_| draw_ref(&mut rng)).collect();
    let whole = record_all(&refs, 22);
    let mut merged = whole.clone();
    merged.merge(&Attribution::new(22));
    assert_eq!(merged, whole);
    // The split parameter is part of the accumulator's identity: merging
    // must carry it through untouched.
    assert_eq!(merged.l2_hit_latency(), 22);
    let mut from_empty = Attribution::new(22);
    from_empty.merge(&whole);
    assert_eq!(from_empty, whole);
}

#[test]
fn nack_cycles_stay_pure_fault_extra_under_merging() {
    let mut a = Attribution::new(22);
    let mut b = Attribution::new(22);
    let mut rng = SimRng::seed_from_u64(77);
    let mut total = 0u128;
    for _ in 0..500 {
        let cycles = rng.gen_range(1..10_000);
        if cycles.is_multiple_of(2) {
            a.record_nack(cycles)
        } else {
            b.record_nack(cycles)
        }
        total += u128::from(cycles);
    }
    a.merge(&b);
    assert_eq!(a.class_cycles(MissClass::NackRetry), total);
    assert_eq!(a.cell(MissClass::NackRetry, Component::FaultExtra), total);
    for comp in Component::ALL {
        if comp != Component::FaultExtra {
            assert_eq!(a.cell(MissClass::NackRetry, comp), 0, "{comp:?} must stay empty");
        }
    }
}
