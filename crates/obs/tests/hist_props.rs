//! Property tests for the log-bucketed latency histogram, driven by the
//! workspace's deterministic RNG: across several synthetic latency
//! distributions, every reported quantile must sit within one bucket's
//! relative error (`2^-precision`) of the exact order statistic computed
//! from the sorted samples, and merging per-node histograms in any order
//! must equal recording the union of all samples.

use csim_obs::{LatencyHistogram, DEFAULT_PRECISION, REPORT_QUANTILES};
use csim_trace::SimRng;

/// Exact order statistic matching `LatencyHistogram::quantile`'s rank
/// convention: the `ceil(q * n)`-th smallest sample (1-indexed).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    if q >= 1.0 {
        return *sorted.last().unwrap();
    }
    let rank = ((q.max(0.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Asserts `est` is within one bucket of `exact`: never below it, and at
/// most `2^-precision` above in relative terms (exact for values small
/// enough to land in unit-width buckets).
fn assert_within_one_bucket(est: u64, exact: u64, q: f64, dist: &str) {
    assert!(est >= exact, "{dist} q={q}: estimate {est} below exact {exact}");
    let unit = 1u64 << DEFAULT_PRECISION;
    if exact < unit {
        assert_eq!(est, exact, "{dist} q={q}: sub-{unit} values have exact buckets");
    } else {
        let rel = (est - exact) as f64 / exact as f64;
        let bound = 1.0 / unit as f64;
        assert!(rel <= bound, "{dist} q={q}: estimate {est} vs exact {exact} (rel {rel:.4})");
    }
}

type Draw = Box<dyn FnMut(&mut SimRng) -> u64>;

/// The synthetic latency distributions: name + one draw.
fn distributions() -> Vec<(&'static str, Draw)> {
    vec![
        ("uniform-wide", Box::new(|r: &mut SimRng| r.gen_range(1..2_000_000))),
        ("uniform-narrow", Box::new(|r: &mut SimRng| r.gen_range(180..230))),
        // Roughly the simulator's miss-latency mix: a few fixed service
        // classes plus occasional NACK-inflated outliers.
        (
            "miss-mix",
            Box::new(|r: &mut SimRng| match r.gen_range(0..100) {
                0..=49 => 15,
                50..=79 => 75,
                80..=94 => 150,
                95..=98 => 200,
                _ => 200 + r.gen_range(0..40_000),
            }),
        ),
        // Heavy tail: latency = 2^k with k geometric-ish.
        (
            "power-of-two-tail",
            Box::new(|r: &mut SimRng| {
                let k = (r.next_u64().trailing_ones()).min(40);
                (1u64 << k) + r.gen_range(0..(1u64 << k))
            }),
        ),
        // Exponential via inverse CDF, scaled to cycles.
        (
            "exponential",
            Box::new(|r: &mut SimRng| {
                let u = r.gen_f64().max(1e-12);
                (-u.ln() * 300.0) as u64 + 1
            }),
        ),
    ]
}

#[test]
fn quantiles_are_within_one_bucket_of_exact_across_distributions() {
    for (seed, n) in [(1u64, 10_000usize), (42, 50_000), (7_777, 3_001)] {
        for (name, mut draw) in distributions() {
            let mut rng = SimRng::seed_from_u64(seed ^ name.len() as u64);
            let mut h = LatencyHistogram::new();
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                let v = draw(&mut rng);
                h.record(v);
                samples.push(v);
            }
            samples.sort_unstable();
            assert_eq!(h.count(), n as u64);
            assert_eq!(h.min(), samples[0]);
            assert_eq!(h.max(), *samples.last().unwrap());
            for &(_, q) in &REPORT_QUANTILES {
                assert_within_one_bucket(h.quantile(q), exact_quantile(&samples, q), q, name);
            }
            assert_eq!(h.quantile(1.0), h.max(), "{name}: q=1 is the exact maximum");
        }
    }
}

#[test]
fn quantiles_are_monotone_in_q() {
    let mut rng = SimRng::seed_from_u64(99);
    let mut h = LatencyHistogram::new();
    for _ in 0..20_000 {
        h.record(rng.gen_range(1..500_000));
    }
    let mut prev = 0u64;
    for i in 0..=100 {
        let q = i as f64 / 100.0;
        let v = h.quantile(q);
        assert!(v >= prev, "quantile not monotone at q={q}: {v} < {prev}");
        prev = v;
    }
}

#[test]
fn merging_per_node_histograms_in_any_order_equals_the_union() {
    const NODES: usize = 8;
    let mut rng = SimRng::seed_from_u64(2_024);
    let mut per_node = vec![LatencyHistogram::new(); NODES];
    let mut union = LatencyHistogram::new();
    for _ in 0..30_000 {
        let node = rng.gen_range_usize(0..NODES);
        let v = match rng.gen_range(0..3) {
            0 => rng.gen_range(1..64),
            1 => rng.gen_range(64..10_000),
            _ => rng.gen_range(10_000..5_000_000),
        };
        per_node[node].record(v);
        union.record(v);
    }

    // Left fold in node order.
    let mut forward = LatencyHistogram::new();
    for h in &per_node {
        forward.merge(h);
    }
    // Reverse order (commutativity across the whole fold).
    let mut backward = LatencyHistogram::new();
    for h in per_node.iter().rev() {
        backward.merge(h);
    }
    // Pairwise tree ((0+1)+(2+3))+((4+5)+(6+7)) (associativity).
    let mut pairs: Vec<LatencyHistogram> = per_node
        .chunks(2)
        .map(|c| {
            let mut m = c[0].clone();
            m.merge(&c[1]);
            m
        })
        .collect();
    while pairs.len() > 1 {
        pairs = pairs
            .chunks(2)
            .map(|c| {
                let mut m = c[0].clone();
                m.merge(&c[1]);
                m
            })
            .collect();
    }

    assert_eq!(forward, union, "node-order fold differs from the union histogram");
    assert_eq!(backward, union, "reverse fold differs from the union histogram");
    assert_eq!(pairs[0], union, "pairwise tree differs from the union histogram");
}

#[test]
fn merge_with_empty_is_identity() {
    let mut rng = SimRng::seed_from_u64(5);
    let mut h = LatencyHistogram::new();
    for _ in 0..1_000 {
        h.record(rng.gen_range(1..10_000));
    }
    let before = h.clone();
    h.merge(&LatencyHistogram::new());
    assert_eq!(h, before);
    let mut empty = LatencyHistogram::new();
    empty.merge(&before);
    assert_eq!(empty, before);
}
