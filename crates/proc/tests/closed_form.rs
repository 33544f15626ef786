//! The in-order core's closed-form retire, checked against its
//! definition.
//!
//! `InOrderTiming::retire_instructions(n)` replaces `n` calls of
//! `retire_instruction` with one `busy_cycles += n as f64`. Its doc
//! comment argues the two give the same bits while the accumulator is
//! an integer-valued f64 and `busy_cycles + n < 2^53`. This test draws
//! states inside that bound from the workspace's deterministic
//! [`SimRng`] and compares the two paths bit for bit.

use csim_proc::{ExecBreakdown, InOrderTiming, TimingModel};
use csim_trace::SimRng;

/// Retires `n` instructions one at a time and in one batch from the
/// same start, and requires identical `instructions` and
/// `busy_cycles` bits.
fn check(start: ExecBreakdown, n: u64) {
    let mut timing = InOrderTiming::new();
    let mut stepped = start;
    for _ in 0..n {
        timing.retire_instruction(&mut stepped);
    }
    let mut batched = start;
    timing.retire_instructions(n, &mut batched);
    assert_eq!(batched.instructions, stepped.instructions, "start {start:?}, n {n}");
    assert_eq!(
        batched.busy_cycles.to_bits(),
        stepped.busy_cycles.to_bits(),
        "start {start:?}, n {n}: batched {} vs stepped {}",
        batched.busy_cycles,
        stepped.busy_cycles
    );
}

#[test]
fn batched_retire_matches_unit_retires_bit_for_bit() {
    let mut rng = SimRng::seed_from_u64(0x00C1_05ED);
    for case in 0..96 {
        let start = ExecBreakdown {
            instructions: rng.gen_range(0..1 << 52),
            busy_cycles: rng.gen_range(0..1 << 52) as f64,
            ..ExecBreakdown::default()
        };
        // Half the runs are short, as the dispatch loop's repeat-fetch
        // runs are; the rest span the whole range below 2^20.
        let n = if case % 2 == 0 { rng.gen_range(0..64) } else { rng.gen_range(0..1 << 20) };
        check(start, n);
    }
}

#[test]
fn the_bound_edges_keep_the_closed_form_exact() {
    for busy in [0.0, 1.0, ((1u64 << 52) - 1) as f64, (1u64 << 52) as f64] {
        for n in [0, 1, 2, (1 << 20) - 1] {
            check(ExecBreakdown { busy_cycles: busy, ..ExecBreakdown::default() }, n);
        }
    }
}
