//! End-to-end reproduction checks: the paper's headline results must
//! emerge from moderate-length runs of the full stack. These use smaller
//! reference counts than the bench harnesses, so thresholds are loose;
//! the benches under `crates/bench/benches/` are the full reproduction.

#![allow(clippy::field_reassign_with_default)]

use oltp_chip_integration::prelude::*;

fn run(cfg: &SystemConfig, warm: u64, meas: u64) -> SimReport {
    let mut sim = Simulation::with_oltp(cfg, OltpParams::default()).unwrap();
    sim.warm_up(warm);
    sim.run(meas)
}

#[test]
fn uniprocessor_integration_buys_about_1_4x() {
    let base = run(&SystemConfig::paper_base_uni(), 1_500_000, 1_500_000);
    let integrated = run(&SystemConfig::paper_fully_integrated(1), 1_500_000, 1_500_000);
    let speedup = base.breakdown.total_cycles() / integrated.breakdown.total_cycles();
    assert!(
        (1.25..=1.65).contains(&speedup),
        "integration speedup {speedup:.2} outside the paper's ballpark (1.4x)"
    );
}

#[test]
fn small_associative_cache_beats_large_direct_mapped_on_misses() {
    let big_dm = run(&SystemConfig::paper_base_uni(), 2_000_000, 1_500_000);
    let small_assoc = {
        let cfg = SystemConfig::builder()
            .integration(IntegrationLevel::L2Integrated)
            .l2_sram(2 << 20, 8)
            .build()
            .unwrap();
        run(&cfg, 2_000_000, 1_500_000)
    };
    assert!(
        small_assoc.misses.total() < big_dm.misses.total(),
        "2M8w should miss less than 8M1w: {} vs {}",
        small_assoc.misses.total(),
        big_dm.misses.total()
    );
}

#[test]
fn uniprocessor_misses_are_all_local() {
    let rep = run(&SystemConfig::paper_base_uni(), 200_000, 200_000);
    assert_eq!(rep.misses.remote(), 0);
    assert_eq!(rep.breakdown.remote_cycles(), 0.0);
}

#[test]
fn multiprocessor_dirty_misses_dominate_with_big_caches() {
    let cfg = SystemConfig::builder().nodes(8).l2_off_chip(8 << 20, 4).build().unwrap();
    let rep = run(&cfg, 1_200_000, 800_000);
    let dirty_share = rep.misses.data_remote_dirty as f64 / rep.misses.total().max(1) as f64;
    assert!(dirty_share > 0.4, "3-hop share {dirty_share:.2} too low — the paper reports over 50%");
    // Remote stall dominates execution.
    assert!(rep.breakdown.remote_cycles() > rep.breakdown.local_cycles);
}

#[test]
fn instruction_replication_localizes_instruction_misses() {
    let mk = |repl: bool| {
        SystemConfig::builder()
            .nodes(4)
            .integration(IntegrationLevel::FullyIntegrated)
            .l2_sram(512 << 10, 2)
            .replicate_instructions(repl)
            .build()
            .unwrap()
    };
    let without = run(&mk(false), 400_000, 400_000);
    let with = run(&mk(true), 400_000, 400_000);
    let local_share = |r: &SimReport| r.misses.instr_local as f64 / r.misses.instr().max(1) as f64;
    assert!(local_share(&with) > 0.95, "replicated code must miss locally");
    assert!(local_share(&with) > local_share(&without));
}

#[test]
fn out_of_order_helps_but_preserves_relative_gains() {
    let base_io = run(&SystemConfig::paper_base_uni(), 1_000_000, 1_000_000);
    let base_ooo = {
        let cfg = SystemConfig::builder()
            .l2_off_chip(8 << 20, 1)
            .out_of_order(OooParams::paper())
            .build()
            .unwrap();
        run(&cfg, 1_000_000, 1_000_000)
    };
    let gain = base_io.breakdown.total_cycles() / base_ooo.breakdown.total_cycles();
    assert!((1.2..=1.6).contains(&gain), "uni OOO gain {gain:.2} not ~1.4x");
}

#[test]
fn identical_seeds_give_identical_reports() {
    let cfg = SystemConfig::paper_base_mp8();
    let a = run(&cfg, 50_000, 50_000);
    let b = run(&cfg, 50_000, 50_000);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_change_the_details_not_the_story() {
    let cfg = SystemConfig::paper_base_uni();
    let mut params = OltpParams::default();
    params.seed ^= 0xABCDEF;
    let mut sim_a = Simulation::with_oltp(&cfg, OltpParams::default()).unwrap();
    let mut sim_b = Simulation::with_oltp(&cfg, params).unwrap();
    sim_a.warm_up(800_000);
    sim_b.warm_up(800_000);
    let a = sim_a.run(800_000);
    let b = sim_b.run(800_000);
    assert_ne!(a.misses.total(), b.misses.total(), "different seeds should differ in detail");
    let rel = a.breakdown.cpi() / b.breakdown.cpi();
    assert!((0.9..1.1).contains(&rel), "CPI should be stable across seeds, ratio {rel:.3}");
}

#[test]
fn conservative_base_is_slower_for_multiprocessors() {
    let base = run(
        &SystemConfig::builder().nodes(8).l2_off_chip(8 << 20, 4).build().unwrap(),
        600_000,
        600_000,
    );
    let cons = run(
        &SystemConfig::builder()
            .nodes(8)
            .integration(IntegrationLevel::ConservativeBase)
            .l2_off_chip(8 << 20, 4)
            .build()
            .unwrap(),
        600_000,
        600_000,
    );
    assert!(cons.breakdown.total_cycles() > base.breakdown.total_cycles() * 1.05);
}

#[test]
fn transactions_flow_during_measurement() {
    let rep = run(&SystemConfig::paper_base_mp8(), 200_000, 400_000);
    assert!(rep.transactions > 50, "only {} transactions", rep.transactions);
}
