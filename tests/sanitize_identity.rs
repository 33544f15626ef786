//! End-to-end guarantees of the runtime coherence sanitizer, exercised
//! through the public facade:
//!
//! * the zero-overhead contract — a run's `SimReport` is bit-identical
//!   whether the sanitizer is absent or enabled, for the same seed;
//! * a full OLTP run on the paper's configurations cross-checks clean
//!   against the executable protocol spec;
//! * the sanitizer composes with strict mode and the observer without
//!   perturbing either.

use oltp_chip_integration::prelude::*;

const WARM: u64 = 10_000;
const MEAS: u64 = 20_000;

/// One measured run of an 8-node fully-integrated system.
fn run_one(seed: u64, sanitize: bool) -> (SimReport, Simulation) {
    let cfg = SystemConfig::paper_fully_integrated(8);
    let params = OltpParams { seed, ..OltpParams::default() };
    let mut sim = Simulation::with_oltp(&cfg, params).expect("valid config");
    if sanitize {
        sim.set_sanitize(true);
    }
    sim.warm_up(WARM);
    let report = sim.run(MEAS);
    (report, sim)
}

#[test]
fn sanitized_run_is_bit_identical_to_plain_run() {
    for seed in [1, 42] {
        let (plain, _) = run_one(seed, false);
        let (sanitized, sim) = run_one(seed, true);
        assert_eq!(plain, sanitized, "seed {seed}: --sanitize must not perturb the simulation");
        sim.verify_sanitizer().expect("paper configuration runs spec-clean");
        assert!(
            sim.sanitizer_checks().is_some_and(|c| c > 0),
            "the identity must not come from the sanitizer silently not running"
        );
    }
}

#[test]
fn sanitizer_composes_with_strict_mode_and_observer() {
    let cfg = SystemConfig::paper_base_mp8();
    let mut sim = Simulation::with_oltp(&cfg, OltpParams::default()).expect("valid config");
    sim.set_sanitize(true);
    sim.set_observer(Observer::new(ObsConfig {
        histograms: true,
        epoch: Some(1_000),
        trace: None,
    }));
    sim.warm_up(WARM);
    let rep = sim.run_verified(MEAS, 2_000).expect("coherent and spec-conformant");
    assert_eq!(rep.refs_per_node, MEAS);
    sim.verify_sanitizer().expect("shadow audit passes at end of run");
}

#[test]
fn sanitizer_covers_rac_heavy_configurations() {
    // A small off-chip L2 plus the paper's RAC maximizes parking and
    // refetching — the transitions a naive shadow would get wrong.
    let mut b = SystemConfig::builder();
    b.nodes(4)
        .integration(IntegrationLevel::FullyIntegrated)
        .l2_sram(256 << 10, 4)
        .rac(RacConfig::paper());
    let cfg = b.build().expect("valid config");
    let mut sim = Simulation::with_oltp(&cfg, OltpParams::default()).expect("valid config");
    sim.set_sanitize(true);
    sim.warm_up(WARM);
    sim.run(MEAS);
    sim.verify_sanitizer().expect("RAC transitions conform to the spec");
    let checks = sim.sanitizer_checks().unwrap_or(0);
    assert!(checks > 10_000, "expected heavy directory traffic, saw {checks} checks");
}
