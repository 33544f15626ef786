//! Closing the loop between the network model and the simulator: replace
//! the paper's published latency table with the one `csim-noc` derives
//! from technology and topology parameters, and check the headline
//! integration result still reproduces. This guards against the
//! reproduction silently depending on the exact published numbers.

use oltp_chip_integration::noc::{
    derive_latency_table, local_path, remote_clean_path, TechParams, Torus2D,
};
use oltp_chip_integration::prelude::*;

#[test]
fn latency_table_matches_its_path_decomposition() {
    // The table the simulator consumes must be exactly the rounded
    // totals of the per-segment message paths it is documented to come
    // from -- otherwise the path descriptions in figure output drift
    // from the latencies actually simulated.
    let tech = TechParams::paper_018um();
    let torus = Torus2D::for_nodes(8);
    for level in [
        IntegrationLevel::Base,
        IntegrationLevel::L2Integrated,
        IntegrationLevel::L2McIntegrated,
        IntegrationLevel::FullyIntegrated,
    ] {
        let table = derive_latency_table(level, &tech, &torus);
        assert_eq!(table.local, local_path(level, &tech).total().round() as u64);
        assert_eq!(
            table.remote_clean,
            remote_clean_path(level, &tech, &torus).total().round() as u64
        );
    }
}

fn run_with(cfg: &SystemConfig, warm: u64, meas: u64) -> f64 {
    let mut sim = Simulation::with_oltp(cfg, OltpParams::default()).unwrap();
    sim.warm_up(warm);
    sim.run(meas).breakdown.total_cycles()
}

#[test]
fn integration_gain_survives_derived_latencies() {
    let tech = TechParams::paper_018um();
    let torus = Torus2D::for_nodes(8);

    let base = {
        let lat = derive_latency_table(IntegrationLevel::Base, &tech, &torus);
        SystemConfig::builder().nodes(8).l2_off_chip(8 << 20, 1).latencies(lat).build().unwrap()
    };
    let full = {
        let lat = derive_latency_table(IntegrationLevel::FullyIntegrated, &tech, &torus);
        SystemConfig::builder()
            .nodes(8)
            .integration(IntegrationLevel::FullyIntegrated)
            .l2_sram(2 << 20, 8)
            .latencies(lat)
            .build()
            .unwrap()
    };

    let (warm, meas) = (700_000, 700_000);
    let gain = run_with(&base, warm, meas) / run_with(&full, warm, meas);
    assert!(
        (1.25..=1.6).contains(&gain),
        "full-integration gain {gain:.2}x with derived latencies left the paper's ballpark (1.43x)"
    );
}

#[test]
fn derived_and_published_tables_agree_on_performance() {
    // Same configuration, published vs derived latencies: execution time
    // must agree within the derivation's ~7% latency tolerance.
    let tech = TechParams::paper_018um();
    let torus = Torus2D::for_nodes(8);
    let published = SystemConfig::paper_fully_integrated(8);
    let derived_cfg = SystemConfig::builder()
        .nodes(8)
        .integration(IntegrationLevel::FullyIntegrated)
        .l2_sram(2 << 20, 8)
        .latencies(derive_latency_table(IntegrationLevel::FullyIntegrated, &tech, &torus))
        .build()
        .unwrap();

    let (warm, meas) = (600_000, 600_000);
    let a = run_with(&published, warm, meas);
    let b = run_with(&derived_cfg, warm, meas);
    let rel = (a - b).abs() / a;
    assert!(rel < 0.08, "published vs derived execution time differ by {:.1}%", rel * 100.0);
}
