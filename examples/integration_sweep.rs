//! Integration sweep: walk the paper's Figure 10 on the 8-processor
//! machine — Base, L2 integrated, L2+MC integrated, fully integrated —
//! and show where the cycles go at each step.
//!
//! Run with: `cargo run --release --example integration_sweep`
//! (set `REFS=500000` for a faster, rougher pass).

use oltp_chip_integration::prelude::*;

fn refs() -> u64 {
    std::env::var("REFS").ok().and_then(|v| v.parse().ok()).unwrap_or(1_200_000)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let steps: Vec<(&str, SystemConfig)> = vec![
        ("Base", SystemConfig::builder().nodes(8).l2_off_chip(8 << 20, 1).build()?),
        (
            "L2",
            SystemConfig::builder()
                .nodes(8)
                .integration(IntegrationLevel::L2Integrated)
                .l2_sram(2 << 20, 8)
                .build()?,
        ),
        (
            "L2+MC",
            SystemConfig::builder()
                .nodes(8)
                .integration(IntegrationLevel::L2McIntegrated)
                .l2_sram(2 << 20, 8)
                .build()?,
        ),
        (
            "All",
            SystemConfig::builder()
                .nodes(8)
                .integration(IntegrationLevel::FullyIntegrated)
                .l2_sram(2 << 20, 8)
                .build()?,
        ),
    ];

    println!("Latency tables in effect (cycles):");
    println!("{:<8} {:>6} {:>6} {:>7} {:>13}", "step", "L2Hit", "Local", "Remote", "RemoteDirty");
    for (name, cfg) in &steps {
        let l = cfg.latencies();
        println!(
            "{name:<8} {:>6} {:>6} {:>7} {:>13}",
            l.l2_hit, l.local, l.remote_clean, l.remote_dirty
        );
    }
    println!();

    let mut chart = BarChart::new("Figure 10 walk: normalized execution time, 8 processors");
    let mut base_cycles = None;
    for (name, cfg) in &steps {
        let mut sim = Simulation::with_oltp(cfg, OltpParams::default())?;
        sim.warm_up(refs());
        let report = sim.run(refs());
        let total = report.breakdown.total_cycles();
        let base = *base_cycles.get_or_insert(total);
        println!(
            "{name:<8} speedup over Base {:.2}x | dirty 3-hop share of misses {:.0}%",
            base / total,
            100.0 * report.misses.data_remote_dirty as f64 / report.misses.total().max(1) as f64,
        );
        chart.push(report.exec_bar(*name));
    }
    println!("\n{}", chart.normalized_to_first().render(60));
    println!("The paper reports 1.2x from the L2 step and 1.43x for full integration.");
    Ok(())
}
