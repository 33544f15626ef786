//! Where do the cycles go? The paper's analytical backbone is the
//! stacked breakdown figure: memory-stall time decomposed into
//! components per integration level. `csim-prof`'s attribution splits
//! every charged latency into per-component contributions (L1 probe, L2
//! array, directory, NoC hops, MC queue) with an exactness guarantee —
//! the components of each reference sum to exactly the cycles charged —
//! so this example regenerates the figure's shape directly from the
//! simulator: one stacked bar per integration level, normalized to the
//! first, plus the component-share table behind it.
//!
//! Run with: `cargo run --release --example prof_breakdown`
//! (writes `prof_breakdown.svg` next to the working directory)

use oltp_chip_integration::prelude::*;
use oltp_chip_integration::stats::svg;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let refs: u64 = std::env::var("REFS").ok().and_then(|v| v.parse().ok()).unwrap_or(600_000);
    let nodes = 4;
    let levels = [
        (IntegrationLevel::ConservativeBase, "cons"),
        (IntegrationLevel::Base, "base"),
        (IntegrationLevel::L2Integrated, "l2"),
        (IntegrationLevel::FullyIntegrated, "all"),
    ];

    let mut chart = BarChart::new("memory-stall cycle attribution by integration level");
    let mut table = TextTable::new(vec![
        "level",
        "total cycles",
        "l1-probe",
        "l2-array",
        "directory",
        "noc-hops",
        "mc-queue",
    ]);
    for (level, label) in levels {
        let mut b = SystemConfig::builder();
        b.nodes(nodes).integration(level);
        if level.l2_on_chip() {
            b.l2_sram(2 << 20, 8);
        } else {
            b.l2_off_chip(8 << 20, 1);
        }
        let cfg = b.build()?;
        let mut sim = Simulation::with_oltp(&cfg, OltpParams::default())?.with_attribution();
        sim.warm_up(refs / 2);
        sim.run(refs);
        let attr = sim.attribution().expect("attribution was enabled above");
        chart.push(attr.to_bar(label));
        let total = attr.total_cycles();
        let share = |c: Component| {
            if total == 0 {
                "-".to_string()
            } else {
                format!("{:.1}%", 100.0 * attr.component_cycles(c) as f64 / total as f64)
            }
        };
        table.row(vec![
            label.to_string(),
            total.to_string(),
            share(Component::L1Probe),
            share(Component::L2Array),
            share(Component::Directory),
            share(Component::NocHops),
            share(Component::McQueue),
        ]);
    }

    let chart = chart.normalized_to_first();
    println!("{}", chart.render(60));
    println!("{}", table.render());
    svg::write_file(&chart, "prof_breakdown.svg")?;
    println!("wrote prof_breakdown.svg");
    println!();
    println!("Integration pulls the directory, the memory controller and (for the");
    println!("fully-integrated design) the coherence hops on chip: the same figure");
    println!("shape as the paper's breakdowns, here reconstructed from the exact");
    println!("per-reference attribution rather than separate counters.");
    Ok(())
}
