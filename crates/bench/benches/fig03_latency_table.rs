//! Figures 2 and 3: the base system parameters and the memory-latency
//! table for every integration level. These are configuration tables, not
//! measurements; this target prints them exactly as encoded in
//! `csim-config` so they can be compared against the paper line by line.

use csim_config::{
    IntegrationLevel, L2Kind, LatencyTable, SystemConfig, L1_ASSOC, L1_SIZE, LINE_SIZE, MP_NODES,
};
use csim_noc::{derive_latency_table, remote_dirty_path_description, TechParams, Torus2D};

fn main() {
    println!("==============================================================");
    println!("Figure 2: parameters for the Base system");
    println!("==============================================================");
    let base = SystemConfig::paper_base_uni();
    println!("Processor speed                      1 GHz");
    println!("Cache line size                      {} bytes", LINE_SIZE);
    println!("L1 data cache size (on-chip)         {} KB", L1_SIZE >> 10);
    println!("L1 data cache associativity          {}-way", L1_ASSOC);
    println!("L1 instruction cache size (on-chip)  {} KB", L1_SIZE >> 10);
    println!("L1 instruction cache associativity   {}-way", L1_ASSOC);
    println!("L2 cache size (off-chip)             {} MB", base.l2().geometry.size_bytes() >> 20);
    println!("L2 cache associativity               {}-way", base.l2().geometry.assoc());
    println!("Multiprocessor configuration         {} processors", MP_NODES);
    println!();
    println!("==============================================================");
    println!("Figure 3: memory latencies (cycles at 1 GHz = ns)");
    println!("==============================================================");
    println!("{}", LatencyTable::figure3_table());
    println!("Paper cross-checks (Section 2.3): full integration reduces");
    println!("L2 hit 1.67x, local 1.33x, remote 1.17x, remote dirty 1.38x");
    println!("relative to Base — encoded and unit-tested in csim-config.");
    println!();
    println!("==============================================================");
    println!("First-principles derivation (csim-noc, 8-node torus)");
    println!("==============================================================");
    let tech = TechParams::paper_018um();
    let torus = Torus2D::for_nodes(MP_NODES);
    println!(
        "{:<26} {:>6} {:>6} {:>7} {:>13}   (derived / paper)",
        "Configuration", "L2 Hit", "Local", "Remote", "Remote Dirty"
    );
    use IntegrationLevel::*;
    for level in [ConservativeBase, Base, L2Integrated, L2McIntegrated, FullyIntegrated] {
        let d = derive_latency_table(level, &tech, &torus);
        let kind = if level.l2_on_chip() { L2Kind::OnChipSram } else { L2Kind::OffChip };
        let p = LatencyTable::for_system(level, kind, 1);
        println!(
            "{:<26} {:>2}/{:<3} {:>3}/{:<3} {:>3}/{:<3} {:>6}/{:<6}",
            format!("{level:?}"),
            d.l2_hit,
            p.l2_hit,
            d.local,
            p.local,
            d.remote_clean,
            p.remote_clean,
            d.remote_dirty,
            p.remote_dirty
        );
    }
    println!();
    println!("Where a fully-integrated 3-hop miss spends its cycles:");
    println!("{}", remote_dirty_path_description(&tech, &torus));
}
