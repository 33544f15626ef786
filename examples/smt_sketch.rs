//! SMT sketch: the paper's other future-work pointer (Lo et al.) is
//! simultaneous multithreading. A full SMT timing model is out of scope,
//! but the *memory-system* side — several hardware contexts sharing one
//! core's L1s and L2 — is directly measurable here: interleave several
//! OLTP process streams into a single cache hierarchy at a fine quantum
//! and watch what context interference does to miss rates.
//!
//! Run with: `cargo run --release --example smt_sketch`

use oltp_chip_integration::prelude::*;
use oltp_chip_integration::trace::InterleavedStream;
use oltp_chip_integration::workload::OltpWorkload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let refs: u64 = std::env::var("REFS").ok().and_then(|v| v.parse().ok()).unwrap_or(1_500_000);
    let cfg = SystemConfig::paper_fully_integrated(1);

    let mut t = TextTable::new(vec!["contexts", "L1I miss/instr", "L1D miss rate", "L2 mpki"]);
    for contexts in [1usize, 2, 4] {
        // Each hardware context runs an independent OLTP stream; the
        // interleave quantum of ~8 references approximates cycle-level
        // SMT fetch interleaving.
        let streams = OltpWorkload::build(OltpParams::default(), contexts)?;
        let merged = InterleavedStream::new(streams, 8);
        let mut sim = Simulation::try_new(&cfg, vec![merged]).expect("one stream per core");
        sim.warm_up(refs / 2);
        let rep = sim.run(refs);
        t.row(vec![
            contexts.to_string(),
            format!("{:.2}%", 100.0 * rep.l1i.misses as f64 / rep.breakdown.instructions as f64),
            format!("{:.2}%", 100.0 * rep.l1d.miss_ratio()),
            format!("{:.2}", rep.mpki()),
        ]);
    }
    println!("{}", t.render());
    println!("Context interference raises L1 (and to a lesser degree L2) pressure —");
    println!("the cache-side cost SMT pays for the latency-hiding the paper cites");
    println!("Lo et al. for. A throughput model would weigh this against the");
    println!("stall overlap across contexts.");
    Ok(())
}
