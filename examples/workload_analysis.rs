//! Workload analysis: profile the synthetic OLTP stream with Mattson
//! stack-distance analysis and show its cacheability curve — the paper's
//! "~2 MB cacheable footprint, then a communication/cold floor" shape,
//! without simulating any particular cache.
//!
//! Run with: `cargo run --release --example workload_analysis`

use csim_bench::StackDistance;
use oltp_chip_integration::prelude::*;
use oltp_chip_integration::workload::OltpWorkload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let refs: u64 =
        std::env::var("REFS").ok().and_then(|v| v.parse().ok()).unwrap_or(3_000_000);

    let mut nodes = OltpWorkload::build(OltpParams::default(), 1)?;
    let stream = &mut nodes[0];

    let mut all = StackDistance::new();
    let mut instr = StackDistance::new();
    let mut data = StackDistance::new();
    for _ in 0..refs {
        let r = stream.next_ref();
        let line = r.line_addr(64);
        all.visit(line);
        if r.access.is_instruction() {
            instr.visit(line);
        } else {
            data.visit(line);
        }
    }

    println!(
        "profiled {} references: {} distinct lines ({:.1} MB footprint)\n",
        all.accesses(),
        all.cold_misses(),
        all.cold_misses() as f64 * 64.0 / (1 << 20) as f64
    );

    let mut t = TextTable::new(vec!["LRU capacity", "miss ratio", "instr", "data"]);
    for k in 10..=18 {
        let lines = 1u64 << k;
        t.row(vec![
            format!("{:>4} KB", (lines * 64) >> 10),
            format!("{:.4}%", 100.0 * all.miss_ratio_at(lines)),
            format!("{:.4}%", 100.0 * instr.miss_ratio_at(lines)),
            format!("{:.4}%", 100.0 * data.miss_ratio_at(lines)),
        ]);
    }
    println!("{}", t.render());

    let knee_2mb = all.miss_ratio_at((2 << 20) / 64);
    let at_8mb = all.miss_ratio_at((8 << 20) / 64);
    println!(
        "cacheable-footprint check: a 2 MB fully-associative cache already\n\
         reaches within {:.0}% of the 8 MB miss ratio — the capacity the\n\
         paper found an on-chip L2 can realistically integrate.",
        100.0 * (knee_2mb - at_8mb) / at_8mb.max(1e-12)
    );
    Ok(())
}
