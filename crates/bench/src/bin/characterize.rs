//! Workload characterization report: the measurable counterpart of the
//! paper's Section 2 workload description. Profiles the synthetic OLTP
//! stream (no cache simulation involved) and reports instruction mix,
//! user/kernel split, footprints, sharing behavior across nodes, and the
//! stack-distance cacheability curve.
//!
//! Usage: `cargo run --release -p csim-bench --bin characterize [refs_per_node]`

#![forbid(unsafe_code)]
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::string_slice,
    reason = "a bench panic aborts a measurement"
)]

use std::collections::{BTreeMap, BTreeSet};

use csim_bench::StackDistance;
use csim_stats::TextTable;
use csim_trace::{Access, ExecMode, ReferenceStream};
use csim_workload::{OltpParams, OltpWorkload};

fn main() {
    let refs: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(2_000_000);
    let nodes = 4usize;
    let params = OltpParams::default();
    let mut streams = OltpWorkload::build(params.clone(), nodes).expect("valid params");

    let mut counts: BTreeMap<(Access, ExecMode), u64> = BTreeMap::new();
    let mut sd = StackDistance::new();
    let mut touched_by: BTreeMap<u64, u8> = BTreeMap::new(); // line -> node bitmap
    let mut written_by: BTreeMap<u64, u8> = BTreeMap::new();
    let mut per_node_footprint: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); nodes];

    for _ in 0..refs {
        for (n, stream) in streams.iter_mut().enumerate() {
            let r = stream.next_ref();
            *counts.entry((r.access, r.mode)).or_insert(0) += 1;
            let line = r.line_addr(64);
            if n == 0 {
                sd.visit(line);
            }
            *touched_by.entry(line).or_insert(0) |= 1 << n;
            if r.access.is_write() {
                *written_by.entry(line).or_insert(0) |= 1 << n;
            }
            per_node_footprint[n].insert(line);
        }
    }

    let total: u64 = counts.values().sum();
    let instrs: u64 = counts.iter().filter(|((a, _), _)| a.is_instruction()).map(|(_, c)| *c).sum();
    let kernel_instrs: u64 = counts
        .iter()
        .filter(|((a, m), _)| a.is_instruction() && *m == ExecMode::Kernel)
        .map(|(_, c)| *c)
        .sum();

    println!("== reference mix ({} nodes, {} refs/node) ==", nodes, refs);
    let mut t = TextTable::new(vec!["kind", "count", "share", "per instruction"]);
    for access in [Access::InstrFetch, Access::Load, Access::Store] {
        let c: u64 = counts.iter().filter(|((a, _), _)| *a == access).map(|(_, v)| *v).sum();
        t.row(vec![
            format!("{access:?}"),
            c.to_string(),
            format!("{:.1}%", 100.0 * c as f64 / total as f64),
            format!("{:.3}", c as f64 / instrs as f64),
        ]);
    }
    println!("{}", t.render());
    println!(
        "kernel share of instructions: {:.1}% (paper Section 2.2: ~25%)\n",
        100.0 * kernel_instrs as f64 / instrs as f64
    );

    println!("== footprints ==");
    let machine_lines = touched_by.len();
    println!(
        "machine-wide: {} lines ({:.1} MB); per node: {:.0} lines ({:.1} MB) average",
        machine_lines,
        machine_lines as f64 * 64.0 / (1 << 20) as f64,
        per_node_footprint.iter().map(|s| s.len()).sum::<usize>() as f64 / nodes as f64,
        per_node_footprint.iter().map(|s| s.len()).sum::<usize>() as f64 / nodes as f64 * 64.0
            / (1 << 20) as f64,
    );

    let shared_lines = touched_by.values().filter(|&&m| m.count_ones() > 1).count();
    let write_shared = written_by.values().filter(|&&m| m.count_ones() > 1).count();
    println!(
        "shared between nodes: {} lines ({:.1}% of footprint); write-shared: {} lines\n",
        shared_lines,
        100.0 * shared_lines as f64 / machine_lines.max(1) as f64,
        write_shared,
    );

    println!("== node-0 cacheability (Mattson stack distances) ==");
    let mut t = TextTable::new(vec!["fully-assoc LRU capacity", "miss ratio"]);
    for k in [512u64, 1024, 4096, 8192, 16384, 32768, 65536, 131072] {
        t.row(vec![
            format!("{} KB", k * 64 / 1024),
            format!("{:.4}%", 100.0 * sd.miss_ratio_at(k)),
        ]);
    }
    println!("{}", t.render());
    println!(
        "distinct lines at node 0: {} ({:.1} MB) — the knee of this curve is the\n\
         'cacheable footprint' the paper finds a 2 MB associative L2 captures.",
        sd.cold_misses(),
        sd.cold_misses() as f64 * 64.0 / (1 << 20) as f64
    );
}
