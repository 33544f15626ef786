//! Calibration probe: runs the key configurations of the paper and prints
//! the raw numbers the figures are built from, so workload parameters can
//! be tuned against the paper's reported shapes.
//!
//! Usage: `cargo run --release -p csim-bench --bin calibrate [warm] [run]`
//! (references per node, defaults 2M / 4M).

#![forbid(unsafe_code)]
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::string_slice,
    reason = "a bench panic aborts a measurement"
)]

use csim_config::{IntegrationLevel, SystemConfig};
use csim_core::{SimReport, Simulation};
use csim_stats::TextTable;
use csim_workload::OltpParams;

fn run(cfg: &SystemConfig, warm: u64, meas: u64) -> SimReport {
    let mut sim = Simulation::with_oltp(cfg, OltpParams::default()).expect("valid workload");
    sim.warm_up(warm);
    sim.run(meas)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let warm: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2_000_000);
    let meas: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4_000_000);
    eprintln!("warm={warm} meas={meas} refs/node");

    let mut uni_cfgs: Vec<(String, SystemConfig)> = Vec::new();
    for &(mb, assoc) in &[(1u64, 1u32), (2, 1), (4, 1), (8, 1), (1, 4), (2, 4), (4, 4), (8, 4)] {
        let mut b = SystemConfig::builder();
        b.l2_off_chip(mb << 20, assoc);
        uni_cfgs.push((format!("{mb}M{assoc}w"), b.build().unwrap()));
    }
    for &(mb, assoc) in &[(1u64, 8u32), (2, 8), (2, 4), (2, 2), (2, 1)] {
        let mut b = SystemConfig::builder();
        b.integration(IntegrationLevel::L2Integrated).l2_sram(mb << 20, assoc);
        uni_cfgs.push((format!("int-{mb}M{assoc}w"), b.build().unwrap()));
    }
    {
        let mut b = SystemConfig::builder();
        b.integration(IntegrationLevel::L2Integrated).l2_dram(8 << 20, 8);
        uni_cfgs.push(("int-8M8w-DRAM".into(), b.build().unwrap()));
    }

    let handles: Vec<_> = uni_cfgs
        .into_iter()
        .map(|(label, cfg)| std::thread::spawn(move || (label, run(&cfg, warm, meas))))
        .collect();

    let mut t = TextTable::new(vec![
        "uni config",
        "misses",
        "mpki",
        "cpi",
        "cpu%",
        "l2hit%",
        "loc%",
        "l1i-m%",
        "l1d-m%",
        "txns",
    ]);
    let mut first_misses = None;
    for h in handles {
        let (label, rep) = h.join().expect("calibration thread panicked");
        let total = rep.breakdown.total_cycles();
        let fm = *first_misses.get_or_insert(rep.misses.total().max(1));
        let instrs = rep.breakdown.instructions as f64;
        t.row(vec![
            label,
            format!(
                "{} ({:.1})",
                rep.misses.total(),
                100.0 * rep.misses.total() as f64 / fm as f64
            ),
            format!("{:.3}", rep.mpki()),
            format!("{:.2}", rep.breakdown.cpi()),
            format!("{:.1}", 100.0 * rep.breakdown.busy_cycles / total),
            format!("{:.1}", 100.0 * rep.breakdown.l2_hit_cycles / total),
            format!("{:.1}", 100.0 * rep.breakdown.local_cycles / total),
            format!("{:.2}", 100.0 * rep.l1i.misses as f64 / instrs),
            format!("{:.2}", 100.0 * rep.l1d.misses as f64 / instrs),
            format!("{}", rep.transactions),
        ]);
    }
    println!("{}", t.render());

    // Multiprocessor probes.
    let mut mp_cfgs: Vec<(String, SystemConfig)> = Vec::new();
    for &(mb, assoc) in &[(1u64, 1u32), (8, 1), (4, 4), (8, 4)] {
        let mut b = SystemConfig::builder();
        b.nodes(8).l2_off_chip(mb << 20, assoc);
        mp_cfgs.push((format!("mp-{mb}M{assoc}w"), b.build().unwrap()));
    }
    {
        let mut b = SystemConfig::builder();
        b.nodes(8).integration(IntegrationLevel::L2Integrated).l2_sram(2 << 20, 8);
        mp_cfgs.push(("mp-L2int-2M8w".into(), b.build().unwrap()));
        let mut b = SystemConfig::builder();
        b.nodes(8).integration(IntegrationLevel::FullyIntegrated).l2_sram(2 << 20, 8);
        mp_cfgs.push(("mp-All-2M8w".into(), b.build().unwrap()));
    }
    let handles: Vec<_> = mp_cfgs
        .into_iter()
        .map(|(label, cfg)| std::thread::spawn(move || (label, run(&cfg, warm, meas / 2))))
        .collect();

    let mut t = TextTable::new(vec![
        "mp config",
        "misses",
        "cpi",
        "cpu%",
        "l2hit%",
        "loc%",
        "rem2%",
        "rem3%",
        "3hop/miss",
        "cold%",
        "mpki",
    ]);
    let mut first = None;
    for h in handles {
        let (label, rep) = h.join().expect("mp thread panicked");
        let total = rep.breakdown.total_cycles();
        let m = rep.misses;
        let fm = *first.get_or_insert(m.total().max(1));
        t.row(vec![
            label,
            format!("{} ({:.1})", m.total(), 100.0 * m.total() as f64 / fm as f64),
            format!("{:.2}", rep.breakdown.cpi()),
            format!("{:.1}", 100.0 * rep.breakdown.busy_cycles / total),
            format!("{:.1}", 100.0 * rep.breakdown.l2_hit_cycles / total),
            format!("{:.1}", 100.0 * rep.breakdown.local_cycles / total),
            format!("{:.1}", 100.0 * rep.breakdown.remote_clean_cycles / total),
            format!("{:.1}", 100.0 * rep.breakdown.remote_dirty_cycles / total),
            format!("{:.2}", m.data_remote_dirty as f64 / m.total().max(1) as f64),
            format!("{:.1}", 100.0 * m.cold as f64 / m.total().max(1) as f64),
            format!("{:.3}", rep.mpki()),
        ]);
    }
    println!("{}", t.render());
    extra_probes(warm, meas / 2);
}

fn extra_probes(warm: u64, meas: u64) {
    use csim_config::{OooParams, RacConfig};
    // --- OOO vs in-order (fig13) ---
    let mut rows = Vec::new();
    type OooCase = (&'static str, usize, IntegrationLevel, (u64, u32, bool));
    let cases: [OooCase; 5] = [
        ("uni-base", 1, IntegrationLevel::Base, (8 << 20, 1, false)),
        ("uni-L2", 1, IntegrationLevel::L2Integrated, (2 << 20, 8, true)),
        ("mp-base", 8, IntegrationLevel::Base, (8 << 20, 1, false)),
        ("mp-L2", 8, IntegrationLevel::L2Integrated, (2 << 20, 8, true)),
        ("mp-all", 8, IntegrationLevel::FullyIntegrated, (2 << 20, 8, true)),
    ];
    for (label, nodes, int, l2) in cases {
        let (size, assoc, sram) = l2;
        let mk = |ooo: bool| {
            let mut b = SystemConfig::builder();
            b.nodes(nodes).integration(int);
            if sram {
                b.l2_sram(size, assoc);
            } else {
                b.l2_off_chip(size, assoc);
            }
            if ooo {
                b.out_of_order(OooParams::paper());
            }
            b.build().unwrap()
        };
        let inord = run(&mk(false), warm, meas);
        let ooo = run(&mk(true), warm, meas);
        rows.push((
            label.to_string(),
            inord.breakdown.total_cycles(),
            ooo.breakdown.total_cycles(),
        ));
    }
    println!("OOO speedups (paper: uni 1.4x, mp 1.3x; integration gains identical):");
    for (label, io, oo) in &rows {
        println!("  {label}: in-order/OOO = {:.3}", io / oo);
    }

    // --- RAC (fig11/12) ---
    println!("RAC probes (paper: hit rate 42% no-repl, ~30% repl; exec gain 4.3% at 1M4w):");
    for &(l2_mb, l2_assoc, repl, rac) in &[
        (1u64, 4u32, false, false),
        (1, 4, false, true),
        (1, 4, true, false),
        (1, 4, true, true),
        (2, 8, true, false),
        (2, 8, true, true),
    ] {
        let mut b = SystemConfig::builder();
        b.nodes(8)
            .integration(IntegrationLevel::FullyIntegrated)
            .l2_sram(l2_mb << 20, l2_assoc)
            .replicate_instructions(repl);
        if rac {
            b.rac(RacConfig::paper());
        }
        let cfg = b.build().unwrap();
        let rep = run(&cfg, warm, meas);
        println!(
            "  {}M{}w repl={} rac={}: cycles={:.3e} misses={} rac_hit_rate={:.2} dirty={} loc={} rem2={}",
            l2_mb, l2_assoc, repl, rac,
            rep.breakdown.total_cycles(), rep.misses.total(), rep.rac.hit_rate(),
            rep.misses.data_remote_dirty, rep.misses.data_local + rep.misses.instr_local,
            rep.misses.data_remote_clean + rep.misses.instr_remote,
        );
    }
}
