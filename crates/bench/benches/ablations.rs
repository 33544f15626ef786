//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **Owner retention** — the mechanism behind the paper's 2-hop → 3-hop
//!    conversion: as caches grow, owners retain dirty lines longer and
//!    other nodes' misses find dirty data (3-hop) instead of clean data at
//!    the home (2-hop).
//! 2. **Associativity sweep** — extends the paper's 2 MB column to 16-way
//!    to show diminishing returns beyond 8-way.
//! 3. **Kernel share** — the workload's kernel fraction (~25% in the
//!    paper) and its sensitivity: halving/doubling kernel path lengths.

// Parameter structs are deliberately built as "defaults, then override".
#![allow(clippy::field_reassign_with_default)]

use csim_bench::{
    configs, exec_chart, finish_figure, meas_refs, meas_refs_mp, run_sweep, warm_refs,
    warm_refs_mp, Claim, Sweep,
};
use csim_core::Simulation;
use csim_stats::{Bar, BarChart};
use csim_trace::ExecMode;
use csim_trace::ReferenceStream;
use csim_workload::{OltpParams, OltpWorkload};

fn ablation_owner_retention() -> (BarChart, Vec<Claim>) {
    let sweep: Vec<Sweep> = [1u64, 2, 4, 8]
        .iter()
        .map(|&mb| Sweep::new(format!("{mb}M4w"), configs::base_off_chip(8, mb, 4)))
        .collect();
    let results = run_sweep(&sweep, warm_refs_mp(), meas_refs_mp());
    let mut chart = BarChart::new("dirty (3-hop) share of L2 misses vs cache size, 8 processors");
    let mut shares = Vec::new();
    for (label, rep) in &results {
        let share = rep.misses.data_remote_dirty as f64 / rep.misses.total().max(1) as f64;
        shares.push(share);
        chart.push(Bar::new(label.clone()).with("dirty-share-%", 100.0 * share));
    }
    let monotone = shares.windows(2).all(|w| w[1] >= w[0] - 0.02);
    let claims = vec![
        Claim::check(
            "owner retention: the dirty share of misses grows with cache size",
            monotone && shares.last() > shares.first(),
            shares.iter().map(|s| format!("{:.0}%", s * 100.0)).collect::<Vec<_>>().join(" -> "),
        ),
        Claim::check(
            "writebacks (which convert future 3-hops into 2-hops) shrink with cache size",
            results.first().map(|(_, r)| r.directory.writebacks).unwrap_or(0)
                > results.last().map(|(_, r)| r.directory.writebacks).unwrap_or(0),
            format!(
                "writebacks {} -> {}",
                results.first().map(|(_, r)| r.directory.writebacks).unwrap_or(0),
                results.last().map(|(_, r)| r.directory.writebacks).unwrap_or(0)
            ),
        ),
    ];
    (chart, claims)
}

fn ablation_associativity() -> (BarChart, Vec<Claim>) {
    let sweep: Vec<Sweep> = [1u32, 2, 4, 8, 16]
        .iter()
        .map(|&w| Sweep::new(format!("2M{w}w"), configs::l2_sram(1, 2, w)))
        .collect();
    let results = run_sweep(&sweep, warm_refs(), meas_refs());
    let chart =
        exec_chart("execution time vs 2MB on-chip L2 associativity, uniprocessor", &results);
    let cycles: Vec<f64> = results.iter().map(|(_, r)| r.breakdown.total_cycles()).collect();
    let gain_4_to_8 = cycles[2] / cycles[3];
    let gain_8_to_16 = cycles[3] / cycles[4];
    let claims = vec![
        Claim::check(
            "associativity beyond 8-way shows diminishing returns",
            gain_8_to_16 < gain_4_to_8 && gain_8_to_16 < 1.04,
            format!("4->8: {gain_4_to_8:.3}x, 8->16: {gain_8_to_16:.3}x"),
        ),
        Claim::check(
            "1-way to 4-way is the critical step (paper: below 4-way performance collapses)",
            cycles[0] / cycles[2] > 1.2,
            format!("{:.2}x", cycles[0] / cycles[2]),
        ),
    ];
    (chart, claims)
}

fn ablation_kernel_share() -> (BarChart, Vec<Claim>) {
    let mut chart = BarChart::new("kernel share of instructions vs kernel path-length scaling");
    let mut shares = Vec::new();
    for (label, scale) in [("half", 0.5), ("paper", 1.0), ("double", 2.0)] {
        let mut params = OltpParams::default();
        params.txn_pipe_instrs = (params.txn_pipe_instrs as f64 * scale) as u64;
        params.txn_commit_instrs = (params.txn_commit_instrs as f64 * scale) as u64;
        params.switch_instrs = (params.switch_instrs as f64 * scale) as u64;
        let mut nodes = OltpWorkload::build(params, 1).expect("valid params");
        let stream = &mut nodes[0];
        let (mut kernel, mut instrs) = (0u64, 0u64);
        for _ in 0..600_000 {
            let r = stream.next_ref();
            if r.access.is_instruction() {
                instrs += 1;
                if r.mode == ExecMode::Kernel {
                    kernel += 1;
                }
            }
        }
        let share = kernel as f64 / instrs as f64;
        shares.push(share);
        chart.push(Bar::new(label).with("kernel-%", 100.0 * share));
    }
    let claims = vec![
        Claim::check(
            "the default workload spends ~25% of instructions in the kernel (paper Section 2.2)",
            (0.17..=0.33).contains(&shares[1]),
            format!("{:.0}%", 100.0 * shares[1]),
        ),
        Claim::check(
            "kernel share responds monotonically to kernel path lengths",
            shares[0] < shares[1] && shares[1] < shares[2],
            format!(
                "{:.0}% / {:.0}% / {:.0}%",
                100.0 * shares[0],
                100.0 * shares[1],
                100.0 * shares[2]
            ),
        ),
    ];
    (chart, claims)
}

fn ablation_scheduling_interleave() -> (BarChart, Vec<Claim>) {
    // How much does time-sharing 8 server processes per CPU matter?
    // Compare the default against a single server per node (less L1/L2
    // pressure from interleaved footprints).
    let cfg = configs::base_off_chip(1, 8, 1);
    let mut chart = BarChart::new("effect of servers-per-node on CPI, uniprocessor Base");
    let mut cpis = Vec::new();
    for servers in [1usize, 4, 8] {
        let mut params = OltpParams::default();
        params.servers_per_node = servers;
        let mut sim = Simulation::with_oltp(&cfg, params).expect("valid params");
        sim.warm_up(warm_refs() / 2);
        let rep = sim.run(meas_refs() / 2);
        cpis.push(rep.breakdown.cpi());
        chart.push(Bar::new(format!("{servers} servers")).with("CPI", rep.breakdown.cpi()));
    }
    let claims = vec![Claim::check(
        "time-sharing more server processes increases memory pressure (CPI)",
        cpis[0] < cpis[2],
        format!("CPI {:.2} (1) vs {:.2} (8)", cpis[0], cpis[2]),
    )];
    (chart, claims)
}

fn main() {
    let (c1, cl1) = ablation_owner_retention();
    finish_figure("ablation_owner_retention", "2-hop to 3-hop conversion mechanism", &[&c1], &cl1);

    let (c2, cl2) = ablation_associativity();
    finish_figure(
        "ablation_associativity",
        "L2 associativity beyond the paper's sweep",
        &[&c2],
        &cl2,
    );

    let (c3, cl3) = ablation_kernel_share();
    finish_figure("ablation_kernel_share", "kernel activity share", &[&c3], &cl3);

    let (c4, cl4) = ablation_scheduling_interleave();
    finish_figure("ablation_scheduling", "process time-sharing pressure", &[&c4], &cl4);
}
