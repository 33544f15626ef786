//! Figure 11: impact of a remote access cache (RAC) on the L2 miss mix,
//! with and without OS-based instruction-page replication — 8 processors,
//! fully integrated design, 1 MB 4-way on-chip L2, 8 MB 8-way RAC.

use csim_bench::{
    configs, finish_figure, meas_refs_mp, miss_chart, run_sweep, warm_refs_mp, Claim, Sweep,
};

fn main() {
    let sweep = vec![
        Sweep::new("NoRAC", configs::fully_integrated(8, 4, 4, false, false)),
        Sweep::new("RAC", configs::fully_integrated(8, 4, 4, true, false)),
        Sweep::new("NoRAC+IRepl", configs::fully_integrated(8, 4, 4, false, true)),
        Sweep::new("RAC+IRepl", configs::fully_integrated(8, 4, 4, true, true)),
    ];

    let results = run_sweep(&sweep, warm_refs_mp(), meas_refs_mp());
    let miss =
        miss_chart("Figure 11: L2 miss mix with/without RAC and instruction replication", &results);

    let idx = |l: &str| sweep.iter().position(|s| s.label == l).expect("label");
    let rep = |l: &str| &results[idx(l)].1;

    let total = |l: &str| rep(l).misses.total() as f64;
    let rac_rate_norepl = rep("RAC").rac.hit_rate();
    let rac_rate_repl = rep("RAC+IRepl").rac.hit_rate();
    let inval_frac = |l: &str| {
        let d = rep(l).directory;
        d.invalidating_writes as f64 / d.write_misses.max(1) as f64
    };

    let claims = vec![
        Claim::check(
            "the RAC changes the mix but not the total number of L2 misses",
            (total("RAC") - total("NoRAC")).abs() / total("NoRAC") < 0.03,
            format!("{:.0} vs {:.0}", total("RAC"), total("NoRAC")),
        ),
        Claim::check(
            "without replication the RAC hit rate is ~42%",
            (0.30..=0.60).contains(&rac_rate_norepl),
            format!("{:.0}%", 100.0 * rac_rate_norepl),
        ),
        Claim::check(
            "instruction replication drops the RAC hit rate to ~30%",
            rac_rate_repl < rac_rate_norepl && (0.18..=0.48).contains(&rac_rate_repl),
            format!("{:.0}%", 100.0 * rac_rate_repl),
        ),
        Claim::check(
            "with the RAC, virtually all instruction misses are satisfied locally",
            {
                let m = rep("RAC").misses;
                m.instr_local as f64 / m.instr().max(1) as f64 > 0.8
            },
            format!(
                "{:.0}% of instruction misses local",
                100.0 * rep("RAC").misses.instr_local as f64
                    / rep("RAC").misses.instr().max(1) as f64
            ),
        ),
        Claim::check(
            "replication alone already makes instruction misses local",
            {
                let m = rep("NoRAC+IRepl").misses;
                m.instr_local as f64 / m.instr().max(1) as f64 > 0.95
            },
            format!(
                "{:.0}%",
                100.0 * rep("NoRAC+IRepl").misses.instr_local as f64
                    / rep("NoRAC+IRepl").misses.instr().max(1) as f64
            ),
        ),
        Claim::check(
            "the RAC increases the number of remote dirty (3-hop) misses",
            rep("RAC+IRepl").misses.data_remote_dirty > rep("NoRAC+IRepl").misses.data_remote_dirty,
            format!(
                "{} vs {}",
                rep("RAC+IRepl").misses.data_remote_dirty,
                rep("NoRAC+IRepl").misses.data_remote_dirty
            ),
        ),
        Claim::check(
            "the RAC increases the fraction of writes that send invalidations (~1-in-6 to ~1-in-3)",
            inval_frac("RAC+IRepl") > inval_frac("NoRAC+IRepl"),
            format!("{:.2} -> {:.2}", inval_frac("NoRAC+IRepl"), inval_frac("RAC+IRepl")),
        ),
    ];

    finish_figure(
        "fig11",
        "RAC effect on miss mix, 1M4w L2, 8 processors (paper Figure 11)",
        &[&miss],
        &claims,
    );
}
