//! Figure 6: OLTP behavior with different off-chip L2 configurations,
//! 8 processors. Same sweep as Figure 5 on the 8-node CC-NUMA machine;
//! remote (2-hop) and dirty remote (3-hop) misses now appear.

use csim_bench::{
    configs, exec_chart, finish_figure, meas_refs_mp, miss_chart, normalized_totals, run_sweep,
    warm_refs_mp, Claim, Sweep,
};

fn main() {
    let mut sweep = Vec::new();
    for &assoc in &[1u32, 4] {
        for &mb in &[1u64, 2, 4, 8] {
            sweep.push(Sweep::new(format!("{mb}M{assoc}w"), configs::base_off_chip(8, mb, assoc)));
        }
    }
    sweep.push(Sweep::new("Cons-8M4w", configs::conservative(8, 8, 4)));

    let results = run_sweep(&sweep, warm_refs_mp(), meas_refs_mp());
    let exec = exec_chart("Figure 6 (left): normalized execution time, 8 processors", &results);
    let miss = miss_chart("Figure 6 (right): normalized L2 misses, 8 processors", &results);

    let e = normalized_totals(&results, false);
    let m = normalized_totals(&results, true);
    let idx = |label: &str| sweep.iter().position(|s| s.label == label).expect("label exists");
    let rep = |label: &str| &results[idx(label)].1;

    let dirty_share = |label: &str| {
        let r = rep(label);
        r.misses.data_remote_dirty as f64 / r.misses.total().max(1) as f64
    };
    let cold_share = |label: &str| {
        let r = rep(label);
        r.misses.cold as f64 / r.misses.total().max(1) as f64
    };

    let claims = vec![
        Claim::check(
            "a sizable number of misses remain even with large associative caches",
            m[idx("8M4w")] > 20.0,
            format!("8M4w normalized misses = {:.1}", m[idx("8M4w")]),
        ),
        Claim::check(
            "the majority of remaining misses are communication, ~10% cold",
            cold_share("8M4w") < 0.2,
            format!("cold share at 8M4w = {:.1}%", 100.0 * cold_share("8M4w")),
        ),
        Claim::check(
            "over 50% of 8M4w misses are dirty 3-hop misses",
            dirty_share("8M4w") > 0.5,
            format!("{:.0}%", 100.0 * dirty_share("8M4w")),
        ),
        Claim::check(
            "more effective caching converts 2-hop misses into 3-hop misses",
            rep("8M4w").misses.data_remote_dirty as f64 / rep("8M4w").breakdown.instructions as f64
                > rep("1M1w").misses.data_remote_dirty as f64
                    / rep("1M1w").breakdown.instructions as f64,
            format!(
                "dirty misses per kilo-instruction: {:.2} (1M1w) -> {:.2} (8M4w)",
                rep("1M1w").misses.data_remote_dirty as f64 * 1000.0
                    / rep("1M1w").breakdown.instructions as f64,
                rep("8M4w").misses.data_remote_dirty as f64 * 1000.0
                    / rep("8M4w").breakdown.instructions as f64
            ),
        ),
        Claim::check(
            "few misses are to local memory (data placement is hard, ~1-in-8)",
            {
                let r = rep("8M4w");
                let loc = (r.misses.instr_local + r.misses.data_local) as f64;
                loc / r.misses.total().max(1) as f64 <= 0.25
            },
            format!(
                "{:.0}% local",
                100.0 * (rep("8M4w").misses.instr_local + rep("8M4w").misses.data_local) as f64
                    / rep("8M4w").misses.total().max(1) as f64
            ),
        ),
        Claim::check(
            "the associative L2 always outperforms the same-size direct-mapped L2",
            e[idx("1M4w")] < e[idx("1M1w")]
                && e[idx("2M4w")] < e[idx("2M1w")]
                && e[idx("4M4w")] < e[idx("4M1w")],
            format!(
                "1M {:.1}<{:.1}, 2M {:.1}<{:.1}, 4M {:.1}<{:.1}",
                e[idx("1M4w")],
                e[idx("1M1w")],
                e[idx("2M4w")],
                e[idx("2M1w")],
                e[idx("4M4w")],
                e[idx("4M1w")]
            ),
        ),
        Claim::check(
            "at 8MB the two organizations perform virtually identically",
            (e[idx("8M4w")] - e[idx("8M1w")]).abs() < 6.0,
            format!("{:.1} vs {:.1}", e[idx("8M4w")], e[idx("8M1w")]),
        ),
        Claim::check(
            "multiprocessor performance is clearly sensitive to remote latencies (Cons slower)",
            e[idx("Cons-8M4w")] > e[idx("8M4w")] + 5.0,
            format!("{:.1} vs {:.1}", e[idx("Cons-8M4w")], e[idx("8M4w")]),
        ),
        Claim::check(
            "remote stall dominates execution at large cache sizes",
            {
                let r = rep("8M4w").breakdown;
                r.remote_cycles() > r.busy_cycles
                    && r.remote_cycles() > r.l2_hit_cycles
                    && r.remote_cycles() > r.local_cycles
            },
            format!(
                "remote = {:.0}% of time at 8M4w",
                100.0 * rep("8M4w").breakdown.remote_cycles()
                    / rep("8M4w").breakdown.total_cycles()
            ),
        ),
    ];

    finish_figure(
        "fig06",
        "off-chip L2 sweep, 8 processors (paper Figure 6)",
        &[&exec, &miss],
        &claims,
    );
}
