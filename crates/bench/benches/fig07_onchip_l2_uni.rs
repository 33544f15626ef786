//! Figure 7: impact of an on-chip (integrated) L2, uniprocessor. The
//! Base 8 MB direct-mapped off-chip L2 is compared against integrated
//! SRAM L2s (1M8w, 2M at 8/4/2/1-way) and an 8 MB 8-way embedded-DRAM L2.

use csim_bench::{
    comparison_table, configs, exec_chart, finish_figure, meas_refs, miss_chart, normalized_totals,
    run_sweep, warm_refs, Claim, Sweep,
};

fn main() {
    let sweep = vec![
        Sweep::new("8M1w-Base", configs::base_off_chip(1, 8, 1)),
        Sweep::new("1M8w", configs::l2_sram(1, 1, 8)),
        Sweep::new("2M8w", configs::l2_sram(1, 2, 8)),
        Sweep::new("2M4w", configs::l2_sram(1, 2, 4)),
        Sweep::new("2M2w", configs::l2_sram(1, 2, 2)),
        Sweep::new("2M1w", configs::l2_sram(1, 2, 1)),
        Sweep::new("8M8w-DRAM", configs::l2_dram(1, 8, 8)),
    ];

    let results = run_sweep(&sweep, warm_refs(), meas_refs());
    let exec = exec_chart("Figure 7 (left): normalized execution time, uniprocessor", &results);
    let miss = miss_chart("Figure 7 (right): normalized L2 misses, uniprocessor", &results);

    let e = normalized_totals(&results, false);
    let m = normalized_totals(&results, true);
    let idx = |label: &str| sweep.iter().position(|s| s.label == label).expect("label exists");

    let paper_miss: [(&str, Option<f64>); 7] = [
        ("8M1w-Base", Some(100.0)),
        ("1M8w", Some(182.0)),
        ("2M8w", Some(47.0)),
        ("2M4w", Some(78.0)),
        ("2M2w", Some(242.0)),
        ("2M1w", Some(396.0)),
        ("8M8w-DRAM", Some(14.0)),
    ];
    let rows: Vec<(&str, Option<f64>, f64)> =
        paper_miss.iter().map(|(l, p)| (*l, *p, m[idx(l)])).collect();
    println!("{}", comparison_table("normalized L2 misses", &rows).render());

    let speedup = e[idx("8M1w-Base")] / e[idx("2M8w")];
    let claims = vec![
        Claim::check(
            "a 2MB 4-way or 8-way on-chip cache incurs fewer misses than the external 8MB DM cache",
            m[idx("2M8w")] < 100.0 && m[idx("2M4w")] < 100.0,
            format!("2M8w {:.0}, 2M4w {:.0} vs 100", m[idx("2M8w")], m[idx("2M4w")]),
        ),
        Claim::check(
            "integrating the L2 yields over a 1.4x performance improvement",
            (1.3..=1.6).contains(&speedup),
            format!("{speedup:.2}x"),
        ),
        Claim::check(
            "even the 1MB 8-way on-chip cache performs better than the 8MB off-chip cache",
            e[idx("1M8w")] < 100.0,
            format!("{:.1} vs 100", e[idx("1M8w")]),
        ),
        Claim::check(
            "less than 4-way associativity leads to a major reduction in performance at 2MB",
            e[idx("2M2w")] > e[idx("2M4w")] * 1.08 && e[idx("2M1w")] > e[idx("2M2w")],
            format!(
                "2M4w {:.1} < 2M2w {:.1} < 2M1w {:.1}",
                e[idx("2M4w")],
                e[idx("2M2w")],
                e[idx("2M1w")]
            ),
        ),
        Claim::check(
            "the larger DRAM on-chip cache is not a good option for uniprocessors",
            e[idx("8M8w-DRAM")] > e[idx("2M8w")],
            format!("{:.1} vs {:.1}", e[idx("8M8w-DRAM")], e[idx("2M8w")]),
        ),
        Claim::check(
            "the 2MB 8-way on-chip cache eliminates virtually all local memory stall time",
            {
                let r = &results[idx("2M8w")].1.breakdown;
                r.local_cycles / r.total_cycles() < 0.2
            },
            format!(
                "{:.0}% of time",
                100.0 * results[idx("2M8w")].1.breakdown.local_cycles
                    / results[idx("2M8w")].1.breakdown.total_cycles()
            ),
        ),
    ];

    finish_figure(
        "fig07",
        "integrated on-chip L2, uniprocessor (paper Figure 7)",
        &[&exec, &miss],
        &claims,
    );
}
