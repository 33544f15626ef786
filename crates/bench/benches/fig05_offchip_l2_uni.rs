//! Figure 5: OLTP behavior with different off-chip L2 configurations,
//! uniprocessor. Sweeps the external L2 from 1 MB to 8 MB at 1-way and
//! 4-way, plus the Conservative Base with an 8 MB 4-way L2, and prints
//! the paper's two charts (normalized execution time, normalized L2
//! misses).

use csim_bench::{
    comparison_table, configs, exec_chart, finish_figure, meas_refs, miss_chart, normalized_totals,
    run_sweep, warm_refs, Claim, Sweep,
};

fn main() {
    let mut sweep = Vec::new();
    for &assoc in &[1u32, 4] {
        for &mb in &[1u64, 2, 4, 8] {
            sweep.push(Sweep::new(format!("{mb}M{assoc}w"), configs::base_off_chip(1, mb, assoc)));
        }
    }
    sweep.push(Sweep::new("Cons-8M4w", configs::conservative(1, 8, 4)));

    let results = run_sweep(&sweep, warm_refs(), meas_refs());
    let exec = exec_chart("Figure 5 (left): normalized execution time, uniprocessor", &results);
    let miss = miss_chart("Figure 5 (right): normalized L2 misses, uniprocessor", &results);

    let e = normalized_totals(&results, false);
    let m = normalized_totals(&results, true);
    let idx = |label: &str| sweep.iter().position(|s| s.label == label).expect("label exists");

    // Paper bar heights as read from the figure (miss chart; the DM and
    // 4-way columns are disambiguated by cross-checking against Figure 7
    // and the prose claims).
    let paper_miss: [(&str, Option<f64>); 9] = [
        ("1M1w", Some(100.0)),
        ("2M1w", Some(58.0)),
        ("4M1w", Some(32.0)),
        ("8M1w", Some(14.0)),
        ("1M4w", Some(43.0)),
        ("2M4w", Some(11.0)),
        ("4M4w", Some(3.0)),
        ("8M4w", Some(2.0)),
        ("Cons-8M4w", Some(2.0)),
    ];
    let rows: Vec<(&str, Option<f64>, f64)> =
        paper_miss.iter().map(|(l, p)| (*l, *p, m[idx(l)])).collect();
    println!("{}", comparison_table("normalized L2 misses", &rows).render());

    let reduction = m[idx("1M1w")] / m[idx("8M4w")].max(1e-9);
    let claims = vec![
        Claim::check(
            "going from 1M1w to 8M4w cuts L2 misses ~50x",
            (20.0..=90.0).contains(&reduction),
            format!("{reduction:.0}x"),
        ),
        Claim::check(
            "a 2MB 4-way L2 has fewer misses than an 8MB direct-mapped L2",
            m[idx("2M4w")] < m[idx("8M1w")],
            format!("{:.1} vs {:.1}", m[idx("2M4w")], m[idx("8M1w")]),
        ),
        Claim::check(
            "miss stall time is over 50% of execution at 1M1w",
            {
                let r = &results[idx("1M1w")].1;
                (r.breakdown.local_cycles + r.breakdown.remote_cycles())
                    / r.breakdown.total_cycles()
                    > 0.5
            },
            {
                let r = &results[idx("1M1w")].1;
                format!(
                    "{:.0}%",
                    100.0 * (r.breakdown.local_cycles + r.breakdown.remote_cycles())
                        / r.breakdown.total_cycles()
                )
            },
        ),
        Claim::check(
            "4-way outperforms same-size direct-mapped at 1MB and 2MB",
            e[idx("1M4w")] < e[idx("1M1w")] && e[idx("2M4w")] < e[idx("2M1w")],
            format!(
                "1M: {:.1} vs {:.1}; 2M: {:.1} vs {:.1}",
                e[idx("1M4w")],
                e[idx("1M1w")],
                e[idx("2M4w")],
                e[idx("2M1w")]
            ),
        ),
        Claim::check(
            "at 8MB the direct-mapped L2 is at least as fast (faster hits win)",
            e[idx("8M1w")] <= e[idx("8M4w")] * 1.03,
            format!("{:.1} vs {:.1}", e[idx("8M1w")], e[idx("8M4w")]),
        ),
        Claim::check(
            "performance is insensitive to local latency with a big associative L2 (Cons ~ Base)",
            (e[idx("Cons-8M4w")] - e[idx("8M4w")]).abs() < 8.0,
            format!("{:.1} vs {:.1}", e[idx("Cons-8M4w")], e[idx("8M4w")]),
        ),
        Claim::check(
            "L2 hit time grows as caches get larger or more associative",
            {
                let small = &results[idx("1M1w")].1.breakdown;
                let large = &results[idx("8M4w")].1.breakdown;
                large.l2_hit_cycles / large.instructions as f64
                    > small.l2_hit_cycles / small.instructions as f64
            },
            "L2-hit CPI rises with cache size".to_string(),
        ),
    ];

    finish_figure(
        "fig05",
        "off-chip L2 sweep, uniprocessor (paper Figure 5)",
        &[&exec, &miss],
        &claims,
    );
}
