//! Figure 13: impact of integrating L2, MC and CC/NR with out-of-order
//! processors. The paper's finding: a 4-wide OOO core gains ~1.4x
//! (uniprocessor) / ~1.3x (multiprocessor) over in-order in absolute
//! terms, but the *relative* benefits of chip-level integration are
//! virtually identical for the two processor models.

use csim_bench::{
    configs, exec_chart, finish_figure, meas_refs, meas_refs_mp, normalized_totals, run_sweep,
    warm_refs, warm_refs_mp, Claim, Sweep,
};

fn main() {
    let uni = vec![
        Sweep::new("Base-InOrder", configs::base_off_chip(1, 8, 1)),
        Sweep::new("Base-OOO", configs::with_ooo(&configs::base_off_chip(1, 8, 1))),
        Sweep::new("L2-OOO", configs::with_ooo(&configs::l2_sram(1, 2, 8))),
        Sweep::new("L2+MC-OOO", configs::with_ooo(&configs::l2_mc(1, 2, 8))),
        // For the in-order/OOO relative-gain comparison we also need the
        // in-order integrated point.
        Sweep::new("L2-InOrder", configs::l2_sram(1, 2, 8)),
    ];
    let mp = vec![
        Sweep::new("Base-InOrder", configs::base_off_chip(8, 8, 1)),
        Sweep::new("Base-OOO", configs::with_ooo(&configs::base_off_chip(8, 8, 1))),
        Sweep::new("L2-OOO", configs::with_ooo(&configs::l2_sram(8, 2, 8))),
        Sweep::new("L2+MC-OOO", configs::with_ooo(&configs::l2_mc(8, 2, 8))),
        Sweep::new("All-OOO", configs::with_ooo(&configs::fully_integrated(8, 8, 8, false, false))),
        Sweep::new("All-InOrder", configs::fully_integrated(8, 8, 8, false, false)),
    ];

    let uni_results = run_sweep(&uni, warm_refs(), meas_refs());
    let mp_results = run_sweep(&mp, warm_refs_mp(), meas_refs_mp());

    // The paper normalizes to the Base OOO bar; keep the display sweep to
    // the bars the figure shows.
    let uni_disp: Vec<_> = uni_results.iter().filter(|(l, _)| l != "L2-InOrder").cloned().collect();
    let mp_disp: Vec<_> = mp_results.iter().filter(|(l, _)| l != "All-InOrder").cloned().collect();
    let uni_chart =
        exec_chart("Figure 13 (left): uniprocessor (first bar = in-order Base)", &uni_disp);
    let mp_chart =
        exec_chart("Figure 13 (right): 8 processors (first bar = in-order Base)", &mp_disp);

    let eu = normalized_totals(&uni_results, false);
    let em = normalized_totals(&mp_results, false);
    let iu = |l: &str| uni.iter().position(|s| s.label == l).expect("label");
    let im = |l: &str| mp.iter().position(|s| s.label == l).expect("label");

    let uni_ooo_gain = eu[iu("Base-InOrder")] / eu[iu("Base-OOO")];
    let mp_ooo_gain = em[im("Base-InOrder")] / em[im("Base-OOO")];
    let uni_rel_ooo = eu[iu("Base-OOO")] / eu[iu("L2-OOO")];
    let uni_rel_inorder = eu[iu("Base-InOrder")] / eu[iu("L2-InOrder")];
    let mp_rel_ooo = em[im("Base-OOO")] / em[im("All-OOO")];
    let mp_rel_inorder = em[im("Base-InOrder")] / em[im("All-InOrder")];

    let claims = vec![
        Claim::check(
            "4-issue OOO gains about 1.4x over in-order for the uniprocessor",
            (1.25..=1.55).contains(&uni_ooo_gain),
            format!("{uni_ooo_gain:.2}x"),
        ),
        Claim::check(
            "OOO gains are smaller (~1.3x) for the multiprocessor (remote misses are harder to hide)",
            (1.15..=1.45).contains(&mp_ooo_gain) && mp_ooo_gain < uni_ooo_gain,
            format!("{mp_ooo_gain:.2}x vs uni {uni_ooo_gain:.2}x"),
        ),
        Claim::check(
            "uniprocessor: relative L2-integration gain is virtually identical for both cores",
            (uni_rel_ooo / uni_rel_inorder - 1.0).abs() < 0.07,
            format!("OOO {uni_rel_ooo:.2}x vs in-order {uni_rel_inorder:.2}x"),
        ),
        Claim::check(
            "multiprocessor: relative full-integration gain is virtually identical for both cores",
            (mp_rel_ooo / mp_rel_inorder - 1.0).abs() < 0.07,
            format!("OOO {mp_rel_ooo:.2}x vs in-order {mp_rel_inorder:.2}x"),
        ),
        Claim::check(
            "uniprocessor: MC integration on top of L2 has virtually no impact for OOO too",
            (eu[iu("L2+MC-OOO")] - eu[iu("L2-OOO")]).abs() < 3.0,
            format!("{:.1} vs {:.1}", eu[iu("L2+MC-OOO")], eu[iu("L2-OOO")]),
        ),
    ];

    finish_figure(
        "fig13",
        "integration with out-of-order processors (paper Figure 13)",
        &[&uni_chart, &mp_chart],
        &claims,
    );
}
