//! Extension experiment: chip multiprocessing (CMP).
//!
//! The paper's concluding remark: once integration has cut memory
//! latencies, "the next logical step seems to be to tolerate the
//! remaining latencies by exploiting the inherent thread-level
//! parallelism in OLTP through techniques such as chip multiprocessing".
//! This experiment holds the total core count at 8 and folds cores onto
//! fewer fully-integrated chips (8x1, 4x2, 2x4, 1x8), each chip's cores
//! sharing its 2 MB 8-way on-chip L2. Sharing moves on-chip: misses that
//! were 2-hop/3-hop network transactions become shared-L2 hits.

use csim_bench::{finish_figure, meas_refs_mp, run_sweep, warm_refs_mp, Claim, Sweep};
use csim_config::{IntegrationLevel, SystemConfig};
use csim_stats::BarChart;

fn main() {
    let mut sweep = Vec::new();
    for &(chips, cores) in &[(8usize, 1usize), (4, 2), (2, 4), (1, 8)] {
        let mut b = SystemConfig::builder();
        b.nodes(chips)
            .cores_per_node(cores)
            .integration(IntegrationLevel::FullyIntegrated)
            .l2_sram(2 << 20, 8);
        sweep.push(Sweep::new(format!("{chips}chips x {cores}cores"), b.build().unwrap()));
    }

    let results = run_sweep(&sweep, warm_refs_mp(), meas_refs_mp());

    // All configurations run 8 cores for the same per-core reference
    // count, so aggregate cycles are directly comparable.
    let mut chart =
        BarChart::new("CMP extension: normalized execution time, 8 cores total, fully integrated");
    for (label, rep) in &results {
        chart.push(rep.exec_bar(label.clone()));
    }
    let chart = chart.normalized_to_first();

    let mut miss_chart = BarChart::new("CMP extension: normalized L2 misses");
    for (label, rep) in &results {
        miss_chart.push(rep.miss_bar(label.clone()));
    }
    let miss_chart = miss_chart.normalized_to_first();

    let cycles: Vec<f64> = results.iter().map(|(_, r)| r.breakdown.total_cycles()).collect();
    let remote: Vec<u64> = results.iter().map(|(_, r)| r.misses.remote()).collect();
    let dirty: Vec<u64> = results.iter().map(|(_, r)| r.misses.data_remote_dirty).collect();

    let claims = vec![
        Claim::check(
            "folding cores onto fewer chips removes communication (3-hop) misses monotonically",
            dirty.windows(2).all(|w| w[1] < w[0]),
            format!(
                "3-hop misses: {dirty:?} (2-hop+3-hop: {remote:?} — 2-hop can \
                     rise at intermediate points from shared-L2 capacity pressure)"
            ),
        ),
        Claim::check(
            "a single-chip 8-core CMP eliminates dirty remote misses entirely",
            *dirty.last().unwrap_or(&1) == 0,
            format!("3-hop misses: {dirty:?}"),
        ),
        Claim::check(
            "CMP improves aggregate OLTP performance at equal core count",
            cycles.last().unwrap_or(&1.0) < cycles.first().unwrap_or(&0.0),
            format!(
                "8x1 -> 1x8 speedup {:.2}x",
                cycles.first().unwrap_or(&0.0) / cycles.last().unwrap_or(&1.0)
            ),
        ),
        Claim::check(
            "the CMP tradeoff is real: one shared L2 takes all cores' capacity pressure \
             (total misses rise), but cheap local misses still win",
            {
                let first = &results.first().expect("sweep nonempty").1;
                let last = &results.last().expect("sweep nonempty").1;
                last.misses.total() > first.misses.total()
                    && last.breakdown.total_cycles() < first.breakdown.total_cycles()
            },
            format!(
                "misses {} -> {}, cycles {:.2e} -> {:.2e}",
                results.first().expect("sweep nonempty").1.misses.total(),
                results.last().expect("sweep nonempty").1.misses.total(),
                results.first().expect("sweep nonempty").1.breakdown.total_cycles(),
                results.last().expect("sweep nonempty").1.breakdown.total_cycles()
            ),
        ),
    ];

    finish_figure(
        "extension_cmp",
        "chip multiprocessing (paper Section 9 future work)",
        &[&chart, &miss_chart],
        &claims,
    );
}
