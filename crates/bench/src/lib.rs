//! Experiment scaffolding for regenerating the paper's tables and figures.
//!
//! Each bench target under `benches/` (run via `cargo bench -p csim-bench
//! --bench figXX_...`) rebuilds one figure of the paper: it constructs the
//! figure's configuration sweep, simulates each configuration on the
//! synthetic OLTP workload, prints the paper-style normalized stacked
//! bars, checks the figure's headline claims, and writes a CSV under
//! `target/release/results/` (or `CSIM_RESULTS`).
//!
//! Reference counts per node come from environment variables:
//! `CSIM_WARM` / `CSIM_MEAS` for uniprocessor sweeps (defaults 3M / 4M)
//! and `CSIM_WARM_MP` / `CSIM_MEAS_MP` for multiprocessor sweeps
//! (defaults 2.5M / 2M). Every paper claim holds at the defaults, and a
//! figure whose claim misses fails its bench process.
//!
//! [`ReferenceCache`] is the seed's cache kernel, kept here as the
//! differential oracle and speed baseline for [`csim_cache::Cache`].
//! [`StackDistance`] is the Mattson stack-distance profiler behind the
//! `characterize` bin's and the `workload_analysis` example's
//! cacheability curves.

#![forbid(unsafe_code)]
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::string_slice,
    reason = "a bench panic aborts a measurement"
)]

mod reference;
mod stack_distance;

use std::io::Write as _;
use std::path::PathBuf;

use csim_config::SystemConfig;
use csim_core::{SimReport, Simulation};
use csim_stats::{BarChart, TextTable};
use csim_workload::OltpParams;

pub use reference::ReferenceCache;
pub use stack_distance::StackDistance;

/// A labeled configuration in a figure's sweep.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Bar label (paper notation, e.g. `2M8w`).
    pub label: String,
    /// The configuration to simulate.
    pub config: SystemConfig,
}

impl Sweep {
    /// Convenience constructor.
    pub fn new(label: impl Into<String>, config: SystemConfig) -> Self {
        Sweep { label: label.into(), config }
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Warmup references per node for uniprocessor sweeps.
pub fn warm_refs() -> u64 {
    env_u64("CSIM_WARM", 3_000_000)
}

/// Measured references per node for uniprocessor sweeps.
pub fn meas_refs() -> u64 {
    env_u64("CSIM_MEAS", 4_000_000)
}

/// Warmup references per node for multiprocessor sweeps.
pub fn warm_refs_mp() -> u64 {
    env_u64("CSIM_WARM_MP", 2_500_000)
}

/// Measured references per node for multiprocessor sweeps.
pub fn meas_refs_mp() -> u64 {
    env_u64("CSIM_MEAS_MP", 2_000_000)
}

/// Simulates one configuration on the default OLTP workload.
pub fn run_config(cfg: &SystemConfig, warm: u64, meas: u64) -> SimReport {
    let mut sim = Simulation::with_oltp(cfg, OltpParams::default())
        .expect("default workload parameters are valid");
    sim.warm_up(warm);
    sim.run(meas)
}

/// Runs a sweep, one thread per configuration (harmless on one core,
/// faster on many).
pub fn run_sweep(sweep: &[Sweep], warm: u64, meas: u64) -> Vec<(String, SimReport)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = sweep
            .iter()
            .map(|s| {
                let label = s.label.clone();
                let cfg = s.config.clone();
                scope.spawn(move || {
                    #[expect(clippy::disallowed_methods, reason = "the bench harness exists to measure host runtime; results never enter a SimReport")]
                    let start = std::time::Instant::now();
                    let rep = run_config(&cfg, warm, meas);
                    eprintln!("  [{label}] done in {:.1}s", start.elapsed().as_secs_f64());
                    (label, rep)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sweep thread panicked")).collect()
    })
}

/// Builds the paper's normalized execution-time chart from sweep results.
pub fn exec_chart(title: &str, results: &[(String, SimReport)]) -> BarChart {
    let mut chart = BarChart::new(title);
    for (label, rep) in results {
        chart.push(rep.exec_bar(label.clone()));
    }
    chart.normalized_to_first()
}

/// Builds the paper's normalized L2-miss chart from sweep results.
pub fn miss_chart(title: &str, results: &[(String, SimReport)]) -> BarChart {
    let mut chart = BarChart::new(title);
    for (label, rep) in results {
        chart.push(rep.miss_bar(label.clone()));
    }
    chart.normalized_to_first()
}

/// A reproduction claim checked against measured results.
#[derive(Clone, Debug)]
pub struct Claim {
    /// What the paper states.
    pub statement: String,
    /// Whether our measurement agrees.
    pub holds: bool,
    /// The measured evidence.
    pub evidence: String,
}

impl Claim {
    /// Records a checked claim.
    pub fn check(statement: impl Into<String>, holds: bool, evidence: String) -> Self {
        Claim { statement: statement.into(), holds, evidence }
    }
}

/// Prints the claim checklist and returns how many failed.
pub fn report_claims(claims: &[Claim]) -> usize {
    println!("\nPaper claims checked against this run:");
    let mut failed = 0;
    for c in claims {
        let mark = if c.holds { "PASS" } else { "MISS" };
        if !c.holds {
            failed += 1;
        }
        println!("  [{mark}] {} — measured: {}", c.statement, c.evidence);
    }
    failed
}

/// Builds a side-by-side paper-vs-measured table for one metric. Paper
/// values marked `None` are unreadable from the figure scan and shown as
/// `-`.
pub fn comparison_table(metric: &str, rows: &[(&str, Option<f64>, f64)]) -> TextTable {
    let mut t = TextTable::new(vec![metric, "paper", "measured"]);
    for (label, paper, measured) in rows {
        t.row(vec![
            (*label).to_string(),
            paper.map_or("-".to_string(), |p| format!("{p:.0}")),
            format!("{measured:.1}"),
        ]);
    }
    t
}

/// Directory where experiment CSVs land (created on demand):
/// `CSIM_RESULTS` when set, else `results/` in the Cargo profile
/// directory the bench was built into (`target/release/results/` under
/// `cargo bench`), so a bench run leaves the source tree untouched.
///
/// # Errors
///
/// Fails when the running executable cannot be located or the directory
/// cannot be created (read-only filesystem, permission, full disk).
pub(crate) fn results_dir() -> std::io::Result<PathBuf> {
    let path = match std::env::var_os("CSIM_RESULTS") {
        Some(dir) => PathBuf::from(dir),
        // A bench executable runs from `<target>/<profile>/deps/`.
        None => std::env::current_exe()?
            .ancestors()
            .nth(2)
            .ok_or_else(|| std::io::Error::other("bench executable has no profile directory"))?
            .join("results"),
    };
    std::fs::create_dir_all(&path)?;
    Ok(path)
}

/// Writes one experiment's charts to `<name>.csv` in [`results_dir`]
/// plus one SVG rendering per chart (`<name>_<i>.svg`).
///
/// The result files are side artifacts of a bench run — the charts and
/// claim checks have already been printed — so IO failure is reported as
/// a warning rather than aborting the remaining figures.
pub(crate) fn save_csv(name: &str, charts: &[&BarChart]) {
    if let Err(e) = try_save_csv(name, charts) {
        eprintln!("  warning: could not write results for {name}: {e}");
    }
}

fn try_save_csv(name: &str, charts: &[&BarChart]) -> std::io::Result<()> {
    let dir = results_dir()?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path)?;
    for (i, chart) in charts.iter().enumerate() {
        writeln!(f, "# {}", chart.title())?;
        f.write_all(chart.to_csv().as_bytes())?;
        let svg_path = dir.join(format!("{name}_{i}.svg"));
        csim_stats::svg::write_file(chart, &svg_path)?;
    }
    eprintln!("  results written to {}", path.display());
    Ok(())
}

/// Prints one figure: header, charts, claims; saves CSV; exits the
/// process with status 1 if any claim failed.
pub fn finish_figure(name: &str, description: &str, charts: &[&BarChart], claims: &[Claim]) {
    println!("==============================================================");
    println!("{name}: {description}");
    println!("==============================================================");
    for chart in charts {
        println!("{}", chart.render(60));
    }
    let failed = report_claims(claims);
    save_csv(name, charts);
    println!();
    if failed > 0 {
        eprintln!("{name}: {failed} claim(s) did not reproduce");
        std::process::exit(1);
    }
}

/// Extracts normalized totals (first entry = 100) for claim math: either
/// execution cycles or L2 miss counts.
pub fn normalized_totals(results: &[(String, SimReport)], by_misses: bool) -> Vec<f64> {
    let raw: Vec<f64> = results
        .iter()
        .map(|(_, r)| if by_misses { r.misses.total() as f64 } else { r.breakdown.total_cycles() })
        .collect();
    let first = raw.first().copied().unwrap_or(1.0).max(1e-12);
    raw.iter().map(|v| v / first * 100.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults_are_sane() {
        assert!(warm_refs() > 0);
        assert!(meas_refs() > 0);
        assert!(warm_refs_mp() > 0);
        assert!(meas_refs_mp() > 0);
    }

    #[test]
    fn claims_report_counts_failures() {
        let claims =
            vec![Claim::check("a", true, "x".into()), Claim::check("b", false, "y".into())];
        assert_eq!(report_claims(&claims), 1);
    }

    #[test]
    fn normalized_totals_scale_to_first() {
        let cfg = SystemConfig::paper_base_uni();
        let rep = run_config(&cfg, 1_000, 2_000);
        let results = vec![("a".to_string(), rep.clone()), ("b".to_string(), rep)];
        let by_exec = normalized_totals(&results, false);
        assert_eq!(by_exec[0], 100.0);
        assert_eq!(by_exec[1], 100.0);
        let by_miss = normalized_totals(&results, true);
        assert_eq!(by_miss[0], 100.0);
    }

    #[test]
    fn comparison_table_renders_missing_paper_values() {
        let t = comparison_table("m", &[("x", Some(42.0), 41.5), ("y", None, 7.0)]);
        let s = t.render();
        assert!(s.contains("42"));
        assert!(s.contains('-'));
    }
}

/// Ready-made configuration constructors in the paper's vocabulary.
pub mod configs {
    use csim_config::{IntegrationLevel, OooParams, RacConfig, SystemConfig, SystemConfigBuilder};

    fn builder(nodes: usize) -> SystemConfigBuilder {
        let mut b = SystemConfig::builder();
        b.nodes(nodes);
        b
    }

    /// "Base": aggressive off-chip design with the given external L2.
    pub fn base_off_chip(nodes: usize, mb: u64, assoc: u32) -> SystemConfig {
        builder(nodes).l2_off_chip(mb << 20, assoc).build().expect("valid base config")
    }

    /// "Conservative Base": conventional off-chip design, slower memory
    /// system.
    pub fn conservative(nodes: usize, mb: u64, assoc: u32) -> SystemConfig {
        builder(nodes)
            .integration(IntegrationLevel::ConservativeBase)
            .l2_off_chip(mb << 20, assoc)
            .build()
            .expect("valid conservative config")
    }

    /// L2 data integrated on-chip (SRAM); MC and CC/NR external.
    pub fn l2_sram(nodes: usize, mb: u64, assoc: u32) -> SystemConfig {
        builder(nodes)
            .integration(IntegrationLevel::L2Integrated)
            .l2_sram(mb << 20, assoc)
            .build()
            .expect("valid L2-integrated config")
    }

    /// L2 integrated as on-chip embedded DRAM.
    pub fn l2_dram(nodes: usize, mb: u64, assoc: u32) -> SystemConfig {
        builder(nodes)
            .integration(IntegrationLevel::L2Integrated)
            .l2_dram(mb << 20, assoc)
            .build()
            .expect("valid DRAM-L2 config")
    }

    /// L2 and memory controller integrated; CC/NR external.
    pub fn l2_mc(nodes: usize, mb: u64, assoc: u32) -> SystemConfig {
        builder(nodes)
            .integration(IntegrationLevel::L2McIntegrated)
            .l2_sram(mb << 20, assoc)
            .build()
            .expect("valid L2+MC config")
    }

    /// Fully integrated (the Alpha 21364 design point), optionally with a
    /// remote access cache and OS instruction-page replication.
    pub fn fully_integrated(
        nodes: usize,
        mb4: u64, // L2 size in quarter-megabytes so 1.25 MB is expressible
        assoc: u32,
        rac: bool,
        replicate: bool,
    ) -> SystemConfig {
        let mut b = builder(nodes);
        b.integration(IntegrationLevel::FullyIntegrated)
            .l2_sram(mb4 << 18, assoc)
            .replicate_instructions(replicate);
        if rac {
            b.rac(RacConfig::paper());
        }
        b.build().expect("valid fully-integrated config")
    }

    /// Switches any configuration to the paper's 4-wide out-of-order core.
    pub fn with_ooo(cfg: &SystemConfig) -> SystemConfig {
        let mut b = SystemConfig::builder();
        b.nodes(cfg.n_nodes())
            .integration(cfg.integration())
            .l2(cfg.l2())
            .l1(cfg.l1i())
            .replicate_instructions(cfg.replicate_instructions())
            .out_of_order(OooParams::paper());
        if let Some(rac) = cfg.rac() {
            b.rac(rac);
        }
        b.build().expect("valid OOO variant")
    }
}
