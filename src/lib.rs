//! Reproduction of *Impact of Chip-Level Integration on Performance of
//! OLTP Workloads* (Barroso, Gharachorloo, Nowatzyk, Verghese — HPCA
//! 2000) as a self-contained Rust workspace.
//!
//! This facade crate re-exports the workspace's building blocks under one
//! roof:
//!
//! * [`config`] — integration levels, the paper's latency table (Figure
//!   3), cache geometries, full-system configurations.
//! * [`workload`] — the synthetic TPC-B / Oracle OLTP workload engine
//!   (the stand-in for the paper's proprietary Oracle + SimOS setup).
//! * [`cache`] — set-associative write-back cache models.
//! * [`coherence`] — the full-map directory protocol for the 8-node
//!   CC-NUMA machine, including remote-access-cache bookkeeping.
//! * [`proc`] — in-order and out-of-order processor timing models.
//! * [`fault`] — deterministic fault injection (directory NACKs with
//!   retry/backoff, link degradation, memory-controller busy periods)
//!   for robustness experiments.
//! * [`obs`] — the cycle-level observability layer: per-class latency
//!   histograms, epoch time-series, structured event tracing, and the
//!   hand-rolled JSON machinery behind machine-readable run reports.
//! * [`prof`] — two-sided profiling: exact attribution of simulated
//!   cycles to hardware components (the paper's breakdown figures),
//!   a dependency-free host sampling profiler over region markers, and
//!   Chrome trace-event timeline export.
//! * [`sim`] — the full-system simulator tying everything together.
//! * [`stats`] — normalized stacked-bar charts and text tables in the
//!   paper's reporting style.
//! * [`sweep`] — the deterministic, crash-safe parallel sweep engine:
//!   declarative parameter grids executed on scoped worker threads with
//!   merged reports that are byte-identical for any worker count — and
//!   for any combination of sharding (`--shard k/N` + `--sweep-merge`),
//!   checkpoint/resume, and per-point failure isolation.
//! * [`trace`] — the memory-reference vocabulary shared by all of the
//!   above.
//!
//! # Quickstart
//!
//! ```
//! use oltp_chip_integration::prelude::*;
//!
//! // The paper's Base uniprocessor vs the fully-integrated design.
//! let base = SystemConfig::paper_base_uni();
//! let mut sim = Simulation::with_oltp(&base, OltpParams::default())?;
//! sim.warm_up(50_000);
//! let report = sim.run(50_000);
//! println!("Base CPI = {:.2}", report.breakdown.cpi());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `crates/bench/benches/` for the harnesses that regenerate every table
//! and figure of the paper's evaluation.

#![forbid(unsafe_code)]

pub use csim_cache as cache;
pub use csim_check as check;
pub use csim_coherence as coherence;
pub use csim_config as config;
pub use csim_core as sim;
pub use csim_fault as fault;
pub use csim_noc as noc;
pub use csim_obs as obs;
pub use csim_proc as proc;
pub use csim_prof as prof;
pub use csim_stats as stats;
pub use csim_sweep as sweep;
pub use csim_trace as trace;
pub use csim_workload as workload;

/// The most commonly used types, importable with one line.
pub mod prelude {
    pub use csim_check::{explore, CheckConfig, CheckReport, Sanitizer, SanitizerError};
    pub use csim_config::{
        CacheGeometry, IntegrationLevel, L2Kind, LatencyTable, OooParams, ProcessorModel,
        RacConfig, SystemConfig,
    };
    pub use csim_core::{
        run_report_json, CoherenceViolation, MissBreakdown, SimError, SimReport, Simulation,
    };
    pub use csim_fault::{FaultInjector, FaultPlan, FaultStats};
    pub use csim_obs::{
        version_string, MissClass, ObsConfig, Observer, PhaseProfile, RunManifest, TraceConfig,
        TraceFilter,
    };
    pub use csim_proc::{ExecBreakdown, StallClass};
    pub use csim_prof::{
        prof_report_json, Attribution, Component, HostProfile, HostSampler, RegionReport,
    };
    pub use csim_stats::{Bar, BarChart, LineChart, Series, TextTable};
    pub use csim_sweep::{
        run_sweep, run_sweep_cfg, PointOutcome, RunSpec, Shard, SweepConfig, SweepError,
        SweepOutcome, SweepPlan,
    };
    pub use csim_trace::{Access, ExecMode, MemRef, ReferenceStream};
    pub use csim_workload::{OltpParams, OltpWorkload};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_a_working_pipeline() {
        let cfg = SystemConfig::paper_base_uni();
        let mut sim = Simulation::with_oltp(&cfg, OltpParams::default()).expect("valid workload");
        sim.warm_up(5_000);
        let report = sim.run(5_000);
        assert!(report.breakdown.instructions > 0);
    }
}
