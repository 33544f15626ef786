//! The full-system memory simulator.
//!
//! This crate is the equivalent of the paper's SimOS-Alpha memory-system
//! study harness: it drives per-node reference streams (normally the
//! synthetic OLTP workload from `csim-workload`) through each node's
//! L1I/L1D/L2 hierarchy (plus an optional remote access cache), maintains
//! coherence through the full-map directory of `csim-coherence`, charges
//! the latencies of the configuration's row in the paper's Figure 3, and
//! accumulates the two outputs every figure of the paper is built from:
//!
//! * an execution-time breakdown (CPU / L2Hit / LocalStall / RemoteStall),
//! * an L2 miss breakdown (instruction vs data × local / 2-hop / 3-hop).
//!
//! # Example
//!
//! ```
//! use csim_config::SystemConfig;
//! use csim_core::Simulation;
//! use csim_workload::OltpParams;
//!
//! let cfg = SystemConfig::paper_base_uni();
//! let mut sim = Simulation::with_oltp(&cfg, OltpParams::default())?;
//! sim.warm_up(100_000);
//! let report = sim.run(100_000);
//! assert!(report.breakdown.total_cycles() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod error;
mod export;
mod report;
mod sim;

pub use error::{CoherenceViolation, SimError};
pub use export::{run_report_json, RUN_REPORT_SCHEMA};
pub use report::{MissBreakdown, RacStats, SimReport};
pub use sim::{Simulation, LINE_BITS};
