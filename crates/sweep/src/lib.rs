//! Deterministic, crash-safe parallel sweep engine.
//!
//! Paper-style evaluations are grids: integration levels × cache
//! geometries × node counts × seeds, every point an independent
//! simulation. This crate makes the grid declarative and its execution
//! embarrassingly parallel *without giving up bit-identity*:
//!
//! * [`SweepPlan`] — the grid, loaded from a small TOML dialect
//!   ([`SweepPlan::from_toml_str`]) or built in code. Seeds are fixed at
//!   load time ([`derive_seeds`]), never drawn during execution.
//! * [`RunSpec`] — one fully-resolved grid point, expanded in a
//!   documented deterministic order ([`SweepPlan::expand`]).
//! * [`run_sweep`] — executes the grid on `jobs` scoped worker threads
//!   that hand each outcome to the calling thread; results are merged
//!   by grid index. The
//!   merged [`SweepOutcome::to_json`] report is byte-identical for any
//!   worker count (enforced by `tests/sweep_identity.rs`).
//!
//! At the 10^4–10^5-point scale of the design-space studies, a sweep
//! must also survive its host ([`run_sweep_cfg`] with [`SweepConfig`],
//! DESIGN.md §13):
//!
//! * **Sharding** — [`Shard`] splits the grid round-robin across
//!   processes/machines; each shard's result is its checkpoint log, and
//!   [`merge_logs`] reassembles the byte-identical full report from the
//!   logs of all shards.
//! * **Checkpointing** — a CRC-guarded append-only log records each
//!   completed point; a killed sweep resumes past it, detecting (never
//!   silently trusting) truncated or corrupted records, and still
//!   produces byte-identical output.
//! * **Failure isolation** — a panicking or erroring point is caught at
//!   the worker boundary, retried with `csim-fault`'s capped backoff,
//!   and recorded as a structured failure entry instead of aborting the
//!   sweep.
//! * **Straggler watchdog** — opt-in per-point wall/ref-rate stats with
//!   median-based straggler flagging; fully deterministic when off.
//!
//! The `csim --sweep plan.toml --jobs N [--shard k/N] [--checkpoint f]`
//! front end drives this crate and `csim --sweep-merge OUT --sweep
//! plan.toml LOG...` performs the shard merge;
//! `examples/fig09_sweep.toml` shows the dialect.
//!
//! # Example
//!
//! ```
//! use csim_sweep::{run_sweep, SweepPlan};
//!
//! let plan = SweepPlan::from_toml_str(r#"
//!     [sweep]
//!     name = "smoke"
//!     warm = 1000
//!     meas = 1000
//!
//!     [grid]
//!     integration = ["base", "l2"]
//!     seeds = [42]
//! "#)?;
//! let out = run_sweep(&plan, 2)?;
//! assert_eq!(out.points.len(), 2);
//! assert_eq!(out.failures().count(), 0);
//! # Ok::<(), csim_sweep::SweepError>(())
//! ```

#![forbid(unsafe_code)]

mod checkpoint;
mod engine;
mod grid;
mod plan;
mod shard;

pub use checkpoint::CHECKPOINT_SCHEMA;
pub use engine::{
    merge_logs, plan_fingerprint, run_sweep, run_sweep_cfg, run_sweep_with, PointExecutor,
    PointFailure, PointOutcome, PointTiming, RunOutcome, RunSummary, SweepConfig, SweepOutcome,
    SweepTiming, SWEEP_REPORT_SCHEMA,
};
pub use grid::{default_l2, RunSpec};
pub use plan::{
    derive_seeds, integration_short_name, parse_integration, L2Spec, SweepError, SweepPlan,
};
pub use shard::Shard;
