//! Deterministic fault injection for the chip-level-integration
//! simulator.
//!
//! The paper's machine is evaluated on a fault-free interconnect; this
//! crate supplies the machinery for robustness experiments that relax
//! that assumption. A [`FaultPlan`] describes *what* can go wrong:
//!
//! * **Directory NACKs** — a directory controller under load refuses a
//!   transaction with some probability; the requester backs off
//!   (bounded retries, optionally exponential) and retries, and the
//!   retry traffic feeds back into the [`csim_noc::Contention`]
//!   utilization model so that storms of retries slow each other down.
//! * **Link degradation** — transient windows during which NoC links
//!   run at a fraction of nominal bandwidth, inflating every remote
//!   transaction that crosses them.
//! * **Memory-controller busy periods** — windows during which fills
//!   serviced by a home memory controller pay extra cycles.
//!
//! A [`FaultInjector`] executes a plan deterministically: the same
//! `(plan, seed)` pair always produces the same fault sequence, so any
//! run — including a failing one — reproduces exactly. When the plan is
//! [`FaultPlan::none`] the injector draws no random numbers and charges
//! no cycles, guaranteeing a fault-free run is bit-identical to a run
//! without any injector wired in.
//!
//! Plans are built in code or loaded from a small TOML dialect (see
//! [`FaultPlan::from_toml_str`]); `examples/fault_storm.toml` in the
//! workspace root is a complete annotated example. The dialect's reader,
//! [`toml`], is shared with the sweep-plan loader.

#![forbid(unsafe_code)]

mod inject;
mod plan;
pub mod toml;

pub use inject::{FaultInjector, FaultStats, TransactionKind};
pub use plan::{FaultPlan, FaultPlanError, LinkFault, McFault, NackPlan, NetworkParams, RetryPolicy};
