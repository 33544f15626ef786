//! Protocol verification for the chip-integration simulator.
//!
//! The paper's performance argument rests on the directory protocol
//! being *correct*: 2-hop vs 3-hop latencies, RAC occupancy, and NACK
//! retry costs only mean anything if ownership is unique, sharer vectors
//! never under-approximate, and dirty data is never lost. This crate
//! checks that from three independent directions:
//!
//! 1. **An executable spec** ([`spec`]) — a second, from-scratch
//!    implementation of the directory transition relation. A protocol
//!    bug now has to be made twice, in two different shapes, to go
//!    unnoticed.
//! 2. **An explicit-state model checker** ([`explore`]) — exhaustively
//!    enumerates every reachable state of bounded configurations
//!    (2–4 nodes, 1–4 lines, NACK/retry and RAC transitions included),
//!    running the *real* [`csim_coherence::Directory`] and the spec side
//!    by side and checking the [`invariants`] on every state. A
//!    violation prints a minimal transition trace plus a replay seed.
//! 3. **A runtime sanitizer** ([`sanitizer`]) — the same spec threaded
//!    through live full-scale simulations behind `--sanitize`,
//!    cross-checking every directory transition against a shadow copy.
//!    Off by default with a zero-overhead contract: reports are
//!    bit-identical with the sanitizer disabled.

#![forbid(unsafe_code)]

pub mod explore;
pub mod invariants;
pub mod model;
pub mod sanitizer;
pub mod spec;

pub use explore::{explore, replay, CheckReport, Counterexample};
pub use invariants::{check_state, Invariant, Violation};
pub use model::{Action, CacheState, CheckConfig, ModelState};
pub use sanitizer::{Sanitizer, SanitizerError};
