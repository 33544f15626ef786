//! Whole-workspace static analysis: the checks that clippy's token
//! rules and rustc's types cannot make.
//!
//! The crate parses the *whole* workspace into one model — every file
//! lexed with the hand-rolled [`lex`] lexer, every function and `pub`
//! item indexed — and runs two passes over it:
//!
//! 1. [`deadpub`] — every unrestricted `pub` item must have a consumer
//!    outside its own crate's shipped sources.
//! 2. [`escapes`] — a shipped `// analyze:` or `// lint:` directive is
//!    an `unknown-directive` finding: no pass reads one, so a retired or
//!    misspelt directive cannot pass for a checked claim.
//!
//! The token rules and the indexing rule are clippy's, run over shipped
//! code by `cargo lint-shipped` (`.cargo/config.toml`, with the banned
//! paths in `clippy.toml`): no panicking calls outside the bench
//! harness, no unchecked `v[i]`, `v[a..b]` or `s[a..b]` outside the
//! tooling crates (`analyze`, `check`, `bench`), no wall-clock reads
//! and no hash-ordered containers, each escaped by a reasoned
//! `#[expect(.., reason = "..")]` that rustc reports once it is
//! unfulfilled. Other properties are checked by tests rather than
//! passes, because a test sees the real thing. The crate layering,
//! every target root's `#![forbid(unsafe_code)]` and the tooling
//! crates' indexing allowance are read from Cargo's own metadata by
//! `tests/layering.rs`. Steady-state allocation is counted, not
//! inferred from names: the root package's `tests/steady_state_alloc.rs`
//! runs the benchmark configurations under a counting global allocator.
//! Report determinism is not a pass either: the byte-identity tests
//! compare same-seed exports.
//!
//! The report serializes as `csim-analyze-report/v2`, byte-stable
//! across runs, via [`csim_obs::json`]. The `csim-analyze` binary is
//! the CI entry point: any finding fails it.

#![forbid(unsafe_code)]
#![allow(
    clippy::indexing_slicing,
    clippy::string_slice,
    reason = "tooling: the analyzer never runs inside a simulation process"
)]

pub mod deadpub;
pub mod escapes;
pub mod lex;
pub mod model;
pub mod report;

use std::io;
use std::path::Path;

pub use model::Workspace;
pub use report::{AnalysisReport, Finding, Pass, REPORT_SCHEMA};

/// Loads the workspace at `root` and runs both passes.
///
/// # Errors
///
/// I/O failures while reading sources, or a root that is not the
/// workspace.
pub fn analyze_workspace(root: &Path) -> io::Result<AnalysisReport> {
    let ws = Workspace::load(root)?;
    Ok(analyze_model(&ws))
}

/// Runs the passes over an already-built model (fixture tests use this
/// to analyze synthetic workspaces without touching the filesystem).
pub fn analyze_model(ws: &Workspace) -> AnalysisReport {
    let mut rep = AnalysisReport {
        files_scanned: ws.files.len(),
        fns_indexed: ws.fns.len(),
        crates: ws.crates.len(),
        pub_items: ws.pub_items.len(),
        ..AnalysisReport::default()
    };

    rep.findings.extend(deadpub::run(ws));
    rep.findings.extend(escapes::run(ws));

    rep.sort();
    rep
}
