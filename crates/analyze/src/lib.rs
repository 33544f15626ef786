//! Whole-workspace static analysis: the checks that clippy's token
//! rules and rustc's types cannot make.
//!
//! The crate parses the *whole* workspace into one model — every file
//! lexed with the hand-rolled [`lex`] lexer, every function indexed,
//! every intra-workspace reference recorded — builds a name-based call
//! graph, and runs three passes over it:
//!
//! 1. [`deadpub`] — every unrestricted `pub` item must have a consumer
//!    outside its own crate's shipped sources.
//! 2. [`panicfree`] — panic-freedom for everything reachable from the
//!    `csim` entry point: per-function CFGs ([`mod@cfg`]) plus a
//!    forward must-facts dataflow ([`dataflow`]) prove that indexing is
//!    bounds-checked and `.len() - k` can't underflow — or the site
//!    carries an `// analyze: total — reason` contract.
//! 3. [`escapes`] — an `analyze: total` contract that discharged no
//!    panic-freedom site is a `stale-total` finding, and a directive
//!    comment of no known kind (any other `analyze:` kind, or a
//!    `lint:` line) is an `unknown-directive` finding.
//!
//! The token rules are clippy's, run over shipped code by `cargo
//! lint-shipped` (`.cargo/config.toml`, with the banned paths in
//! `clippy.toml`): no panicking calls outside the bench harness, no
//! wall-clock reads and no hash-ordered containers, each escaped by a
//! reasoned `#[expect(.., reason = "..")]` that rustc reports once it
//! is unfulfilled. Two properties are checked by tests rather than
//! passes, because a test sees the real thing. The crate layering and
//! every target root's `#![forbid(unsafe_code)]` are read from Cargo's
//! own metadata by `tests/layering.rs`. Steady-state allocation is
//! counted, not inferred from names: the root package's
//! `tests/steady_state_alloc.rs` runs the benchmark configurations
//! under a counting global allocator. Report determinism is not a pass
//! either: the byte-identity tests compare same-seed exports.
//!
//! Every `analyze: total` contract carries a mandatory reason and is
//! counted in the report as a suppression. The report serializes as
//! `csim-analyze-report/v1`, byte-stable across runs, via
//! [`csim_obs::json`]. The `csim-analyze` binary is the CI entry point:
//! any finding fails it.

#![forbid(unsafe_code)]

pub mod cfg;
pub mod dataflow;
pub mod deadpub;
pub mod escapes;
pub mod graph;
pub mod lex;
pub mod model;
pub mod panicfree;
pub mod report;

use std::io;
use std::path::Path;

pub use graph::CallGraph;
pub use model::Workspace;
pub use report::{AnalysisReport, Finding, Pass, Suppression, REPORT_SCHEMA};

/// Loads the workspace at `root` and runs all three passes.
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
    let graph = CallGraph::build(ws);

    let mut rep = AnalysisReport {
        files_scanned: ws.files.len(),
        fns_indexed: ws.fns.len(),
        crates: ws.crates.len(),
        pub_items: ws.pub_items.len(),
        ..AnalysisReport::default()
    };

    rep.findings.extend(deadpub::run(ws));

    let pf = panicfree::run(ws, &graph);
    let totals_used = pf.totals_used;
    rep.reachable_fns = pf.reachable_fns;
    rep.findings.extend(pf.findings);
    rep.suppressions.extend(pf.suppressions);

    rep.findings.extend(escapes::run(ws, &totals_used));

    rep.sort();
    rep
}
