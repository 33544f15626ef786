//! Whole-workspace architectural and determinism static analysis: the
//! workspace's one source gate.
//!
//! The crate parses the *whole* workspace into one model — every file
//! lexed with the hand-rolled [`lex`] lexer, every function indexed,
//! every intra-workspace reference recorded — builds a name-based call
//! graph, and runs six passes over it:
//!
//! 1. [`layering`] — the architecture DAG gate: each crate's observed
//!    dependencies must stay inside an explicit allowlist, and the
//!    simulation substrate (`cache`/`coherence`/`noc`) must never see
//!    the upper layers.
//! 2. [`hotpath`] — functions marked `// analyze: hot` must
//!    transitively avoid heap allocation.
//! 3. [`deadpub`] — every unrestricted `pub` item must have a consumer
//!    outside its own crate's shipped sources, or a reasoned escape.
//! 4. [`panicfree`] — panic-freedom for everything reachable from the
//!    `csim` entry point: per-function CFGs ([`mod@cfg`]) plus a
//!    forward must-facts dataflow ([`dataflow`]) prove that indexing is
//!    bounds-checked and `.len() - k` can't underflow — or the site
//!    carries an `// analyze: total — reason` contract.
//! 5. [`source`] — token-level rules over every shipped line:
//!    `no-panic` (the workspace's one ban on panicking calls),
//!    `no-wallclock`, `no-hash-export` on the export paths, and
//!    `forbid-unsafe` on every crate and binary root.
//! 6. [`escapes`] — every shipped `lint: allow` marker must have
//!    suppressed a finding of its rule within its reach; a marker that
//!    suppressed nothing is a `stale-escape` finding, an
//!    `analyze: total` contract that discharged no panic-freedom site
//!    is a `stale-total` finding, and an `analyze:` directive of no
//!    known kind is an `unknown-directive` finding.
//!
//! Report determinism is not a pass: the byte-identity tests compare
//! same-seed exports, and `source`'s `no-wallclock` and
//! `no-hash-export` rules keep clocks and hash containers out of them.
//!
//! Escapes are `// lint: allow(rule) — reason` markers (reasons
//! mandatory, every suppression counted in the report); traversal
//! boundaries use `// analyze: cold — reason`.
//! The report serializes as `csim-analyze-report/v1`, byte-stable
//! across runs, via [`csim_obs::json`]. The `csim-analyze` binary is
//! the CI entry point: any finding fails it.

#![forbid(unsafe_code)]

pub mod cfg;
pub mod dataflow;
pub mod deadpub;
pub mod escapes;
pub mod graph;
pub mod hotpath;
pub mod layering;
pub mod lex;
pub mod model;
pub mod panicfree;
pub mod report;
pub mod source;

use std::io;
use std::path::Path;

pub use graph::CallGraph;
pub use model::Workspace;
pub use report::{AnalysisReport, Finding, Pass, Suppression, REPORT_SCHEMA};

/// Loads the workspace at `root` and runs all six passes.
///
/// # Errors
///
/// I/O failures while reading sources, a root that is not the
/// workspace, or a corrupted architecture allowlist (cycle).
pub fn analyze_workspace(root: &Path) -> io::Result<AnalysisReport> {
    let ws = Workspace::load(root)?;
    Ok(analyze_model(&ws))
}

/// Runs the passes over an already-built model (fixture tests use this
/// to analyze synthetic workspaces without touching the filesystem).
///
/// # Panics
///
/// Panics if the built-in architecture allowlist contains a cycle —
/// that is a defect in this crate itself, caught by its own tests.
pub fn analyze_model(ws: &Workspace) -> AnalysisReport {
    // lint: allow(no-panic) — the allowlist is a compile-time constant; a cycle is a defect in this crate caught by the table_is_a_dag unit test, not a runtime condition
    layering::validate_table().expect("built-in architecture allowlist must be a DAG");
    let graph = CallGraph::build(ws);

    let mut rep = AnalysisReport {
        files_scanned: ws.files.len(),
        fns_indexed: ws.fns.len(),
        crates: ws.crates.len(),
        pub_items: ws.pub_items.len(),
        ..AnalysisReport::default()
    };

    let (f, s) = layering::run(ws);
    rep.findings.extend(f);
    rep.suppressions.extend(s);

    let hot = hotpath::run(ws, &graph);
    rep.hot_roots = hot.hot_roots;
    rep.findings.extend(hot.findings);
    rep.suppressions.extend(hot.suppressions);
    rep.cold_boundaries.extend(hot.cold_boundaries);

    let (f, s) = deadpub::run(ws);
    rep.findings.extend(f);
    rep.suppressions.extend(s);

    let pf = panicfree::run(ws, &graph);
    let totals_used = pf.totals_used;
    rep.reachable_fns = pf.reachable_fns;
    rep.findings.extend(pf.findings);
    rep.suppressions.extend(pf.suppressions);

    let src = source::run(ws);
    rep.source_files = src.files;
    rep.findings.extend(src.findings);
    rep.suppressions.extend(src.suppressions);

    rep.findings.extend(escapes::run(ws, &rep.suppressions, &totals_used));

    rep.sort();
    rep
}
