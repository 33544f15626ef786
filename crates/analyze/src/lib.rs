//! Whole-workspace architectural and determinism static analysis: the
//! workspace's one source gate.
//!
//! The crate parses the *whole* workspace into one model — every file
//! lexed with the hand-rolled [`lex`] lexer, every function indexed,
//! every intra-workspace reference recorded — builds a name-based call
//! graph, and runs nine passes over it:
//!
//! 1. [`layering`] — the architecture DAG gate: each crate's observed
//!    dependencies must stay inside an explicit allowlist, and the
//!    simulation substrate (`cache`/`coherence`/`noc`) must never see
//!    the upper layers.
//! 2. [`hotpath`] — functions marked `// analyze: hot` must
//!    transitively avoid heap allocation, float arithmetic, and
//!    panicking operations.
//! 3. [`taint`] — nondeterminism sources (hash-order iteration,
//!    wall-clock, thread identity, environment) must not flow into
//!    export paths (SimReport, JSON writers, sweep merges).
//! 4. [`deadpub`] — every unrestricted `pub` item must have a consumer
//!    outside its own crate's shipped sources, or a reasoned escape.
//! 5. [`concurrency`] — cross-thread discipline: a name-based
//!    lock-order graph (cycles are potential deadlocks), declared
//!    relaxed-atomic publication stripes (`// analyze: publish`),
//!    a `SeqCst`-in-shipped-code ban, and lock-held-across-spawn/join
//!    detection over the call graph.
//! 6. [`unwind`] — every `catch_unwind` must carry an
//!    `// analyze: unwind — reason` contract, and must not reach
//!    shared-state mutators (checkpoint log, merge accumulators,
//!    hostprof stripes) without re-validation after the catch.
//! 7. [`panicfree`] — panic-freedom for everything reachable from the
//!    `csim`/`csim-sweep` entry points: per-function CFGs ([`mod@cfg`])
//!    plus a forward must-facts dataflow ([`dataflow`]) prove that
//!    indexing is bounds-checked, `unwrap`/`expect` follow a dominating
//!    `Some`/`Ok` check, and `.len() - k` can't underflow — or the site
//!    carries an `// analyze: total — reason` contract.
//! 8. [`exactness`] — f64 integer-exactness: statements marked
//!    `// analyze: exact` (the batched-retire accumulators whose
//!    closed-form equivalence DESIGN.md §16 argues) must only receive
//!    provably integer-valued f64s, via a three-point value lattice
//!    over the same dataflow engine.
//! 9. [`source`] — token-level rules over every shipped line:
//!    `no-panic`, `no-wallclock`, `no-hash-export` on the export paths,
//!    and `forbid-unsafe` on every crate and binary root.
//!
//! Escapes are `// lint: allow(rule) — reason` markers (reasons
//! mandatory, every suppression counted in the report); traversal
//! boundaries use `// analyze: cold — reason`.
//! The report serializes as `csim-analyze-report/v1`, byte-stable
//! across runs, via [`csim_obs::json`]. The `csim-analyze` binary is
//! the CI entry point, and [`baseline`] gives it a findings ratchet:
//! strict rules land against a committed `analyze-baseline.json` whose
//! fingerprinted entries may only be fixed, never silently grown.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod cfg;
pub mod concurrency;
pub mod dataflow;
pub mod deadpub;
pub mod exactness;
pub mod graph;
pub mod hotpath;
pub mod layering;
pub mod lex;
pub mod model;
pub mod panicfree;
pub mod report;
pub mod source;
pub mod taint;
pub mod unwind;

use std::io;
use std::path::Path;

pub use baseline::{Baseline, BaselineDiff, BASELINE_SCHEMA};
pub use graph::CallGraph;
pub use model::Workspace;
pub use report::{AnalysisReport, Finding, Pass, Suppression, REPORT_SCHEMA};

/// Loads the workspace at `root` and runs all nine passes.
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

    let (f, s) = taint::run(ws, &graph);
    rep.findings.extend(f);
    rep.suppressions.extend(s);

    let (f, s) = deadpub::run(ws);
    rep.findings.extend(f);
    rep.suppressions.extend(s);

    let (f, s) = concurrency::run(ws, &graph);
    rep.findings.extend(f);
    rep.suppressions.extend(s);

    let (f, s) = unwind::run(ws, &graph);
    rep.findings.extend(f);
    rep.suppressions.extend(s);

    let pf = panicfree::run(ws, &graph);
    rep.reachable_fns = pf.reachable_fns;
    rep.findings.extend(pf.findings);
    rep.suppressions.extend(pf.suppressions);

    let ex = exactness::run(ws);
    rep.exact_sites = ex.exact_sites;
    rep.findings.extend(ex.findings);
    rep.suppressions.extend(ex.suppressions);

    let src = source::run(ws);
    rep.source_files = src.files;
    rep.findings.extend(src.findings);
    rep.suppressions.extend(src.suppressions);

    rep.sort();
    rep
}
