//! The workspace gate: `csim-analyze` run on this repository must be
//! clean, and its JSON report must be byte-stable.
//!
//! This is the test CI leans on: zero findings (every contract carries
//! a reason and is counted), and two independent runs serialize to
//! byte-identical `csim-analyze-report/v1` documents — the analyzer
//! obeys the same determinism contract it enforces.

use std::path::Path;

use csim_analyze::{analyze_workspace, REPORT_SCHEMA};
use csim_obs::json::validate;

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn the_workspace_is_clean() {
    let rep = analyze_workspace(repo_root()).expect("workspace loads");
    // A panic-freedom site that cannot be proven gets a reasoned
    // `// analyze: total` contract at the site, where readers see it.
    assert!(
        rep.is_clean(),
        "csim-analyze found {} finding(s):\n{}",
        rep.findings.len(),
        rep.render_human()
    );
    // The gate only means something if the passes saw the real tree.
    assert!(rep.files_scanned > 100, "only {} files scanned", rep.files_scanned);
    assert!(rep.pub_items > 300, "only {} pub items audited", rep.pub_items);
    assert!(
        rep.reachable_fns > 300,
        "only {} fns reachable from the simulator entry point — the panic-freedom sweep lost \
         its call graph",
        rep.reachable_fns
    );
}

#[test]
fn a_root_without_crates_is_an_error() {
    let err = analyze_workspace(&repo_root().join("crates/analyze/tests/fixtures"))
        .expect_err("fixtures/ is not a workspace root");
    assert!(err.to_string().contains("not the workspace root"), "{err}");
}

#[test]
fn the_report_is_byte_stable_and_well_formed() {
    let a = analyze_workspace(repo_root()).expect("workspace loads");
    let b = analyze_workspace(repo_root()).expect("workspace loads");
    let ja = a.to_json().to_string();
    let jb = b.to_json().to_string();
    assert_eq!(ja, jb, "two runs must serialize byte-identically");
    validate(&ja).expect("report is well-formed JSON");
    assert!(
        ja.contains(&format!("\"schema\":\"{REPORT_SCHEMA}\"")),
        "report must carry the {REPORT_SCHEMA} tag"
    );
}
