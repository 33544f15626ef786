//! The workspace gate: `csim-analyze` run on this repository must be
//! ratchet-clean against the committed baseline, and its JSON report
//! must be byte-stable.
//!
//! This is the test CI leans on: zero findings outside
//! `analyze-baseline.json` (every escape carries a reason and is
//! counted; every deferred finding carries a committed fingerprint),
//! no stale baseline entries, and two independent runs serialize to
//! byte-identical `csim-analyze-report/v1` documents — the analyzer
//! obeys the same determinism contract it enforces.

use std::path::Path;

use csim_analyze::{analyze_workspace, Baseline, REPORT_SCHEMA};
use csim_obs::json::validate;

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn committed_baseline() -> Baseline {
    let path = repo_root().join("analyze-baseline.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} unreadable: {e}", path.display()));
    Baseline::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn the_workspace_is_ratchet_clean() {
    let rep = analyze_workspace(repo_root()).expect("workspace loads");
    let diff = committed_baseline().diff(&rep.findings);
    assert!(
        diff.is_ratchet_clean(),
        "csim-analyze found {} finding(s) not in analyze-baseline.json:\n{}",
        diff.new.len(),
        diff.render_human()
    );
    // The ratchet never loosens: entries no finding matches are stale
    // and must be dropped with `--update-baseline`.
    assert!(
        diff.fixed.is_empty(),
        "{} stale baseline entr(ies) — rerun csim-analyze --baseline analyze-baseline.json --update-baseline:\n{}",
        diff.fixed.len(),
        diff.render_human()
    );
    // The gate only means something if the passes saw the real tree.
    assert!(rep.files_scanned > 100, "only {} files scanned", rep.files_scanned);
    assert!(rep.hot_roots > 0, "no hot roots — the hot-path pass is not exercising anything");
    assert!(rep.pub_items > 300, "only {} pub items audited", rep.pub_items);
    assert!(
        rep.reachable_fns > 300,
        "only {} fns reachable from the simulator entry points — the panic-freedom sweep lost \
         its call graph",
        rep.reachable_fns
    );
    assert!(
        rep.exact_sites >= 4,
        "only {} `analyze: exact` sites audited — the exactness pass lost its markers",
        rep.exact_sites
    );
    assert!(
        rep.source_files > 90,
        "only {} shipped files under the source rules — the src/ walk lost files",
        rep.source_files
    );
}

#[test]
fn a_root_without_crates_is_an_error() {
    let err = analyze_workspace(&repo_root().join("crates/analyze/tests/fixtures"))
        .expect_err("fixtures/ is not a workspace root");
    assert!(err.to_string().contains("not the workspace root"), "{err}");
}

#[test]
fn the_baseline_is_empty() {
    // PR 8 deferred exactly one cluster — hot-path findings below the
    // burst-refill root — pending the optimization PR. That PR landed
    // (the refill cone is integer-only and allocation-free; DESIGN.md
    // par.16), the debt is paid, and the ratchet is fully tightened:
    // the committed baseline must stay empty. A finding that cannot be
    // fixed gets a reasoned `// lint: allow` or `// analyze: cold`
    // annotation at the site, where reviewers see it — not a baseline
    // entry, where they don't.
    let b = committed_baseline();
    assert!(
        b.entries.is_empty(),
        "analyze-baseline.json must stay empty — fix or annotate at the site instead of \
         re-deferring:\n{:?}",
        b.entries
    );
}

#[test]
fn the_committed_baseline_is_byte_stable() {
    // `--update-baseline` must be idempotent on a ratchet-clean tree:
    // re-capturing over the current findings reproduces the committed
    // bytes exactly (CI cmp-checks the same property end to end).
    let rep = analyze_workspace(repo_root()).expect("workspace loads");
    let captured = Baseline::from_findings(&rep.findings);
    let committed = std::fs::read_to_string(repo_root().join("analyze-baseline.json"))
        .expect("committed baseline readable");
    assert_eq!(captured.to_bytes(), committed, "analyze-baseline.json is out of date");
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
    // The baseline diff the CLI embeds is as deterministic as the rest.
    let diff_a = committed_baseline().diff(&a.findings).to_json().to_string();
    let diff_b = committed_baseline().diff(&b.findings).to_json().to_string();
    assert_eq!(diff_a, diff_b, "baseline diffs must serialize byte-identically");
    validate(&diff_a).expect("diff is well-formed JSON");
}
