//! Negative fixtures: every rule must actually fire.
//!
//! A static-analysis gate that silently stops matching is worse than no
//! gate — CI stays green while the property rots. Each test here mounts
//! a fixture file from `tests/fixtures/` into a synthetic in-memory
//! workspace at the path that makes it a violation, runs the full
//! pipeline via [`analyze_model`], and asserts the expected rule
//! produces a finding.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use csim_analyze::model::{Section, Workspace};
use csim_analyze::{analyze_model, AnalysisReport, Pass};

/// Reads a fixture from `tests/fixtures/`.
fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"))
}

/// Builds a synthetic workspace from `(mounted path, crate, section,
/// fixture file)` tuples and runs every pass over it.
fn analyze_mounted(files: &[(&str, &str, Section, &str)]) -> AnalysisReport {
    let mut ws = Workspace::default();
    let mut crates: BTreeSet<String> = files.iter().map(|(_, c, _, _)| c.to_string()).collect();
    crates.insert("(root)".into());
    ws.crates = crates.into_iter().collect();
    for (rel, c, sec, fix) in files {
        ws.add_file((*rel).into(), (*c).into(), *sec, fixture(fix));
    }
    analyze_model(&ws)
}

fn rules_of(rep: &AnalysisReport) -> Vec<&str> {
    rep.findings.iter().map(|f| f.rule.as_str()).collect()
}

#[test]
fn dead_pub_fires_on_an_unconsumed_item() {
    let rep = analyze_mounted(&[("crates/noc/src/orphan.rs", "noc", Section::Src, "dead_pub.rs")]);
    let f = rep
        .findings
        .iter()
        .find(|f| f.rule == "dead-pub")
        .unwrap_or_else(|| panic!("no dead-pub finding: {:?}", rules_of(&rep)));
    assert!(f.message.contains("fixture_orphan_api"), "{}", f.message);
}

/// The 1-based line of the first occurrence of `needle` in a fixture.
fn line_of(fixture_name: &str, needle: &str) -> usize {
    fixture(fixture_name)
        .lines()
        .position(|l| l.contains(needle))
        .map(|i| i + 1)
        .unwrap_or_else(|| panic!("{needle:?} not in {fixture_name}"))
}

#[test]
fn directives_of_no_known_kind_are_findings() {
    let fix = "unknown_directive.rs";
    let unknown = |rep: &AnalysisReport| -> Vec<(usize, String)> {
        rep.findings
            .iter()
            .filter(|f| f.rule == "unknown-directive")
            .map(|f| (f.line, f.message.clone()))
            .collect()
    };
    let rep = analyze_mounted(&[("crates/config/src/system.rs", "config", Section::Src, fix)]);
    let found = unknown(&rep);
    assert_eq!(
        found.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
        [
            line_of(fix, "— the fixture's slice is never empty"),
            line_of(fix, "— a kind no pass reads"),
            line_of(fix, "— a misspelt"),
            line_of(fix, "— a retired escape"),
        ],
        "{:?}",
        rep.findings
    );
    assert!(found[0].1.contains("`analyze: total`"), "{}", found[0].1);
    assert!(found[1].1.contains("`analyze: pure`"), "{}", found[1].1);
    assert!(found[3].1.contains("`lint: allow(no-panic)`"), "{}", found[3].1);
    assert!(rep.findings.iter().all(|f| f.pass == Pass::Escape), "{:?}", rep.findings);
    // No pass consults directives outside shipped code.
    let rep = analyze_mounted(&[("crates/config/tests/system.rs", "config", Section::Tests, fix)]);
    assert_eq!(unknown(&rep), Vec::new());
}
