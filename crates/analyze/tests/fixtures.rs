//! Negative fixtures: every rule must actually fire.
//!
//! A static-analysis gate that silently stops matching is worse than no
//! gate — CI stays green while the property rots. Each test here mounts
//! a fixture file from `tests/fixtures/` into a synthetic in-memory
//! workspace at the path that makes it a violation (a cache-crate file,
//! an export-path file, …), runs the full pipeline via [`analyze_model`],
//! and asserts the expected rule produces a finding. The escape test
//! proves the suppression path works *and* that reasonless escapes stay
//! inert.

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
fn an_unwrap_is_one_no_panic_finding_and_debug_assert_is_none() {
    let fix = "unwrap_and_debug_assert.rs";
    let rep = analyze_mounted(&[("crates/cache/src/lookup.rs", "cache", Section::Src, fix)]);
    // The unwrap is reported once, by the source pass.
    let unwrap = line_of(fix, "table.get(i).unwrap()");
    let at_unwrap: Vec<&str> =
        rep.findings.iter().filter(|f| f.line == unwrap).map(|f| f.rule.as_str()).collect();
    assert_eq!(at_unwrap, ["no-panic"], "{:?}", rep.findings);
    // `fixture_checked` uses debug_assert! and must stay clean.
    assert!(
        rep.findings.iter().all(|f| !f.excerpt.contains("debug_assert")),
        "{:?}",
        rep.findings
    );
}

#[test]
fn dead_pub_fires_on_an_unconsumed_item() {
    let rep = analyze_mounted(&[(
        "crates/noc/src/orphan.rs",
        "noc",
        Section::Src,
        "dead_pub.rs",
    )]);
    let f = rep
        .findings
        .iter()
        .find(|f| f.rule == "dead-pub")
        .unwrap_or_else(|| panic!("no dead-pub finding: {:?}", rules_of(&rep)));
    assert!(f.message.contains("fixture_orphan_api"), "{}", f.message);
}

#[test]
fn reasoned_escape_suppresses_and_reasonless_escape_is_inert() {
    let rep = analyze_mounted(&[(
        "crates/cache/src/escape.rs",
        "cache",
        Section::Src,
        "escape_allow.rs",
    )]);
    let fix = "escape_allow.rs";
    // The reasoned allow becomes a counted suppression...
    let suppressed: Vec<(usize, &str)> =
        rep.suppressions.iter().map(|s| (s.line, s.rule.as_str())).collect();
    assert_eq!(suppressed, [(line_of(fix, "g.expect("), "no-panic")]);
    assert!(rep.suppressions[0].reason.contains("checked at construction"));
    // ...while the reasonless allow leaves its finding in force.
    let panics: Vec<usize> =
        rep.findings.iter().filter(|f| f.rule == "no-panic").map(|f| f.line).collect();
    assert_eq!(panics, [line_of(fix, "g.unwrap()")], "{:?}", rep.findings);
}

/// The 1-based line of the first occurrence of `needle` in a fixture.
fn line_of(fixture_name: &str, needle: &str) -> usize {
    fixture(fixture_name)
        .lines()
        .position(|l| l.contains(needle))
        .map(|i| i + 1)
        .unwrap_or_else(|| panic!("{needle:?} not in {fixture_name}"))
}

/// `(line, rule)` of every source-rule finding, sorted.
fn source_hits(rep: &AnalysisReport) -> Vec<(usize, &str)> {
    let mut hits: Vec<(usize, &str)> = rep
        .findings
        .iter()
        .filter(|f| f.pass == Pass::Source)
        .map(|f| (f.line, f.rule.as_str()))
        .collect();
    hits.sort_unstable();
    hits
}

#[test]
fn no_panic_fires_on_every_panicking_call_but_not_on_unwrap_or() {
    let rep = analyze_mounted(&[(
        "crates/cache/src/scratch.rs",
        "cache",
        Section::Src,
        "source_violations.rs",
    )]);
    let fix = "source_violations.rs";
    let panics: Vec<usize> =
        source_hits(&rep).into_iter().filter(|(_, r)| *r == "no-panic").map(|(l, _)| l).collect();
    let expected: Vec<usize> = [
        "x.unwrap()",
        "x.expect(",
        "panic!(",
        "todo!(",
        "unimplemented!(",
        "unreachable!(",
        "['é', y.unwrap()]",
    ]
    .iter()
    .map(|n| line_of(fix, n))
    .collect();
    assert_eq!(panics, expected);
    let f = rep.findings.iter().find(|f| f.rule == "no-panic").expect("a no-panic finding");
    assert_eq!(f.file, "crates/cache/src/scratch.rs");
    assert_eq!(f.excerpt, "x.unwrap()");
}

#[test]
fn no_wallclock_fires_on_instant_now_and_system_time() {
    let rep = analyze_mounted(&[(
        "crates/cache/src/scratch.rs",
        "cache",
        Section::Src,
        "source_violations.rs",
    )]);
    let fix = "source_violations.rs";
    let clocks: Vec<(usize, &str)> =
        source_hits(&rep).into_iter().filter(|(_, r)| *r == "no-wallclock").collect();
    assert_eq!(
        clocks,
        [
            (line_of(fix, "Instant::now()"), "no-wallclock"),
            (line_of(fix, "-> std::time::SystemTime"), "no-wallclock"),
        ]
    );
}

#[test]
fn no_hash_export_fires_only_on_export_paths() {
    let fix = "source_violations.rs";
    for (rel, krate) in [
        ("crates/obs/src/json.rs", "obs"),
        ("crates/prof/src/report.rs", "prof"),
        ("crates/sweep/src/engine.rs", "sweep"),
    ] {
        let export = analyze_mounted(&[(rel, krate, Section::Src, fix)]);
        let hashes: Vec<usize> = source_hits(&export)
            .into_iter()
            .filter(|(_, r)| *r == "no-hash-export")
            .map(|(l, _)| l)
            .collect();
        assert_eq!(
            hashes,
            [
                line_of(fix, "use std::collections::HashMap;"),
                line_of(fix, "-> HashMap<u8, u8>"),
                line_of(fix, "HashMap::new()"),
            ],
            "{rel}"
        );
    }
    let plain = analyze_mounted(&[(
        "crates/coherence/src/directory.rs",
        "coherence",
        Section::Src,
        fix,
    )]);
    assert!(
        source_hits(&plain).iter().all(|(_, r)| *r != "no-hash-export"),
        "hash maps are fine off the export paths: {:?}",
        source_hits(&plain)
    );
}

#[test]
fn forbid_unsafe_fires_on_a_lib_root_without_the_attribute() {
    let rep = analyze_mounted(&[
        ("crates/cache/src/lib.rs", "cache", Section::Src, "root_without_forbid.rs"),
        ("crates/noc/src/lib.rs", "noc", Section::Src, "root_with_forbid.rs"),
        ("crates/noc/src/model.rs", "noc", Section::Src, "root_without_forbid.rs"),
    ]);
    let f: Vec<(&str, usize, &str)> = rep
        .findings
        .iter()
        .filter(|f| f.pass == Pass::Source)
        .map(|f| (f.file.as_str(), f.line, f.rule.as_str()))
        .collect();
    assert_eq!(f, [("crates/cache/src/lib.rs", 1, "forbid-unsafe")]);
}

#[test]
fn forbid_unsafe_fires_on_a_bin_root_without_the_attribute() {
    let rep = analyze_mounted(&[
        ("src/bin/tool.rs", "(root)", Section::Bin, "root_without_forbid.rs"),
        ("crates/bench/src/bin/other.rs", "bench", Section::Bin, "root_with_forbid.rs"),
        ("crates/bench/src/bin/other/helper.rs", "bench", Section::Bin, "root_without_forbid.rs"),
    ]);
    let f: Vec<(&str, usize, &str)> = rep
        .findings
        .iter()
        .filter(|f| f.pass == Pass::Source)
        .map(|f| (f.file.as_str(), f.line, f.rule.as_str()))
        .collect();
    assert_eq!(f, [("src/bin/tool.rs", 1, "forbid-unsafe")]);
}

#[test]
fn banned_tokens_in_comments_strings_and_test_code_do_not_fire() {
    let fix = "source_exempt.rs";
    let rep = analyze_mounted(&[("crates/obs/src/json.rs", "obs", Section::Src, fix)]);
    // Only the violation after the test module closes is real.
    assert_eq!(source_hits(&rep), [(line_of(fix, "y.unwrap()"), "no-panic")]);
}

#[test]
fn bench_files_may_unwrap_but_not_read_the_clock() {
    let rep = analyze_mounted(&[(
        "crates/bench/src/lib.rs",
        "bench",
        Section::Src,
        "source_violations.rs",
    )]);
    let rules: BTreeSet<&str> = source_hits(&rep).into_iter().map(|(_, r)| r).collect();
    // The fixture has no forbid attribute, and lib.rs is a crate root.
    assert_eq!(rules, BTreeSet::from(["forbid-unsafe", "no-wallclock"]));
}

#[test]
fn reasoned_markers_within_three_lines_suppress_source_rules() {
    let fix = "source_escapes.rs";
    let rep = analyze_mounted(&[("crates/config/src/system.rs", "config", Section::Src, fix)]);
    let mut suppressed: Vec<(usize, &str)> = rep
        .suppressions
        .iter()
        .map(|s| (s.line, s.rule.as_str()))
        .collect();
    suppressed.sort_unstable();
    let stacked = line_of(fix, "(g.unwrap(), std::time::Instant::now())");
    assert_eq!(
        suppressed,
        [
            (line_of(fix, "— geometry") + 1, "no-panic"),
            (line_of(fix, "— the wrapped call") + 3, "no-panic"),
            (stacked, "no-panic"),
            (stacked, "no-wallclock"),
            (line_of(fix, "— exercised in a test") + 1, "no-panic"),
        ]
    );
    let reason = &rep.suppressions.iter().find(|s| s.line == line_of(fix, "— geometry") + 1);
    assert!(reason.is_some_and(|s| s.reason.contains("compile-time")), "{reason:?}");
    // Out of range, reasonless, and string-borne markers leave their
    // findings in force.
    assert_eq!(
        source_hits(&rep),
        [
            (line_of(fix, "— four lines") + 4, "no-panic"),
            (line_of(fix, "fn fixture_reasonless") + 2, "no-panic"),
            (line_of(fix, "fake, inside a string") + 1, "no-panic"),
        ]
    );
}

#[test]
fn markers_that_suppress_nothing_are_stale_escapes() {
    let fix = "stale_escape.rs";
    let stale = |rep: &AnalysisReport| -> Vec<usize> {
        rep.findings.iter().filter(|f| f.rule == "stale-escape").map(|f| f.line).collect()
    };
    let rep = analyze_mounted(&[("crates/config/src/system.rs", "config", Section::Src, fix)]);
    assert_eq!(
        stale(&rep),
        [
            line_of(fix, "— names a rule"),
            line_of(fix, "— four lines"),
            line_of(fix, "fn fixture_reasonless") + 1,
        ],
        "{:?}",
        rep.findings
    );
    assert!(rep.suppressions.iter().any(|s| s.line == line_of(fix, "— the live escape") + 1));
    // No pass consults markers outside shipped code, so none is stale.
    let rep = analyze_mounted(&[("crates/config/tests/system.rs", "config", Section::Tests, fix)]);
    assert_eq!(stale(&rep), Vec::<usize>::new());
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
        [line_of(fix, "— a kind no pass reads"), line_of(fix, "— a misspelt")],
        "{:?}",
        rep.findings
    );
    assert!(found[0].1.contains("`analyze: pure`"), "{}", found[0].1);
    assert!(rep.findings.iter().all(|f| f.pass == Pass::Escape), "{:?}", rep.findings);
    // No pass consults directives outside shipped code.
    let rep = analyze_mounted(&[("crates/config/tests/system.rs", "config", Section::Tests, fix)]);
    assert_eq!(unknown(&rep), Vec::new());
}
