//! Pass 5 — the token-level source rules.
//!
//! Four contracts that hold for every line of shipped code (`src/` and
//! `src/bin/` of each crate and of the root package), reachable from an
//! entry point or not:
//!
//! * **no-panic** — no `.unwrap()`, `.expect(`, `panic!`, `todo!`,
//!   `unimplemented!` or `unreachable!`. Typed errors are values in this
//!   codebase; a panic in the simulation core turns a reportable
//!   protocol violation into an abort. `assert!` and `debug_assert!`
//!   stay legal: they state invariants, not error handling. The bench
//!   harness (`crates/bench/`) is exempt: a panic there aborts a tool,
//!   not a simulation. [`crate::panicfree`] proves the stronger property
//!   (no reachable partial operation at all) for the entry points' cone.
//! * **no-wallclock** — no `SystemTime` or `Instant::now`: the same seed
//!   must produce the same report forever.
//! * **no-hash-export** — no `HashMap`/`HashSet` in the files that
//!   serialize reports, traces, profiles or plots (obs, stats, analyze,
//!   prof, core's report and export, and the sweep merge), whose bytes
//!   must be stable. Hash iteration order varies run to run; keeping the
//!   containers out of these files keeps it out of their bytes, and the
//!   byte-identity tests catch whatever flows in from elsewhere.
//! * **forbid-unsafe** — every crate root (`src/lib.rs`) and binary root
//!   (`src/bin/*.rs`) carries `#![forbid(unsafe_code)]`, so the compiler
//!   rejects `unsafe` in all shipped code.
//!
//! Rules match lexed tokens, so a rule name in a comment or a string
//! literal can neither trip nor hide a finding. Code from a
//! `#[cfg(test)]` attribute to the end of the braced item that follows
//! it is exempt. A rule fires at most once per line, and the usual
//! `// lint: allow(rule) — reason` on the line or up to three lines
//! above turns it into a counted suppression. `forbid-unsafe` has no
//! escape.

use std::collections::BTreeSet;

use crate::model::{Section, SourceFile, Workspace};
use crate::report::{Finding, Pass, Suppression};

/// The rule names, as findings and escape markers spell them.
pub(crate) const RULES: [&str; 4] = [
    "no-panic",
    "no-wallclock",
    "no-hash-export",
    "forbid-unsafe",
];

/// Path prefixes of the deterministic-artifact files.
pub(crate) const EXPORT_PATHS: [&str; 7] = [
    "crates/obs/src/",
    "crates/stats/src/",
    "crates/analyze/src/",
    "crates/prof/src/",
    "crates/core/src/report.rs",
    "crates/core/src/export.rs",
    "crates/sweep/src/engine.rs",
];

/// Macros whose invocation is a panic.
const PANIC_MACROS: [&str; 4] = ["panic", "unimplemented", "todo", "unreachable"];

/// What the pass saw and found.
#[derive(Debug, Default)]
pub struct SourceRun {
    /// Shipped files scanned.
    pub files: usize,
    /// Unsuppressed violations.
    pub findings: Vec<Finding>,
    /// Violations escaped with a reasoned marker.
    pub suppressions: Vec<Suppression>,
}

/// Runs the four rules over every shipped file.
pub fn run(ws: &Workspace) -> SourceRun {
    let mut out = SourceRun::default();
    for file in &ws.files {
        if !matches!(file.section, Section::Src | Section::Bin) {
            continue;
        }
        out.files += 1;
        let no_panic = !file.rel.starts_with("crates/bench/");
        let no_hash = EXPORT_PATHS.iter().any(|p| file.rel.starts_with(p));
        for (line, rule) in token_hits(file) {
            let applies = match rule {
                "no-panic" => no_panic,
                "no-hash-export" => no_hash,
                _ => true,
            };
            if !applies {
                continue;
            }
            match file.allow_for(rule, line) {
                Some(reason) => out.suppressions.push(Suppression {
                    rule: rule.to_string(),
                    file: file.rel.clone(),
                    line,
                    reason: reason.to_string(),
                }),
                None => out.findings.push(finding(file, line, rule, message(rule))),
            }
        }
        if is_root(&file.rel) && !forbids_unsafe(file) {
            out.findings.push(finding(
                file,
                1,
                "forbid-unsafe",
                "crate or binary root lacks #![forbid(unsafe_code)]",
            ));
        }
    }
    out
}

fn message(rule: &str) -> &'static str {
    match rule {
        "no-panic" => "panicking call in shipped code; return a typed error instead",
        "no-wallclock" => {
            "wall-clock read in shipped code; same-seed runs must export the same bytes"
        }
        _ => "hash-ordered container on an export path; iteration order must not reach the output",
    }
}

fn finding(file: &SourceFile, line: usize, rule: &str, message: &str) -> Finding {
    Finding {
        pass: Pass::Source,
        rule: rule.to_string(),
        file: file.rel.clone(),
        line,
        message: message.to_string(),
        excerpt: file.line_text(line).to_string(),
        chain: Vec::new(),
    }
}

/// `src/lib.rs` or a direct child of a `src/bin/` directory.
fn is_root(rel: &str) -> bool {
    rel.ends_with("src/lib.rs")
        || rel
            .rsplit_once('/')
            .is_some_and(|(dir, _)| dir.ends_with("src/bin"))
}

/// True when the file holds the inner attribute `#![forbid(unsafe_code)]`.
fn forbids_unsafe(file: &SourceFile) -> bool {
    const ATTR: [&str; 8] = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
    file.toks
        .windows(ATTR.len())
        .any(|w| w.iter().zip(ATTR).all(|(t, a)| file.text(*t) == a))
}

/// Every `(line, rule)` whose banned token sequence starts on `line`
/// outside `#[cfg(test)]` code, in line order, each pair once. Policy
/// (which rules apply to which file) is the caller's.
fn token_hits(file: &SourceFile) -> BTreeSet<(usize, &'static str)> {
    let toks = &file.toks;
    // The text of token `k`, or "" past the end. A string or char
    // literal keeps its quotes, so it never equals a banned name.
    let text = |k: usize| toks.get(k).map_or("", |t| file.text(*t));
    let seq = |k: usize, want: &[&str]| want.iter().enumerate().all(|(i, w)| text(k + i) == *w);

    let mut hits = BTreeSet::new();
    let mut depth = 0i64;
    let mut pending_test = false;
    let mut test_depth: Option<i64> = None;
    for (k, t) in toks.iter().enumerate() {
        if test_depth.is_none()
            && !pending_test
            && seq(k, &["#", "[", "cfg", "(", "test", ")", "]"])
        {
            pending_test = true;
        }
        if test_depth.is_none() && !pending_test {
            let rule = match text(k) {
                "." if seq(k + 1, &["unwrap", "(", ")"]) || seq(k + 1, &["expect", "("]) => {
                    Some("no-panic")
                }
                m if PANIC_MACROS.contains(&m) && text(k + 1) == "!" => Some("no-panic"),
                "SystemTime" => Some("no-wallclock"),
                "Instant" if seq(k + 1, &[":", ":", "now"]) => Some("no-wallclock"),
                "HashMap" | "HashSet" => Some("no-hash-export"),
                _ => None,
            };
            if let Some(rule) = rule {
                hits.insert((t.line as usize, rule));
            }
        }
        match text(k) {
            "{" => {
                if pending_test {
                    test_depth = Some(depth);
                    pending_test = false;
                }
                depth += 1;
            }
            "}" => {
                depth -= 1;
                if test_depth == Some(depth) {
                    test_depth = None;
                }
            }
            _ => {}
        }
    }
    hits
}
