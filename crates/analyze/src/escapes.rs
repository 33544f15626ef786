//! Pass 2 — directives of no known kind.
//!
//! A shipped `// analyze: <kind>` or `// lint: <kind>` directive is an
//! `unknown-directive` finding: no pass reads either prefix, so a
//! retired directive (the former `total` contract, the former
//! `hot` and `cold` markers, or the former `lint: allow(rule)` escape —
//! all now reasoned `#[expect(clippy::..)]` attributes or gone) or a
//! misspelt one would otherwise read as a claim that nothing checks.
//!
//! Markers outside shipped code are consulted by no pass and are not
//! checked. The rule has no escape.

use crate::model::{Section, Workspace};
use crate::report::{Finding, Pass};

/// Reports every shipped directive.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &ws.files {
        if !matches!(file.section, Section::Src | Section::Bin) {
            continue;
        }
        for (line, directive) in &file.unknown_directives {
            findings.push(Finding {
                pass: Pass::Escape,
                rule: "unknown-directive".into(),
                file: file.rel.clone(),
                line: *line,
                message: format!(
                    "`{directive}` is no known directive (no pass reads `analyze:` or `lint:` \
                     comments; escape a clippy lint with a reasoned `#[expect]`)"
                ),
                excerpt: file.line_text(*line).to_string(),
            });
        }
    }
    findings
}
