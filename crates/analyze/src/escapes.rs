//! Pass 3 — stale contracts and unknown directives.
//!
//! Runs after the panic-freedom pass, over the contracts it used.
//!
//! A shipped `// analyze: total — reason` contract that discharged no
//! panic-freedom site is a `stale-total` finding: at site level, no
//! site on its line or the three below it; above a `fn`, no site in that
//! function's body. The panic-freedom pass records the contracts it
//! used. A contract the code no longer needs would otherwise sit in the
//! audited count, and cover the next unchecked index written in reach.
//!
//! A shipped `// analyze: <kind>` directive whose kind is not `total`,
//! and a shipped `// lint:` directive of any kind, is an
//! `unknown-directive` finding: no pass reads it, so a misspelt or
//! retired directive (such as the former `hot` and `cold` markers, or
//! the former `lint: allow(rule)` escape, now a reasoned `#[expect]`)
//! would otherwise read as a claim that nothing checks.
//!
//! Markers outside shipped code are consulted by no pass and are not
//! checked. Neither rule has an escape.

use std::collections::BTreeSet;

use crate::model::{Section, Workspace};
use crate::report::{Finding, Pass};

/// Reports every shipped `analyze: total` contract not in `totals_used`
/// (`(file, marker line)` pairs), and every shipped directive of no
/// known kind.
pub fn run(ws: &Workspace, totals_used: &BTreeSet<(String, usize)>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &ws.files {
        if !matches!(file.section, Section::Src | Section::Bin) {
            continue;
        }
        for (line, _) in &file.total_lines {
            if !totals_used.contains(&(file.rel.clone(), *line)) {
                findings.push(Finding {
                    pass: Pass::Escape,
                    rule: "stale-total".into(),
                    file: file.rel.clone(),
                    line: *line,
                    message: "`analyze: total` discharges no panic-freedom site within its \
                              reach or the body of the fn below it; delete it"
                        .into(),
                    excerpt: file.line_text(*line).to_string(),
                    chain: Vec::new(),
                });
            }
        }
        for (line, directive) in &file.unknown_directives {
            findings.push(Finding {
                pass: Pass::Escape,
                rule: "unknown-directive".into(),
                file: file.rel.clone(),
                line: *line,
                message: format!(
                    "`{directive}` is no known directive (only `analyze: total` is); no pass \
                     reads it"
                ),
                excerpt: file.line_text(*line).to_string(),
                chain: Vec::new(),
            });
        }
    }
    findings
}
