//! Pass 4 — stale escapes and unknown directives.
//!
//! Runs after every other pass, over their suppressions. A
//! `// lint: allow(rule) — reason` marker in shipped code that
//! suppressed no `rule` finding on its own line or the three below it
//! (the reach every pass binds a marker to) is itself a finding: an
//! escape that outlived the code it excused would silently cover the
//! next violation written within its reach. A reasonless marker never
//! suppresses, so it is always stale.
//!
//! A shipped `// analyze: total — reason` contract that discharged no
//! panic-freedom site is a `stale-total` finding: at site level, no
//! site on its line or the three below it; above a `fn`, no site in that
//! function's body. The panic-freedom pass records the contracts it
//! used. A contract the code no longer needs would otherwise sit in the
//! audited count, and cover the next unchecked index written in reach.
//!
//! A shipped `// analyze: <kind>` directive whose kind is not `total`
//! is an `unknown-directive` finding: no pass reads it, so a misspelt
//! or retired directive (such as the former `hot` and `cold` markers)
//! would otherwise read as a claim that nothing checks.
//!
//! Markers outside shipped code are consulted by no pass and are not
//! checked. None of the three rules has an escape.

use std::collections::BTreeSet;

use crate::model::{Section, Workspace};
use crate::report::{Finding, Pass, Suppression};

/// Reports every shipped `lint: allow` marker that no suppression used,
/// every shipped `analyze: total` contract not in `totals_used` (`(file,
/// marker line)` pairs), and every shipped `analyze:` directive of no
/// known kind.
pub fn run(
    ws: &Workspace,
    suppressions: &[Suppression],
    totals_used: &BTreeSet<(String, usize)>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &ws.files {
        if !matches!(file.section, Section::Src | Section::Bin) {
            continue;
        }
        for (line, rule, _) in &file.allows {
            let used = suppressions.iter().any(|s| {
                s.file == file.rel && s.rule == *rule && (*line..=line + 3).contains(&s.line)
            });
            if !used {
                findings.push(Finding {
                    pass: Pass::Escape,
                    rule: "stale-escape".into(),
                    file: file.rel.clone(),
                    line: *line,
                    message: format!(
                        "`lint: allow({rule})` suppresses no `{rule}` finding within its reach; \
                         delete it"
                    ),
                    excerpt: file.line_text(*line).to_string(),
                    chain: Vec::new(),
                });
            }
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
                    "`analyze: {directive}` is no known directive (total); no pass reads it"
                ),
                excerpt: file.line_text(*line).to_string(),
                chain: Vec::new(),
            });
        }
    }
    findings
}
