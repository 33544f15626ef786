//! Findings, suppressions, and the byte-stable JSON report.
//!
//! The JSON schema is `csim-analyze-report/v1`, built with
//! [`csim_obs::json::Json`] so key order is insertion order and the
//! encoding is deterministic. Everything that varies run-to-run
//! (wall-clock, host paths, hash iteration) is excluded by
//! construction; two runs over the same tree produce byte-identical
//! reports, and CI asserts exactly that.

use std::fmt::Write as _;

use csim_obs::json::Json;

/// Schema identifier embedded in every report.
pub const REPORT_SCHEMA: &str = "csim-analyze-report/v1";

/// Which analysis pass produced a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pass {
    /// Dead-`pub` audit.
    DeadPub,
    /// CFG/dataflow panic-freedom proof (entry-point reachability).
    PanicFree,
    /// `analyze: total` contracts that discharged nothing, and
    /// directives of no known kind.
    Escape,
}

impl Pass {
    /// Stable machine name.
    pub fn name(self) -> &'static str {
        match self {
            Pass::DeadPub => "dead-pub",
            Pass::PanicFree => "panic-free",
            Pass::Escape => "escape",
        }
    }
}

/// One violation, anchored to a source location.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Producing pass.
    pub pass: Pass,
    /// Rule name (`dead-pub`, `unchecked-index`, `stale-total`, ...).
    pub rule: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human message.
    pub message: String,
    /// Trimmed source excerpt.
    pub excerpt: String,
    /// Call chain or flow path context (empty when not applicable).
    pub chain: Vec<String>,
}

/// One would-be finding discharged by a counted `// analyze: total —
/// reason` contract.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Suppression {
    /// Rule suppressed.
    pub rule: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the suppressed finding.
    pub line: usize,
    /// The mandatory reason from the contract.
    pub reason: String,
}

/// Aggregated result of all passes.
#[derive(Clone, Debug, Default)]
pub struct AnalysisReport {
    /// Unsuppressed findings, sorted.
    pub findings: Vec<Finding>,
    /// Suppressed findings, sorted.
    pub suppressions: Vec<Suppression>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Functions in the call graph.
    pub fns_indexed: usize,
    /// Crates analyzed.
    pub crates: usize,
    /// `pub` items audited.
    pub pub_items: usize,
    /// Shipped fns reachable from the `csim` entry point and proven
    /// (or contracted) free of unchecked indexing and underflow.
    pub reachable_fns: usize,
}

impl AnalysisReport {
    /// True when the workspace is clean (gate passes).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Canonical ordering for byte-stable output.
    pub fn sort(&mut self) {
        self.findings.sort();
        self.suppressions.sort();
    }

    /// The deterministic JSON document.
    pub fn to_json(&self) -> Json {
        let mut findings = Vec::with_capacity(self.findings.len());
        for f in &self.findings {
            let mut o = Json::obj([
                ("pass", Json::str(f.pass.name())),
                ("rule", Json::str(&f.rule)),
                ("file", Json::str(&f.file)),
                ("line", Json::UInt(f.line as u64)),
                ("message", Json::str(&f.message)),
                ("excerpt", Json::str(&f.excerpt)),
            ]);
            if !f.chain.is_empty() {
                let chain: Vec<Json> = f.chain.iter().map(Json::str).collect();
                o.push("chain", Json::Arr(chain));
            }
            findings.push(o);
        }
        let suppressions: Vec<Json> = self
            .suppressions
            .iter()
            .map(|s| {
                Json::obj([
                    ("rule", Json::str(&s.rule)),
                    ("file", Json::str(&s.file)),
                    ("line", Json::UInt(s.line as u64)),
                    ("reason", Json::str(&s.reason)),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::str(REPORT_SCHEMA)),
            (
                "workspace",
                Json::obj([
                    ("crates", Json::UInt(self.crates as u64)),
                    ("files", Json::UInt(self.files_scanned as u64)),
                    ("fns", Json::UInt(self.fns_indexed as u64)),
                    ("pub_items", Json::UInt(self.pub_items as u64)),
                    ("reachable_fns", Json::UInt(self.reachable_fns as u64)),
                ]),
            ),
            ("clean", Json::Bool(self.is_clean())),
            ("findings", Json::Arr(findings)),
            ("suppressions", Json::Arr(suppressions)),
        ])
    }

    /// The human-readable report (what the CLI prints).
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}:{}: [{}] {}\n    {}",
                f.file, f.line, f.rule, f.message, f.excerpt
            );
            if !f.chain.is_empty() {
                let _ = writeln!(out, "    via: {}", f.chain.join(" -> "));
            }
        }
        if !self.suppressions.is_empty() {
            let _ = writeln!(out, "suppressed ({}):", self.suppressions.len());
            for s in &self.suppressions {
                let _ = writeln!(out, "  {}:{}: [{}] — {}", s.file, s.line, s.rule, s.reason);
            }
        }
        let _ = writeln!(
            out,
            "csim-analyze: {} findings, {} suppressed; {} crates, {} files, {} fns, {} pub items, {} panic-free reachable fns",
            self.findings.len(),
            self.suppressions.len(),
            self.crates,
            self.files_scanned,
            self.fns_indexed,
            self.pub_items,
            self.reachable_fns,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AnalysisReport {
        let mut r = AnalysisReport {
            findings: vec![Finding {
                pass: Pass::PanicFree,
                rule: "unchecked-index".into(),
                file: "crates/x/src/lib.rs".into(),
                line: 7,
                message: "index not proven in bounds".into(),
                excerpt: "v[i]".into(),
                chain: vec!["root".into(), "leaf".into()],
            }],
            suppressions: vec![Suppression {
                rule: "underflow-sub".into(),
                file: "crates/y/src/lib.rs".into(),
                line: 3,
                reason: "callers pass a non-empty slice".into(),
            }],
            files_scanned: 2,
            fns_indexed: 5,
            crates: 2,
            pub_items: 4,
            reachable_fns: 3,
        };
        r.sort();
        r
    }

    #[test]
    fn json_is_deterministic_and_valid() {
        let r = sample();
        let a = r.to_json().to_string();
        let b = r.to_json().to_string();
        assert_eq!(a, b);
        csim_obs::json::validate(&a).expect("schema emits valid JSON");
        assert!(a.starts_with("{\"schema\":\"csim-analyze-report/v1\""));
        assert!(a.contains("\"clean\":false"));
    }

    #[test]
    fn human_render_mentions_everything() {
        let r = sample();
        let h = r.render_human();
        assert!(h.contains("[unchecked-index]"));
        assert!(h.contains("via: root -> leaf"));
        assert!(h.contains("suppressed (1):"));
        assert!(h.contains("1 findings, 1 suppressed"));
    }
}
