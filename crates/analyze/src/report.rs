//! Findings and the byte-stable JSON report.
//!
//! The JSON schema is `csim-analyze-report/v2`, built with
//! [`csim_obs::json::Json`] so key order is insertion order and the
//! encoding is deterministic. Everything that varies run-to-run
//! (wall-clock, host paths, hash iteration) is excluded by
//! construction; two runs over the same tree produce byte-identical
//! reports, and CI asserts exactly that.

use std::fmt::Write as _;

use csim_obs::json::Json;

/// Schema identifier embedded in every report.
pub const REPORT_SCHEMA: &str = "csim-analyze-report/v2";

/// Which analysis pass produced a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pass {
    /// Dead-`pub` audit.
    DeadPub,
    /// Directives of no known kind.
    Escape,
}

impl Pass {
    /// Stable machine name.
    pub fn name(self) -> &'static str {
        match self {
            Pass::DeadPub => "dead-pub",
            Pass::Escape => "escape",
        }
    }
}

/// One violation, anchored to a source location.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Producing pass.
    pub pass: Pass,
    /// Rule name (`dead-pub` or `unknown-directive`).
    pub rule: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human message.
    pub message: String,
    /// Trimmed source excerpt.
    pub excerpt: String,
}

/// Aggregated result of all passes.
#[derive(Clone, Debug, Default)]
pub struct AnalysisReport {
    /// Findings, sorted.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Functions indexed (test and shipped).
    pub fns_indexed: usize,
    /// Crates analyzed.
    pub crates: usize,
    /// `pub` items audited.
    pub pub_items: usize,
}

impl AnalysisReport {
    /// True when the workspace is clean (gate passes).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Canonical ordering for byte-stable output.
    pub fn sort(&mut self) {
        self.findings.sort();
    }

    /// The deterministic JSON document.
    pub fn to_json(&self) -> Json {
        let findings: Vec<Json> = self
            .findings
            .iter()
            .map(|f| {
                Json::obj([
                    ("pass", Json::str(f.pass.name())),
                    ("rule", Json::str(&f.rule)),
                    ("file", Json::str(&f.file)),
                    ("line", Json::UInt(f.line as u64)),
                    ("message", Json::str(&f.message)),
                    ("excerpt", Json::str(&f.excerpt)),
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
                ]),
            ),
            ("clean", Json::Bool(self.is_clean())),
            ("findings", Json::Arr(findings)),
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
        }
        let _ = writeln!(
            out,
            "csim-analyze: {} findings; {} crates, {} files, {} fns, {} pub items",
            self.findings.len(),
            self.crates,
            self.files_scanned,
            self.fns_indexed,
            self.pub_items,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AnalysisReport {
        let mut r = AnalysisReport {
            findings: vec![
                Finding {
                    pass: Pass::Escape,
                    rule: "unknown-directive".into(),
                    file: "crates/y/src/lib.rs".into(),
                    line: 3,
                    message: "`analyze: exact` is no known directive".into(),
                    excerpt: "// analyze: exact — retired".into(),
                },
                Finding {
                    pass: Pass::DeadPub,
                    rule: "dead-pub".into(),
                    file: "crates/x/src/lib.rs".into(),
                    line: 7,
                    message: "pub fn `orphan` has no consumer outside its crate".into(),
                    excerpt: "pub fn orphan() {}".into(),
                },
            ],
            files_scanned: 2,
            fns_indexed: 5,
            crates: 2,
            pub_items: 4,
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
        assert!(a.starts_with("{\"schema\":\"csim-analyze-report/v2\""));
        assert!(a.contains("\"clean\":false"));
    }

    #[test]
    fn human_render_mentions_everything() {
        let r = sample();
        let h = r.render_human();
        assert!(h.contains("[dead-pub]") && h.contains("[unknown-directive]"));
        // Sorted by pass: the dead-pub finding comes first.
        assert!(h.find("[dead-pub]") < h.find("[unknown-directive]"), "{h}");
        assert!(h.contains("2 findings; 2 crates, 2 files, 5 fns, 4 pub items"), "{h}");
    }
}
