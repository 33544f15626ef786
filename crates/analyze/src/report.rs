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
    /// Architecture DAG enforcement.
    Layering,
    /// Hot-path allocation lint.
    HotPath,
    /// Dead-`pub` audit.
    DeadPub,
    /// CFG/dataflow panic-freedom proof (entry-point reachability).
    PanicFree,
    /// Token-level source rules over every shipped line.
    Source,
    /// `lint: allow` markers that suppressed nothing, and `analyze:`
    /// directives of no known kind.
    Escape,
}

impl Pass {
    /// Stable machine name.
    pub fn name(self) -> &'static str {
        match self {
            Pass::Layering => "layering",
            Pass::HotPath => "hot-path",
            Pass::DeadPub => "dead-pub",
            Pass::PanicFree => "panic-free",
            Pass::Source => "source",
            Pass::Escape => "escape",
        }
    }
}

/// One violation, anchored to a source location.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Producing pass.
    pub pass: Pass,
    /// Rule name (`layering`, `hot-alloc`, `no-panic`, `unchecked-index`,
    /// ...) — also the `lint: allow(..)` key.
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

/// One counted `// lint: allow(rule) — reason` that suppressed a
/// would-be finding.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Suppression {
    /// Rule suppressed.
    pub rule: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the suppressed finding.
    pub line: usize,
    /// The mandatory reason from the marker.
    pub reason: String,
}

/// One `// analyze: cold — reason` boundary that cut hot-path
/// traversal (counted so escapes stay auditable).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ColdBoundary {
    /// Function display name.
    pub func: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the `fn`.
    pub line: usize,
    /// The mandatory reason.
    pub reason: String,
}

/// Aggregated result of all passes.
#[derive(Clone, Debug, Default)]
pub struct AnalysisReport {
    /// Unsuppressed findings, sorted.
    pub findings: Vec<Finding>,
    /// Suppressed findings, sorted.
    pub suppressions: Vec<Suppression>,
    /// Cold boundaries hit during traversal, sorted.
    pub cold_boundaries: Vec<ColdBoundary>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Functions in the call graph.
    pub fns_indexed: usize,
    /// Crates analyzed.
    pub crates: usize,
    /// Hot-marked root functions.
    pub hot_roots: usize,
    /// `pub` items audited.
    pub pub_items: usize,
    /// Shipped fns reachable from the `csim` entry point and proven
    /// (or contracted) free of unchecked indexing and underflow.
    pub reachable_fns: usize,
    /// Shipped files checked by the token-level source rules.
    pub source_files: usize,
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
        self.cold_boundaries.sort();
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
        let cold: Vec<Json> = self
            .cold_boundaries
            .iter()
            .map(|c| {
                Json::obj([
                    ("fn", Json::str(&c.func)),
                    ("file", Json::str(&c.file)),
                    ("line", Json::UInt(c.line as u64)),
                    ("reason", Json::str(&c.reason)),
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
                    ("hot_roots", Json::UInt(self.hot_roots as u64)),
                    ("pub_items", Json::UInt(self.pub_items as u64)),
                    ("reachable_fns", Json::UInt(self.reachable_fns as u64)),
                    ("source_files", Json::UInt(self.source_files as u64)),
                ]),
            ),
            ("clean", Json::Bool(self.is_clean())),
            ("findings", Json::Arr(findings)),
            ("suppressions", Json::Arr(suppressions)),
            ("cold_boundaries", Json::Arr(cold)),
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
        if !self.cold_boundaries.is_empty() {
            let _ = writeln!(out, "cold boundaries ({}):", self.cold_boundaries.len());
            for c in &self.cold_boundaries {
                let _ = writeln!(out, "  {}:{}: {} — {}", c.file, c.line, c.func, c.reason);
            }
        }
        let source_escapes = self
            .suppressions
            .iter()
            .filter(|s| crate::source::RULES.contains(&s.rule.as_str()))
            .count();
        let _ = writeln!(
            out,
            "csim-analyze: {} findings, {} suppressed, {} cold boundaries; {} crates, {} files, {} fns, {} hot roots, {} pub items, {} panic-free reachable fns, {} source-rule files ({} escapes)",
            self.findings.len(),
            self.suppressions.len(),
            self.cold_boundaries.len(),
            self.crates,
            self.files_scanned,
            self.fns_indexed,
            self.hot_roots,
            self.pub_items,
            self.reachable_fns,
            self.source_files,
            source_escapes,
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
                pass: Pass::HotPath,
                rule: "hot-alloc".into(),
                file: "crates/x/src/lib.rs".into(),
                line: 7,
                message: "allocation reachable from hot fn".into(),
                excerpt: "v.push(1);".into(),
                chain: vec!["root".into(), "leaf".into()],
            }],
            suppressions: vec![Suppression {
                rule: "dead-pub".into(),
                file: "crates/y/src/lib.rs".into(),
                line: 3,
                reason: "public API surface".into(),
            }],
            cold_boundaries: Vec::new(),
            files_scanned: 2,
            fns_indexed: 5,
            crates: 2,
            hot_roots: 1,
            pub_items: 4,
            reachable_fns: 3,
            source_files: 2,
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
        assert!(h.contains("[hot-alloc]"));
        assert!(h.contains("via: root -> leaf"));
        assert!(h.contains("suppressed (1):"));
        assert!(h.contains("1 findings, 1 suppressed"));
    }
}
