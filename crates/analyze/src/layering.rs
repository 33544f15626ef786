//! Pass 1 — the architecture layering gate.
//!
//! The workspace has an intended shape: leaf crates (`config`, `trace`,
//! `stats`) know nothing; the domain crates (`cache`, `coherence`,
//! `noc`, `workload`, `proc`, `fault`) sit on the leaves; `core`
//! composes the domain; `sweep`/`obs`/`prof`/`check`/`analyze` sit at
//! the rim;
//! the root facade sees everything. Each crate below lists the crates
//! it is *allowed* to depend on. Any observed intra-workspace reference
//! outside that list is a finding — including references smuggled in
//! through function bodies rather than `use` items, which is why the
//! model records every `csim_*` identifier in shipped code, not just
//! import declarations.
//!
//! The table itself is validated at startup: it must describe a DAG, so
//! nobody can "fix" a layering finding by introducing a cycle into the
//! allowlist.

use std::collections::{BTreeMap, BTreeSet};

use crate::model::Workspace;
use crate::report::{Finding, Pass, Suppression};

/// The allowed dependency table: `(crate, allowed deps)`.
///
/// `(root)` is the facade package; it may re-export everything.
pub const ALLOWED_DEPS: &[(&str, &[&str])] = &[
    ("config", &[]),
    ("trace", &[]),
    ("stats", &[]),
    ("proc", &["config"]),
    ("cache", &["config", "trace"]),
    ("coherence", &["trace"]),
    ("workload", &["trace"]),
    ("noc", &["config", "trace"]),
    ("fault", &["trace", "noc"]),
    ("obs", &["proc", "fault", "trace"]),
    ("check", &["coherence", "trace"]),
    ("prof", &["trace", "proc", "obs", "stats"]),
    (
        "core",
        &[
            "trace", "workload", "cache", "coherence", "check", "proc", "config", "fault",
            "stats", "obs", "prof",
        ],
    ),
    ("sweep", &["trace", "workload", "config", "core", "obs", "fault"]),
    ("analyze", &["obs"]),
    (
        "bench",
        &["cache", "coherence", "config", "core", "noc", "stats", "trace", "workload"],
    ),
];

/// Crates the architecture forbids the *simulation substrate* from
/// seeing: anything in this set appearing as a dependency of `cache`,
/// `coherence`, or `noc` is flagged even if someone also edits
/// [`ALLOWED_DEPS`], as a second tripwire.
pub(crate) const SUBSTRATE: &[&str] = &["cache", "coherence", "noc"];

/// Crates the substrate must never depend on.
pub(crate) const UPPER_LAYERS: &[&str] = &["core", "obs", "prof", "sweep", "analyze"];

/// Checks that the allowlist is acyclic. Returns a cycle description
/// on failure (the pass refuses to run with a cyclic table).
pub fn validate_table() -> Result<(), String> {
    let mut adj: BTreeMap<&str, &[&str]> = BTreeMap::new();
    for (c, deps) in ALLOWED_DEPS {
        adj.insert(c, deps);
    }
    // 0 = unvisited, 1 = on stack, 2 = done.
    let mut state: BTreeMap<&str, u8> = BTreeMap::new();
    fn visit<'a>(
        node: &'a str,
        adj: &BTreeMap<&'a str, &'a [&'a str]>,
        state: &mut BTreeMap<&'a str, u8>,
        path: &mut Vec<&'a str>,
    ) -> Result<(), String> {
        match state.get(node) {
            Some(1) => {
                path.push(node);
                return Err(format!("allowlist cycle: {}", path.join(" -> ")));
            }
            Some(2) => return Ok(()),
            _ => {}
        }
        state.insert(node, 1);
        path.push(node);
        if let Some(deps) = adj.get(node) {
            for d in deps.iter() {
                visit(d, adj, state, path)?;
            }
        }
        path.pop();
        state.insert(node, 2);
        Ok(())
    }
    for (c, _) in ALLOWED_DEPS {
        visit(c, &adj, &mut state, &mut Vec::new())?;
    }
    Ok(())
}

/// Runs the layering gate over the observed import edges.
pub fn run(ws: &Workspace) -> (Vec<Finding>, Vec<Suppression>) {
    let allowed: BTreeMap<&str, BTreeSet<&str>> = ALLOWED_DEPS
        .iter()
        .map(|(c, deps)| (*c, deps.iter().copied().collect()))
        .collect();
    let mut findings = Vec::new();
    let mut suppressions = Vec::new();
    for e in &ws.imports {
        if e.from == "(root)" {
            continue;
        }
        let ok = allowed.get(e.from.as_str()).is_some_and(|deps| deps.contains(e.to.as_str()));
        let substrate_breach = SUBSTRATE.contains(&e.from.as_str())
            && UPPER_LAYERS.contains(&e.to.as_str());
        if ok && !substrate_breach {
            continue;
        }
        let file = &ws.files[e.file];
        let message = if substrate_breach {
            format!(
                "substrate crate `{}` must not depend on upper layer `{}`",
                e.from, e.to
            )
        } else {
            format!(
                "crate `{}` is not allowed to depend on `{}` (allowed: {})",
                e.from,
                e.to,
                allowed
                    .get(e.from.as_str())
                    .map(|d| {
                        let v: Vec<&str> = d.iter().copied().collect();
                        if v.is_empty() { "none".to_string() } else { v.join(", ") }
                    })
                    .unwrap_or_else(|| "crate unknown to the architecture table".to_string())
            )
        };
        if let Some(reason) = file.allow_for("layering", e.line) {
            suppressions.push(Suppression {
                rule: "layering".into(),
                file: file.rel.clone(),
                line: e.line,
                reason: reason.to_string(),
            });
        } else {
            findings.push(Finding {
                pass: Pass::Layering,
                rule: "layering".into(),
                file: file.rel.clone(),
                line: e.line,
                message,
                excerpt: file.line_text(e.line).to_string(),
                chain: Vec::new(),
            });
        }
    }
    (findings, suppressions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Section;

    #[test]
    fn table_is_a_dag() {
        validate_table().expect("allowlist must stay acyclic");
    }

    #[test]
    fn table_covers_every_real_crate_shape() {
        // Every crate in the table names only crates also in the table.
        let names: BTreeSet<&str> = ALLOWED_DEPS.iter().map(|(c, _)| *c).collect();
        for (c, deps) in ALLOWED_DEPS {
            for d in deps.iter() {
                assert!(names.contains(d), "{c} allows unknown crate {d}");
            }
        }
    }

    fn ws_with_edge(from: &str, src: &str) -> Workspace {
        let mut ws = Workspace {
            crates: vec![
                "(root)".into(),
                "cache".into(),
                "config".into(),
                "core".into(),
                "trace".into(),
            ],
            ..Workspace::default()
        };
        ws.add_file(
            format!("crates/{from}/src/lib.rs"),
            from.into(),
            Section::Src,
            src.into(),
        );
        ws
    }

    #[test]
    fn substrate_to_upper_layer_is_flagged() {
        let ws = ws_with_edge("cache", "use csim_core::Simulation;\n");
        let (findings, _) = run(&ws);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("substrate"));
    }

    #[test]
    fn allowed_edges_and_suppressed_edges_pass() {
        let ws = ws_with_edge("cache", "use csim_trace::SimRng;\nuse csim_config::CacheGeometry;\n");
        let (findings, supp) = run(&ws);
        assert!(findings.is_empty(), "{findings:?}");
        assert!(supp.is_empty());

        let ws = ws_with_edge(
            "config",
            "// lint: allow(layering) — transitional shim, tracked for removal\nuse csim_trace::SimRng;\n",
        );
        let (findings, supp) = run(&ws);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(supp.len(), 1);
    }

    #[test]
    fn body_level_references_count_not_just_use_items() {
        let ws = ws_with_edge("cache", "fn f() { let _ = csim_core::VERSION; }\n");
        let (findings, _) = run(&ws);
        assert_eq!(findings.len(), 1, "{findings:?}");
    }
}
