//! Pass 2 — the hot-path allocation lint.
//!
//! Functions marked `// analyze: hot` are the simulator's per-reference
//! kernels (PR 4's packed-slot probe, the Lemire bounded RNG, the burst
//! refill fast path, the epoch-hoisted `advance`). The whole point of
//! that work was that the inner loop does integer arithmetic on
//! registers and touches no allocator — this pass makes the property
//! checkable. From every hot root the call graph is walked forward;
//! every reachable function must avoid **`hot-alloc`** — heap
//! allocation: `Box::new`, `Rc::new`, `String::from`, `format!`/`vec!`,
//! growth methods (`push`, `extend`, `collect`, `reserve`, `to_vec`,
//! `to_string`, `to_owned`, `clone`).
//!
//! Panicking calls are not this pass's concern: [`crate::source`]'s
//! `no-panic` bans them in every shipped simulator file, hot or not.
//!
//! `// analyze: cold — reason` cuts traversal at amortized slow paths
//! (e.g. the burst-buffer `refill`) and at functions where the name
//! resolver over-approximates; every cut is counted in the report so
//! escapes stay auditable. `// lint: allow(hot-*) — reason` suppresses
//! a single finding in place.

use std::collections::BTreeMap;

use crate::lex::TokKind;

use crate::graph::CallGraph;
use crate::model::{FnItem, Section, Workspace};
use crate::report::{ColdBoundary, Finding, Pass, Suppression};

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["format", "vec", "println", "eprintln", "print", "eprint", "write", "writeln"];
/// Methods that allocate or grow heap storage.
const ALLOC_METHODS: &[&str] = &[
    "push", "push_str", "to_string", "to_owned", "to_vec", "clone", "extend",
    "extend_from_slice", "collect", "reserve", "append", "join", "repeat",
];
/// `Type::ctor` pairs that allocate.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Box", "new"),
    ("Rc", "new"),
    ("Arc", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("BTreeMap", "new"),
    ("BTreeSet", "new"),
    ("HashMap", "new"),
    ("HashSet", "new"),
    ("VecDeque", "new"),
];

/// Result of the hot-path pass.
pub struct HotPathResult {
    /// Unsuppressed findings.
    pub findings: Vec<Finding>,
    /// Suppressions consumed.
    pub suppressions: Vec<Suppression>,
    /// Cold cuts hit while walking from hot roots.
    pub cold_boundaries: Vec<ColdBoundary>,
    /// Number of hot roots found.
    pub hot_roots: usize,
}

/// Runs the hot-path lint.
pub fn run(ws: &Workspace, graph: &CallGraph) -> HotPathResult {
    // Roots come from shipped code only: a hot marker inside a test,
    // example, or fixture file must not turn that file into a lint
    // target of the real workspace scan.
    let roots: Vec<usize> = ws
        .fns
        .iter()
        .filter(|f| {
            f.hot
                && !f.in_test
                && matches!(ws.files[f.file].section, Section::Src | Section::Bin)
        })
        .map(|f| f.id)
        .collect();
    let pred = graph.reach_forward(&roots, |g| ws.fns[g].cold.is_some());

    // Cold boundaries actually adjacent to the reached set (a cold
    // marker on an unreachable fn is inert and not reported).
    let mut cold: Vec<ColdBoundary> = Vec::new();
    for &f in pred.keys() {
        for &g in &graph.callees[f] {
            if let Some(reason) = &ws.fns[g].cold {
                cold.push(ColdBoundary {
                    func: ws.fns[g].display_name(),
                    file: ws.file_of(&ws.fns[g]).rel.clone(),
                    line: ws.fns[g].line,
                    reason: reason.clone(),
                });
            }
        }
    }
    cold.sort();
    cold.dedup();

    let mut findings = Vec::new();
    let mut suppressions = Vec::new();
    for &fid in pred.keys() {
        let f = &ws.fns[fid];
        scan_fn(ws, &pred, f, &mut findings, &mut suppressions);
    }
    HotPathResult { findings, suppressions, cold_boundaries: cold, hot_roots: roots.len() }
}

fn scan_fn(
    ws: &Workspace,
    pred: &BTreeMap<usize, usize>,
    f: &FnItem,
    findings: &mut Vec<Finding>,
    suppressions: &mut Vec<Suppression>,
) {
    let file = ws.file_of(f);
    let body = ws.body_toks(f);
    let n = body.len();
    let chain = CallGraph::chain(ws, pred, f.id);
    let mut emit = |line: usize, message: String| {
        if let Some(reason) = file.allow_for("hot-alloc", line) {
            suppressions.push(Suppression {
                rule: "hot-alloc".to_string(),
                file: file.rel.clone(),
                line,
                reason: reason.to_string(),
            });
        } else {
            findings.push(Finding {
                pass: Pass::HotPath,
                rule: "hot-alloc".to_string(),
                file: file.rel.clone(),
                line,
                message,
                excerpt: file.line_text(line).to_string(),
                chain: chain.clone(),
            });
        }
    };

    for i in 0..n {
        let t = body[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let text = file.text(t);
        let line = t.line as usize;
        let next = body.get(i + 1).map(|u| file.text(*u));
        let prev = i.checked_sub(1).map(|j| file.text(body[j]));
        // macro! invocations
        if next == Some("!") {
            if ALLOC_MACROS.contains(&text) {
                emit(line, format!("`{text}!` allocates on a hot path"));
            }
            continue;
        }
        // .method( calls
        if prev == Some(".") {
            // argument list may open after a turbofish
            let opens_call = {
                let mut j = i + 1;
                if j + 2 < n
                    && file.text(body[j]) == ":"
                    && file.text(body[j + 1]) == ":"
                    && file.text(body[j + 2]) == "<"
                {
                    let mut depth = 0usize;
                    let mut m = j + 2;
                    while m < n {
                        match file.text(body[m]) {
                            "<" => depth += 1,
                            ">" => {
                                depth = depth.saturating_sub(1);
                                if depth == 0 {
                                    m += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        m += 1;
                    }
                    j = m;
                }
                j < n && file.text(body[j]) == "("
            };
            if opens_call {
                if ALLOC_METHODS.contains(&text) {
                    emit(
                        line,
                        format!("`.{text}(..)` allocates or grows heap storage on a hot path"),
                    );
                }
                continue;
            }
        }
        // Type::ctor( calls
        if (next == Some(":")
            || (prev == Some(":") && i >= 2 && file.text(body[i - 2]) == ":"))
            && prev == Some(":")
            && i >= 3
            && body[i - 3].kind == TokKind::Ident
        {
            let qual = file.text(body[i - 3]);
            if ALLOC_PATHS.contains(&(qual, text)) {
                emit(line, format!("`{qual}::{text}` allocates on a hot path"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Section;

    fn ws_of(src: &str) -> (Workspace, CallGraph) {
        let mut ws = Workspace { crates: vec!["core".into()], ..Workspace::default() };
        ws.add_file("crates/core/src/lib.rs".into(), "core".into(), Section::Src, src.into());
        let g = CallGraph::build(&ws);
        (ws, g)
    }

    #[test]
    fn transitive_allocation_is_found_with_chain() {
        let src = "\
// analyze: hot
pub fn kernel(v: &mut Vec<u64>) { helper(v); }
fn helper(v: &mut Vec<u64>) { v.push(1); }
";
        let (ws, g) = ws_of(src);
        let r = run(&ws, &g);
        assert_eq!(r.hot_roots, 1);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "hot-alloc");
        assert_eq!(r.findings[0].chain, ["kernel", "helper"]);
    }

    #[test]
    fn floats_asserts_and_unwraps_are_not_hot_rules() {
        let src = "\
// analyze: hot
pub fn kernel(x: u64) -> u64 {
    assert!(x > 0);
    let y = x as f64 * 1.5;
    maybe(y as u64).unwrap()
}
fn maybe(x: u64) -> Option<u64> { Some(x) }
";
        let (ws, g) = ws_of(src);
        let r = run(&ws, &g);
        // The `.unwrap()` is the source pass's `no-panic`, and float
        // arithmetic is no hot-path concern: the identity tests pin it.
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn cold_markers_cut_traversal_and_are_counted() {
        let src = "\
// analyze: hot
pub fn kernel(v: &mut Vec<u64>) { if v.is_empty() { refill(v); } }
// analyze: cold — amortized slow path, runs once per 4096 refs
fn refill(v: &mut Vec<u64>) { v.push(1); }
";
        let (ws, g) = ws_of(src);
        let r = run(&ws, &g);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.cold_boundaries.len(), 1);
        assert!(r.cold_boundaries[0].reason.contains("amortized"));
    }

    #[test]
    fn allow_markers_suppress_with_reason() {
        let src = "\
// analyze: hot
pub fn kernel(v: &mut Vec<u64>, x: u64) {
    // lint: allow(hot-alloc) — capacity is reserved at construction, so the push never reallocates
    v.push(x);
}
";
        let (ws, g) = ws_of(src);
        let r = run(&ws, &g);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressions.len(), 1);
        assert_eq!(r.suppressions[0].rule, "hot-alloc");
    }
}
