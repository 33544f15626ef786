//! Pass 3 — interprocedural determinism taint.
//!
//! The workspace's contract is that every exported artifact (SimReport,
//! JSON exports, sweep merges) is byte-stable across runs. The
//! [`crate::source`] pass bans hash-container *tokens* in export files;
//! this pass goes further and tracks *flow*: a function that iterates a
//! `HashMap`/`HashSet` (directly, via a type alias like `LineMap`, or
//! via a hash-typed struct field) produces order-nondeterministic data,
//! and so — transitively — does everything that calls it. Wall-clock
//! reads (`SystemTime`, `Instant`), thread identity, and environment
//! reads are sources too.
//!
//! A finding fires when a *tainted* function is, or directly calls, a
//! *sink*: a function in an export-path file, or one that builds a
//! `SimReport` value. Sorting the iteration (collect into a `Vec` and
//! `sort`, or use a `BTreeMap`) removes the taint at the source; when a
//! function is sorted-by-construction the `// lint: allow(taint-export)
//! — reason` escape records why.

use std::collections::BTreeSet;

use crate::lex::TokKind;

use crate::graph::CallGraph;
use crate::model::{FnItem, Workspace};
use crate::report::{Finding, Pass, Suppression};

/// Hash-iteration methods: calling one of these on a hash-named
/// receiver makes the function a taint source.
const ITER_METHODS: &[&str] =
    &["iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "drain", "into_keys", "into_values"];

/// Files whose functions count as export sinks: the source pass's
/// [`crate::source::EXPORT_PATHS`], plus prof and the sweep merge path.
const SINK_PATHS: &[&str] = &[
    "crates/obs/src/",
    "crates/stats/src/",
    "crates/analyze/src/",
    "crates/prof/src/",
    "crates/core/src/report.rs",
    "crates/core/src/export.rs",
    "crates/sweep/src/engine.rs",
];

/// Why a function is a source (for messages).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum SourceKind {
    /// Iterates a hash-ordered container.
    HashIter(String),
    /// Reads wall-clock time.
    WallClock,
    /// Observes thread identity.
    ThreadId,
    /// Reads the process environment.
    Env,
}

impl SourceKind {
    fn describe(&self) -> String {
        match self {
            SourceKind::HashIter(recv) => {
                format!("iterates hash-ordered container `{recv}` (order varies run-to-run)")
            }
            SourceKind::WallClock => "reads wall-clock time".to_string(),
            SourceKind::ThreadId => "observes thread identity".to_string(),
            SourceKind::Env => "reads the process environment".to_string(),
        }
    }
}

/// Finds the nondeterminism sources in one function body.
fn sources_in(ws: &Workspace, f: &FnItem) -> Vec<(usize, SourceKind)> {
    let file = ws.file_of(f);
    let body = ws.body_toks(f);
    let n = body.len();
    let empty = BTreeSet::new();
    let hash_names = ws.hash_names.get(&f.crate_name).unwrap_or(&empty);
    // Local bindings / params typed by a hash name (`let seen:
    // HashSet<u64>`, `m: &HashMap<..>`), found by an `ident : …
    // HashName` scan over the signature and body token spans.
    let mut local_hash: BTreeSet<String> = BTreeSet::new();
    for span in [ws.sig_toks(f), body] {
        let m = span.len();
        for i in 0..m {
            if span[i].kind == TokKind::Ident
                && i + 2 < m
                && file.text(span[i + 1]) == ":"
                && file.text(span[i + 2]) != ":"
            {
                // type tokens up to a delimiter
                let mut j = i + 2;
                let mut depth = 0usize;
                while j < m {
                    let u = file.text(span[j]);
                    match u {
                        "<" | "(" | "[" => depth += 1,
                        ">" | ")" | "]" if depth > 0 => depth -= 1,
                        "," | ";" | "=" | ")" | ">" if depth == 0 => break,
                        _ => {
                            if span[j].kind == TokKind::Ident && hash_names.contains(u) {
                                local_hash.insert(file.text(span[i]).to_string());
                            }
                        }
                    }
                    j += 1;
                    if j > i + 12 {
                        break;
                    }
                }
            }
        }
    }

    let is_hashy = |name: &str| hash_names.contains(name) || local_hash.contains(name);
    let mut out = Vec::new();
    for i in 0..n {
        if body[i].kind != TokKind::Ident {
            continue;
        }
        let t = file.text(body[i]);
        let line = body[i].line as usize;
        // `recv.iter()` — receiver is the ident before the dot.
        if ITER_METHODS.contains(&t)
            && i >= 2
            && file.text(body[i - 1]) == "."
            && body[i - 2].kind == TokKind::Ident
            && i + 1 < n
            && file.text(body[i + 1]) == "("
        {
            let recv = file.text(body[i - 2]);
            if is_hashy(recv) {
                out.push((line, SourceKind::HashIter(recv.to_string())));
            }
        }
        // `for x in recv { … }` / `for (k, v) in &self.map { … }` —
        // any hash name between `for` and the block brace.
        if t == "for" {
            let mut j = i + 1;
            while j < n && file.text(body[j]) != "{" && j < i + 24 {
                if body[j].kind == TokKind::Ident && is_hashy(file.text(body[j])) {
                    out.push((body[j].line as usize, SourceKind::HashIter(file.text(body[j]).to_string())));
                    break;
                }
                j += 1;
            }
        }
        // Qualified calls only (`Instant::now(..)`), so that *naming*
        // these types — in match arms, docs, or this very pass — does
        // not count as *reading* them.
        let qual_call = |target: &str| {
            i >= 3
                && file.text(body[i - 1]) == ":"
                && file.text(body[i - 2]) == ":"
                && file.text(body[i - 3]) == target
                && i + 1 < n
                && file.text(body[i + 1]) == "("
        };
        match t {
            "now" if qual_call("Instant") || qual_call("SystemTime") => {
                out.push((line, SourceKind::WallClock));
            }
            "current" if qual_call("thread") => {
                out.push((line, SourceKind::ThreadId));
            }
            "var" | "var_os" | "vars" if qual_call("env") => {
                out.push((line, SourceKind::Env));
            }
            _ => {}
        }
    }
    out.sort();
    out.dedup();
    out
}

/// True when `f` is an export sink.
fn is_sink(ws: &Workspace, f: &FnItem) -> bool {
    if f.in_test {
        return false;
    }
    let file = ws.file_of(f);
    if SINK_PATHS.iter().any(|p| file.rel.starts_with(p) || file.rel == p.trim_end_matches('/')) {
        return true;
    }
    // Building a report value directly counts regardless of file.
    let body = ws.body_toks(f);
    for i in 0..body.len().saturating_sub(1) {
        if file.text(body[i]) == "SimReport" && file.text(body[i + 1]) == "{" {
            return true;
        }
    }
    false
}

/// Runs the taint pass.
pub fn run(ws: &Workspace, graph: &CallGraph) -> (Vec<Finding>, Vec<Suppression>) {
    let mut suppressions = Vec::new();
    // 1. Sources. An `allow(taint-export)` marker at the source line
    //    (or on the enclosing fn) declares the nondeterminism contained
    //    — sorted before export, or deliberately outside the
    //    byte-stable surface — and neutralizes the taint root, so
    //    transitive callers clear with it. The suppression is counted.
    let mut source_fns: Vec<(usize, Vec<(usize, SourceKind)>)> = Vec::new();
    for f in &ws.fns {
        let file = ws.file_of(f);
        // Sources come from shipped code only — test and fixture files
        // are free to be nondeterministic, and must not contribute
        // taint roots (or counted suppressions) to the workspace gate.
        if f.in_test || !matches!(file.section, crate::model::Section::Src | crate::model::Section::Bin)
        {
            continue;
        }
        let mut live = Vec::new();
        for (line, kind) in sources_in(ws, f) {
            // A marker above the `fn` covers its whole body; the
            // suppression is recorded at the line the marker bound to.
            let allow = file
                .allow_for("taint-export", line)
                .map(|why| (line, why))
                .or_else(|| file.allow_for("taint-export", f.line).map(|why| (f.line, why)));
            if let Some((at, reason)) = allow {
                suppressions.push(Suppression {
                    rule: "taint-export".into(),
                    file: file.rel.clone(),
                    line: at,
                    reason: reason.to_string(),
                });
            } else {
                live.push((line, kind));
            }
        }
        if !live.is_empty() {
            source_fns.push((f.id, live));
        }
    }
    // 2. Taint propagates callee → caller: whatever calls a tainted fn
    //    receives nondeterministic data. Cold markers do not cut taint
    //    (a slow path flowing into a report is still a bug); only
    //    explicit allows suppress.
    let roots: Vec<usize> = source_fns.iter().map(|(id, _)| *id).collect();
    let tainted = graph.reach_backward(&roots);

    // 3. Sinks.
    let mut findings = Vec::new();
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for f in &ws.fns {
        if f.in_test || !tainted.contains_key(&f.id) {
            continue;
        }
        // Only *sink* functions that are themselves tainted fire: their
        // own execution pulls nondeterministic data into an export
        // path. (Tainted callers of sinks are not findings — passing
        // through an export file is what every caller of `report()`
        // does.)
        if !is_sink(ws, f) {
            continue;
        }
        // Attribute the finding to the source reaching this fn: walk
        // the predecessor chain down to a root and use its source list.
        let chain = CallGraph::chain(ws, &tainted, f.id);
        let root = *chain_root(&tainted, f.id);
        let file = ws.file_of(f);
        let (line, detail) = source_detail(ws, &source_fns, root, f);
        if !seen.insert((f.id, line)) {
            continue;
        }
        if let Some(reason) = file.allow_for("taint-export", f.line) {
            suppressions.push(Suppression {
                rule: "taint-export".into(),
                file: file.rel.clone(),
                line: f.line,
                reason: reason.to_string(),
            });
        } else {
            let mut chain_disp: Vec<String> = chain;
            chain_disp.reverse(); // source first reads better for flow
            findings.push(Finding {
                pass: Pass::Taint,
                rule: "taint-export".into(),
                file: file.rel.clone(),
                line: f.line,
                message: format!(
                    "nondeterministic data can reach export path `{}`: {}",
                    f.display_name(),
                    detail
                ),
                excerpt: file.line_text(f.line).to_string(),
                chain: chain_disp,
            });
        }
    }
    findings.sort();
    findings.dedup();
    (findings, suppressions)
}

/// Follows predecessors to the BFS root (the source fn).
fn chain_root(pred: &std::collections::BTreeMap<usize, usize>, mut f: usize) -> &usize {
    let mut guard = 0;
    loop {
        match pred.get(&f) {
            Some(&p) if p != f && guard < 64 => {
                f = p;
                guard += 1;
            }
            _ => break,
        }
    }
    pred.get_key_value(&f).map(|(k, _)| k).unwrap_or(&0)
}

fn source_detail(
    ws: &Workspace,
    source_fns: &[(usize, Vec<(usize, SourceKind)>)],
    root: usize,
    at: &FnItem,
) -> (usize, String) {
    if let Some((_, sources)) = source_fns.iter().find(|(id, _)| *id == root) {
        if let Some((line, kind)) = sources.first() {
            let root_fn = &ws.fns[root];
            if root == at.id {
                return (*line, kind.describe());
            }
            return (
                at.line,
                format!("`{}` {}", root_fn.display_name(), kind.describe()),
            );
        }
    }
    (at.line, "tainted by a nondeterminism source".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Section;

    fn ws_of(files: &[(&str, &str, &str)]) -> (Workspace, CallGraph) {
        let mut ws = Workspace::default();
        let mut crates: BTreeSet<String> = files.iter().map(|(_, c, _)| c.to_string()).collect();
        crates.insert("(root)".into());
        ws.crates = crates.into_iter().collect();
        for c in ws.crates.clone() {
            let mut base = BTreeSet::new();
            base.insert("HashMap".to_string());
            base.insert("HashSet".to_string());
            ws.hash_names.insert(c, base);
        }
        for (rel, c, src) in files {
            ws.add_file((*rel).into(), (*c).into(), Section::Src, (*src).into());
        }
        let g = CallGraph::build(&ws);
        (ws, g)
    }

    #[test]
    fn hash_iteration_flowing_into_sink_file_is_flagged() {
        let (ws, g) = ws_of(&[
            (
                "crates/core/src/dir.rs",
                "core",
                "use std::collections::HashMap;\n\
                 pub fn sharer_list(m: &HashMap<u64, u8>) -> Vec<u64> {\n\
                     let mut v = Vec::new();\n\
                     for (k, _) in m.iter() { v.push(*k); }\n\
                     v\n\
                 }\n",
            ),
            (
                "crates/core/src/report.rs",
                "core",
                "pub fn export(m: &std::collections::HashMap<u64, u8>) -> Vec<u64> { super::dir::sharer_list(m) }\n",
            ),
        ]);
        let (findings, _) = run(&ws, &g);
        assert!(
            findings.iter().any(|f| f.rule == "taint-export" && f.file.ends_with("report.rs")),
            "{findings:?}"
        );
    }

    #[test]
    fn sorted_iteration_with_allow_is_suppressed() {
        let (ws, g) = ws_of(&[(
            "crates/core/src/report.rs",
            "core",
            "use std::collections::HashMap;\n\
             // lint: allow(taint-export) — keys are collected and sorted before export\n\
             pub fn export(m: &HashMap<u64, u8>) -> Vec<u64> {\n\
                 let mut v: Vec<u64> = m.keys().copied().collect();\n\
                 v.sort_unstable();\n\
                 v\n\
             }\n",
        )]);
        let (findings, supp) = run(&ws, &g);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(supp.len(), 1);
    }

    #[test]
    fn wallclock_in_sink_path_is_flagged() {
        let (ws, g) = ws_of(&[(
            "crates/obs/src/manifest.rs",
            "obs",
            "pub fn stamp() -> u64 { let _t = std::time::Instant::now(); 0 }\n",
        )]);
        let (findings, _) = run(&ws, &g);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("wall-clock"));
    }

    #[test]
    fn btreemap_iteration_is_clean() {
        let (ws, g) = ws_of(&[(
            "crates/obs/src/hist.rs",
            "obs",
            "use std::collections::BTreeMap;\n\
             pub fn export(m: &BTreeMap<u64, u8>) -> Vec<u64> { m.keys().copied().collect() }\n",
        )]);
        let (findings, _) = run(&ws, &g);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn taint_outside_sink_paths_is_not_flagged() {
        let (ws, g) = ws_of(&[(
            "crates/coherence/src/dir.rs",
            "coherence",
            "use std::collections::HashMap;\n\
             pub fn count(m: &HashMap<u64, u8>) -> usize { m.iter().count() }\n",
        )]);
        let (findings, _) = run(&ws, &g);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
