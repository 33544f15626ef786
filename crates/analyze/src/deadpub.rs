//! Pass 1 — the dead-`pub` audit.
//!
//! `pub` is a promise: someone outside the crate uses this. The audit
//! checks the promise against reality. A `pub` item in shipped library
//! code is *dead* when its name appears in no other workspace crate, no
//! test, no example/bench, and no binary — i.e. nothing outside its own
//! `src/` tree mentions it. Dead items lose their `pub` (or the item
//! entirely); the audit has no escape.
//!
//! The usage index is name-based (every identifier in every file), so
//! the audit over-approximates *liveness*, never deadness: a false
//! "used" is possible when two items share a name, a false "dead" is
//! not — if the name appears nowhere else, the item is certainly
//! unreferenced. That is the safe direction for a hard CI gate.

use crate::model::{Section, Workspace};
use crate::report::{Finding, Pass};

/// Names that are conventionally pub without external callers: trait
/// methods and well-known constructors invoked through generic code.
const CONVENTIONAL: &[&str] = &["new", "default", "fmt", "clone", "drop", "next", "eq", "cmp"];

/// Runs the audit.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    // Phase 1 — external liveness: which pub items does some *consumer
    // context* mention? A use inside the defining crate's own src/
    // does not count (that's the definition and its plumbing).
    let audited: Vec<usize> = ws
        .pub_items
        .iter()
        .enumerate()
        .filter(|(_, item)| {
            !CONVENTIONAL.contains(&item.name.as_str())
                && ws.files[item.file].section == Section::Src
        })
        .map(|(i, _)| i)
        .collect();
    let mut live: Vec<bool> = vec![false; ws.pub_items.len()];
    for &pi in &audited {
        let item = &ws.pub_items[pi];
        for (idx, file) in ws.files.iter().enumerate() {
            if file.crate_name == item.crate_name && file.section == Section::Src {
                // Only `#[cfg(test)]` regions of same-crate src files
                // count as real consumers.
                if mentioned_in_tests(ws, idx, &item.name) {
                    live[pi] = true;
                    break;
                }
                continue;
            }
            // Everything else — other crates (any section), plus this
            // crate's tests/, examples/, benches/, and src/bin/ — is a
            // consumer context.
            if file.idents.contains(&item.name) {
                live[pi] = true;
                break;
            }
        }
    }

    // Phase 2 — close liveness over API signatures: a pub type named
    // in the signature of a live pub fn, or in the body of a live pub
    // struct/enum (field and variant payload types), is part of the
    // reachable API surface even if no consumer writes its name (e.g.
    // an iterator type, or a report struct reached through a getter).
    // Iterate to a fixed point; liveness only grows, so this
    // terminates.
    let mut by_name: std::collections::BTreeMap<&str, Vec<usize>> =
        std::collections::BTreeMap::new();
    for &pi in &audited {
        by_name.entry(ws.pub_items[pi].name.as_str()).or_default().push(pi);
    }
    loop {
        let mut changed = false;
        for &pi in &audited {
            if !live[pi] {
                continue;
            }
            let item = &ws.pub_items[pi];
            let file = &ws.files[item.file];
            let (a, b) = item.span;
            for t in &file.toks[a..b.min(file.toks.len())] {
                if t.kind != crate::lex::TokKind::Ident {
                    continue;
                }
                let name = file.text(*t);
                if name == item.name {
                    continue;
                }
                if let Some(cands) = by_name.get(name) {
                    for &ci in cands {
                        // Only items visible from the live item's
                        // crate: same crate, or any crate (names are
                        // global enough at this scale; liveness may
                        // only over-approximate).
                        if !live[ci] {
                            live[ci] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    audited
        .into_iter()
        .filter(|&pi| !live[pi])
        .map(|pi| {
            let item = &ws.pub_items[pi];
            let def_file = &ws.files[item.file];
            Finding {
                pass: Pass::DeadPub,
                rule: "dead-pub".into(),
                file: def_file.rel.clone(),
                line: item.line,
                message: format!(
                    "pub {} `{}` in crate `{}` is used by no other crate, test, example, or binary",
                    item.kind.word(),
                    item.name,
                    item.crate_name
                ),
                excerpt: def_file.line_text(item.line).to_string(),
                chain: Vec::new(),
            }
        })
        .collect()
}

/// True when `name` appears inside a `#[cfg(test)]` region of the file
/// (approximated: any test-fn body token mentions it).
fn mentioned_in_tests(ws: &Workspace, file_idx: usize, name: &str) -> bool {
    ws.fns
        .iter()
        .filter(|f| f.file == file_idx && f.in_test)
        .any(|f| {
            let file = ws.file_of(f);
            ws.body_toks(f).iter().any(|t| file.text(*t) == name)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Section;
    use std::collections::BTreeSet;

    fn ws_of(files: &[(&str, &str, Section, &str)]) -> Workspace {
        let mut ws = Workspace::default();
        let mut crates: BTreeSet<String> = files.iter().map(|(_, c, _, _)| c.to_string()).collect();
        crates.insert("(root)".into());
        ws.crates = crates.into_iter().collect();
        for (rel, c, sec, src) in files {
            ws.add_file((*rel).into(), (*c).into(), *sec, (*src).into());
        }
        ws
    }

    #[test]
    fn unreferenced_pub_fn_is_dead() {
        let ws = ws_of(&[(
            "crates/cache/src/lib.rs",
            "cache",
            Section::Src,
            "pub fn orphan() {}\npub fn used_by_core() {}\n",
        ), (
            "crates/core/src/lib.rs",
            "core",
            Section::Src,
            "fn go() { csim_cache::used_by_core(); }\n",
        )]);
        let findings = run(&ws);
        let names: Vec<&str> =
            findings.iter().map(|f| f.excerpt.trim_start_matches("pub fn ")).collect();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(names[0].starts_with("orphan"));
    }

    #[test]
    fn use_from_tests_examples_and_bins_counts() {
        let ws = ws_of(&[
            ("crates/cache/src/lib.rs", "cache", Section::Src,
             "pub fn by_test() {}\npub fn by_example() {}\npub fn by_bin() {}\n"),
            ("crates/cache/tests/t.rs", "cache", Section::Tests, "fn t() { by_test(); }\n"),
            ("examples/e.rs", "(root)", Section::Examples, "fn main() { by_example(); }\n"),
            ("crates/cache/src/bin/tool.rs", "cache", Section::Bin, "fn main() { by_bin(); }\n"),
        ]);
        let findings = run(&ws);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn same_file_test_module_use_counts() {
        let ws = ws_of(&[(
            "crates/cache/src/lib.rs",
            "cache",
            Section::Src,
            "pub fn covered() -> u64 { 7 }\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert_eq!(super::covered(), 7); }\n}\n",
        )]);
        let findings = run(&ws);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn conventional_names_are_skipped() {
        let ws = ws_of(&[(
            "crates/cache/src/lib.rs",
            "cache",
            Section::Src,
            "pub struct C;\nimpl C { pub fn new() -> C { C } }\nfn mk() -> C { C::new() }\nfn use_c() { let _ = mk(); }\npub fn also_c() { use_c(); }\n",
        ), (
            "crates/core/src/lib.rs",
            "core",
            Section::Src,
            "fn go() { csim_cache::also_c(); let _ = csim_cache::C::new(); }\n",
        )]);
        let findings = run(&ws);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
