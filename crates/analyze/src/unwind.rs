//! Pass 6 — unwind-safety: `catch_unwind` contracts and torn shared
//! state.
//!
//! PR 6 made sweep points panic-isolated: a worker wraps each point in
//! `catch_unwind` so one poisoned configuration cannot sink a 10k-point
//! overnight sweep. That pattern is load-bearing and subtle — a panic
//! can rip through *any* callee, leaving half-written shared state
//! behind, and the catch silently resumes on top of it. The checkpoint
//! CRC machinery exists precisely because this class of bug is
//! otherwise invisible. This pass makes the discipline explicit:
//!
//! * **`unwind-contract`** — every `catch_unwind` in shipped code must
//!   carry a `// analyze: unwind — reason` contract comment within the
//!   three lines above it, stating what is allowed to be torn and why
//!   that is safe.
//! * **`unwind-shared-state`** — from the function containing the
//!   catch, walk the shipped call graph. If any reachable function
//!   mutates a named piece of workspace-shared state (the
//!   [`SharedState`] policy list: the sweep checkpoint log, the merge
//!   accumulators, the hostprof region stripes), the catching function
//!   must call one of that state's re-validators *after* the catch —
//!   otherwise a panic mid-mutation leaves torn state that the resumed
//!   code will trust.
//!
//! The policy list is data, not code: callers with richer state can
//! pass their own list via [`run_with_policy`]; the committed default
//! names exactly the shared structures the sweep/prof/trace crates own
//! today.

use crate::graph::CallGraph;
use crate::model::{Section, Workspace};
use crate::report::{Finding, Pass, Suppression};

/// One named piece of workspace-shared state the unwind pass guards.
#[derive(Clone, Debug)]
pub struct SharedState {
    /// Stable policy name (appears in findings).
    pub name: &'static str,
    /// Mutating functions as `(impl qualifier, fn name)`; a `None`
    /// qualifier matches free functions and any impl.
    pub mutators: &'static [(Option<&'static str>, &'static str)],
    /// Function names whose call *after* the catch re-validates (or
    /// restores) the state.
    pub revalidators: &'static [&'static str],
}

/// The committed policy: shared structures the workspace owns today.
pub const DEFAULT_POLICY: &[SharedState] = &[
    SharedState {
        name: "sweep-checkpoint-log",
        mutators: &[(Some("CheckpointLog"), "append"), (Some("CheckpointLog"), "disable")],
        revalidators: &["open"],
    },
    SharedState {
        name: "sweep-merge-accumulators",
        mutators: &[(None, "merge_shard_docs"), (None, "merge_shard_files")],
        revalidators: &["validate"],
    },
    SharedState {
        name: "hostprof-stripes",
        // `set_region` is both the mutator and its own restore: a catch
        // that re-asserts the region afterward is whole again.
        mutators: &[(None, "set_region")],
        revalidators: &["set_region"],
    },
];

/// Runs the unwind-safety pass with the committed default policy.
pub fn run(ws: &Workspace, graph: &CallGraph) -> (Vec<Finding>, Vec<Suppression>) {
    run_with_policy(ws, graph, DEFAULT_POLICY)
}

/// Runs the unwind-safety pass against an explicit shared-state policy.
pub fn run_with_policy(
    ws: &Workspace,
    graph: &CallGraph,
    policy: &[SharedState],
) -> (Vec<Finding>, Vec<Suppression>) {
    let mut findings = Vec::new();
    let mut suppressions = Vec::new();

    for f in &ws.fns {
        if f.in_test || !matches!(ws.files[f.file].section, Section::Src | Section::Bin) {
            continue;
        }
        let file = ws.file_of(f);
        let body = ws.body_toks(f);
        let catches: Vec<usize> = body
            .iter()
            .zip(body.iter().skip(1))
            .filter(|(t, next)| {
                t.kind == crate::lex::TokKind::Ident
                    && file.text(**t) == "catch_unwind"
                    && file.text(**next) == "("
            })
            .map(|(t, _)| t.line as usize)
            .collect();
        if catches.is_empty() {
            continue;
        }

        let mut emit = |rule: &str, line: usize, message: String, chain: Vec<String>| {
            if let Some(reason) = file.allow_for(rule, line) {
                suppressions.push(Suppression {
                    rule: rule.to_string(),
                    file: file.rel.clone(),
                    line,
                    reason: reason.to_string(),
                });
            } else {
                findings.push(Finding {
                    pass: Pass::Unwind,
                    rule: rule.to_string(),
                    file: file.rel.clone(),
                    line,
                    message,
                    excerpt: file.line_text(line).to_string(),
                    chain,
                });
            }
        };

        // Everything the catching function can reach over shipped code.
        let reach = graph.reach_forward(&[f.id], |_| false);

        for &line in &catches {
            // (i) the contract comment.
            if file.unwind_for(line).is_none() {
                emit(
                    "unwind-contract",
                    line,
                    format!(
                        "`catch_unwind` in `{}` has no contract — add `// analyze: unwind — reason` stating what may be torn and why that is safe",
                        f.display_name()
                    ),
                    vec![f.display_name()],
                );
            }

            // (ii) reachable shared-state mutation without post-catch
            // re-validation. One finding per policy entry, anchored to
            // the smallest-id reachable mutator (deterministic).
            for state in policy {
                let revalidated = graph.sites[f.id].iter().any(|c| {
                    c.line > line && state.revalidators.contains(&c.name.as_str())
                });
                if revalidated {
                    continue;
                }
                let mutator = reach.keys().find(|&&g| {
                    let gf = &ws.fns[g];
                    state.mutators.iter().any(|(qual, name)| {
                        gf.name == *name
                            && (qual.is_none() || gf.qual.as_deref() == *qual)
                    })
                });
                if let Some(&g) = mutator {
                    emit(
                        "unwind-shared-state",
                        line,
                        format!(
                            "`catch_unwind` in `{}` can reach `{}` which mutates shared state `{}` — re-validate after the catch (call one of [{}]) or defer with `// lint: allow(unwind-shared-state) — reason`",
                            f.display_name(),
                            ws.fns[g].display_name(),
                            state.name,
                            state.revalidators.join(", "),
                        ),
                        CallGraph::chain(ws, &reach, g),
                    );
                }
            }
        }
    }

    (findings, suppressions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Section;
    use std::collections::BTreeSet;

    const TEST_POLICY: &[SharedState] = &[SharedState {
        name: "test-ledger",
        mutators: &[(None, "touch_ledger")],
        revalidators: &["revalidate_ledger"],
    }];

    fn ws_of(src: &str) -> (Workspace, CallGraph) {
        let mut ws = Workspace { crates: vec!["core".into()], ..Workspace::default() };
        ws.hash_names.insert("core".into(), BTreeSet::new());
        ws.add_file("crates/core/src/lib.rs".into(), "core".into(), Section::Src, src.into());
        let g = CallGraph::build(&ws);
        (ws, g)
    }

    #[test]
    fn uncontracted_catch_fires_and_contracted_does_not() {
        let src = "\
fn guarded() {
    // analyze: unwind — point isolation; only local scratch may be torn
    let _ = std::panic::catch_unwind(|| 1 + 1);
}
fn bare() {
    let _ = std::panic::catch_unwind(|| 1 + 1);
}
";
        let (ws, g) = ws_of(src);
        let (f, _) = run_with_policy(&ws, &g, TEST_POLICY);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unwind-contract");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn reachable_mutator_without_revalidation_fires_with_chain() {
        let src = "\
fn worker() {
    // analyze: unwind — sweep point isolation
    let _ = std::panic::catch_unwind(|| step());
}
fn step() {
    touch_ledger();
}
fn touch_ledger() {}
";
        let (ws, g) = ws_of(src);
        let (f, _) = run_with_policy(&ws, &g, TEST_POLICY);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unwind-shared-state");
        assert!(f[0].message.contains("test-ledger"), "{}", f[0].message);
        assert_eq!(f[0].chain, ["worker", "step", "touch_ledger"]);
    }

    #[test]
    fn revalidation_after_the_catch_clears_the_finding() {
        let src = "\
fn worker() {
    // analyze: unwind — sweep point isolation
    let _ = std::panic::catch_unwind(|| touch_ledger());
    revalidate_ledger();
}
fn touch_ledger() {}
fn revalidate_ledger() {}
";
        let (ws, g) = ws_of(src);
        let (f, _) = run_with_policy(&ws, &g, TEST_POLICY);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_markers_suppress_both_rules_with_reasons() {
        let src = "\
fn worker() {
    // lint: allow(unwind-contract) — migrating; contract lands with the retry rework
    // lint: allow(unwind-shared-state) — ledger is rebuilt from the CRC log on resume
    let _ = std::panic::catch_unwind(|| touch_ledger());
}
fn touch_ledger() {}
";
        let (ws, g) = ws_of(src);
        let (f, s) = run_with_policy(&ws, &g, TEST_POLICY);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn test_code_catches_are_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    fn harness() {
        let _ = std::panic::catch_unwind(|| 1 + 1);
    }
}
";
        let (ws, g) = ws_of(src);
        let (f, _) = run_with_policy(&ws, &g, TEST_POLICY);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn default_policy_names_the_workspace_structures() {
        let names: Vec<&str> = DEFAULT_POLICY.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["sweep-checkpoint-log", "sweep-merge-accumulators", "hostprof-stripes"]
        );
    }
}
