//! Crate-visibility closure and the name-based call graph.
//!
//! Calls are resolved *over-approximately*: a call site `probe(..)` in
//! crate `core` may resolve to any non-test `fn probe` defined in a
//! crate `core` can see (its transitive dependency closure plus
//! itself). Qualified calls `Cache::insert(..)` narrow to functions
//! whose impl target matches. Over-approximation is the right default
//! for the panic-freedom pass, which wants "could this possibly reach
//! X".
//!
//! Crate visibility comes from the model's observed `csim_*`
//! references ([`crate::model::ImportEdge`]), not from the manifests.
//! rustc refuses an undeclared `csim_*` path, so the observed edges are
//! a subset of Cargo's; adding the declared but unreferenced edges
//! changes no reachable function of this workspace.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use crate::model::{extract_calls, Call, Workspace};

/// The call graph over [`Workspace::fns`].
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// `callees[f]` — resolved callee fn ids for each fn, deduplicated
    /// and sorted.
    pub callees: Vec<Vec<usize>>,
    /// Raw call sites per fn (for finding excerpts).
    pub sites: Vec<Vec<Call>>,
    /// Crate visibility closure: crate → crates it can see (transitive
    /// deps plus itself; `(root)` sees everything).
    pub visible: BTreeMap<String, BTreeSet<String>>,
}

impl CallGraph {
    /// Builds the graph for a parsed workspace.
    pub fn build(ws: &Workspace) -> CallGraph {
        let visible = visibility_closure(ws);

        // Name → candidate fn ids (shipped code only; fns in test
        // modules, tests/ files, examples, and benches never resolve as
        // callees of shipped fns).
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for f in &ws.fns {
            let shipped = matches!(
                ws.files[f.file].section,
                crate::model::Section::Src | crate::model::Section::Bin
            );
            if !f.in_test && shipped {
                by_name.entry(f.name.as_str()).or_default().push(f.id);
            }
        }

        let empty = BTreeSet::new();
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); ws.fns.len()];
        let mut sites: Vec<Vec<Call>> = vec![Vec::new(); ws.fns.len()];
        for f in &ws.fns {
            let file = ws.file_of(f);
            let calls = extract_calls(file, ws.body_toks(f));
            let seen_from = visible.get(&f.crate_name).unwrap_or(&empty);
            let mut out: BTreeSet<usize> = BTreeSet::new();
            for call in &calls {
                if let Some(cands) = by_name.get(call.name.as_str()) {
                    for &id in cands {
                        let g = &ws.fns[id];
                        if id == f.id {
                            continue;
                        }
                        if !seen_from.contains(&g.crate_name) {
                            continue;
                        }
                        if let Some(q) = &call.qual {
                            // `Type::name(..)` only matches that impl
                            // target (or a free fn re-exported under a
                            // module path — accept missing quals too).
                            if g.qual.as_deref().is_some_and(|gq| gq != q) {
                                continue;
                            }
                        }
                        out.insert(id);
                    }
                }
            }
            callees[f.id] = out.into_iter().collect();
            sites[f.id] = calls;
        }

        CallGraph { callees, sites, visible }
    }

    /// Breadth-first search forward from `roots`. Returns `reached fn
    /// id → predecessor fn id`: each reached fn maps to the fn it was
    /// *first* reached from (roots to themselves), so following the map
    /// walks a shortest path back to a root and never cycles, and
    /// findings can print that path.
    pub fn reach_forward(&self, roots: &[usize]) -> BTreeMap<usize, usize> {
        let mut pred: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: Vec<usize> = Vec::new();
        for &r in roots {
            if let Entry::Vacant(slot) = pred.entry(r) {
                slot.insert(r);
                queue.push(r);
            }
        }
        let mut qi = 0;
        while let Some(&f) = queue.get(qi) {
            qi += 1;
            for &g in &self.callees[f] {
                if let Entry::Vacant(slot) = pred.entry(g) {
                    slot.insert(f);
                    queue.push(g);
                }
            }
        }
        pred
    }

    /// The chain `f → … → root` implied by a predecessor map, rendered
    /// as display names (root first).
    pub fn chain(ws: &Workspace, pred: &BTreeMap<usize, usize>, mut f: usize) -> Vec<String> {
        let mut chain = vec![ws.fns[f].display_name()];
        let mut guard = 0;
        while let Some(&p) = pred.get(&f) {
            if p == f || guard > 64 {
                break;
            }
            chain.push(ws.fns[p].display_name());
            f = p;
            guard += 1;
        }
        chain.reverse();
        chain
    }
}

/// Transitive closure of the observed import edges; every crate sees
/// itself, and the root facade sees every crate.
fn visibility_closure(ws: &Workspace) -> BTreeMap<String, BTreeSet<String>> {
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for c in &ws.crates {
        direct.entry(c.clone()).or_default().insert(c.clone());
    }
    for e in &ws.imports {
        direct.entry(e.from.clone()).or_default().insert(e.to.clone());
    }
    if let Some(root) = direct.get_mut("(root)") {
        root.extend(ws.crates.iter().cloned());
    }
    // Fixed-point closure (the crate graph is tiny).
    loop {
        let mut changed = false;
        let snapshot = direct.clone();
        for deps in direct.values_mut() {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for d in deps.iter() {
                if let Some(dd) = snapshot.get(d) {
                    add.extend(dd.iter().cloned());
                }
            }
            let before = deps.len();
            deps.extend(add);
            changed |= deps.len() != before;
        }
        if !changed {
            return direct;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Section;

    fn two_crate_ws() -> Workspace {
        let mut ws = Workspace {
            crates: vec!["(root)".into(), "cache".into(), "core".into()],
            ..Workspace::default()
        };
        ws.add_file(
            "crates/cache/src/lib.rs".into(),
            "cache".into(),
            Section::Src,
            "pub fn probe(x: u64) -> bool { helper(x) }\nfn helper(x: u64) -> bool { x > 0 }\n"
                .into(),
        );
        ws.add_file(
            "crates/core/src/lib.rs".into(),
            "core".into(),
            Section::Src,
            "use csim_cache::probe;\npub fn run() { probe(1); }\n".into(),
        );
        ws
    }

    #[test]
    fn cross_crate_calls_resolve_through_visibility() {
        let ws = two_crate_ws();
        let g = CallGraph::build(&ws);
        let run = ws.fns.iter().find(|f| f.name == "run").unwrap();
        let probe = ws.fns.iter().find(|f| f.name == "probe").unwrap();
        assert!(g.callees[run.id].contains(&probe.id));
        // cache cannot see core, so nothing resolves backward.
        assert!(g.callees[probe.id].iter().all(|&id| ws.fns[id].crate_name == "cache"));
    }

    #[test]
    fn forward_reach_crosses_crates() {
        let ws = two_crate_ws();
        let g = CallGraph::build(&ws);
        let run = ws.fns.iter().find(|f| f.name == "run").unwrap().id;
        let helper = ws.fns.iter().find(|f| f.name == "helper").unwrap().id;
        let all = g.reach_forward(&[run]);
        assert!(all.contains_key(&helper));
        let chain = CallGraph::chain(&ws, &all, helper);
        assert_eq!(chain, ["run", "probe", "helper"]);
    }

    #[test]
    fn chains_are_shortest_paths_through_cycles() {
        // `step` and `visit` call each other and `visit` calls back into
        // the root: each fn keeps the caller it was first reached from,
        // so every chain ends at the root instead of looping.
        let mut ws = Workspace { crates: vec!["core".into()], ..Workspace::default() };
        ws.add_file(
            "crates/core/src/lib.rs".into(),
            "core".into(),
            Section::Src,
            "pub fn run() { step(); }\nfn step() { visit(); }\nfn visit() { step(); run(); }\n"
                .into(),
        );
        let g = CallGraph::build(&ws);
        let id = |name: &str| ws.fns.iter().find(|f| f.name == name).unwrap().id;
        let fwd = g.reach_forward(&[id("run")]);
        assert_eq!(CallGraph::chain(&ws, &fwd, id("visit")), ["run", "step", "visit"]);
    }
}
