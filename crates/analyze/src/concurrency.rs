//! Pass 5 — the concurrency-discipline gate.
//!
//! PRs 6–7 moved the workspace from "single-threaded with a seed" to
//! hand-rolled concurrency: sweep workers behind a scoped spawn, a
//! sampling watcher thread, relaxed-atomic region stripes, and a shared
//! OLTP counter block. The byte-identity guarantees now hinge on
//! cross-thread discipline, so this pass machine-checks it:
//!
//! * **`atomic-relaxed-store`** — every `Relaxed` atomic *store* in
//!   shipped code must be a declared publication stripe, marked
//!   `// analyze: publish — reason`. Relaxed RMWs (`fetch_add` etc.)
//!   are exempt: they are single-location and the workspace uses them
//!   only for counters; it is the plain store — the "publish a value
//!   other threads read" idiom — whose (lack of) ordering needs a
//!   stated justification.
//! * **`atomic-seqcst`** — `SeqCst` in shipped non-test code is a
//!   finding. The workspace contract is acquire/release or
//!   reasoned-relaxed; sequential consistency is either unnecessary
//!   cost or papering over an unstated protocol.
//! * **`lock-order`** — a name-based lock-order graph: within each
//!   function, acquiring lock `a` then lock `b` adds the edge `a → b`;
//!   calls made while a lock is held contribute the callee's transitive
//!   lock set (interprocedurally, over the shipped call graph). A cycle
//!   in the graph is a potential deadlock.
//! * **`lock-across-spawn`** — a lock acquired and then (textually
//!   later in the same body) a `spawn(..)` or bare `.join()`, or a call
//!   into a function that can transitively reach one, may hold the lock
//!   across thread lifetime edges — the classic recipe for a deadlock
//!   against a worker that wants the same lock.
//!
//! Like every pass here, resolution is name-based and
//! over-approximate: lock identity is the receiver identifier (so two
//! `Mutex` fields named `m` alias), and acquisition order is textual
//! order, not dataflow. That direction is safe for a gate — false
//! cycles are escaped with a counted `// lint: allow(lock-order) —
//! reason`, silent deadlocks are not.

use std::collections::{BTreeMap, BTreeSet};

use crate::lex::TokKind;

use crate::graph::CallGraph;
use crate::model::{FnItem, Section, Workspace};
use crate::report::{Finding, Pass, Suppression};

/// Atomic methods that take an `Ordering` argument (the `SeqCst` scan
/// covers all of them; the relaxed-store rule covers only `store`).
const ATOMIC_METHODS: &[&str] = &[
    "load", "store", "swap", "fetch_add", "fetch_sub", "fetch_and", "fetch_nand", "fetch_or",
    "fetch_xor", "fetch_max", "fetch_min", "fetch_update", "compare_exchange",
    "compare_exchange_weak",
];

/// One lock acquisition observed in a function body.
#[derive(Clone, Debug)]
struct Acquisition {
    /// Receiver identifier — the pass's notion of lock identity.
    name: String,
    /// 1-based line of the acquiring call.
    line: usize,
}

/// Concurrency facts extracted from one function.
#[derive(Clone, Debug, Default)]
struct FnFacts {
    /// Lock acquisitions in textual (token) order.
    acquisitions: Vec<Acquisition>,
    /// Lines with a `spawn(..)` call.
    spawn_lines: Vec<usize>,
    /// Lines with a bare `.join()` (thread-handle join; `join(sep)` on
    /// slices takes an argument and is ignored).
    join_lines: Vec<usize>,
}

/// Provenance of one lock-order edge, for anchoring findings.
#[derive(Clone, Debug)]
struct EdgeInfo {
    file: usize,
    line: usize,
    via: String,
}

/// Runs the concurrency-discipline pass.
pub fn run(ws: &Workspace, graph: &CallGraph) -> (Vec<Finding>, Vec<Suppression>) {
    let mut findings = Vec::new();
    let mut suppressions = Vec::new();

    let shipped: Vec<&FnItem> = ws
        .fns
        .iter()
        .filter(|f| {
            !f.in_test && matches!(ws.files[f.file].section, Section::Src | Section::Bin)
        })
        .collect();

    // ---- per-function facts + the atomic rules -------------------------
    let mut facts: BTreeMap<usize, FnFacts> = BTreeMap::new();
    for f in &shipped {
        let fx = scan_fn(ws, f, &mut findings, &mut suppressions);
        facts.insert(f.id, fx);
    }

    // ---- interprocedural closures --------------------------------------
    // Transitive lock set per fn: locks it (or any shipped callee)
    // acquires. Liveness-style fixpoint; the graph is small.
    let mut lockset: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for (&id, fx) in &facts {
        lockset.insert(id, fx.acquisitions.iter().map(|a| a.name.clone()).collect());
    }
    loop {
        let mut changed = false;
        for f in &shipped {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for &g in &graph.callees[f.id] {
                if let Some(s) = lockset.get(&g) {
                    add.extend(s.iter().cloned());
                }
            }
            if let Some(s) = lockset.get_mut(&f.id) {
                let before = s.len();
                s.extend(add);
                changed |= s.len() != before;
            }
        }
        if !changed {
            break;
        }
    }

    // Functions that contain — or can transitively reach — a spawn.
    let spawners: Vec<usize> = facts
        .iter()
        .filter(|(_, fx)| !fx.spawn_lines.is_empty())
        .map(|(&id, _)| id)
        .collect();
    let spawn_reaching = graph.reach_backward(&spawners);

    // ---- lock-order edges ----------------------------------------------
    // Within one fn: acquisition a before acquisition b ⇒ edge a → b.
    // Holding a and then calling g ⇒ edges a → each lock in g's
    // transitive set. First provenance per edge wins (fn-id order, then
    // token order — deterministic).
    let mut edges: BTreeMap<(String, String), EdgeInfo> = BTreeMap::new();
    for f in &shipped {
        let fx = &facts[&f.id];
        for (i, a) in fx.acquisitions.iter().enumerate() {
            for b in &fx.acquisitions[i + 1..] {
                if a.name != b.name {
                    edges.entry((a.name.clone(), b.name.clone())).or_insert(EdgeInfo {
                        file: f.file,
                        line: b.line,
                        via: f.display_name(),
                    });
                }
            }
            for call in &graph.sites[f.id] {
                if call.line < a.line {
                    continue;
                }
                for &g in &graph.callees[f.id] {
                    if ws.fns[g].name != call.name {
                        continue;
                    }
                    if let Some(names) = lockset.get(&g) {
                        for b in names {
                            if *b != a.name {
                                edges
                                    .entry((a.name.clone(), b.clone()))
                                    .or_insert(EdgeInfo {
                                        file: f.file,
                                        line: call.line,
                                        via: f.display_name(),
                                    });
                            }
                        }
                    }
                }
            }
        }
    }

    // ---- cycle detection over the lock-name graph ----------------------
    for cycle in find_cycles(&edges) {
        // Anchor each cycle at its lexicographically smallest edge's
        // provenance so the finding is byte-stable.
        let Some(anchor) = cycle
            .iter()
            .zip(cycle.iter().cycle().skip(1))
            .filter_map(|(a, b)| edges.get(&(a.clone(), b.clone())))
            .min_by_key(|e| (ws.files[e.file].rel.clone(), e.line))
        else {
            continue; // unreachable: every cycle edge came from `edges`
        };
        let file = &ws.files[anchor.file];
        let mut names = cycle.clone();
        names.push(cycle[0].clone());
        let message = format!(
            "lock-order cycle {} — potential deadlock (name-based; escape with `// lint: allow(lock-order) — reason` if the locks never coexist)",
            names.join(" -> ")
        );
        let chain: Vec<String> = cycle
            .iter()
            .zip(cycle.iter().cycle().skip(1))
            .filter_map(|(a, b)| {
                edges.get(&(a.clone(), b.clone())).map(|e| {
                    format!("{a} -> {b} in {} ({}:{})", e.via, ws.files[e.file].rel, e.line)
                })
            })
            .collect();
        if let Some(reason) = file.allow_for("lock-order", anchor.line) {
            suppressions.push(Suppression {
                rule: "lock-order".into(),
                file: file.rel.clone(),
                line: anchor.line,
                reason: reason.to_string(),
            });
        } else {
            findings.push(Finding {
                pass: Pass::Concurrency,
                rule: "lock-order".into(),
                file: file.rel.clone(),
                line: anchor.line,
                message,
                excerpt: file.line_text(anchor.line).to_string(),
                chain,
            });
        }
    }

    // ---- lock held across spawn/join -----------------------------------
    for f in &shipped {
        let fx = &facts[&f.id];
        for a in &fx.acquisitions {
            let file = ws.file_of(f);
            let mut emit = |line: usize, what: &str, chain: Vec<String>| {
                if let Some(reason) = file.allow_for("lock-across-spawn", line) {
                    suppressions.push(Suppression {
                        rule: "lock-across-spawn".into(),
                        file: file.rel.clone(),
                        line,
                        reason: reason.to_string(),
                    });
                } else {
                    findings.push(Finding {
                        pass: Pass::Concurrency,
                        rule: "lock-across-spawn".into(),
                        file: file.rel.clone(),
                        line,
                        message: format!(
                            "lock `{}` (acquired line {}) may be held across {what} in `{}`",
                            a.name,
                            a.line,
                            f.display_name()
                        ),
                        excerpt: file.line_text(line).to_string(),
                        chain,
                    });
                }
            };
            for &sl in &fx.spawn_lines {
                if sl >= a.line {
                    emit(sl, "a thread spawn", vec![f.display_name()]);
                }
            }
            for &jl in &fx.join_lines {
                if jl >= a.line {
                    emit(jl, "a `.join()`", vec![f.display_name()]);
                }
            }
            // A call made while the lock is held, into a fn that can
            // transitively reach a spawn.
            for call in &graph.sites[f.id] {
                if call.line < a.line {
                    continue;
                }
                if let Some(&g) = graph.callees[f.id].iter().find(|&&g| {
                    ws.fns[g].name == call.name && spawn_reaching.contains_key(&g)
                }) {
                    emit(
                        call.line,
                        "a call that reaches `spawn`",
                        vec![f.display_name(), ws.fns[g].display_name()],
                    );
                }
            }
        }
    }

    (findings, suppressions)
}

/// Scans one function body: collects lock/spawn/join facts and emits the
/// atomic-ordering findings in place.
fn scan_fn(
    ws: &Workspace,
    f: &FnItem,
    findings: &mut Vec<Finding>,
    suppressions: &mut Vec<Suppression>,
) -> FnFacts {
    let file = ws.file_of(f);
    let body = ws.body_toks(f);
    let n = body.len();
    let text = |i: usize| file.text(body[i]);
    let mut fx = FnFacts::default();

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
                pass: Pass::Concurrency,
                rule: rule.to_string(),
                file: file.rel.clone(),
                line,
                message,
                excerpt: file.line_text(line).to_string(),
                chain,
            });
        }
    };

    for i in 0..n {
        if body[i].kind != TokKind::Ident {
            continue;
        }
        let name = text(i);
        let line = body[i].line as usize;
        let is_method = i >= 1 && text(i - 1) == ".";
        let opens_call = i + 1 < n && text(i + 1) == "(";
        if !opens_call {
            continue;
        }
        // Argument-list idents (for Ordering scans) and arity.
        let (arg_idents, zero_arg) = call_args(file, body, i + 1);

        // Lock acquisitions: `.lock(..)` always; `.read()` / `.write()`
        // only when zero-arg (io's read/write take buffers). Lock
        // identity is the receiver ident directly before the dot.
        if is_method
            && (name == "lock" || ((name == "read" || name == "write") && zero_arg))
            && i >= 2
            && body[i - 2].kind == TokKind::Ident
        {
            fx.acquisitions.push(Acquisition { name: text(i - 2).to_string(), line });
        }

        // Spawn and join sites.
        if name == "spawn" {
            fx.spawn_lines.push(line);
        }
        if name == "join" && is_method && zero_arg {
            fx.join_lines.push(line);
        }

        // Atomic orderings.
        if is_method && ATOMIC_METHODS.contains(&name) {
            if arg_idents.iter().any(|a| a == "SeqCst") {
                emit(
                    "atomic-seqcst",
                    line,
                    format!(
                        "`SeqCst` ordering on `.{name}(..)` in shipped code — the workspace contract is acquire/release or reasoned-relaxed"
                    ),
                    vec![f.display_name()],
                );
            }
            if name == "store"
                && arg_idents.iter().any(|a| a == "Relaxed")
                && file.publish_for(line).is_none()
            {
                emit(
                    "atomic-relaxed-store",
                    line,
                    "relaxed atomic store is an undeclared publication — mark it `// analyze: publish — reason` or use `Release`".to_string(),
                    vec![f.display_name()],
                );
            }
        }
    }
    fx
}

/// The identifiers inside a call's argument list (paren group opening at
/// `open`), plus whether the list is empty.
fn call_args(
    file: &crate::model::SourceFile,
    body: &[crate::model::OTok],
    open: usize,
) -> (Vec<String>, bool) {
    let mut idents = Vec::new();
    let mut depth = 0usize;
    let mut i = open;
    let zero_arg = open + 1 < body.len() && file.text(body[open + 1]) == ")";
    while i < body.len() {
        let t = file.text(body[i]);
        match t {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {
                if body[i].kind == TokKind::Ident {
                    idents.push(t.to_string());
                }
            }
        }
        i += 1;
    }
    (idents, zero_arg)
}

/// Every elementary cycle-ish loop in the lock graph, found by DFS:
/// each back edge yields the on-stack path from its target, rotated so
/// the smallest lock name leads, deduplicated. Deterministic because
/// nodes and adjacency iterate in `BTreeMap` order.
fn find_cycles(edges: &BTreeMap<(String, String), EdgeInfo>) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    let mut cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut done: BTreeSet<&str> = BTreeSet::new();
    for &start in adj.keys().collect::<Vec<_>>().iter() {
        // Path-stack DFS from each node; bounded by the tiny lock count.
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&str> = vec![start];
        while let Some((node, next)) = stack.last_mut() {
            let succs = adj.get(*node).map(Vec::as_slice).unwrap_or(&[]);
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                if let Some(pos) = path.iter().position(|&p| p == s) {
                    let mut cyc: Vec<String> =
                        path[pos..].iter().map(|s| (*s).to_string()).collect();
                    rotate_min_first(&mut cyc);
                    cycles.insert(cyc);
                } else if !done.contains(s) {
                    path.push(s);
                    stack.push((s, 0));
                }
            } else {
                path.pop();
                stack.pop();
            }
        }
        done.insert(start);
    }
    cycles.into_iter().collect()
}

/// Rotates a cycle so its lexicographically smallest element leads (the
/// canonical form used for deduplication).
fn rotate_min_first(cycle: &mut [String]) {
    if let Some(min_pos) = cycle
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.cmp(b))
        .map(|(i, _)| i)
    {
        cycle.rotate_left(min_pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Section;
    use std::collections::BTreeSet;

    fn ws_of(src: &str) -> (Workspace, CallGraph) {
        let mut ws = Workspace { crates: vec!["core".into()], ..Workspace::default() };
        ws.hash_names.insert("core".into(), BTreeSet::new());
        ws.add_file("crates/core/src/lib.rs".into(), "core".into(), Section::Src, src.into());
        let g = CallGraph::build(&ws);
        (ws, g)
    }

    fn rules(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn relaxed_store_requires_a_publish_marker() {
        let src = "\
fn publish(x: &std::sync::atomic::AtomicU64) {
    x.store(1, Ordering::Relaxed);
    // analyze: publish — monotonic progress counter, readers tolerate staleness
    x.store(2, Ordering::Relaxed);
    x.store(3, Ordering::Release);
    let _ = x.load(Ordering::Relaxed);
    x.fetch_add(1, Ordering::Relaxed);
}
";
        let (ws, g) = ws_of(src);
        let (f, _) = run(&ws, &g);
        assert_eq!(rules(&f), ["atomic-relaxed-store"], "{f:?}");
        assert_eq!(f[0].line, 2, "only the unmarked relaxed store fires");
    }

    #[test]
    fn seqcst_fires_in_shipped_code_but_not_tests() {
        let src = "\
fn shipped(x: &std::sync::atomic::AtomicU64) -> u64 {
    x.load(Ordering::SeqCst)
}
#[cfg(test)]
mod tests {
    fn in_test(x: &std::sync::atomic::AtomicU64) -> u64 {
        x.load(Ordering::SeqCst)
    }
}
";
        let (ws, g) = ws_of(src);
        let (f, _) = run(&ws, &g);
        assert_eq!(rules(&f), ["atomic-seqcst"], "{f:?}");
        assert!(f[0].message.contains("acquire/release"));
    }

    #[test]
    fn lock_order_cycle_is_a_finding_with_both_edges_in_the_chain() {
        let src = "\
fn forward(alpha: &M, beta: &M) {
    let _a = alpha.lock();
    let _b = beta.lock();
}
fn backward(alpha: &M, beta: &M) {
    let _b = beta.lock();
    let _a = alpha.lock();
}
";
        let (ws, g) = ws_of(src);
        let (f, _) = run(&ws, &g);
        let cyc: Vec<_> = f.iter().filter(|f| f.rule == "lock-order").collect();
        assert_eq!(cyc.len(), 1, "{f:?}");
        assert!(cyc[0].message.contains("alpha -> beta -> alpha"), "{}", cyc[0].message);
        assert!(cyc[0].chain.iter().any(|c| c.contains("forward")), "{:?}", cyc[0].chain);
        assert!(cyc[0].chain.iter().any(|c| c.contains("backward")), "{:?}", cyc[0].chain);
    }

    #[test]
    fn lock_order_edges_cross_call_boundaries() {
        let src = "\
fn outer(alpha: &M, beta: &M) {
    let _a = alpha.lock();
    inner(beta);
}
fn inner(beta: &M) {
    let _b = beta.lock();
}
fn other(alpha: &M, beta: &M) {
    let _b = beta.lock();
    let _a = alpha.lock();
}
";
        let (ws, g) = ws_of(src);
        let (f, _) = run(&ws, &g);
        assert!(
            f.iter().any(|f| f.rule == "lock-order"),
            "interprocedural edge must close the cycle: {f:?}"
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "\
fn one(alpha: &M, beta: &M) {
    let _a = alpha.lock();
    let _b = beta.lock();
}
fn two(alpha: &M, beta: &M) {
    let _a = alpha.lock();
    let _b = beta.lock();
}
";
        let (ws, g) = ws_of(src);
        let (f, _) = run(&ws, &g);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn lock_across_spawn_and_join_fire() {
        let src = "\
fn holds_across(m: &std::sync::Mutex<u8>) {
    let _g = m.lock();
    std::thread::spawn(|| {});
}
fn joins(m: &std::sync::Mutex<u8>, h: std::thread::JoinHandle<()>) {
    let _g = m.lock();
    let _ = h.join();
}
fn fine(words: &[&str]) -> String {
    words.join(\", \")
}
";
        let (ws, g) = ws_of(src);
        let (f, _) = run(&ws, &g);
        let hits: Vec<_> = f.iter().filter(|f| f.rule == "lock-across-spawn").collect();
        assert_eq!(hits.len(), 2, "{f:?}");
        assert!(hits[0].message.contains("`m`"));
    }

    #[test]
    fn lock_before_a_call_reaching_spawn_fires_interprocedurally() {
        let src = "\
fn holds(m: &std::sync::Mutex<u8>) {
    let _g = m.lock();
    helper();
}
fn helper() {
    std::thread::spawn(|| {});
}
";
        let (ws, g) = ws_of(src);
        let (f, _) = run(&ws, &g);
        assert!(
            f.iter().any(|f| f.rule == "lock-across-spawn" && f.chain.len() == 2),
            "{f:?}"
        );
    }

    #[test]
    fn allows_suppress_with_reasons() {
        let src = "\
fn shipped(x: &std::sync::atomic::AtomicU64) -> u64 {
    // lint: allow(atomic-seqcst) — legacy protocol handshake, tracked for demotion
    x.load(Ordering::SeqCst)
}
";
        let (ws, g) = ws_of(src);
        let (f, s) = run(&ws, &g);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].rule, "atomic-seqcst");
    }
}
