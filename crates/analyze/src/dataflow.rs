//! A small forward-dataflow framework over [`crate::cfg`] graphs.
//!
//! An [`Analysis`] supplies the abstract state, the join, and two
//! transfer functions: one over a statement token range, one over an
//! edge (which sees the source block's final range — the branch
//! condition — plus the [`EdgeKind`], so `if i < v.len()` can put
//! `lt(i, v)` into the true branch). [`fixpoint`] iterates in reverse
//! postorder until nothing changes, which is deterministic by
//! construction: block order, edge order, and join order are all fixed
//! by the CFG, never by hash iteration.
//!
//! Unreachable-so-far blocks carry `None` (the ⊥ "no paths" state):
//! joining `None` with a state yields that state, which is what makes
//! must-fact analyses precise around early returns — a `return` arm
//! contributes nothing to the join after an `if`, so facts proven by
//! the guard survive.
//!
//! Termination is the client's obligation (joins must be monotone:
//! must-sets only shrink). A generous iteration cap backstops the
//! engine against a non-monotone client; hitting it is a defect in the
//! client, not an input condition, and the partial result is still a
//! sound over-approximation for the shipped client, the panic-freedom
//! pass, because its join only ever discards facts.

use crate::cfg::{Cfg, EdgeKind};
use crate::model::SourceFile;

/// One forward analysis: state, join, and transfer functions.
pub trait Analysis {
    /// Abstract state at a program point.
    type State: Clone + PartialEq;

    /// State on entry to the function.
    fn entry_state(&self) -> Self::State;

    /// Joins `other` into `into` (must be commutative, associative,
    /// idempotent, and monotone).
    fn join(&self, into: &mut Self::State, other: &Self::State);

    /// Applies one statement range (half-open token indices into
    /// `file.toks`).
    fn transfer_stmt(&self, st: &mut Self::State, file: &SourceFile, range: (usize, usize));

    /// Refines the state along an edge. `cond` is the source block's
    /// final statement range — for branch heads, the condition
    /// (including its leading keyword) — or `None` for empty blocks.
    fn transfer_edge(
        &self,
        st: &mut Self::State,
        file: &SourceFile,
        cond: Option<(usize, usize)>,
        kind: EdgeKind,
    );
}

/// Runs `a` to fixpoint over `cfg`; returns the state *entering* each
/// block (`None` = unreachable).
pub fn fixpoint<A: Analysis>(a: &A, cfg: &Cfg, file: &SourceFile) -> Vec<Option<A::State>> {
    let n = cfg.blocks.len();
    let mut input: Vec<Option<A::State>> = vec![None; n];
    if n == 0 {
        return input;
    }
    input[0] = Some(a.entry_state());
    let order = cfg.rpo();
    // Monotone clients converge in O(depth) sweeps; the cap is a
    // backstop, sized far above any real function's loop depth.
    let cap = 8 * n + 16;
    for _ in 0..cap {
        let mut changed = false;
        for &b in &order {
            let Some(st) = input[b].clone() else { continue };
            let out = flow_block(a, cfg, file, b, st);
            let cond = cfg.blocks[b].stmts.last().copied();
            for &(succ, kind) in &cfg.blocks[b].succs {
                let mut along = out.clone();
                a.transfer_edge(&mut along, file, cond, kind);
                match &mut input[succ] {
                    slot @ None => {
                        *slot = Some(along);
                        changed = true;
                    }
                    Some(cur) => {
                        let mut joined = cur.clone();
                        a.join(&mut joined, &along);
                        if joined != *cur {
                            *cur = joined;
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
    input
}

/// The state at the *end* of block `b` given its entry state.
pub(crate) fn flow_block<A: Analysis>(
    a: &A,
    cfg: &Cfg,
    file: &SourceFile,
    b: usize,
    mut st: A::State,
) -> A::State {
    for &r in &cfg.blocks[b].stmts {
        a.transfer_stmt(&mut st, file, r);
    }
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::model::{Section, Workspace};
    use std::collections::BTreeSet;

    /// A toy must-analysis: the set of single-letter idents definitely
    /// assigned (`x = ..;`) on every path. Join is set intersection.
    struct Assigned;

    impl Analysis for Assigned {
        type State = BTreeSet<String>;

        fn entry_state(&self) -> Self::State {
            BTreeSet::new()
        }

        fn join(&self, into: &mut Self::State, other: &Self::State) {
            into.retain(|k| other.contains(k));
        }

        fn transfer_stmt(&self, st: &mut Self::State, file: &SourceFile, (s, e): (usize, usize)) {
            for i in s..e.min(file.toks.len().saturating_sub(1)) {
                let t = file.text(file.toks[i]);
                if file.text(file.toks[i + 1]) == "="
                    && t.len() == 1
                    && t.chars().all(|c| c.is_ascii_lowercase())
                {
                    st.insert(t.to_string());
                }
            }
        }

        fn transfer_edge(
            &self,
            _st: &mut Self::State,
            _file: &SourceFile,
            _cond: Option<(usize, usize)>,
            _kind: EdgeKind,
        ) {
        }
    }

    fn run_on(src: &str) -> (Cfg, Vec<Option<BTreeSet<String>>>) {
        let mut ws = Workspace { crates: vec!["core".into()], ..Workspace::default() };
        ws.add_file("crates/core/src/lib.rs".into(), "core".into(), Section::Src, src.into());
        let f = &ws.fns[0];
        let cfg = Cfg::build(&ws.files[f.file], f.body.expect("body"));
        let states = fixpoint(&Assigned, &cfg, &ws.files[f.file]);
        (cfg, states)
    }

    #[test]
    fn facts_intersect_at_joins() {
        // `a` is assigned on both branches, `b` on one: only `a` is a
        // must-fact at the exit.
        let (cfg, states) = run_on(
            "fn f(c: bool, mut a: u64, mut b: u64) { if c { a = 1; b = 2; } else { a = 3; } }\n",
        );
        let at_exit = states[cfg.exit].as_ref().expect("exit reachable");
        assert!(at_exit.contains("a"), "{states:?}");
        assert!(!at_exit.contains("b"), "{states:?}");
    }

    #[test]
    fn early_returns_do_not_pollute_the_join() {
        // The then-branch returns, so the fact set after the `if` comes
        // solely from the fall-through path.
        let (cfg, states) = run_on(
            "fn f(c: bool) -> u64 { let mut a = 0; if c { return 9; } a = 1; a }\n",
        );
        let at_exit = states[cfg.exit].as_ref().expect("exit reachable");
        assert!(at_exit.contains("a"));
    }

    #[test]
    fn loops_reach_a_stable_fixpoint() {
        let (cfg, states) = run_on(
            "fn f(n: u64) { let mut i = 0; while i < n { i = i + 1; } let mut z = 0; z = i; }\n",
        );
        let at_exit = states[cfg.exit].as_ref().expect("exit reachable");
        assert!(at_exit.contains("i"));
        assert!(at_exit.contains("z"));
        // Every reachable block settled to Some.
        let reachable = cfg.rpo();
        for b in reachable {
            assert!(states[b].is_some(), "block {b} never reached");
        }
    }
}
